//! MatrixMul: dense single-precision matrix multiplication (Table I,
//! 760 MB).
//!
//! Distribution follows §IV-C exactly: "the MatrixMul kernels on the
//! different devices are kept the same, just processing different data
//! portions" — each device receives a horizontal block of `A`, the whole
//! of `B`, and computes the matching block of `C = A·B`.

use haocl::{
    CommandQueue, Context, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
};
use haocl_kernel::CostModel;
use haocl_sim::rng::labeled_rng;
use rand::Rng;

use crate::report::{KernelMode, RunOptions, RunReport};
use crate::util::{
    bytes_to_f32s, create_buffer, f32s_to_bytes, read_buffer, round_up, write_buffer,
};

/// The kernel name in both source and bitstream form.
pub const KERNEL_NAME: &str = "matmul";

/// The OpenCL C kernel deployed to CPU/GPU nodes.
pub const KERNEL_SOURCE: &str = r#"
__kernel void matmul(__global const float* a, __global const float* b,
                     __global float* c, int n, int rows) {
    int i = get_global_id(0);
    int j = get_global_id(1);
    if (i < rows && j < n) {
        float acc = 0.0f;
        for (int k = 0; k < n; k++) {
            acc += a[i * n + k] * b[k * n + j];
        }
        c[i * n + j] = acc;
    }
}
"#;

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulConfig {
    /// Matrix dimension (`n × n`).
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl MatmulConfig {
    /// Table I scale: three 8192² f32 matrices ≈ 760 MB.
    pub fn paper_scale() -> Self {
        MatmulConfig { n: 8192, seed: 42 }
    }

    /// A Fig. 3 point: `n × n` matrices.
    pub fn with_n(n: usize) -> Self {
        MatmulConfig { n, seed: 42 }
    }

    /// Small size for full-fidelity tests.
    pub fn test_scale() -> Self {
        MatmulConfig { n: 48, seed: 42 }
    }

    /// Total bytes of the three matrices.
    pub fn input_bytes(&self) -> u64 {
        3 * 4 * (self.n as u64) * (self.n as u64)
    }
}

/// Generates a random `n × n` matrix (row-major).
pub fn generate_matrix(cfg: &MatmulConfig, label: &str) -> Vec<f32> {
    let mut rng = labeled_rng(cfg.seed, &format!("matmul/{label}"));
    (0..cfg.n * cfg.n)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect()
}

/// Host reference `C = A·B` (row-major), matching kernel FLOP order.
pub fn reference(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Cost of one device's launch over `rows` rows.
///
/// Traffic reflects the *naive* (un-tiled) kernel actually deployed: two
/// global loads per multiply-accumulate, and the `b[k*n+j]` access walks
/// a column, so every load burns a full 32-byte memory transaction for 4
/// useful bytes. Large multiplies are therefore deeply memory-bound
/// (~10 GFLOP/s effective on the P4 model) — matching the paper's
/// un-optimized kernels and the 10–170 s scale of its Fig. 3.
pub fn launch_cost(rows: usize, n: usize) -> CostModel {
    let (rows, n) = (rows as f64, n as f64);
    CostModel::new()
        .flops(2.0 * rows * n * n)
        // 4 B/MAC coalesced (a) + 32 B/MAC strided (b).
        .bytes_read(36.0 * rows * n * n)
        .bytes_written(4.0 * rows * n)
}

/// Runs distributed MatrixMul across every device of `platform`.
///
/// # Errors
///
/// Propagates any API or transport failure from the wrapper library.
pub fn run(platform: &Platform, cfg: &MatmulConfig, opts: &RunOptions) -> Result<RunReport, Error> {
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &devices)?;
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d))
        .collect::<Result<_, _>>()?;
    let program = match opts.mode {
        KernelMode::Bitstream => Program::with_bitstream_kernels(&ctx, [KERNEL_NAME]),
        KernelMode::Source => Program::from_source(&ctx, KERNEL_SOURCE),
    };
    program.build()?;
    let kernel = Kernel::new(&program, KERNEL_NAME)?;
    kernel.set_fidelity(opts.fidelity);

    platform.reset_phases();
    let t0 = platform.now();
    let full = opts.is_full();
    let n = cfg.n;

    // Data creation (host-side generation is charged to DataCreate).
    let (a, b) = if full {
        (generate_matrix(cfg, "a"), generate_matrix(cfg, "b"))
    } else {
        (Vec::new(), Vec::new())
    };
    platform.charge_data_creation(2 * 4 * (n as u64) * (n as u64));
    if opts.replicate_inputs {
        crate::util::charge_replication(&ctx, &queues, 2 * 4 * (n as u64) * (n as u64))?;
    }

    // Heterogeneity-aware split (§IV-C): portion sizes follow device
    // throughput for this kernel's cost profile.
    let weights = crate::util::throughput_weights(&devices, &launch_cost(1, n));
    let ranges = crate::partition::weighted_ranges(n, &weights);
    let mut parts = Vec::new();
    for (queue, range) in queues.iter().zip(&ranges) {
        let rows = range.len();
        let a_bytes = (rows * n * 4) as u64;
        let b_bytes = (n * n * 4) as u64;
        let c_bytes = (rows * n * 4) as u64;
        let a_d = create_buffer(&ctx, MemFlags::READ_ONLY, a_bytes.max(4), full)?;
        let b_d = create_buffer(&ctx, MemFlags::READ_ONLY, b_bytes, full)?;
        let c_d = create_buffer(&ctx, MemFlags::WRITE_ONLY, c_bytes.max(4), full)?;
        if rows > 0 {
            let a_block = if full {
                f32s_to_bytes(&a[range.start * n..range.end * n])
            } else {
                Vec::new()
            };
            write_buffer(queue, &a_d, &a_block, a_bytes, full)?;
        }
        let b_data = if full { f32s_to_bytes(&b) } else { Vec::new() };
        write_buffer(queue, &b_d, &b_data, b_bytes, full)?;
        parts.push((a_d, b_d, c_d, range.clone()));
    }
    // Steady-state measurement starts once the inputs are resident.
    let t0 = if opts.data_resident {
        platform.now()
    } else {
        t0
    };

    for (queue, (a_d, b_d, c_d, range)) in queues.iter().zip(&parts) {
        let rows = range.len();
        if rows == 0 {
            continue;
        }
        kernel.set_arg_buffer(0, a_d)?;
        kernel.set_arg_buffer(1, b_d)?;
        kernel.set_arg_buffer(2, c_d)?;
        kernel.set_arg_i32(3, n as i32)?;
        kernel.set_arg_i32(4, rows as i32)?;
        kernel.set_cost(launch_cost(rows, n));
        let local = 8u64;
        let global = [round_up(rows as u64, local), round_up(n as u64, local)];
        queue.enqueue_nd_range_kernel(&kernel, NdRange::d2(global, [local, local]))?;
    }
    for queue in &queues {
        queue.finish();
    }

    // Gather C and verify.
    let mut verified = None;
    if full {
        let mut c = vec![0.0f32; n * n];
        for (queue, (_, _, c_d, range)) in queues.iter().zip(&parts) {
            let rows = range.len();
            if rows == 0 {
                continue;
            }
            let bytes = read_buffer(queue, c_d, (rows * n * 4) as u64, true)?
                .expect("full fidelity returns data");
            c[range.start * n..range.end * n].copy_from_slice(&bytes_to_f32s(&bytes));
        }
        if opts.verify {
            let expect = reference(&a, &b, n);
            verified = Some(
                c.iter()
                    .zip(&expect)
                    .all(|(x, y)| (x - y).abs() <= 1e-3 * y.abs().max(1.0)),
            );
        }
    } else {
        for (queue, (_, _, c_d, range)) in queues.iter().zip(&parts) {
            if range.is_empty() {
                continue;
            }
            read_buffer(queue, c_d, (range.len() * n * 4) as u64, false)?;
        }
    }

    Ok(RunReport {
        app: "MatrixMul".to_string(),
        devices: devices.len(),
        makespan: platform.now() - t0,
        phases: platform.phase_breakdown(),
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl::DeviceKind;

    fn platform(kinds: &[DeviceKind]) -> Platform {
        Platform::local_with_registry(kinds, crate::registry_with_all()).unwrap()
    }

    #[test]
    fn single_gpu_native_verifies() {
        let p = platform(&[DeviceKind::Gpu]);
        let report = run(&p, &MatmulConfig::test_scale(), &RunOptions::full()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
        assert_eq!(report.devices, 1);
        assert!(report.makespan > haocl_sim::SimDuration::ZERO);
    }

    #[test]
    fn source_kernel_matches_native() {
        let p = platform(&[DeviceKind::Gpu]);
        // The source path goes through the clc VM; results must verify
        // against the same reference.
        let cfg = MatmulConfig { n: 24, seed: 7 };
        let report = run(&p, &cfg, &RunOptions::source()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn multi_device_partition_verifies() {
        let p = platform(&[DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Fpga]);
        let report = run(&p, &MatmulConfig::test_scale(), &RunOptions::full()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
        assert_eq!(report.devices, 3);
    }

    #[test]
    fn more_devices_is_faster_in_virtual_time() {
        // Paper-scale (modeled) so compute dominates launch overhead;
        // tiny matrices legitimately do not scale.
        let cfg = MatmulConfig::with_n(4096);
        let opts = RunOptions::modeled();
        let one = run(&platform(&[DeviceKind::Gpu]), &cfg, &opts).unwrap();
        let four = run(&platform(&[DeviceKind::Gpu; 4]), &cfg, &opts).unwrap();
        assert!(
            four.speedup_over(&one) > 1.5,
            "4 GPUs only {}x faster",
            four.speedup_over(&one)
        );
    }

    #[test]
    fn modeled_run_reports_phases_without_data() {
        let p = platform(&[DeviceKind::Gpu]);
        let cfg = MatmulConfig::with_n(2048);
        let report = run(&p, &cfg, &RunOptions::modeled()).unwrap();
        assert_eq!(report.verified, None);
        let phases = report.phases;
        assert!(phases.time(haocl_sim::Phase::Compute) > haocl_sim::SimDuration::ZERO);
        assert!(phases.time(haocl_sim::Phase::DataTransfer) > haocl_sim::SimDuration::ZERO);
        assert!(phases.time(haocl_sim::Phase::DataCreate) > haocl_sim::SimDuration::ZERO);
    }

    #[test]
    fn reference_agrees_with_identity() {
        // A · I = A.
        let n = 4;
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut id = vec![0.0f32; 16];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        assert_eq!(reference(&a, &id, n), a);
    }

    #[test]
    fn paper_scale_matches_table1() {
        let bytes = MatmulConfig::paper_scale().input_bytes();
        // 760 MB ± 10%.
        assert!((7.2e8..8.5e8).contains(&(bytes as f64)), "{bytes}");
    }
}
