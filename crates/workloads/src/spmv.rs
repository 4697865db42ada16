//! SpMV: sparse matrix–vector multiplication in CSR format (Table I,
//! 1.1 GB).
//!
//! Two kernels, matching the staged heterogeneity evaluation of §IV-C
//! ("the kernel for data partition is allocated on the GPUs and
//! computation on the FPGAs"):
//!
//! * [`NNZ_KERNEL_NAME`] — the partition stage: per-row nonzero counts,
//!   a uniform pass GPUs digest well;
//! * [`KERNEL_NAME`] — the compute stage: the CSR multiply, a streaming
//!   pass FPGAs digest well.

use haocl::{
    CommandQueue, Context, Device, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
    Status,
};
use haocl_kernel::CostModel;
use haocl_sim::rng::labeled_rng;
use rand::Rng;

use crate::partition::nnz_balanced_rows;
use crate::report::{KernelMode, RunOptions, RunReport};
use crate::util::{
    bytes_to_f32s, create_buffer, f32s_to_bytes, i32s_to_bytes, read_buffer, round_up, write_buffer,
};

/// The compute-stage kernel name.
pub const KERNEL_NAME: &str = "spmv_csr";

/// The partition-stage kernel name.
pub const NNZ_KERNEL_NAME: &str = "spmv_row_nnz";

/// OpenCL C source holding both kernels.
pub const KERNEL_SOURCE: &str = r#"
__kernel void spmv_row_nnz(__global const int* row_ptr, __global int* row_nnz, int n) {
    int i = get_global_id(0);
    if (i < n) {
        row_nnz[i] = row_ptr[i + 1] - row_ptr[i];
    }
}

__kernel void spmv_csr(__global const int* row_ptr, __global const int* cols,
                       __global const float* vals, __global const float* x,
                       __global float* y, int rows) {
    int i = get_global_id(0);
    if (i < rows) {
        float acc = 0.0f;
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
            acc += vals[j] * x[cols[j]];
        }
        y[i] = acc;
    }
}
"#;

/// A CSR sparse matrix with `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Row pointers (`rows + 1` entries).
    pub row_ptr: Vec<u32>,
    /// Column indices per nonzero.
    pub cols: Vec<u32>,
    /// Values per nonzero.
    pub vals: Vec<f32>,
    /// Number of columns.
    pub n_cols: usize,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvConfig {
    /// Rows (and columns) of the square matrix.
    pub rows: usize,
    /// Average nonzeros per row.
    pub avg_nnz_per_row: usize,
    /// Generator seed.
    pub seed: u64,
}

impl SpmvConfig {
    /// Table I scale: ~4.1 M rows at 32 nnz/row ≈ 1.1 GB of CSR data.
    pub fn paper_scale() -> Self {
        SpmvConfig {
            rows: 4_100_000,
            avg_nnz_per_row: 32,
            seed: 42,
        }
    }

    /// Small size for full-fidelity tests.
    pub fn test_scale() -> Self {
        SpmvConfig {
            rows: 1024,
            avg_nnz_per_row: 8,
            seed: 42,
        }
    }

    /// Approximate bytes of the CSR structure plus vectors.
    pub fn input_bytes(&self) -> u64 {
        let rows = self.rows as u64;
        let nnz = rows * self.avg_nnz_per_row as u64;
        4 * (rows + 1) + 8 * nnz + 8 * rows
    }
}

/// The most nonzeros a row may draw for [`generate_matrix`] to place its
/// columns by rank rather than sort them.
const RANKED_DEG: usize = 32;

/// Generates a random square CSR matrix (row degrees vary ±50% around the
/// average; column indices sorted and deduplicated per row).
pub fn generate_matrix(cfg: &SpmvConfig) -> CsrMatrix {
    let mut rng = labeled_rng(cfg.seed, "spmv/matrix");
    let lo = (cfg.avg_nnz_per_row / 2).max(1);
    let hi = cfg.avg_nnz_per_row * 3 / 2 + 1;
    let mut row_ptr = Vec::with_capacity(cfg.rows + 1);
    let mut cols = Vec::with_capacity(cfg.rows * cfg.avg_nnz_per_row);
    let mut vals = Vec::with_capacity(cfg.rows * cfg.avg_nnz_per_row);
    let (mut drawn, mut row) = (Vec::with_capacity(hi), Vec::with_capacity(hi));
    row_ptr.push(0u32);
    for _ in 0..cfg.rows {
        let deg = rng.gen_range(lo..hi).min(cfg.rows);
        drawn.clear();
        drawn.extend((0..deg).map(|_| rng.gen_range(0..cfg.rows as u32)));
        let sorted = if deg <= RANKED_DEG {
            // Sorted and deduplicated with no branch on the draws, which a
            // sort of random columns mispredicts: each column lands at the
            // count of those below it — copies of one column on one slot —
            // and the slots none landed on (no column is `u32::MAX`) are
            // skipped. `deg²` compares: only short rows.
            row.clear();
            row.resize(deg, u32::MAX);
            for &c in &drawn {
                row[drawn.iter().filter(|&&o| o < c).count()] = c;
            }
            &row
        } else {
            drawn.sort_unstable();
            drawn.dedup();
            &drawn
        };
        for &c in sorted.iter().filter(|&&c| c != u32::MAX) {
            cols.push(c);
            vals.push(rng.gen_range(-1.0..1.0));
        }
        row_ptr.push(cols.len() as u32);
    }
    CsrMatrix {
        row_ptr,
        cols,
        vals,
        n_cols: cfg.rows,
    }
}

/// Generates the dense input vector.
pub fn generate_vector(cfg: &SpmvConfig) -> Vec<f32> {
    let mut rng = labeled_rng(cfg.seed, "spmv/x");
    (0..cfg.rows).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Host reference `y = A·x`, matching kernel FLOP order.
pub fn reference(m: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; m.rows()];
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for j in m.row_ptr[i] as usize..m.row_ptr[i + 1] as usize {
            acc += m.vals[j] * x[m.cols[j] as usize];
        }
        *out = acc;
    }
    y
}

/// Cost of a compute-stage launch over `nnz` nonzeros / `rows` rows.
///
/// Each nonzero streams its value and column index and gathers one
/// element of `x` with effectively no reuse (random columns), hence
/// 12 bytes of traffic per nonzero.
pub fn compute_cost(rows: usize, nnz: usize) -> CostModel {
    CostModel::new()
        .flops(2.0 * nnz as f64)
        .bytes_read(12.0 * nnz as f64 + 4.0 * rows as f64)
        .bytes_written(4.0 * rows as f64)
        .streaming()
}

/// Cost of a partition-stage launch over `rows` rows.
pub fn nnz_cost(rows: usize) -> CostModel {
    CostModel::new()
        .flops(rows as f64)
        .bytes_read(8.0 * rows as f64)
        .bytes_written(4.0 * rows as f64)
}

/// Runs distributed SpMV with nonzero-balanced row partitioning across
/// every device of `platform`.
///
/// # Errors
///
/// Propagates any API or transport failure from the wrapper library.
pub fn run(platform: &Platform, cfg: &SpmvConfig, opts: &RunOptions) -> Result<RunReport, Error> {
    let devices = platform.devices(DeviceType::All);
    run_on(platform, &devices, &devices, cfg, opts)
}

/// The staged heterogeneous run of §IV-C: the partition kernel runs on
/// the platform's GPUs, the compute kernel on its FPGAs.
///
/// # Errors
///
/// [`Status::DeviceNotFound`] if the platform lacks either class.
pub fn run_hetero(
    platform: &Platform,
    cfg: &SpmvConfig,
    opts: &RunOptions,
) -> Result<RunReport, Error> {
    let gpus = platform.devices(DeviceType::Gpu);
    let fpgas = platform.devices(DeviceType::Accelerator);
    if gpus.is_empty() || fpgas.is_empty() {
        return Err(Error::api(
            Status::DeviceNotFound,
            "staged SpMV needs at least one GPU and one FPGA",
        ));
    }
    run_on(platform, &gpus, &fpgas, cfg, opts)
}

fn run_on(
    platform: &Platform,
    partition_devices: &[Device],
    compute_devices: &[Device],
    cfg: &SpmvConfig,
    opts: &RunOptions,
) -> Result<RunReport, Error> {
    let all = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &all)?;
    let program = match opts.mode {
        KernelMode::Bitstream => {
            Program::with_bitstream_kernels(&ctx, [KERNEL_NAME, NNZ_KERNEL_NAME])
        }
        KernelMode::Source => Program::from_source(&ctx, KERNEL_SOURCE),
    };
    program.build()?;
    let nnz_kernel = Kernel::new(&program, NNZ_KERNEL_NAME)?;
    let csr_kernel = Kernel::new(&program, KERNEL_NAME)?;
    nnz_kernel.set_fidelity(opts.fidelity);
    csr_kernel.set_fidelity(opts.fidelity);

    platform.reset_phases();
    let t0 = platform.now();
    let full = opts.is_full();

    let (matrix, x) = if full {
        (generate_matrix(cfg), generate_vector(cfg))
    } else {
        (
            CsrMatrix {
                row_ptr: Vec::new(),
                cols: Vec::new(),
                vals: Vec::new(),
                n_cols: cfg.rows,
            },
            Vec::new(),
        )
    };
    platform.charge_data_creation(cfg.input_bytes());
    if opts.replicate_inputs {
        let all_queues: Vec<CommandQueue> = all
            .iter()
            .map(|d| CommandQueue::new(&ctx, d))
            .collect::<Result<_, _>>()?;
        crate::util::charge_replication(&ctx, &all_queues, cfg.input_bytes())?;
    }

    let rows = cfg.rows;
    let approx_nnz = rows * cfg.avg_nnz_per_row;

    // ---- Stage 1: partition analysis (row nnz counts). ----
    // The whole row_ptr goes to the first partition device; the counts
    // come back to the host, which derives the nnz-balanced row split.
    {
        let q = CommandQueue::new(&ctx, &partition_devices[0])?;
        let rp_bytes = 4 * (rows as u64 + 1);
        let rp_d = create_buffer(&ctx, MemFlags::READ_ONLY, rp_bytes, full)?;
        let out_d = create_buffer(&ctx, MemFlags::WRITE_ONLY, 4 * rows as u64, full)?;
        let rp_data = if full {
            i32s_to_bytes(&matrix.row_ptr.iter().map(|&v| v as i32).collect::<Vec<_>>())
        } else {
            Vec::new()
        };
        write_buffer(&q, &rp_d, &rp_data, rp_bytes, full)?;
        nnz_kernel.set_arg_buffer(0, &rp_d)?;
        nnz_kernel.set_arg_buffer(1, &out_d)?;
        nnz_kernel.set_arg_i32(2, rows as i32)?;
        nnz_kernel.set_cost(nnz_cost(rows));
        q.enqueue_nd_range_kernel(&nnz_kernel, NdRange::linear(round_up(rows as u64, 64), 64))?;
        q.finish();
        read_buffer(&q, &out_d, 4 * rows as u64, full)?;
    }

    // Host derives the split (from real row_ptr in full mode; an even
    // estimate in modeled mode, since modeled data has uniform rows).
    let ranges = if full {
        nnz_balanced_rows(&matrix.row_ptr, compute_devices.len())
    } else {
        crate::partition::balanced_ranges(rows, compute_devices.len())
    };

    // ---- Stage 2: the CSR multiply over nnz-balanced row blocks. ----
    let queues: Vec<CommandQueue> = compute_devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d))
        .collect::<Result<_, _>>()?;
    let mut parts = Vec::new();
    let x_data = if full { f32s_to_bytes(&x) } else { Vec::new() };
    for (queue, range) in queues.iter().zip(&ranges) {
        let r = range.len();
        let (part_nnz, rp_local, cols_local, vals_local) = if full {
            let lo = matrix.row_ptr[range.start] as usize;
            let hi = matrix.row_ptr[range.end] as usize;
            let rp: Vec<i32> = matrix.row_ptr[range.start..=range.end]
                .iter()
                .map(|&v| (v as usize - lo) as i32)
                .collect();
            let cl: Vec<i32> = matrix.cols[lo..hi].iter().map(|&c| c as i32).collect();
            let vl = matrix.vals[lo..hi].to_vec();
            (hi - lo, rp, cl, vl)
        } else {
            (
                approx_nnz / compute_devices.len().max(1),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            )
        };
        let rp_bytes = (4 * (r + 1)).max(8) as u64;
        let cols_bytes = (4 * part_nnz).max(4) as u64;
        let x_bytes = (4 * rows) as u64;
        let y_bytes = (4 * r).max(4) as u64;
        let rp_d = create_buffer(&ctx, MemFlags::READ_ONLY, rp_bytes, full)?;
        let cols_d = create_buffer(&ctx, MemFlags::READ_ONLY, cols_bytes, full)?;
        let vals_d = create_buffer(&ctx, MemFlags::READ_ONLY, cols_bytes, full)?;
        let x_d = create_buffer(&ctx, MemFlags::READ_ONLY, x_bytes, full)?;
        let y_d = create_buffer(&ctx, MemFlags::WRITE_ONLY, y_bytes, full)?;
        if r > 0 {
            write_buffer(
                queue,
                &rp_d,
                &i32s_to_bytes(&rp_local),
                rp_bytes.min(4 * (r as u64 + 1)),
                full,
            )?;
            if part_nnz > 0 {
                write_buffer(
                    queue,
                    &cols_d,
                    &i32s_to_bytes(&cols_local),
                    (4 * part_nnz) as u64,
                    full,
                )?;
                write_buffer(
                    queue,
                    &vals_d,
                    &f32s_to_bytes(&vals_local),
                    (4 * part_nnz) as u64,
                    full,
                )?;
            }
            write_buffer(queue, &x_d, &x_data, x_bytes, full)?;
        }
        parts.push((rp_d, cols_d, vals_d, x_d, y_d, range.clone(), part_nnz));
    }

    // Steady-state measurement starts once the matrix and vector are
    // resident on the compute devices.
    let t0 = if opts.data_resident {
        platform.now()
    } else {
        t0
    };

    for (queue, (rp_d, cols_d, vals_d, x_d, y_d, range, part_nnz)) in queues.iter().zip(&parts) {
        let r = range.len();
        if r == 0 {
            continue;
        }
        csr_kernel.set_arg_buffer(0, rp_d)?;
        csr_kernel.set_arg_buffer(1, cols_d)?;
        csr_kernel.set_arg_buffer(2, vals_d)?;
        csr_kernel.set_arg_buffer(3, x_d)?;
        csr_kernel.set_arg_buffer(4, y_d)?;
        csr_kernel.set_arg_i32(5, r as i32)?;
        csr_kernel.set_cost(compute_cost(r, *part_nnz));
        queue.enqueue_nd_range_kernel(&csr_kernel, NdRange::linear(round_up(r as u64, 64), 64))?;
    }
    for queue in &queues {
        queue.finish();
    }

    let mut verified = None;
    if full {
        let mut y = vec![0.0f32; rows];
        for (queue, (_, _, _, _, y_d, range, _)) in queues.iter().zip(&parts) {
            let r = range.len();
            if r == 0 {
                continue;
            }
            let bytes =
                read_buffer(queue, y_d, (4 * r) as u64, true)?.expect("full fidelity returns data");
            y[range.clone()].copy_from_slice(&bytes_to_f32s(&bytes));
        }
        if opts.verify {
            let expect = reference(&matrix, &x);
            verified = Some(
                y.iter()
                    .zip(&expect)
                    .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0)),
            );
        }
    } else {
        for (queue, (_, _, _, _, y_d, range, _)) in queues.iter().zip(&parts) {
            if range.is_empty() {
                continue;
            }
            read_buffer(queue, y_d, (4 * range.len()) as u64, false)?;
        }
    }

    Ok(RunReport {
        app: "SpMV".to_string(),
        devices: compute_devices.len(),
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
    fn single_device_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu]),
            &SpmvConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn source_kernels_verify() {
        let cfg = SpmvConfig {
            rows: 256,
            avg_nnz_per_row: 4,
            seed: 3,
        };
        let report = run(&platform(&[DeviceKind::Gpu]), &cfg, &RunOptions::source()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn multi_device_split_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu, DeviceKind::Gpu]),
            &SpmvConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn staged_hetero_run_verifies() {
        let report = run_hetero(
            &platform(&[DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Fpga]),
            &SpmvConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
        // Compute stage ran on the two FPGAs.
        assert_eq!(report.devices, 2);
    }

    #[test]
    fn hetero_requires_both_classes() {
        let err = run_hetero(
            &platform(&[DeviceKind::Gpu]),
            &SpmvConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap_err();
        assert_eq!(err.status(), Some(Status::DeviceNotFound));
    }

    #[test]
    fn reference_on_identity_matrix() {
        // 3×3 identity in CSR.
        let m = CsrMatrix {
            row_ptr: vec![0, 1, 2, 3],
            cols: vec![0, 1, 2],
            vals: vec![1.0, 1.0, 1.0],
            n_cols: 3,
        };
        let x = vec![5.0, -2.0, 7.5];
        assert_eq!(reference(&m, &x), x);
    }

    #[test]
    fn generator_produces_consistent_csr() {
        let m = generate_matrix(&SpmvConfig::test_scale());
        assert_eq!(m.rows(), 1024);
        assert_eq!(*m.row_ptr.last().unwrap() as usize, m.nnz());
        assert!(m.cols.iter().all(|&c| (c as usize) < m.n_cols));
        // Rows are sorted and deduplicated.
        for i in 0..m.rows() {
            let row = &m.cols[m.row_ptr[i] as usize..m.row_ptr[i + 1] as usize];
            for w in row.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    /// The generator before it reused one row buffer and presized its
    /// output: a `Vec` per row, grown as it goes.
    fn generate_matrix_per_row(cfg: &SpmvConfig) -> CsrMatrix {
        let mut rng = labeled_rng(cfg.seed, "spmv/matrix");
        let lo = (cfg.avg_nnz_per_row / 2).max(1);
        let hi = cfg.avg_nnz_per_row * 3 / 2 + 1;
        let mut row_ptr = vec![0u32];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for _ in 0..cfg.rows {
            let deg = rng.gen_range(lo..hi).min(cfg.rows);
            let mut row_cols: Vec<u32> = (0..deg)
                .map(|_| rng.gen_range(0..cfg.rows as u32))
                .collect();
            row_cols.sort_unstable();
            row_cols.dedup();
            for c in &row_cols {
                cols.push(*c);
                vals.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(cols.len() as u32);
        }
        CsrMatrix {
            row_ptr,
            cols,
            vals,
            n_cols: cfg.rows,
        }
    }

    /// The same random draws in the same order, so the same matrix, bit
    /// for bit: at test scale (which the ablations run), at the
    /// benchmark's `paper_apps` scale, at the source-kernel test's, and
    /// with rows long enough to be sorted rather than ranked.
    #[test]
    fn generator_draws_the_matrix_it_always_drew() {
        for cfg in [
            SpmvConfig::test_scale(),
            SpmvConfig {
                rows: 512,
                avg_nnz_per_row: 2 * RANKED_DEG,
                seed: 7,
            },
            SpmvConfig {
                rows: 32_768,
                avg_nnz_per_row: 16,
                seed: 0x5eed,
            },
            SpmvConfig {
                rows: 256,
                avg_nnz_per_row: 4,
                seed: 3,
            },
        ] {
            let (now, then) = (generate_matrix(&cfg), generate_matrix_per_row(&cfg));
            assert_eq!(now.row_ptr, then.row_ptr, "{cfg:?}");
            assert_eq!(now.cols, then.cols, "{cfg:?}");
            let bits = |m: &CsrMatrix| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&now), bits(&then), "{cfg:?}");
        }
    }

    #[test]
    fn paper_scale_matches_table1() {
        let bytes = SpmvConfig::paper_scale().input_bytes();
        assert!((1.0e9..1.2e9).contains(&(bytes as f64)), "{bytes}");
    }
}
