//! kNN: k-nearest neighbours in an unstructured data set (Table I,
//! 100 MB; Rodinia `nn` generalized to a query batch).
//!
//! The reference set (latitude/longitude records) is partitioned across
//! the devices and stays resident; each run classifies a batch of query
//! points. The [`KERNEL_NAME`] kernel fuses distance computation with
//! per-query top-k selection on the device, so only `queries × k`
//! candidates cross the backbone — the distributed-aware structure a
//! cluster deployment needs (reading all distances back, as single-node
//! Rodinia does, would drown the Gigabit link; that variant is kept as
//! [`DIST_KERNEL_NAME`]).

use haocl::{
    CommandQueue, Context, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
};
use haocl_kernel::CostModel;
use haocl_sim::rng::labeled_rng;
use rand::Rng;

use crate::report::{KernelMode, RunOptions, RunReport};
use crate::util::{
    bytes_to_f32s, bytes_to_i32s, create_buffer, f32s_to_bytes, read_buffer, round_up, write_buffer,
};

/// The fused distance + top-k kernel.
pub const KERNEL_NAME: &str = "nn_topk";

/// The plain per-record distance kernel (Rodinia's original structure).
pub const DIST_KERNEL_NAME: &str = "nn_dist";

/// OpenCL C source for both kernels.
pub const KERNEL_SOURCE: &str = r#"
__kernel void nn_dist(__global const float* lat, __global const float* lng,
                      __global float* dist, float qlat, float qlng, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float dx = lat[i] - qlat;
        float dy = lng[i] - qlng;
        dist[i] = sqrt(dx * dx + dy * dy);
    }
}

__kernel void nn_topk(__global const float* lat, __global const float* lng,
                      __global const float* qlat, __global const float* qlng,
                      __global float* out_dist, __global int* out_idx,
                      int n, int nq, int k) {
    int q = get_global_id(0);
    if (q < nq) {
        for (int s = 0; s < k; s++) {
            out_dist[q * k + s] = 1e30f;
            out_idx[q * k + s] = -1;
        }
        float ql = qlat[q];
        float qg = qlng[q];
        for (int i = 0; i < n; i++) {
            float dx = lat[i] - ql;
            float dy = lng[i] - qg;
            float d = sqrt(dx * dx + dy * dy);
            if (d < out_dist[q * k + k - 1]) {
                int s = k - 1;
                while (s > 0 && out_dist[q * k + s - 1] > d) {
                    out_dist[q * k + s] = out_dist[q * k + s - 1];
                    out_idx[q * k + s] = out_idx[q * k + s - 1];
                    s = s - 1;
                }
                out_dist[q * k + s] = d;
                out_idx[q * k + s] = i;
            }
        }
    }
}
"#;

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnConfig {
    /// Number of reference records.
    pub records: usize,
    /// Query points per batch.
    pub queries: usize,
    /// Neighbours to select.
    pub k: usize,
    /// Generator seed.
    pub seed: u64,
}

impl KnnConfig {
    /// Table I scale: ~8.3 M records ≈ 100 MB, a 256-query batch.
    pub fn paper_scale() -> Self {
        KnnConfig {
            records: 8_300_000,
            queries: 256,
            k: 10,
            seed: 42,
        }
    }

    /// Small size for full-fidelity tests.
    pub fn test_scale() -> Self {
        KnnConfig {
            records: 2048,
            queries: 8,
            k: 5,
            seed: 42,
        }
    }

    /// Total input + output bytes.
    pub fn input_bytes(&self) -> u64 {
        3 * 4 * self.records as u64
    }
}

/// Generates record coordinates.
pub fn generate_records(cfg: &KnnConfig) -> (Vec<f32>, Vec<f32>) {
    let mut rng = labeled_rng(cfg.seed, "knn/records");
    let lat: Vec<f32> = (0..cfg.records)
        .map(|_| rng.gen_range(-90.0..90.0))
        .collect();
    let lng: Vec<f32> = (0..cfg.records)
        .map(|_| rng.gen_range(-180.0..180.0))
        .collect();
    (lat, lng)
}

/// Generates the query batch.
pub fn generate_queries(cfg: &KnnConfig) -> (Vec<f32>, Vec<f32>) {
    let mut rng = labeled_rng(cfg.seed, "knn/queries");
    let lat: Vec<f32> = (0..cfg.queries)
        .map(|_| rng.gen_range(-90.0..90.0))
        .collect();
    let lng: Vec<f32> = (0..cfg.queries)
        .map(|_| rng.gen_range(-180.0..180.0))
        .collect();
    (lat, lng)
}

/// The `k` of `dists` (one per record, in index order) with the least
/// distance, nearest first, equal distances by index: what a stable sort
/// by distance keeps in front. Found the way the kernel finds them — each
/// record in turn goes into a sorted array of at most `k`, when it is
/// strictly nearer than the array's last, behind the ones as near as it —
/// so nothing holds more than `k` records.
fn k_nearest(dists: impl IntoIterator<Item = f32>, k: usize) -> Vec<(usize, f32)> {
    let mut best: Vec<(usize, f32)> = Vec::with_capacity(k);
    if k == 0 {
        return best;
    }
    for (i, d) in dists.into_iter().enumerate() {
        if best.len() == k {
            if d >= best[k - 1].1 {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|&(_, near)| near <= d);
        best.insert(at, (i, d));
    }
    best
}

/// Host reference: the `k` nearest distances for every query.
pub fn reference(lat: &[f32], lng: &[f32], cfg: &KnnConfig) -> Vec<Vec<(usize, f32)>> {
    let (qlat, qlng) = generate_queries(cfg);
    (0..cfg.queries)
        .map(|q| {
            let dists = lat.iter().zip(lng).map(|(&la, &lo)| {
                let dx = la - qlat[q];
                let dy = lo - qlng[q];
                (dx * dx + dy * dy).sqrt()
            });
            k_nearest(dists, cfg.k)
        })
        .collect()
}

/// Cost of one device's top-k launch over `records` records for
/// `queries` queries.
pub fn launch_cost(records: usize, queries: usize, k: usize) -> CostModel {
    let (n, nq, k) = (records as f64, queries as f64, k as f64);
    CostModel::new()
        .flops(nq * n * (6.0 + 0.1 * k))
        .bytes_read(nq * 8.0 * n)
        .bytes_written(nq * 8.0 * k)
        .streaming()
}

/// Runs distributed batched kNN across every device of `platform`.
///
/// # Errors
///
/// Propagates any API or transport failure from the wrapper library.
pub fn run(platform: &Platform, cfg: &KnnConfig, opts: &RunOptions) -> Result<RunReport, Error> {
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &devices)?;
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d))
        .collect::<Result<_, _>>()?;
    let program = match opts.mode {
        KernelMode::Bitstream => {
            Program::with_bitstream_kernels(&ctx, [KERNEL_NAME, DIST_KERNEL_NAME])
        }
        KernelMode::Source => Program::from_source(&ctx, KERNEL_SOURCE),
    };
    program.build()?;
    let kernel = Kernel::new(&program, KERNEL_NAME)?;
    kernel.set_fidelity(opts.fidelity);

    platform.reset_phases();
    let t0 = platform.now();
    let full = opts.is_full();
    let (nq, k) = (cfg.queries, cfg.k);

    let (lat, lng) = if full {
        generate_records(cfg)
    } else {
        (Vec::new(), Vec::new())
    };
    platform.charge_data_creation(2 * 4 * cfg.records as u64);
    if opts.replicate_inputs {
        crate::util::charge_replication(&ctx, &queues, 2 * 4 * cfg.records as u64)?;
    }

    // Stage the reference set (resident across query batches), sized to
    // each device's throughput for this streaming kernel.
    let weights = crate::util::throughput_weights(&devices, &launch_cost(1000, nq, k));
    let ranges = crate::partition::weighted_ranges(cfg.records, &weights);
    let mut parts = Vec::new();
    for (queue, range) in queues.iter().zip(&ranges) {
        let n = range.len();
        let bytes = (n * 4).max(4) as u64;
        let lat_d = create_buffer(&ctx, MemFlags::READ_ONLY, bytes, full)?;
        let lng_d = create_buffer(&ctx, MemFlags::READ_ONLY, bytes, full)?;
        let qlat_d = create_buffer(&ctx, MemFlags::READ_ONLY, (nq * 4) as u64, full)?;
        let qlng_d = create_buffer(&ctx, MemFlags::READ_ONLY, (nq * 4) as u64, full)?;
        let out_dist_d = create_buffer(&ctx, MemFlags::WRITE_ONLY, (nq * k * 4) as u64, full)?;
        let out_idx_d = create_buffer(&ctx, MemFlags::WRITE_ONLY, (nq * k * 4) as u64, full)?;
        if n > 0 {
            let lat_block = if full {
                f32s_to_bytes(&lat[range.clone()])
            } else {
                Vec::new()
            };
            let lng_block = if full {
                f32s_to_bytes(&lng[range.clone()])
            } else {
                Vec::new()
            };
            write_buffer(queue, &lat_d, &lat_block, (n * 4) as u64, full)?;
            write_buffer(queue, &lng_d, &lng_block, (n * 4) as u64, full)?;
        }
        parts.push((
            lat_d,
            lng_d,
            qlat_d,
            qlng_d,
            out_dist_d,
            out_idx_d,
            range.clone(),
        ));
    }
    // Steady-state measurement starts once the records are resident.
    let t0 = if opts.data_resident {
        platform.now()
    } else {
        t0
    };

    // Ship the query batch and launch the fused top-k on every partition.
    let (qlat, qlng) = if full {
        generate_queries(cfg)
    } else {
        (Vec::new(), Vec::new())
    };
    for (queue, (lat_d, lng_d, qlat_d, qlng_d, out_dist_d, out_idx_d, range)) in
        queues.iter().zip(&parts)
    {
        let n = range.len();
        if n == 0 {
            continue;
        }
        let qlat_data = if full {
            f32s_to_bytes(&qlat)
        } else {
            Vec::new()
        };
        let qlng_data = if full {
            f32s_to_bytes(&qlng)
        } else {
            Vec::new()
        };
        write_buffer(queue, qlat_d, &qlat_data, (nq * 4) as u64, full)?;
        write_buffer(queue, qlng_d, &qlng_data, (nq * 4) as u64, full)?;
        kernel.set_arg_buffer(0, lat_d)?;
        kernel.set_arg_buffer(1, lng_d)?;
        kernel.set_arg_buffer(2, qlat_d)?;
        kernel.set_arg_buffer(3, qlng_d)?;
        kernel.set_arg_buffer(4, out_dist_d)?;
        kernel.set_arg_buffer(5, out_idx_d)?;
        kernel.set_arg_i32(6, n as i32)?;
        kernel.set_arg_i32(7, nq as i32)?;
        kernel.set_arg_i32(8, k as i32)?;
        kernel.set_cost(launch_cost(n, nq, k));
        queue.enqueue_nd_range_kernel(&kernel, NdRange::linear(round_up(nq as u64, 8), 8))?;
    }
    for queue in &queues {
        queue.finish();
    }

    // Merge the per-partition candidates on the host.
    let mut verified = None;
    if full {
        let mut merged: Vec<Vec<(usize, f32)>> = vec![Vec::new(); nq];
        for (queue, (_, _, _, _, out_dist_d, out_idx_d, range)) in queues.iter().zip(&parts) {
            if range.is_empty() {
                continue;
            }
            let dist_bytes = read_buffer(queue, out_dist_d, (nq * k * 4) as u64, true)?
                .expect("full fidelity returns data");
            let idx_bytes = read_buffer(queue, out_idx_d, (nq * k * 4) as u64, true)?
                .expect("full fidelity returns data");
            let dists = bytes_to_f32s(&dist_bytes);
            let idxs = bytes_to_i32s(&idx_bytes);
            for q in 0..nq {
                for s in 0..k {
                    let idx = idxs[q * k + s];
                    if idx >= 0 {
                        merged[q].push((range.start + idx as usize, dists[q * k + s]));
                    }
                }
            }
        }
        for cand in &mut merged {
            cand.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
            cand.truncate(k);
        }
        if opts.verify {
            let expect = reference(&lat, &lng, cfg);
            verified = Some(merged.iter().zip(&expect).all(|(m, e)| {
                m.len() == e.len() && m.iter().zip(e).all(|(a, b)| (a.1 - b.1).abs() < 1e-5)
            }));
        }
    } else {
        for (queue, (_, _, _, _, out_dist_d, out_idx_d, range)) in queues.iter().zip(&parts) {
            if range.is_empty() {
                continue;
            }
            read_buffer(queue, out_dist_d, (nq * k * 4) as u64, false)?;
            read_buffer(queue, out_idx_d, (nq * k * 4) as u64, false)?;
        }
    }

    Ok(RunReport {
        app: "kNN".to_string(),
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
    fn single_device_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu]),
            &KnnConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn source_kernel_verifies() {
        let cfg = KnnConfig {
            records: 384,
            queries: 4,
            k: 3,
            seed: 3,
        };
        let report = run(&platform(&[DeviceKind::Cpu]), &cfg, &RunOptions::source()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn partitioned_selection_matches_global_selection() {
        let report = run(
            &platform(&[DeviceKind::Gpu, DeviceKind::Fpga, DeviceKind::Cpu]),
            &KnnConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
        assert_eq!(report.devices, 3);
    }

    #[test]
    fn reference_finds_exact_matches_first() {
        let cfg = KnnConfig {
            records: 3,
            queries: 1,
            k: 1,
            seed: 0,
        };
        let (qlat, qlng) = generate_queries(&cfg);
        // Put an exact copy of the query among the records.
        let lat = vec![50.0, qlat[0], -30.0];
        let lng = vec![0.0, qlng[0], 90.0];
        let best = reference(&lat, &lng, &cfg);
        assert_eq!(best[0][0].0, 1);
        assert_eq!(best[0][0].1, 0.0);
    }

    /// Insertion keeps exactly what a stable sort by distance keeps, in
    /// the same order: on distances full of ties, for `k` of none, of one,
    /// of every record, and of more than there are; and at the
    /// benchmark's 32 768 records, k = 8.
    #[test]
    fn selection_equals_a_stable_sort_by_distance() {
        let mut state = 7u64;
        for records in [1usize, 2, 9, 64, 500, 32_768] {
            for levels in [1u64, 3, 1 << 40] {
                let dists: Vec<(usize, f32)> = (0..records)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (i, ((state >> 20) % levels) as f32 * 0.25)
                    })
                    .collect();
                let every = [records - 1, records, records + 3];
                let more = if records > 500 { &[][..] } else { &every };
                for &k in [0, 1, 2, 8].iter().chain(more) {
                    let mut sorted = dists.clone();
                    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
                    sorted.truncate(k);
                    assert_eq!(
                        k_nearest(dists.iter().map(|&(_, d)| d), k),
                        sorted,
                        "{records} records, {levels} levels, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn data_resident_excludes_staging() {
        let cfg = KnnConfig::test_scale();
        let p = platform(&[DeviceKind::Gpu]);
        let cold = run(&p, &cfg, &RunOptions::modeled()).unwrap();
        let warm = run(&p, &cfg, &crate::report::RunOptions::modeled_resident()).unwrap();
        assert!(
            warm.makespan < cold.makespan,
            "{} vs {}",
            warm.makespan,
            cold.makespan
        );
    }

    #[test]
    fn paper_scale_matches_table1() {
        let bytes = KnnConfig::paper_scale().input_bytes();
        assert!((9.0e7..1.1e8).contains(&(bytes as f64)), "{bytes}");
    }
}
