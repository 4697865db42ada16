//! BFS: breadth-first traversal of all connected components (Table I,
//! 240 MB; Rodinia `bfs` with a distribution-aware frontier exchange).
//!
//! Level-synchronous BSP traversal. Each device keeps a resident copy of
//! the depth array plus its block's CSR slice; every level:
//!
//! 1. the host broadcasts the *delta* — nodes discovered last level — and
//!    each device applies it ([`APPLY_KERNEL_NAME`]),
//! 2. each device scans its node block for frontier members and appends
//!    newly reachable neighbours to a compact `found` list
//!    ([`KERNEL_NAME`]),
//! 3. the host reads back only the compact lists and merges them.
//!
//! Exchanging deltas instead of whole depth arrays is what a real
//! distributed BFS must do, yet the broadcast still grows with the node
//! count — BFS remains the paper's worst scaler ("the performance
//! improvement also depends on the … communication characteristics",
//! §IV-B).
//!
//! The `found`-list append uses a plain counter: the kernel VM executes
//! work-items as if one after another, so the increment is race-free
//! here; a production GPU/bitstream build would use `atomic_inc`.

use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
};
use haocl_kernel::CostModel;
use haocl_sim::rng::labeled_rng;
use rand::Rng;

use crate::partition::balanced_ranges;
use crate::report::{KernelMode, RunOptions, RunReport};
use crate::util::{bytes_to_i32s, create_buffer, i32s_to_bytes, round_up, write_buffer};

/// The frontier-scan kernel.
pub const KERNEL_NAME: &str = "bfs_step";

/// The delta-apply kernel.
pub const APPLY_KERNEL_NAME: &str = "bfs_apply";

/// OpenCL C source for both kernels.
pub const KERNEL_SOURCE: &str = r#"
__kernel void bfs_apply(__global int* depth, __global const int* updates, int count) {
    int t = get_global_id(0);
    if (t < count) {
        depth[updates[2 * t]] = updates[2 * t + 1];
    }
}

__kernel void bfs_step(__global const int* row_off, __global const int* cols,
                       __global const int* depth, __global int* found,
                       __global int* count, int level, int node_offset, int nodes) {
    int t = get_global_id(0);
    if (t < nodes) {
        int u = node_offset + t;
        if (depth[u] == level) {
            for (int e = row_off[t]; e < row_off[t + 1]; e++) {
                int v = cols[e];
                if (depth[v] == -1) {
                    int idx = count[0];
                    count[0] = idx + 1;
                    found[idx] = v;
                }
            }
        }
    }
}
"#;

/// A directed graph in CSR adjacency form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Row offsets (`nodes + 1` entries).
    pub row_off: Vec<u32>,
    /// Edge targets.
    pub cols: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.row_off.len() - 1
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.cols.len()
    }
}

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Average out-degree.
    pub avg_degree: usize,
    /// BFS source node.
    pub source: usize,
    /// Levels simulated in modeled fidelity (full fidelity iterates until
    /// the frontier empties).
    pub modeled_levels: usize,
    /// Generator seed.
    pub seed: u64,
}

impl BfsConfig {
    /// Table I scale: ~6.7 M nodes, degree 6 ≈ 240 MB.
    pub fn paper_scale() -> Self {
        BfsConfig {
            nodes: 6_700_000,
            avg_degree: 6,
            source: 0,
            modeled_levels: 8,
            seed: 42,
        }
    }

    /// Small size for full-fidelity tests.
    pub fn test_scale() -> Self {
        BfsConfig {
            nodes: 512,
            avg_degree: 4,
            source: 0,
            modeled_levels: 8,
            seed: 42,
        }
    }

    /// Approximate bytes of the graph plus depth arrays.
    pub fn input_bytes(&self) -> u64 {
        let n = self.nodes as u64;
        let e = n * self.avg_degree as u64;
        4 * (n + 1) + 4 * e + 8 * n
    }
}

/// Generates a random directed graph (uniform endpoints, sorted rows).
pub fn generate_graph(cfg: &BfsConfig) -> Graph {
    let mut rng = labeled_rng(cfg.seed, "bfs/graph");
    let mut row_off = Vec::with_capacity(cfg.nodes + 1);
    let mut cols = Vec::new();
    row_off.push(0u32);
    for _ in 0..cfg.nodes {
        let deg = rng.gen_range(0..=cfg.avg_degree * 2);
        let mut targets: Vec<u32> = (0..deg)
            .map(|_| rng.gen_range(0..cfg.nodes as u32))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        cols.extend_from_slice(&targets);
        row_off.push(cols.len() as u32);
    }
    Graph { row_off, cols }
}

/// Host reference BFS depths (`-1` for unreachable nodes).
pub fn reference(graph: &Graph, source: usize) -> Vec<i32> {
    let mut depth = vec![-1i32; graph.nodes()];
    let mut frontier = vec![source];
    depth[source] = 0;
    let mut level = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for e in graph.row_off[u] as usize..graph.row_off[u + 1] as usize {
                let v = graph.cols[e] as usize;
                if depth[v] == -1 {
                    depth[v] = level + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    depth
}

/// Cost of one device's per-level frontier scan over `nodes` nodes and
/// `edges` slice edges (a full mask scan, divergent branching).
pub fn launch_cost(nodes: usize, edges: usize) -> CostModel {
    let (n, e) = (nodes as f64, edges as f64);
    CostModel::new()
        .flops(n + 2.0 * e)
        .bytes_read(4.0 * (2.0 * n + 2.0 * e))
        .bytes_written(4.0 * e * 0.2)
        .divergent()
}

/// Cost of applying `count` depth updates.
pub fn apply_cost(count: usize) -> CostModel {
    let c = count as f64;
    CostModel::new()
        .flops(c)
        .bytes_read(8.0 * c)
        .bytes_written(4.0 * c)
}

struct Part {
    ro_d: Buffer,
    cols_d: Buffer,
    depth_d: Buffer,
    found_d: Buffer,
    count_d: Buffer,
    updates_d: Buffer,
    range: std::ops::Range<usize>,
    slice_edges: usize,
}

/// Runs distributed level-synchronous BFS across every device of
/// `platform`.
///
/// # Errors
///
/// Propagates any API or transport failure from the wrapper library.
#[allow(clippy::too_many_lines)]
pub fn run(platform: &Platform, cfg: &BfsConfig, opts: &RunOptions) -> Result<RunReport, Error> {
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &devices)?;
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d))
        .collect::<Result<_, _>>()?;
    let program = match opts.mode {
        KernelMode::Bitstream => {
            Program::with_bitstream_kernels(&ctx, [KERNEL_NAME, APPLY_KERNEL_NAME])
        }
        KernelMode::Source => Program::from_source(&ctx, KERNEL_SOURCE),
    };
    program.build()?;
    let step = Kernel::new(&program, KERNEL_NAME)?;
    let apply = Kernel::new(&program, APPLY_KERNEL_NAME)?;
    step.set_fidelity(opts.fidelity);
    apply.set_fidelity(opts.fidelity);

    platform.reset_phases();
    let t0 = platform.now();
    let full = opts.is_full();
    let n = cfg.nodes;

    let graph = if full {
        generate_graph(cfg)
    } else {
        Graph {
            row_off: Vec::new(),
            cols: Vec::new(),
        }
    };
    platform.charge_data_creation(cfg.input_bytes());
    if opts.replicate_inputs {
        crate::util::charge_replication(&ctx, &queues, cfg.input_bytes())?;
    }

    // Stage the graph slices and the initial depth array (source = 0).
    let ranges = balanced_ranges(n, devices.len());
    let depth_bytes = (4 * n) as u64;
    let mut initial_depth = Vec::new();
    if full {
        initial_depth = vec![-1i32; n];
        initial_depth[cfg.source] = 0;
    }
    let mut parts: Vec<Part> = Vec::new();
    for (queue, range) in queues.iter().zip(&ranges) {
        let r = range.len();
        let (slice_edges, ro_local, cols_local) = if full {
            let lo = graph.row_off[range.start] as usize;
            let hi = graph.row_off[range.end] as usize;
            let ro: Vec<i32> = graph.row_off[range.start..=range.end]
                .iter()
                .map(|&v| (v as usize - lo) as i32)
                .collect();
            let cl: Vec<i32> = graph.cols[lo..hi].iter().map(|&c| c as i32).collect();
            (hi - lo, ro, cl)
        } else {
            (cfg.avg_degree * r, Vec::new(), Vec::new())
        };
        let ro_d = create_buffer(&ctx, MemFlags::READ_ONLY, (4 * (r + 1)).max(8) as u64, full)?;
        let cols_d = create_buffer(
            &ctx,
            MemFlags::READ_ONLY,
            (4 * slice_edges).max(4) as u64,
            full,
        )?;
        let depth_d = create_buffer(&ctx, MemFlags::READ_WRITE, depth_bytes, full)?;
        let found_d = create_buffer(
            &ctx,
            MemFlags::READ_WRITE,
            (4 * slice_edges).max(4) as u64,
            full,
        )?;
        let count_d = create_buffer(&ctx, MemFlags::READ_WRITE, 4, full)?;
        let updates_d = create_buffer(&ctx, MemFlags::READ_ONLY, (8 * n) as u64, full)?;
        if r > 0 {
            write_buffer(
                queue,
                &ro_d,
                &i32s_to_bytes(&ro_local),
                4 * (r as u64 + 1),
                full,
            )?;
            if slice_edges > 0 {
                write_buffer(
                    queue,
                    &cols_d,
                    &i32s_to_bytes(&cols_local),
                    (4 * slice_edges) as u64,
                    full,
                )?;
            }
            let depth_data = if full {
                i32s_to_bytes(&initial_depth)
            } else {
                Vec::new()
            };
            write_buffer(queue, &depth_d, &depth_data, depth_bytes, full)?;
        }
        parts.push(Part {
            ro_d,
            cols_d,
            depth_d,
            found_d,
            count_d,
            updates_d,
            range: range.clone(),
            slice_edges,
        });
    }
    // Steady-state measurement starts once the graph is resident.
    let t0 = if opts.data_resident {
        platform.now()
    } else {
        t0
    };

    // Level-synchronous iterations with delta exchange.
    let mut depth = initial_depth;
    // (node, depth) pairs discovered last level, flattened.
    let mut updates: Vec<i32> = Vec::new();
    // Modeled-run traffic estimate: discoveries spread over the levels.
    let modeled_delta = (n / cfg.modeled_levels.max(1)).max(1);
    let mut level = 0i32;
    loop {
        for (queue, part) in queues.iter().zip(&parts) {
            let r = part.range.len();
            if r == 0 {
                continue;
            }
            // 1. Apply last level's delta to the resident depth array.
            let apply_count = if full {
                updates.len() / 2
            } else if level > 0 {
                modeled_delta
            } else {
                0
            };
            if apply_count > 0 {
                write_buffer(
                    queue,
                    &part.updates_d,
                    &i32s_to_bytes(&updates),
                    (8 * apply_count) as u64,
                    full,
                )?;
                apply.set_arg_buffer(0, &part.depth_d)?;
                apply.set_arg_buffer(1, &part.updates_d)?;
                apply.set_arg_i32(2, apply_count as i32)?;
                apply.set_cost(apply_cost(apply_count));
                queue.enqueue_nd_range_kernel(
                    &apply,
                    NdRange::linear(round_up(apply_count as u64, 64), 64),
                )?;
            }
            // 2. Reset the counter and scan this block's frontier.
            write_buffer(queue, &part.count_d, &i32s_to_bytes(&[0]), 4, full)?;
            step.set_arg_buffer(0, &part.ro_d)?;
            step.set_arg_buffer(1, &part.cols_d)?;
            step.set_arg_buffer(2, &part.depth_d)?;
            step.set_arg_buffer(3, &part.found_d)?;
            step.set_arg_buffer(4, &part.count_d)?;
            step.set_arg_i32(5, level)?;
            step.set_arg_i32(6, part.range.start as i32)?;
            step.set_arg_i32(7, r as i32)?;
            step.set_cost(launch_cost(r, part.slice_edges));
            queue.enqueue_nd_range_kernel(&step, NdRange::linear(round_up(r as u64, 64), 64))?;
        }
        for queue in &queues {
            queue.finish();
        }
        // 3. Read back the compact found lists and merge.
        let mut next_updates: Vec<i32> = Vec::new();
        for (queue, part) in queues.iter().zip(&parts) {
            if part.range.is_empty() {
                continue;
            }
            if full {
                let mut count_bytes = [0u8; 4];
                queue.enqueue_read_buffer(&part.count_d, 0, &mut count_bytes)?;
                let found_count = i32::from_le_bytes(count_bytes) as usize;
                if found_count > 0 {
                    let mut found_bytes = vec![0u8; 4 * found_count];
                    queue.enqueue_read_buffer(&part.found_d, 0, &mut found_bytes)?;
                    for v in bytes_to_i32s(&found_bytes) {
                        let v = v as usize;
                        if depth[v] == -1 {
                            depth[v] = level + 1;
                            next_updates.push(v as i32);
                            next_updates.push(level + 1);
                        }
                    }
                }
            } else {
                queue.enqueue_read_buffer_modeled(&part.count_d, 0, 4)?;
                let est = ((modeled_delta / queues.len().max(1)).max(1) * 4) as u64;
                let cap = (4 * part.slice_edges).max(4) as u64;
                queue.enqueue_read_buffer_modeled(&part.found_d, 0, est.min(cap))?;
            }
        }
        updates = next_updates;
        level += 1;
        let done = if full {
            updates.is_empty()
        } else {
            level as usize >= cfg.modeled_levels
        };
        if done {
            break;
        }
    }

    let verified = if full && opts.verify {
        Some(depth == reference(&graph, cfg.source))
    } else {
        None
    };

    Ok(RunReport {
        app: "BFS".to_string(),
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
            &BfsConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn source_kernel_verifies() {
        let cfg = BfsConfig {
            nodes: 128,
            ..BfsConfig::test_scale()
        };
        let report = run(&platform(&[DeviceKind::Gpu]), &cfg, &RunOptions::source()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn multi_device_traversal_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Gpu]),
            &BfsConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn disconnected_source_terminates() {
        // A graph where no node has outgoing edges: one level, done.
        let cfg = BfsConfig {
            nodes: 64,
            avg_degree: 0,
            source: 5,
            modeled_levels: 2,
            seed: 1,
        };
        let report = run(&platform(&[DeviceKind::Gpu]), &cfg, &RunOptions::full()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn reference_on_a_path_graph() {
        // 0 → 1 → 2 → 3, node 4 isolated.
        let g = Graph {
            row_off: vec![0, 1, 2, 3, 3, 3],
            cols: vec![1, 2, 3],
        };
        assert_eq!(reference(&g, 0), vec![0, 1, 2, 3, -1]);
    }

    #[test]
    fn modeled_run_executes_fixed_levels() {
        let cfg = BfsConfig {
            nodes: 4096,
            modeled_levels: 3,
            ..BfsConfig::test_scale()
        };
        let report = run(&platform(&[DeviceKind::Gpu]), &cfg, &RunOptions::modeled()).unwrap();
        assert_eq!(report.verified, None);
        assert!(report.makespan > haocl_sim::SimDuration::ZERO);
    }

    #[test]
    fn paper_scale_matches_table1() {
        let bytes = BfsConfig::paper_scale().input_bytes();
        assert!((2.2e8..2.7e8).contains(&(bytes as f64)), "{bytes}");
    }
}
