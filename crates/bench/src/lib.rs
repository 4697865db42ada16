//! The benchmark harness: functions that regenerate every table and
//! figure of the HaoCL paper, behind the report binaries
//! (`cargo run -p haocl-bench --bin fig2` etc.).
//!
//! | Paper artefact | Harness entry | Binary |
//! |----------------|---------------|--------|
//! | Table I        | [`haocl_workloads::table::table1`] | `table1` |
//! | Fig. 2 (end-to-end speedup) | [`fig2::rows`] | `fig2` |
//! | Fig. 2 heterogeneity series (§IV-C) | [`hetero::rows`] | `hetero` |
//! | Fig. 3 (MatrixMul breakdown) | [`fig3::rows`] | `fig3` |
//! | "negligible overhead" claim | [`overhead::rows`] | `overhead` |
//! | Design ablations (ours) | [`ablations`] | `ablations` |
//!
//! Absolute numbers come from the virtual-time models, not the authors'
//! testbed; the *shapes* (who wins, by what factor, where curves bend)
//! are the reproduction target. See `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

pub mod text;

use haocl::{DeviceKind, Error, Platform};
use haocl_cluster::ClusterConfig;
use haocl_workloads::{registry_with_all, RunOptions, RunReport, Workload};

/// Runs a workload under HaoCL on a synthetic cluster.
///
/// # Errors
///
/// Propagates driver failures.
pub fn run_haocl(
    config: &ClusterConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunReport, Error> {
    let platform = Platform::cluster(config, registry_with_all())?;
    workload.run(&platform, opts)
}

/// Binds a 1 KiB modeled buffer to every pointer parameter and zero to
/// every scalar: modeled launches never execute, so the arguments only
/// need plausible types.
fn bind_dummy_args(ctx: &haocl::Context, kernel: &haocl::Kernel) -> Result<(), Error> {
    use haocl::{Buffer, MemFlags};
    let dummy = Buffer::new_modeled(ctx, MemFlags::READ_WRITE, 1024)?;
    for i in 0..kernel.arity() {
        if kernel.set_arg_buffer(i, &dummy).is_err() {
            kernel.set_arg_i32(i, 0)?;
        }
    }
    Ok(())
}

/// FNV-1a digest of a read-back (ablation reports).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fig. 2: end-to-end speedup over a single native GPU node.
pub mod fig2 {
    use super::*;
    use haocl_baselines::{run_local, SnuClD, System};
    use haocl_sim::SimDuration;

    /// One measured point of Fig. 2.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub app: &'static str,
        /// The system/cluster series (e.g. "HaoCL-GPU").
        pub series: String,
        /// Device-node count.
        pub nodes: usize,
        /// End-to-end virtual time.
        pub makespan: SimDuration,
        /// Speedup over the single-node Local-GPU run of the same app.
        pub speedup: f64,
        /// Self-relative scaling: speedup of this series' point over the
        /// same series at 1 node (how the curve bends as nodes grow).
        pub scaling: f64,
        /// Per-phase breakdown of the run (virtual time per category).
        pub phases: haocl_sim::PhaseBreakdown,
    }

    /// Produces Fig. 2's series for `workload` at the given node counts:
    /// Local-GPU (1), HaoCL-GPU, HaoCL-FPGA, HaoCL-Hetero (half/half) and
    /// SnuCL-D (GPU nodes; absent for CFD, which SnuCL-D cannot run).
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn rows(
        workload: &Workload,
        node_counts: &[usize],
        opts: &RunOptions,
    ) -> Result<Vec<Row>, Error> {
        let mut rows = Vec::new();
        let local = run_local(&[DeviceKind::Gpu], workload, opts)?;
        let base = local.makespan;
        rows.push(Row {
            app: workload.name(),
            series: format!("{}-GPU", System::LocalNative),
            nodes: 1,
            makespan: base,
            speedup: 1.0,
            scaling: 1.0,
            phases: local.phases.clone(),
        });
        let local_fpga = run_local(&[DeviceKind::Fpga], workload, opts)?;
        rows.push(Row {
            app: workload.name(),
            series: format!("{}-FPGA", System::LocalNative),
            nodes: 1,
            makespan: local_fpga.makespan,
            speedup: ratio(base, local_fpga.makespan),
            scaling: 1.0,
            phases: local_fpga.phases.clone(),
        });
        let mut series_base: std::collections::HashMap<&'static str, SimDuration> =
            std::collections::HashMap::new();
        for &n in node_counts {
            let mut push = |series: &'static str, rows: &mut Vec<Row>, report: &RunReport| {
                let first = *series_base.entry(series).or_insert(report.makespan);
                rows.push(Row {
                    app: workload.name(),
                    series: series.to_string(),
                    nodes: n,
                    makespan: report.makespan,
                    speedup: ratio(base, report.makespan),
                    scaling: ratio(first, report.makespan),
                    phases: report.phases.clone(),
                });
            };
            let gpu = run_haocl(&ClusterConfig::gpu_cluster(n), workload, opts)?;
            push("HaoCL-GPU", &mut rows, &gpu);
            let fpga = run_haocl(&ClusterConfig::fpga_cluster(n), workload, opts)?;
            push("HaoCL-FPGA", &mut rows, &fpga);
            if n >= 2 {
                let hetero = run_haocl(
                    &ClusterConfig::hetero_cluster(n - n / 2, n / 2),
                    workload,
                    opts,
                )?;
                push("HaoCL-Hetero", &mut rows, &hetero);
            }
            if !matches!(workload, Workload::Cfd(_)) {
                // SnuCL-D re-executes the host program on every node, so
                // its redundant data placement is paid on every run —
                // steady-state residency does not apply to it.
                let snucl_opts = RunOptions {
                    data_resident: false,
                    ..*opts
                };
                let snucl =
                    SnuClD::new().run(&ClusterConfig::gpu_cluster(n), workload, &snucl_opts)?;
                push("SnuCL-D", &mut rows, &snucl);
            }
        }
        Ok(rows)
    }

    fn ratio(base: SimDuration, this: SimDuration) -> f64 {
        base.as_secs_f64() / this.as_secs_f64()
    }
}

/// Fig. 3: MatrixMul runtime breakdown by phase.
pub mod fig3 {
    use super::*;
    use haocl_sim::{Phase, SimDuration};
    use haocl_workloads::matmul::MatmulConfig;

    /// One bar of Fig. 3.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Matrix dimension.
        pub size: usize,
        /// GPU-node count.
        pub nodes: usize,
        /// Data creation time.
        pub data_create: SimDuration,
        /// Kernel compute wall time (devices run in parallel, so this is
        /// the per-phase device time divided by the node count).
        pub compute: SimDuration,
        /// Host↔node data transfer time.
        pub data_transfer: SimDuration,
        /// System initialization (reported as negligible in the paper).
        pub init: SimDuration,
        /// End-to-end makespan.
        pub total: SimDuration,
    }

    /// Reproduces Fig. 3: one row per (matrix size, node count).
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn rows(
        sizes: &[usize],
        node_counts: &[usize],
        opts: &RunOptions,
    ) -> Result<Vec<Row>, Error> {
        let mut out = Vec::new();
        for &size in sizes {
            for &nodes in node_counts {
                let report = run_haocl(
                    &ClusterConfig::gpu_cluster(nodes),
                    &Workload::MatrixMul(MatmulConfig::with_n(size)),
                    opts,
                )?;
                out.push(Row {
                    size,
                    nodes,
                    data_create: report.phases.time(Phase::DataCreate),
                    compute: report.phases.time(Phase::Compute) / nodes as u64,
                    data_transfer: report.phases.time(Phase::DataTransfer),
                    init: report.phases.time(Phase::Init),
                    total: report.makespan,
                });
            }
        }
        Ok(out)
    }
}

/// §IV-C heterogeneity evaluation: MM data-split and SpMV stage-split on
/// mixed clusters.
pub mod hetero {
    use super::*;
    use haocl_sim::SimDuration;
    use haocl_workloads::matmul::MatmulConfig;
    use haocl_workloads::spmv::{self, SpmvConfig};

    /// One measured point of the heterogeneity evaluation.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name plus distribution strategy.
        pub label: String,
        /// GPU nodes in the cluster.
        pub gpus: usize,
        /// FPGA nodes in the cluster.
        pub fpgas: usize,
        /// End-to-end virtual time.
        pub makespan: SimDuration,
        /// Speedup over the smallest mixed cluster measured.
        pub speedup: f64,
    }

    /// MatrixMul (same kernel, split data) and SpMV (partition stage on
    /// GPUs, compute stage on FPGAs) across growing mixed clusters.
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn rows(cluster_sizes: &[(usize, usize)], opts: &RunOptions) -> Result<Vec<Row>, Error> {
        let mut out = Vec::new();
        let mm = Workload::MatrixMul(MatmulConfig::paper_scale());
        let mut mm_base: Option<SimDuration> = None;
        for &(gpus, fpgas) in cluster_sizes {
            let report = run_haocl(&ClusterConfig::hetero_cluster(gpus, fpgas), &mm, opts)?;
            let base = *mm_base.get_or_insert(report.makespan);
            out.push(Row {
                label: "MM (data split)".to_string(),
                gpus,
                fpgas,
                makespan: report.makespan,
                speedup: base.as_secs_f64() / report.makespan.as_secs_f64(),
            });
        }
        let spmv_cfg = SpmvConfig::paper_scale();
        let mut spmv_base: Option<SimDuration> = None;
        for &(gpus, fpgas) in cluster_sizes {
            let platform = Platform::cluster(
                &ClusterConfig::hetero_cluster(gpus, fpgas),
                registry_with_all(),
            )?;
            let report = spmv::run_hetero(&platform, &spmv_cfg, opts)?;
            let base = *spmv_base.get_or_insert(report.makespan);
            out.push(Row {
                label: "SpMV (stage split)".to_string(),
                gpus,
                fpgas,
                makespan: report.makespan,
                speedup: base.as_secs_f64() / report.makespan.as_secs_f64(),
            });
        }
        Ok(out)
    }
}

/// The abstract's "negligible overhead" claim: HaoCL on one node vs the
/// native local run.
pub mod overhead {
    use super::*;
    use haocl_baselines::run_local;
    use haocl_sim::SimDuration;

    /// One workload's single-node comparison.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub app: &'static str,
        /// Native single-node time.
        pub local: SimDuration,
        /// HaoCL with the host process co-located on the device node
        /// (the paper's single-node deployment; backbone is loopback).
        pub haocl_colocated: SimDuration,
        /// HaoCL with the host on a separate machine (Gigabit Ethernet
        /// between host and node).
        pub haocl_remote: SimDuration,
        /// Co-located overhead over native, percent (the paper's
        /// "negligible overhead" figure).
        pub overhead_pct: f64,
        /// Remote-node overhead over native, percent (dominated by input
        /// shipping for I/O-bound workloads).
        pub remote_overhead_pct: f64,
    }

    /// Measures every workload on one GPU node: native, HaoCL co-located
    /// and HaoCL with a remote host.
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn rows(workloads: &[Workload], opts: &RunOptions) -> Result<Vec<Row>, Error> {
        let mut out = Vec::new();
        for w in workloads {
            let local = run_local(&[DeviceKind::Gpu], w, opts)?;
            let colocated = run_haocl(&ClusterConfig::colocated_single(DeviceKind::Gpu), w, opts)?;
            let remote = run_haocl(&ClusterConfig::gpu_cluster(1), w, opts)?;
            let pct =
                |t: SimDuration| (t.as_secs_f64() / local.makespan.as_secs_f64() - 1.0) * 100.0;
            out.push(Row {
                app: w.name(),
                local: local.makespan,
                haocl_colocated: colocated.makespan,
                haocl_remote: remote.makespan,
                overhead_pct: pct(colocated.makespan),
                remote_overhead_pct: pct(remote.makespan),
            });
        }
        Ok(out)
    }
}

/// A traced fig2-style configuration run: produces the observability
/// artifacts (`trace.json`, `metrics.prom`, scheduler audit log) that the
/// nightly bench workflow uploads and `fig2 --json` summarizes.
pub mod probe {
    use super::*;
    use haocl::auto::AutoScheduler;
    use haocl::{Context, DeviceType, Kernel, Program};
    use haocl_kernel::{CostModel, NdRange};
    use haocl_sched::policies;
    use haocl_workloads::matmul::MatmulConfig;

    /// Observability artifacts of one traced probe run.
    #[derive(Debug, Clone)]
    pub struct Artifacts {
        /// Chrome trace-event JSON (load in `chrome://tracing`/Perfetto,
        /// or replay with `haocl-trace`).
        pub trace_json: String,
        /// Prometheus text-format metrics dump.
        pub metrics: String,
        /// Scheduler decision audit log, one line per placement.
        pub audit: String,
        /// Placement counts by (kernel, winning device kind).
        pub audit_summary: std::collections::BTreeMap<(String, String), u64>,
    }

    /// Runs one fig2 configuration (MatrixMul on a 2+2 hetero cluster)
    /// with tracing enabled, then an auto-scheduled kernel burst on the
    /// same platform so the decision audit log has placements to report
    /// (the workload drivers pick devices explicitly and never consult
    /// the scheduler).
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn run() -> Result<Artifacts, Error> {
        let platform =
            Platform::cluster(&ClusterConfig::hetero_cluster(2, 2), registry_with_all())?;
        platform.set_tracing(true);
        let workload = Workload::MatrixMul(MatmulConfig::with_n(1024));
        workload.run(&platform, &RunOptions::modeled())?;
        let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
        let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new()))?;
        let program = Program::with_bitstream_kernels(&ctx, [haocl_workloads::matmul::KERNEL_NAME]);
        program.build()?;
        let kernel = Kernel::new(&program, haocl_workloads::matmul::KERNEL_NAME)?;
        kernel.set_fidelity(haocl::Fidelity::Modeled);
        kernel.set_cost(CostModel::new().flops(2e11).bytes_read(1e9));
        bind_dummy_args(&ctx, &kernel)?;
        for _ in 0..4 {
            auto.launch(&kernel, NdRange::linear(1024, 64))?;
        }
        Ok(Artifacts {
            trace_json: platform.export_chrome_trace(),
            metrics: platform.render_metrics(),
            audit: platform.render_audit_log(),
            audit_summary: platform.obs().audit.summary(),
        })
    }
}

/// Design-choice ablations beyond the paper's figures.
pub mod ablations {
    use super::*;
    use haocl::auto::AutoScheduler;
    use haocl::{CommandQueue, Context, DeviceType, Kernel, Program};
    use haocl_kernel::{CostModel, NdRange};
    use haocl_net::LinkModel;
    use haocl_sched::policies;
    use haocl_sched::SchedulingPolicy;
    use haocl_sim::{SimDuration, SimTime};
    use haocl_workloads::matmul::MatmulConfig;

    /// Scheduler-policy ablation: the virtual makespan of a burst of
    /// mixed kernels (dense batch + streaming) on a mixed cluster under
    /// each built-in policy.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn scheduler_policies(launches: usize) -> Result<Vec<(String, SimDuration)>, Error> {
        let mk_policy = |name: &str| -> Box<dyn SchedulingPolicy> {
            match name {
                "round-robin" => Box::new(policies::RoundRobin::new()),
                "least-loaded" => Box::new(policies::LeastLoaded::new()),
                "hetero-aware" => Box::new(policies::HeteroAware::new()),
                "power-aware" => Box::new(policies::PowerAware::new()),
                other => unreachable!("unknown policy {other}"),
            }
        };
        let mut out = Vec::new();
        for name in ["round-robin", "least-loaded", "hetero-aware", "power-aware"] {
            let platform =
                Platform::cluster(&ClusterConfig::hetero_cluster(2, 2), registry_with_all())?;
            let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
            let auto = AutoScheduler::new(&ctx, mk_policy(name))?;
            let program = Program::with_bitstream_kernels(
                &ctx,
                [
                    haocl_workloads::matmul::KERNEL_NAME,
                    haocl_workloads::spmv::KERNEL_NAME,
                ],
            );
            program.build()?;
            // Argument-less modeled launches: the ablation studies pure
            // placement quality, so kernels carry costs only.
            let dense = Kernel::new(&program, haocl_workloads::matmul::KERNEL_NAME)?;
            dense.set_fidelity(haocl::Fidelity::Modeled);
            dense.set_cost(CostModel::new().flops(2e11).bytes_read(1e9));
            bind_dummy_args(&ctx, &dense)?;
            let stream = Kernel::new(&program, haocl_workloads::spmv::KERNEL_NAME)?;
            stream.set_fidelity(haocl::Fidelity::Modeled);
            stream.set_cost(CostModel::new().flops(5e10).bytes_read(5e8).streaming());
            bind_dummy_args(&ctx, &stream)?;
            let mut last = SimTime::ZERO;
            for i in 0..launches {
                let k = if i % 2 == 0 { &dense } else { &stream };
                let (event, _) = auto.launch(k, NdRange::linear(1024, 64))?;
                last = last.max(event.finished_at());
            }
            out.push((
                name.to_string(),
                last.saturating_duration_since(SimTime::ZERO),
            ));
        }
        Ok(out)
    }

    /// Result of the [`pipelining`] ablation.
    #[derive(Debug, Clone, Copy)]
    pub struct PipeliningAblation {
        /// Fan-out makespan claiming each response before the next
        /// submit (the paper's synchronous host semantics).
        pub synchronous: SimDuration,
        /// Fan-out makespan submitting every launch before claiming any
        /// response (the pipelined backbone).
        pub pipelined: SimDuration,
    }

    impl PipeliningAblation {
        /// How much faster the pipelined backbone finishes the fan-out.
        pub fn speedup(&self) -> f64 {
            self.synchronous.as_secs_f64() / self.pipelined.as_secs_f64()
        }
    }

    /// Pipelining ablation (the asynchronous backbone's win): a fan-out
    /// of independent modeled launches — one kernel and one buffer per
    /// GPU node, `rounds` launches each — timed under both host
    /// semantics on fresh clusters.
    ///
    /// The NMP acks a launch as soon as it schedules it (device time is
    /// projected), so what a synchronous host serializes on is the
    /// control-plane round trip, not the compute. The ablation therefore
    /// models a rack-scale link with visible latency and keeps the
    /// kernels tiny: synchronously every launch in the fan-out pays a
    /// full round trip back-to-back (`nodes * rounds` trips); pipelined,
    /// the requests of a round stream out together and the makespan
    /// collapses to one round trip per round.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn pipelining(nodes: usize, rounds: usize) -> Result<PipeliningAblation, Error> {
        let run = |pipelined: bool| -> Result<SimDuration, Error> {
            let mut config = ClusterConfig::gpu_cluster(nodes);
            config.link = LinkModel::custom(1.25e9, SimDuration::from_micros(200));
            let platform = Platform::cluster(&config, registry_with_all())?;
            let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
            let program =
                Program::with_bitstream_kernels(&ctx, [haocl_workloads::matmul::KERNEL_NAME]);
            program.build()?;
            // One kernel + queue + buffer per device: the launches are
            // mutually independent, so only the host semantics decide
            // whether the round trips overlap.
            let mut lanes = Vec::new();
            for device in ctx.devices() {
                let kernel = Kernel::new(&program, haocl_workloads::matmul::KERNEL_NAME)?;
                kernel.set_fidelity(haocl::Fidelity::Modeled);
                kernel.set_cost(CostModel::new().flops(1e6));
                bind_dummy_args(&ctx, &kernel)?;
                lanes.push((CommandQueue::new(&ctx, device)?, kernel));
            }
            // Warm-up round outside the timed region: loads the
            // bitstream on every node and stages the dummy buffers, so
            // both runs time the steady-state fan-out alone.
            for (queue, kernel) in &lanes {
                queue
                    .enqueue_nd_range_kernel(kernel, NdRange::linear(1024, 64))?
                    .wait()?;
            }
            let t0 = platform.now();
            for _ in 0..rounds {
                for (queue, kernel) in &lanes {
                    let event = queue.enqueue_nd_range_kernel(kernel, NdRange::linear(1024, 64))?;
                    if !pipelined {
                        event.wait()?;
                    }
                }
            }
            for (queue, _) in &lanes {
                queue.finish();
            }
            Ok(platform.now().saturating_duration_since(t0))
        };
        Ok(PipeliningAblation {
            synchronous: run(false)?,
            pipelined: run(true)?,
        })
    }

    /// Network-bandwidth ablation: MatrixMul makespan on 8 GPU nodes as
    /// the interconnect scales from 1 to 100 Gb/s.
    ///
    /// # Errors
    ///
    /// Propagates driver failures.
    pub fn network_bandwidth(gbps_points: &[f64]) -> Result<Vec<(f64, SimDuration)>, Error> {
        let mut out = Vec::new();
        for &gbps in gbps_points {
            let mut config = ClusterConfig::gpu_cluster(8);
            config.link = LinkModel::custom(gbps * 125.0e6, config.link.latency);
            let report = run_haocl(
                &config,
                &Workload::MatrixMul(MatmulConfig::paper_scale()),
                &RunOptions::modeled(),
            )?;
            out.push((gbps, report.makespan));
        }
        Ok(out)
    }

    /// One measured configuration of the [`locality`] ablation.
    #[derive(Debug, Clone)]
    pub struct LocalityRow {
        /// Workload the kernels come from (`"BFS"` or `"CFD"`).
        pub app: &'static str,
        /// `"locality-aware"` or `"locality-blind"`.
        pub config: &'static str,
        /// Time spent in the `DataTransfer` phase over the launch loop.
        pub data_transfer: SimDuration,
        /// Bytes relayed through the host during the launch loop
        /// (`haocl_dataplane_bytes_total{path="host_relay"}` delta).
        pub relay_bytes: u64,
        /// Bytes moved NMP-to-NMP during the launch loop
        /// (`haocl_dataplane_bytes_total{path="peer"}` delta).
        pub peer_bytes: u64,
        /// FNV-1a digest of the output buffer read back after the loop.
        /// Must match across configs: placement may move data, never
        /// change results.
        pub digest: u64,
    }

    /// Locality ablation (the residency-aware data plane's win): a loop
    /// of real (full-fidelity) workload kernel launches on a 2-GPU
    /// cluster, auto-scheduled under two configurations:
    ///
    /// * `locality-aware` — the default data plane: the
    ///   [`policies::LocalityAware`] policy keeps each launch where its
    ///   buffers already live, and peer NMP transfers are enabled.
    /// * `peer-transfer` — [`policies::RoundRobin`] bounces launches
    ///   across the nodes (forcing a migration per launch) but peer
    ///   transfers stay on, so the migrations ride NMP-to-NMP and the
    ///   host relays nothing.
    /// * `locality-blind` — [`policies::RoundRobin`] with peer
    ///   transfers disabled, so every migration of the written buffer
    ///   relays through the host (pre-residency behaviour).
    ///
    /// Inputs are staged once before the measured region; counters and
    /// the phase breakdown are snapshotted so each row covers only the
    /// launch loop. The kernels (`bfs_apply`, `cfd_flux`) are
    /// deterministic and idempotent, so both configs must produce
    /// byte-identical outputs — the digest proves placement never
    /// changed results.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn locality(iterations: usize) -> Result<Vec<LocalityRow>, Error> {
        let mut out = Vec::new();
        for app in ["BFS", "CFD"] {
            for (config, local, peer) in [
                ("locality-aware", true, true),
                ("peer-transfer", false, true),
                ("locality-blind", false, false),
            ] {
                out.push(locality_case(app, config, local, peer, iterations)?);
            }
        }
        Ok(out)
    }

    fn locality_case(
        app: &'static str,
        config: &'static str,
        local: bool,
        peer: bool,
        iterations: usize,
    ) -> Result<LocalityRow, Error> {
        use haocl::{Buffer, MemFlags};
        use haocl_obs::names;
        use haocl_sim::Phase;

        let platform = Platform::cluster(&ClusterConfig::gpu_cluster(2), registry_with_all())?;
        platform.set_peer_transfers(peer);
        let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
        let policy: Box<dyn SchedulingPolicy> = if local {
            Box::new(policies::LocalityAware::new())
        } else {
            Box::new(policies::RoundRobin::new())
        };
        let auto = AutoScheduler::new(&ctx, policy)?;
        // Staging and read-back go through the first device's queue;
        // the launches themselves are placed by the scheduler.
        let queue = CommandQueue::new(&ctx, &ctx.devices()[0])?;

        let (kernel, global, output) = match app {
            "BFS" => {
                let n = 4096usize;
                let program = Program::with_bitstream_kernels(
                    &ctx,
                    [haocl_workloads::bfs::APPLY_KERNEL_NAME],
                );
                program.build()?;
                let kernel = Kernel::new(&program, haocl_workloads::bfs::APPLY_KERNEL_NAME)?;
                let depth = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * n as u64)?;
                let updates = Buffer::new(&ctx, MemFlags::READ_ONLY, 8 * n as u64)?;
                let mut update_list = Vec::with_capacity(2 * n);
                for i in 0..n as i32 {
                    update_list.push(i);
                    update_list.push(i % 7);
                }
                queue.enqueue_write_buffer(&depth, 0, &i32_bytes(&vec![-1; n]))?;
                queue.enqueue_write_buffer(&updates, 0, &i32_bytes(&update_list))?;
                kernel.set_arg_buffer(0, &depth)?;
                kernel.set_arg_buffer(1, &updates)?;
                kernel.set_arg_i32(2, n as i32)?;
                (kernel, n, depth)
            }
            _ => {
                let cfg = haocl_workloads::cfd::CfdConfig::test_scale();
                let (vars, neigh) = haocl_workloads::cfd::generate_state(&cfg);
                let n = cfg.cells;
                let program =
                    Program::with_bitstream_kernels(&ctx, [haocl_workloads::cfd::KERNEL_NAME]);
                program.build()?;
                let kernel = Kernel::new(&program, haocl_workloads::cfd::KERNEL_NAME)?;
                let vars_d = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * vars.len() as u64)?;
                let neigh_d = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * neigh.len() as u64)?;
                let out_d = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * vars.len() as u64)?;
                queue.enqueue_write_buffer(&vars_d, 0, &f32_bytes(&vars))?;
                queue.enqueue_write_buffer(&neigh_d, 0, &i32_bytes(&neigh))?;
                queue.enqueue_write_buffer(&out_d, 0, &vec![0u8; 4 * vars.len()])?;
                kernel.set_arg_buffer(0, &vars_d)?;
                kernel.set_arg_buffer(1, &neigh_d)?;
                kernel.set_arg_buffer(2, &out_d)?;
                kernel.set_arg_i32(3, n as i32)?;
                kernel.set_arg_i32(4, 0)?;
                kernel.set_arg_i32(5, n as i32)?;
                (kernel, n, out_d)
            }
        };

        // Measured region: snapshot the data-plane counters and phase
        // clock after staging, so both rows cover only the launch loop.
        let metrics = &platform.obs().metrics;
        let relay_label = [("path", names::PATH_HOST_RELAY)];
        let peer_label = [("path", names::PATH_PEER)];
        let relay0 = metrics.counter_value(names::DATAPLANE_BYTES, &relay_label);
        let peer0 = metrics.counter_value(names::DATAPLANE_BYTES, &peer_label);
        platform.reset_phases();

        for _ in 0..iterations {
            let (event, _) = auto.launch(&kernel, NdRange::linear(global as u64, 64))?;
            event.wait()?;
        }

        let data_transfer = platform.phase_breakdown().time(Phase::DataTransfer);
        let relay_bytes = metrics.counter_value(names::DATAPLANE_BYTES, &relay_label) - relay0;
        let peer_bytes = metrics.counter_value(names::DATAPLANE_BYTES, &peer_label) - peer0;

        // Read-back happens after the measurement window: it relays the
        // same bytes in either config and would only blur the deltas.
        let mut result = vec![0u8; output.size() as usize];
        queue.enqueue_read_buffer(&output, 0, &mut result)?;
        Ok(LocalityRow {
            app,
            config,
            data_transfer,
            relay_bytes,
            peer_bytes,
            digest: fnv1a(&result),
        })
    }

    fn i32_bytes(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn f32_bytes(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// One configuration of the [`fusion`] ablation.
    #[derive(Debug, Clone, Copy)]
    pub struct FusionRow {
        /// Workload the chain comes from (`"KNN"` or `"SpMV"`).
        pub app: &'static str,
        /// `"fused"` or `"unfused"`.
        pub config: &'static str,
        /// Kernel launches captured in the graph.
        pub nodes: usize,
        /// Wire launch commands actually issued for those nodes.
        pub wire_launches: usize,
        /// Commands saved versus one command per node.
        pub commands_saved: usize,
        /// FNV-1a digest of the output buffers read back after the
        /// graph completes. Must match across configs: fusion may
        /// collapse commands, never change results.
        pub digest: u64,
    }

    impl FusionRow {
        /// Fractional reduction in wire launch commands versus
        /// `baseline` (`0.75` = three commands in four eliminated).
        #[must_use]
        pub fn command_reduction_vs(&self, baseline: &FusionRow) -> f64 {
            if baseline.wire_launches == 0 {
                return 0.0;
            }
            1.0 - self.wire_launches as f64 / baseline.wire_launches as f64
        }
    }

    /// Kernel-fusion ablation (the effect prover's win): chains of
    /// small full-fidelity paper kernels dispatched through a
    /// [`haocl::LaunchGraph`] on a 2-GPU cluster, with the fusion
    /// prover on (`fused`) and off (`unfused`):
    ///
    /// * `KNN` — Rodinia NN's per-record distance pass (`nn_dist`),
    ///   once per query in the batch. The launches share the read-only
    ///   coordinate buffers and each writes its own distance buffer, so
    ///   the prover collapses the whole batch into one fused dispatch.
    /// * `SpMV` — the partition stage's per-row nonzero count
    ///   (`spmv_row_nnz`), once per partitioning round. Rounds share
    ///   the read-only `row_ptr` and write disjoint count buffers.
    ///
    /// Both kernels compile from the paper sources through `clc`, so
    /// the effect summaries the prover needs ride in on the kernel
    /// reports. The digest over the read-back outputs must match
    /// across configs — fusion saves wire commands, never changes
    /// bytes.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn fusion() -> Result<Vec<FusionRow>, Error> {
        let mut out = Vec::new();
        for app in ["KNN", "SpMV"] {
            for (config, fused) in [("fused", true), ("unfused", false)] {
                out.push(fusion_case(app, config, fused)?);
            }
        }
        Ok(out)
    }

    fn fusion_case(
        app: &'static str,
        config: &'static str,
        fused: bool,
    ) -> Result<FusionRow, Error> {
        use haocl::{Buffer, LaunchGraph, MemFlags};

        let platform = Platform::cluster(&ClusterConfig::gpu_cluster(2), registry_with_all())?;
        let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
        let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new()))?;
        let queue = CommandQueue::new(&ctx, &ctx.devices()[0])?;

        let mut graph = LaunchGraph::new();
        graph.set_fusion(fused);
        let outputs: Vec<Buffer> = match app {
            "KNN" => {
                let cfg = haocl_workloads::knn::KnnConfig {
                    records: 1024,
                    queries: 4,
                    k: 5,
                    seed: 42,
                };
                let (lat, lng) = haocl_workloads::knn::generate_records(&cfg);
                let (qlat, qlng) = haocl_workloads::knn::generate_queries(&cfg);
                let program = Program::from_source(&ctx, haocl_workloads::knn::KERNEL_SOURCE);
                program.build()?;
                let lat_d = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * lat.len() as u64)?;
                let lng_d = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * lng.len() as u64)?;
                queue.enqueue_write_buffer(&lat_d, 0, &f32_bytes(&lat))?;
                queue.enqueue_write_buffer(&lng_d, 0, &f32_bytes(&lng))?;
                let mut dists = Vec::with_capacity(cfg.queries);
                for q in 0..cfg.queries {
                    let dist = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * cfg.records as u64)?;
                    let kernel = Kernel::new(&program, haocl_workloads::knn::DIST_KERNEL_NAME)?;
                    kernel.set_arg_buffer(0, &lat_d)?;
                    kernel.set_arg_buffer(1, &lng_d)?;
                    kernel.set_arg_buffer(2, &dist)?;
                    kernel.set_arg_f32(3, qlat[q])?;
                    kernel.set_arg_f32(4, qlng[q])?;
                    kernel.set_arg_i32(5, cfg.records as i32)?;
                    graph.add(&kernel, NdRange::linear(cfg.records as u64, 64))?;
                    dists.push(dist);
                }
                dists
            }
            _ => {
                let cfg = haocl_workloads::spmv::SpmvConfig::test_scale();
                let m = haocl_workloads::spmv::generate_matrix(&cfg);
                let rows = m.row_ptr.len() - 1;
                let row_ptr: Vec<i32> = m.row_ptr.iter().map(|&v| v as i32).collect();
                let program = Program::from_source(&ctx, haocl_workloads::spmv::KERNEL_SOURCE);
                program.build()?;
                let ptr_d = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * row_ptr.len() as u64)?;
                queue.enqueue_write_buffer(&ptr_d, 0, &i32_bytes(&row_ptr))?;
                let rounds = 3;
                let mut counts = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    let nnz = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * rows as u64)?;
                    let kernel = Kernel::new(&program, haocl_workloads::spmv::NNZ_KERNEL_NAME)?;
                    kernel.set_arg_buffer(0, &ptr_d)?;
                    kernel.set_arg_buffer(1, &nnz)?;
                    kernel.set_arg_i32(2, rows as i32)?;
                    graph.add(&kernel, NdRange::linear(rows as u64, 64))?;
                    counts.push(nnz);
                }
                counts
            }
        };

        let report = auto.launch_graph(&graph)?;
        let mut all = Vec::new();
        for buf in &outputs {
            let mut bytes = vec![0u8; buf.size() as usize];
            queue.enqueue_read_buffer(buf, 0, &mut bytes)?;
            all.extend_from_slice(&bytes);
        }
        Ok(FusionRow {
            app,
            config,
            nodes: report.nodes,
            wire_launches: report.wire_launches,
            commands_saved: report.commands_saved,
            digest: fnv1a(&all),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl_workloads::matmul::MatmulConfig;

    #[test]
    fn fig2_produces_all_series_for_matmul() {
        let rows = fig2::rows(
            &Workload::MatrixMul(MatmulConfig::with_n(1024)),
            &[1, 2],
            &RunOptions::modeled(),
        )
        .unwrap();
        let series: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        for s in [
            "Local-GPU",
            "Local-FPGA",
            "HaoCL-GPU",
            "HaoCL-FPGA",
            "SnuCL-D",
        ] {
            assert!(series.contains(s), "missing series {s}");
        }
        // Hetero appears only for n >= 2.
        assert!(series.contains("HaoCL-Hetero"));
    }

    #[test]
    fn fig3_rows_have_all_phases() {
        let rows = fig3::rows(&[1024], &[2], &RunOptions::modeled()).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.compute > haocl_sim::SimDuration::ZERO);
        assert!(r.data_transfer > haocl_sim::SimDuration::ZERO);
        assert!(r.data_create > haocl_sim::SimDuration::ZERO);
        assert!(r.total >= r.compute);
    }

    #[test]
    fn overhead_is_small_for_matmul_at_paper_scale() {
        // At paper scale compute dominates, so the wrapper + backbone
        // overhead on one node shrinks to a modest share (the abstract's
        // "negligible overhead" claim). Small inputs are legitimately
        // transfer-dominated.
        let rows = overhead::rows(
            &[Workload::MatrixMul(MatmulConfig::paper_scale())],
            &RunOptions::modeled(),
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].overhead_pct.abs() < 2.0,
            "co-located overhead {}% should be negligible",
            rows[0].overhead_pct
        );
        assert!(
            rows[0].remote_overhead_pct < 50.0,
            "remote-host overhead {}%",
            rows[0].remote_overhead_pct
        );
    }

    #[test]
    fn pipelining_ablation_shows_at_least_2x_on_4_node_fanout() {
        let result = ablations::pipelining(4, 2).unwrap();
        assert!(
            result.pipelined < result.synchronous,
            "pipelined {} should beat synchronous {}",
            result.pipelined,
            result.synchronous
        );
        assert!(
            result.speedup() >= 2.0,
            "4-node fan-out speedup {:.2}x (sync {} vs pipelined {})",
            result.speedup(),
            result.synchronous,
            result.pipelined
        );
    }

    #[test]
    fn scheduler_ablation_covers_four_policies() {
        let results = ablations::scheduler_policies(8).unwrap();
        assert_eq!(results.len(), 4);
        // The hetero-aware policy is never the worst.
        let hetero = results.iter().find(|(n, _)| n == "hetero-aware").unwrap().1;
        let worst = results.iter().map(|(_, d)| *d).max().unwrap();
        assert!(hetero <= worst);
    }

    #[test]
    fn fusion_ablation_saves_commands_and_preserves_digests() {
        let rows = ablations::fusion().unwrap();
        assert_eq!(rows.len(), 4);
        for app in ["KNN", "SpMV"] {
            let find = |config: &str| {
                rows.iter()
                    .find(|r| r.app == app && r.config == config)
                    .unwrap()
            };
            let fused = find("fused");
            let unfused = find("unfused");
            // Fusion may collapse commands, never change results.
            assert_eq!(
                fused.digest, unfused.digest,
                "{app}: fused output diverged from unfused replay"
            );
            assert_eq!(
                unfused.wire_launches, unfused.nodes,
                "{app}: unfused baseline must issue one command per node"
            );
            assert!(
                fused.commands_saved > 0,
                "{app}: prover approved no fusions"
            );
            // The acceptance bar: the prover cuts wire launch commands
            // by at least 30% on a small-kernel chain.
            let reduction = fused.command_reduction_vs(unfused);
            assert!(
                reduction >= 0.30,
                "{app}: expected >=30% command reduction, got {:.0}% \
                 (fused {} vs unfused {})",
                reduction * 100.0,
                fused.wire_launches,
                unfused.wire_launches
            );
        }
    }

    #[test]
    fn locality_ablation_cuts_relay_traffic_without_changing_results() {
        let rows = ablations::locality(6).unwrap();
        assert_eq!(rows.len(), 6);
        for app in ["BFS", "CFD"] {
            let find = |config: &str| {
                rows.iter()
                    .find(|r| r.app == app && r.config == config)
                    .unwrap()
            };
            let aware = find("locality-aware");
            let hop = find("peer-transfer");
            let blind = find("locality-blind");
            // Placement may move data, never change results.
            for r in [hop, blind] {
                assert_eq!(
                    aware.digest, r.digest,
                    "{app}/{}: outputs must be byte-identical across configs",
                    r.config
                );
            }
            // The acceptance bar: residency-aware placement cuts
            // host-relayed data-plane traffic at least in half.
            assert!(
                blind.relay_bytes >= 2 * aware.relay_bytes.max(1),
                "{app}: expected >=2x relay reduction, aware={} blind={}",
                aware.relay_bytes,
                blind.relay_bytes
            );
            // When placement still bounces, migrations ride the peer
            // path: the host relays at most the one-time staging that
            // locality-blind also pays, and the bulk moves NMP-to-NMP.
            assert!(
                hop.peer_bytes > 0,
                "{app}: peer-transfer config moved no peer bytes"
            );
            assert!(
                blind.relay_bytes >= 2 * hop.relay_bytes.max(1),
                "{app}: peer transfers should halve relayed bytes, peer-config relay={} blind={}",
                hop.relay_bytes,
                blind.relay_bytes
            );
        }
    }
}
