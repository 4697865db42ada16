//! The closed-loop block harness every workload runs under.
//!
//! Load shape: one client thread, one 2-node GPU cluster with an *empty*
//! kernel registry (so source kernels really run in the `clc` VM — with
//! `registry_with_all()` a native kernel of the same name silently
//! shadows the source build), one discarded warm-up block, then equal
//! blocks of a fixed operation count until the time budget is spent.
//! All traffic crosses the in-process `haocl-net` fabric; link rates are
//! virtual.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use haocl::{CommandQueue, Context, DeviceType, Platform};
use haocl_cluster::ClusterConfig;
use haocl_kernel::KernelRegistry;

use crate::spans::Spans;
use crate::stats::Block;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// NMP nodes in the cluster under test (= `nproc` on the reference box).
pub const NODES: usize = 2;

/// Fewest blocks a measured phase takes its fast-end block from.
pub const MIN_BLOCKS: usize = 3;

/// The repository root: the working directory when the benchmark is run
/// as `BENCHMARK.json` says, else the parent of this package.
pub fn repo_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("tests/lint_corpus/good").is_dir() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Problem sizes: the real thing, or tiny counts for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at benchmark scale, `smoke` under `--smoke`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The cluster every workload talks to, with one queue per device.
pub struct Rig {
    pub platform: Platform,
    pub ctx: Context,
    pub queues: Vec<CommandQueue>,
}

impl Rig {
    pub fn launch() -> Res<Rig> {
        let platform =
            Platform::cluster(&ClusterConfig::gpu_cluster(NODES), KernelRegistry::new())?;
        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices)?;
        let queues = devices
            .iter()
            .map(|d| CommandQueue::new(&ctx, d))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            platform,
            ctx,
            queues,
        })
    }
}

/// What one block's ops reported: a latency per op, and how many ops
/// produced a wrong output.
#[derive(Debug, Default)]
pub struct OpLog {
    pub lat_ns: Vec<u64>,
    pub failed: u64,
}

impl OpLog {
    /// Records one op that started at `t0` and just completed.
    pub fn done(&mut self, t0: Instant) {
        self.lat_ns.push(t0.elapsed().as_nanos() as u64);
    }

    /// Counts a failed output check against the ops of this block.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// One line on why the workload is in the benchmark (`BENCHMARK.json`
    /// carries it).
    const WHY: &'static str;

    /// Measured blocks after which `peak_rss_mib` is read. Memory is
    /// reported at a fixed amount of work, not at the end of a fixed
    /// time: several workloads keep state per op (the audit log, built
    /// programs on the nodes), so a peak read after `--seconds` would
    /// grow with throughput and flag every speed-up as a memory
    /// regression. About a sixth of a 16 s run on the reference box.
    const RSS_AT_BLOCKS: usize;

    /// Cluster launch, context, program builds, buffer allocation —
    /// everything a user pays before the first op.
    fn setup(seed: u64, scale: Scale) -> Res<Self>;

    /// Runs one block of this workload's fixed op count: one latency per
    /// op into `log`, every call into a layer wrapped in `spans`, every
    /// output checked. Returns the wall time of the op loop (output
    /// checks that are not part of an op are left out of it).
    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration>;

    fn platform(&self) -> &Platform;
}

/// A measured phase: per-block figures plus whole-phase totals.
#[derive(Debug, Default)]
pub struct Phase {
    pub blocks: Vec<Block>,
    pub failed: u64,
}

impl Phase {
    /// Ops attempted: every op logs a latency, whatever its check said.
    pub fn ops(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops as u64).sum()
    }

    pub fn wall_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }
}

/// Runs blocks until `budget` is spent (and at least `min_blocks`),
/// calling `after_block` between blocks, outside every timed window.
pub fn run_blocks<W: Workload>(
    w: &mut W,
    spans: &mut Spans,
    budget: Duration,
    min_blocks: usize,
    mut after_block: impl FnMut(&W, &Block),
) -> Res<Phase> {
    let mut phase = Phase::default();
    let started = Instant::now();
    while phase.blocks.len() < min_blocks || started.elapsed() < budget {
        let mut log = OpLog::default();
        let wall = w.block(spans, &mut log)?;
        phase.failed += log.failed;
        let block = Block::from_latencies(&mut log.lat_ns, wall);
        after_block(w, &block);
        phase.blocks.push(block);
    }
    Ok(phase)
}

/// CPU nanoseconds each group of this process's threads has consumed so
/// far: `[client, demux, node]`. The client is the main thread (the
/// benchmark loop and everything `core` and the host runtime do on the
/// caller's thread), demux threads are the host runtime's
/// `haocl-demux-*` receivers, and everything else is node side: NMP
/// accept/serve threads and the VM's workers. Read from
/// `/proc/self/task/*/schedstat`; a thread that has exited no longer
/// counts, so compare snapshots only across a span in which the cluster
/// stays up.
pub fn thread_cpu_ns() -> [f64; 3] {
    let mut groups = [0.0; 3];
    let pid = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return groups;
    };
    for task in tasks.flatten() {
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        let on_cpu_ns: f64 = read("schedstat")
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0);
        let group = if task.file_name().to_string_lossy() == pid {
            0
        } else if read("comm").starts_with("haocl-demux") {
            1
        } else {
            2
        };
        groups[group] += on_cpu_ns;
    }
    groups
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_is_attributed_to_the_group_that_burned_it() {
        let before = thread_cpu_ns();
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("haocl-demux-test".to_string())
                .spawn_scoped(scope, || {
                    let t0 = Instant::now();
                    let mut x = 0u64;
                    while t0.elapsed() < Duration::from_millis(40) {
                        x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
                    }
                    // Read while the thread is still alive.
                    let burned = thread_cpu_ns()[1] - before[1];
                    assert!(burned >= 10e6, "demux group saw {burned} ns");
                })
                .expect("spawn");
        });
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.5);
    }
}
