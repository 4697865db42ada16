//! `cold_build` — op = `Program::from_source` (a paper kernel source, a
//! `tests/lint_corpus/good` file or an `examples/kernels` file, each
//! made unique with a seeded stamp kernel so source-hash caches miss) →
//! `build()` on both nodes → `Kernel::new` → first 64-item launch → read
//! back and check → drop.
//!
//! Why: the `clc` front end, analysis, a lowering-cache miss and
//! `BuildProgram`/kernel-report shipping — what users pay on every
//! application start and no steady-state workload touches.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use haocl::{Buffer, Kernel, MemFlags, Platform, Program};

use super::{check_ran_in_vm, small_range, SMALL_ITEMS};
use crate::gen::Rng;
use crate::harness::{repo_root, OpLog, Res, Rig, Scale, Workload};
use crate::kernels::{stamp_from, stamp_kernel, STAMP_KERNEL_NAME};
use crate::spans::Spans;

/// Every source `cold_build` compiles, `(label, text)`, in a fixed
/// order: the five paper kernels, then the repository's `.cl` files by
/// path.
pub fn corpus() -> Res<Vec<(String, String)>> {
    use haocl_workloads::{bfs, cfd, knn, matmul, spmv};
    let mut out: Vec<(String, String)> = [
        ("paper/matmul", matmul::KERNEL_SOURCE),
        ("paper/cfd", cfd::KERNEL_SOURCE),
        ("paper/knn", knn::KERNEL_SOURCE),
        ("paper/bfs", bfs::KERNEL_SOURCE),
        ("paper/spmv", spmv::KERNEL_SOURCE),
    ]
    .into_iter()
    .map(|(label, text)| (label.to_string(), text.to_string()))
    .collect();
    let root = repo_root();
    for dir in ["tests/lint_corpus/good", "examples/kernels"] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "cl"))
            .collect();
        files.sort();
        for file in files {
            let name = file.file_name().unwrap_or_default().to_string_lossy();
            out.push((format!("{dir}/{name}"), std::fs::read_to_string(&file)?));
        }
    }
    Ok(out)
}

pub struct ColdBuild {
    rig: Rig,
    corpus: Vec<(String, String)>,
    /// One output buffer per queue: ops alternate between the two nodes,
    /// and a shared buffer would migrate node to node on every op. Each
    /// migration opens a peer connection, and the NMP accept loop keeps
    /// the `JoinHandle` of every connection's serve thread until shutdown,
    /// so the exited threads' 2 MiB stacks stay mapped: ~35 000 ops in,
    /// the process passes `vm.max_map_count` and thread spawns fail with
    /// ENOMEM (README, "Findings").
    outs: Vec<Buffer>,
    rng: Rng,
    passes_per_block: usize,
    launches: usize,
}

impl Workload for ColdBuild {
    const NAME: &'static str = "cold_build";
    const WHY: &'static str = "unique source each op: clc front end, analysis, lowering-cache miss and BuildProgram shipping, which steady-state workloads never touch";
    const RSS_AT_BLOCKS: usize = 50;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let rig = Rig::launch()?;
        let mut rng = Rng::new(seed, 6);
        let mut corpus = corpus()?;
        rng.shuffle(&mut corpus);
        let outs = (0..rig.queues.len())
            .map(|_| Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * SMALL_ITEMS as u64))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ColdBuild {
            rig,
            corpus,
            outs,
            rng,
            passes_per_block: scale.pick(10, 1),
            launches: 0,
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        let started = Instant::now();
        for _ in 0..self.passes_per_block {
            for (label, text) in &self.corpus {
                let stamp = stamp_from(self.rng.next_u64());
                let source = format!("{text}{}", stamp_kernel(stamp));
                let lane = self.launches % self.rig.queues.len();
                let (queue, out) = (&self.rig.queues[lane], &self.outs[lane]);
                self.launches += 1;
                let mut got = vec![0u8; 4 * SMALL_ITEMS];
                spans.next_op();
                let t0 = Instant::now();
                let event = spans.time("op", |s| {
                    let program = s.time("core.program.from_source", |_| {
                        Program::from_source(&self.rig.ctx, source)
                    });
                    s.time("core.program.build", |_| program.build())?;
                    let kernel = s.time("core.kernel.new", |_| {
                        Kernel::new(&program, STAMP_KERNEL_NAME)
                    })?;
                    kernel.set_arg_buffer(0, out)?;
                    kernel.set_arg_i32(1, SMALL_ITEMS as i32)?;
                    let event = s.time("core.queue.enqueue_nd_range_kernel", |_| {
                        queue.enqueue_nd_range_kernel(&kernel, small_range())
                    })?;
                    s.time("core.event.wait", |_| event.wait())?;
                    s.time("core.queue.enqueue_read_buffer", |_| {
                        queue.enqueue_read_buffer(out, 0, &mut got)
                    })?;
                    s.time("core.drop", |_| drop((kernel, program)));
                    Ok::<_, haocl::Error>(event)
                })?;
                log.done(t0);
                check_ran_in_vm(&event, log);
                let stamped = got.chunks_exact(4).enumerate().all(|(i, w)| {
                    i32::from_le_bytes(w.try_into().expect("word")) == stamp + i as i32
                });
                log.check(stamped, || {
                    format!("{label}: stamp kernel wrote the wrong values")
                });
            }
        }
        Ok(started.elapsed())
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
