//! `paper_apps` — the five Table I apps through
//! `haocl_workloads::Workload::run(&platform, &RunOptions::source())` at
//! a seeded mid scale, each checked against the crate's host reference;
//! op = one app run, block = one pass over the five.
//!
//! Why: the VM does ≥ 90 % of the work and the framework almost none —
//! the mirror image of `small_launch`. Compiled-engine, lowering and
//! parallel-driver changes show here only.

use std::time::{Duration, Instant};

use haocl::Platform;
use haocl_workloads::bfs::BfsConfig;
use haocl_workloads::cfd::CfdConfig;
use haocl_workloads::knn::KnnConfig;
use haocl_workloads::matmul::MatmulConfig;
use haocl_workloads::spmv::SpmvConfig;
use haocl_workloads::{RunOptions, Workload as App};

use crate::gen::Rng;
use crate::harness::{OpLog, Res, Rig, Scale, Workload};
use crate::spans::Spans;

/// The five apps at benchmark scale, sized so each takes a comparable
/// share of a pass and the VM dominates every one of them.
pub fn suite(seed: u64, scale: Scale) -> Vec<App> {
    let mut rng = Rng::new(seed, 4);
    let mut seed = || rng.next_u64();
    match scale {
        Scale::Full => vec![
            App::MatrixMul(MatmulConfig {
                n: 96,
                seed: seed(),
            }),
            App::Cfd(CfdConfig {
                cells: 4_096,
                iterations: 6,
                window: 128,
                seed: seed(),
            }),
            App::Knn(KnnConfig {
                records: 32_768,
                queries: 16,
                k: 8,
                seed: seed(),
            }),
            App::Bfs(BfsConfig {
                nodes: 16_384,
                avg_degree: 6,
                seed: seed(),
                ..BfsConfig::test_scale()
            }),
            App::Spmv(SpmvConfig {
                rows: 32_768,
                avg_nnz_per_row: 16,
                seed: seed(),
            }),
        ],
        Scale::Smoke => vec![
            App::MatrixMul(MatmulConfig {
                seed: seed(),
                ..MatmulConfig::test_scale()
            }),
            App::Cfd(CfdConfig {
                seed: seed(),
                ..CfdConfig::test_scale()
            }),
            App::Knn(KnnConfig {
                seed: seed(),
                ..KnnConfig::test_scale()
            }),
            App::Bfs(BfsConfig {
                seed: seed(),
                ..BfsConfig::test_scale()
            }),
            App::Spmv(SpmvConfig {
                seed: seed(),
                ..SpmvConfig::test_scale()
            }),
        ],
    }
}

/// Span name for one app's run, by `App::name()`.
pub fn span_name(app: &App) -> &'static str {
    match app {
        App::MatrixMul(_) => "workloads.matmul.run",
        App::Cfd(_) => "workloads.cfd.run",
        App::Knn(_) => "workloads.knn.run",
        App::Bfs(_) => "workloads.bfs.run",
        App::Spmv(_) => "workloads.spmv.run",
    }
}

pub struct PaperApps {
    rig: Rig,
    apps: Vec<App>,
}

impl Workload for PaperApps {
    const NAME: &'static str = "paper_apps";
    const WHY: &'static str = "the five Table I apps from source: the VM does >=90% of the work, the mirror image of small_launch";
    const RSS_AT_BLOCKS: usize = 3;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        Ok(PaperApps {
            rig: Rig::launch()?,
            apps: suite(seed, scale),
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        let started = Instant::now();
        for app in &self.apps {
            spans.next_op();
            let t0 = Instant::now();
            let report = spans.time(span_name(app), |_| {
                app.run(&self.rig.platform, &RunOptions::source())
            })?;
            log.done(t0);
            log.check(report.verified == Some(true), || {
                format!("{} did not verify against its host reference", report.app)
            });
        }
        Ok(started.elapsed())
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
