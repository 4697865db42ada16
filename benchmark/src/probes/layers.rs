//! `sched`, `obs` and `workloads` probes.

use std::time::Instant;

use haocl::{DeviceKind, TenantId, TenantSpec};
use haocl_obs::{Hub, Span, SpanId};
use haocl_sched::policies::HeteroAware;
use haocl_sched::{DeviceView, Scheduler, TaskSpec, TenantScheduler};
use haocl_sim::{Phase, SimDuration, SimTime};
use haocl_workloads::{RunOptions, Workload as App};

use super::{time_ns, Budget, Samples};
use crate::harness::{Res, Rig, Scale};
use crate::run::vm_run_totals;
use crate::workloads::paper_apps;

/// `sched.place_audited_ns.*`, `sched.tenancy.cycle_ns`.
pub fn sched(budget: &Budget, samples: &mut Samples) {
    let scheduler = Scheduler::new(Box::new(HeteroAware::new()));
    let task = TaskSpec::new("saxpy");
    for (name, devices) in [
        ("sched.place_audited_ns.2dev", 2u32),
        ("sched.place_audited_ns.16dev", 16),
    ] {
        let views: Vec<DeviceView> = (0..devices)
            .map(|n| DeviceView::sample(n, 0, DeviceKind::Gpu))
            .collect();
        samples.add(
            name,
            time_ns(budget.units(1), 50, || {
                std::hint::black_box(
                    scheduler
                        .place_audited(&task, &views)
                        .expect("a GPU is eligible"),
                );
            }),
        );
    }

    let arbiter = TenantScheduler::<u32>::new();
    let tenant = TenantId::new(1);
    arbiter.register(tenant, TenantSpec::new("probe"));
    samples.add(
        "sched.tenancy.cycle_ns",
        time_ns(budget.units(1), 50, || {
            arbiter.submit(tenant, 0, 1_000).expect("queue has room");
            let (who, _) = arbiter.next().expect("one item queued");
            arbiter.complete(who, SimDuration::from_nanos(1_000));
        }),
    );
}

/// `obs.span_record_ns`, `obs.counter_inc_ns`: what one span and one
/// counter increment cost a traced run.
pub fn obs(budget: &Budget, samples: &mut Samples) {
    let hub = Hub::new();
    hub.set_enabled(true);
    let trace = hub.recorder.new_trace();
    let mut recorded = 0u32;
    samples.add(
        "obs.span_record_ns",
        time_ns(budget.units(1), 50, || {
            hub.recorder.record(
                Span::new(
                    hub.recorder.next_span_id(),
                    trace,
                    Some(SpanId(1)),
                    "probe",
                    Phase::Compute,
                    "host",
                    SimTime::ZERO,
                    SimTime::from_nanos(10),
                )
                .attr("kernel", "saxpy"),
            );
            recorded += 1;
            // Keep the recording small: the cost of interest is one push,
            // not reallocating a multi-megabyte vector.
            if recorded.is_multiple_of(4_096) {
                hub.recorder.clear();
            }
        }),
    );
    samples.add(
        "obs.counter_inc_ns",
        time_ns(budget.units(1), 50, || {
            hub.metrics
                .inc_counter(haocl_obs::names::WALL_REQUESTS, &[("node", "gpu0")], 1);
        }),
    );
}

/// The `workloads` layer: each paper app once per pass, at `paper_apps`
/// scale, traced so that a native kernel standing in for the VM (no
/// instructions retired) is caught.
pub struct Apps {
    rig: Rig,
    apps: Vec<App>,
}

impl Apps {
    pub fn new(seed: u64, scale: Scale) -> Res<Apps> {
        let rig = Rig::launch()?;
        let apps = paper_apps::suite(seed, scale);
        // One untraced pass first: lowering caches warm, as they are in
        // the workload's measured phase.
        for app in &apps {
            app.run(&rig.platform, &RunOptions::source())?;
        }
        Ok(Apps { rig, apps })
    }

    pub fn pass(&mut self, samples: &mut Samples) -> Res<()> {
        let platform = &self.rig.platform;
        platform.set_tracing(true);
        for app in &self.apps {
            let t0 = Instant::now();
            let report = app.run(platform, &RunOptions::source())?;
            let took = t0.elapsed().as_nanos() as f64;
            if report.verified != Some(true) {
                return Err(format!("{} did not verify", report.app).into());
            }
            let spans = platform.obs().recorder.spans();
            platform.obs().recorder.clear();
            let (runs, instructions, _) = vm_run_totals(&spans);
            if runs == 0 || instructions == 0 {
                return Err(format!(
                    "{}: no VM instructions retired (native kernel standing in?)",
                    report.app
                )
                .into());
            }
            samples.add(format!("{}.wall_ns", paper_apps::span_name(app)), took);
        }
        platform.set_tracing(false);
        Ok(())
    }
}
