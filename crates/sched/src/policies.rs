//! Built-in scheduling policies.
//!
//! The demo paper ships user-directed placement (pinning, handled by
//! [`crate::Scheduler`] itself) and motivates an automatic,
//! heterogeneity-aware upgrade. These built-ins cover that spectrum:
//!
//! | Policy | Objective |
//! |--------|-----------|
//! | [`RoundRobin`]   | fairness / trivial baseline |
//! | [`LeastLoaded`]  | queue balancing |
//! | [`HeteroAware`]  | minimize completion time using profiles + model estimates |
//! | [`PowerAware`]   | minimize energy (§I power efficiency) |
//! | [`LocalityAware`]| minimize data movement |

use std::sync::atomic::{AtomicUsize, Ordering};

use haocl_sim::{SimDuration, SimTime};

use crate::monitor::DeviceView;
use crate::policy::{predict, SchedulingPolicy};
use crate::profile::ProfileDb;
use crate::task::TaskSpec;

/// Rotates placements across eligible devices.
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: AtomicUsize,
}

impl RoundRobin {
    /// Creates a round-robin policy starting at the first device.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl SchedulingPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn place(
        &self,
        _task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        _profile: &ProfileDb,
    ) -> Option<usize> {
        if eligible.is_empty() {
            return None;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        Some(eligible[n % eligible.len()].0)
    }
}

/// Picks the device whose queue drains earliest (ties: shallower queue,
/// then lower index).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates the policy.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl SchedulingPolicy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn place(
        &self,
        _task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        _profile: &ProfileDb,
    ) -> Option<usize> {
        eligible
            .iter()
            .min_by_key(|(_, d)| (d.busy_until, d.queue_depth))
            .map(|(i, _)| *i)
    }
}

/// Minimizes estimated completion time: `max(now-ish, busy_until) +
/// predicted_run_time`, where the prediction comes from the profiling
/// database when warm and the class-level model estimate otherwise.
///
/// This is the "automatic scheduler with runtime profiling information"
/// the paper describes as the upgrade over user-directed placement.
#[derive(Debug, Default)]
pub struct HeteroAware;

impl HeteroAware {
    /// Creates the policy.
    pub fn new() -> Self {
        HeteroAware
    }
}

impl SchedulingPolicy for HeteroAware {
    fn name(&self) -> &str {
        "hetero-aware"
    }

    fn place(
        &self,
        task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        profile: &ProfileDb,
    ) -> Option<usize> {
        eligible
            .iter()
            .min_by(|(_, a), (_, b)| {
                let fa = finish_time(task, a, profile);
                let fb = finish_time(task, b, profile);
                fa.partial_cmp(&fb).expect("finite finish times")
            })
            .map(|(i, _)| *i)
    }
}

/// The run-time prediction the cost-driven policies compare candidates
/// by: [`predict`]'s answer scaled by the device's advisory
/// [`DeviceView::health_penalty`].
fn predicted_run(task: &TaskSpec, view: &DeviceView, profile: &ProfileDb) -> SimDuration {
    let (run, _) = predict(task, view, profile);
    SimDuration::from_nanos((run.as_nanos() as f64 * view.health_penalty.max(1.0)) as u64)
}

fn finish_time(task: &TaskSpec, view: &DeviceView, profile: &ProfileDb) -> f64 {
    let run = predicted_run(task, view, profile);
    let start = view.busy_until.max(SimTime::ZERO);
    (start.as_nanos() + run.as_nanos()) as f64
}

/// Minimizes estimated energy (`predicted_time × load_power`), breaking
/// ties toward the faster device.
#[derive(Debug, Default)]
pub struct PowerAware;

impl PowerAware {
    /// Creates the policy.
    pub fn new() -> Self {
        PowerAware
    }
}

impl SchedulingPolicy for PowerAware {
    fn name(&self) -> &str {
        "power-aware"
    }

    fn place(
        &self,
        task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        profile: &ProfileDb,
    ) -> Option<usize> {
        eligible
            .iter()
            .min_by(|(_, a), (_, b)| {
                let ea = energy(task, a, profile);
                let eb = energy(task, b, profile);
                ea.partial_cmp(&eb).expect("finite energies")
            })
            .map(|(i, _)| *i)
    }
}

fn energy(task: &TaskSpec, view: &DeviceView, profile: &ProfileDb) -> (f64, f64) {
    let secs = predicted_run(task, view, profile).as_secs_f64();
    (secs * view.power_watts, secs)
}

/// Maximizes resident input data (minimizing transfers), breaking ties
/// toward the least-loaded device.
#[derive(Debug, Default)]
pub struct LocalityAware;

impl LocalityAware {
    /// Creates the policy.
    pub fn new() -> Self {
        LocalityAware
    }
}

impl SchedulingPolicy for LocalityAware {
    fn name(&self) -> &str {
        "locality-aware"
    }

    fn place(
        &self,
        _task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        _profile: &ProfileDb,
    ) -> Option<usize> {
        eligible
            .iter()
            .max_by_key(|(_, d)| {
                (
                    d.local_bytes,
                    std::cmp::Reverse((d.busy_until, d.queue_depth)),
                )
            })
            .map(|(i, _)| *i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl_kernel::CostModel;
    use haocl_proto::messages::DeviceKind;
    use haocl_sim::SimDuration;

    fn eligible(views: &[DeviceView]) -> Vec<(usize, &DeviceView)> {
        views.iter().enumerate().collect()
    }

    #[test]
    fn round_robin_rotates() {
        let p = RoundRobin::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
        ];
        let db = ProfileDb::new();
        let t = TaskSpec::new("k");
        let picks: Vec<usize> = (0..4)
            .map(|_| p.place(&t, &eligible(&views), &db).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn least_loaded_prefers_idle() {
        let p = LeastLoaded::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu).loaded(SimTime::from_nanos(100), 2),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
        ];
        let pick = p
            .place(&TaskSpec::new("k"), &eligible(&views), &ProfileDb::new())
            .unwrap();
        assert_eq!(pick, 1);
    }

    #[test]
    fn hetero_uses_model_estimate_when_profile_cold() {
        let p = HeteroAware::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Cpu),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
            DeviceView::sample(2, 0, DeviceKind::Fpga),
        ];
        let batch = TaskSpec::new("mm").cost(CostModel::new().flops(1e10));
        assert_eq!(
            p.place(&batch, &eligible(&views), &ProfileDb::new())
                .unwrap(),
            1,
            "dense batch work goes to the GPU"
        );
        let stream = TaskSpec::new("spmv")
            .cost(CostModel::new().flops(1e10).streaming())
            .fpga_eligible(true);
        assert_eq!(
            p.place(&stream, &eligible(&views), &ProfileDb::new())
                .unwrap(),
            2,
            "streaming work goes to the FPGA"
        );
    }

    #[test]
    fn hetero_prefers_observed_profile_over_estimate() {
        let p = HeteroAware::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Cpu),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
        ];
        let db = ProfileDb::new();
        // Observations say the CPU is dramatically faster for this kernel
        // (e.g. tiny launch dominated by GPU launch overhead).
        for _ in 0..3 {
            db.record("odd", DeviceKind::Cpu, SimDuration::from_nanos(10));
            db.record("odd", DeviceKind::Gpu, SimDuration::from_millis(50));
        }
        let t = TaskSpec::new("odd").cost(CostModel::new().flops(1e9));
        assert_eq!(p.place(&t, &eligible(&views), &db).unwrap(), 0);
    }

    #[test]
    fn hetero_accounts_for_queue_backlog() {
        let p = HeteroAware::new();
        // GPU is busy for a long time; CPU idle. Small task: CPU wins.
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu)
                .loaded(SimTime::ZERO + SimDuration::from_secs(100), 5),
            DeviceView::sample(1, 0, DeviceKind::Cpu),
        ];
        let t = TaskSpec::new("k").cost(CostModel::new().flops(1e9));
        assert_eq!(
            p.place(&t, &eligible(&views), &ProfileDb::new()).unwrap(),
            1
        );
    }

    #[test]
    fn hetero_down_weights_degraded_devices() {
        let p = HeteroAware::new();
        let db = ProfileDb::new();
        // Two identical GPUs, but node 0's is marked 3× slow by the
        // drift detector. The healthy, idle twin wins.
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu).with_health_penalty(3.0),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
        ];
        let t = TaskSpec::new("k").cost(CostModel::new().flops(1e10));
        assert_eq!(p.place(&t, &eligible(&views), &db).unwrap(), 1);
        // Advisory, not a ban: with no healthy alternative the degraded
        // device still takes the work.
        let only = vec![DeviceView::sample(0, 0, DeviceKind::Gpu).with_health_penalty(3.0)];
        assert_eq!(p.place(&t, &eligible(&only), &db).unwrap(), 0);
    }

    #[test]
    fn power_aware_picks_fpga_for_streaming() {
        let p = PowerAware::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu),
            DeviceView::sample(1, 0, DeviceKind::Fpga),
            DeviceView::sample(2, 0, DeviceKind::Cpu),
        ];
        let t = TaskSpec::new("stream")
            .cost(CostModel::new().flops(1e10).streaming())
            .fpga_eligible(true);
        assert_eq!(
            p.place(&t, &eligible(&views), &ProfileDb::new()).unwrap(),
            1
        );
    }

    #[test]
    fn locality_follows_the_data() {
        let p = LocalityAware::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu),
            DeviceView::sample(1, 0, DeviceKind::Gpu).with_local_bytes(1 << 20),
        ];
        let t = TaskSpec::new("k");
        assert_eq!(
            p.place(&t, &eligible(&views), &ProfileDb::new()).unwrap(),
            1
        );
    }

    #[test]
    fn locality_ties_break_to_least_loaded() {
        let p = LocalityAware::new();
        let views = vec![
            DeviceView::sample(0, 0, DeviceKind::Gpu).loaded(SimTime::from_nanos(50), 1),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
        ];
        let t = TaskSpec::new("k");
        assert_eq!(
            p.place(&t, &eligible(&views), &ProfileDb::new()).unwrap(),
            1
        );
    }

    #[test]
    fn empty_eligible_returns_none_for_all() {
        let db = ProfileDb::new();
        let t = TaskSpec::new("k");
        let none: Vec<(usize, &DeviceView)> = vec![];
        assert!(RoundRobin::new().place(&t, &none, &db).is_none());
        assert!(LeastLoaded::new().place(&t, &none, &db).is_none());
        assert!(HeteroAware::new().place(&t, &none, &db).is_none());
        assert!(PowerAware::new().place(&t, &none, &db).is_none());
        assert!(LocalityAware::new().place(&t, &none, &db).is_none());
    }
}
