//! The extensible policy interface.

use std::fmt;

use haocl_obs::{CandidateInfo, PlacementAudit, PredictionSource};
use haocl_proto::messages::DeviceKind;
use haocl_sim::SimDuration;

use crate::monitor::DeviceView;
use crate::profile::ProfileDb;
use crate::task::TaskSpec;

/// A placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// No device in the snapshot can legally run the task.
    NoEligibleDevice {
        /// The kernel that could not be placed.
        kernel: String,
    },
    /// The task was pinned to a device that is not in the snapshot.
    PinnedDeviceMissing {
        /// The kernel that could not be placed.
        kernel: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoEligibleDevice { kernel } => {
                write!(f, "no eligible device for kernel `{kernel}`")
            }
            SchedError::PinnedDeviceMissing { kernel } => {
                write!(f, "pinned device for kernel `{kernel}` is not present")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// A pluggable placement algorithm (object-safe so users can ship their
/// own as trait objects — "designers can design and illustrate their own
/// scheduling algorithms and embed them into HaoCL", paper §I).
///
/// Implementations choose among the devices in `devices` (already
/// filtered for standing and legality by [`Scheduler::place`]) and
/// return an index into that slice, or `None` to fall through to the
/// scheduler's error.
pub trait SchedulingPolicy: Send + Sync {
    /// The policy's display name (shown in ablation reports).
    fn name(&self) -> &str;

    /// Picks a device index from `eligible` for `task`.
    ///
    /// `eligible` pairs each candidate with its index in the original
    /// snapshot; implementations return the *original* index.
    fn place(
        &self,
        task: &TaskSpec,
        eligible: &[(usize, &DeviceView)],
        profile: &ProfileDb,
    ) -> Option<usize>;
}

/// The scheduling component: legality filtering plus a pluggable policy
/// and the shared profiling database.
pub struct Scheduler {
    policy: Box<dyn SchedulingPolicy>,
    profile: ProfileDb,
}

impl Scheduler {
    /// Creates a scheduler driven by `policy`.
    pub fn new(policy: Box<dyn SchedulingPolicy>) -> Self {
        Scheduler {
            policy,
            profile: ProfileDb::new(),
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The shared profiling database (record observations here).
    pub fn profile(&self) -> &ProfileDb {
        &self.profile
    }

    /// Swaps the policy at runtime, keeping accumulated profiles.
    pub fn set_policy(&mut self, policy: Box<dyn SchedulingPolicy>) {
        self.policy = policy;
    }

    /// Places `task` on one of `devices`, returning the chosen index.
    ///
    /// Filtering happens here, for every policy:
    /// * devices of inactive nodes are never candidates, and devices of
    ///   quarantined nodes only while every active node is quarantined
    ///   (quarantine is advisory: refusing all work helps nobody),
    /// * pinned tasks go to their pinned candidate (or fail),
    /// * FPGA devices are candidates only for `fpga_eligible` tasks.
    ///
    /// # Errors
    ///
    /// [`SchedError::PinnedDeviceMissing`] or
    /// [`SchedError::NoEligibleDevice`].
    pub fn place(&self, task: &TaskSpec, devices: &[DeviceView]) -> Result<usize, SchedError> {
        self.place_audited(task, devices).map(|(idx, _)| idx)
    }

    /// Like [`place`](Self::place), but also returns the full audit
    /// record of the decision: every candidate that survived eligibility
    /// filtering, what each prediction source said about it, and why the
    /// winner won. Callers that don't need the trail use `place`.
    ///
    /// # Errors
    ///
    /// Same as [`place`](Self::place).
    pub fn place_audited(
        &self,
        task: &TaskSpec,
        devices: &[DeviceView],
    ) -> Result<(usize, PlacementAudit), SchedError> {
        let spare = devices.iter().any(|d| d.active && !d.quarantined);
        let candidates = devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.active && !(spare && d.quarantined));
        if let Some((node, dev)) = task.pinned {
            let (idx, _) = candidates
                .clone()
                .find(|(_, d)| d.node == node && d.device == dev)
                .ok_or_else(|| SchedError::PinnedDeviceMissing {
                    kernel: task.kernel.clone(),
                })?;
            let audit = PlacementAudit {
                kernel: task.kernel.clone(),
                tenant: task.tenant.clone(),
                policy: self.policy.name().to_string(),
                candidates: vec![self.candidate(task, idx, &devices[idx])],
                chosen: idx,
                reason: "pinned by task spec".to_string(),
                fused: haocl_obs::FusionDecision::Unconsidered,
            };
            return Ok((idx, audit));
        }
        let eligible: Vec<(usize, &DeviceView)> = candidates
            .filter(|(_, d)| d.kind != DeviceKind::Fpga || task.fpga_eligible)
            .collect();
        if eligible.is_empty() {
            return Err(SchedError::NoEligibleDevice {
                kernel: task.kernel.clone(),
            });
        }
        let chosen = self
            .policy
            .place(task, &eligible, &self.profile)
            .ok_or_else(|| SchedError::NoEligibleDevice {
                kernel: task.kernel.clone(),
            })?;
        let candidates: Vec<CandidateInfo> = eligible
            .iter()
            .map(|&(i, d)| self.candidate(task, i, d))
            .collect();
        let reason = candidates
            .iter()
            .find(|c| c.device == chosen)
            .map(|w| match (w.source, w.predicted_nanos) {
                (PredictionSource::Observed, Some(n)) => {
                    format!("observed profile predicts {}", SimDuration::from_nanos(n))
                }
                (PredictionSource::CostModel, Some(n)) => {
                    format!("cost model estimates {}", SimDuration::from_nanos(n))
                }
                (src, None) => format!("no prediction (src={src})"),
            })
            .unwrap_or_else(|| "policy choice".to_string());
        let audit = PlacementAudit {
            kernel: task.kernel.clone(),
            tenant: task.tenant.clone(),
            policy: self.policy.name().to_string(),
            candidates,
            chosen,
            reason,
            fused: haocl_obs::FusionDecision::Unconsidered,
        };
        Ok((chosen, audit))
    }

    /// Builds the audit record for one candidate device: the unpenalised
    /// [`predict`] answer, with the health verdict in its own column.
    fn candidate(&self, task: &TaskSpec, idx: usize, view: &DeviceView) -> CandidateInfo {
        let (run, source) = predict(task, view, &self.profile);
        let health = if view.health_penalty > 1.0 {
            CandidateInfo::degraded_health(view.health_penalty)
        } else {
            CandidateInfo::HEALTHY.to_string()
        };
        CandidateInfo {
            device: idx,
            node: if view.node_name.is_empty() {
                format!("node{}", view.node.raw())
            } else {
                view.node_name.clone()
            },
            kind: format!("{:?}", view.kind),
            predicted_nanos: Some(run.as_nanos()),
            source,
            health,
        }
    }
}

/// How long `task` is predicted to run on `view`, and which rung of the
/// ladder answered: the warm observed profile for the device's class,
/// else the roofline [`estimate_time`]. The cost-driven policies compare
/// candidates by this (times the device's health penalty) and the audit
/// records it, so the two never disagree on what was predicted.
pub(crate) fn predict(
    task: &TaskSpec,
    view: &DeviceView,
    profile: &ProfileDb,
) -> (SimDuration, PredictionSource) {
    match profile.observed(&task.kernel, view.kind) {
        Some(run) => (run, PredictionSource::Observed),
        None => (estimate_time(task, view), PredictionSource::CostModel),
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy.name())
            .field("profile_keys", &self.profile.len())
            .finish()
    }
}

/// Bytes/second the host assumes for migrating input data onto a
/// candidate device (the fabric's Gigabit-Ethernet line rate, §III-C).
const MIGRATION_BYTES_PER_SEC: f64 = 125e6;

/// Host-side estimate of how long `task` runs on a device of this class.
///
/// Mirrors the device model's roofline with class-level match factors;
/// it is intentionally an *estimate* (the host does not know the exact
/// device internals) — observed profiles override it when available.
/// Input bytes not already resident on the candidate
/// ([`TaskSpec::input_bytes`] minus [`DeviceView::local_bytes`]) are
/// charged as an up-front migration over the backbone, so time-minimizing
/// policies see the real cost of placing work away from its data.
pub fn estimate_time(task: &TaskSpec, view: &DeviceView) -> SimDuration {
    let streaming = task.cost.is_streaming();
    let fraction = match (view.kind, streaming) {
        (DeviceKind::Gpu, false) => 0.70,
        (DeviceKind::Gpu, true) => 0.25,
        (DeviceKind::Cpu, false) => 0.55,
        (DeviceKind::Cpu, true) => 0.50,
        (DeviceKind::Fpga, false) => 0.35,
        (DeviceKind::Fpga, true) => 0.85,
    };
    let mut rate = view.gflops * 1e9 * fraction;
    if !task.cost.is_uniform() {
        rate /= match view.kind {
            DeviceKind::Gpu => 4.0,
            DeviceKind::Cpu => 1.3,
            DeviceKind::Fpga => 2.0,
        };
    }
    let compute = if rate > 0.0 {
        task.cost.total_flops() / rate
    } else {
        0.0
    };
    let bw = view.mem_bandwidth_gbps * 1e9;
    let memory = if bw > 0.0 {
        task.cost.total_bytes() / bw
    } else {
        0.0
    };
    let missing = task.input_bytes.saturating_sub(view.local_bytes);
    let migration = missing as f64 / MIGRATION_BYTES_PER_SEC;
    SimDuration::from_secs_f64(compute.max(memory) + migration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl_kernel::CostModel;
    use haocl_proto::ids::NodeId;
    use haocl_sim::SimTime;

    struct FirstFit;

    impl SchedulingPolicy for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }

        fn place(
            &self,
            _task: &TaskSpec,
            eligible: &[(usize, &DeviceView)],
            _profile: &ProfileDb,
        ) -> Option<usize> {
            eligible.first().map(|(i, _)| *i)
        }
    }

    fn snapshot() -> Vec<DeviceView> {
        vec![
            DeviceView::sample(0, 0, DeviceKind::Fpga),
            DeviceView::sample(1, 0, DeviceKind::Gpu),
            DeviceView::sample(2, 0, DeviceKind::Cpu),
        ]
    }

    #[test]
    fn fpga_filtered_unless_eligible() {
        let s = Scheduler::new(Box::new(FirstFit));
        let devices = snapshot();
        let plain = TaskSpec::new("k");
        assert_eq!(s.place(&plain, &devices).unwrap(), 1); // skips FPGA
        let bitstream = TaskSpec::new("k").fpga_eligible(true);
        assert_eq!(s.place(&bitstream, &devices).unwrap(), 0);
    }

    #[test]
    fn pinned_task_bypasses_policy() {
        let s = Scheduler::new(Box::new(FirstFit));
        let devices = snapshot();
        let t = TaskSpec::new("k").pin(NodeId::new(2), 0);
        assert_eq!(s.place(&t, &devices).unwrap(), 2);
    }

    #[test]
    fn pinned_to_missing_device_errors() {
        let s = Scheduler::new(Box::new(FirstFit));
        let t = TaskSpec::new("k").pin(NodeId::new(9), 0);
        let err = s.place(&t, &snapshot()).unwrap_err();
        assert!(matches!(err, SchedError::PinnedDeviceMissing { .. }));
    }

    #[test]
    fn no_devices_errors() {
        let s = Scheduler::new(Box::new(FirstFit));
        let t = TaskSpec::new("k");
        let err = s.place(&t, &[]).unwrap_err();
        assert!(matches!(err, SchedError::NoEligibleDevice { .. }));
    }

    #[test]
    fn only_fpgas_and_ineligible_task_errors() {
        let s = Scheduler::new(Box::new(FirstFit));
        let devices = vec![DeviceView::sample(0, 0, DeviceKind::Fpga)];
        let err = s.place(&TaskSpec::new("k"), &devices).unwrap_err();
        assert!(matches!(err, SchedError::NoEligibleDevice { .. }));
    }

    #[test]
    fn standing_filters_candidates_for_every_policy() {
        let s = Scheduler::new(Box::new(FirstFit));
        let task = TaskSpec::new("k");
        let fleet = |standings: [(bool, bool); 3]| -> Vec<DeviceView> {
            [DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Cpu]
                .into_iter()
                .zip(standings)
                .enumerate()
                .map(|(i, (kind, (active, quarantined)))| {
                    DeviceView::sample(i as u32, 0, kind).standing(active, quarantined)
                })
                .collect()
        };
        // A quarantined node sits out while another active node is free
        // of quarantine; the audit indexes the snapshot as given.
        let devices = fleet([(true, true), (true, false), (true, false)]);
        let (chosen, audit) = s.place_audited(&task, &devices).unwrap();
        assert_eq!(chosen, 1);
        let offered: Vec<usize> = audit.candidates.iter().map(|c| c.device).collect();
        assert_eq!(offered, vec![1, 2]);
        // An inactive node is never a candidate.
        let devices = fleet([(false, false), (true, true), (true, false)]);
        assert_eq!(s.place(&task, &devices).unwrap(), 2);
        // With every active node quarantined, quarantine stops filtering.
        let devices = fleet([(false, false), (true, true), (true, true)]);
        assert_eq!(s.place(&task, &devices).unwrap(), 1);
        // Pins resolve among the same candidates.
        let devices = fleet([(true, true), (true, false), (true, false)]);
        let pinned = TaskSpec::new("k").pin(NodeId::new(0), 0);
        let err = s.place(&pinned, &devices).unwrap_err();
        assert!(matches!(err, SchedError::PinnedDeviceMissing { .. }));
        let devices = fleet([(false, false); 3]);
        let err = s.place(&task, &devices).unwrap_err();
        assert!(matches!(err, SchedError::NoEligibleDevice { .. }));
    }

    #[test]
    fn estimate_prefers_gpu_for_batch_fpga_for_streaming() {
        let gpu = DeviceView::sample(0, 0, DeviceKind::Gpu);
        let fpga = DeviceView::sample(1, 0, DeviceKind::Fpga);
        let batch = TaskSpec::new("k").cost(CostModel::new().flops(1e10));
        assert!(estimate_time(&batch, &gpu) < estimate_time(&batch, &fpga));
        let stream = TaskSpec::new("k").cost(CostModel::new().flops(1e10).streaming());
        assert!(estimate_time(&stream, &fpga) < estimate_time(&stream, &gpu));
    }

    #[test]
    fn estimate_charges_migration_for_nonresident_input() {
        let away = DeviceView::sample(0, 0, DeviceKind::Gpu);
        let home = DeviceView::sample(1, 0, DeviceKind::Gpu).with_local_bytes(1 << 30);
        let t = TaskSpec::new("k")
            .cost(CostModel::new().flops(1e9))
            .input_bytes(1 << 30);
        let cold = estimate_time(&t, &away);
        let warm = estimate_time(&t, &home);
        assert!(cold > warm, "missing input must cost backbone time");
        // The gap is the full migration: 1 GiB at the gigabit line rate.
        let gap = cold - warm;
        let expected = SimDuration::from_secs_f64((1u64 << 30) as f64 / 125e6);
        assert_eq!(gap, expected);
        // Without declared input the estimate is unchanged from before.
        let plain = TaskSpec::new("k").cost(CostModel::new().flops(1e9));
        assert_eq!(estimate_time(&plain, &away), estimate_time(&plain, &home));
    }

    #[test]
    fn place_audited_names_winner_and_prediction_source() {
        let s = Scheduler::new(Box::new(FirstFit));
        let devices = snapshot();
        let (idx, audit) = s.place_audited(&TaskSpec::new("k"), &devices).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(audit.chosen, 1);
        assert_eq!(audit.policy, "first-fit");
        assert_eq!(audit.candidates.len(), 2, "FPGA filtered out");
        let w = audit.winner().unwrap();
        assert_eq!(w.kind, "Gpu");
        assert_eq!(w.source, PredictionSource::CostModel);
        assert!(audit.reason.starts_with("cost model estimates"));
        // Warm the profile: the source flips to Observed.
        s.profile()
            .record("k", DeviceKind::Gpu, SimDuration::from_nanos(700));
        s.profile()
            .record("k", DeviceKind::Gpu, SimDuration::from_nanos(700));
        let (_, audit) = s.place_audited(&TaskSpec::new("k"), &devices).unwrap();
        let w = audit.winner().unwrap();
        assert_eq!(w.source, PredictionSource::Observed);
        assert_eq!(w.predicted_nanos, Some(700));
        assert!(audit.line().contains("chosen=node1/Gpu"));
    }

    #[test]
    fn audit_records_the_prediction_the_policy_compares() {
        let s = Scheduler::new(Box::new(crate::policies::HeteroAware::new()));
        // The GPU class is warm on "k" at 1 ms, slower than its roofline
        // estimate; the CPU has never run it.
        for _ in 0..2 {
            s.profile()
                .record("k", DeviceKind::Gpu, SimDuration::from_millis(1));
        }
        let task = TaskSpec::new("k").cost(CostModel::new().flops(1e9));
        let busy = |micros| SimTime::ZERO + SimDuration::from_micros(micros);
        // Node 1's GPU is queued and node 2's is degraded: first the idle
        // CPU wins, then, with the CPU queued too, the degraded GPU.
        for (cpu_busy, winner) in [(0, 0), (10_000, 2)] {
            let devices = vec![
                DeviceView::sample(0, 0, DeviceKind::Cpu).loaded(busy(cpu_busy), 1),
                DeviceView::sample(1, 0, DeviceKind::Gpu).loaded(busy(2_500), 1),
                DeviceView::sample(2, 0, DeviceKind::Gpu).with_health_penalty(3.0),
            ];
            let (chosen, audit) = s.place_audited(&task, &devices).unwrap();
            for c in &audit.candidates {
                let observed = s.profile().observed("k", devices[c.device].kind);
                assert_eq!(
                    c.source == PredictionSource::Observed,
                    observed.is_some(),
                    "{}",
                    audit.line()
                );
            }
            // The winner minimises what the policy compares: queue drain
            // plus the audited (unpenalised) prediction times the health
            // penalty.
            let finish = |c: &CandidateInfo| {
                let view = &devices[c.device];
                view.busy_until.as_nanos() as f64
                    + c.predicted_nanos.unwrap() as f64 * view.health_penalty
            };
            let best = audit
                .candidates
                .iter()
                .map(finish)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(finish(audit.winner().unwrap()), best, "{}", audit.line());
            assert_eq!(chosen, winner, "{}", audit.line());
        }
    }

    #[test]
    fn candidates_carry_the_health_verdict() {
        let s = Scheduler::new(Box::new(FirstFit));
        let mut devices = snapshot();
        devices[1] = devices[1].clone().with_health_penalty(2.0);
        let (_, audit) = s.place_audited(&TaskSpec::new("k"), &devices).unwrap();
        let gpu = audit.candidates.iter().find(|c| c.kind == "Gpu").unwrap();
        assert_eq!(gpu.health, "degraded(x2.00)");
        assert!(gpu.is_degraded());
        let cpu = audit.candidates.iter().find(|c| c.kind == "Cpu").unwrap();
        assert_eq!(cpu.health, CandidateInfo::HEALTHY);
        assert!(audit.line().contains("health=degraded(x2.00)"));
    }

    #[test]
    fn pinned_placement_audits_as_pinned() {
        let s = Scheduler::new(Box::new(FirstFit));
        let devices = snapshot();
        let t = TaskSpec::new("k").pin(NodeId::new(2), 0);
        let (idx, audit) = s.place_audited(&t, &devices).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(audit.reason, "pinned by task spec");
        assert_eq!(audit.candidates.len(), 1);
    }

    #[test]
    fn policy_can_be_swapped_keeping_profile() {
        let mut s = Scheduler::new(Box::new(FirstFit));
        s.profile()
            .record("k", DeviceKind::Gpu, SimDuration::from_nanos(5));
        s.set_policy(Box::new(FirstFit));
        assert_eq!(s.profile().runs("k", DeviceKind::Gpu), 1);
        assert_eq!(s.policy_name(), "first-fit");
    }
}
