//! Host-side runtime view of the cluster's devices, plus the drift
//! detector that watches per-node launch timings for sub-healthy
//! behaviour (thermal throttling, retry storms) the descriptor can't
//! advertise.
//!
//! A node's health is read, not recorded: the host runtime counts its
//! failovers and the [`DriftDetector`] holds its timing verdict, and the
//! runtime derives a [`NodeCondition`] from those two whenever it is
//! asked for one. The scheduler sees the result on every [`DeviceView`].

use std::collections::BTreeMap;

use haocl_proto::ids::NodeId;
use haocl_proto::messages::{DeviceDescriptor, DeviceKind};
use haocl_sim::SimTime;
use parking_lot::Mutex;

/// The scheduler's snapshot of one device: its advertised model plus the
/// load and locality information the runtime monitor maintains.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceView {
    /// The node hosting the device.
    pub node: NodeId,
    /// The hosting node's cluster name (empty when unknown — audit
    /// records then fall back to a synthetic `node<id>` label).
    pub node_name: String,
    /// Device index within the node.
    pub device: u8,
    /// Device class.
    pub kind: DeviceKind,
    /// Peak single-precision throughput, GFLOP/s (from the descriptor).
    pub gflops: f64,
    /// Memory bandwidth, GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Load power, watts.
    pub power_watts: f64,
    /// Device memory capacity, bytes.
    pub mem_bytes: u64,
    /// When the device's queue drains (virtual time).
    pub busy_until: SimTime,
    /// Launches currently queued.
    pub queue_depth: u32,
    /// Bytes of the *current task's* input already resident on this
    /// device (computed per task by the runtime before placement).
    pub local_bytes: u64,
    /// Advisory health multiplier applied to predicted run times by the
    /// cost-driven policies: `1.0` for a healthy device, `> 1.0` (the
    /// measured slowdown ratio) while the drift detector holds the node
    /// in the `Degraded` state. Down-weights, never bans.
    pub health_penalty: f64,
    /// Whether the hosting node takes new work: inactive devices are
    /// never candidates (a draining node refuses new launches and a
    /// departed one cannot run them).
    pub active: bool,
    /// Whether the hosting node is quarantined: its devices are
    /// candidates only while no active node is free of quarantine.
    pub quarantined: bool,
}

impl DeviceView {
    /// Builds a view from a wire descriptor with an idle load state.
    pub fn from_descriptor(node: NodeId, d: &DeviceDescriptor) -> Self {
        DeviceView {
            node,
            node_name: String::new(),
            device: d.index,
            kind: d.kind,
            gflops: d.gflops,
            mem_bandwidth_gbps: d.mem_bandwidth_gbps,
            power_watts: d.power_watts,
            mem_bytes: d.mem_bytes,
            busy_until: SimTime::ZERO,
            queue_depth: 0,
            local_bytes: 0,
            health_penalty: 1.0,
            active: true,
            quarantined: false,
        }
    }

    /// A representative idle device of the given class (for tests,
    /// examples and policy documentation).
    pub fn sample(node: u32, device: u8, kind: DeviceKind) -> Self {
        let (gflops, bw, watts, mem) = match kind {
            DeviceKind::Cpu => (1000.0, 70.0, 145.0, 64u64 << 30),
            DeviceKind::Gpu => (5500.0, 192.0, 75.0, 8 << 30),
            DeviceKind::Fpga => (1800.0, 60.0, 45.0, 16 << 30),
        };
        DeviceView {
            node: NodeId::new(node),
            node_name: String::new(),
            device,
            kind,
            gflops,
            mem_bandwidth_gbps: bw,
            power_watts: watts,
            mem_bytes: mem,
            busy_until: SimTime::ZERO,
            queue_depth: 0,
            local_bytes: 0,
            health_penalty: 1.0,
            active: true,
            quarantined: false,
        }
    }

    /// Sets the cluster node name used in audit records (builder-style).
    pub fn named(mut self, name: &str) -> Self {
        self.node_name = name.to_string();
        self
    }

    /// Sets the load state (builder-style, for constructing snapshots).
    pub fn loaded(mut self, busy_until: SimTime, queue_depth: u32) -> Self {
        self.busy_until = busy_until;
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the resident-data figure for the task under placement.
    pub fn with_local_bytes(mut self, bytes: u64) -> Self {
        self.local_bytes = bytes;
        self
    }

    /// Sets the advisory health multiplier (builder-style). Values are
    /// clamped to at least `1.0` — health never makes a device look
    /// *faster* than measured.
    pub fn with_health_penalty(mut self, penalty: f64) -> Self {
        self.health_penalty = penalty.max(1.0);
        self
    }

    /// Sets whether the hosting node takes new work and whether it is
    /// quarantined (builder-style).
    pub fn standing(mut self, active: bool, quarantined: bool) -> Self {
        self.active = active;
        self.quarantined = quarantined;
        self
    }
}

/// Involuntary failovers before a node is quarantined.
pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 2;

/// A node's overall health verdict, worst last; the discriminant is the
/// value of the `haocl_device_health` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeCondition {
    /// Neither quarantined nor degraded.
    Healthy = 0,
    /// Advisory: the drift detector sees the node running sub-healthy;
    /// its candidates are down-weighted, not banned.
    Degraded = 1,
    /// Hard: the node's involuntary failovers reached the quarantine
    /// threshold, so it is out of the candidate set while alternatives
    /// exist.
    Quarantined = 2,
}

impl std::fmt::Display for NodeCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NodeCondition::Healthy => "healthy",
            NodeCondition::Degraded => "degraded",
            NodeCondition::Quarantined => "quarantined",
        })
    }
}

/// Recent timings must exceed the node's own baseline by this ratio
/// before a degradation strike is counted.
pub const DEGRADE_RATIO: f64 = 1.35;

/// Recent timings must fall back within this ratio of baseline before a
/// recovery strike is counted.
pub const RECOVER_RATIO: f64 = 1.15;

/// Secondary z-score gate: the recent mean must also sit this many
/// (floored) standard deviations above baseline.
pub const DRIFT_Z_THRESHOLD: f64 = 3.0;

/// Observations per `(kernel, node)` key used to freeze the healthy
/// baseline before drift testing begins.
const BASELINE_RUNS: u32 = 3;

/// Consecutive out-of-band observations before a key flips state, in
/// either direction — a debounce against one-off hiccups.
const STRIKES_TO_FLIP: u32 = 3;

/// Fast EWMA weight for the post-baseline "recent" window.
const RECENT_ALPHA: f64 = 0.5;

/// Relative floor on the baseline standard deviation. The simulator is
/// deterministic, so a healthy baseline's variance is often *exactly*
/// zero; the floor keeps z-scores finite while still letting any real
/// drift blow far past [`DRIFT_Z_THRESHOLD`].
const STD_FLOOR_FRACTION: f64 = 0.01;

/// One `(kernel, node)` timing window.
#[derive(Debug, Clone, Copy, Default)]
struct KeyWindow {
    samples: u32,
    baseline_mean: f64,
    /// Welford sum of squared deviations accumulated during baselining.
    baseline_m2: f64,
    recent: f64,
    degraded: bool,
    high_strikes: u32,
    low_strikes: u32,
}

impl KeyWindow {
    fn ratio(&self) -> f64 {
        if self.baseline_mean > 0.0 {
            self.recent / self.baseline_mean
        } else {
            1.0
        }
    }

    fn z_score(&self) -> f64 {
        if self.samples < BASELINE_RUNS || self.baseline_mean <= 0.0 {
            return 0.0;
        }
        let var = self.baseline_m2 / f64::from(BASELINE_RUNS.saturating_sub(1).max(1));
        let floor = STD_FLOOR_FRACTION * self.baseline_mean;
        let std = var.sqrt().max(floor).max(1.0);
        (self.recent - self.baseline_mean) / std
    }
}

/// A node-level health transition reported by [`DriftDetector::observe`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriftEvent {
    /// The node's first timing window drifted out of band.
    Degraded {
        /// The affected node.
        node: NodeId,
        /// Recent-over-baseline slowdown ratio of the triggering window.
        ratio: f64,
    },
    /// The node's last out-of-band window returned to baseline.
    Recovered {
        /// The recovered node.
        node: NodeId,
    },
}

/// One node's timing windows, by kernel.
#[derive(Debug, Default)]
struct NodeWindows {
    kernels: BTreeMap<String, KeyWindow>,
    /// How many of `kernels` are currently degraded.
    degraded: u32,
}

/// Per-node drift detector over the rolling launch-timing windows.
///
/// Each `(kernel, node)` pair freezes its own healthy baseline from the
/// first few observations, then runs a ratio test (primary) and a
/// z-score test (secondary, with a variance floor for the deterministic
/// simulator) against a fast EWMA of recent timings. [`STRIKES_TO_FLIP`]
/// consecutive out-of-band readings flip the key; a node is *degraded*
/// while any of its keys is. Verdicts are advisory — the scheduler
/// down-weights degraded candidates via
/// [`DeviceView::health_penalty`], it does not ban them.
#[derive(Debug, Default)]
pub struct DriftDetector {
    nodes: Mutex<BTreeMap<u32, NodeWindows>>,
}

impl DriftDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        DriftDetector::default()
    }

    /// Feeds one completed launch's virtual duration. Returns a
    /// node-level transition when this observation flips the node's
    /// verdict, else `None`.
    pub fn observe(
        &self,
        kernel: &str,
        node: NodeId,
        duration: haocl_sim::SimDuration,
    ) -> Option<DriftEvent> {
        let nanos = duration.as_nanos() as f64;
        let mut nodes = self.nodes.lock();
        let windows = nodes.entry(node.raw()).or_default();
        // A warm window is found without allocating its key.
        if !windows.kernels.contains_key(kernel) {
            windows
                .kernels
                .insert(kernel.to_string(), KeyWindow::default());
        }
        let w = windows.kernels.get_mut(kernel).expect("inserted above");
        if w.samples < BASELINE_RUNS {
            // Welford accumulation of the healthy baseline.
            w.samples += 1;
            let delta = nanos - w.baseline_mean;
            w.baseline_mean += delta / f64::from(w.samples);
            w.baseline_m2 += delta * (nanos - w.baseline_mean);
            w.recent = w.baseline_mean;
            return None;
        }
        w.recent = RECENT_ALPHA * nanos + (1.0 - RECENT_ALPHA) * w.recent;
        let ratio = w.ratio();
        let z = w.z_score();
        let mut flipped = None;
        if w.degraded {
            if ratio <= RECOVER_RATIO {
                w.low_strikes += 1;
            } else {
                w.low_strikes = 0;
            }
            if w.low_strikes >= STRIKES_TO_FLIP {
                w.degraded = false;
                w.low_strikes = 0;
                flipped = Some(false);
            }
        } else {
            if ratio >= DEGRADE_RATIO && z >= DRIFT_Z_THRESHOLD {
                w.high_strikes += 1;
            } else {
                w.high_strikes = 0;
            }
            if w.high_strikes >= STRIKES_TO_FLIP {
                w.degraded = true;
                w.high_strikes = 0;
                flipped = Some(true);
            }
        }
        match flipped {
            Some(true) => {
                windows.degraded += 1;
                (windows.degraded == 1).then_some(DriftEvent::Degraded { node, ratio })
            }
            Some(false) => {
                windows.degraded = windows.degraded.saturating_sub(1);
                (windows.degraded == 0).then_some(DriftEvent::Recovered { node })
            }
            None => None,
        }
    }

    /// Whether any of the node's timing windows is currently out of band.
    pub fn is_degraded(&self, node: NodeId) -> bool {
        self.nodes
            .lock()
            .get(&node.raw())
            .is_some_and(|w| w.degraded > 0)
    }

    /// The advisory cost multiplier for a node: the worst slowdown ratio
    /// among its degraded windows, or `1.0` when healthy.
    pub fn penalty(&self, node: NodeId) -> f64 {
        match self.nodes.lock().get(&node.raw()) {
            Some(windows) if windows.degraded > 0 => windows
                .kernels
                .values()
                .filter(|w| w.degraded)
                .map(KeyWindow::ratio)
                .fold(1.0, f64::max),
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_descriptor_copies_model() {
        let d = DeviceDescriptor {
            index: 2,
            kind: DeviceKind::Fpga,
            name: "x".into(),
            mem_bytes: 1024,
            gflops: 1800.0,
            mem_bandwidth_gbps: 60.0,
            power_watts: 45.0,
        };
        let v = DeviceView::from_descriptor(NodeId::new(7), &d);
        assert_eq!(v.node, NodeId::new(7));
        assert_eq!(v.device, 2);
        assert_eq!(v.kind, DeviceKind::Fpga);
        assert_eq!(v.mem_bytes, 1024);
        assert_eq!(v.busy_until, SimTime::ZERO);
        assert_eq!(v.queue_depth, 0);
    }

    #[test]
    fn builders_set_load_and_locality() {
        let v = DeviceView::sample(0, 0, DeviceKind::Gpu)
            .loaded(SimTime::from_nanos(10), 3)
            .with_local_bytes(4096)
            .with_health_penalty(2.5);
        assert_eq!(v.busy_until, SimTime::from_nanos(10));
        assert_eq!(v.queue_depth, 3);
        assert_eq!(v.local_bytes, 4096);
        assert_eq!(v.health_penalty, 2.5);
    }

    #[test]
    fn health_penalty_clamps_below_one() {
        let v = DeviceView::sample(0, 0, DeviceKind::Gpu).with_health_penalty(0.2);
        assert_eq!(v.health_penalty, 1.0);
    }

    use haocl_sim::SimDuration;

    fn nanos(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn throttled_device_degrades_within_a_handful_of_launches() {
        let det = DriftDetector::new();
        let node = NodeId::new(1);
        for _ in 0..4 {
            assert_eq!(det.observe("k", node, nanos(1000)), None);
        }
        assert!(!det.is_degraded(node));
        // The device starts running 3× slow (throttled preset).
        let mut event = None;
        for i in 0..8 {
            if let Some(e) = det.observe("k", node, nanos(3000)) {
                event = Some((i, e));
                break;
            }
        }
        let (within, e) = event.expect("throttling must be detected");
        assert!(within < 5, "detected after {within} launches, want < 5");
        match e {
            DriftEvent::Degraded { node: n, ratio } => {
                assert_eq!(n, node);
                assert!(ratio > DEGRADE_RATIO, "{ratio}");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(det.is_degraded(node));
        assert!(det.penalty(node) > 1.5);
    }

    #[test]
    fn healthy_fleets_never_flag_across_seeds() {
        for seed in 0u64..8 {
            let det = DriftDetector::new();
            // Deterministic ±2% jitter derived from the seed — real
            // clusters wobble; a healthy wobble must never strike.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for node in 0..3u32 {
                for _ in 0..40 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let jitter = (state >> 33) % 41; // 0..=40
                    let t = 980 + jitter; // 980..=1020 around 1000
                    let ev = det.observe("k", NodeId::new(node), nanos(t));
                    assert_eq!(ev, None, "seed {seed} node {node} flagged");
                }
                assert!(!det.is_degraded(NodeId::new(node)));
            }
        }
    }

    #[test]
    fn degraded_node_recovers_at_baseline() {
        let det = DriftDetector::new();
        let node = NodeId::new(0);
        for _ in 0..4 {
            det.observe("k", node, nanos(1000));
        }
        for _ in 0..6 {
            det.observe("k", node, nanos(3000));
        }
        assert!(det.is_degraded(node));
        let mut recovered = false;
        for _ in 0..16 {
            if let Some(DriftEvent::Recovered { node: n }) = det.observe("k", node, nanos(1000)) {
                assert_eq!(n, node);
                recovered = true;
                break;
            }
        }
        assert!(recovered, "return to baseline must clear the verdict");
        assert!(!det.is_degraded(node));
        assert_eq!(det.penalty(node), 1.0);
    }

    #[test]
    fn node_verdicts_are_independent() {
        let det = DriftDetector::new();
        for node in [0u32, 1] {
            for _ in 0..4 {
                det.observe("k", NodeId::new(node), nanos(1000));
            }
        }
        for _ in 0..6 {
            det.observe("k", NodeId::new(1), nanos(4000));
        }
        assert!(!det.is_degraded(NodeId::new(0)));
        assert!(det.is_degraded(NodeId::new(1)));
        assert_eq!(det.penalty(NodeId::new(0)), 1.0);
    }
}
