//! Metrics-driven autoscaler policy.
//!
//! A pure decision engine over the obs layer's load series: feed it one
//! [`LoadSample`] per policy tick (the `haocl_queue_depth` gauges summed
//! over the fleet) and it answers
//! [`Decision::ScaleUp`], [`Decision::ScaleDown`] or [`Decision::Hold`].
//! The engine carries the *policy* state — sustain streaks (hysteresis)
//! and a post-action cooldown — while actuation (spawning an NMP,
//! draining the least-resident node) stays with the caller, so the same
//! engine drives the platform layer and unit tests.
//!
//! Every scale decision is recorded: a `policy=autoscale` audit row and
//! one `haocl_autoscale_events_total` tick, labelled by direction.

use haocl_obs::{default_tenant, names, FusionDecision, Hub, PlacementAudit, Reason};

/// Tuning knobs for the [`Autoscaler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Mean queue depth per active node at or above which the fleet is
    /// considered overloaded.
    pub high_depth: f64,
    /// Mean queue depth per active node at or below which the fleet is
    /// considered underused.
    pub low_depth: f64,
    /// Consecutive overloaded (or underused) ticks required before
    /// acting — the hysteresis band that keeps a bursty queue from
    /// flapping the fleet.
    pub sustain_ticks: u32,
    /// Ticks to sit out after any scale action, letting the fleet
    /// absorb the change before the next decision.
    pub cooldown_ticks: u32,
    /// Never drain below this many active nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many active nodes.
    pub max_nodes: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            high_depth: 4.0,
            low_depth: 1.0,
            sustain_ticks: 3,
            cooldown_ticks: 5,
            min_nodes: 1,
            max_nodes: 8,
        }
    }
}

/// One policy tick's view of the fleet's load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Nodes currently `Active` (joining/draining/departed excluded).
    pub active_nodes: usize,
    /// Sum of the `haocl_queue_depth` gauges across all devices.
    pub total_queue_depth: u64,
}

impl LoadSample {
    /// Mean queue depth per active node (0 for an empty fleet).
    pub fn depth_per_node(&self) -> f64 {
        if self.active_nodes == 0 {
            return 0.0;
        }
        self.total_queue_depth as f64 / self.active_nodes as f64
    }
}

/// What one policy tick concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Load is inside the band (or the engine is in cooldown / the
    /// streak has not sustained yet).
    Hold,
    /// Sustained overload: the caller should add a node.
    ScaleUp,
    /// Sustained underuse: the caller should drain the least-resident
    /// node.
    ScaleDown,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Decision::Hold => "hold",
            Decision::ScaleUp => "scale-up",
            Decision::ScaleDown => "scale-down",
        })
    }
}

/// The autoscaler policy loop's state: streaks, cooldown, event count.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    high_streak: u32,
    low_streak: u32,
    cooldown: u32,
    events: u64,
}

impl Autoscaler {
    /// Creates an idle engine with the given tuning.
    pub fn new(cfg: AutoscaleConfig) -> Autoscaler {
        Autoscaler {
            cfg,
            high_streak: 0,
            low_streak: 0,
            cooldown: 0,
            events: 0,
        }
    }

    /// The engine's tuning.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Scale actions decided so far (both directions).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Feeds one policy tick. Streaks accumulate even during cooldown —
    /// a fleet that stays overloaded through the cooldown acts on the
    /// first eligible tick — but no action fires until the cooldown has
    /// drained, and every action restarts it.
    pub fn observe(&mut self, sample: &LoadSample, obs: &Hub) -> Decision {
        let per_node = sample.depth_per_node();
        if per_node >= self.cfg.high_depth {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if per_node <= self.cfg.low_depth {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Decision::Hold;
        }
        if self.high_streak >= self.cfg.sustain_ticks && sample.active_nodes < self.cfg.max_nodes {
            self.act(Decision::ScaleUp, sample, per_node, obs);
            return Decision::ScaleUp;
        }
        if self.low_streak >= self.cfg.sustain_ticks && sample.active_nodes > self.cfg.min_nodes {
            self.act(Decision::ScaleDown, sample, per_node, obs);
            return Decision::ScaleDown;
        }
        Decision::Hold
    }

    fn act(&mut self, decision: Decision, sample: &LoadSample, per_node: f64, obs: &Hub) {
        self.high_streak = 0;
        self.low_streak = 0;
        self.cooldown = self.cfg.cooldown_ticks;
        self.events += 1;
        let direction = match decision {
            Decision::ScaleUp => "up",
            _ => "down",
        };
        obs.metrics
            .inc_counter(names::AUTOSCALE_EVENTS, &[("direction", direction)], 1);
        obs.audit.record(PlacementAudit {
            kernel: "<autoscale>".into(),
            tenant: default_tenant(),
            policy: "autoscale".into(),
            candidates: Vec::new(),
            chosen: 0,
            reason: Reason::from(format!(
                "decision={decision} depth_per_node={per_node:.2} active={} total_depth={}",
                sample.active_nodes, sample.total_queue_depth
            )),
            fused: FusionDecision::Unconsidered,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(active: usize, depth: u64) -> LoadSample {
        LoadSample {
            active_nodes: active,
            total_queue_depth: depth,
        }
    }

    fn engine() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig {
            high_depth: 4.0,
            low_depth: 1.0,
            sustain_ticks: 3,
            cooldown_ticks: 2,
            min_nodes: 1,
            max_nodes: 4,
        })
    }

    #[test]
    fn sustained_depth_scales_up_once_then_cools_down() {
        let obs = Hub::new();
        let mut a = engine();
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::Hold);
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::Hold);
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::ScaleUp);
        // Cooldown: even sustained overload holds for cooldown_ticks.
        assert_eq!(a.observe(&sample(3, 30), &obs), Decision::Hold);
        assert_eq!(a.observe(&sample(3, 30), &obs), Decision::Hold);
        // Streaks kept accumulating through the cooldown, so the first
        // eligible tick acts.
        assert_eq!(a.observe(&sample(3, 30), &obs), Decision::ScaleUp);
        assert_eq!(a.events(), 2);
        assert_eq!(
            obs.metrics
                .counter_value(names::AUTOSCALE_EVENTS, &[("direction", "up")]),
            2
        );
    }

    #[test]
    fn brief_spikes_inside_the_hysteresis_band_hold() {
        let obs = Hub::new();
        let mut a = engine();
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::Hold);
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::Hold);
        // The spike breaks before sustaining: streak resets.
        assert_eq!(a.observe(&sample(2, 4), &obs), Decision::Hold);
        assert_eq!(a.observe(&sample(2, 20), &obs), Decision::Hold);
        assert_eq!(a.events(), 0);
    }

    #[test]
    fn sustained_idle_scales_down_but_never_below_min() {
        let obs = Hub::new();
        let mut a = engine();
        for _ in 0..3 {
            a.observe(&sample(3, 0), &obs);
        }
        // Third idle tick crossed the sustain threshold.
        assert_eq!(a.events(), 1);
        assert_eq!(
            obs.metrics
                .counter_value(names::AUTOSCALE_EVENTS, &[("direction", "down")]),
            1
        );
        // At the floor, idleness never drains another node.
        let mut floor = engine();
        for _ in 0..10 {
            assert_eq!(floor.observe(&sample(1, 0), &obs), Decision::Hold);
        }
    }

    #[test]
    fn overload_at_the_ceiling_holds() {
        let obs = Hub::new();
        let mut a = engine();
        for _ in 0..10 {
            assert_eq!(a.observe(&sample(4, 100), &obs), Decision::Hold);
        }
        assert_eq!(a.events(), 0);
    }

    #[test]
    fn depth_per_node_divides_over_active_nodes() {
        assert_eq!(sample(2, 8).depth_per_node(), 4.0);
        assert_eq!(sample(0, 8).depth_per_node(), 0.0);
    }

    #[test]
    fn decisions_are_audit_logged_under_the_autoscale_policy() {
        let obs = Hub::new();
        let mut a = engine();
        for _ in 0..3 {
            a.observe(&sample(2, 20), &obs);
        }
        let rendered = obs.audit.render();
        assert!(
            rendered.contains("policy=autoscale"),
            "audit row missing: {rendered}"
        );
        assert!(
            rendered.contains("decision=scale-up"),
            "audit row missing: {rendered}"
        );
    }
}
