//! End-to-end device-health telemetry: a fleet with one silently
//! throttled GPU must keep producing byte-identical results while the
//! recalibrating profile db + drift detector shift placements off the
//! sick node, and every surface — audit log `health=` column,
//! `haocl_device_health` metric, `haocl-top` snapshot — records the
//! verdict.

use haocl::auto::AutoScheduler;
use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Kernel, MemFlags, NodeCondition, NodeId, Platform,
    Program,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry, NdRange};
use haocl_obs::FleetSnapshot;
use haocl_sched::policies;

const LANES: u64 = 32;

/// Order-sensitive step: `k` applications are distinguishable from
/// `k±1`, so equal bytes prove equal completed counts.
const SRC: &str =
    "__kernel void churn(__global int* a) { int i = get_global_id(0); a[i] = a[i] * 3 + i; }";

struct Fleet {
    platform: Platform,
    auto: AutoScheduler,
    kernel: Kernel,
    buffer: Buffer,
    staging: CommandQueue,
}

fn fleet() -> Fleet {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    platform.set_tracing(true);
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let staging = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
    let program = Program::from_source(&ctx, SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "churn").unwrap();
    kernel.set_cost(CostModel::new().flops(1e9).bytes_read(4.0 * LANES as f64));
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * LANES).unwrap();
    kernel.set_arg_buffer(0, &buffer).unwrap();
    Fleet {
        platform,
        auto,
        kernel,
        buffer,
        staging,
    }
}

impl Fleet {
    /// One placed launch; returns the chosen node.
    fn step(&self) -> NodeId {
        let (_, choice) = self
            .auto
            .launch(&self.kernel, NdRange::linear(LANES, 1))
            .unwrap();
        self.auto.queues()[choice].device().node_id()
    }

    fn readback(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; 4 * LANES as usize];
        self.staging
            .enqueue_read_buffer(&self.buffer, 0, &mut bytes)
            .unwrap();
        self.staging.finish();
        bytes
    }
}

/// Runs the demo schedule on one fleet: healthy probing, optional
/// throttle injection on node 1, detection probing, free placement, then
/// the throttle lifted and probing again until the node re-qualifies.
/// Returns (final bytes, total launches, post-detection sick placements).
fn run_schedule(throttle: bool) -> (Vec<u8>, usize, usize) {
    let mut f = fleet();
    let sick = NodeId::new(1);
    // Healthy probing freezes each node's drift baseline.
    f.auto.set_policy(Box::new(policies::RoundRobin::new()));
    let mut launches = 0;
    for _ in 0..12 {
        f.step();
        launches += 1;
    }
    if throttle {
        // Device 0 of node 1 silently runs 3x slow from here on — its
        // descriptor still advertises full speed.
        f.platform.set_device_throttle(sick, 0, 3.0).unwrap();
    }
    // A fixed probing block (same length in both variants, so the two
    // schedules stay byte-comparable) gives the detector its strikes.
    for _ in 0..30 {
        f.step();
        launches += 1;
    }
    // Free placement: the policy sees the advisory penalty.
    f.auto.set_policy(Box::new(policies::HeteroAware::new()));
    let mut on_sick = 0;
    for _ in 0..12 {
        if f.step() == sick {
            on_sick += 1;
        }
        launches += 1;
    }

    if throttle {
        assert!(
            f.auto.drift().is_degraded(sick),
            "drift detector must flag the throttled node"
        );
        assert_eq!(
            f.auto.quarantine().condition(sick),
            NodeCondition::Degraded,
            "the verdict is advisory, not a hard quarantine"
        );
        let audit = f.platform.render_audit_log();
        assert!(
            audit.contains("policy=drift"),
            "drift transitions must land in the audit log:\n{audit}"
        );
        assert!(
            audit.contains("health=degraded("),
            "audit health= column must carry degraded verdicts:\n{audit}"
        );
        let metrics = f.platform.render_metrics();
        assert!(
            metrics.contains("haocl_device_health{node=\"gpu1\"} 1"),
            "health gauge must export the degraded verdict:\n{metrics}"
        );
        assert!(
            metrics.contains("haocl_device_health{node=\"gpu0\"} 0"),
            "healthy peers stay at 0:\n{metrics}"
        );
        assert!(metrics.contains("haocl_degraded_placements_avoided_total{node=\"gpu1\"}"));
        // The haocl-top snapshot reflects the same state.
        let snap = FleetSnapshot::from_text(&metrics, &audit);
        assert!(snap.any_unhealthy());
        let sick_row = snap.nodes.iter().find(|n| n.node == "gpu1").unwrap();
        assert_eq!(sick_row.health, "degraded");
        assert!(snap.drift_transitions >= 1);
        assert!(snap.to_json().contains("\"health\":\"degraded\""));
    } else {
        let metrics = f.platform.render_metrics();
        assert!(
            !metrics.contains("haocl_device_health{node=\"gpu1\"} 1"),
            "healthy fleet must not flag anyone:\n{metrics}"
        );
    }

    // Recovery: back at full speed, the node re-qualifies only if it is
    // probed (round-robin again: an avoided node produces no timings).
    // It turns healthy 17 launches into this block.
    if throttle {
        f.platform.set_device_throttle(sick, 0, 1.0).unwrap();
    }
    f.auto.set_policy(Box::new(policies::RoundRobin::new()));
    for _ in 0..24 {
        f.step();
        launches += 1;
    }
    assert_eq!(
        f.auto.quarantine().condition(sick),
        NodeCondition::Healthy,
        "a node back at its baseline must return to healthy"
    );
    (f.readback(), launches, on_sick)
}

#[test]
fn throttled_node_is_flagged_avoided_and_results_stay_byte_identical() {
    let (sick_bytes, sick_launches, on_sick) = run_schedule(true);
    assert_eq!(
        on_sick, 0,
        "post-detection placements must shift off the sick node"
    );
    // The healthy fleet runs the same fixed schedule; with identical
    // launch counts the outputs must match byte for byte — degradation
    // may slow a device down, never change results.
    let (healthy_bytes, healthy_launches, _) = run_schedule(false);
    assert_eq!(sick_launches, healthy_launches);
    assert_eq!(
        sick_bytes, healthy_bytes,
        "placement shifts must not change workload output"
    );
}

#[test]
fn recalibration_counter_tracks_warm_profile_updates() {
    let mut f = fleet();
    f.auto.set_policy(Box::new(policies::RoundRobin::new()));
    for _ in 0..12 {
        f.step();
    }
    let metrics = f.platform.render_metrics();
    assert!(
        metrics.contains("haocl_profile_recalibrations_total"),
        "warm launches must surface recalibrations:\n{metrics}"
    );
}
