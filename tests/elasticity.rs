//! Elastic-membership scenario suite: the fleet grows and shrinks while
//! workloads run. Three end-to-end stories from the issue:
//!
//! 1. **Spot revocation** — a node leaves on a tight deadline; peer
//!    migration degrades to the host relay, and readbacks stay
//!    byte-identical to a fleet that never lost the node.
//! 2. **Traffic spike** — over repeated spike/valley rounds, the
//!    metrics-driven autoscaler adds a node under sustained queue depth
//!    (shrinking the batch makespan) and drains it again once the fleet
//!    idles; every drain leaves the buffer byte-identical to the
//!    reference at the completed launch count.
//! 3. **Rolling upgrade** — every node is drained and rejoined under
//!    its own name while traffic keeps flowing: zero lost launches,
//!    digests exactly matching a static fleet, and zero quarantines
//!    (voluntary epoch bumps earn no strikes).

use haocl::auto::AutoScheduler;
use haocl::{AutoscaleConfig, Autoscaler};
use haocl::{
    Buffer, CommandQueue, Context, Decision, DeviceKind, DeviceType, DrainOptions, DrainReport,
    Kernel, MemFlags, MembershipState, NodeCondition, NodeId, NodeSpec, Platform, Program,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry, NdRange};
use haocl_obs::FleetSnapshot;
use haocl_sched::policies;
use haocl_sim::SimDuration;

const LANES: u64 = 32;

/// Order-sensitive step: `k` applications of the map are
/// distinguishable from `k±1`, so equal bytes prove equal completed
/// launch counts regardless of where each launch was placed.
const SRC: &str =
    "__kernel void churn(__global int* a) { int i = get_global_id(0); a[i] = a[i] * 3 + i; }";

fn gpu_spec(i: usize) -> NodeSpec {
    NodeSpec {
        name: format!("gpu{i}"),
        addr: format!("10.0.1.{}:7100", i + 1),
        devices: vec![DeviceKind::Gpu],
    }
}

// --- Scenario 1: spot-instance revocation ---------------------------------

/// Builds a 3-GPU fleet, dirties the buffer on the victim node (device
/// copy newest, host shadow stale), then optionally drains the victim.
/// Returns the final readback and the drain report.
fn spot_run(drain: Option<DrainOptions>) -> (Vec<u8>, Option<DrainReport>) {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    platform.set_tracing(true);
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let program = Program::from_source(&ctx, SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "churn").unwrap();
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * LANES).unwrap();
    kernel.set_arg_buffer(0, &buffer).unwrap();

    let victim = NodeId::new(1);
    let victim_dev = ctx
        .devices()
        .iter()
        .find(|d| d.node_id() == victim)
        .cloned()
        .unwrap();
    let queue = CommandQueue::new(&ctx, &victim_dev).unwrap();
    let init: Vec<u8> = (0..LANES as i32).flat_map(|i| i.to_le_bytes()).collect();
    queue.enqueue_write_buffer(&buffer, 0, &init).unwrap();
    queue
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(LANES, 1))
        .unwrap();
    queue.finish();

    let report = drain.map(|opts| platform.drain_node(victim, opts).unwrap());
    if report.is_some() {
        assert_eq!(
            platform.node_membership(victim),
            Some(MembershipState::Departed)
        );
        assert_eq!(
            platform.active_nodes(),
            vec![NodeId::new(0), NodeId::new(2)]
        );
    }

    let survivor = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
    let mut bytes = vec![0u8; 4 * LANES as usize];
    survivor
        .enqueue_read_buffer(&buffer, 0, &mut bytes)
        .unwrap();
    survivor.finish();
    (bytes, report)
}

#[test]
fn spot_revocation_migrates_or_relays_but_never_loses_bytes() {
    let (reference, _) = spot_run(None);

    // No deadline: the endangered buffer re-homes over the peer plane.
    let (peer_bytes, report) = spot_run(Some(DrainOptions::default()));
    let r = report.unwrap();
    assert_eq!(
        (r.peer_migrated, r.host_relayed),
        (1, 0),
        "unhurried drain must use the peer data plane: {r:?}"
    );
    assert!(!r.deadline_degraded);
    assert_eq!(r.bytes_evacuated, 4 * LANES);
    assert_eq!(peer_bytes, reference, "peer migration changed the bytes");

    // A spot revocation with no time budget: every migration degrades
    // to the one-hop host relay — and still loses nothing.
    let (relay_bytes, report) = spot_run(Some(DrainOptions::with_deadline(SimDuration::ZERO)));
    let r = report.unwrap();
    assert_eq!(
        (r.peer_migrated, r.host_relayed),
        (0, 1),
        "tight deadline must degrade to the host relay: {r:?}"
    );
    assert!(r.deadline_degraded);
    assert_eq!(relay_bytes, reference, "host relay changed the bytes");
}

// --- Scenario 2: traffic spike drives the autoscaler ----------------------

/// Launches `n` independent fill kernels (one private buffer each, so
/// batches parallelise across devices) and returns the virtual-time
/// makespan of the batch.
fn batch_makespan(platform: &Platform, ctx: &Context, auto: &AutoScheduler, n: usize) -> u64 {
    let program = Program::from_source(
        ctx,
        "__kernel void fill(__global int* a) { a[get_global_id(0)] = get_global_id(0); }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "fill").unwrap();
    kernel.set_cost(
        CostModel::new()
            .flops(1e9)
            .bytes_written(4.0 * LANES as f64),
    );
    let buffers: Vec<Buffer> = (0..n)
        .map(|_| Buffer::new(ctx, MemFlags::WRITE_ONLY, 4 * LANES).unwrap())
        .collect();
    let start = platform.clock().now();
    for b in &buffers {
        kernel.set_arg_buffer(0, b).unwrap();
        auto.launch(&kernel, NdRange::linear(LANES, 1)).unwrap();
    }
    for q in auto.queues() {
        q.finish();
    }
    platform
        .clock()
        .now()
        .saturating_duration_since(start)
        .as_nanos()
}

/// The bytes `k` applications of [`SRC`] leave in a zeroed buffer.
fn churn_ref(k: usize) -> Vec<u8> {
    let mut lanes = [0i32; LANES as usize];
    for _ in 0..k {
        for (i, v) in lanes.iter_mut().enumerate() {
            *v = v.wrapping_mul(3).wrapping_add(i as i32);
        }
    }
    lanes.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[test]
fn traffic_spike_scales_up_then_idleness_scales_back_down() {
    const ROUNDS: usize = 2;
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    platform.set_tracing(true);
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let mut auto = AutoScheduler::new(&ctx, Box::new(policies::RoundRobin::new())).unwrap();
    let mut scaler = Autoscaler::new(AutoscaleConfig {
        high_depth: 4.0,
        low_depth: 1.0,
        sustain_ticks: 2,
        cooldown_ticks: 1,
        min_nodes: 1,
        max_nodes: 2,
    });
    let seed = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();

    let single_node_makespan = batch_makespan(&platform, &ctx, &auto, 6);

    let program = Program::from_source(&ctx, SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "churn").unwrap();
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * LANES).unwrap();
    kernel.set_arg_buffer(0, &buffer).unwrap();
    let mut launches = 0;
    for round in 0..ROUNDS {
        // Sustained spike: a backlog deeper than `high_depth` on the lone
        // node. The queue-depth gauge carries it to the autoscaler.
        for _ in 0..8 {
            auto.launch(&kernel, NdRange::linear(LANES, 1)).unwrap();
            launches += 1;
        }
        assert_eq!(platform.autoscale_tick(&mut scaler), Decision::Hold);
        assert_eq!(
            platform.autoscale_tick(&mut scaler),
            Decision::ScaleUp,
            "round {round}: two sustained overload ticks must trigger a scale-up"
        );

        // Actuate: join a burst node, teach the running scheduler about it.
        let burst = platform.add_node(&gpu_spec(round + 1)).unwrap();
        assert_eq!(
            platform.node_membership(burst),
            Some(MembershipState::Active)
        );
        assert_eq!(auto.sync_membership().unwrap(), 1);
        for q in auto.queues() {
            q.finish();
        }

        // The same batch now spreads over two nodes: strictly faster.
        let two_node_makespan = batch_makespan(&platform, &ctx, &auto, 6);
        assert!(
            two_node_makespan < single_node_makespan,
            "round {round}: scale-up must shrink the batch makespan: \
             {two_node_makespan} >= {single_node_makespan}"
        );

        // The spike's tail rides the grown fleet until a launch lands on
        // the burst node, so the valley takes out the only node holding
        // the buffer's newest bytes.
        loop {
            let (_, choice) = auto.launch(&kernel, NdRange::linear(LANES, 1)).unwrap();
            launches += 1;
            if auto.queues()[choice].device().node_id() == burst {
                break;
            }
        }
        for q in auto.queues() {
            q.finish();
        }

        // The fleet idles; the autoscaler asks for a scale-down within
        // the cooldown + sustain window, and the burst node drains.
        let mut down = false;
        for _ in 0..6 {
            if platform.autoscale_tick(&mut scaler) == Decision::ScaleDown {
                down = true;
                break;
            }
        }
        assert!(down, "round {round}: an idle fleet must scale back down");
        let report = platform.drain_node(burst, DrainOptions::default()).unwrap();
        assert_eq!(
            report.peer_migrated, 1,
            "round {round}: the drain must rescue the buffer: {report:?}"
        );
        assert_eq!(platform.active_nodes(), vec![NodeId::new(0)]);

        // Post-drain digest: the shrunken fleet holds the exact bytes of
        // every completed launch.
        let mut bytes = vec![0u8; 4 * LANES as usize];
        seed.enqueue_read_buffer(&buffer, 0, &mut bytes).unwrap();
        seed.finish();
        assert_eq!(
            bytes,
            churn_ref(launches),
            "round {round}: post-drain bytes must match {launches} launches"
        );
    }

    // Every decision left its audit + metric trail.
    let metrics = platform.render_metrics();
    for direction in ["up", "down"] {
        assert!(
            metrics.contains(&format!(
                "haocl_autoscale_events_total{{direction=\"{direction}\"}} {ROUNDS}"
            )),
            "{metrics}"
        );
    }
    let audit = platform.render_audit_log();
    assert!(audit.contains("policy=autoscale"), "{audit}");
    let snap = FleetSnapshot::from_text(&metrics, &audit);
    assert_eq!(snap.autoscale_events, 2 * ROUNDS as u64);
    let json = snap.to_json();
    assert!(json.contains("\"state\":\"departed\""), "{json}");
}

// --- Scenario 3: rolling upgrade ------------------------------------------

/// Drives `rotations.len() + 1` blocks of `block` launches; between
/// blocks, drains the named original node and rejoins a replacement
/// under the *same name*. Returns (bytes, launches, platform, scheduler).
fn rolling_run(rotate: bool) -> (Vec<u8>, usize, Platform, AutoScheduler) {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    platform.set_tracing(true);
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let mut auto = AutoScheduler::new(&ctx, Box::new(policies::RoundRobin::new())).unwrap();
    let program = Program::from_source(&ctx, SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "churn").unwrap();
    kernel.set_cost(CostModel::new().flops(1e9).bytes_read(4.0 * LANES as f64));
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * LANES).unwrap();
    kernel.set_arg_buffer(0, &buffer).unwrap();

    let mut launches = 0;
    let block = |auto: &AutoScheduler, launches: &mut usize| {
        for _ in 0..8 {
            auto.launch(&kernel, NdRange::linear(LANES, 1)).unwrap();
            *launches += 1;
        }
        for q in auto.queues() {
            q.finish();
        }
    };

    block(&auto, &mut launches);
    for upgraded in 0..3u32 {
        if rotate {
            // Quiesce-free drain: in-flight work settled above, resident
            // state live-migrates, the node retires voluntarily, and a
            // replacement rejoins under the same name and address.
            platform
                .drain_node(NodeId::new(upgraded), DrainOptions::default())
                .unwrap();
            platform.add_node(&gpu_spec(upgraded as usize)).unwrap();
            assert_eq!(auto.sync_membership().unwrap(), 1);
        }
        block(&auto, &mut launches);
    }

    let staging = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
    let mut bytes = vec![0u8; 4 * LANES as usize];
    staging.enqueue_read_buffer(&buffer, 0, &mut bytes).unwrap();
    staging.finish();
    (bytes, launches, platform, auto)
}

#[test]
fn rolling_upgrade_loses_no_launches_and_keeps_digests_exact() {
    let (rolled, rolled_launches, platform, auto) = rolling_run(true);
    let (static_bytes, static_launches, ..) = rolling_run(false);

    // Zero lost launches: every launch on the rolling fleet succeeded
    // (the unwraps above), and the count matches the static fleet — so
    // byte equality proves the full workload completed exactly once.
    assert_eq!(rolled_launches, static_launches);
    assert_eq!(
        rolled, static_bytes,
        "a rolling upgrade must not change workload output"
    );

    // All three original nodes departed; their replacements are active.
    for old in 0..3u32 {
        assert_eq!(
            platform.node_membership(NodeId::new(old)),
            Some(MembershipState::Departed)
        );
    }
    let active = platform.active_nodes();
    assert_eq!(active, vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)]);

    // Voluntary departures earn no strikes: nothing is quarantined, the
    // rejoined nodes carry no advisory ban, and the counter never moved.
    for &node in &active {
        assert_eq!(
            auto.quarantine().condition(node),
            NodeCondition::Healthy,
            "rejoined node {node:?} must start with a clean slate"
        );
        assert_eq!(platform.node_voluntary_epochs(node), 0);
    }
    let metrics = platform.render_metrics();
    for line in metrics.lines() {
        if line.starts_with("haocl_quarantines_total") {
            assert!(
                line.ends_with(" 0"),
                "voluntary drains must not quarantine: {line}"
            );
        }
    }

    // haocl-top sees the rejoins: each name's last transition is
    // `active`, and the rotation never counted as a placement.
    let snap = FleetSnapshot::from_text(&metrics, &platform.render_audit_log());
    for name in ["gpu0", "gpu1", "gpu2"] {
        let row = snap.nodes.iter().find(|n| n.node == name).unwrap();
        assert_eq!(row.state, "active", "{name} must end active after rejoin");
    }
}
