//! Integration tests for fused dispatch: a prover-approved chain must
//! collapse into fewer wire commands while staying byte-identical to
//! the unfused replay, and every fusion decision must be visible in the
//! scheduler audit log.

use std::time::Duration;

use haocl::auto::AutoScheduler;
use haocl::graph::LaunchGraph;
use haocl::{Buffer, Context, DeviceKind, DeviceType, Kernel, MemFlags, Platform, Program};
use haocl_cluster::{ClusterConfig, RecoveryPolicy};
use haocl_kernel::{KernelRegistry, NdRange};
use haocl_net::{ChaosPolicy, ChaosSpec};
use haocl_sched::policies;

const N: u64 = 64;

const CHAIN_SRC: &str = r#"
    __kernel void square(__global int* y, __global const int* x, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = x[i] * x[i];
    }
    __kernel void add3(__global int* y, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = y[i] + 3;
    }
    __kernel void scatter(__global int* y, __global const int* idx, int n) {
        int i = get_global_id(0);
        if (i < n) y[idx[i]] = i;
    }
"#;

struct Rig {
    platform: Platform,
    auto: AutoScheduler,
    program: Program,
    ctx: Context,
}

fn rig() -> Rig {
    rig_on(Platform::local(&[DeviceKind::Gpu]).unwrap())
}

fn rig_on(platform: Platform) -> Rig {
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let program = Program::from_source(&ctx, CHAIN_SRC);
    program.build().unwrap();
    Rig {
        platform,
        auto,
        program,
        ctx,
    }
}

fn read_back(rig: &Rig, buf: &Buffer) -> Vec<i32> {
    let mut out = vec![0u8; (4 * N) as usize];
    rig.auto.queues()[0]
        .enqueue_read_buffer(buf, 0, &mut out)
        .unwrap();
    out.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Builds the square→add3 elementwise chain and dispatches it through a
/// graph with fusion toggled; returns the result vector and the report.
fn run_chain(fused: bool) -> (Vec<i32>, haocl::GraphReport, Rig) {
    run_chain_on(rig(), fused, |_| {})
}

/// [`run_chain`] on a given rig, with `before_read` called between the
/// dispatch and the read-back.
fn run_chain_on(
    rig: Rig,
    fused: bool,
    before_read: impl FnOnce(&Rig),
) -> (Vec<i32>, haocl::GraphReport, Rig) {
    let x = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * N).unwrap();
    let y = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * N).unwrap();
    let seed: Vec<u8> = (0..N as i32).flat_map(|v| v.to_le_bytes()).collect();
    rig.auto.queues()[0]
        .enqueue_write_buffer(&x, 0, &seed)
        .unwrap();
    let square = Kernel::new(&rig.program, "square").unwrap();
    square.set_arg_buffer(0, &y).unwrap();
    square.set_arg_buffer(1, &x).unwrap();
    square.set_arg_i32(2, N as i32).unwrap();
    let add3 = Kernel::new(&rig.program, "add3").unwrap();
    add3.set_arg_buffer(0, &y).unwrap();
    add3.set_arg_i32(1, N as i32).unwrap();
    let mut graph = LaunchGraph::new();
    graph.set_fusion(fused);
    graph.add(&square, NdRange::linear(N, 8)).unwrap();
    graph.add(&add3, NdRange::linear(N, 8)).unwrap();
    let report = rig.auto.launch_graph(&graph).unwrap();
    before_read(&rig);
    let got = read_back(&rig, &y);
    (got, report, rig)
}

#[test]
fn fused_chain_is_byte_identical_and_saves_commands() {
    let (fused_vals, fused_report, _rig_f) = run_chain(true);
    let (unfused_vals, unfused_report, _rig_u) = run_chain(false);
    let expect: Vec<i32> = (0..N as i32).map(|i| i * i + 3).collect();
    assert_eq!(unfused_vals, expect, "unfused reference is correct");
    assert_eq!(fused_vals, unfused_vals, "fusion changed the bytes");
    assert_eq!(fused_report.nodes, 2);
    assert_eq!(
        fused_report.wire_launches, 1,
        "chain must fuse to one command"
    );
    assert_eq!(fused_report.fused_launches, 1);
    assert_eq!(fused_report.commands_saved, 1);
    assert_eq!(unfused_report.wire_launches, 2);
    assert_eq!(unfused_report.commands_saved, 0);
}

#[test]
fn fused_chain_survives_failover_of_the_node_it_ran_on() {
    // A fused dispatch is node state like any lone launch: with recovery
    // on, losing the node after the chain ran must replay the chain onto
    // the failover target, not read back the bytes from before it.
    let config = ClusterConfig::gpu_cluster(2);
    let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
    let recovery = RecoveryPolicy {
        base_timeout: Duration::from_millis(10),
        max_attempts: 4,
        failover: true,
    };
    platform.set_recovery(Some(recovery));
    let (vals, report, rig) = run_chain_on(rig_on(platform), true, |rig| {
        let placed = rig.platform.obs().audit.entries();
        let chain = placed
            .iter()
            .find(|e| &*e.kernel == "square+add3")
            .expect("the chain was placed as one dispatch");
        let node = rig.ctx.devices()[chain.chosen].node_name();
        let addr = &config
            .nodes
            .iter()
            .find(|spec| spec.name == node)
            .expect("the chosen device belongs to a configured node")
            .addr;
        let host = addr.split(':').next().unwrap_or(addr);
        // Blackhole that node from its very next frame on.
        let spec = ChaosSpec::parse(&format!("crash={host}@0")).unwrap();
        rig.platform.install_chaos(ChaosPolicy::new(1, spec));
        rig.platform.set_recovery(Some(recovery));
    });
    assert_eq!(report.fused_launches, 1, "the chain went out fused");
    let (golden, _, _) = run_chain(true);
    assert_eq!(
        vals,
        golden,
        "the failover target replayed the fused dispatch; repro schedule:\n{}",
        rig.platform.chaos_schedule().join("\n")
    );
    let metrics = rig.platform.render_metrics();
    assert!(
        metrics.contains("haocl_failovers_total{"),
        "no failover was counted:\n{metrics}"
    );
}

#[test]
fn audit_log_carries_lead_member_and_metric_counters() {
    let (_vals, report, rig) = run_chain(true);
    assert_eq!(report.decisions.len(), 2);
    assert_eq!(report.decisions[0].0, "square");
    let audit = rig.platform.render_audit_log();
    assert!(
        audit.contains("kernel=square+add3") && audit.contains("fused=lead:2"),
        "lead dispatch missing from audit log:\n{audit}"
    );
    assert!(
        audit.contains("kernel=add3") && audit.contains("fused=into:square"),
        "fused member missing from audit log:\n{audit}"
    );
    let metrics = rig.platform.render_metrics();
    assert!(
        metrics.contains("haocl_fused_launches_total 1"),
        "fused-launch counter missing:\n{metrics}"
    );
    assert!(
        metrics.contains("haocl_fusion_commands_saved_total 1"),
        "commands-saved counter missing:\n{metrics}"
    );
}

#[test]
fn unprovable_scatter_is_rejected_with_reason_in_audit() {
    let rig = rig();
    let y = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * N).unwrap();
    let idx = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * N).unwrap();
    let seed: Vec<u8> = (0..N as i32).flat_map(|v| v.to_le_bytes()).collect();
    rig.auto.queues()[0]
        .enqueue_write_buffer(&idx, 0, &seed)
        .unwrap();
    rig.auto.queues()[0]
        .enqueue_write_buffer(&y, 0, &seed)
        .unwrap();
    let add3 = Kernel::new(&rig.program, "add3").unwrap();
    add3.set_arg_buffer(0, &y).unwrap();
    add3.set_arg_i32(1, N as i32).unwrap();
    let scatter = Kernel::new(&rig.program, "scatter").unwrap();
    scatter.set_arg_buffer(0, &y).unwrap();
    scatter.set_arg_buffer(1, &idx).unwrap();
    scatter.set_arg_i32(2, N as i32).unwrap();
    let mut graph = LaunchGraph::new();
    graph.add(&add3, NdRange::linear(N, 8)).unwrap();
    graph.add(&scatter, NdRange::linear(N, 8)).unwrap();
    let report = rig.auto.launch_graph(&graph).unwrap();
    assert_eq!(report.wire_launches, 2, "unprovable scatter must not fuse");
    assert_eq!(report.fused_launches, 0);
    let audit = rig.platform.render_audit_log();
    assert!(
        audit.contains("fused=rejected:"),
        "rejection reason missing from audit log:\n{audit}"
    );
    // The scatter still executed: y[idx[i]] = i with idx = identity.
    let got = read_back(&rig, &y);
    let expect: Vec<i32> = (0..N as i32).collect();
    assert_eq!(got, expect);
}

/// A fused dispatch through a graph must leave the device contents
/// byte-identical to the same kernels enqueued one at a time through
/// the plain queue path (the VM oracle runs both for real).
#[test]
fn graph_matches_plain_enqueue_path() {
    let make_rig = rig;
    let rig = make_rig();
    let x = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * N).unwrap();
    let y = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * N).unwrap();
    let seed: Vec<u8> = (0..N as i32).flat_map(|v| (v * 7).to_le_bytes()).collect();
    rig.auto.queues()[0]
        .enqueue_write_buffer(&x, 0, &seed)
        .unwrap();
    let square = Kernel::new(&rig.program, "square").unwrap();
    square.set_arg_buffer(0, &y).unwrap();
    square.set_arg_buffer(1, &x).unwrap();
    square.set_arg_i32(2, N as i32).unwrap();
    let add3 = Kernel::new(&rig.program, "add3").unwrap();
    add3.set_arg_buffer(0, &y).unwrap();
    add3.set_arg_i32(1, N as i32).unwrap();
    let q = &rig.auto.queues()[0];
    q.enqueue_nd_range_kernel(&square, NdRange::linear(N, 8))
        .unwrap();
    q.enqueue_nd_range_kernel(&add3, NdRange::linear(N, 8))
        .unwrap();
    q.finish();
    let reference = read_back(&rig, &y);

    // Fresh platform, same work through a fused graph.
    let (fused_vals, report, _rig2) = {
        let rig2 = make_rig();
        let x2 = Buffer::new(&rig2.ctx, MemFlags::READ_ONLY, 4 * N).unwrap();
        let y2 = Buffer::new(&rig2.ctx, MemFlags::READ_WRITE, 4 * N).unwrap();
        rig2.auto.queues()[0]
            .enqueue_write_buffer(&x2, 0, &seed)
            .unwrap();
        let square2 = Kernel::new(&rig2.program, "square").unwrap();
        square2.set_arg_buffer(0, &y2).unwrap();
        square2.set_arg_buffer(1, &x2).unwrap();
        square2.set_arg_i32(2, N as i32).unwrap();
        let add32 = Kernel::new(&rig2.program, "add3").unwrap();
        add32.set_arg_buffer(0, &y2).unwrap();
        add32.set_arg_i32(1, N as i32).unwrap();
        let mut graph = LaunchGraph::new();
        graph.add(&square2, NdRange::linear(N, 8)).unwrap();
        graph.add(&add32, NdRange::linear(N, 8)).unwrap();
        let report = rig2.auto.launch_graph(&graph).unwrap();
        let vals = read_back(&rig2, &y2);
        (vals, report, rig2)
    };
    assert_eq!(report.wire_launches, 1);
    assert_eq!(
        fused_vals, reference,
        "fused graph diverged from plain path"
    );
}
