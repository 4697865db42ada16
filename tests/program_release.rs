//! Releasing what the wire creates: a program whose last host handle
//! drops is released on every node it was built on, together with the
//! kernel handles created from it there, so a long-lived cluster that
//! compiles a fresh program per request holds no more afterwards than
//! before. A release is node state like a build: with recovery on, a
//! failover replays it in journal order.

use std::time::Duration;

use haocl::{
    Buffer, ChaosPolicy, ChaosSpec, CommandQueue, Context, DeviceType, Kernel, MemFlags, NdRange,
    NodeId, NodeObjects, Platform, Program, RecoveryPolicy,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::KernelRegistry;

const ITEMS: usize = 16;

/// A program of its own for every `salt`: `a[i] = a[i] * 3 + i + salt`.
fn stamp_source(salt: usize) -> String {
    format!(
        "__kernel void stamp(__global int* a) {{ int i = get_global_id(0); a[i] = a[i] * 3 + i + {salt}; }}"
    )
}

fn stamp_ref(bytes: &mut [u8], salt: usize) {
    for (i, word) in bytes.chunks_exact_mut(4).enumerate() {
        let v = i32::from_le_bytes(word.try_into().unwrap());
        let v = v.wrapping_mul(3).wrapping_add((i + salt) as i32);
        word.copy_from_slice(&v.to_le_bytes());
    }
}

fn objects(platform: &Platform) -> Vec<NodeObjects> {
    (0..2)
        .map(|n| {
            platform
                .node_objects(NodeId::new(n))
                .expect("node is running")
        })
        .collect()
}

/// Builds `salt`'s program on every device, launches it on `queue` over
/// `buffer`, waits, and drops it.
fn stamp_once(ctx: &Context, queue: &CommandQueue, buffer: &Buffer, salt: usize) {
    let program = Program::from_source(ctx, stamp_source(salt));
    program.build().unwrap();
    let kernel = Kernel::new(&program, "stamp").unwrap();
    kernel.set_arg_buffer(0, buffer).unwrap();
    let event = queue
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(ITEMS as u64, 4))
        .unwrap();
    event.wait().unwrap();
}

#[test]
fn a_thousand_dropped_programs_leave_no_node_objects_behind() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let mut lanes: Vec<(CommandQueue, Buffer, Vec<u8>)> = devices
        .iter()
        .map(|d| {
            let queue = CommandQueue::new(&ctx, d).unwrap();
            let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * ITEMS as u64).unwrap();
            queue
                .enqueue_write_buffer(&buffer, 0, &[0; 4 * ITEMS])
                .unwrap();
            (queue, buffer, vec![0; 4 * ITEMS])
        })
        .collect();
    let before = objects(&platform);
    for salt in 0..1_000 {
        let (queue, buffer, model) = &mut lanes[salt % 2];
        stamp_once(&ctx, queue, buffer, salt);
        stamp_ref(model, salt);
        assert_eq!(objects(&platform), before, "after op {salt}");
    }
    for (queue, buffer, model) in &lanes {
        let mut got = vec![0; 4 * ITEMS];
        queue.enqueue_read_buffer(buffer, 0, &mut got).unwrap();
        assert_eq!(&got, model, "a released program's launch went missing");
    }
    let metrics = platform.render_metrics();
    assert!(
        !metrics.contains("haocl_program_release_failed_total"),
        "a release failed:\n{metrics}"
    );
}

/// Node 1 holds the only current copy of a buffer that a released
/// program wrote. `crash` loses node 1 after the release; reading the
/// buffer fails over onto node 0. Returns the bytes read, those of one
/// more program run on device 1 afterwards, and what node 0 holds after
/// the failover and again after that program drops.
fn release_then_fail_over(crash: bool) -> (Vec<u8>, Vec<u8>, NodeObjects, NodeObjects) {
    let config = ClusterConfig::gpu_cluster(2);
    let node1 = config.nodes[1].addr.split(':').next().unwrap().to_string();
    let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
    let recovery = RecoveryPolicy {
        base_timeout: Duration::from_millis(10),
        max_attempts: 4,
        failover: true,
    };
    platform.set_recovery(Some(recovery));
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let queue = CommandQueue::new(&ctx, &devices[1]).unwrap();
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * ITEMS as u64).unwrap();
    let seed: Vec<u8> = (1..=4 * ITEMS as u8).collect();
    queue.enqueue_write_buffer(&buffer, 0, &seed).unwrap();
    stamp_once(&ctx, &queue, &buffer, 7);
    assert_eq!(
        objects(&platform),
        [NodeObjects::default(); 2],
        "the program was released on both nodes"
    );
    if crash {
        let spec = ChaosSpec::parse(&format!("crash={node1}@0")).unwrap();
        platform.install_chaos(ChaosPolicy::new(1, spec));
        platform.set_recovery(Some(recovery));
    }
    let mut replayed = vec![0; 4 * ITEMS];
    queue
        .enqueue_read_buffer(&buffer, 0, &mut replayed)
        .unwrap();
    let after_failover = platform.node_objects(NodeId::new(0)).unwrap();
    stamp_once(&ctx, &queue, &buffer, 8);
    let mut next = vec![0; 4 * ITEMS];
    queue.enqueue_read_buffer(&buffer, 0, &mut next).unwrap();
    let after_next = platform.node_objects(NodeId::new(0)).unwrap();
    let metrics = platform.render_metrics();
    assert_eq!(
        metrics.contains("haocl_failovers_total{"),
        crash,
        "failover count:\n{metrics}"
    );
    assert!(
        !metrics.contains("haocl_program_release_failed_total"),
        "a release failed:\n{metrics}"
    );
    (replayed, next, after_failover, after_next)
}

#[test]
fn a_crash_after_a_release_fails_over_to_a_node_holding_no_program() {
    let golden = release_then_fail_over(false);
    let mut model: Vec<u8> = (1..=4 * ITEMS as u8).collect();
    stamp_ref(&mut model, 7);
    assert_eq!(golden.0, model, "the fault-free run is correct");
    stamp_ref(&mut model, 8);
    assert_eq!(golden.1, model);
    let failed_over = release_then_fail_over(true);
    assert_eq!(
        failed_over.2,
        NodeObjects::default(),
        "replay rebuilt the program and released it again"
    );
    assert_eq!(failed_over.3, NodeObjects::default());
    assert_eq!(
        failed_over, golden,
        "digests differ from the fault-free run"
    );
}
