//! Fig. 1's task graph, end-to-end: a diamond of dependent kernels
//! (A → {B, C} → D) captured in a `LaunchGraph` in dependency order and
//! dispatched through the extendable scheduling component onto a mixed
//! cluster, with data flowing through shared buffers under the coherence
//! protocol.

use haocl::auto::AutoScheduler;
use haocl::graph::LaunchGraph;
use haocl::kernel::Kernel;
use haocl::{Buffer, Context, DeviceKind, DeviceType, MemFlags, Platform, Program};
use haocl_kernel::NdRange;
use haocl_sched::policies::HeteroAware;
use haocl_workloads::registry_with_all;

const SRC: &str = r#"
__kernel void stage_a(__global int* x) {
    int i = get_global_id(0);
    x[i] = i + 1;
}
__kernel void stage_b(__global const int* x, __global int* y) {
    int i = get_global_id(0);
    y[i] = x[i] * 2;
}
__kernel void stage_c(__global const int* x, __global int* z) {
    int i = get_global_id(0);
    z[i] = x[i] * x[i];
}
__kernel void stage_d(__global const int* y, __global const int* z, __global int* out) {
    int i = get_global_id(0);
    out[i] = y[i] + z[i];
}
"#;

#[test]
fn diamond_launch_graph_runs_in_dependency_order() {
    let platform =
        Platform::local_with_registry(&[DeviceKind::Cpu, DeviceKind::Gpu], registry_with_all())
            .unwrap();
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let auto = AutoScheduler::new(&ctx, Box::new(HeteroAware::new())).unwrap();
    let program = Program::from_source(&ctx, SRC);
    program.build().unwrap();

    let n = 16u64;
    let x = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * n).unwrap();
    let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * n).unwrap();
    let z = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * n).unwrap();
    let out = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * n).unwrap();

    // The capture order is a topological order of the diamond; the
    // policy places each dispatch.
    let mut graph = LaunchGraph::new();
    for (name, args) in [
        ("stage_a", vec![&x]),
        ("stage_b", vec![&x, &y]),
        ("stage_c", vec![&x, &z]),
        ("stage_d", vec![&y, &z, &out]),
    ] {
        let k = Kernel::new(&program, name).unwrap();
        for (i, buffer) in args.into_iter().enumerate() {
            k.set_arg_buffer(i as u32, buffer).unwrap();
        }
        graph.add(&k, NdRange::linear(n, 4)).unwrap();
    }
    let report = auto.launch_graph(&graph).unwrap();
    assert_eq!(report.nodes, 4);

    // Read results through whichever queue last owned the buffer.
    let mut bytes = vec![0u8; (4 * n) as usize];
    auto.queues()[0]
        .enqueue_read_buffer(&out, 0, &mut bytes)
        .unwrap();
    let got: Vec<i32> = bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let expect: Vec<i32> = (0..n as i32)
        .map(|i| (i + 1) * 2 + (i + 1) * (i + 1))
        .collect();
    assert_eq!(got, expect);
}
