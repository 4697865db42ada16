//! End-to-end integration: an OpenCL host program over a real in-process
//! cluster, exercising compiler, VM, wire protocol, NMPs, coherence and
//! virtual timing together.

use haocl::kernel::Kernel;
use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Fidelity, MemFlags, Platform, Program, Status,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry, NdRange};

fn to_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn source_program_runs_identically_on_every_node_of_a_cluster() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void square(__global float* a, int n) {
            int i = get_global_id(0);
            if (i < n) a[i] = a[i] * a[i];
        }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "square").unwrap();
    let input: Vec<f32> = (0..64).map(|i| i as f32 / 3.0).collect();
    let expect: Vec<f32> = input.iter().map(|x| x * x).collect();
    for device in &devices {
        let queue = CommandQueue::new(&ctx, device).unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 256).unwrap();
        queue
            .enqueue_write_buffer(&buf, 0, &to_bytes(&input))
            .unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        kernel.set_arg_i32(1, 64).unwrap();
        queue
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(64, 8))
            .unwrap();
        let mut out = vec![0u8; 256];
        queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        assert_eq!(to_f32s(&out), expect, "device {}", device.index());
    }
}

#[test]
fn source_builds_run_their_own_kernel_and_bitstreams_run_the_same_vm() {
    // The store holds a `k` that writes 1; a source program defines a
    // `k` that writes 2. Each program runs its own kernel: the store
    // serves bitstream loads and never replaces a source build.
    let store = KernelRegistry::new();
    store
        .register_source("__kernel void k(__global int* a) { a[get_global_id(0)] = 1; }")
        .unwrap();
    let platform = Platform::cluster(&ClusterConfig::gpu_cluster(1), store).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
    let run_k = |program: Program| -> i32 {
        program.build().unwrap();
        let kernel = Kernel::new(&program, "k").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        queue
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(1, 1))
            .unwrap();
        let mut out = [0u8; 4];
        queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        i32::from_le_bytes(out)
    };
    let source = "__kernel void k(__global int* a) { a[get_global_id(0)] = 2; }";
    assert_eq!(run_k(Program::from_source(&ctx, source)), 2);
    assert_eq!(run_k(Program::with_bitstream_kernels(&ctx, ["k"])), 1);

    // MatrixMul deployed both ways is one compiled kernel on one VM:
    // the same C bytes and the same instruction count.
    use haocl_workloads::matmul::{self, MatmulConfig};
    let cfg = MatmulConfig { n: 32, seed: 123 };
    let n = cfg.n;
    let (a, b) = (
        to_bytes(&matmul::generate_matrix(&cfg, "a")),
        to_bytes(&matmul::generate_matrix(&cfg, "b")),
    );
    let run_matmul = |bitstream: bool| -> (Vec<u8>, u64) {
        let platform = Platform::cluster(
            &ClusterConfig::gpu_cluster(1),
            haocl_workloads::registry_with_all(),
        )
        .unwrap();
        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices).unwrap();
        let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
        let program = if bitstream {
            Program::with_bitstream_kernels(&ctx, [matmul::KERNEL_NAME])
        } else {
            Program::from_source(&ctx, matmul::KERNEL_SOURCE)
        };
        program.build().unwrap();
        let kernel = Kernel::new(&program, matmul::KERNEL_NAME).unwrap();
        let bytes = (4 * n * n) as u64;
        let bufs: Vec<Buffer> = (0..3)
            .map(|_| Buffer::new(&ctx, MemFlags::READ_WRITE, bytes).unwrap())
            .collect();
        queue.enqueue_write_buffer(&bufs[0], 0, &a).unwrap();
        queue.enqueue_write_buffer(&bufs[1], 0, &b).unwrap();
        for (i, buf) in bufs.iter().enumerate() {
            kernel.set_arg_buffer(i as u32, buf).unwrap();
        }
        kernel.set_arg_i32(3, n as i32).unwrap();
        kernel.set_arg_i32(4, n as i32).unwrap();
        let ev = queue
            .enqueue_nd_range_kernel(&kernel, NdRange::d2([n as u64; 2], [8, 8]))
            .unwrap();
        let mut c = vec![0u8; bytes as usize];
        queue.enqueue_read_buffer(&bufs[2], 0, &mut c).unwrap();
        (c, ev.instructions())
    };
    let (source_c, source_instructions) = run_matmul(false);
    let (bitstream_c, bitstream_instructions) = run_matmul(true);
    assert!(source_instructions > 0);
    assert_eq!(source_instructions, bitstream_instructions);
    assert_eq!(source_c, bitstream_c);
    let expect = matmul::reference(
        &matmul::generate_matrix(&cfg, "a"),
        &matmul::generate_matrix(&cfg, "b"),
        n,
    );
    assert_eq!(
        to_f32s(&source_c),
        expect,
        "same FLOP order as the reference"
    );
}

#[test]
fn coherence_moves_data_across_nodes_through_the_host() {
    // Write on node 0, compute on node 1, compute again on node 2, read
    // on node 0: the single-writer protocol must chain transfers
    // correctly across three different nodes.
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void inc(__global int* a) { int i = get_global_id(0); a[i] = a[i] + 1; }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "inc").unwrap();
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d).unwrap())
        .collect();
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
    let init: Vec<u8> = [10i32, 20, 30, 40]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    queues[0].enqueue_write_buffer(&buf, 0, &init).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    queues[1]
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(4, 1))
        .unwrap();
    queues[2]
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(4, 1))
        .unwrap();
    let mut out = vec![0u8; 16];
    queues[0].enqueue_read_buffer(&buf, 0, &mut out).unwrap();
    let vals: Vec<i32> = out
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(vals, vec![12, 22, 32, 42]);
}

/// The stack reports the interpreter's numbers: a traced launch through
/// host, wire and NMP reads back the bytes, and counts the instructions,
/// that the reference interpreter gives for the same input.
#[test]
fn the_stack_reports_the_interpreters_bytes_and_instruction_count() {
    use haocl_clc::vm::{run_ndrange_with_engine, ArgValue, EngineKind, GlobalBuffer};
    const SCALE_SRC: &str = "__kernel void scale(__global float* y, float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = y[i] * a + 1.5f;
    }";
    // The guard falls inside a lockstep chunk: 4000 of 4096 items store.
    let (items, n, a) = (4096u64, 4000, 3.5f32);
    let input: Vec<f32> = (0..items).map(|i| i as f32 * 0.5 - 7.0).collect();

    let reference = haocl_clc::compile(SCALE_SRC).expect("scale compiles");
    let mut want = vec![GlobalBuffer::from_f32(&input)];
    let want_stats = run_ndrange_with_engine(
        reference.kernel("scale").expect("scale exists"),
        &[
            ArgValue::global(0),
            ArgValue::from_f32(a),
            ArgValue::from_i32(n),
        ],
        &mut want,
        &haocl_clc::vm::NdRange::linear(items, 64),
        EngineKind::Interp,
    )
    .expect("the interpreter runs scale");

    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    platform.obs().set_enabled(true);
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, SCALE_SRC);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "scale").unwrap();
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * items).unwrap();
    queue
        .enqueue_write_buffer(&buf, 0, &to_bytes(&input))
        .unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    kernel.set_arg_f32(1, a).unwrap();
    kernel.set_arg_i32(2, n).unwrap();
    let launch = queue
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(items, 64))
        .unwrap();
    let mut out = vec![0u8; 4 * items as usize];
    queue.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
    queue.finish();

    assert_eq!(out, want[0].as_bytes(), "read-back bytes");
    assert_eq!(launch.instructions(), want_stats.instructions);
    let spans = platform.obs().recorder.spans();
    assert_eq!(
        spans.iter().filter(|s| s.name == "vm.run").count(),
        1,
        "one traced VM run"
    );
}

#[test]
fn virtual_time_is_deterministic_across_identical_runs() {
    let run_once = || {
        let platform =
            Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices).unwrap();
        let program = Program::from_source(
            &ctx,
            "__kernel void f(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }",
        );
        program.build().unwrap();
        let kernel = Kernel::new(&program, "f").unwrap();
        kernel.set_fidelity(Fidelity::Modeled);
        kernel.set_cost(CostModel::new().flops(1e9).bytes_read(1e7));
        let q0 = CommandQueue::new(&ctx, &devices[0]).unwrap();
        let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 1 << 20).unwrap();
        q0.enqueue_write_buffer_modeled(&buf, 0, 1 << 20).unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        let ev = q0
            .enqueue_nd_range_kernel(&kernel, NdRange::linear(1024, 64))
            .unwrap();
        q0.finish();
        (ev.started_at(), ev.finished_at(), platform.now())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "virtual timing must be reproducible bit-for-bit");
}

#[test]
fn kernel_launch_is_asynchronous_in_virtual_time() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, "__kernel void f(__global float* a) { a[0] = 1.0f; }");
    program.build().unwrap();
    let kernel = Kernel::new(&program, "f").unwrap();
    kernel.set_fidelity(Fidelity::Modeled);
    // A one-second kernel.
    kernel.set_cost(CostModel::new().flops(3.85e12));
    let queue = CommandQueue::new(&ctx, &devices[0]).unwrap();
    let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 4).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    let before = platform.now();
    let ev = queue
        .enqueue_nd_range_kernel(&kernel, NdRange::linear(1, 1))
        .unwrap();
    let after_enqueue = platform.now();
    // The enqueue returned long before the kernel's completion time.
    assert!(ev.duration() >= haocl_sim::SimDuration::from_millis(900));
    assert!(
        after_enqueue - before < haocl_sim::SimDuration::from_millis(100),
        "enqueue must not block virtual time"
    );
    // clFinish advances to the completion.
    let done = queue.finish();
    assert!(done >= ev.finished_at());
}

#[test]
fn build_errors_surface_the_remote_build_log() {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let program = Program::from_source(&ctx, "__kernel void broken(int x { }");
    let err = program.build().unwrap_err();
    assert_eq!(err.status(), Some(Status::BuildProgramFailure));
    assert!(program.build_log().contains("error"));
}
