//! Heap allocations per small launch, raw and placed through the
//! serving plane, counted over the whole process — the client thread
//! and every NMP thread — with this file's own `#[global_allocator]`;
//! the allocations of one cold compile of each
//! paper kernel; and the bytes the wire decoder allocates for a frame,
//! whatever the frame claims about its own lengths.
//!
//! The steady-state launch path is supposed to clone nothing it does not
//! send and to reuse the storage it needs; this pins the number so a
//! stray `clone()` of a device record or a per-call `Vec` shows up as a
//! test failure rather than as a fraction of a microsecond nobody
//! attributes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use haocl::kernel::Kernel;
use haocl::{
    Buffer, CommandQueue, Context, DeviceType, MemFlags, Platform, Program, ServingPlane,
    TenantSpec,
};
use haocl_clc::{compile_with_options, AnalysisMode, CompileOptions};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{KernelRegistry, NdRange};
use haocl_proto::messages::{ApiCall, ApiReply, Envelope, Request, Response};
use haocl_proto::wire::{decode_from_segments, decode_from_slice, Decode};
use haocl_sched::policies::HeteroAware;
use haocl_workloads::{bfs, cfd, knn, matmul, spmv};

/// Calls to `alloc`/`realloc`, from any thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes those calls asked for (a `realloc` counts its new size whole).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Those of them for [`LARGE`] bytes or more.
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// What counts as a bulk-sized allocation: a fraction of a 1 MiB payload,
/// far above any message head.
const LARGE: usize = 64 << 10;

struct Counting;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide, so the two cases must not overlap.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ITEMS: usize = 64;

const SAXPY: &str = "\
__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
";

/// The same update written back to front: `y[n - 1 - i]` is no shape the
/// VM can prove each item's own, so its chunks check who touches what —
/// a second root table for the launch, and a shadow and a list of what
/// was touched that its four chunks share.
const REVERSED: &str = "\
__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        int j = n - 1 - i;
        y[j] = a * x[j] + y[j];
    }
}
";

/// Allocations per launch of a 64-item saxpy built from `source`,
/// `enqueue_nd_range_kernel` + `Event::wait`, alternating between the
/// queues of the first two devices of an `nodes`-node GPU cluster.
fn allocations_per_launch(source: &str, nodes: usize, warm_up: usize, measured: usize) -> f64 {
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(nodes), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, source);
    program.build().unwrap();
    let init: Vec<u8> = (0..ITEMS).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let lanes: Vec<(CommandQueue, Kernel, Buffer)> = devices[..2]
        .iter()
        .map(|device| {
            let queue = CommandQueue::new(&ctx, device).unwrap();
            let x = Buffer::new(&ctx, MemFlags::READ_ONLY, 4 * ITEMS as u64).unwrap();
            let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 4 * ITEMS as u64).unwrap();
            queue.enqueue_write_buffer(&x, 0, &init).unwrap();
            queue.enqueue_write_buffer(&y, 0, &init).unwrap();
            let kernel = Kernel::new(&program, "saxpy").unwrap();
            kernel.set_arg_buffer(0, &x).unwrap();
            kernel.set_arg_buffer(1, &y).unwrap();
            kernel.set_arg_f32(2, 0.0).unwrap();
            kernel.set_arg_i32(3, ITEMS as i32).unwrap();
            (queue, kernel, y)
        })
        .collect();
    let range = NdRange::linear(ITEMS as u64, ITEMS as u64);
    let launch = |i: usize| {
        let (queue, kernel, _) = &lanes[i % lanes.len()];
        let event = queue.enqueue_nd_range_kernel(kernel, range).unwrap();
        event.wait().unwrap();
        assert!(event.instructions() > 0, "launch did not run in the VM");
    };
    for i in 0..warm_up {
        launch(i);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..measured {
        launch(i);
    }
    let per_launch = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / measured as f64;
    // `a` is zero, so `y` must read back exactly as written.
    for (queue, _, y) in &lanes {
        let mut out = vec![0u8; 4 * ITEMS];
        queue.enqueue_read_buffer(y, 0, &mut out).unwrap();
        assert_eq!(out, init, "saxpy with a = 0 changed y");
    }
    per_launch
}

#[test]
fn a_small_launch_makes_at_most_17_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let per_launch = allocations_per_launch(SAXPY, 2, 2_000, 20_000);
    println!("allocations per launch, 2 nodes: {per_launch:.2}");
    // 14 measured: the device checks buffers out into storage it keeps,
    // and a received frame is handed over as it was sent, with no list
    // of reassembled frames around it.
    assert!(
        per_launch <= 17.0,
        "{per_launch:.2} allocations per launch, more than 17"
    );
}

#[test]
fn a_launch_that_checks_ownership_makes_at_most_23_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let per_launch = allocations_per_launch(REVERSED, 2, 2_000, 20_000);
    println!("allocations per launch with a serial buffer, 2 nodes: {per_launch:.2}");
    // 19 measured: the 14 above, the launch's second root table, the
    // shadow's buffer list and `y`'s owner bytes, and the touched list
    // growing to a chunk's 16 elements — per launch, not per chunk.
    assert!(
        per_launch <= 23.0,
        "{per_launch:.2} allocations per launch, more than 23"
    );
}

/// XORs `v` into the first `n` words.
const TOUCH: &str = "\
__kernel void touch(__global uint* b, uint v, int n) {
    int i = get_global_id(0);
    if (i < n) {
        b[i] = b[i] ^ v;
    }
}
";

/// A bulk op — 1 MiB written to device 0, a touch there, a touch on
/// device 1 (which pulls the buffer over node to node), 1 MiB read back
/// from device 1 — moves its payload as views and lands it in storage
/// that already exists: every copy goes into a buffer the host, a device
/// or the caller keeps, so none allocates.
#[test]
fn a_bulk_transfer_op_makes_no_large_allocations() {
    const MIB: usize = 1 << 20;
    const WORDS: u64 = 64;
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(&ctx, TOUCH);
    program.build().unwrap();
    let kernel = Kernel::new(&program, "touch").unwrap();
    let queues: Vec<CommandQueue> = devices[..2]
        .iter()
        .map(|device| CommandQueue::new(&ctx, device).unwrap())
        .collect();
    let buffer = Buffer::new(&ctx, MemFlags::READ_WRITE, MIB as u64).unwrap();
    kernel.set_arg_buffer(0, &buffer).unwrap();
    kernel.set_arg_i32(2, WORDS as i32).unwrap();
    let mut payload: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
    let mut readback = vec![0u8; MIB];
    let mut op = |i: usize| {
        payload[..8].copy_from_slice(&(i as u64).to_le_bytes());
        queues[0]
            .enqueue_write_buffer(&buffer, 0, &payload)
            .unwrap();
        // The same mask twice: the bytes come back as written.
        kernel.set_arg_u32(1, i as u32 | 1).unwrap();
        for queue in &queues {
            let event = queue
                .enqueue_nd_range_kernel(&kernel, NdRange::linear(WORDS, WORDS))
                .unwrap();
            event.wait().unwrap();
        }
        queues[1]
            .enqueue_read_buffer(&buffer, 0, &mut readback)
            .unwrap();
        assert!(readback == payload, "op {i} read back other bytes");
    };
    for i in 0..4 {
        op(i);
    }
    let (ops, before) = (32, LARGE_ALLOCATIONS.load(Ordering::Relaxed));
    for i in 0..ops {
        op(i);
    }
    let per_op = (LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / ops as f64;
    println!("allocations of {LARGE} bytes or more per bulk op: {per_op:.2}");
    assert_eq!(per_op, 0.0, "a bulk op allocated {per_op:.2} large blocks");
}

/// The paper apps' shape — every round creates 1 MiB buffers on both
/// devices, writes them whole, launches on them, reads the result back
/// and drops them — takes its storage from the spare list and gives it
/// back: no large allocation, and the list holds no more afterwards.
/// (Storage an adopted write displaced once piled up there instead,
/// while the host allocated every shadow afresh.)
#[test]
fn a_round_of_whole_written_buffers_recycles_its_storage() {
    const MIB: usize = 1 << 20;
    const WORDS: u64 = 64;
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(&platform, &devices).unwrap();
    let program = Program::from_source(
        &ctx,
        "__kernel void add(__global const uint* x, __global uint* y, int n) {
            int i = get_global_id(0);
            if (i < n) { y[i] = y[i] + x[i]; }
        }",
    );
    program.build().unwrap();
    let kernel = Kernel::new(&program, "add").unwrap();
    kernel.set_arg_i32(2, WORDS as i32).unwrap();
    let queues: Vec<CommandQueue> = devices[..2]
        .iter()
        .map(|device| CommandQueue::new(&ctx, device).unwrap())
        .collect();
    let input: Vec<u8> = (0..MIB).map(|i| (i % 7) as u8).collect();
    let mut out = vec![0u8; MIB];
    let mut round = || {
        for queue in &queues {
            let x = Buffer::new(&ctx, MemFlags::READ_ONLY, MIB as u64).unwrap();
            let y = Buffer::new(&ctx, MemFlags::READ_WRITE, MIB as u64).unwrap();
            queue.enqueue_write_buffer(&x, 0, &input).unwrap();
            queue.enqueue_write_buffer(&y, 0, &input).unwrap();
            kernel.set_arg_buffer(0, &x).unwrap();
            kernel.set_arg_buffer(1, &y).unwrap();
            let event = queue
                .enqueue_nd_range_kernel(&kernel, NdRange::linear(WORDS, WORDS))
                .unwrap();
            event.wait().unwrap();
            queue.enqueue_read_buffer(&y, 0, &mut out).unwrap();
            let word = |at: usize| u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            let sent = |at: usize| u32::from_le_bytes(input[at..at + 4].try_into().unwrap());
            assert_eq!(word(4), 2 * sent(4), "y = y + x");
            assert!(out[4 * WORDS as usize..] == input[4 * WORDS as usize..]);
        }
    };
    for _ in 0..4 {
        round();
    }
    let idle = haocl_device::memory::spare::idle_bytes();
    let (rounds, before) = (16, LARGE_ALLOCATIONS.load(Ordering::Relaxed));
    for _ in 0..rounds {
        round();
    }
    let per_round = (LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / rounds as f64;
    let grown = haocl_device::memory::spare::idle_bytes() as i64 - idle as i64;
    println!("allocations of {LARGE} bytes or more per round: {per_round:.2}, spare list grew {grown} bytes");
    assert_eq!(
        per_round, 0.0,
        "a round allocated {per_round:.2} large blocks"
    );
    assert!(grown <= 0, "the spare list grew by {grown} bytes");
}

#[test]
fn allocations_per_launch_do_not_grow_with_the_cluster() {
    // `HostRuntime::devices()` clones every device record; on the launch
    // path that is 2 strings per device of the whole cluster, several
    // times per launch.
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let small = allocations_per_launch(SAXPY, 2, 500, 4_000);
    let large = allocations_per_launch(SAXPY, 16, 500, 4_000);
    println!("allocations per launch, 2 nodes: {small:.2}, 16 nodes: {large:.2}");
    assert!(
        large <= small + 1.0,
        "{large:.2} allocations per launch on 16 nodes against {small:.2} on 2"
    );
}

/// Allocations per `ServingPlane::dispatch_one` of a queued 64-item
/// saxpy, one tenant on a 2-node GPU cluster placing through
/// `HeteroAware`: the placement, its audit row, the launch and its
/// wait. Submissions happen outside the counted window.
fn allocations_per_dispatch(warm_up: usize, measured: usize) -> f64 {
    const BATCH: usize = 16;
    let platform =
        Platform::cluster(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(HeteroAware::new())).unwrap();
    let session = plane.open_session(TenantSpec::new("tenant0"));
    let program = Program::from_source(&ctx, SAXPY);
    program.build().unwrap();
    let init: Vec<u8> = (0..ITEMS).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let x = session
        .create_buffer(MemFlags::READ_ONLY, 4 * ITEMS as u64)
        .unwrap();
    let y = session
        .create_buffer(MemFlags::READ_WRITE, 4 * ITEMS as u64)
        .unwrap();
    let stage = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
    stage.enqueue_write_buffer(&x, 0, &init).unwrap();
    stage.enqueue_write_buffer(&y, 0, &init).unwrap();
    let kernel = Kernel::new(&program, "saxpy").unwrap();
    kernel.set_arg_buffer(0, &x).unwrap();
    kernel.set_arg_buffer(1, &y).unwrap();
    kernel.set_arg_f32(2, 0.0).unwrap();
    kernel.set_arg_i32(3, ITEMS as i32).unwrap();
    let range = NdRange::linear(ITEMS as u64, ITEMS as u64);
    // Dispatches `n` launches in batches; returns the allocations made
    // inside `dispatch_one`.
    let run = |n: usize| {
        let mut made = 0;
        for _ in 0..n / BATCH {
            for _ in 0..BATCH {
                session.submit(&kernel, range).unwrap();
            }
            for _ in 0..BATCH {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let (_, event, _) = plane.dispatch_one().unwrap().expect("one launch queued");
                made += ALLOCATIONS.load(Ordering::Relaxed) - before;
                assert!(event.instructions() > 0, "launch did not run in the VM");
            }
        }
        made
    };
    run(warm_up);
    let per_dispatch = run(measured) as f64 / measured as f64;
    let mut out = vec![0u8; 4 * ITEMS];
    stage.enqueue_read_buffer(&y, 0, &mut out).unwrap();
    assert_eq!(out, init, "saxpy with a = 0 changed y");
    per_dispatch
}

#[test]
fn a_serving_plane_dispatch_makes_19_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let per_dispatch = allocations_per_dispatch(1_024, 8_192);
    println!("allocations per dispatch_one, 2 nodes: {per_dispatch:.2}");
    // 19 measured, 14 of them a raw launch's.
    assert!(
        per_dispatch < 20.0,
        "{per_dispatch:.2} allocations per dispatch, more than 19"
    );
}

/// Allocations of one `WarnOnly` compile — what every node's
/// `BuildProgram` runs — of each paper workload's kernel source, pinned
/// exactly: a `clone()` or a per-token `String` on the cold path fails
/// here instead of hiding in timing noise. The count is deterministic;
/// the least of a few compiles keeps out whatever the test harness
/// allocates on its own threads meanwhile.
#[test]
fn a_cold_compile_makes_a_pinned_number_of_allocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let options = CompileOptions {
        analysis: AnalysisMode::WarnOnly,
    };
    let sources = [
        ("matmul", matmul::KERNEL_SOURCE),
        ("cfd", cfd::KERNEL_SOURCE),
        ("knn", knn::KERNEL_SOURCE),
        ("bfs", bfs::KERNEL_SOURCE),
        ("spmv", spmv::KERNEL_SOURCE),
    ];
    let counts: Vec<(&str, u64)> = sources
        .iter()
        .map(|&(name, source)| {
            let least = (0..5)
                .map(|_| {
                    let before = ALLOCATIONS.load(Ordering::Relaxed);
                    let program = compile_with_options(source, &options).unwrap();
                    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
                    drop(program);
                    made
                })
                .min()
                .unwrap();
            (name, least)
        })
        .collect();
    println!("allocations per cold compile: {counts:?}");
    // Before the lexer borrowed identifiers, the AST borrowed names and
    // the analyzer stopped cloning states and scopes: 490, 1 674, 1 365,
    // 631 and 516.
    assert_eq!(
        counts,
        [
            ("matmul", 161),
            ("cfd", 610),
            ("knn", 427),
            ("bfs", 246),
            ("spmv", 215)
        ]
    );
}

/// Bytes a decode may allocate per byte of its frame: `decode_from_slice`
/// copies the frame (1×), and a decoded value takes at most 3× its
/// encoding in memory — the densest is a list of empty strings, 8 bytes
/// each on the wire (the length prefix) and 24 in memory.
const BYTES_PER_FRAME_BYTE: u64 = 4;

/// Bytes a decode may allocate whatever the frame's length: a list's
/// length prefix reserves at most 4 096 elements before the elements
/// themselves are read, and no wire element type is 128 bytes in memory.
/// It also covers the few dozen bytes every decode spends on the shared
/// buffer a frame is read from.
const FIXED_ALLOWANCE: u64 = 4_096 * 128;

/// The bytes allocated while decoding `frame` as a `T` twice — from a
/// slice and from one segment — whatever the outcome.
fn decode_bytes<T: Decode>(frame: &[u8]) -> [u64; 2] {
    let segment = haocl_proto::Bytes::copy_from_slice(frame);
    let measure = |decode: &dyn Fn()| {
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        decode();
        ALLOCATED_BYTES.load(Ordering::Relaxed) - before
    };
    [
        measure(&|| drop(decode_from_slice::<T>(frame))),
        measure(&|| drop(decode_from_segments::<T>([segment.clone()]))),
    ]
}

/// Every line of the golden wire corpus, every prefix of each, and each
/// with a length of `u32::MAX` written over every 8 bytes in turn — so
/// over every length prefix it holds — decodes within
/// [`BYTES_PER_FRAME_BYTE`] × its length + [`FIXED_ALLOWANCE`].
#[test]
fn no_frame_makes_the_decoder_allocate_more_than_a_multiple_of_its_length() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = include_str!("../crates/proto/fixtures/wire_golden.txt");
    // How many frames were decoded, and the most any one took of the
    // allowance.
    let (mut frames, mut most) = (0, 0);
    for line in corpus.lines() {
        let (label, hex) = line.split_once(' ').expect("`label hex`");
        let golden: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let decode = match label.split([':', '.']).next().unwrap() {
            "ApiCall" => decode_bytes::<ApiCall>,
            "ApiReply" => decode_bytes::<ApiReply>,
            "Request" => decode_bytes::<Request>,
            "Response" => decode_bytes::<Response>,
            "Envelope" => decode_bytes::<Envelope>,
            other => panic!("no decoder for corpus label {other}"),
        };
        let prefixes = (0..golden.len()).map(|n| golden[..n].to_vec());
        let huge = (0..golden.len().saturating_sub(7)).map(|at| {
            let mut frame = golden.clone();
            frame[at..at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
            frame
        });
        for frame in std::iter::once(golden.clone()).chain(prefixes).chain(huge) {
            let len = frame.len() as u64;
            for allocated in decode(&frame) {
                frames += 1;
                most = most.max(allocated.saturating_sub(BYTES_PER_FRAME_BYTE * len));
                assert!(
                    allocated <= BYTES_PER_FRAME_BYTE * len + FIXED_ALLOWANCE,
                    "{label}: a {len}-byte frame made the decoder allocate {allocated} bytes"
                );
            }
        }
    }
    println!(
        "{frames} decodes: at most {most} bytes above {BYTES_PER_FRAME_BYTE} x the frame length \
         (allowance {FIXED_ALLOWANCE})"
    );
}
