//! The Node Management Process (paper §III-D).
//!
//! "The daemon process runs on each device (accelerator) node for the
//! actual execution of OpenCL API calls." Each NMP binds a *message*
//! listener and a *data* listener (§III-C), accepts connections
//! asynchronously, and for each incoming package unpacks it, executes it
//! against the node's simulated devices and replies.
//!
//! The NMP is two layers. [`node`] is what a package does to the node: a
//! function from request to reply, with no lock, socket, thread or wall
//! clock in it. This module is the driver around it: the accept loops,
//! one serve thread per connection, the lock that the node's two
//! listeners share, the peer dial, and the wall clock on shipped spans.
//!
//! FPGA devices refuse online source builds; their kernels come from the
//! node's bitstream [`KernelRegistry`] via
//! [`haocl_proto::messages::ApiCall::LoadBitstream`].
//!
//! # Peer data-plane transfers
//!
//! [`ApiCall::PushBufferTo`] / [`ApiCall::PullBufferFrom`] move buffer
//! contents *directly* between two NMPs: the host still packages and
//! delivers the command (preserving §III-A's single-host architecture),
//! but the bulk bytes take one node→node hop instead of relaying through
//! the host's shadow copy. For such a call the node does not answer at
//! once: it returns a [`Step::Hop`] — the inner request for the peer's
//! data listener, and what it needs to finish when the peer answers. The
//! driver, not the node, releases the node lock around the hop, so a
//! co-located peer (or the node itself, over loopback) can serve the
//! inner request, then locks again to resume the node with the answer.

mod node;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use haocl_kernel::KernelRegistry;
use haocl_net::{host_name_of, Conn, Fabric, Listener, NetError};
use haocl_obs::names;
use haocl_proto::messages::{status, ApiCall, ApiReply, Envelope, Request, Response};
use haocl_proto::wire::{decode_from_segments, encode_segmented};
use haocl_sim::SimTime;

use crate::config::NodeSpec;
use crate::error::ClusterError;
use node::{err_reply, Node, PeerHop, Step};

/// How often blocking loops check the stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Wall-clock patience for the peer's answer during an NMP→NMP transfer.
/// On expiry the transfer fails with an error reply and the host falls
/// back to relaying the bytes through its own shadow, so this bounds how
/// long a serve thread can stall on an unresponsive peer. It must stay
/// *shorter* than the host's recovery escalation window (base timeout
/// through `max_attempts` retransmissions): a stalled peer hop blocks
/// this node's serve thread, and if the block outlives the host's
/// patience the host concludes the node itself died and fails it over —
/// turning one dropped peer frame into a spurious cluster reroute. The
/// fabric moves frames instantly in real time (only *virtual* time is
/// charged), so a healthy hop answers in microseconds and this margin is
/// pure fault headroom.
const PEER_PATIENCE: Duration = Duration::from_millis(100);

/// What a serve thread needs to execute peer data-plane transfers: a
/// fabric handle to dial the peer's data listener, and this node's host
/// name so outbound frames serialize on its own NIC — and take the free
/// loopback path when the peer is co-located.
struct PeerCtx {
    fabric: Fabric,
    host_name: String,
    /// One idle data connection per peer address, kept between
    /// transfers: [`peer_round_trip`] takes it for the hop and puts it
    /// back only after a clean reply, so whatever a fault did to a
    /// connection dies with it and the next transfer dials afresh.
    idle: Mutex<HashMap<String, Conn>>,
}

/// The programs and kernel handles a node holds, counted: what every
/// build and `clCreateKernel` adds and `ReleaseProgram` frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeObjects {
    /// Built programs, one per device each is built for.
    pub programs: usize,
    /// Kernel handles.
    pub kernels: usize,
}

/// A running NMP: its listener threads and stop control.
///
/// Dropping the handle stops the daemon and joins its threads.
pub struct NmpHandle {
    name: String,
    addr: String,
    node: Arc<Mutex<Node>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Serve-thread handles the accept loops currently hold (spawned and
    /// not yet joined).
    tracked_serve_threads: Arc<AtomicUsize>,
}

impl NmpHandle {
    /// Spawns the NMP for `spec` on `fabric`, with `registry` as its
    /// bitstream store.
    ///
    /// Binds the message listener at `spec.addr` and the data listener at
    /// `spec.data_addr()`, then serves until stopped.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Net`] if either address is already bound.
    pub fn spawn(
        fabric: &Fabric,
        spec: &NodeSpec,
        registry: KernelRegistry,
    ) -> Result<Self, ClusterError> {
        let node = Arc::new(Mutex::new(Node::new(spec, registry)));
        let stop = Arc::new(AtomicBool::new(false));
        let peer = Arc::new(PeerCtx {
            fabric: fabric.clone(),
            host_name: host_name_of(&spec.addr),
            idle: Mutex::new(HashMap::new()),
        });
        let tracked_serve_threads = Arc::new(AtomicUsize::new(0));
        let threads = [fabric.bind(&spec.addr)?, fabric.bind(&spec.data_addr())?]
            .into_iter()
            .map(|listener| {
                spawn_accept_loop(
                    listener,
                    Arc::clone(&node),
                    Arc::clone(&stop),
                    Arc::clone(&peer),
                    Arc::clone(&tracked_serve_threads),
                )
            })
            .collect();
        Ok(NmpHandle {
            name: spec.name.clone(),
            addr: spec.addr.clone(),
            node,
            stop,
            threads,
            tracked_serve_threads,
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message-listener address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The objects the node holds right now.
    pub fn objects(&self) -> NodeObjects {
        self.node.lock().objects()
    }

    /// Serve threads the accept loops have spawned and not yet joined:
    /// one per live connection, plus those that ended since the last
    /// accept tick.
    pub fn serve_threads(&self) -> usize {
        self.tracked_serve_threads.load(Ordering::Relaxed)
    }

    /// Stops the daemon and joins its threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NmpHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for NmpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NmpHandle({} @ {})", self.name, self.addr)
    }
}

/// Copies the VM's lockstep self-report into `metrics` as
/// `haocl_vm_lockstep_{chunks,splits,rejoins,masked,aborts,refused}_total`.
/// The VM counts in plain atomics, process-wide, so this runs when
/// somebody scrapes and the series speak for every node this process hosts.
pub fn export_vm_metrics(metrics: &haocl_obs::Registry) {
    let stats = haocl_clc::vm::lockstep_stats();
    metrics.advance_counter(names::VM_LOCKSTEP_CHUNKS, &[], stats.chunks);
    metrics.advance_counter(names::VM_LOCKSTEP_REJOINS, &[], stats.rejoins);
    metrics.advance_counter(names::VM_LOCKSTEP_MASKED, &[], stats.masked);
    let by_label = [
        (names::VM_LOCKSTEP_SPLITS, "cause", &stats.splits[..]),
        (names::VM_LOCKSTEP_ABORTS, "cause", &stats.aborts[..]),
        (names::VM_LOCKSTEP_REFUSED, "reason", &stats.refused[..]),
    ];
    for (name, label, counts) in by_label {
        for &(value, n) in counts {
            metrics.advance_counter(name, &[(label, value)], n);
        }
    }
}

fn spawn_accept_loop(
    listener: Listener,
    node: Arc<Mutex<Node>>,
    stop: Arc<AtomicBool>,
    peer: Arc<PeerCtx>,
    tracked: Arc<AtomicUsize>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Serve threads are tracked so the accept loop can join them
        // (the paper's per-message thread model, §III-C): the finished
        // ones on every tick — a thread's stack mapping lives until it
        // is joined, and thousands of short-lived connections must not
        // pile those up — the rest on shutdown.
        let mut serving: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let accepted = listener.accept_timeout(POLL);
            while let Some(done) = serving.iter().position(JoinHandle::is_finished) {
                let _ = serving.swap_remove(done).join();
                tracked.fetch_sub(1, Ordering::Relaxed);
            }
            match accepted {
                Ok(conn) => {
                    let node = Arc::clone(&node);
                    let stop = Arc::clone(&stop);
                    let peer = Arc::clone(&peer);
                    serving.push(std::thread::spawn(move || serve(conn, node, stop, peer)));
                    tracked.fetch_add(1, Ordering::Relaxed);
                }
                Err(NetError::Timeout) => {}
                Err(_) => break,
            }
        }
        for t in serving {
            let _ = t.join();
            tracked.fetch_sub(1, Ordering::Relaxed);
        }
    })
}

/// One connection's serve loop, and the only code that locks the node.
///
/// It locks the node for [`Node::handle`] and unlocks it. On a
/// [`Step::Hop`] it runs [`peer_round_trip`] with no lock held — the
/// peer may be this node over loopback, whose own serve thread needs the
/// lock to answer — then locks again for [`Node::resume`]. Duplicates of
/// one id arrive in order on one connection, so releasing the lock in
/// between cannot let a transfer execute twice: the second copy finds the
/// first's response in the journal.
fn serve(mut conn: Conn, node: Arc<Mutex<Node>>, stop: Arc<AtomicBool>, peer: Arc<PeerCtx>) {
    while !stop.load(Ordering::SeqCst) {
        let (frame, arrival) = match conn.recv_frame_timeout(POLL) {
            Ok(x) => x,
            Err(NetError::Timeout) => continue,
            Err(_) => break,
        };
        // One frame, one request, one response frame.
        let Envelope::Single(request) = match decode_from_segments(frame) {
            Ok(e) => e,
            // A malformed package: drop the connection, as a real daemon
            // would after a framing-level protocol violation.
            Err(_) => break,
        };
        let is_shutdown = matches!(request.body, ApiCall::Shutdown);
        // `handle` consumes the request, so a write's payload — a view of
        // the sender's storage — is gone before the reply leaves, and the
        // host gets its shadow back unshared.
        let (step, started) = {
            let mut node = node.lock();
            // Wall clock is legal here: it never feeds virtual-time
            // accounting, only the `wall_nanos` of shipped spans — the
            // node's own work, from `handle` through any `resume`.
            let started = request.traced().then(Instant::now);
            (node.handle(request, arrival), started)
        };
        let mut response = match step {
            Step::Reply(response) => response,
            Step::Hop(inner, hop) => {
                let answer = peer_round_trip(&peer, &hop, inner);
                node.lock().resume(hop, answer)
            }
        };
        if let Some(started) = started {
            let wall_nanos = started.elapsed().as_nanos() as u64;
            for span in &mut response.spans {
                span.wall_nanos = wall_nanos;
            }
        }
        let send_at = response.completed_at_nanos;
        // Modeled data replies stand in for bulk payloads: charge the
        // return link as if the bytes were on it.
        let virtual_len = match &response.body {
            ApiReply::DataModeled { len } => *len,
            _ => 0,
        };
        // The reply goes as it is encoded: a read's view of device memory
        // then lives only in the frame, and a later write to the buffer
        // finds it unshared once the reader lets go.
        let sent = conn.send_frame_with(
            SimTime::from_nanos(send_at),
            virtual_len,
            move |head, blobs| encode_segmented(&response, head, blobs),
        );
        if sent.is_err() || is_shutdown {
            break;
        }
    }
}

/// Delivers a hop's inner request to the peer's data listener — over the
/// idle connection kept from the last transfer there, or a fresh dial —
/// and waits (bounded by [`PEER_PATIENCE`]) for its reply. The request is
/// consumed into its frame. Transport trouble comes back as `Err(error
/// reply)`: the host treats it as final for this transfer and falls back
/// to relaying the bytes through its shadow. The connection is kept for
/// the next transfer only after a clean reply; on any error or timeout it
/// is dropped here.
fn peer_round_trip(
    peer: &PeerCtx,
    hop: &PeerHop,
    inner: Request,
) -> Result<(ApiReply, SimTime), ApiReply> {
    let peer_addr = hop.peer_addr.as_str();
    let failed = |what: &str, detail: String| {
        err_reply(
            status::DEVICE_NOT_AVAILABLE,
            format!("peer {peer_addr} {what}: {detail}"),
        )
    };
    let idle = peer.idle.lock().remove(peer_addr);
    let mut conn = match idle {
        Some(conn) => conn,
        None => peer
            .fabric
            .connect(&peer.host_name, peer_addr)
            .map_err(|e| failed("is unreachable", e.to_string()))?,
    };
    let id = inner.id;
    conn.send_frame_with(hop.send_at, hop.virtual_len, |head, blobs| {
        encode_segmented(&Envelope::Single(inner), head, blobs)
    })
    .map_err(|e| failed("rejected the transfer", e.to_string()))?;
    let deadline = Instant::now() + PEER_PATIENCE;
    let (response, received_at) = loop {
        let patience = deadline.saturating_duration_since(Instant::now());
        let (frame, received_at) = conn
            .recv_frame_timeout(patience)
            .map_err(|e| failed("did not answer", e.to_string()))?;
        let response: Response = decode_from_segments(frame)
            .map_err(|e| failed("sent an undecodable reply", e.to_string()))?;
        // A kept connection may still carry the second copy of an
        // earlier reply (a duplicated frame); only ours ends the wait.
        if response.id == id {
            break (response, received_at);
        }
    };
    peer.idle.lock().insert(peer_addr.to_string(), conn);
    match response.body {
        ApiReply::Error { code, message } => Err(err_reply(code, message)),
        reply => Ok((reply, received_at)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use bytes::Bytes;
    use haocl_net::LinkModel;
    use haocl_proto::ids::{BufferId, KernelId, ProgramId, RequestId, UserId};
    use haocl_proto::messages::{Fidelity, WireArg, WireCost, WireNdRange};
    use haocl_proto::wire::encode_to_vec;
    use haocl_sim::Clock;

    fn call(conn: &mut Conn, user: u32, body: ApiCall) -> (ApiReply, SimTime) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = RequestId::new(NEXT.fetch_add(1, Ordering::Relaxed));
        let req = Request {
            id,
            user: UserId::new(user),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body,
        };
        conn.send_frame(&encode_to_vec(&Envelope::Single(req)), SimTime::ZERO)
            .unwrap();
        let (frame, _) = conn.recv_frame().unwrap();
        let resp: Response = decode_from_segments(frame).unwrap();
        assert_eq!(resp.id, id);
        (resp.body, SimTime::from_nanos(resp.completed_at_nanos))
    }

    fn launch_one_node() -> (Fabric, NmpHandle, Conn) {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(1);
        let handle = NmpHandle::spawn(&fabric, &config.nodes[0], KernelRegistry::new()).unwrap();
        let conn = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        (fabric, handle, conn)
    }

    /// The VM counts process-wide and other tests launch too, so this
    /// checks the series exist, cover this test's launches, and that a
    /// second scrape adds only what happened in between.
    #[test]
    fn vm_lockstep_counters_render_at_scrape_time() {
        use haocl_kernel::{ArgValue, GlobalBuffer, NdRange};
        let program = haocl_clc::compile(
            "__kernel void twice(__global float* y) { int i = get_global_id(0); y[i] = y[i] * 2.0f; }
             __kernel void spread(__global float* y) { int i = get_global_id(0); y[i / 2] = 1.0f; }
             __kernel void evens(__global float* y) {
                 int i = get_global_id(0);
                 if (i % 2 == 0) { y[2 * i] = 1.0f; }
                 y[2 * i + 1] = 2.0f;
             }
             __kernel void ragged(__global float* y) {
                 int i = get_global_id(0);
                 float acc = 0.0f;
                 for (int j = 0; j < i % 5; j++) { acc += 1.0f; }
                 y[i] = acc;
             }",
        )
        .unwrap();
        let range = NdRange::linear(128, 64);
        let launch = |name: &str| {
            let mut buffers = [GlobalBuffer::zeroed(8 * 128)];
            let kernel = program.kernel(name).unwrap();
            haocl_clc::vm::run_ndrange(kernel, &[ArgValue::global(0)], &mut buffers, &range)
                .unwrap();
        };
        let lanes = haocl_clc::vm::lockstep_stats().lanes;
        let metrics = haocl_obs::Registry::new();
        export_vm_metrics(&metrics);
        let (unproven, conflict) = ([("cause", "unproven")], [("cause", "conflict")]);
        let chunks = metrics.counter_value(names::VM_LOCKSTEP_CHUNKS, &[]);
        let split = metrics.counter_value(names::VM_LOCKSTEP_SPLITS, &unproven);
        let aborts = metrics.counter_value(names::VM_LOCKSTEP_ABORTS, &conflict);
        let rejoins = metrics.counter_value(names::VM_LOCKSTEP_REJOINS, &[]);
        let masked = metrics.counter_value(names::VM_LOCKSTEP_MASKED, &[]);
        launch("twice");
        // Two lanes of `spread`'s first chunk meet on an element: it undoes
        // itself, and every chunk after it splits at its one store.
        launch("spread");
        // Every lane of `evens` keeps to its own two elements: in each
        // chunk the odd lanes wait at the branch's join while the even ones
        // store, and no chunk splits at a store.
        launch("evens");
        // `ragged`'s lanes leave their loop after 0 to 4 turns, and no lane
        // touches another's element: those that leave wait at the loop's
        // exit while the rest go on masked, three times a chunk, and the
        // three lanes left for a fifth turn re-join — in every chunk but
        // the one with four of them.
        launch("ragged");
        export_vm_metrics(&metrics);
        let per_launch = 128 / lanes;
        assert!(metrics.counter_value(names::VM_LOCKSTEP_CHUNKS, &[]) >= chunks + 4 * per_launch);
        assert!(metrics.counter_value(names::VM_LOCKSTEP_MASKED, &[]) >= masked + 4 * per_launch);
        assert!(
            metrics.counter_value(names::VM_LOCKSTEP_SPLITS, &unproven) >= split + per_launch - 1
        );
        assert!(metrics.counter_value(names::VM_LOCKSTEP_ABORTS, &conflict) > aborts);
        assert!(metrics.counter_value(names::VM_LOCKSTEP_REJOINS, &[]) >= rejoins + per_launch - 1);
        let text = metrics.render();
        for series in [
            "haocl_vm_lockstep_chunks_total ",
            "haocl_vm_lockstep_splits_total{cause=\"branch\"} ",
            "haocl_vm_lockstep_splits_total{cause=\"fault\"} ",
            "haocl_vm_lockstep_splits_total{cause=\"root\"} ",
            "haocl_vm_lockstep_splits_total{cause=\"unproven\"} ",
            "haocl_vm_lockstep_rejoins_total ",
            "haocl_vm_lockstep_masked_total ",
            "haocl_vm_lockstep_aborts_total{cause=\"conflict\"} ",
            "haocl_vm_lockstep_aborts_total{cause=\"fault\"} ",
            "haocl_vm_lockstep_aborts_total{cause=\"overflow\"} ",
            "haocl_vm_lockstep_refused_total{reason=\"no_effects\"} ",
            "haocl_vm_lockstep_refused_total{reason=\"barrier\"} ",
            "haocl_vm_lockstep_refused_total{reason=\"local\"} ",
        ] {
            assert!(text.contains(series), "no `{series}` in:\n{text}");
        }
    }

    #[test]
    fn hello_reports_devices() {
        let (_f, handle, mut conn) = launch_one_node();
        let (reply, _) = call(&mut conn, 1, ApiCall::Hello { client: "t".into() });
        match reply {
            ApiReply::NodeInfo { devices } => {
                assert_eq!(devices.len(), 1);
                assert_eq!(devices[0].kind, haocl_proto::messages::DeviceKind::Gpu);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn full_kernel_flow_over_the_wire() {
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 16,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let data: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(data),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void dbl(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }"
                    .into(),
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: true, .. }));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(1),
                name: "dbl".into(),
            },
        );
        assert_eq!(r, ApiReply::KernelInfo { arity: 1 });
        let (r, t) = call(
            &mut conn,
            1,
            ApiCall::LaunchKernel {
                device: 0,
                kernel: KernelId::new(1),
                args: vec![WireArg::Buffer(buf)],
                range: WireNdRange {
                    work_dim: 1,
                    global: [4, 1, 1],
                    local: [2, 1, 1],
                },
                cost: WireCost {
                    flops: 4.0,
                    bytes_read: 16.0,
                    bytes_written: 16.0,
                    uniform: true,
                    streaming: false,
                },
                fidelity: Fidelity::Full,
                shared: false,
            },
        );
        assert!(matches!(r, ApiReply::LaunchDone { .. }));
        assert!(t > SimTime::ZERO);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                len: 16,
            },
        );
        match r {
            ApiReply::Data { bytes } => {
                let vals: Vec<f32> = bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                assert_eq!(vals, vec![2.0, 4.0, 6.0, 8.0]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Profile now shows the launch.
        let (r, _) = call(&mut conn, 1, ApiCall::QueryProfile);
        match r {
            ApiReply::Profile { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].kernel, "dbl");
                assert_eq!(entries[0].runs, 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn build_failure_returns_log() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void broken( {".into(),
            },
        );
        match r {
            ApiReply::BuildLog { ok, log, reports } => {
                assert!(!ok);
                assert!(log.contains("error"));
                assert!(reports.is_empty());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn build_reply_carries_kernel_reports() {
        let (_f, handle, mut conn) = launch_one_node();
        // A divergent barrier: the node compiles WarnOnly, so the build
        // succeeds but the report carries the error for host-side policy.
        let src = r#"__kernel void div(__global int* a) {
            __local int tmp[4];
            if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
            tmp[0] = 1;
            a[get_global_id(0)] = tmp[0];
        }"#;
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: src.into(),
            },
        );
        match r {
            ApiReply::BuildLog { ok, log, reports } => {
                assert!(ok, "WarnOnly build must succeed on the node");
                assert!(log.contains("barrier divergence"), "{log}");
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].kernel, "div");
                assert!(reports[0].errors >= 1);
                assert_eq!(reports[0].barrier_count, 1);
                assert_eq!(reports[0].local_bytes, 16);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn fpga_rejects_source_build_but_loads_bitstreams() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::fpga_cluster(1);
        let registry = KernelRegistry::new();
        registry.register_source("__kernel void nop() {}").unwrap();
        let handle = NmpHandle::spawn(&fabric, &config.nodes[0], registry).unwrap();
        let mut conn = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void f() {}".into(),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_OPERATION));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::LoadBitstream {
                device: 0,
                program: ProgramId::new(2),
                kernels: vec!["nop".into()],
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: true, .. }));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::LoadBitstream {
                device: 0,
                program: ProgramId::new(3),
                kernels: vec!["missing".into()],
            },
        );
        assert!(matches!(r, ApiReply::BuildLog { ok: false, .. }));
        handle.stop();
    }

    #[test]
    fn unknown_objects_yield_opencl_codes() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::ReleaseBuffer {
                device: 0,
                buffer: BufferId::new(42),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_MEM_OBJECT));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(9),
                name: "f".into(),
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_PROGRAM));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 7,
                buffer: BufferId::new(1),
                size: 4,
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_DEVICE));
        // A fused frame with fewer than two parts is malformed, whatever
        // its part names; the same part as a lone launch gets as far as
        // the kernel lookup.
        let part = haocl_proto::messages::WireLaunchPart {
            kernel: KernelId::new(404),
            args: Vec::new(),
            range: WireNdRange {
                work_dim: 1,
                global: [1, 1, 1],
                local: [1, 1, 1],
            },
            cost: WireCost {
                flops: 0.0,
                bytes_read: 0.0,
                bytes_written: 0.0,
                uniform: true,
                streaming: false,
            },
        };
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::LaunchFused {
                device: 0,
                fidelity: Fidelity::Full,
                shared: false,
                parts: vec![part.clone()],
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_VALUE));
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::launch(0, Fidelity::Full, false, vec![part]),
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_KERNEL));
        handle.stop();
    }

    /// `Envelope` tag 1 (several requests in one frame) is retired: a
    /// node fed such a frame hangs up before executing any of it.
    #[test]
    fn retired_batch_envelope_hangs_up_without_executing() {
        let (fabric, handle, _conn) = launch_one_node();
        let refused = |frame: &[u8]| {
            let mut conn = fabric.connect("10.0.0.1", handle.addr()).unwrap();
            conn.send_frame(frame, SimTime::ZERO).unwrap();
            assert_eq!(conn.recv_frame().err(), Some(NetError::Disconnected));
        };
        // The three-request batch the golden corpus used to carry.
        let fixture = include_str!("../../../proto/fixtures/wire_retired.txt");
        let hex = fixture.trim_end().split_once(' ').expect("`label hex`").1;
        let recorded: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        refused(&recorded);
        // A batch of one mutation, which would leave a mark if it ran.
        let create = ApiCall::CreateBuffer {
            device: 0,
            buffer: BufferId::new(5),
            size: 64,
        };
        let mut batch = vec![1u8];
        batch.extend_from_slice(&1u64.to_le_bytes());
        batch.extend_from_slice(&encode_to_vec(&Request {
            id: RequestId::new(100),
            user: UserId::new(1),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body: create.clone(),
        }));
        refused(&batch);
        // The node itself is fine, and the buffer was never created.
        let mut conn = fabric.connect("10.0.0.1", handle.addr()).unwrap();
        let (r, _) = call(&mut conn, 1, ApiCall::Ping);
        assert!(matches!(r, ApiReply::Pong { .. }));
        let (r, _) = call(&mut conn, 1, create);
        assert_eq!(r, ApiReply::Ack);
        handle.stop();
    }

    #[test]
    fn shutdown_message_closes_connection() {
        let (_f, handle, mut conn) = launch_one_node();
        let (r, _) = call(&mut conn, 1, ApiCall::Shutdown);
        assert_eq!(r, ApiReply::Ack);
        handle.stop();
    }

    #[test]
    fn two_connections_share_node_state() {
        let (f, handle, mut conn1) = launch_one_node();
        let mut conn2 = f.connect("10.0.0.9", handle.addr()).unwrap();
        let (r, _) = call(
            &mut conn1,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(5),
                size: 64,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        // Second user sees the same buffer (duplicate creation fails).
        let (r, _) = call(
            &mut conn2,
            2,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(5),
                size: 64,
            },
        );
        assert!(matches!(r, ApiReply::Error { code, .. } if code == status::INVALID_VALUE));
        handle.stop();
    }

    /// Sends a request with an explicit correlation id and attempt number,
    /// returning the whole response (the dedup tests inspect `duplicate`).
    fn call_raw(conn: &mut Conn, id: u64, attempt: u32, body: ApiCall) -> Response {
        let req = Request {
            id: RequestId::new(id),
            user: UserId::new(1),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt,
            body,
        };
        conn.send_frame(&encode_to_vec(&Envelope::Single(req)), SimTime::ZERO)
            .unwrap();
        let (frame, _) = conn.recv_frame().unwrap();
        decode_from_segments(frame).unwrap()
    }

    #[test]
    fn retried_mutations_are_answered_from_the_journal() {
        let (_f, handle, mut conn) = launch_one_node();
        let create = ApiCall::CreateBuffer {
            device: 0,
            buffer: BufferId::new(1),
            size: 16,
        };
        let first = call_raw(&mut conn, 9000, 0, create.clone());
        assert_eq!(first.body, ApiReply::Ack);
        assert!(!first.duplicate);
        // A retransmission of the same request id must NOT re-execute:
        // re-running CreateBuffer would fail with INVALID_VALUE, but the
        // journal replays the original Ack and flags the dedup.
        let retry = call_raw(&mut conn, 9000, 1, create);
        assert_eq!(retry.body, ApiReply::Ack);
        assert!(retry.duplicate, "second delivery served from journal");
        assert_eq!(retry.completed_at_nanos, first.completed_at_nanos);
        handle.stop();
    }

    #[test]
    fn duplicated_launch_runs_the_kernel_exactly_once() {
        let (_f, handle, mut conn) = launch_one_node();
        let r = call_raw(
            &mut conn,
            9100,
            0,
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void tick(__global float* a) { a[get_global_id(0)] += 1.0f; }"
                    .into(),
            },
        );
        assert!(matches!(r.body, ApiReply::BuildLog { ok: true, .. }));
        let r = call_raw(
            &mut conn,
            9101,
            0,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(1),
                size: 16,
            },
        );
        assert_eq!(r.body, ApiReply::Ack);
        let r = call_raw(
            &mut conn,
            9102,
            0,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(1),
                program: ProgramId::new(1),
                name: "tick".into(),
            },
        );
        assert_eq!(r.body, ApiReply::KernelInfo { arity: 1 });
        let launch = ApiCall::LaunchKernel {
            device: 0,
            kernel: KernelId::new(1),
            args: vec![WireArg::Buffer(BufferId::new(1))],
            range: WireNdRange {
                work_dim: 1,
                global: [4, 1, 1],
                local: [1, 1, 1],
            },
            cost: WireCost {
                flops: 4.0,
                bytes_read: 16.0,
                bytes_written: 16.0,
                uniform: true,
                streaming: false,
            },
            fidelity: Fidelity::Full,
            shared: false,
        };
        let first = call_raw(&mut conn, 9103, 0, launch.clone());
        assert!(matches!(first.body, ApiReply::LaunchDone { .. }));
        assert!(!first.duplicate);
        let retry = call_raw(&mut conn, 9103, 1, launch);
        assert!(retry.duplicate, "retried launch served from journal");
        assert_eq!(retry.body, first.body, "cached reply is replayed verbatim");
        // The profile is the ground truth: exactly one execution happened.
        let r = call_raw(&mut conn, 9104, 0, ApiCall::QueryProfile);
        match r.body {
            ApiReply::Profile { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].kernel, "tick");
                assert_eq!(entries[0].runs, 1, "journal prevented a double run");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn push_buffer_ships_bytes_directly_to_the_peer() {
        let (fabric, config, [h0, h1], [mut c0, mut c1]) = two_nodes_with_a_buffer();
        let buf = BufferId::new(1);
        let before = fabric.stats();
        let (r, t) = call(&mut c0, 1, push_to(config.nodes[1].data_addr()));
        assert_eq!(r, ApiReply::Ack);
        assert!(t > SimTime::ZERO, "the hop costs virtual time");
        assert!(
            fabric.stats().frames > before.frames,
            "bytes crossed a real node-to-node link"
        );
        let (r, _) = call(
            &mut c1,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                len: 4,
            },
        );
        match r {
            ApiReply::Data { bytes } => assert_eq!(bytes.as_ref(), &[11u8, 22, 33, 44]),
            other => panic!("unexpected reply {other:?}"),
        }
        h0.stop();
        h1.stop();
    }

    #[test]
    fn pull_buffer_fetches_modeled_bytes_from_the_peer() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(2);
        let h0 = NmpHandle::spawn(&fabric, &config.nodes[0], KernelRegistry::new()).unwrap();
        let h1 = NmpHandle::spawn(&fabric, &config.nodes[1], KernelRegistry::new()).unwrap();
        let mut c0 = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let mut c1 = fabric.connect("10.0.0.1", &config.nodes[1].addr).unwrap();
        let buf = BufferId::new(1);
        for conn in [&mut c0, &mut c1] {
            let (r, _) = call(
                conn,
                1,
                ApiCall::CreateBufferModeled {
                    device: 0,
                    buffer: buf,
                    size: 1 << 20,
                },
            );
            assert_eq!(r, ApiReply::Ack);
        }
        // Node 0 pulls a megabyte from node 1; the descriptor frame is
        // tiny but the return hop is charged at full virtual size.
        let (r, t) = call(
            &mut c0,
            1,
            ApiCall::PullBufferFrom {
                device: 0,
                buffer: buf,
                peer_addr: config.nodes[1].data_addr(),
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 1 << 20,
                version: 3,
                epoch: 0,
                modeled: true,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let floor = LinkModel::gigabit_ethernet().transmit_time(1 << 20);
        assert!(
            t >= SimTime::ZERO + floor,
            "modeled pull charged below the link floor: {t}"
        );
        h0.stop();
        h1.stop();
    }

    #[test]
    fn self_dial_peer_transfer_completes_over_loopback() {
        // Single-node platforms push between co-located devices by
        // dialling their own data listener: the serve thread must release
        // the node-state lock around the hop or this deadlocks.
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 4,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: buf,
                offset: 0,
                data: Bytes::from(vec![9u8, 9, 9, 9]),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let data_addr = ClusterConfig::gpu_cluster(1).nodes[0].data_addr();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::PushBufferTo {
                device: 0,
                buffer: buf,
                peer_addr: data_addr,
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 4,
                version: 1,
                epoch: 0,
                modeled: false,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        handle.stop();
    }

    #[test]
    fn unreachable_peer_fails_the_transfer_cleanly() {
        let (_f, handle, mut conn) = launch_one_node();
        let buf = BufferId::new(1);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: buf,
                size: 4,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::PushBufferTo {
                device: 0,
                buffer: buf,
                peer_addr: "10.9.9.9:7101".to_string(),
                peer_device: 0,
                peer_buffer: buf,
                offset: 0,
                len: 4,
                version: 1,
                epoch: 0,
                modeled: false,
            },
        );
        assert!(
            matches!(r, ApiReply::Error { code, .. } if code == status::DEVICE_NOT_AVAILABLE),
            "unexpected reply {r:?}"
        );
        // The node survives the failed transfer and keeps serving.
        let (r, _) = call(&mut conn, 1, ApiCall::Ping);
        assert!(matches!(r, ApiReply::Pong { .. }));
        handle.stop();
    }

    /// Two GPU nodes, one 4-byte buffer on each (filled on node 0), and
    /// a message connection to each.
    fn two_nodes_with_a_buffer() -> (Fabric, ClusterConfig, [NmpHandle; 2], [Conn; 2]) {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let config = ClusterConfig::gpu_cluster(2);
        let handles = [0, 1]
            .map(|n| NmpHandle::spawn(&fabric, &config.nodes[n], KernelRegistry::new()).unwrap());
        let mut conns = [0, 1].map(|n| fabric.connect("10.0.0.1", &config.nodes[n].addr).unwrap());
        for conn in &mut conns {
            let (r, _) = call(conn, 1, create_four_bytes());
            assert_eq!(r, ApiReply::Ack);
        }
        let (r, _) = call(
            &mut conns[0],
            1,
            ApiCall::WriteBuffer {
                device: 0,
                buffer: BufferId::new(1),
                offset: 0,
                data: Bytes::from(vec![11u8, 22, 33, 44]),
            },
        );
        assert_eq!(r, ApiReply::Ack);
        (fabric, config, handles, conns)
    }

    fn create_four_bytes() -> ApiCall {
        ApiCall::CreateBuffer {
            device: 0,
            buffer: BufferId::new(1),
            size: 4,
        }
    }

    fn push_to(peer_addr: String) -> ApiCall {
        ApiCall::PushBufferTo {
            device: 0,
            buffer: BufferId::new(1),
            peer_addr,
            peer_device: 0,
            peer_buffer: BufferId::new(1),
            offset: 0,
            len: 4,
            version: 1,
            epoch: 0,
            modeled: false,
        }
    }

    #[test]
    fn peer_connection_is_kept_between_transfers() {
        let (fabric, config, [h0, h1], [mut c0, _c1]) = two_nodes_with_a_buffer();
        let peer_addr = config.nodes[1].data_addr();
        // Node 1 serves our message connection and, from the first push
        // on, node 0's data connection — one, however many pushes.
        for _ in 0..3 {
            let (r, _) = call(&mut c0, 1, push_to(peer_addr.clone()));
            assert_eq!(r, ApiReply::Ack);
            assert_eq!(h1.serve_threads(), 2);
        }
        // A duplicated inner request is answered twice; the second copy
        // sits in the kept connection and the next transfer must not
        // mistake it for its own reply.
        fabric.install_chaos(haocl_net::ChaosPolicy::new(
            7,
            haocl_net::ChaosSpec::parse("dup=1.0").unwrap(),
        ));
        let duplicated = call_raw(&mut c0, 9_001, 0, push_to(peer_addr.clone()));
        assert_eq!(duplicated.body, ApiReply::Ack);
        fabric.clear_chaos();
        // (Our own request was duplicated too: a fresh message
        // connection, so the leftovers on the old one stay out of it.)
        let mut c0 = fabric.connect("10.0.0.1", &config.nodes[0].addr).unwrap();
        let next = call_raw(&mut c0, 9_002, 0, push_to(peer_addr));
        assert_eq!(next.id, RequestId::new(9_002));
        assert_eq!(next.body, ApiReply::Ack);
        assert_eq!(h1.serve_threads(), 2, "still the one kept connection");
        h0.stop();
        h1.stop();
    }

    #[test]
    fn failed_peer_connection_is_dropped_and_redialled() {
        let (fabric, config, [h0, h1], [mut c0, c1]) = two_nodes_with_a_buffer();
        let peer_addr = config.nodes[1].data_addr();
        let (r, _) = call(&mut c0, 1, push_to(peer_addr.clone()));
        assert_eq!(r, ApiReply::Ack);
        // The peer goes away under the kept connection: the transfer
        // fails like one over a fresh dial would…
        drop(c1);
        h1.stop();
        let (r, _) = call(&mut c0, 1, push_to(peer_addr.clone()));
        assert!(
            matches!(r, ApiReply::Error { code, .. } if code == status::DEVICE_NOT_AVAILABLE),
            "unexpected reply {r:?}"
        );
        // …and nothing of it is kept: once the peer is back at the same
        // address the next transfer dials it and goes through.
        let h1 = NmpHandle::spawn(&fabric, &config.nodes[1], KernelRegistry::new()).unwrap();
        let mut c1 = fabric.connect("10.0.0.1", &config.nodes[1].addr).unwrap();
        let (r, _) = call(&mut c1, 1, create_four_bytes());
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(&mut c0, 1, push_to(peer_addr));
        assert_eq!(r, ApiReply::Ack);
        let (r, _) = call(
            &mut c1,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer: BufferId::new(1),
                offset: 0,
                len: 4,
            },
        );
        assert!(matches!(r, ApiReply::Data { bytes } if bytes == [11u8, 22, 33, 44]));
        h0.stop();
        h1.stop();
    }

    #[test]
    fn finished_serve_threads_are_joined_while_the_node_runs() {
        let maps = || std::fs::read_to_string("/proc/self/maps").map(|m| m.lines().count());
        let (fabric, handle, mut conn) = launch_one_node();
        let data_addr = ClusterConfig::gpu_cluster(1).nodes[0].data_addr();
        let (r, _) = call(&mut conn, 1, ApiCall::Ping);
        assert!(matches!(r, ApiReply::Pong { .. }));
        let maps_before = maps();
        let mut peak = 0;
        for _ in 0..2_000 {
            let mut short = fabric.connect("10.0.0.1", &data_addr).unwrap();
            let (r, _) = call(&mut short, 1, ApiCall::Ping);
            assert!(matches!(r, ApiReply::Pong { .. }));
            drop(short);
            peak = peak.max(handle.serve_threads());
        }
        // One connection stayed open throughout; the 2 000 others each
        // ended before the next began, and every accept joins what has
        // finished, so only a few handles are ever held at once (a
        // starved thread may take a few accepts to be seen finished).
        assert!(peak <= 100, "{peak} serve-thread handles held at once");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.serve_threads() > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
        assert_eq!(handle.serve_threads(), 1, "only the live connection");
        // An unjoined thread keeps its stack mapping (and guard page):
        // 2 000 of them would show as thousands of extra mappings.
        if let (Ok(before), Ok(after)) = (maps_before, maps()) {
            assert!(
                after < before + 1_000,
                "{before} mappings before, {after} after"
            );
        }
        handle.stop();
    }

    #[test]
    fn a_decoded_payload_is_the_senders_blob_and_the_head_recycles() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let listener = fabric.bind("10.0.9.1:7100").unwrap();
        let mut client = fabric.connect("10.0.0.1", "10.0.9.1:7100").unwrap();
        let mut server = listener.accept().unwrap();
        let payload = Bytes::from((0..4096).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
        let request = Envelope::Single(Request {
            id: RequestId::new(5),
            user: UserId::new(1),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body: ApiCall::WriteBuffer {
                device: 0,
                buffer: BufferId::new(1),
                offset: 0,
                data: payload.clone(),
            },
        });
        client
            .send_frame_with(SimTime::ZERO, 0, |head, blobs| {
                encode_segmented(&request, head, blobs)
            })
            .unwrap();
        let (frame, _) = server.recv_frame().unwrap();
        assert_eq!(frame.to_vec(), encode_to_vec(&request));
        let Envelope::Single(decoded) = decode_from_segments(frame).unwrap();
        let data = match decoded.body {
            ApiCall::WriteBuffer { data, .. } => data,
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(
            data.as_ptr(),
            payload.as_ptr(),
            "the payload must be the sender's storage, not a copy of it"
        );
        // The head (every byte but the payload) went back to the pool as
        // soon as the request was decoded.
        assert_eq!(fabric.pool_stats().returns, 1);
    }

    #[test]
    fn read_replies_do_not_pin_device_memory() {
        let (_fabric, handle, mut conn) = launch_one_node();
        let buffer = BufferId::new(1);
        let len = 1 << 16;
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer,
                size: len,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let write = |conn: &mut Conn, byte: u8| {
            let data = Bytes::from(vec![byte; len as usize]);
            let (r, _) = call(
                conn,
                1,
                ApiCall::WriteBuffer {
                    device: 0,
                    buffer,
                    offset: 0,
                    data,
                },
            );
            assert_eq!(r, ApiReply::Ack);
        };
        let read = |conn: &mut Conn| match call(
            conn,
            1,
            ApiCall::ReadBuffer {
                device: 0,
                buffer,
                offset: 0,
                len,
            },
        )
        .0
        {
            ApiReply::Data { bytes } => bytes,
            other => panic!("unexpected reply {other:?}"),
        };
        write(&mut conn, 1);
        // A reply is a view of device memory: a write while it is held
        // lands in a copy and leaves the view as it was…
        let held = read(&mut conn);
        write(&mut conn, 2);
        assert!(held.iter().all(|&b| b == 1));
        drop(held);
        // …and once the reader lets go, nothing on the node holds it:
        // the next write lands in place.
        let at = read(&mut conn).as_ptr();
        write(&mut conn, 3);
        let after = read(&mut conn);
        assert!(after.iter().all(|&b| b == 3));
        assert_eq!(
            after.as_ptr(),
            at,
            "the write copied a buffer nobody viewed"
        );
        handle.stop();
    }

    #[test]
    fn journaled_writes_do_not_pin_frame_buffers() {
        let (fabric, handle, mut conn) = launch_one_node();
        let (r, _) = call(
            &mut conn,
            1,
            ApiCall::CreateBuffer {
                device: 0,
                buffer: BufferId::new(1),
                size: 1 << 16,
            },
        );
        assert_eq!(r, ApiReply::Ack);
        let write = || ApiCall::WriteBuffer {
            device: 0,
            buffer: BufferId::new(1),
            offset: 0,
            data: Bytes::from(vec![3u8; 1 << 16]),
        };
        for id in 7_000..7_008 {
            assert_eq!(call_raw(&mut conn, id, 0, write()).body, ApiReply::Ack);
        }
        // Every one of those writes is in the node's journal…
        let again = call_raw(&mut conn, 7_000, 1, write());
        assert!(again.duplicate);
        drop(again);
        // …and not one frame buffer is held by it: all checkouts are
        // back (give the node's thread a moment to let go of the last
        // reply it sent).
        let all_back = || {
            let s = fabric.pool_stats();
            s.returns == s.reuses + s.misses
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !all_back() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(all_back(), "{:?}", fabric.pool_stats());
        handle.stop();
    }
}
