//! The host-side runtime.
//!
//! The host process executes the user's OpenCL program and owns the
//! cluster-facing side of the backbone: it connects a message and a data
//! connection to every node in the configuration, performs the device-ID
//! mapping handshake ("when the user program calls clGetDeviceIDs, the
//! wrapper lib creates a device ID request message for each compute
//! node… the backbone obtains the device's id of each compute node and
//! records this mapping", §III-C), and forwards calls over a *pipelined*
//! backbone:
//!
//! * [`HostRuntime::submit`] writes the request and returns a
//!   [`PendingCall`] immediately, so many calls can be in flight per node
//!   at once;
//! * a per-connection demultiplexer thread drains responses and
//!   completes pending calls by [`RequestId`] — responses may arrive in
//!   any order;
//! * [`HostRuntime::call`] keeps the paper's synchronous semantics as
//!   `submit(...).wait()`, so lock-step callers are unchanged;
//! * control-plane requests that queue up while another thread is
//!   occupying the transmit path are coalesced into one
//!   [`Envelope::Batch`] frame instead of paying per-frame overhead
//!   each.
//!
//! # Fault recovery
//!
//! With a [`RecoveryPolicy`] installed (see
//! [`HostRuntime::set_recovery`] — recovery is *opt-in*; without it the
//! seed semantics hold and a dead backbone fails calls fast), the
//! runtime additionally:
//!
//! * retransmits a timed-out request on the same route with exponential
//!   backoff, under the *same* [`RequestId`] — the node's at-most-once
//!   journal answers duplicates from cache, so a kernel never executes
//!   twice and a write never applies twice;
//! * when a node is lost (its connection died, or retries exhausted
//!   against a blackhole), re-provisions the node's state on a surviving
//!   node by replaying the per-node mutation journal, re-routes the
//!   logical node there, and bumps its routing *epoch*;
//! * counts every retransmission, failover and journal-dedup hit in the
//!   shared metrics registry ([`haocl_obs::names::RETRIES`] /
//!   [`FAILOVERS`](haocl_obs::names::FAILOVERS) /
//!   [`DEDUP_HITS`](haocl_obs::names::DEDUP_HITS)).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use haocl_net::{ConnSender, Fabric, NetError};
use haocl_obs::{
    names, CandidateInfo, FusionDecision, Hub, PlacementAudit, PredictionSource, TraceCtx,
    DEFAULT_TENANT,
};
use haocl_proto::ids::{IdAllocator, NodeId, RequestId, UserId};
use haocl_proto::messages::{
    ApiCall, ApiReply, DeviceDescriptor, Envelope, Plane, Request, Response, WireSpan,
};
#[cfg(test)]
use haocl_proto::wire::encode_to_vec;
use haocl_proto::wire::{decode_from_bytes, encode_into_vec};
use haocl_sim::{Clock, SimTime};

use crate::config::{ClusterConfig, NodeSpec};
use crate::error::ClusterError;

/// How often demultiplexer threads check the stop flag.
const DEMUX_POLL: Duration = Duration::from_millis(10);

/// One device in the cluster, as mapped during the handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteDevice {
    /// The node hosting the device.
    pub node: NodeId,
    /// The node's configured name.
    pub node_name: String,
    /// Device index within the node.
    pub device: u8,
    /// The advertised model summary.
    pub descriptor: DeviceDescriptor,
}

/// The outcome of one forwarded call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// The node's reply.
    pub reply: ApiReply,
    /// Virtual time the operation completed on the node.
    pub node_completed: SimTime,
    /// Virtual time the response reached the host.
    pub host_received: SimTime,
    /// Node-side spans, when the request was traced (see
    /// [`HostRuntime::submit_traced`]); empty otherwise.
    pub spans: Vec<WireSpan>,
}

/// Opt-in fault recovery for the host runtime.
///
/// Absent (the default), the runtime keeps its fail-fast semantics: a
/// dead backbone fails in-flight and later calls immediately. Installed
/// via [`HostRuntime::set_recovery`], it makes [`PendingCall::wait`]
/// retransmit and fail over instead (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Wall-clock patience for the first delivery attempt; doubles on
    /// every retransmission (exponential backoff).
    pub base_timeout: Duration,
    /// Total delivery attempts on the current route before giving up on
    /// it (the first transmission counts as attempt one).
    pub max_attempts: u32,
    /// Whether exhausting a route triggers failover to a surviving node
    /// (journal replay + re-route) or a terminal error.
    pub failover: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            base_timeout: Duration::from_millis(100),
            max_attempts: 4,
            failover: true,
        }
    }
}

/// Where a logical node stands in the cluster's membership lifecycle.
///
/// Nodes move strictly forward: `Joining → Active → Draining → Departed`
/// (a failed handshake jumps straight from `Joining` to `Departed`).
/// Departed slots persist as tombstones — device indices and [`NodeId`]s
/// allocated while the node was alive stay stable forever — and a node
/// that rejoins under the same name gets a *fresh* slot and `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipState {
    /// Connected; the hello/device-mapping handshake is in flight.
    Joining,
    /// Fully registered; eligible for placements and failover targets.
    Active,
    /// Voluntarily leaving: no new placements land here, resident
    /// buffers are migrating off, in-flight work still completes.
    Draining,
    /// Gone from the cluster — voluntarily (after a drain) or because a
    /// join handshake failed. Terminal.
    Departed,
}

impl MembershipState {
    /// The value the `haocl_node_state` gauge carries for this state.
    pub fn gauge_value(self) -> i64 {
        match self {
            MembershipState::Joining => 0,
            MembershipState::Active => 1,
            MembershipState::Draining => 2,
            MembershipState::Departed => 3,
        }
    }
}

impl std::fmt::Display for MembershipState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MembershipState::Joining => "Joining",
            MembershipState::Active => "Active",
            MembershipState::Draining => "Draining",
            MembershipState::Departed => "Departed",
        })
    }
}

/// An error the transport produced (retryable), as opposed to an answer
/// the node computed (final).
fn is_transport(err: &ClusterError) -> bool {
    matches!(err, ClusterError::Net(_) | ClusterError::Wire(_))
}

enum PendingEntry {
    /// Submitted on the given plane; no response yet.
    Waiting(Plane),
    /// Completed by the demultiplexer; result not yet claimed. The
    /// second field is the response's virtual arrival time (`None` for
    /// transport failures, which carry no timestamp): the *claimer*
    /// advances the shared clock to it, so virtual time progresses in
    /// program order rather than at the whim of demultiplexer-thread
    /// scheduling — out-of-order completion must not make virtual
    /// timestamps nondeterministic.
    Done(Box<Result<CallOutcome, ClusterError>>, Option<SimTime>),
}

struct LinkState {
    pending: HashMap<RequestId, PendingEntry>,
    /// Set once the node's backbone connection is gone; every later
    /// submit or wait fails immediately with this error.
    dead: Option<ClusterError>,
}

/// Completion state shared between submitters, waiters and the link's
/// demultiplexer threads.
struct LinkShared {
    state: Mutex<LinkState>,
    completed: Condvar,
}

/// What [`LinkShared::claim`] found.
enum Claim {
    /// The entry completed; the result was claimed out of the map and
    /// the clock advanced to the response's arrival.
    Outcome(Result<CallOutcome, ClusterError>),
    /// The deadline passed with the entry still waiting (it stays
    /// registered, so a later claim can still succeed).
    TimedOut,
    /// The entry vanished (link teardown); carries the link's terminal
    /// error.
    Gone(ClusterError),
}

impl LinkShared {
    fn new() -> Self {
        LinkShared {
            state: Mutex::new(LinkState {
                pending: HashMap::new(),
                dead: None,
            }),
            completed: Condvar::new(),
        }
    }

    /// Completes the pending call correlated to `response` (responses
    /// for cancelled/unknown ids are discarded — including the slower
    /// copy when a retransmitted request is answered twice).
    fn complete(&self, response: Response, received_at: SimTime) {
        let result = match response.body {
            ApiReply::Error { code, message } => Err(ClusterError::Remote { code, message }),
            reply => Ok(CallOutcome {
                reply,
                node_completed: SimTime::from_nanos(response.completed_at_nanos),
                host_received: received_at,
                spans: response.spans,
            }),
        };
        let mut state = self.state.lock().expect("link state poisoned");
        if let Some(entry) = state.pending.get_mut(&response.id) {
            *entry = PendingEntry::Done(Box::new(result), Some(received_at));
            self.completed.notify_all();
        }
    }

    /// Blocks until the call completes (or `deadline` passes, when one
    /// is given), claiming the result and advancing the clock.
    fn claim(&self, id: RequestId, clock: &Clock, deadline: Option<Instant>) -> Claim {
        let mut state = self.state.lock().expect("link state poisoned");
        loop {
            match state.pending.get(&id) {
                Some(PendingEntry::Done(..)) => {
                    let Some(PendingEntry::Done(result, received_at)) = state.pending.remove(&id)
                    else {
                        unreachable!("entry observed Done under the same lock");
                    };
                    if let Some(at) = received_at {
                        clock.advance_to(at);
                    }
                    return Claim::Outcome(*result);
                }
                // Even on a dead link a Waiting entry just waits: the
                // owning plane's demultiplexer (or terminal teardown)
                // is guaranteed to resolve it, and the *other* plane
                // dying first must not discard a response that is
                // already queued for delivery.
                Some(PendingEntry::Waiting(_)) => match deadline {
                    None => {
                        state = self.completed.wait(state).expect("link state poisoned");
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Claim::TimedOut;
                        }
                        let (guard, _) = self
                            .completed
                            .wait_timeout(state, d - now)
                            .expect("link state poisoned");
                        state = guard;
                    }
                },
                None => {
                    return Claim::Gone(
                        state
                            .dead
                            .clone()
                            .unwrap_or(ClusterError::Net(NetError::Disconnected)),
                    );
                }
            }
        }
    }

    /// Marks the link dead and fails `plane`'s in-flight calls with
    /// `err`.
    ///
    /// Only the dying plane's entries are failed: a demultiplexer fully
    /// drains its own connection before it can observe the disconnect,
    /// but the *other* plane's demultiplexer may still be working
    /// through already-received responses — failing those calls here
    /// would discard answers the node actually delivered.
    fn fail_plane(&self, plane: Plane, err: ClusterError) {
        let mut state = self.state.lock().expect("link state poisoned");
        if state.dead.is_none() {
            state.dead = Some(err.clone());
        }
        for entry in state.pending.values_mut() {
            if matches!(entry, PendingEntry::Waiting(p) if *p == plane) {
                *entry = PendingEntry::Done(Box::new(Err(err.clone())), None);
            }
        }
        self.completed.notify_all();
    }

    /// Marks the link dead and fails every in-flight call with `err`
    /// (terminal teardown, once no demultiplexer is left to deliver).
    fn fail_all(&self, err: ClusterError) {
        self.fail_plane(Plane::Control, err.clone());
        self.fail_plane(Plane::Data, err);
    }
}

struct NodeLink {
    name: String,
    /// The node's data-listener address, handed to *other* nodes as the
    /// destination of peer data-plane transfers.
    data_addr: String,
    shared: Arc<LinkShared>,
    /// Control-plane requests waiting to be coalesced into the next
    /// frame (see [`NodeLink::send_control`]).
    control_queue: Mutex<Vec<Request>>,
    /// Message-connection transmit half (control plane).
    msg_tx: Mutex<ConnSender>,
    /// Data-connection transmit half (buffer contents, §III-C's data
    /// listener).
    data_tx: Mutex<ConnSender>,
    /// Shared observability hub (plane metrics; gated on its enable
    /// flag so the hot path pays one atomic load when tracing is off).
    obs: Arc<Hub>,
    /// Set when the node retires voluntarily: the demultiplexer threads
    /// exit quietly instead of counting the (expected) disconnect as a
    /// link failure.
    retired: Arc<AtomicBool>,
}

impl NodeLink {
    /// Enqueues a control-plane request and flushes the queue unless
    /// another thread is already transmitting — in which case that
    /// thread picks this request up, coalescing it into its next
    /// [`Envelope::Batch`].
    fn send_control(&self, request: Request, at: SimTime) -> Result<(), ClusterError> {
        self.control_queue
            .lock()
            .expect("control queue poisoned")
            .push(request);
        loop {
            // Non-blocking: if the transmit path is busy, the holder
            // re-checks the queue after finishing its send (below), so
            // leaving our request queued cannot strand it.
            let Ok(mut sender) = self.msg_tx.try_lock() else {
                return Ok(());
            };
            let batch =
                std::mem::take(&mut *self.control_queue.lock().expect("control queue poisoned"));
            if batch.is_empty() {
                return Ok(());
            }
            let virtual_len: u64 = batch.iter().map(|r| r.body.virtual_len()).sum();
            let coalesced = batch.len() as u64;
            let mut encoded_len = 0;
            let sent = sender.send_frame_with(at, virtual_len, |buf| {
                let start = buf.len();
                encode_into_vec(&Envelope::from(batch), buf);
                encoded_len = buf.len() - start;
            });
            self.note_frame("control", encoded_len, virtual_len, coalesced);
            if let Err(e) = sent {
                // The batch may carry other submitters' requests; their
                // PendingCalls must observe the failure too.
                let err = ClusterError::Net(e);
                self.shared.fail_plane(Plane::Control, err.clone());
                return Err(err);
            }
            drop(sender);
            // Someone may have queued behind us while we held the
            // sender; make sure their request is not stranded.
            if self
                .control_queue
                .lock()
                .expect("control queue poisoned")
                .is_empty()
            {
                return Ok(());
            }
        }
    }

    /// Sends a data-plane request immediately (bulk payloads are never
    /// coalesced; their transmit cost dominates framing overhead).
    fn send_data(&self, request: Request, at: SimTime) -> Result<(), ClusterError> {
        let virtual_len = request.body.virtual_len();
        let mut sender = self.data_tx.lock().expect("data sender poisoned");
        let mut encoded_len = 0;
        let sent = sender.send_frame_with(at, virtual_len, |buf| {
            let start = buf.len();
            encode_into_vec(&Envelope::Single(request), buf);
            encoded_len = buf.len() - start;
        });
        drop(sender);
        self.note_frame("data", encoded_len, virtual_len, 1);
        sent?;
        Ok(())
    }

    /// Sends on the right plane for the request's body.
    fn send(&self, request: Request, at: SimTime) -> Result<(), ClusterError> {
        match request.body.plane() {
            Plane::Data => self.send_data(request, at),
            Plane::Control => self.send_control(request, at),
        }
    }

    /// Records one outgoing frame's plane metrics (no-op while tracing
    /// is off). Bytes are *virtual wire bytes*: modeled bulk payloads
    /// count their declared length, not the descriptor that stands in
    /// for them.
    fn note_frame(&self, plane: &str, payload_len: usize, virtual_len: u64, coalesced: u64) {
        if !self.obs.enabled() {
            return;
        }
        let labels = [("node", self.name.as_str()), ("plane", plane)];
        let bytes = (payload_len as u64).max(virtual_len);
        self.obs
            .metrics
            .inc_counter(names::PLANE_FRAMES, &labels, 1);
        self.obs
            .metrics
            .inc_counter(names::PLANE_BYTES, &labels, bytes);
        if plane == "control" {
            self.obs.metrics.observe_with_buckets(
                names::BATCH_SIZE,
                &[("node", self.name.as_str())],
                coalesced,
                &haocl_obs::SIZE_BUCKETS,
            );
        }
    }
}

/// Where a logical node's traffic currently goes.
struct RouteState {
    /// Index of the physical link carrying this logical node.
    physical: usize,
    /// Bumped on every failover; stamped into requests so duplicate
    /// traffic from before a re-route is distinguishable on the wire.
    epoch: u32,
    /// Physical links already lost for this logical node (the node's
    /// own link once it died, plus failed failover targets) — never
    /// chosen again.
    burned: Vec<usize>,
}

/// One journaled state-establishing call, replayed on failover.
#[derive(Clone)]
struct JournalEntry {
    id: RequestId,
    user: UserId,
    call: ApiCall,
}

/// Everything the host tracks about one logical node, consolidated so
/// membership can grow at runtime: the slot vector is append-only (a
/// departed node leaves a tombstone slot), so slot index, [`NodeId`] and
/// physical link index are one and the same, and all stay stable.
struct NodeSlot {
    link: NodeLink,
    /// Current physical route (identity until failover).
    route: Mutex<RouteState>,
    /// Ordered journal of state-establishing calls, replayed onto a
    /// failover target to reconstruct the lost node's buffers, programs
    /// and kernels. Recorded only while recovery is enabled.
    journal: Mutex<Vec<JournalEntry>>,
    /// Ids of calls currently in flight. Failover replay skips these:
    /// their own waiters retransmit them (under the original id, so the
    /// node journal can dedup), and replaying them under a fresh id as
    /// well would execute them twice.
    inflight: Mutex<HashSet<RequestId>>,
    /// Where the node stands in the membership lifecycle.
    membership: Mutex<MembershipState>,
    /// How many of this node's route-epoch bumps were *voluntary*
    /// (drain retirements). Quarantine logic subtracts these from the
    /// route epoch so a clean departure never reads as a failure.
    voluntary_epochs: AtomicU32,
}

/// State shared between the runtime, its pending calls and recovery.
struct HostInner {
    /// One slot per logical node, append-only (see [`NodeSlot`]).
    slots: RwLock<Vec<Arc<NodeSlot>>>,
    recovery: Mutex<Option<RecoveryPolicy>>,
    request_ids: IdAllocator,
    clock: Clock,
    obs: Arc<Hub>,
}

impl HostInner {
    fn recovery(&self) -> Option<RecoveryPolicy> {
        *self.recovery.lock().expect("recovery policy poisoned")
    }

    /// Clones the slot out of the registry: callers never hold the
    /// registry lock across blocking sends or waits.
    fn slot(&self, index: usize) -> Option<Arc<NodeSlot>> {
        self.slots
            .read()
            .expect("slots poisoned")
            .get(index)
            .cloned()
    }

    fn slot_count(&self) -> usize {
        self.slots.read().expect("slots poisoned").len()
    }

    fn membership_of(&self, index: usize) -> Option<MembershipState> {
        self.slot(index)
            .map(|s| *s.membership.lock().expect("membership poisoned"))
    }

    fn route_of(&self, node: NodeId) -> (usize, u32) {
        let slot = self
            .slot(node.raw() as usize)
            .expect("route of unknown node");
        let route = slot.route.lock().expect("route poisoned");
        (route.physical, route.epoch)
    }

    fn link_alive(&self, physical: usize) -> bool {
        let Some(slot) = self.slot(physical) else {
            return false;
        };
        let alive = slot
            .link
            .shared
            .state
            .lock()
            .expect("link state poisoned")
            .dead
            .is_none();
        alive
    }

    /// Moves `node`'s route to a surviving physical link, replaying its
    /// journal there first. `observed_epoch` is the epoch the caller
    /// last transmitted under: if another waiter already moved the
    /// route, the current route is returned without replaying again.
    fn failover(&self, node: NodeId, observed_epoch: u32) -> Result<(usize, u32), ClusterError> {
        let index = node.raw() as usize;
        let slot = self
            .slot(index)
            .ok_or(ClusterError::Net(NetError::Disconnected))?;
        let mut route = slot.route.lock().expect("route poisoned");
        if route.epoch != observed_epoch {
            return Ok((route.physical, route.epoch));
        }
        let failed = route.physical;
        if !route.burned.contains(&failed) {
            route.burned.push(failed);
        }
        let policy = self.recovery().unwrap_or_default();
        loop {
            // Only Active members host failover traffic: a Joining node
            // has no verified inventory yet, a Draining node is on its
            // way out, and a Departed slot is a tombstone.
            let Some(candidate) = (0..self.slot_count()).find(|p| {
                !route.burned.contains(p)
                    && self.membership_of(*p) == Some(MembershipState::Active)
                    && self.link_alive(*p)
            }) else {
                return Err(ClusterError::Net(NetError::Disconnected));
            };
            match self.replay_journal(index, candidate, &policy) {
                Ok(()) => {
                    let from = self.slot(failed).map(|s| s.link.name.clone());
                    let to = self.slot(candidate).map(|s| s.link.name.clone());
                    self.obs.metrics.inc_counter(
                        names::FAILOVERS,
                        &[
                            ("from", from.as_deref().unwrap_or("?")),
                            ("to", to.as_deref().unwrap_or("?")),
                        ],
                        1,
                    );
                    route.physical = candidate;
                    route.epoch += 1;
                    return Ok((candidate, route.epoch));
                }
                Err(_) => {
                    // The candidate is no better; rule it out and keep
                    // looking.
                    route.burned.push(candidate);
                }
            }
        }
    }

    /// Replays logical node `index`'s journal onto physical link
    /// `candidate` with fresh request ids, reconstructing the lost
    /// node's state there.
    fn replay_journal(
        &self,
        index: usize,
        candidate: usize,
        policy: &RecoveryPolicy,
    ) -> Result<(), ClusterError> {
        let slot = self
            .slot(index)
            .ok_or(ClusterError::Net(NetError::Disconnected))?;
        let entries: Vec<JournalEntry> = slot.journal.lock().expect("journal poisoned").clone();
        let inflight: HashSet<RequestId> = slot.inflight.lock().expect("inflight poisoned").clone();
        for entry in entries {
            // In-flight calls re-execute through their own waiters'
            // retransmissions (same id, deduped by the node journal);
            // replaying them here as well would run them twice under an
            // id the journal cannot correlate.
            if inflight.contains(&entry.id) {
                continue;
            }
            if let ApiCall::CreateBuffer { device, buffer, .. }
            | ApiCall::CreateBufferModeled { device, buffer, .. } = &entry.call
            {
                // An earlier aborted failover may have left this buffer
                // behind on the candidate; clear it so the create below
                // is clean.
                let _ = self.call_on_link(
                    candidate,
                    entry.user,
                    ApiCall::ReleaseBuffer {
                        device: *device,
                        buffer: *buffer,
                    },
                    policy,
                );
            }
            match self.call_on_link(candidate, entry.user, entry.call.clone(), policy) {
                Ok(_) => {}
                // The original call may have failed the same way (user
                // errors replay faithfully); only transport trouble
                // rules the candidate out.
                Err(ClusterError::Remote { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One synchronous call straight to a physical link, bypassing
    /// routing and recovery (used by journal replay, which runs *inside*
    /// failover and must not recurse into it).
    ///
    /// Retransmits with exponential backoff under the *same* request id
    /// so a lossy link cannot burn a perfectly good candidate: the node
    /// journal dedups replays of an already-executed call and answers
    /// from cache.
    fn call_on_link(
        &self,
        physical: usize,
        user: UserId,
        call: ApiCall,
        policy: &RecoveryPolicy,
    ) -> Result<CallOutcome, ClusterError> {
        let slot = self
            .slot(physical)
            .ok_or(ClusterError::Net(NetError::Disconnected))?;
        let link = &slot.link;
        let id = RequestId::new(self.request_ids.next());
        let plane = call.plane();
        for attempt in 0..=policy.max_attempts.min(6) {
            let patience = policy.base_timeout * 2u32.saturating_pow(attempt);
            let now = self.clock.now();
            let request = Request {
                id,
                user,
                sent_at_nanos: now.as_nanos(),
                trace_id: 0,
                parent_span: 0,
                epoch: 0,
                attempt,
                body: call.clone(),
            };
            {
                let mut state = link.shared.state.lock().expect("link state poisoned");
                if let Some(err) = &state.dead {
                    return Err(err.clone());
                }
                state.pending.insert(id, PendingEntry::Waiting(plane));
            }
            if let Err(err) = link.send(request, now) {
                link.shared
                    .state
                    .lock()
                    .expect("link state poisoned")
                    .pending
                    .remove(&id);
                return Err(err);
            }
            match link
                .shared
                .claim(id, &self.clock, Some(Instant::now() + patience))
            {
                Claim::Outcome(result) => return result,
                Claim::TimedOut => {
                    // Drop the stale entry before retrying; a late
                    // response to this transmission is simply discarded
                    // and the retry re-earns one (deduped node-side).
                    link.shared
                        .state
                        .lock()
                        .expect("link state poisoned")
                        .pending
                        .remove(&id);
                }
                Claim::Gone(e) => return Err(e),
            }
        }
        Err(ClusterError::Net(NetError::Timeout))
    }
}

/// A submitted request whose response has not yet been claimed.
///
/// Obtained from [`HostRuntime::submit`]. Dropping it abandons the call:
/// the response, when it arrives, is discarded.
#[must_use = "a PendingCall that is never waited on silently discards its response"]
pub struct PendingCall {
    /// The original request, kept for retransmission under recovery.
    request: Request,
    /// The logical node addressed.
    node: NodeId,
    /// The physical link the request was last transmitted on.
    physical: usize,
    /// The routing epoch the request was last transmitted under.
    epoch: u32,
    inner: Arc<HostInner>,
    taken: bool,
}

impl PendingCall {
    /// The request's correlation id.
    pub fn id(&self) -> RequestId {
        self.request.id
    }

    /// The node the request was sent to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until the response arrives (or the node's backbone dies).
    ///
    /// Claiming the response advances the shared virtual clock to its
    /// arrival time; until a response is claimed it does not move the
    /// clock, keeping virtual timestamps deterministic however the
    /// demultiplexer threads are scheduled.
    ///
    /// With a [`RecoveryPolicy`] installed, transport failures and
    /// timeouts are absorbed: the call is retransmitted with backoff
    /// and, if its node is lost, failed over to a survivor (see the
    /// module docs). Only a terminal inability to deliver surfaces as
    /// an error then.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Remote`] when the node answered with an error
    /// reply; a transport error when the connection failed while the
    /// call was in flight (and recovery was off or exhausted).
    pub fn wait(mut self) -> Result<CallOutcome, ClusterError> {
        match self.inner.recovery() {
            Some(policy) => self.wait_recovering(policy),
            None => self.wait_plain(),
        }
    }

    fn wait_plain(&mut self) -> Result<CallOutcome, ClusterError> {
        let Some(slot) = self.inner.slot(self.physical) else {
            self.taken = true;
            return Err(ClusterError::Net(NetError::Disconnected));
        };
        let shared = Arc::clone(&slot.link.shared);
        match shared.claim(self.request.id, &self.inner.clock, None) {
            Claim::Outcome(result) => {
                self.taken = true;
                result
            }
            Claim::Gone(err) => {
                self.taken = true;
                Err(err)
            }
            Claim::TimedOut => unreachable!("claim without a deadline cannot time out"),
        }
    }

    fn wait_recovering(&mut self, policy: RecoveryPolicy) -> Result<CallOutcome, ClusterError> {
        let mut attempt: u32 = 0;
        let mut last_err;
        loop {
            let patience = policy.base_timeout * 2u32.saturating_pow(attempt.min(6));
            let deadline = Instant::now() + patience;
            let Some(slot) = self.inner.slot(self.physical) else {
                self.taken = true;
                return Err(ClusterError::Net(NetError::Disconnected));
            };
            let shared = Arc::clone(&slot.link.shared);
            match shared.claim(self.request.id, &self.inner.clock, Some(deadline)) {
                Claim::Outcome(result) => match result {
                    Err(e) if is_transport(&e) => last_err = e,
                    final_answer => {
                        self.taken = true;
                        return final_answer;
                    }
                },
                Claim::TimedOut => last_err = ClusterError::Net(NetError::Timeout),
                Claim::Gone(e) => last_err = e,
            }
            // Transport trouble. Retransmit on the current route while
            // it is alive and attempts remain — the node's at-most-once
            // journal absorbs the duplicate if the original executed.
            attempt += 1;
            if attempt < policy.max_attempts
                && self.inner.link_alive(self.physical)
                && self.resend(attempt).is_ok()
            {
                self.inner.obs.metrics.inc_counter(
                    names::RETRIES,
                    &[("node", slot.link.name.as_str())],
                    1,
                );
                continue;
            }
            if !policy.failover {
                return Err(last_err);
            }
            match self.inner.failover(self.node, self.epoch) {
                Ok((physical, epoch)) => {
                    if physical != self.physical {
                        // Abandon the entry on the lost route.
                        if let Ok(mut state) = slot.link.shared.state.lock() {
                            state.pending.remove(&self.request.id);
                        }
                    }
                    self.physical = physical;
                    self.epoch = epoch;
                    attempt = 0;
                    // Best effort: if the fresh route died under us the
                    // next claim times out fast and we route again.
                    let _ = self.resend(0);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Retransmits the original request (same id) on the current route,
    /// (re-)registering its pending entry first.
    fn resend(&mut self, attempt: u32) -> Result<(), ClusterError> {
        let slot = self
            .inner
            .slot(self.physical)
            .ok_or(ClusterError::Net(NetError::Disconnected))?;
        let link = &slot.link;
        let plane = self.request.body.plane();
        {
            let mut state = link.shared.state.lock().expect("link state poisoned");
            if let Some(err) = &state.dead {
                return Err(err.clone());
            }
            state
                .pending
                .insert(self.request.id, PendingEntry::Waiting(plane));
        }
        let now = self.inner.clock.now();
        let mut request = self.request.clone();
        request.sent_at_nanos = now.as_nanos();
        request.epoch = self.epoch;
        request.attempt = attempt;
        link.send(request, now)
    }

    /// Claims the response if it has already arrived, without blocking.
    ///
    /// Returns `None` while the call is still in flight. After a
    /// `Some(..)` the call is consumed: later polls return `None` and
    /// [`PendingCall::wait`] must not be expected to yield it again.
    /// `try_poll` never retransmits, even under a recovery policy.
    pub fn try_poll(&mut self) -> Option<Result<CallOutcome, ClusterError>> {
        if self.taken {
            return None;
        }
        let Some(slot) = self.inner.slot(self.physical) else {
            self.taken = true;
            return Some(Err(ClusterError::Net(NetError::Disconnected)));
        };
        let mut state = slot.link.shared.state.lock().expect("link state poisoned");
        match state.pending.get(&self.request.id) {
            Some(PendingEntry::Done(..)) => {
                let Some(PendingEntry::Done(result, received_at)) =
                    state.pending.remove(&self.request.id)
                else {
                    unreachable!("entry observed Done under the same lock");
                };
                self.taken = true;
                if let Some(at) = received_at {
                    self.inner.clock.advance_to(at);
                }
                Some(*result)
            }
            Some(PendingEntry::Waiting(_)) => None,
            None => {
                self.taken = true;
                Some(Err(state
                    .dead
                    .clone()
                    .unwrap_or(ClusterError::Net(NetError::Disconnected))))
            }
        }
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if !self.taken {
            if let Some(slot) = self.inner.slot(self.physical) {
                if let Ok(mut state) = slot.link.shared.state.lock() {
                    state.pending.remove(&self.request.id);
                }
            }
        }
        if let Some(slot) = self.inner.slot(self.node.raw() as usize) {
            if let Ok(mut inflight) = slot.inflight.lock() {
                inflight.remove(&self.request.id);
            }
        }
    }
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingCall({} @ {})", self.request.id, self.node)
    }
}

/// The host runtime: device mapping plus pipelined call forwarding.
pub struct HostRuntime {
    /// The user/session every outgoing request is tagged with. Atomic
    /// so the serving plane can switch it per dispatch through a shared
    /// handle — the per-tenant submission path tags each wire request
    /// with the tenant's session id (§III-D's "user ID" field).
    user: AtomicU32,
    /// The mapped devices, cluster-wide; append-only like the slots, so
    /// device indices allocated while a node was alive stay stable after
    /// it departs.
    devices: RwLock<Vec<RemoteDevice>>,
    /// Session registry: tenants/users submitting through this runtime.
    sessions: crate::session::SessionManager,
    /// The fabric nodes connect through, kept so membership can grow
    /// after construction ([`HostRuntime::connect_node`]).
    fabric: Fabric,
    /// The host's fabric endpoint name.
    host_name: String,
    inner: Arc<HostInner>,
    stop: Arc<AtomicBool>,
    demux_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl HostRuntime {
    /// Connects to every node in `config` and performs the hello/device
    /// mapping handshake.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] if any node is unreachable or answers the
    /// handshake with anything but its device inventory.
    pub fn connect(fabric: &Fabric, config: &ClusterConfig) -> Result<Self, ClusterError> {
        let host_name = config
            .host_addr
            .split(':')
            .next()
            .unwrap_or(&config.host_addr)
            .to_string();
        let runtime = HostRuntime {
            user: AtomicU32::new(1),
            devices: RwLock::new(Vec::new()),
            sessions: crate::session::SessionManager::new(),
            fabric: fabric.clone(),
            host_name,
            inner: Arc::new(HostInner {
                slots: RwLock::new(Vec::new()),
                recovery: Mutex::new(None),
                request_ids: IdAllocator::new(),
                clock: fabric.clock().clone(),
                obs: Arc::new(Hub::new()),
            }),
            stop: Arc::new(AtomicBool::new(false)),
            demux_threads: Mutex::new(Vec::new()),
        };
        for spec in &config.nodes {
            runtime.connect_node(spec)?;
        }
        Ok(runtime)
    }

    /// Connects a *new* node into the running cluster: dials both
    /// planes, spawns its demultiplexers, registers a fresh slot (state
    /// `Joining`), performs the hello/device-mapping handshake, and
    /// promotes the node to `Active`. Returns the new node's id.
    ///
    /// Each join mints a fresh [`NodeId`] and fresh device indices, even
    /// for a name that served before — a rejoining node is a new member,
    /// not a resurrection of the old slot.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] if the node is unreachable or the handshake
    /// fails; the slot is left behind as a `Departed` tombstone so ids
    /// stay stable.
    pub fn connect_node(&self, spec: &NodeSpec) -> Result<NodeId, ClusterError> {
        let (msg_tx, msg_rx) = self.fabric.connect(&self.host_name, &spec.addr)?.split();
        let (data_tx, data_rx) = self
            .fabric
            .connect(&self.host_name, &spec.data_addr())?
            .split();
        let shared = Arc::new(LinkShared::new());
        let retired = Arc::new(AtomicBool::new(false));
        {
            let mut threads = self.demux_threads.lock().expect("demux threads poisoned");
            for (plane, rx) in [(Plane::Control, msg_rx), (Plane::Data, data_rx)] {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&self.stop);
                let retired = Arc::clone(&retired);
                let obs = Arc::clone(&self.inner.obs);
                let node_name = spec.name.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("haocl-demux-{}-{plane:?}", spec.name))
                        .spawn(move || demux_loop(rx, plane, shared, stop, retired, obs, node_name))
                        .expect("spawn demux thread"),
                );
            }
        }
        let node = {
            let mut slots = self.inner.slots.write().expect("slots poisoned");
            let index = slots.len();
            slots.push(Arc::new(NodeSlot {
                link: NodeLink {
                    name: spec.name.clone(),
                    data_addr: spec.data_addr(),
                    shared,
                    control_queue: Mutex::new(Vec::new()),
                    msg_tx: Mutex::new(msg_tx),
                    data_tx: Mutex::new(data_tx),
                    obs: Arc::clone(&self.inner.obs),
                    retired,
                },
                route: Mutex::new(RouteState {
                    physical: index,
                    epoch: 0,
                    burned: Vec::new(),
                }),
                journal: Mutex::new(Vec::new()),
                inflight: Mutex::new(HashSet::new()),
                membership: Mutex::new(MembershipState::Joining),
                voluntary_epochs: AtomicU32::new(0),
            }));
            NodeId::new(index as u32)
        };
        self.note_membership(node, MembershipState::Joining);
        let handshake = (|| {
            let outcome = self.call(
                node,
                ApiCall::Hello {
                    client: format!("haocl-host/{}", self.host_name),
                },
            )?;
            match outcome.reply {
                ApiReply::NodeInfo { devices } => Ok(devices),
                other => Err(ClusterError::UnexpectedReply(format!(
                    "hello answered with {other:?}"
                ))),
            }
        })();
        let slot = self
            .inner
            .slot(node.raw() as usize)
            .expect("slot just added");
        match handshake {
            Ok(descriptors) => {
                let mut devices = self.devices.write().expect("devices poisoned");
                for d in descriptors {
                    devices.push(RemoteDevice {
                        node,
                        node_name: spec.name.clone(),
                        device: d.index,
                        descriptor: d,
                    });
                }
                drop(devices);
                *slot.membership.lock().expect("membership poisoned") = MembershipState::Active;
                self.note_membership(node, MembershipState::Active);
                Ok(node)
            }
            Err(e) => {
                // Tombstone the slot so indices stay stable and nothing
                // ever routes here.
                *slot.membership.lock().expect("membership poisoned") = MembershipState::Departed;
                slot.link.retired.store(true, Ordering::SeqCst);
                slot.link
                    .shared
                    .fail_all(ClusterError::Net(NetError::Disconnected));
                self.note_membership(node, MembershipState::Departed);
                Err(e)
            }
        }
    }

    /// The mapped devices, cluster-wide, in `(node, device)` order —
    /// including devices on nodes that have since departed (device
    /// indices are stable for the life of the runtime). Check
    /// [`HostRuntime::node_membership`] for liveness.
    pub fn devices(&self) -> Vec<RemoteDevice> {
        self.devices.read().expect("devices poisoned").clone()
    }

    /// The mapping record for one cluster-wide device index.
    pub fn device_info(&self, index: usize) -> Option<RemoteDevice> {
        self.devices
            .read()
            .expect("devices poisoned")
            .get(index)
            .cloned()
    }

    /// Number of mapped devices, cluster-wide (tombstones included).
    pub fn device_count(&self) -> usize {
        self.devices.read().expect("devices poisoned").len()
    }

    /// Number of node slots, including `Departed` tombstones.
    pub fn node_count(&self) -> usize {
        self.inner.slot_count()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// The user id outgoing requests are currently tagged with.
    pub fn user(&self) -> UserId {
        UserId::new(self.user.load(Ordering::Relaxed))
    }

    /// Sets the user id outgoing requests are tagged with (multi-user
    /// support). Takes `&self` so a serving plane holding the runtime
    /// behind an `Arc` can re-tag per dispatch.
    pub fn set_user(&self, user: UserId) {
        self.user.store(user.raw(), Ordering::Relaxed);
    }

    /// The session registry: per-user names and call/launch statistics.
    pub fn sessions(&self) -> &crate::session::SessionManager {
        &self.sessions
    }

    /// Installs (or clears) the fault-recovery policy. `None` — the
    /// default — keeps fail-fast semantics; see the module docs for
    /// what a policy enables. Takes effect for subsequent submissions
    /// and waits; enable recovery *before* issuing work, so the
    /// failover journal is complete.
    pub fn set_recovery(&self, policy: Option<RecoveryPolicy>) {
        *self
            .inner
            .recovery
            .lock()
            .expect("recovery policy poisoned") = policy;
    }

    /// The currently installed recovery policy, if any.
    pub fn recovery(&self) -> Option<RecoveryPolicy> {
        self.inner.recovery()
    }

    /// Whether the logical node's current route has a live backbone
    /// connection. A crashed-but-blackholed node still reads as live
    /// until its route is failed over — liveness here is connection
    /// state, not reachability.
    pub fn node_is_live(&self, node: NodeId) -> bool {
        let index = node.raw() as usize;
        let Some(membership) = self.inner.membership_of(index) else {
            return false;
        };
        if membership == MembershipState::Departed {
            return false;
        }
        let (physical, _) = self.inner.route_of(node);
        self.inner.link_alive(physical)
    }

    /// The logical node's routing epoch: 0 until its first failover or
    /// retirement, bumped on each. Schedulers use this as a flap signal
    /// (net of [`HostRuntime::node_voluntary_epochs`]).
    pub fn node_epoch(&self, node: NodeId) -> u32 {
        let index = node.raw() as usize;
        if index >= self.inner.slot_count() {
            return 0;
        }
        self.inner.route_of(node).1
    }

    /// How many of the node's epoch bumps were voluntary (drain
    /// retirements, not failures). `node_epoch - node_voluntary_epochs`
    /// is the *involuntary* flap count quarantine policies should see.
    pub fn node_voluntary_epochs(&self, node: NodeId) -> u32 {
        self.inner
            .slot(node.raw() as usize)
            .map_or(0, |s| s.voluntary_epochs.load(Ordering::SeqCst))
    }

    /// Where the node stands in the membership lifecycle; `None` for an
    /// unknown node.
    pub fn node_membership(&self, node: NodeId) -> Option<MembershipState> {
        self.inner.membership_of(node.raw() as usize)
    }

    /// The data-listener address currently serving the logical node —
    /// failover-aware, so peer transfers aimed at a re-routed node land
    /// on its surviving physical link. `None` for an unknown node.
    pub fn node_data_addr(&self, node: NodeId) -> Option<String> {
        let index = node.raw() as usize;
        if index >= self.inner.slot_count() {
            return None;
        }
        let (physical, _) = self.inner.route_of(node);
        self.inner.slot(physical).map(|s| s.link.data_addr.clone())
    }

    /// Appends `call` to `node`'s failover journal under a fresh request
    /// id, without sending it anywhere now.
    ///
    /// Peer transfers need this: the bytes a peer pushed onto a node
    /// never crossed that node's host connection, so nothing journals
    /// them automatically. The coherence layer records a compensating
    /// `PullBufferFrom` here after each successful push — on failover the
    /// replacement node re-pulls the replica from its source. No-op while
    /// recovery is off, exactly like the automatic journaling in
    /// [`HostRuntime::submit`].
    pub fn journal_companion(&self, node: NodeId, call: ApiCall) {
        let Some(slot) = self.inner.slot(node.raw() as usize) else {
            return;
        };
        if self.inner.recovery().is_none()
            || *slot.membership.lock().expect("membership poisoned") == MembershipState::Departed
        {
            return;
        }
        slot.journal
            .lock()
            .expect("journal poisoned")
            .push(JournalEntry {
                id: RequestId::new(self.inner.request_ids.next()),
                user: self.user(),
                call,
            });
    }

    /// Forwards `call` to `node` without waiting for its response.
    ///
    /// The returned [`PendingCall`] resolves when the node's response
    /// arrives; any number of calls may be in flight per node, and they
    /// complete in whatever order the node answers. Buffer-content calls
    /// (`WriteBuffer`/`ReadBuffer`) travel on the node's data
    /// connection; everything else on the message connection, where
    /// concurrent submissions coalesce into batched frames.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unknown node; a transport error
    /// if the request cannot be written.
    pub fn submit(&self, node: NodeId, call: ApiCall) -> Result<PendingCall, ClusterError> {
        self.submit_traced(node, call, None)
    }

    /// Like [`HostRuntime::submit`], but threads a trace context to the
    /// node: the NMP records its dispatch (and, for kernel launches, the
    /// VM run) as spans parented under `ctx.parent` and ships them back
    /// in the response, where they surface as [`CallOutcome::spans`].
    ///
    /// # Errors
    ///
    /// Same as [`HostRuntime::submit`].
    pub fn submit_traced(
        &self,
        node: NodeId,
        call: ApiCall,
        ctx: Option<TraceCtx>,
    ) -> Result<PendingCall, ClusterError> {
        let inner = &self.inner;
        let index = node.raw() as usize;
        let Some(node_slot) = inner.slot(index) else {
            return Err(ClusterError::Config(format!("unknown node {node}")));
        };
        // Joining (the handshake itself), Active and Draining nodes all
        // accept traffic; a Departed tombstone never does — its in-flight
        // work was already failed out when it retired.
        if *node_slot.membership.lock().expect("membership poisoned") == MembershipState::Departed {
            return Err(ClusterError::Config(format!(
                "node {node} has departed the cluster"
            )));
        }
        let recovery = inner.recovery();
        let failover = recovery.is_some_and(|p| p.failover);
        let id = RequestId::new(inner.request_ids.next());
        // Journal and in-flight registration happen before the send so
        // a concurrent failover can neither miss this call's state nor
        // replay it while its own waiter still owns it.
        if recovery.is_some() && call.replayed_on_failover() {
            node_slot
                .journal
                .lock()
                .expect("journal poisoned")
                .push(JournalEntry {
                    id,
                    user: self.user(),
                    call: call.clone(),
                });
        }
        node_slot
            .inflight
            .lock()
            .expect("inflight poisoned")
            .insert(id);
        let now = inner.clock.now();
        let mut request = Request {
            id,
            user: self.user(),
            sent_at_nanos: now.as_nanos(),
            trace_id: ctx.map_or(0, |c| c.trace.0),
            parent_span: ctx.map_or(0, |c| c.parent.0),
            epoch: 0,
            attempt: 0,
            body: call,
        };
        let abort = |err: ClusterError| {
            node_slot
                .inflight
                .lock()
                .expect("inflight poisoned")
                .remove(&id);
            let mut journal = node_slot.journal.lock().expect("journal poisoned");
            if let Some(pos) = journal.iter().rposition(|e| e.id == id) {
                journal.remove(pos);
            }
            Err(err)
        };
        let mut routes_tried = 0usize;
        loop {
            let (physical, epoch) = {
                let (physical, epoch) = inner.route_of(node);
                if failover && !inner.link_alive(physical) {
                    match inner.failover(node, epoch) {
                        Ok(moved) => moved,
                        Err(e) => return abort(e),
                    }
                } else {
                    (physical, epoch)
                }
            };
            request.epoch = epoch;
            let Some(route_slot) = inner.slot(physical) else {
                return abort(ClusterError::Net(NetError::Disconnected));
            };
            let link = &route_slot.link;
            let plane = request.body.plane();
            {
                let mut state = link.shared.state.lock().expect("link state poisoned");
                if let Some(err) = &state.dead {
                    if failover && routes_tried < inner.slot_count() {
                        routes_tried += 1;
                        continue;
                    }
                    return abort(err.clone());
                }
                state.pending.insert(id, PendingEntry::Waiting(plane));
            }
            match link.send(request.clone(), now) {
                Ok(()) => {
                    return Ok(PendingCall {
                        request,
                        node,
                        physical,
                        epoch,
                        inner: Arc::clone(inner),
                        taken: false,
                    });
                }
                Err(err) => {
                    link.shared
                        .state
                        .lock()
                        .expect("link state poisoned")
                        .pending
                        .remove(&id);
                    if failover && routes_tried < inner.slot_count() {
                        routes_tried += 1;
                        continue;
                    }
                    return abort(err);
                }
            }
        }
    }

    /// Forwards `call` to `node` and waits synchronously for its reply —
    /// [`HostRuntime::submit`] followed by [`PendingCall::wait`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::Remote`] when the node answers with an error
    /// reply; transport errors otherwise.
    pub fn call(&self, node: NodeId, call: ApiCall) -> Result<CallOutcome, ClusterError> {
        self.submit(node, call)?.wait()
    }

    /// Sends `Shutdown` to every node (best effort) for orderly teardown.
    ///
    /// Teardown runs in bounded-patience, no-failover mode: it must
    /// neither trigger failover replays onto the survivors nor hang
    /// forever on a node a chaos policy has blackholed. Recovery is
    /// left disabled afterwards.
    pub fn shutdown_cluster(&self) {
        self.set_recovery(Some(RecoveryPolicy {
            base_timeout: Duration::from_millis(250),
            max_attempts: 1,
            failover: false,
        }));
        for i in 0..self.inner.slot_count() {
            let node = NodeId::new(i as u32);
            if self.node_membership(node) == Some(MembershipState::Departed) {
                continue;
            }
            let _ = self.call(node, ApiCall::Shutdown);
        }
        self.set_recovery(None);
    }

    /// Marks `node` as draining: the membership state flips to
    /// `Draining` (so placement layers stop choosing it and failover
    /// stops targeting it) and the NMP is told — best effort — to refuse
    /// fresh kernel launches. In-flight work and buffer reads continue;
    /// actually moving the resident replicas off is the platform layer's
    /// job, after which [`HostRuntime::retire_node`] completes the
    /// departure.
    ///
    /// Draining an already-draining node is a no-op.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unknown node or one that is
    /// `Joining`/`Departed`.
    pub fn begin_drain(&self, node: NodeId) -> Result<(), ClusterError> {
        let slot = self
            .inner
            .slot(node.raw() as usize)
            .ok_or_else(|| ClusterError::Config(format!("unknown node {node}")))?;
        {
            let mut membership = slot.membership.lock().expect("membership poisoned");
            match *membership {
                MembershipState::Draining => return Ok(()),
                MembershipState::Active => *membership = MembershipState::Draining,
                other => {
                    return Err(ClusterError::Config(format!(
                        "node {node} cannot drain from state {other}"
                    )));
                }
            }
        }
        self.note_membership(node, MembershipState::Draining);
        // Advisory: a node that cannot hear it still drains correctly —
        // the host-side Draining state already excludes it from
        // placement; the NMP-side flag just closes the race with
        // requests already on the wire. It goes straight onto the
        // node's *own* physical link, outside routing and recovery: a
        // routed send could fail over mid-call (say a crash races the
        // drain) and retransmit the flag onto the surviving NMP that
        // now hosts this node's replayed state — which would then
        // refuse every launch the fleet still depends on.
        let _ = self.inner.call_on_link(
            node.raw() as usize,
            self.user(),
            ApiCall::BeginDrain,
            &RecoveryPolicy {
                base_timeout: Duration::from_millis(50),
                max_attempts: 1,
                failover: false,
            },
        );
        Ok(())
    }

    /// Completes a voluntary departure: the node becomes a `Departed`
    /// tombstone, its route epoch is bumped (with the bump booked as
    /// *voluntary*, so quarantine logic does not read it as a failure),
    /// its journal and in-flight set are cleared, and any stragglers
    /// still waiting on it are failed out. No replay happens — departure
    /// is clean by construction, the caller having already migrated the
    /// node's resident state.
    ///
    /// Retiring an already-departed node is a no-op.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unknown node.
    pub fn retire_node(&self, node: NodeId) -> Result<(), ClusterError> {
        let slot = self
            .inner
            .slot(node.raw() as usize)
            .ok_or_else(|| ClusterError::Config(format!("unknown node {node}")))?;
        {
            let mut membership = slot.membership.lock().expect("membership poisoned");
            if *membership == MembershipState::Departed {
                return Ok(());
            }
            *membership = MembershipState::Departed;
        }
        {
            let mut route = slot.route.lock().expect("route poisoned");
            route.epoch += 1;
            let physical = route.physical;
            if !route.burned.contains(&physical) {
                route.burned.push(physical);
            }
        }
        slot.voluntary_epochs.fetch_add(1, Ordering::SeqCst);
        slot.journal.lock().expect("journal poisoned").clear();
        slot.inflight.lock().expect("inflight poisoned").clear();
        // The demux threads see the retirement flag and exit without
        // booking a link failure when the NMP's connections close.
        slot.link.retired.store(true, Ordering::SeqCst);
        slot.link
            .shared
            .fail_all(ClusterError::Net(NetError::Disconnected));
        self.note_membership(node, MembershipState::Departed);
        Ok(())
    }

    /// Records one membership transition: the `haocl_node_state` gauge
    /// and a `policy=membership` audit row (the source haocl-top reads
    /// node states from).
    fn note_membership(&self, node: NodeId, state: MembershipState) {
        let name = self
            .node_name(node)
            .unwrap_or_else(|| format!("node{}", node.raw()));
        let obs = &self.inner.obs;
        obs.metrics.set_gauge(
            names::NODE_STATE,
            &[("node", name.as_str())],
            state.gauge_value(),
        );
        // The audit row follows the scheduler convention: decision rows
        // are recorded only while tracing is on.
        if !obs.enabled() {
            return;
        }
        obs.audit.record(PlacementAudit {
            kernel: "<membership>".to_string(),
            tenant: DEFAULT_TENANT.to_string(),
            policy: "membership".to_string(),
            candidates: vec![CandidateInfo {
                device: node.raw() as usize,
                node: name.clone(),
                kind: "-".to_string(),
                predicted_nanos: None,
                source: PredictionSource::CostModel,
                health: CandidateInfo::HEALTHY.to_string(),
            }],
            chosen: node.raw() as usize,
            reason: format!("state={state} node={name}"),
            fused: FusionDecision::Unconsidered,
        });
    }

    /// The configured name of `node`.
    pub fn node_name(&self, node: NodeId) -> Option<String> {
        self.inner
            .slot(node.raw() as usize)
            .map(|s| s.link.name.clone())
    }

    /// The observability hub shared by this runtime's links and demux
    /// threads. The platform layer adopts this hub (instead of creating
    /// its own) so every layer records into one recorder/registry.
    pub fn obs(&self) -> &Arc<Hub> {
        &self.inner.obs
    }

    fn _assert_send_sync() {
        fn assert<T: Send + Sync>() {}
        assert::<HostRuntime>();
        assert::<PendingCall>();
    }
}

impl Drop for HostRuntime {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let threads: Vec<JoinHandle<()>> = self
            .demux_threads
            .lock()
            .expect("demux threads poisoned")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
        // PendingCalls hold their own Arc into the shared state and may
        // outlive the runtime; leave them a terminal error instead of a
        // hang.
        for slot in self.inner.slots.read().expect("slots poisoned").iter() {
            slot.link
                .shared
                .fail_all(ClusterError::Net(NetError::Disconnected));
        }
    }
}

/// Drains one connection's responses, completing pending calls by
/// correlation id. Exits when the runtime stops or the connection dies;
/// on death every in-flight call on this plane fails with the transport
/// error (responses already delivered on the connection are drained
/// first, so nothing the node answered is discarded).
fn demux_loop(
    mut rx: haocl_net::ConnReceiver,
    plane: Plane,
    shared: Arc<LinkShared>,
    stop: Arc<AtomicBool>,
    retired: Arc<AtomicBool>,
    obs: Arc<Hub>,
    node_name: String,
) {
    let note_failure = || {
        obs.metrics.inc_counter(
            names::LINK_FAILURES,
            &[
                ("node", node_name.as_str()),
                (
                    "plane",
                    if plane == Plane::Control {
                        "control"
                    } else {
                        "data"
                    },
                ),
            ],
            1,
        );
    };
    while !stop.load(Ordering::SeqCst) {
        // A retired node's connections close by design: exit without
        // booking a link failure (retire_node already failed out any
        // straggling waiters).
        if retired.load(Ordering::SeqCst) {
            return;
        }
        match rx.recv_frame_timeout(DEMUX_POLL) {
            Ok((frame, received_at)) => match decode_from_bytes::<Response>(frame) {
                Ok(response) => {
                    if response.duplicate {
                        obs.metrics.inc_counter(
                            names::DEDUP_HITS,
                            &[("node", node_name.as_str())],
                            1,
                        );
                    }
                    shared.complete(response, received_at);
                }
                Err(e) => {
                    if retired.load(Ordering::SeqCst) {
                        return;
                    }
                    note_failure();
                    shared.fail_plane(plane, ClusterError::Wire(e));
                    return;
                }
            },
            Err(NetError::Timeout) => continue,
            // Poll deadline hit mid-frame: the partial bytes stay
            // buffered in the receiver, so the next recv resynchronizes
            // on the remaining chunks.
            Err(NetError::TimeoutMidFrame { .. }) => continue,
            Err(e) => {
                if retired.load(Ordering::SeqCst) {
                    return;
                }
                note_failure();
                shared.fail_plane(plane, ClusterError::Net(e));
                return;
            }
        }
    }
}

impl std::fmt::Debug for HostRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostRuntime")
            .field("user", &self.user())
            .field("nodes", &self.inner.slot_count())
            .field("devices", &self.device_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeSpec;
    use crate::local::LocalCluster;
    use bytes::Bytes;
    use haocl_kernel::KernelRegistry;
    use haocl_net::{Conn, LinkModel};
    use haocl_proto::ids::BufferId;

    fn one_node_config() -> ClusterConfig {
        ClusterConfig {
            host_addr: "10.0.0.1:7000".into(),
            nodes: vec![NodeSpec {
                name: "n0".into(),
                addr: "10.0.9.1:7100".into(),
                devices: vec![],
            }],
            link: LinkModel::gigabit_ethernet(),
        }
    }

    fn reply(conn: &mut Conn, id: RequestId, body: ApiReply, at: SimTime) {
        let response = Response {
            id,
            completed_at_nanos: at.as_nanos(),
            body,
            duplicate: false,
            spans: Vec::new(),
        };
        conn.send_frame(&encode_to_vec(&response), at).unwrap();
    }

    fn answer_handshake(msg: &mut Conn) {
        let (frame, at) = msg.recv_frame().unwrap();
        let hello = decode_from_bytes::<Envelope>(frame)
            .unwrap()
            .into_requests()
            .remove(0);
        assert!(matches!(hello.body, ApiCall::Hello { .. }));
        reply(msg, hello.id, ApiReply::NodeInfo { devices: vec![] }, at);
    }

    fn collect_requests(msg: &mut Conn, n: usize) -> Vec<(Request, SimTime)> {
        let mut collected = Vec::new();
        while collected.len() < n {
            let (frame, at) = msg.recv_frame().unwrap();
            for request in decode_from_bytes::<Envelope>(frame)
                .unwrap()
                .into_requests()
            {
                collected.push((request, at));
            }
        }
        collected
    }

    #[test]
    fn responses_complete_out_of_order() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let msg_listener = fabric.bind("10.0.9.1:7100").unwrap();
        let data_listener = fabric.bind("10.0.9.1:7101").unwrap();
        // A scripted node that answers a burst of requests newest-first,
        // echoing each request id as the Pong payload — something the
        // sequential NMP never does, which is exactly the point: the
        // demultiplexer must correlate by id, not arrival order.
        let server = std::thread::spawn(move || {
            let mut msg = msg_listener.accept().unwrap();
            let _data = data_listener.accept().unwrap();
            answer_handshake(&mut msg);
            for (request, at) in collect_requests(&mut msg, 8).into_iter().rev() {
                reply(
                    &mut msg,
                    request.id,
                    ApiReply::Pong {
                        now_nanos: request.id.raw(),
                    },
                    at,
                );
            }
        });
        let host = HostRuntime::connect(&fabric, &one_node_config()).unwrap();
        let pending: Vec<PendingCall> = (0..8)
            .map(|_| host.submit(NodeId::new(0), ApiCall::Ping).unwrap())
            .collect();
        for p in pending {
            let id = p.id();
            let outcome = p.wait().unwrap();
            match outcome.reply {
                ApiReply::Pong { now_nanos } => {
                    assert_eq!(now_nanos, id.raw(), "response correlated to its request");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        server.join().unwrap();
    }

    #[test]
    fn dying_node_fails_inflight_calls_cleanly() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let msg_listener = fabric.bind("10.0.9.1:7100").unwrap();
        let data_listener = fabric.bind("10.0.9.1:7101").unwrap();
        // A node that swallows three requests and dies without answering.
        let server = std::thread::spawn(move || {
            let mut msg = msg_listener.accept().unwrap();
            let _data = data_listener.accept().unwrap();
            answer_handshake(&mut msg);
            collect_requests(&mut msg, 3);
        });
        let host = HostRuntime::connect(&fabric, &one_node_config()).unwrap();
        let pending: Vec<PendingCall> = (0..3)
            .map(|_| host.submit(NodeId::new(0), ApiCall::Ping).unwrap())
            .collect();
        server.join().unwrap();
        for p in pending {
            let err = p.wait().unwrap_err();
            assert!(
                matches!(err, ClusterError::Net(_)),
                "unexpected error {err}"
            );
        }
        // The link is marked dead: later submissions fail fast too.
        let err = match host.submit(NodeId::new(0), ApiCall::Ping) {
            Err(e) => e,
            Ok(p) => p.wait().unwrap_err(),
        };
        assert!(
            matches!(err, ClusterError::Net(_)),
            "unexpected error {err}"
        );
    }

    #[test]
    fn eight_deep_pipeline_on_one_node() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
        let pending: Vec<PendingCall> = (0..12)
            .map(|_| {
                cluster
                    .host()
                    .submit(NodeId::new(0), ApiCall::Ping)
                    .unwrap()
            })
            .collect();
        assert_eq!(pending.len(), 12, "12 calls in flight before any wait");
        for p in pending {
            assert!(matches!(p.wait().unwrap().reply, ApiReply::Pong { .. }));
        }
        cluster.shutdown();
    }

    #[test]
    fn interleaved_submits_across_nodes() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(3), KernelRegistry::new()).unwrap();
        let pending: Vec<PendingCall> = (0..9)
            .map(|i| {
                cluster
                    .host()
                    .submit(NodeId::new(i % 3), ApiCall::Ping)
                    .unwrap()
            })
            .collect();
        // Claim in reverse submission order: completion must not depend
        // on waiting in FIFO order.
        for p in pending.into_iter().rev() {
            assert!(matches!(p.wait().unwrap().reply, ApiReply::Pong { .. }));
        }
        cluster.shutdown();
    }

    #[test]
    fn try_poll_claims_without_blocking() {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(1), KernelRegistry::new()).unwrap();
        let mut p = cluster
            .host()
            .submit(NodeId::new(0), ApiCall::Ping)
            .unwrap();
        let result = loop {
            match p.try_poll() {
                Some(r) => break r,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        assert!(matches!(result.unwrap().reply, ApiReply::Pong { .. }));
        assert!(p.try_poll().is_none(), "a claimed call stays claimed");
        cluster.shutdown();
    }

    #[test]
    fn concurrent_submitters_share_the_control_plane() {
        // Many threads hammering one node exercises the coalescing path:
        // whoever holds the transmit lock batches the others' requests.
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let host = cluster.host();
                s.spawn(move || {
                    for i in 0..16 {
                        let outcome = host.call(NodeId::new((t + i) % 2), ApiCall::Ping).unwrap();
                        assert!(matches!(outcome.reply, ApiReply::Pong { .. }));
                    }
                });
            }
        });
        cluster.shutdown();
    }

    #[test]
    fn swallowed_request_is_retransmitted_until_answered() {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let msg_listener = fabric.bind("10.0.9.1:7100").unwrap();
        let data_listener = fabric.bind("10.0.9.1:7101").unwrap();
        // A node that swallows the first delivery and only answers the
        // retransmission — the wait must absorb the loss.
        let server = std::thread::spawn(move || {
            let mut msg = msg_listener.accept().unwrap();
            let _data = data_listener.accept().unwrap();
            answer_handshake(&mut msg);
            let (first, _) = collect_requests(&mut msg, 1).remove(0);
            assert_eq!(first.attempt, 0);
            let (retry, at) = collect_requests(&mut msg, 1).remove(0);
            assert_eq!(retry.id, first.id, "retransmission reuses the id");
            assert_eq!(retry.attempt, 1, "retransmission bumps the attempt");
            reply(&mut msg, retry.id, ApiReply::Pong { now_nanos: 7 }, at);
        });
        let host = HostRuntime::connect(&fabric, &one_node_config()).unwrap();
        host.set_recovery(Some(RecoveryPolicy {
            base_timeout: Duration::from_millis(30),
            max_attempts: 4,
            failover: false,
        }));
        let outcome = host.call(NodeId::new(0), ApiCall::Ping).unwrap();
        assert!(matches!(outcome.reply, ApiReply::Pong { now_nanos: 7 }));
        let retries = host
            .obs()
            .metrics
            .counter_value(names::RETRIES, &[("node", "n0")]);
        assert!(retries >= 1, "retry was counted, got {retries}");
        server.join().unwrap();
    }

    #[test]
    fn failover_replays_state_onto_a_survivor() {
        let mut cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(2), KernelRegistry::new()).unwrap();
        cluster.host().set_recovery(Some(RecoveryPolicy {
            base_timeout: Duration::from_millis(50),
            max_attempts: 2,
            failover: true,
        }));
        let node = NodeId::new(1);
        let buf = BufferId::new(1);
        let payload: Vec<u8> = (0..16).collect();
        cluster
            .host()
            .call(
                node,
                ApiCall::CreateBuffer {
                    device: 0,
                    buffer: buf,
                    size: 16,
                },
            )
            .unwrap();
        cluster
            .host()
            .call(
                node,
                ApiCall::WriteBuffer {
                    device: 0,
                    buffer: buf,
                    offset: 0,
                    data: Bytes::from(payload.clone()),
                },
            )
            .unwrap();
        // Lose the node. The next call to it must fail over: the journal
        // re-provisions the buffer (with its contents) on the survivor.
        assert!(cluster.kill_node(1));
        let outcome = cluster
            .host()
            .call(
                node,
                ApiCall::ReadBuffer {
                    device: 0,
                    buffer: buf,
                    offset: 0,
                    len: 16,
                },
            )
            .unwrap();
        match outcome.reply {
            ApiReply::Data { bytes } => assert_eq!(bytes.as_ref(), &payload[..]),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(cluster.host().node_epoch(node), 1, "route epoch bumped");
        // The logical node keeps answering (served by the survivor).
        let outcome = cluster.host().call(node, ApiCall::Ping).unwrap();
        assert!(matches!(outcome.reply, ApiReply::Pong { .. }));
        let failovers = cluster
            .host()
            .obs()
            .metrics
            .counter_value(names::FAILOVERS, &[("from", "gpu1"), ("to", "gpu0")]);
        assert!(failovers >= 1, "failover was counted, got {failovers}");
        cluster.shutdown();
    }
}
