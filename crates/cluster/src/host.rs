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
//! * whoever waits for a response receives for everyone (leader /
//!   follower): the first waiter on a connection takes its receive half
//!   and completes *every* arrived response by [`RequestId`] — its own
//!   included, in whatever order they arrive — while later waiters park;
//!   when the leader has its answer it hands the receive half back and
//!   one of them takes over. No thread exists only to receive;
//! * [`HostRuntime::call`] keeps the paper's synchronous semantics as
//!   `submit(...).wait()`, so lock-step callers are unchanged;
//! * every request travels in a frame of its own, written by the
//!   submitting thread at its own virtual send time; submitters that meet
//!   on a node's connection take turns, and nothing is merged or queued.
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

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use haocl_net::{Fabric, NetError};
use haocl_obs::{
    default_tenant, names, CandidateInfo, FusionDecision, Hub, PlacementAudit, PredictionSource,
    TraceCtx,
};
use haocl_proto::ids::{IdAllocator, NodeId, RequestId, UserId};
use haocl_proto::messages::{ApiCall, ApiReply, DeviceDescriptor, Request, WireSpan};
use haocl_sim::{Clock, SimTime};

use crate::config::{ClusterConfig, NodeSpec};
use crate::error::ClusterError;
use crate::link::{Claim, NodeLink};

/// One device in the cluster, as mapped during the handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteDevice {
    /// The node hosting the device.
    pub node: NodeId,
    /// The node's configured name, shared with the audit rows.
    pub node_name: Arc<str>,
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
#[repr(u8)]
pub enum MembershipState {
    /// Connected; the hello/device-mapping handshake is in flight.
    Joining = 0,
    /// Fully registered; eligible for placements and failover targets.
    Active = 1,
    /// Voluntarily leaving: no new placements land here, resident
    /// buffers are migrating off, in-flight work still completes.
    Draining = 2,
    /// Gone from the cluster — voluntarily (after a drain) or because a
    /// join handshake failed. Terminal.
    Departed = 3,
}

impl MembershipState {
    /// The value the `haocl_node_state` gauge carries for this state.
    pub fn gauge_value(self) -> i64 {
        self as i64
    }

    /// The state a slot's atomic holds as `raw` (`state as u8`).
    fn from_raw(raw: u8) -> Self {
        match raw {
            0 => MembershipState::Joining,
            1 => MembershipState::Active,
            2 => MembershipState::Draining,
            _ => MembershipState::Departed,
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
    /// What a failover replays; touched only while recovery is enabled.
    journal: Mutex<Journal>,
    /// Where the node stands in the membership lifecycle (a
    /// [`MembershipState`] `as u8`); read on every submission.
    membership: AtomicU8,
    /// How many of this node's route-epoch bumps were *voluntary*
    /// (drain retirements). Quarantine logic subtracts these from the
    /// route epoch so a clean departure never reads as a failure.
    voluntary_epochs: AtomicU32,
}

/// One logical node's replayable history.
#[derive(Default)]
struct Journal {
    /// State-establishing calls in submission order, replayed onto a
    /// failover target to reconstruct the lost node's buffers, programs
    /// and kernels.
    entries: Vec<JournalEntry>,
    /// Journaled calls still in flight. Failover replay skips these:
    /// their own waiters retransmit them (under the original id, so the
    /// node journal can dedup), and replaying them under a fresh id as
    /// well would execute them twice.
    inflight: HashSet<RequestId>,
}

impl NodeSlot {
    fn membership(&self) -> MembershipState {
        MembershipState::from_raw(self.membership.load(Ordering::SeqCst))
    }

    fn journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().expect("journal poisoned")
    }
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
        let slots = self.slots.read().expect("slots poisoned");
        slots.get(index).map(|s| s.membership())
    }

    fn route_of(&self, node: NodeId) -> (usize, u32) {
        let slots = self.slots.read().expect("slots poisoned");
        let slot = slots
            .get(node.raw() as usize)
            .expect("route of unknown node");
        let route = slot.route.lock().expect("route poisoned");
        (route.physical, route.epoch)
    }

    fn link_alive(&self, physical: usize) -> bool {
        self.slot(physical).is_some_and(|slot| slot.link.alive())
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
        let (entries, inflight) = {
            let journal = slot.journal();
            (journal.entries.clone(), journal.inflight.clone())
        };
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
            link.shared.register(id, plane)?;
            if let Err(err) = link.send(request, now) {
                link.shared.forget(id);
                return Err(err);
            }
            match link.claim(id, &self.clock, Some(Instant::now() + patience)) {
                Claim::Outcome(result) => return result,
                // Drop the stale entry before retrying; a late response
                // to this transmission is simply discarded and the
                // retry re-earns one (deduped node-side).
                Claim::TimedOut => link.shared.forget(id),
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
    id: RequestId,
    /// The request as first transmitted, kept for retransmission — only
    /// when a recovery policy was installed at submission; without one
    /// the request was moved into its frame and nothing can resend it.
    resend: Option<Request>,
    /// Whether the call sits in its node's failover journal (and so in
    /// the journal's in-flight set until this handle goes away).
    journaled: bool,
    /// The logical node addressed.
    node: NodeId,
    /// The physical link the request was last transmitted on…
    physical: usize,
    /// …and its slot.
    route: Arc<NodeSlot>,
    /// The routing epoch the request was last transmitted under.
    epoch: u32,
    inner: Arc<HostInner>,
    taken: bool,
}

impl PendingCall {
    /// The request's correlation id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The node the request was sent to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until the response arrives (or the node's backbone dies).
    ///
    /// Claiming the response advances the shared virtual clock to its
    /// arrival time; until a response is claimed it does not move the
    /// clock, keeping virtual timestamps deterministic whichever waiter
    /// happens to receive it.
    ///
    /// With a [`RecoveryPolicy`] installed (when the call was submitted
    /// and now), transport failures and timeouts are absorbed: the call
    /// is retransmitted with backoff and, if its node is lost, failed
    /// over to a survivor (see the module docs). Only a terminal
    /// inability to deliver surfaces as an error then.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Remote`] when the node answered with an error
    /// reply; a transport error when the connection failed while the
    /// call was in flight (and recovery was off or exhausted).
    pub fn wait(mut self) -> Result<CallOutcome, ClusterError> {
        match (self.inner.recovery(), self.resend.take()) {
            (Some(policy), Some(request)) => self.wait_recovering(policy, request),
            _ => self.wait_plain(),
        }
    }

    fn wait_plain(&mut self) -> Result<CallOutcome, ClusterError> {
        self.taken = true;
        match self.route.link.claim(self.id, &self.inner.clock, None) {
            Claim::Outcome(result) => result,
            Claim::Gone(err) => Err(err),
            Claim::TimedOut => unreachable!("claim without a deadline cannot time out"),
        }
    }

    fn wait_recovering(
        &mut self,
        policy: RecoveryPolicy,
        request: Request,
    ) -> Result<CallOutcome, ClusterError> {
        let mut attempt: u32 = 0;
        let mut last_err;
        loop {
            let patience = policy.base_timeout * 2u32.saturating_pow(attempt.min(6));
            let deadline = Instant::now() + patience;
            let slot = Arc::clone(&self.route);
            match slot.link.claim(self.id, &self.inner.clock, Some(deadline)) {
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
                && slot.link.alive()
                && self.resend(&request, attempt).is_ok()
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
            let (physical, epoch) = self.inner.failover(self.node, self.epoch)?;
            if physical != self.physical {
                // Abandon the entry on the lost route.
                slot.link.shared.forget(self.id);
                self.route = self
                    .inner
                    .slot(physical)
                    .ok_or(ClusterError::Net(NetError::Disconnected))?;
            }
            self.physical = physical;
            self.epoch = epoch;
            attempt = 0;
            // Best effort: if the fresh route died under us the
            // next claim times out fast and we route again.
            let _ = self.resend(&request, 0);
        }
    }

    /// Retransmits `request` (same id) on the current route,
    /// (re-)registering its pending entry first.
    fn resend(&self, request: &Request, attempt: u32) -> Result<(), ClusterError> {
        let link = &self.route.link;
        link.shared.register(self.id, request.body.plane())?;
        let now = self.inner.clock.now();
        let mut request = request.clone();
        request.sent_at_nanos = now.as_nanos();
        request.epoch = self.epoch;
        request.attempt = attempt;
        link.send(request, now)
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if !self.taken {
            self.route.link.shared.forget(self.id);
        }
        if self.journaled {
            if let Some(slot) = self.inner.slot(self.node.raw() as usize) {
                if let Ok(mut journal) = slot.journal.lock() {
                    journal.inflight.remove(&self.id);
                }
            }
        }
    }
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingCall({} @ {})", self.id, self.node)
    }
}

/// The host runtime: device mapping plus pipelined call forwarding.
pub struct HostRuntime {
    /// The user/session every outgoing request is tagged with: 0, the
    /// host's own id, unless a serving-plane dispatch has switched it to
    /// its tenant's (§III-D's "user ID" field). Atomic so the switch
    /// works through a shared handle.
    user: AtomicU32,
    /// Hands out the user ids of opened sessions, unique per runtime and
    /// starting at 1.
    user_ids: IdAllocator,
    /// The mapped devices, cluster-wide; append-only like the slots, so
    /// device indices allocated while a node was alive stay stable after
    /// it departs. Each record is shared with the device handles made
    /// from it.
    devices: RwLock<Vec<Arc<RemoteDevice>>>,
    /// The fabric nodes connect through, kept so membership can grow
    /// after construction ([`HostRuntime::connect_node`]).
    fabric: Fabric,
    /// The host's fabric endpoint name.
    host_name: String,
    inner: Arc<HostInner>,
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
            user: AtomicU32::new(0),
            user_ids: IdAllocator::new(),
            devices: RwLock::new(Vec::new()),
            fabric: fabric.clone(),
            host_name,
            inner: Arc::new(HostInner {
                slots: RwLock::new(Vec::new()),
                recovery: Mutex::new(None),
                request_ids: IdAllocator::new(),
                clock: fabric.clock().clone(),
                obs: Arc::new(Hub::new()),
            }),
        };
        for spec in &config.nodes {
            runtime.connect_node(spec)?;
        }
        Ok(runtime)
    }

    /// Connects a *new* node into the running cluster: dials both
    /// planes, registers a fresh slot (state `Joining`), performs the
    /// hello/device-mapping handshake, and promotes the node to
    /// `Active`. Returns the new node's id.
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
        let link = NodeLink::connect(
            &self.fabric,
            &self.host_name,
            spec,
            Arc::clone(&self.inner.obs),
        )?;
        let node = {
            let mut slots = self.inner.slots.write().expect("slots poisoned");
            let index = slots.len();
            slots.push(Arc::new(NodeSlot {
                link,
                route: Mutex::new(RouteState {
                    physical: index,
                    epoch: 0,
                    burned: Vec::new(),
                }),
                journal: Mutex::default(),
                membership: AtomicU8::new(MembershipState::Joining as u8),
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
                    devices.push(Arc::new(RemoteDevice {
                        node,
                        node_name: spec.name.as_str().into(),
                        device: d.index,
                        descriptor: d,
                    }));
                }
                drop(devices);
                self.set_membership(&slot, node, MembershipState::Active);
                Ok(node)
            }
            Err(e) => {
                // Tombstone the slot so indices stay stable and nothing
                // ever routes here.
                slot.link.close(ClusterError::Net(NetError::Disconnected));
                self.set_membership(&slot, node, MembershipState::Departed);
                Err(e)
            }
        }
    }

    /// The mapped devices, cluster-wide, in `(node, device)` order —
    /// including devices on nodes that have since departed (device
    /// indices are stable for the life of the runtime). Check
    /// [`HostRuntime::node_membership`] for liveness.
    pub fn devices(&self) -> Vec<Arc<RemoteDevice>> {
        self.devices.read().expect("devices poisoned").clone()
    }

    /// The mapping record for one cluster-wide device index.
    pub fn device_info(&self, index: usize) -> Option<Arc<RemoteDevice>> {
        self.devices
            .read()
            .expect("devices poisoned")
            .get(index)
            .cloned()
    }

    /// The node hosting one cluster-wide device index.
    pub fn device_node(&self, index: usize) -> Option<NodeId> {
        let devices = self.devices.read().expect("devices poisoned");
        devices.get(index).map(|d| d.node)
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
    /// support) and returns the previous one, so a serving plane holding
    /// the runtime behind an `Arc` can re-tag for one dispatch and put
    /// the old tag back.
    pub fn set_user(&self, user: UserId) -> UserId {
        UserId::new(self.user.swap(user.raw(), Ordering::Relaxed))
    }

    /// Allocates a fresh user id for a new session: unique on this
    /// runtime, starting at 1 (0 is the host's own).
    pub fn allocate_user(&self) -> UserId {
        UserId::new(self.user_ids.next() as u32)
    }

    /// Installs (or clears) the fault-recovery policy. `None` — the
    /// default — keeps fail-fast semantics; see the module docs for
    /// what a policy enables. Takes effect for subsequent submissions —
    /// only a call submitted under a policy keeps the copy of its
    /// request a retransmission needs — and for their waits; enable
    /// recovery *before* issuing work, so the failover journal is
    /// complete.
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
        if self.inner.recovery().is_none() || slot.membership() == MembershipState::Departed {
            return;
        }
        slot.journal().entries.push(JournalEntry {
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
    /// connection; everything else on the message connection. Either
    /// way the request is one frame, written by this thread before
    /// `submit` returns; concurrent submitters to one node take turns.
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
        if node_slot.membership() == MembershipState::Departed {
            return Err(ClusterError::Config(format!(
                "node {node} has departed the cluster"
            )));
        }
        let recovery = inner.recovery();
        let failover = recovery.is_some_and(|p| p.failover);
        let id = RequestId::new(inner.request_ids.next());
        let user = self.user();
        // Journal and in-flight registration happen before the send so
        // a concurrent failover can neither miss this call's state nor
        // replay it while its own waiter still owns it.
        let journaled = recovery.is_some() && call.replayed_on_failover();
        if journaled {
            let mut journal = node_slot.journal();
            journal.inflight.insert(id);
            journal.entries.push(JournalEntry {
                id,
                user,
                call: call.clone(),
            });
        }
        let now = inner.clock.now();
        let plane = call.plane();
        let mut request = Request {
            id,
            user,
            sent_at_nanos: now.as_nanos(),
            trace_id: ctx.map_or(0, |c| c.trace.0),
            parent_span: ctx.map_or(0, |c| c.parent.0),
            epoch: 0,
            attempt: 0,
            body: call,
        };
        let abort = |err: ClusterError| {
            if journaled {
                let mut journal = node_slot.journal();
                journal.inflight.remove(&id);
                if let Some(pos) = journal.entries.iter().rposition(|e| e.id == id) {
                    journal.entries.remove(pos);
                }
            }
            Err(err)
        };
        let mut routes_tried = 0usize;
        loop {
            let (physical, epoch) = {
                let route = node_slot.route.lock().expect("route poisoned");
                (route.physical, route.epoch)
            };
            let (physical, epoch) = if failover && !inner.link_alive(physical) {
                match inner.failover(node, epoch) {
                    Ok(moved) => moved,
                    Err(e) => return abort(e),
                }
            } else {
                (physical, epoch)
            };
            request.epoch = epoch;
            let route = if physical == index {
                Arc::clone(&node_slot)
            } else {
                match inner.slot(physical) {
                    Some(slot) => slot,
                    None => return abort(ClusterError::Net(NetError::Disconnected)),
                }
            };
            let may_reroute = failover && routes_tried < inner.slot_count();
            if let Err(err) = route.link.shared.register(id, plane) {
                if may_reroute {
                    routes_tried += 1;
                    continue;
                }
                return abort(err);
            }
            // The request moves into its frame; only a waiter that may
            // have to send it again keeps a copy.
            let resend = recovery.is_some().then(|| request.clone());
            match route.link.send(request, now) {
                Ok(()) => {
                    return Ok(PendingCall {
                        id,
                        resend,
                        journaled,
                        node,
                        physical,
                        route,
                        epoch,
                        inner: Arc::clone(inner),
                        taken: false,
                    });
                }
                Err(err) => {
                    route.link.shared.forget(id);
                    match resend {
                        Some(kept) if may_reroute => {
                            request = kept;
                            routes_tried += 1;
                        }
                        _ => return abort(err),
                    }
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
        let (active, draining) = (
            MembershipState::Active as u8,
            MembershipState::Draining as u8,
        );
        match slot
            .membership
            .compare_exchange(active, draining, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {}
            Err(raw) if raw == draining => return Ok(()),
            Err(raw) => {
                return Err(ClusterError::Config(format!(
                    "node {node} cannot drain from state {}",
                    MembershipState::from_raw(raw)
                )));
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
        let departed = MembershipState::Departed as u8;
        if slot.membership.swap(departed, Ordering::SeqCst) == departed {
            return Ok(());
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
        *slot.journal() = Journal::default();
        // Closed, not failed: when the NMP's connections go away next,
        // nobody is left receiving on them to book a link failure.
        slot.link.close(ClusterError::Net(NetError::Disconnected));
        self.note_membership(node, MembershipState::Departed);
        Ok(())
    }

    fn set_membership(&self, slot: &NodeSlot, node: NodeId, state: MembershipState) {
        slot.membership.store(state as u8, Ordering::SeqCst);
        self.note_membership(node, state);
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
        // Unlike placement rows, recorded only while tracing: untraced,
        // `haocl-top` reads node states from the gauge set above.
        if !obs.enabled() {
            return;
        }
        obs.audit.record(PlacementAudit {
            kernel: "<membership>".into(),
            tenant: default_tenant(),
            policy: "membership".into(),
            candidates: vec![CandidateInfo {
                device: node.raw() as usize,
                node: name.as_str().into(),
                kind: "-",
                predicted_nanos: None,
                source: PredictionSource::CostModel,
                health: CandidateInfo::HEALTHY,
            }],
            chosen: node.raw() as usize,
            reason: format!("state={state} node={name}").into(),
            fused: FusionDecision::Unconsidered,
        });
    }

    /// The configured name of `node`.
    pub fn node_name(&self, node: NodeId) -> Option<String> {
        self.inner
            .slot(node.raw() as usize)
            .map(|s| s.link.name.clone())
    }

    /// Brings the per-link self-reports in the metric registry up to
    /// date — `haocl_link_pending` and
    /// `haocl_link_foreign_completions_total`, per node and plane — for
    /// every node still in the cluster. Call before rendering.
    pub fn export_link_metrics(&self) {
        for slot in self.inner.slots.read().expect("slots poisoned").iter() {
            if slot.membership() != MembershipState::Departed {
                slot.link.export_metrics();
            }
        }
    }

    /// The observability hub shared by this runtime's links. The
    /// platform layer adopts this hub (instead of creating
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
        // PendingCalls hold their own Arc into the shared state and may
        // outlive the runtime; leave them a terminal error instead of a
        // hang.
        for slot in self.inner.slots.read().expect("slots poisoned").iter() {
            slot.link.close(ClusterError::Net(NetError::Disconnected));
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
    use haocl_proto::messages::{Envelope, Plane, Response};
    use haocl_proto::wire::{decode_from_segments, encode_to_vec};

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
        let Envelope::Single(hello) = decode_from_segments(frame).unwrap();
        assert!(matches!(hello.body, ApiCall::Hello { .. }));
        reply(msg, hello.id, ApiReply::NodeInfo { devices: vec![] }, at);
    }

    fn collect_requests(msg: &mut Conn, n: usize) -> Vec<(Request, SimTime)> {
        (0..n)
            .map(|_| {
                let (frame, at) = msg.recv_frame().unwrap();
                let Envelope::Single(request) = decode_from_segments(frame).unwrap();
                (request, at)
            })
            .collect()
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

    /// A one-node runtime against a scripted node: `script` gets the
    /// message and data connections once the handshake is answered.
    fn scripted<T: Send + 'static>(
        script: impl FnOnce(Conn, Conn) -> T + Send + 'static,
    ) -> (Fabric, HostRuntime, std::thread::JoinHandle<T>) {
        let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
        let msg_listener = fabric.bind("10.0.9.1:7100").unwrap();
        let data_listener = fabric.bind("10.0.9.1:7101").unwrap();
        let server = std::thread::spawn(move || {
            let mut msg = msg_listener.accept().unwrap();
            let data = data_listener.accept().unwrap();
            answer_handshake(&mut msg);
            script(msg, data)
        });
        let host = HostRuntime::connect(&fabric, &one_node_config()).unwrap();
        (fabric, host, server)
    }

    fn pong(conn: &mut Conn, request: &Request, at: SimTime) {
        let now_nanos = request.id.raw();
        reply(conn, request.id, ApiReply::Pong { now_nanos }, at);
    }

    fn is_pong_for(result: Result<CallOutcome, ClusterError>, id: RequestId) -> bool {
        matches!(result, Ok(CallOutcome { reply: ApiReply::Pong { now_nanos }, .. }) if now_nanos == id.raw())
    }

    /// Spins until the control plane of node 0's link has a leader and
    /// `parked` waiters behind it.
    fn until_waiting(host: &HostRuntime, parked: usize) {
        let slot = host.inner.slot(0).unwrap();
        while slot.link.waiters(Plane::Control) != (true, parked) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_leader_completes_the_follower_whose_reply_arrives_first() {
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let (_fabric, host, server) = scripted(move |mut msg, _data| {
            let requests = collect_requests(&mut msg, 2);
            gone.recv().unwrap();
            // Newest first: the leader's own reply comes last.
            for (request, at) in requests.iter().rev() {
                pong(&mut msg, request, *at);
            }
        });
        let first = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        let second = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        let (first_id, second_id) = (first.id(), second.id());
        std::thread::scope(|s| {
            let leader = s.spawn(|| first.wait());
            until_waiting(&host, 0);
            let follower = s.spawn(|| second.wait());
            until_waiting(&host, 1);
            go.send(()).unwrap();
            assert!(is_pong_for(follower.join().unwrap(), second_id));
            assert!(is_pong_for(leader.join().unwrap(), first_id));
        });
        let slot = host.inner.slot(0).unwrap();
        assert_eq!(
            slot.link.foreign_completions(Plane::Control),
            1,
            "the leader received the follower's reply"
        );
        assert_eq!(slot.link.waiters(Plane::Control), (false, 0));
        server.join().unwrap();
    }

    #[test]
    fn a_leader_whose_deadline_expires_hands_the_receiver_over() {
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let (_fabric, host, server) = scripted(move |mut msg, _data| {
            let requests = collect_requests(&mut msg, 2);
            gone.recv().unwrap();
            let (request, at) = &requests[1];
            pong(&mut msg, request, *at);
        });
        let patience = |base_timeout| {
            Some(RecoveryPolicy {
                base_timeout,
                max_attempts: 1,
                failover: false,
            })
        };
        host.set_recovery(patience(Duration::from_millis(30)));
        let first = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        let second = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        let second_id = second.id();
        std::thread::scope(|s| {
            // A wait reads the policy when it starts: the leader gets
            // the short patience, the follower a long one.
            let leader = s.spawn(|| first.wait());
            until_waiting(&host, 0);
            host.set_recovery(patience(Duration::from_secs(30)));
            let follower = s.spawn(|| second.wait());
            until_waiting(&host, 1);
            let gave_up = leader.join().unwrap().unwrap_err();
            assert!(
                matches!(gave_up, ClusterError::Net(NetError::Timeout)),
                "unexpected error {gave_up}"
            );
            // The follower took the receive half over; only now does
            // its reply leave the node.
            until_waiting(&host, 0);
            go.send(()).unwrap();
            assert!(is_pong_for(follower.join().unwrap(), second_id));
        });
        server.join().unwrap();
    }

    #[test]
    fn an_abandoned_calls_reply_is_discarded_and_its_frame_recycled() {
        let (fabric, host, server) = scripted(|mut msg, _data| {
            for (request, at) in collect_requests(&mut msg, 2) {
                pong(&mut msg, &request, at);
            }
        });
        let outstanding = || {
            let stats = fabric.pool_stats();
            stats.reuses + stats.misses - stats.returns
        };
        let baseline = outstanding();
        let abandoned = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        drop(abandoned);
        // Its reply is ahead of this one on the connection, so this wait
        // receives — and drops — it first.
        let kept = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
        let kept_id = kept.id();
        assert!(is_pong_for(kept.wait(), kept_id));
        server.join().unwrap();
        assert_eq!(
            outstanding(),
            baseline,
            "a reply frame is still checked out"
        );
        host.export_link_metrics();
        let pending = host.obs().metrics.render();
        assert!(
            pending.contains("haocl_link_pending{node=\"n0\",plane=\"control\"} 0"),
            "{pending}"
        );
    }

    #[test]
    fn a_duplicated_reply_counts_one_dedup_hit() {
        let (_fabric, host, server) = scripted(|mut msg, _data| {
            let (first, at) = collect_requests(&mut msg, 1).remove(0);
            pong(&mut msg, &first, at);
            // The journal's copy of the same answer, as a node sends it
            // for a request that reached it twice.
            let again = Response {
                id: first.id,
                completed_at_nanos: at.as_nanos(),
                body: ApiReply::Pong { now_nanos: 0 },
                duplicate: true,
                spans: Vec::new(),
            };
            msg.send_frame(&encode_to_vec(&again), at).unwrap();
            let (second, at) = collect_requests(&mut msg, 1).remove(0);
            pong(&mut msg, &second, at);
        });
        for _ in 0..2 {
            let call = host.submit(NodeId::new(0), ApiCall::Ping).unwrap();
            let id = call.id();
            assert!(is_pong_for(call.wait(), id), "the first answer stands");
        }
        server.join().unwrap();
        let hits = host
            .obs()
            .metrics
            .counter_value(names::DEDUP_HITS, &[("node", "n0")]);
        assert_eq!(hits, 1);
    }

    #[test]
    fn a_failed_data_send_marks_the_link_dead_and_fails_the_plane() {
        let (dropped, was_dropped) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let (_fabric, host, server) = scripted(move |msg, mut data| {
            // Swallow one data-plane request, then lose that connection
            // only; the message connection stays up until the end.
            data.recv_frame().unwrap();
            drop(data);
            dropped.send(()).unwrap();
            finished.recv().unwrap();
            drop(msg);
        });
        let read = || ApiCall::ReadBuffer {
            device: 0,
            buffer: BufferId::new(1),
            offset: 0,
            len: 4,
        };
        let node = NodeId::new(0);
        let in_flight = host.submit(node, read()).unwrap();
        was_dropped.recv().unwrap();
        let refused = host.submit(node, read()).expect_err("send must fail");
        assert!(
            matches!(refused, ClusterError::Net(_)),
            "unexpected error {refused}"
        );
        // Nobody has waited, polled or probed: the failed send itself
        // marked the link dead, so the live message plane refuses too.
        assert!(matches!(
            host.submit(node, ApiCall::Ping),
            Err(ClusterError::Net(_))
        ));
        assert!(matches!(in_flight.wait(), Err(ClusterError::Net(_))));
        let failures = host
            .obs()
            .metrics
            .counter_value(names::LINK_FAILURES, &[("node", "n0"), ("plane", "data")]);
        assert_eq!(failures, 1);
        done.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_dropped_connection_is_noticed_with_no_waiter_present() {
        let (_fabric, host, server) = scripted(|_msg, _data| {});
        // The node answered the handshake and hung up; no call is in
        // flight and no thread sits on the connection.
        server.join().unwrap();
        assert!(!host.inner.link_alive(0));
        assert!(!host.node_is_live(NodeId::new(0)));
        assert!(matches!(
            host.submit(NodeId::new(0), ApiCall::Ping),
            Err(ClusterError::Net(_))
        ));
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
    fn concurrent_submitters_share_the_control_plane() {
        // One frame per request, whoever else is sending: submitters that
        // meet on a link take turns on its sender, nothing is merged.
        let config = ClusterConfig::gpu_cluster(2);
        let cluster = LocalCluster::launch(&config, KernelRegistry::new()).unwrap();
        let host = cluster.host();
        host.obs().set_enabled(true);
        let control_frames = || -> u64 {
            let metrics = &host.obs().metrics;
            config
                .nodes
                .iter()
                .map(|node| [("node", node.name.as_str()), ("plane", "control")])
                .map(|labels| metrics.counter_value(names::PLANE_FRAMES, &labels))
                .sum()
        };
        let before = control_frames();
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
        assert_eq!(control_frames() - before, 4 * 16);
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
