//! One node's backbone link: the two connections, the calls in flight on
//! them, and who receives.
//!
//! A link is plain transport — it registers calls, sends requests and
//! completes them from whatever the node answers. Routing, retransmission
//! and failover live a layer up, in [`crate::host`].
//!
//! # Who sends
//!
//! The submitter, in its own thread: [`NodeLink::send`] locks the
//! request's plane's transmit half and writes one frame carrying that one
//! request, stamped with the submitter's own virtual send time. Nothing is
//! queued on the way out and no frame carries two requests.
//!
//! # Who receives
//!
//! Nobody, until somebody waits. Each connection's receive half sits in
//! the link's state; a waiter whose call is still in flight takes it (it
//! *leads*), blocks on the connection with the state lock released, and
//! completes **every** response that arrives — its own or not — into the
//! pending map. Waiters that find the receive half taken park on a
//! condition variable (they *follow*). The leader hands the receive half
//! back as soon as its own call is done (or its patience runs out) and
//! wakes the followers: those it completed return, one of the rest leads
//! next. A response therefore costs the two thread hand-offs the wire
//! needs — host to node, node to host — and no third one from a receiver
//! thread to the waiter.
//!
//! Completing a call does not move the virtual clock; *claiming* it does
//! (see [`PendingEntry::done`]), so timestamps do not depend on which
//! waiter happened to lead.
//!
//! With no thread parked on a connection, a node that hangs up is noticed
//! by the next thing that touches the link: a send (the channel refuses
//! it), a wait (the leader reads the disconnect), or a liveness check
//! ([`NodeLink::alive`] looks at both connections without blocking).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use haocl_net::{ConnReceiver, ConnSender, Fabric, Frame, NetError};
use haocl_obs::{names, Hub};
use haocl_proto::ids::RequestId;
use haocl_proto::messages::{ApiReply, Envelope, Plane, Request, Response};
use haocl_proto::wire::{decode_from_segments, encode_segmented};
use haocl_sim::{Clock, SimTime};

use crate::config::NodeSpec;
use crate::error::ClusterError;
use crate::host::CallOutcome;

/// One submitted call, as its link's completion map tracks it.
struct PendingEntry {
    /// The plane the request went out on; its response comes back on the
    /// same one.
    plane: Plane,
    /// `None` while in flight; set by whoever receives the response or
    /// fails the plane, until the owner claims it. The second field is
    /// the response's virtual arrival time (`None` for transport
    /// failures, which carry no timestamp): the *claimer* advances the
    /// shared clock to it, so virtual time progresses in program order
    /// rather than with whichever waiter happened to be receiving —
    /// out-of-order completion must not make virtual timestamps
    /// nondeterministic.
    done: Option<(Result<CallOutcome, ClusterError>, Option<SimTime>)>,
}

struct LinkState {
    pending: HashMap<RequestId, PendingEntry>,
    /// Set once the node's backbone connection is gone; every later
    /// submit or wait fails immediately with this error.
    dead: Option<ClusterError>,
    /// Each plane's receive half, while no waiter is receiving on it
    /// (indexed by [`lane`]). A waiter takes it to lead and puts it back
    /// when it leaves; a plane that failed or was closed has none.
    rx: [Option<ConnReceiver>; 2],
    /// Planes already failed or closed: their failure is booked once,
    /// however many senders and receivers notice it.
    down: [bool; 2],
    /// Waiters parked on [`LinkShared::completed`].
    parked: usize,
}

/// Index of a plane's transmit half, receive half and counters.
fn lane(plane: Plane) -> usize {
    match plane {
        Plane::Control => 0,
        Plane::Data => 1,
    }
}

fn plane_label(plane: Plane) -> &'static str {
    match plane {
        Plane::Control => "control",
        Plane::Data => "data",
    }
}

/// Completion state shared between a link's submitters and waiters.
pub(crate) struct LinkShared {
    state: Mutex<LinkState>,
    /// Signalled when a leader completed someone else's call or left
    /// the receive half free — and only while somebody is parked.
    completed: Condvar,
    /// Calls registered and not yet claimed or abandoned, per plane
    /// (`haocl_link_pending` at scrape time).
    depth: [AtomicU64; 2],
    /// Responses a leader completed for another waiter, per plane
    /// (`haocl_link_foreign_completions_total` at scrape time).
    foreign: [AtomicU64; 2],
}

/// What [`NodeLink::claim`] found.
pub(crate) enum Claim {
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
    fn new(rx: [ConnReceiver; 2]) -> Self {
        LinkShared {
            state: Mutex::new(LinkState {
                pending: HashMap::new(),
                dead: None,
                rx: rx.map(Some),
                down: [false; 2],
                parked: 0,
            }),
            completed: Condvar::new(),
            depth: Default::default(),
            foreign: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("link state poisoned")
    }

    /// Registers call `id` as in flight on `plane`.
    pub(crate) fn register(&self, id: RequestId, plane: Plane) -> Result<(), ClusterError> {
        let mut state = self.lock();
        if let Some(err) = &state.dead {
            return Err(err.clone());
        }
        let entry = PendingEntry { plane, done: None };
        if state.pending.insert(id, entry).is_none() {
            self.depth[lane(plane)].fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Drops call `id`'s entry, claimed or not; a response that arrives
    /// later is discarded by whoever receives it.
    pub(crate) fn forget(&self, id: RequestId) {
        self.remove(&mut self.lock(), id);
    }

    fn remove(&self, state: &mut LinkState, id: RequestId) -> Option<PendingEntry> {
        let entry = state.pending.remove(&id)?;
        self.depth[lane(entry.plane)].fetch_sub(1, Ordering::Relaxed);
        Some(entry)
    }

    /// What a waiter for `id` finds right now: `Err(plane)` while the
    /// call is still in flight; otherwise the result, claimed out of the
    /// map with the clock advanced to the response's arrival.
    fn take(&self, state: &mut LinkState, id: RequestId, clock: &Clock) -> Result<Claim, Plane> {
        match state.pending.get(&id) {
            None => Ok(Claim::Gone(
                state
                    .dead
                    .clone()
                    .unwrap_or(ClusterError::Net(NetError::Disconnected)),
            )),
            Some(PendingEntry {
                plane, done: None, ..
            }) => Err(*plane),
            Some(_) => {
                let (result, received_at) = self
                    .remove(state, id)
                    .and_then(|entry| entry.done)
                    .expect("entry observed done under the same lock");
                if let Some(at) = received_at {
                    clock.advance_to(at);
                }
                Ok(Claim::Outcome(result))
            }
        }
    }

    /// Completes the pending call correlated to `response` (responses
    /// for cancelled/unknown ids are discarded — and so is the slower
    /// copy when a retransmitted request is answered twice: the first
    /// answer stands). Returns whether a call other than `own` was
    /// completed.
    fn complete(
        &self,
        state: &mut LinkState,
        response: Response,
        received_at: SimTime,
        own: Option<RequestId>,
    ) -> bool {
        let Some(entry) = state.pending.get_mut(&response.id) else {
            return false;
        };
        if entry.done.is_some() {
            return false;
        }
        let foreign = own != Some(response.id);
        if foreign {
            self.foreign[lane(entry.plane)].fetch_add(1, Ordering::Relaxed);
        }
        let result = match response.body {
            ApiReply::Error { code, message } => Err(ClusterError::Remote { code, message }),
            reply => Ok(CallOutcome {
                reply,
                node_completed: SimTime::from_nanos(response.completed_at_nanos),
                host_received: received_at,
                spans: response.spans,
            }),
        };
        entry.done = Some((result, Some(received_at)));
        foreign
    }

    /// Marks the link dead and fails `plane`'s in-flight calls with
    /// `err`; returns whether the plane was still up.
    ///
    /// Only the dying plane's entries are failed: the *other* plane's
    /// connection may still hold responses the node actually delivered,
    /// and whoever waits there receives them before it can observe that
    /// connection's own end.
    fn fail_plane(&self, state: &mut LinkState, plane: Plane, err: ClusterError) -> bool {
        let was_up = !std::mem::replace(&mut state.down[lane(plane)], true);
        for entry in state.pending.values_mut() {
            if entry.plane == plane && entry.done.is_none() {
                entry.done = Some((Err(err.clone()), None));
            }
        }
        state.dead.get_or_insert(err);
        if state.parked > 0 {
            self.completed.notify_all();
        }
        was_up
    }
}

pub(crate) struct NodeLink {
    pub(crate) name: String,
    /// The node's data-listener address, handed to *other* nodes as the
    /// destination of peer data-plane transfers.
    pub(crate) data_addr: String,
    pub(crate) shared: LinkShared,
    /// Each plane's transmit half (indexed by [`lane`]): the message
    /// connection, and the data connection that carries buffer contents
    /// (§III-C's data listener).
    tx: [Mutex<ConnSender>; 2],
    /// Shared observability hub (plane metrics; gated on its enable
    /// flag so the hot path pays one atomic load when tracing is off).
    obs: Arc<Hub>,
}

impl NodeLink {
    /// Dials `spec`'s message and data listeners from host `from`.
    pub(crate) fn connect(
        fabric: &Fabric,
        from: &str,
        spec: &NodeSpec,
        obs: Arc<Hub>,
    ) -> Result<Self, ClusterError> {
        let (msg_tx, msg_rx) = fabric.connect(from, &spec.addr)?.split();
        let (data_tx, data_rx) = fabric.connect(from, &spec.data_addr())?.split();
        Ok(NodeLink {
            name: spec.name.clone(),
            data_addr: spec.data_addr(),
            // In `lane` order.
            shared: LinkShared::new([msg_rx, data_rx]),
            tx: [msg_tx, data_tx].map(Mutex::new),
            obs,
        })
    }

    /// Blocks until call `id` completes (or `deadline` passes, when one
    /// is given), claiming the result and advancing the clock.
    ///
    /// Leader/follower: while the call is in flight the waiter takes its
    /// plane's receive half, if it is free, and receives for everyone;
    /// otherwise it parks until the leader completes it or leaves. Even
    /// on a dead link an in-flight entry just waits: its plane's
    /// connection (or terminal teardown) is guaranteed to resolve it,
    /// and the *other* plane dying first must not discard a response
    /// that is already queued for delivery.
    pub(crate) fn claim(&self, id: RequestId, clock: &Clock, deadline: Option<Instant>) -> Claim {
        let shared = &self.shared;
        let mut state = shared.lock();
        loop {
            let plane = match shared.take(&mut state, id, clock) {
                Ok(claim) => return claim,
                Err(plane) => plane,
            };
            let patience = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => {
                        // Whoever is parked must not wait for a leader
                        // that has just given up.
                        if state.parked > 0 {
                            shared.completed.notify_all();
                        }
                        return Claim::TimedOut;
                    }
                },
            };
            if let Some(mut rx) = state.rx[lane(plane)].take() {
                drop(state);
                let arrived = match patience {
                    None => rx.recv_frame(),
                    Some(left) => rx.recv_frame_timeout(left),
                };
                let first = arrived.map_err(ClusterError::Net).and_then(decode_response);
                state = shared.lock();
                self.deliver(&mut state, plane, rx, first, Some(id));
            } else {
                state.parked += 1;
                state = match patience {
                    None => shared.completed.wait(state).expect("link state poisoned"),
                    Some(left) => {
                        let waited = shared.completed.wait_timeout(state, left);
                        waited.expect("link state poisoned").0
                    }
                };
                state.parked -= 1;
            }
        }
    }

    /// Whether the link is still up, after looking at both connections:
    /// with no thread parked on a receive half, this is what notices
    /// that a node hung up while nobody was waiting for it.
    pub(crate) fn alive(&self) -> bool {
        let mut state = self.shared.lock();
        for plane in [Plane::Control, Plane::Data] {
            self.pump_ready(&mut state, plane);
        }
        state.dead.is_none()
    }

    /// Test hook: whether a waiter is receiving on `plane` right now, and
    /// how many waiters are parked behind the link's leaders.
    #[cfg(test)]
    pub(crate) fn waiters(&self, plane: Plane) -> (bool, usize) {
        let state = self.shared.lock();
        let led = state.rx[lane(plane)].is_none() && !state.down[lane(plane)];
        (led, state.parked)
    }

    /// Test hook: responses completed on behalf of another waiter.
    #[cfg(test)]
    pub(crate) fn foreign_completions(&self, plane: Plane) -> u64 {
        self.shared.foreign[lane(plane)].load(Ordering::Relaxed)
    }

    /// Receives what `plane`'s connection already holds, if its receive
    /// half is free; never blocks.
    fn pump_ready(&self, state: &mut LinkState, plane: Plane) {
        let Some(mut rx) = state.rx[lane(plane)].take() else {
            return;
        };
        match rx.try_recv_frame() {
            Ok(None) => state.rx[lane(plane)] = Some(rx),
            Ok(Some(frame)) => self.deliver(state, plane, rx, decode_response(frame), None),
            Err(e) => self.deliver(state, plane, rx, Err(ClusterError::Net(e)), None),
        }
    }

    /// The leader's second half, back under the state lock: completes
    /// `first` and every response that arrived behind it, then either
    /// hands `rx` back or — the connection ended, or spoke garbage —
    /// fails the plane (responses already delivered on the connection
    /// are received first, so nothing the node answered is discarded).
    /// Parked waiters are woken when one of them was completed or the
    /// leader is about to leave, so that one of them takes over.
    fn deliver(
        &self,
        state: &mut LinkState,
        plane: Plane,
        mut rx: ConnReceiver,
        first: Result<(Response, SimTime), ClusterError>,
        own: Option<RequestId>,
    ) {
        let mut wake = false;
        let mut next = first;
        let ended = loop {
            match next {
                Ok((response, received_at)) => {
                    if response.duplicate {
                        self.obs.metrics.inc_counter(
                            names::DEDUP_HITS,
                            &[("node", self.name.as_str())],
                            1,
                        );
                    }
                    wake |= self.shared.complete(state, response, received_at, own);
                }
                // The leader's patience ran out.
                Err(ClusterError::Net(NetError::Timeout)) => break None,
                Err(e) => break Some(e),
            }
            next = match rx.try_recv_frame() {
                Ok(None) => break None,
                Ok(Some(frame)) => decode_response(frame),
                Err(e) => Err(ClusterError::Net(e)),
            };
        };
        match ended {
            None => state.rx[lane(plane)] = Some(rx),
            Some(err) => {
                drop(rx);
                self.fail_plane(state, plane, err);
            }
        }
        let leaving = own.is_none_or(|id| {
            !matches!(
                state.pending.get(&id),
                Some(PendingEntry { done: None, .. })
            )
        });
        if state.parked > 0 && (wake || leaving) {
            self.shared.completed.notify_all();
        }
    }

    /// Copies the link's self-reports into the metric registry; the hot
    /// path only bumps atomics, so this runs when somebody scrapes.
    pub(crate) fn export_metrics(&self) {
        let metrics = &self.obs.metrics;
        for plane in [Plane::Control, Plane::Data] {
            let labels = [("node", self.name.as_str()), ("plane", plane_label(plane))];
            let depth = self.shared.depth[lane(plane)].load(Ordering::Relaxed);
            metrics.set_gauge(names::LINK_PENDING, &labels, depth as i64);
            let foreign = self.shared.foreign[lane(plane)].load(Ordering::Relaxed);
            metrics.advance_counter(names::LINK_FOREIGN_COMPLETIONS, &labels, foreign);
        }
    }

    /// [`LinkShared::fail_plane`], booking the link failure the first
    /// time the plane goes down.
    fn fail_plane(&self, state: &mut LinkState, plane: Plane, err: ClusterError) {
        if self.shared.fail_plane(state, plane, err) {
            self.obs.metrics.inc_counter(
                names::LINK_FAILURES,
                &[("node", self.name.as_str()), ("plane", plane_label(plane))],
                1,
            );
        }
    }

    /// A send on `plane` failed: hangs that direction up — so the node
    /// hangs up too, and a leader blocked on the plane's receive half
    /// wakes — and fails the plane. Other submitters' calls may ride the
    /// same connection; their `PendingCall`s must observe the failure.
    fn send_failed(&self, sender: &mut ConnSender, plane: Plane, e: NetError) -> ClusterError {
        sender.hang_up();
        let err = ClusterError::Net(e);
        self.fail_plane(&mut self.shared.lock(), plane, err.clone());
        err
    }

    /// Closes the link for good (retirement, teardown): both directions
    /// hang up, both receive halves are dropped and every in-flight call
    /// fails with `err`. A deliberate close is not a link failure.
    pub(crate) fn close(&self, err: ClusterError) {
        for tx in &self.tx {
            tx.lock().expect("sender poisoned").hang_up();
        }
        let mut state = self.shared.lock();
        state.rx = [None, None];
        for plane in [Plane::Control, Plane::Data] {
            self.shared.fail_plane(&mut state, plane, err.clone());
        }
    }

    /// Puts `request` on its plane's connection, one frame per request,
    /// its bulk payload (if any) a segment of its own that the frame
    /// shares rather than copies: whoever else is sending on the plane
    /// waits for the sender, and every request leaves at its own `at`.
    pub(crate) fn send(&self, request: Request, at: SimTime) -> Result<(), ClusterError> {
        let plane = request.body.plane();
        let virtual_len = request.body.virtual_len();
        let mut sender = self.tx[lane(plane)].lock().expect("sender poisoned");
        let mut encoded_len = 0;
        let sent = sender.send_frame_with(at, virtual_len, |head, blobs| {
            encode_segmented(&Envelope::Single(request), head, blobs);
            encoded_len = head.len() + blobs.iter().map(|(_, blob)| blob.len()).sum::<usize>();
        });
        self.note_frame(plane, encoded_len, virtual_len);
        sent.map(drop)
            .map_err(|e| self.send_failed(&mut sender, plane, e))
    }

    /// Records one outgoing frame's plane metrics (no-op while tracing
    /// is off). Bytes are *virtual wire bytes*: modeled bulk payloads
    /// count their declared length, not the descriptor that stands in
    /// for them.
    fn note_frame(&self, plane: Plane, payload_len: usize, virtual_len: u64) {
        if !self.obs.enabled() {
            return;
        }
        let labels = [("node", self.name.as_str()), ("plane", plane_label(plane))];
        let bytes = (payload_len as u64).max(virtual_len);
        self.obs
            .metrics
            .inc_counter(names::PLANE_FRAMES, &labels, 1);
        self.obs
            .metrics
            .inc_counter(names::PLANE_BYTES, &labels, bytes);
    }
}

/// One received frame as the response it carries.
fn decode_response(
    (frame, received_at): (Frame, SimTime),
) -> Result<(Response, SimTime), ClusterError> {
    let response = decode_from_segments::<Response>(frame).map_err(ClusterError::Wire)?;
    Ok((response, received_at))
}
