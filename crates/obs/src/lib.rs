//! Observability for the HaoCL runtime.
//!
//! The paper's evaluation lives on breakdowns — Fig. 3 decomposes runtime
//! into data-create / data-transfer / compute, Fig. 2 plots scaling — but
//! a production-scale runtime needs to answer the per-operation question:
//! *where did this kernel run, why, and where did the time go?* This
//! crate is that layer:
//!
//! * [`span`] — the span model: a [`TraceCtx`] (trace id + parent span
//!   id) is threaded host → scheduler → wire → fabric → NMP → VM, so one
//!   enqueue yields one causally-linked span tree across nodes, recorded
//!   into a [`Recorder`] in **virtual time**.
//! * [`chrome`] — exports the span stream as a Chrome trace-event
//!   `trace.json` loadable in `chrome://tracing` / Perfetto.
//! * [`metrics`] — a Prometheus-text [`Registry`] of counters, gauges and
//!   virtual-time histograms (per-kernel latency, bytes and frames per
//!   plane, …).
//! * [`audit`] — the scheduler decision [`AuditLog`]: candidates,
//!   predictions, winner, reason, for every placement.
//! * [`replay`] + the `haocl-trace` bin — re-reads a recorded trace and
//!   prints the per-phase / per-node breakdown, superseding the Fig. 3
//!   `Tracer` printout.
//!
//! Everything is deterministic (sorted rendering, virtual clocks, no
//! wall-time reads) and free when disabled: a single relaxed atomic load
//! gates every record call.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod span;
pub mod top;

pub use audit::{
    default_tenant, AuditLog, CandidateInfo, FusionDecision, PlacementAudit, PredictionSource,
    Reason, DEFAULT_TENANT,
};
pub use chrome::chrome_trace;
pub use metrics::{Counter, Gauge, Registry, LATENCY_BUCKETS_NANOS};
pub use replay::{orphan_ids, parse_chrome_trace, render_breakdown, ReplaySpan};
pub use span::{
    is_connected_tree, orphans, phase_from_name, roots, Recorder, Span, SpanId, TraceCtx, TraceId,
};
pub use top::FleetSnapshot;

/// Canonical metric names, shared by every instrumented crate.
pub mod names {
    /// Histogram: virtual ns from enqueue to completion, per kernel and
    /// device kind.
    pub const KERNEL_LATENCY: &str = "haocl_kernel_latency_nanos";
    /// Counter: kernel-launch round trips completed, per node —
    /// wall clock, not the virtual model (the `haocl-top` requests/sec
    /// column divides this by [`WALL_NANOS`]).
    pub const WALL_REQUESTS: &str = "haocl_wall_requests_total";
    /// Counter: wall-clock (monotonic host) nanoseconds spent waiting
    /// for kernel-launch round trips, per node.
    pub const WALL_NANOS: &str = "haocl_wall_nanos_total";
    /// Counter: payload bytes moved per node and plane.
    pub const PLANE_BYTES: &str = "haocl_plane_bytes_total";
    /// Counter: frames sent per node and plane.
    pub const PLANE_FRAMES: &str = "haocl_plane_frames_total";
    /// Unobserved since PR 23 (one request per frame). The name survives
    /// only because `benchmark/` reads it; it leaves with ROADMAP item 1(b).
    pub const BATCH_SIZE: &str = "haocl_batch_coalesced_requests";
    /// Gauge: host-side queue depth per device at last sample, labelled
    /// with the device index and its hosting node's name.
    pub const QUEUE_DEPTH: &str = "haocl_queue_depth";
    /// Counter: link/plane failures observed by the host runtime.
    pub const LINK_FAILURES: &str = "haocl_link_failures_total";
    /// Gauge: calls registered on a node's link and not yet claimed or
    /// abandoned, per node and plane, at the last scrape.
    pub const LINK_PENDING: &str = "haocl_link_pending";
    /// Counter: responses the waiter receiving on a connection completed
    /// for *another* waiter (leader/follower receive), per node and
    /// plane; zero while callers wait one at a time.
    pub const LINK_FOREIGN_COMPLETIONS: &str = "haocl_link_foreign_completions_total";
    /// Counter: chunks of work-items the VM's compiled engine entered in
    /// lockstep, those cut across several small work-groups included.
    /// Like the four below it is read from the VM at scrape time and
    /// counts the whole process, so every node hosted in it.
    pub const VM_LOCKSTEP_CHUNKS: &str = "haocl_vm_lockstep_chunks_total";
    /// Counter: times the lanes of a lockstep chunk could not take an op
    /// together, by `cause`: they disagreed on a `branch` (and may have
    /// re-joined, below), one would `fault`, they disagreed on a
    /// pointer's `root`, or the op reached a written buffer nobody proved
    /// item-private in a launch that is not (or no longer) checking who
    /// touches what (`unproven`). On any cause but a re-joined branch
    /// the lanes finish one by one from that op.
    pub const VM_LOCKSTEP_SPLITS: &str = "haocl_vm_lockstep_splits_total";
    /// Counter: `branch` splits after which only the lanes that took the
    /// longer way ran it one by one and the chunk went on in lockstep from
    /// the branch's post-dominator. Splits less re-joins less masked is
    /// the number of chunks that fell back to item-by-item for the rest of
    /// their ops.
    pub const VM_LOCKSTEP_REJOINS: &str = "haocl_vm_lockstep_rejoins_total";
    /// Counter: `branch` splits after which the lanes the branch sent to
    /// its post-dominator waited there while the rest went on in lockstep
    /// (launches whose every buffer is shared or item-private only).
    pub const VM_LOCKSTEP_MASKED: &str = "haocl_vm_lockstep_masked_total";
    /// Counter: chunks that were checking who touches what, undid every
    /// store they had made and ran again item by item — after which their
    /// launch stopped checking — by `cause`: a lane reached an element
    /// another lane had touched (`conflict`), a lane would fault or
    /// pointers disagreed (`fault`), or the chunk touched more than 4096
    /// elements (`overflow`). A kernel that shares one counter among its
    /// items costs one abort per launch; more than that per launch
    /// cannot happen.
    pub const VM_LOCKSTEP_ABORTS: &str = "haocl_vm_lockstep_aborts_total";
    /// Counter: launches with work-groups of at least a chunk that ran no
    /// chunk, by `reason` (`no_effects`, `barrier`, `local`).
    pub const VM_LOCKSTEP_REFUSED: &str = "haocl_vm_lockstep_refused_total";
    /// Counter: scheduler placements, per kernel and winning device kind.
    pub const PLACEMENTS: &str = "haocl_placements_total";
    /// Counter: frames carried by the fabric, per link endpoint.
    pub const FABRIC_FRAMES: &str = "haocl_fabric_frames_total";
    /// Counter: bytes charged on the fabric (virtual wire bytes).
    pub const FABRIC_BYTES: &str = "haocl_fabric_bytes_total";
    /// Counter: request retransmissions by the host runtime, per node.
    pub const RETRIES: &str = "haocl_retries_total";
    /// Counter: node failovers performed by the host runtime, labelled
    /// with the failed and surviving node names.
    pub const FAILOVERS: &str = "haocl_failovers_total";
    /// Counter: responses served from a node's at-most-once request
    /// journal instead of re-executing, per node.
    pub const DEDUP_HITS: &str = "haocl_dedup_hits_total";
    /// Counter: scheduler quarantine decisions, per node.
    pub const QUARANTINES: &str = "haocl_quarantines_total";
    /// Counter: buffer-content bytes moved by the data plane, labelled
    /// by `path` ([`PATH_HOST_RELAY`] or [`PATH_PEER`]).
    pub const DATAPLANE_BYTES: &str = "haocl_dataplane_bytes_total";
    /// Counter: host shadow refreshes avoided by direct peer transfers.
    pub const SHADOW_REFRESHES_AVOIDED: &str = "haocl_shadow_refreshes_avoided_total";
    /// Counter: buffer releases that could not reach the owning node.
    pub const BUFFER_RELEASE_FAILED: &str = "haocl_buffer_release_failed_total";
    /// Counter: program releases that could not reach the owning node.
    pub const PROGRAM_RELEASE_FAILED: &str = "haocl_program_release_failed_total";
    /// `path` label value: bytes relayed through the host shadow.
    pub const PATH_HOST_RELAY: &str = "host_relay";
    /// `path` label value: bytes shipped directly between NMPs.
    pub const PATH_PEER: &str = "peer";
    /// Counter: fused dispatches issued (each covers ≥ 2 kernels).
    pub const FUSED_LAUNCHES: &str = "haocl_fused_launches_total";
    /// Counter: wire launch commands saved by fusion (kernels folded
    /// into a lead dispatch instead of getting their own command).
    pub const FUSION_COMMANDS_SAVED: &str = "haocl_fusion_commands_saved_total";
    /// Gauge: the drift detector's verdict per node — `0` healthy,
    /// `1` degraded (advisory), `2` quarantined (hard).
    pub const DEVICE_HEALTH: &str = "haocl_device_health";
    /// Counter: profile-db observations that recalibrated an
    /// already-warm `(kernel, device class)` estimate.
    pub const PROFILE_RECALIBRATIONS: &str = "haocl_profile_recalibrations_total";
    /// Counter: placements where a degraded candidate was on offer but a
    /// healthy device won, labelled with the avoided node.
    pub const DEGRADED_PLACEMENTS_AVOIDED: &str = "haocl_degraded_placements_avoided_total";
    /// Gauge: a node's membership state — `0` joining, `1` active,
    /// `2` draining, `3` departed.
    pub const NODE_STATE: &str = "haocl_node_state";
    /// Counter: autoscaler scale actions, labelled by `direction`
    /// (`up` / `down`).
    pub const AUTOSCALE_EVENTS: &str = "haocl_autoscale_events_total";
}

/// The bundle every instrumented layer shares: one span [`Recorder`], one
/// metrics [`Registry`], one scheduler [`AuditLog`]. The platform owns an
/// `Arc<Hub>` and hands clones down to the host runtime and scheduler.
#[derive(Debug, Default)]
pub struct Hub {
    /// Span sink.
    pub recorder: Recorder,
    /// Metrics registry.
    pub metrics: Registry,
    /// Scheduler decision log.
    pub audit: AuditLog,
}

impl Hub {
    /// Creates a disabled hub (metrics and audit still collect; only span
    /// recording is gated).
    pub fn new() -> Hub {
        Hub::default()
    }

    /// Whether span recording is on.
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Enables or disables span recording.
    pub fn set_enabled(&self, on: bool) {
        self.recorder.set_enabled(on);
    }
}
