//! The platform layer: HaoCL's ICD entry point.
//!
//! A [`Platform`] fronts a set of devices behind one dispatch target. The
//! cluster platform forwards everything over the backbone; the local
//! platform is the same stack with a zero-cost interconnect, which is the
//! "native OpenCL single node" the paper's evaluation normalizes against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use haocl_cluster::{
    Autoscaler, ClusterConfig, Decision, HostRuntime, LoadSample, LocalCluster, MembershipState,
    NodeSpec, RemoteDevice,
};
use haocl_kernel::KernelRegistry;
use haocl_net::LinkModel;
use haocl_obs::{names, Counter, Gauge, Hub};
use haocl_proto::ids::{IdAllocator, NodeId};
use haocl_proto::messages::{ApiCall, DeviceKind};
use haocl_sim::{Clock, Phase, PhaseBreakdown, SimDuration, SimTime, Tracer};
use parking_lot::Mutex;

use crate::buffer::{BufferInner, EvacOutcome};
use crate::error::Error;

/// Host-side memory generation rate used to cost data creation
/// (a memcpy-like 10 GB/s, matching a Xeon-class host).
const HOST_GEN_BANDWIDTH: f64 = 10.0e9;

pub(crate) struct PlatformInner {
    cluster: LocalCluster,
    pub(crate) ids: IdAllocator,
    pub(crate) tracer: Tracer,
    /// The observability hub, adopted from the host runtime so the
    /// cluster's plane metrics and the API layer's spans land in one
    /// place.
    pub(crate) obs: Arc<Hub>,
    /// Whether buffer migrations may travel NMP→NMP directly instead of
    /// relaying through the host shadow.
    peer_transfers: AtomicBool,
    /// Every live buffer created under this platform, weakly held — the
    /// work-list a node drain migrates before retirement.
    buffers: Mutex<Vec<Weak<BufferInner>>>,
    /// What the handles on each mapped device share, by device index;
    /// grows with the host's device map.
    devices: Mutex<Vec<Arc<DeviceShared>>>,
    name: String,
}

/// What every [`Device`] handle on one cluster device shares.
pub(crate) struct DeviceShared {
    /// The host runtime's mapping record.
    info: Arc<RemoteDevice>,
    /// The node's `haocl_wall_requests_total` / `haocl_wall_nanos_total`
    /// series, looked up at the device's first launch (not before: a
    /// node that never completed one exports neither).
    wall: OnceLock<(Counter, Counter)>,
    /// The device's `haocl_queue_depth` series, looked up at its first
    /// sample. The autoscaler reads it, so it is set traced or not, on
    /// every enqueue and finish: a handle, because `set_gauge` there
    /// (label strings plus the registry lock) measured ~15 % of a
    /// one-launch round trip's p50.
    depth: OnceLock<Gauge>,
}

impl PlatformInner {
    pub(crate) fn host(&self) -> &HostRuntime {
        self.cluster.host()
    }

    pub(crate) fn clock(&self) -> &Clock {
        self.cluster.host().clock()
    }

    /// A handle on every mapped device, in device-map order.
    pub(crate) fn device_handles(self: &Arc<Self>) -> Vec<Device> {
        let mut shared = self.devices.lock();
        let known = shared.len();
        for info in self.host().devices().into_iter().skip(known) {
            shared.push(Arc::new(DeviceShared {
                info,
                wall: OnceLock::new(),
                depth: OnceLock::new(),
            }));
        }
        shared
            .iter()
            .enumerate()
            .map(|(index, shared)| Device {
                platform: Arc::clone(self),
                index,
                shared: Arc::clone(shared),
            })
            .collect()
    }

    /// Forwards a call and records its wall-virtual duration under
    /// `phase`.
    pub(crate) fn call_traced(
        &self,
        node: NodeId,
        call: ApiCall,
        phase: Phase,
    ) -> Result<haocl_cluster::host::CallOutcome, Error> {
        let started = self.clock().now();
        let outcome = self.host().call(node, call)?;
        self.tracer.record(
            phase,
            outcome.host_received.saturating_duration_since(started),
        );
        Ok(outcome)
    }

    /// Whether direct peer transfers are enabled (they are by default).
    pub(crate) fn peer_transfers_enabled(&self) -> bool {
        self.peer_transfers.load(Ordering::Relaxed)
    }

    /// Registers a freshly created buffer so membership changes can find
    /// it; dead entries are pruned opportunistically.
    pub(crate) fn register_buffer(&self, buffer: &Arc<BufferInner>) {
        let mut buffers = self.buffers.lock();
        buffers.retain(|w| w.strong_count() > 0);
        buffers.push(Arc::downgrade(buffer));
    }

    /// The buffers still alive under this platform.
    pub(crate) fn live_buffers(&self) -> Vec<Arc<BufferInner>> {
        self.buffers
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .collect()
    }

    /// Counts `bytes` of buffer contents moved by the data plane over
    /// `path` (`host_relay` or `peer`) into the metrics registry and the
    /// per-phase byte breakdown.
    pub(crate) fn count_dataplane(&self, path: &str, bytes: u64) {
        self.obs
            .metrics
            .inc_counter(names::DATAPLANE_BYTES, &[("path", path)], bytes);
        self.tracer.record_bytes(Phase::DataTransfer, bytes);
    }
}

/// The device classes `get_device_ids` can filter by (`CL_DEVICE_TYPE_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceType {
    /// CPUs only.
    Cpu,
    /// GPUs only.
    Gpu,
    /// Accelerators (FPGAs) only.
    Accelerator,
    /// Every device.
    All,
}

impl DeviceType {
    /// Whether a device kind passes this filter.
    pub fn matches(self, kind: DeviceKind) -> bool {
        match self {
            DeviceType::All => true,
            DeviceType::Cpu => kind == DeviceKind::Cpu,
            DeviceType::Gpu => kind == DeviceKind::Gpu,
            DeviceType::Accelerator => kind == DeviceKind::Fpga,
        }
    }
}

/// A device handle: a position in the platform's cluster-wide device map.
#[derive(Clone)]
pub struct Device {
    pub(crate) platform: Arc<PlatformInner>,
    pub(crate) index: usize,
    shared: Arc<DeviceShared>,
}

impl Device {
    /// The device's model name (`CL_DEVICE_NAME`).
    pub fn name(&self) -> &str {
        &self.shared.info.descriptor.name
    }

    /// The device class.
    pub fn kind(&self) -> DeviceKind {
        self.shared.info.descriptor.kind
    }

    /// Global memory capacity in bytes (`CL_DEVICE_GLOBAL_MEM_SIZE`).
    pub fn global_mem_size(&self) -> u64 {
        self.shared.info.descriptor.mem_bytes
    }

    /// The configured name of the node hosting this device.
    pub fn node_name(&self) -> &str {
        &self.shared.info.node_name
    }

    /// The device's position in the platform's device map.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The advertised device model summary.
    pub fn descriptor(&self) -> &haocl_proto::messages::DeviceDescriptor {
        &self.shared.info.descriptor
    }

    /// The id of the node hosting this device.
    pub fn node_id(&self) -> NodeId {
        self.shared.info.node
    }

    pub(crate) fn node(&self) -> NodeId {
        self.shared.info.node
    }

    pub(crate) fn device_index(&self) -> u8 {
        self.shared.info.device
    }

    /// Books one kernel-launch round trip of `wall_nanos` against the
    /// device's node: real requests/sec, next to the virtual model
    /// (feeds the `haocl-top` WALL.RPS column).
    pub(crate) fn count_wall_round_trip(&self, wall_nanos: u64) {
        let (requests, nanos) = self.shared.wall.get_or_init(|| {
            let metrics = &self.platform.obs.metrics;
            let labels = [("node", self.node_name())];
            (
                metrics.counter(names::WALL_REQUESTS, &labels),
                metrics.counter(names::WALL_NANOS, &labels),
            )
        });
        requests.inc(1);
        nanos.inc(wall_nanos);
    }

    /// Samples the device's `haocl_queue_depth` gauge.
    pub(crate) fn note_queue_depth(&self, depth: usize) {
        self.shared
            .depth
            .get_or_init(|| {
                self.platform.obs.metrics.gauge(
                    names::QUEUE_DEPTH,
                    &[
                        ("device", &self.index.to_string()),
                        ("node", self.node_name()),
                    ],
                )
            })
            .set(depth as i64);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Device[{}] {} on {} ({})",
            self.index,
            self.name(),
            self.node_name(),
            self.kind()
        )
    }
}

/// Tuning for a graceful node drain (see [`Platform::drain_node`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainOptions {
    /// Virtual-time budget for peer-to-peer migration. Buffers reached
    /// after the budget has elapsed degrade to the host relay — the
    /// newest bytes are pulled back into the host shadow in one hop
    /// instead of being re-homed on a surviving device, so a spot
    /// revocation with a tight deadline still loses nothing. `None`
    /// means no deadline: every endangered buffer is peer-migrated.
    pub deadline: Option<SimDuration>,
}

impl DrainOptions {
    /// A drain with a peer-migration deadline.
    pub fn with_deadline(deadline: SimDuration) -> DrainOptions {
        DrainOptions {
            deadline: Some(deadline),
        }
    }
}

/// What a graceful node drain did (see [`Platform::drain_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// The drained node.
    pub node: NodeId,
    /// Buffers whose newest bytes were re-homed on a surviving device
    /// over the peer data plane.
    pub peer_migrated: usize,
    /// Buffers whose newest bytes were pulled back into the host shadow
    /// (no surviving target, peer transfers off, or past the deadline).
    pub host_relayed: usize,
    /// Buffers that needed no rescue (newest copy already safe
    /// elsewhere); replicas on the node were simply evicted.
    pub untouched: usize,
    /// Buffer-content bytes the evacuation moved.
    pub bytes_evacuated: u64,
    /// Whether the deadline forced at least one host-relay degradation.
    pub deadline_degraded: bool,
}

/// The HaoCL platform.
#[derive(Clone)]
pub struct Platform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl Platform {
    /// Connects a platform to a whole cluster described by `config`.
    ///
    /// `registry` is the cluster-wide bitstream store (kernels compiled
    /// ahead of time); programs loaded as bitstreams, the only kind FPGA
    /// nodes run, find their kernels there.
    ///
    /// # Errors
    ///
    /// Propagates cluster launch/handshake failures as
    /// [`Error::Transport`].
    pub fn cluster(config: &ClusterConfig, registry: KernelRegistry) -> Result<Self, Error> {
        let cluster = LocalCluster::launch(config, registry)?;
        Ok(Self::wrap(cluster, "HaoCL"))
    }

    fn wrap(cluster: LocalCluster, name: &str) -> Platform {
        let obs = Arc::clone(cluster.host().obs());
        Platform {
            inner: Arc::new(PlatformInner {
                cluster,
                ids: IdAllocator::new(),
                tracer: Tracer::new(),
                obs,
                peer_transfers: AtomicBool::new(true),
                buffers: Mutex::new(Vec::new()),
                devices: Mutex::new(Vec::new()),
                name: name.to_string(),
            }),
        }
    }

    /// A single-node platform with a zero-cost interconnect: the "native
    /// OpenCL on one machine" baseline.
    ///
    /// # Errors
    ///
    /// Propagates launch failures as [`Error::Transport`].
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn local(devices: &[DeviceKind]) -> Result<Self, Error> {
        Self::local_with_registry(devices, KernelRegistry::new())
    }

    /// [`Platform::local`] with a bitstream store.
    ///
    /// # Errors
    ///
    /// Propagates launch failures as [`Error::Transport`].
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn local_with_registry(
        devices: &[DeviceKind],
        registry: KernelRegistry,
    ) -> Result<Self, Error> {
        assert!(!devices.is_empty(), "a node needs at least one device");
        let config = ClusterConfig {
            host_addr: "local:7000".to_string(),
            nodes: vec![NodeSpec {
                name: "local0".to_string(),
                addr: "local:7100".to_string(),
                devices: devices.to_vec(),
            }],
            // Effectively free interconnect: in-machine PCIe dwarfs it.
            link: LinkModel::custom(1.0e15, SimDuration::ZERO),
        };
        let cluster = LocalCluster::launch(&config, registry)?;
        Ok(Self::wrap(cluster, "HaoCL (local)"))
    }

    /// The platform name (`CL_PLATFORM_NAME`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The mapped devices passing `filter` (`clGetDeviceIDs`).
    pub fn devices(&self, filter: DeviceType) -> Vec<Device> {
        let mut devices = self.inner.device_handles();
        devices.retain(|d| filter.matches(d.kind()));
        devices
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    /// The virtual-time phase breakdown accumulated so far (Fig. 3's
    /// instrumentation).
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.inner.tracer.breakdown()
    }

    /// Clears the phase breakdown (between benchmark runs).
    pub fn reset_phases(&self) {
        self.inner.tracer.reset()
    }

    /// Charges host-side generation of `bytes` of input data to the
    /// `DataCreate` phase, advancing the virtual clock.
    ///
    /// The paper's Fig. 3 counts data creation as a first-class phase;
    /// workload generators call this to model it.
    pub fn charge_data_creation(&self, bytes: u64) {
        let dur = SimDuration::from_secs_f64(bytes as f64 / HOST_GEN_BANDWIDTH);
        self.inner.clock().advance_by(dur);
        self.inner.tracer.record(Phase::DataCreate, dur);
        self.inner.tracer.record_bytes(Phase::DataCreate, bytes);
    }

    /// Enables or disables direct NMP→NMP buffer migrations (on by
    /// default). With peer transfers off, every migration relays through
    /// the host shadow — the pre-residency data plane, kept for
    /// ablations and A/B verification.
    pub fn set_peer_transfers(&self, on: bool) {
        self.inner.peer_transfers.store(on, Ordering::Relaxed);
    }

    /// Whether direct peer transfers are enabled.
    pub fn peer_transfers_enabled(&self) -> bool {
        self.inner.peer_transfers_enabled()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock().now()
    }

    /// Turns end-to-end tracing and metrics on or off at runtime (off
    /// by default).
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Whether tracing/metrics recording is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.obs.enabled()
    }

    /// The observability hub: span recorder, metric registry and
    /// scheduler audit log shared by every layer under this platform.
    pub fn obs(&self) -> &Arc<Hub> {
        &self.inner.obs
    }

    /// The routing epoch of `node`: 0 until the host runtime's first
    /// failover away from it, bumped on each. Schedulers read this as a
    /// node-flap signal (see [`crate::auto::AutoScheduler::condition`]).
    pub fn node_epoch(&self, node: NodeId) -> u32 {
        self.inner.host().node_epoch(node)
    }

    /// Installs a chaos policy on the platform's fabric and enables the
    /// default recovery policy — the in-process equivalent of launching
    /// with `HAOCL_CHAOS_SPEC`/`HAOCL_CHAOS_SEED` set (and safe to use
    /// from parallel tests, unlike process-global environment).
    pub fn install_chaos(&self, policy: haocl_net::ChaosPolicy) {
        self.inner.cluster.install_chaos(policy);
    }

    /// Overrides the host runtime's fault-recovery policy (`None`
    /// restores fail-fast semantics).
    pub fn set_recovery(&self, policy: Option<haocl_cluster::RecoveryPolicy>) {
        self.inner.host().set_recovery(policy);
    }

    /// The chaos fault schedule observed so far, one line per injected
    /// fault — the repro artifact to attach to a failing run. Empty
    /// without an installed chaos policy.
    pub fn chaos_schedule(&self) -> Vec<String> {
        self.inner.cluster.chaos_schedule()
    }

    /// Whether `node`'s current route has a live backbone connection.
    pub fn node_is_live(&self, node: NodeId) -> bool {
        self.inner.host().node_is_live(node)
    }

    /// The membership state of `node` (`None` for an unknown id).
    pub fn node_membership(&self, node: NodeId) -> Option<MembershipState> {
        self.inner.host().node_membership(node)
    }

    /// How many of `node`'s routing-epoch bumps were voluntary (drains)
    /// rather than failovers. Health trackers subtract this before
    /// converting epochs to strikes.
    pub fn node_voluntary_epochs(&self, node: NodeId) -> u32 {
        self.inner.host().node_voluntary_epochs(node)
    }

    /// The nodes currently `Active`, ascending by id.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        let host = self.inner.host();
        (0..host.node_count() as u32)
            .map(NodeId::new)
            .filter(|&n| host.node_membership(n) == Some(MembershipState::Active))
            .collect()
    }

    /// Adds a node to the running cluster: spawns its NMP, joins it
    /// through the membership handshake (Joining → Active) and maps its
    /// devices at the end of the platform device list. Returns the new
    /// node's id; existing [`Device`] indices are unaffected.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] on address clashes or a failed handshake
    /// (the host keeps a `Departed` tombstone for the slot).
    pub fn add_node(&self, spec: &NodeSpec) -> Result<NodeId, Error> {
        Ok(self.inner.cluster.add_node(spec)?)
    }

    /// Gracefully drains `node` out of the cluster and retires it.
    ///
    /// The sequence is the drain state machine's happy path: membership
    /// flips to `Draining` (the node refuses new launches, buffer
    /// traffic continues), every live buffer whose newest bytes are
    /// stranded on the node is migrated — peer push to a surviving
    /// device while inside the [`DrainOptions::deadline`] budget, host
    /// relay after it — replicas on the node are evicted, and the node
    /// is retired: a clean *voluntary* epoch bump (no quarantine
    /// strikes), journal cleared, NMP stopped, addresses freed for a
    /// later rejoin.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] for an unknown node, a drain from a
    /// non-drainable state (`Joining`, `Departed`), or a migration
    /// failure mid-evacuation (the node is left `Draining`, not
    /// retired, so the drain can be retried).
    pub fn drain_node(&self, node: NodeId, opts: DrainOptions) -> Result<DrainReport, Error> {
        let host = self.inner.host();
        host.begin_drain(node)?;
        let started = self.clock().now();
        // One migration target serves the whole drain: the first device
        // on another Active node (deterministic, smallest index).
        let target = self.inner.device_handles().into_iter().find(|d| {
            d.node() != node && host.node_membership(d.node()) == Some(MembershipState::Active)
        });
        let mut report = DrainReport {
            node,
            peer_migrated: 0,
            host_relayed: 0,
            untouched: 0,
            bytes_evacuated: 0,
            deadline_degraded: false,
        };
        for buffer in self.inner.live_buffers() {
            let over_deadline = opts
                .deadline
                .is_some_and(|d| self.clock().now().saturating_duration_since(started) >= d);
            let force_relay = over_deadline || target.is_none();
            match buffer.evacuate_node(node, target.as_ref(), force_relay)? {
                EvacOutcome::Untouched => report.untouched += 1,
                EvacOutcome::PeerMigrated(bytes) => {
                    report.peer_migrated += 1;
                    report.bytes_evacuated += bytes;
                }
                EvacOutcome::HostRelayed(bytes) => {
                    if over_deadline {
                        report.deadline_degraded = true;
                    }
                    report.host_relayed += 1;
                    report.bytes_evacuated += bytes;
                }
            }
        }
        self.inner.cluster.remove_node(node)?;
        Ok(report)
    }

    /// The `Active` node holding the fewest resident buffer bytes — the
    /// cheapest node to drain when scaling down. `None` when fewer than
    /// two nodes are active (never drain the last one).
    pub fn least_resident_node(&self) -> Option<NodeId> {
        let active = self.active_nodes();
        if active.len() < 2 {
            return None;
        }
        let host = self.inner.host();
        let devices = host.devices();
        let buffers = self.inner.live_buffers();
        active.into_iter().min_by_key(|&n| {
            devices
                .iter()
                .enumerate()
                .filter(|(_, d)| d.node == n)
                .map(|(i, _)| buffers.iter().map(|b| b.resident_bytes_on(i)).sum::<u64>())
                .sum::<u64>()
        })
    }

    /// Feeds one autoscaler policy tick from the live metrics: the
    /// queue-depth series summed over the fleet, divided across the
    /// currently `Active` nodes. The caller actuates the returned
    /// decision ([`Platform::add_node`] on `ScaleUp`,
    /// [`Platform::drain_node`] on the
    /// [`Platform::least_resident_node`] for `ScaleDown`).
    pub fn autoscale_tick(&self, autoscaler: &mut Autoscaler) -> Decision {
        let active = self.active_nodes().len();
        let sample = LoadSample::from_metrics_text(&self.render_metrics(), active);
        autoscaler.observe(&sample, &self.inner.obs)
    }

    /// Exports every recorded span as a Chrome trace-event JSON document
    /// (load it in `chrome://tracing` or Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        haocl_obs::chrome_trace(&self.inner.obs.recorder.spans())
    }

    /// Renders the metric registry in Prometheus text format, after
    /// folding in the fabric's cumulative transmit counters, the
    /// backbone links' self-reports and the node VMs'.
    pub fn render_metrics(&self) -> String {
        self.inner.host().export_link_metrics();
        let stats = self.inner.cluster.fabric().stats();
        let m = &self.inner.obs.metrics;
        haocl_cluster::nmp::export_vm_metrics(m);
        m.advance_counter(names::FABRIC_FRAMES, &[], stats.frames);
        m.advance_counter(names::FABRIC_BYTES, &[], stats.charged_bytes);
        m.render()
    }

    /// Renders the scheduler decision audit log, one line per placement.
    pub fn render_audit_log(&self) -> String {
        self.inner.obs.audit.render()
    }

    /// Pulls the runtime profile from every node: per-device, per-kernel
    /// execution statistics (the "runtime profiling information from the
    /// cluster" the paper's automatic scheduler feeds on, §III-B).
    ///
    /// # Errors
    ///
    /// Propagates transport failures; a node that answers with anything
    /// but a profile is a protocol error.
    pub fn query_profiles(
        &self,
    ) -> Result<Vec<(NodeId, Vec<haocl_proto::messages::ProfileEntry>)>, Error> {
        let mut out = Vec::new();
        for i in 0..self.inner.host().node_count() {
            let node = NodeId::new(i as u32);
            let outcome = self.inner.host().call(node, ApiCall::QueryProfile)?;
            match outcome.reply {
                haocl_proto::messages::ApiReply::Profile { entries } => {
                    out.push((node, entries));
                }
                other => {
                    return Err(Error::Transport(format!(
                        "QueryProfile answered with {other:?}"
                    )));
                }
            }
        }
        Ok(out)
    }

    /// Injects (or clears, with `factor <= 1.0`) a silent compute
    /// degradation on one device of one node: every subsequent kernel on
    /// it runs `factor`× slow while its descriptor keeps advertising full
    /// speed. Fault injection for exercising the drift detector — the
    /// only way the scheduler learns of the sickness is through observed
    /// timings.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; anything but an `Ack` is a
    /// protocol error.
    pub fn set_device_throttle(&self, node: NodeId, device: u8, factor: f64) -> Result<(), Error> {
        let outcome = self
            .inner
            .host()
            .call(node, ApiCall::SetThrottle { device, factor })?;
        match outcome.reply {
            haocl_proto::messages::ApiReply::Ack => Ok(()),
            other => Err(Error::Transport(format!(
                "SetThrottle answered with {other:?}"
            ))),
        }
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("name", &self.inner.name)
            .field("devices", &self.inner.host().devices().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_platform_lists_devices() {
        let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Cpu]).unwrap();
        assert_eq!(p.devices(DeviceType::All).len(), 2);
        assert_eq!(p.devices(DeviceType::Gpu).len(), 1);
        assert_eq!(p.devices(DeviceType::Cpu).len(), 1);
        assert_eq!(p.devices(DeviceType::Accelerator).len(), 0);
        assert!(p.name().contains("HaoCL"));
    }

    #[test]
    fn cluster_platform_maps_all_nodes() {
        let p =
            Platform::cluster(&ClusterConfig::hetero_cluster(2, 2), KernelRegistry::new()).unwrap();
        assert_eq!(p.devices(DeviceType::All).len(), 4);
        assert_eq!(p.devices(DeviceType::Accelerator).len(), 2);
        let gpus = p.devices(DeviceType::Gpu);
        assert_eq!(gpus[0].kind(), DeviceKind::Gpu);
        assert!(gpus[0].global_mem_size() > 0);
    }

    #[test]
    fn device_type_filters() {
        assert!(DeviceType::All.matches(DeviceKind::Fpga));
        assert!(DeviceType::Accelerator.matches(DeviceKind::Fpga));
        assert!(!DeviceType::Gpu.matches(DeviceKind::Fpga));
    }

    #[test]
    fn data_creation_advances_clock_and_phase() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let before = p.now();
        p.charge_data_creation(10_000_000_000); // 1 s at 10 GB/s
        assert!(p.now() > before);
        let b = p.phase_breakdown();
        assert!(b.time(Phase::DataCreate) >= SimDuration::from_millis(999));
        p.reset_phases();
        assert_eq!(p.phase_breakdown().total(), SimDuration::ZERO);
    }
}
