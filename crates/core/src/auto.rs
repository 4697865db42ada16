//! The extendable task scheduling component (§III-B).
//!
//! Instead of enqueueing on an explicit per-device queue (user-directed
//! placement), an [`AutoScheduler`] routes each launch through a
//! pluggable [`SchedulingPolicy`] — the paper's upgrade path to automatic
//! heterogeneity-aware scheduling, fed by the runtime profile of every
//! completed launch.

use parking_lot::Mutex;

use haocl_kernel::NdRange;
use haocl_obs::{names, FusionDecision, PlacementAudit, Span, TraceCtx, DEFAULT_TENANT};
use haocl_proto::ids::UserId;
use haocl_sched::{
    DeviceView, DriftDetector, DriftEvent, NodeCondition, QuarantineTracker, Scheduler,
    SchedulingPolicy, TaskSpec,
};
use haocl_sim::{Phase, SimTime};

use crate::buffer::Buffer;
use crate::context::Context;
use crate::error::{Error, Status};
use crate::event::Event;
use crate::graph::{GraphReport, LaunchGraph};
use crate::kernel::{Kernel, StoredArg};
use crate::queue::{CommandQueue, LaunchPart};

/// Scheduler-routed kernel launching over a context's devices.
pub struct AutoScheduler {
    context: Context,
    queues: Vec<CommandQueue>,
    scheduler: Scheduler,
    /// Host-side view of when each device's queue drains.
    busy_until: Mutex<Vec<SimTime>>,
    /// Node health: the runtime's failover epochs become strikes, and
    /// flapping nodes drop out of the candidate set (see
    /// [`AutoScheduler::quarantine`]).
    quarantine: QuarantineTracker,
    /// Timing-drift watchdog: every completed launch feeds it, and nodes
    /// running persistently slower than their own healthy baseline are
    /// advisorily down-weighted (see [`AutoScheduler::drift`]).
    drift: DriftDetector,
}

impl AutoScheduler {
    /// Creates the component over all of `context`'s devices, driven by
    /// `policy`.
    ///
    /// # Errors
    ///
    /// Propagates queue-creation failures.
    pub fn new(context: &Context, policy: Box<dyn SchedulingPolicy>) -> Result<Self, Error> {
        let queues = context
            .devices()
            .iter()
            .map(|d| CommandQueue::new(context, d))
            .collect::<Result<Vec<_>, _>>()?;
        let n = queues.len();
        Ok(AutoScheduler {
            context: context.clone(),
            queues,
            scheduler: Scheduler::new(policy),
            busy_until: Mutex::new(vec![SimTime::ZERO; n]),
            quarantine: QuarantineTracker::default(),
            drift: DriftDetector::new(),
        })
    }

    /// The drift detector watching per-node launch timings (inspect
    /// degraded nodes, or feed it synthetic observations in tests).
    pub fn drift(&self) -> &DriftDetector {
        &self.drift
    }

    /// The node-health tracker feeding this scheduler's candidate
    /// filtering (inspect strikes, or [`QuarantineTracker::reinstate`] a
    /// recovered node).
    pub fn quarantine(&self) -> &QuarantineTracker {
        &self.quarantine
    }

    /// Replaces the health tracker with one demoting nodes after
    /// `threshold` route failovers (accumulated strikes reset).
    pub fn set_quarantine_threshold(&mut self, threshold: u32) {
        self.quarantine = QuarantineTracker::new(threshold);
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &str {
        self.scheduler.policy_name()
    }

    /// Swaps the placement policy, keeping accumulated profiles.
    pub fn set_policy(&mut self, policy: Box<dyn SchedulingPolicy>) {
        self.scheduler.set_policy(policy);
    }

    /// The per-device queues, in context device order (for explicit
    /// placement when mixing modes).
    pub fn queues(&self) -> &[CommandQueue] {
        &self.queues
    }

    /// Adopts devices that joined the platform after this component was
    /// built: each new device gets a queue, a load slot, and a lazy
    /// program build the first time a placement lands on it. Draining
    /// and departed nodes need no adoption — they drop out of the
    /// candidate set on the next placement. Returns how many devices
    /// were adopted.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidOperation`] when the component's context covers
    /// only a subset of the platform's devices (a subset context cannot
    /// grow elastically); queue-creation failures otherwise.
    pub fn sync_membership(&mut self) -> Result<usize, Error> {
        if self
            .context
            .devices
            .iter()
            .enumerate()
            .any(|(i, d)| d.index() != i)
        {
            return Err(Error::api(
                Status::InvalidOperation,
                "elastic membership needs a context over the platform's full device list",
            ));
        }
        let all = self.context.platform.device_handles();
        let mut adopted = 0;
        for device in all.into_iter().skip(self.context.devices.len()) {
            self.context.devices.push(device.clone());
            self.queues.push(CommandQueue::new(&self.context, &device)?);
            self.busy_until.lock().push(SimTime::ZERO);
            adopted += 1;
        }
        Ok(adopted)
    }

    /// Launches `kernel`, letting the policy choose the device.
    ///
    /// FPGA devices are considered only for bitstream programs (§III-D).
    /// Returns the completion event and the index (within the context's
    /// device list) of the chosen device.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidOperation`] when no device is eligible; launch
    /// failures from the chosen queue otherwise.
    pub fn launch(&self, kernel: &Kernel, range: NdRange) -> Result<(Event, usize), Error> {
        self.launch_tagged(kernel, range, UserId::new(0), DEFAULT_TENANT)
    }

    /// [`AutoScheduler::launch`], billed to a session. The serving plane
    /// (see [`crate::serve`]) routes every tenant submission through
    /// here; `user` and `tenant` flow into the task spec, so the audit
    /// log, span attributes and placement metrics attribute the launch.
    /// Untagged launches delegate with `user 0` / `"default"`, making
    /// the single-tenant path the same code path.
    ///
    /// # Errors
    ///
    /// As [`AutoScheduler::launch`].
    pub fn launch_tagged(
        &self,
        kernel: &Kernel,
        range: NdRange,
        user: UserId,
        tenant: &str,
    ) -> Result<(Event, usize), Error> {
        self.dispatch(
            vec![LaunchPart::capture(kernel, range)?],
            FusionDecision::Unconsidered,
            user,
            tenant,
        )
    }

    /// Places and runs one dispatch — a lone kernel, or a chain the
    /// fusion prover approved — on whichever device the policy picks,
    /// and waits for it. Returns the completion event and the index
    /// (within the context's device list) of the chosen device.
    ///
    /// The dispatch is placed as one task: names joined with `+`, costs
    /// summed, inputs the union of the parts' buffers — for a lone
    /// kernel, simply its name, its cost and its buffers. `fused` is the
    /// lead's fusion verdict, recorded on the audit row.
    fn dispatch(
        &self,
        parts: Vec<LaunchPart>,
        fused: FusionDecision,
        user: UserId,
        tenant: &str,
    ) -> Result<(Event, usize), Error> {
        let joined = parts
            .iter()
            .map(|p| p.kernel.name())
            .collect::<Vec<_>>()
            .join("+");
        let cost = parts
            .iter()
            .map(|p| p.kernel.cost())
            .reduce(|chain, next| chain.then(&next))
            .expect("a dispatch has at least one part");
        // The buffers this dispatch touches drive locality: each
        // candidate view reports how many of those bytes are already
        // resident on it, and the task declares the total, so policies
        // and the cost model charge the real migration traffic of every
        // placement.
        let mut buffers: Vec<Buffer> = Vec::new();
        for arg in parts.iter().flat_map(|p| &p.args) {
            if let StoredArg::Buffer(b) = arg {
                if !buffers
                    .iter()
                    .any(|seen| std::sync::Arc::ptr_eq(&seen.inner, &b.inner))
                {
                    buffers.push(b.clone());
                }
            }
        }
        let task = TaskSpec::new(&joined)
            .cost(cost)
            .user(user)
            .tenant(tenant)
            .fpga_eligible(parts.iter().all(|p| p.kernel.program().is_bitstream()))
            .input_bytes(buffers.iter().map(Buffer::size).sum());
        let (choice, mut audit) = self.place_filtered(&task, &buffers)?;
        // A device adopted after the program was built gets the build
        // lazily, on the first placement that lands on it.
        for part in &parts {
            part.kernel
                .program()
                .build_for(&self.context.devices()[choice])?;
        }
        audit.fused = fused;
        let obs = &self.context.platform.obs;
        // The placement decision is always auditable; spans and metrics
        // follow the tracing gate.
        let decided = self.queues[choice].device().platform.clock().now();
        let ctx = if obs.enabled() {
            let trace = obs.recorder.new_trace();
            let root_id = obs.recorder.next_span_id();
            // The decision is instantaneous in virtual time; the span
            // still anchors the audit trail inside the trace tree.
            let mut placed = Span::new(
                obs.recorder.next_span_id(),
                trace,
                Some(root_id),
                "sched.place",
                Phase::new("Sched"),
                "host",
                decided,
                decided,
            )
            .attr("policy", audit.policy.clone())
            .attr("tenant", audit.tenant.clone())
            .attr("reason", audit.reason.clone());
            if audit.fused != FusionDecision::Unconsidered {
                placed = placed.attr("fused", audit.fused.to_string());
            }
            obs.recorder
                .record(placed.attr("candidates", audit.candidates.len().to_string()));
            obs.metrics.inc_counter(
                names::PLACEMENTS,
                &[
                    ("kernel", joined.as_str()),
                    (
                        "kind",
                        audit.winner().map(|w| w.kind.as_str()).unwrap_or("unknown"),
                    ),
                ],
                1,
            );
            Some((trace, root_id))
        } else {
            None
        };
        // The parts a chain carries get their own audit rows so
        // per-kernel queries still see every launch, wire command or not.
        let carried: Vec<PlacementAudit> = parts[1..]
            .iter()
            .map(|part| PlacementAudit {
                kernel: part.kernel.name().to_string(),
                tenant: audit.tenant.clone(),
                policy: audit.policy.clone(),
                candidates: Vec::new(),
                chosen: choice,
                reason: format!("carried by fused dispatch `{joined}`"),
                fused: FusionDecision::FusedInto {
                    lead: parts[0].kernel.name().to_string(),
                },
            })
            .collect();
        obs.audit.record(audit);
        for row in carried {
            obs.audit.record(row);
        }
        let event = self.queues[choice].enqueue_launch_parts_traced(
            &parts,
            ctx.map(|(trace, root_id)| TraceCtx::new(trace, root_id)),
        )?;
        // The policy's load tracking needs the completion time, so
        // auto-scheduled launches resolve here; failures propagate
        // instead of panicking in the profiling accessors below.
        event.wait()?;
        {
            let mut busy = self.busy_until.lock();
            busy[choice] = busy[choice].max(event.finished_at());
        }
        // The profile keys on the joined name — the same name the
        // placement above queried, so predictions stay consistent.
        self.scheduler.profile().record(
            &joined,
            self.context.devices()[choice].kind(),
            event.duration(),
        );
        self.observe_drift(&joined, choice, event.duration());
        if let Some((trace, root_id)) = ctx {
            // Close the trace root now that the launch has resolved; the
            // sched.place and enqueue spans recorded earlier parent here.
            obs.recorder.record(Span::new(
                root_id,
                trace,
                None,
                format!("auto.launch {joined}"),
                Phase::Compute,
                "host",
                decided,
                self.context.platform.clock().now(),
            ));
            self.sync_health_metrics();
        }
        Ok((event, choice))
    }

    /// Feeds one completed launch into the drift detector and folds any
    /// verdict flip into node health: `Degraded` raises the advisory
    /// flag (candidates down-weighted, not banned), `Recovered` clears
    /// it. Either transition lands in the audit log as a `drift` row.
    fn observe_drift(&self, kernel: &str, choice: usize, duration: haocl_sim::SimDuration) {
        let device = &self.context.devices()[choice];
        let node = device.node();
        let Some(transition) = self.drift.observe(kernel, node, duration) else {
            return;
        };
        let reason = match transition {
            DriftEvent::Degraded { ratio, .. } => {
                self.quarantine.mark_degraded(node);
                format!(
                    "node {} degraded: launches running {ratio:.2}x over healthy baseline",
                    device.node_name()
                )
            }
            DriftEvent::Recovered { .. } => {
                self.quarantine.clear_degraded(node);
                format!("node {} recovered to healthy baseline", device.node_name())
            }
        };
        self.context.platform.obs.audit.record(PlacementAudit {
            kernel: "<node-health>".into(),
            tenant: DEFAULT_TENANT.into(),
            policy: "drift".into(),
            candidates: Vec::new(),
            chosen: device.index(),
            reason,
            fused: FusionDecision::Unconsidered,
        });
    }

    /// Publishes the profile db's recalibration counter (delta-synced, so
    /// re-publishing is idempotent).
    fn sync_health_metrics(&self) {
        let obs = &self.context.platform.obs;
        let recals = self.scheduler.profile().recalibrations();
        let behind = recals.saturating_sub(
            obs.metrics
                .counter_value(names::PROFILE_RECALIBRATIONS, &[]),
        );
        obs.metrics
            .inc_counter(names::PROFILE_RECALIBRATIONS, &[], behind);
    }

    /// Places `task` over the context's devices: builds the per-device
    /// views (load + residency of `buffers`), folds failover epochs into
    /// quarantine strikes, filters quarantined nodes while an
    /// alternative exists, and remaps the surviving indices back onto
    /// the context's device list.
    fn place_filtered(
        &self,
        task: &TaskSpec,
        buffers: &[Buffer],
    ) -> Result<(usize, PlacementAudit), Error> {
        let now = self.context.platform.clock().now();
        let views: Vec<DeviceView> = {
            let busy = self.busy_until.lock();
            self.context
                .devices()
                .iter()
                .zip(busy.iter())
                .map(|(d, &until)| {
                    let local = buffers
                        .iter()
                        .map(|b| b.inner.resident_bytes_on(d.index))
                        .sum();
                    // A queue that drained in the past is available *now*,
                    // not at its stale drain time — without the clamp a
                    // long-idle (e.g. degraded, avoided) device looks
                    // cheaper than a recently busy healthy one.
                    DeviceView::from_descriptor(d.node(), d.descriptor())
                        .named(d.node_name())
                        .loaded(until.max(now), u32::from(until > now))
                        .with_local_bytes(local)
                        // Advisory health: a drifting node's candidates
                        // stay in the running, but every predicted run
                        // is inflated by its observed slowdown.
                        .with_health_penalty(self.drift.penalty(d.node()))
                })
                .collect()
        };
        let obs = &self.context.platform.obs;
        let host = self.context.platform.host();
        // Fold the runtime's failover signals into node health: every
        // *involuntary* epoch bump is a failover the host had to perform
        // for that node, i.e. one quarantine strike. Voluntary bumps
        // (graceful drains) are subtracted first — an operator decision
        // is not a failure signal — and a departed node's history is
        // erased entirely, so a node rejoining under the same name
        // starts with a clean record.
        for d in self.context.devices() {
            let node = d.node();
            if host.node_membership(node) == Some(haocl_cluster::MembershipState::Departed) {
                self.quarantine.forget(node);
                continue;
            }
            if self.quarantine.observe_epochs(
                node,
                host.node_epoch(node),
                host.node_voluntary_epochs(node),
            ) {
                obs.audit.record(PlacementAudit {
                    kernel: "<node-health>".into(),
                    tenant: DEFAULT_TENANT.into(),
                    policy: "quarantine".into(),
                    candidates: Vec::new(),
                    chosen: d.index(),
                    reason: format!(
                        "node {} quarantined after {} route failovers",
                        d.node_name(),
                        self.quarantine.strikes(node)
                    ),
                    fused: FusionDecision::Unconsidered,
                });
                obs.metrics
                    .inc_counter(names::QUARANTINES, &[("node", d.node_name())], 1);
            }
        }
        // Every placement refreshes the per-node health gauge, so the
        // exported series always reflects the tracker's current verdict.
        for d in self.context.devices() {
            let verdict = match self.quarantine.condition(d.node()) {
                NodeCondition::Healthy => 0,
                NodeCondition::Degraded => 1,
                NodeCondition::Quarantined => 2,
            };
            obs.metrics
                .set_gauge(names::DEVICE_HEALTH, &[("node", d.node_name())], verdict);
        }
        // Nodes that are leaving (Draining) or gone (Departed) are out
        // of the candidate set unconditionally — a draining node refuses
        // new launches and a departed one cannot execute them. Within
        // the active set, quarantined nodes are demoted while an
        // alternative exists (advisory: an all-quarantined fleet still
        // schedules).
        let active: Vec<usize> = (0..views.len())
            .filter(|&i| {
                host.node_membership(views[i].node) == Some(haocl_cluster::MembershipState::Active)
            })
            .collect();
        if active.is_empty() {
            return Err(Error::api(
                Status::InvalidOperation,
                "no active node to place on",
            ));
        }
        let eligible: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !self.quarantine.is_quarantined(views[i].node))
            .collect();
        let candidates = if eligible.is_empty() {
            active
        } else {
            eligible
        };
        let placed = if candidates.len() == views.len() {
            self.scheduler.place_audited(task, &views)
        } else {
            let surviving: Vec<DeviceView> = candidates.iter().map(|&i| views[i].clone()).collect();
            self.scheduler
                .place_audited(task, &surviving)
                .map(|(choice, mut audit)| {
                    // Remap filtered indices back onto the context's
                    // device list, which is what callers (and the audit
                    // log) index by.
                    for candidate in &mut audit.candidates {
                        candidate.device = candidates[candidate.device];
                    }
                    audit.chosen = candidates[audit.chosen];
                    (candidates[choice], audit)
                })
        };
        placed
            .map(|(choice, audit)| {
                // Advisory health in action: a degraded candidate was on
                // offer but a healthy device won — count the avoidance
                // against each sick node that lost.
                if audit.winner().is_some_and(|w| !w.is_degraded()) {
                    let mut counted: Vec<&str> = Vec::new();
                    for c in audit.candidates.iter().filter(|c| c.is_degraded()) {
                        let name = self.context.devices()[c.device].node_name();
                        if !counted.contains(&name) {
                            counted.push(name);
                            obs.metrics.inc_counter(
                                names::DEGRADED_PLACEMENTS_AVOIDED,
                                &[("node", name)],
                                1,
                            );
                        }
                    }
                }
                (choice, audit)
            })
            .map_err(|e| Error::api(Status::InvalidOperation, e.to_string()))
    }

    /// Dispatches a captured [`LaunchGraph`]: prover-approved adjacent
    /// chains collapse into single fused wire commands; everything else
    /// launches exactly as individual enqueues would.
    ///
    /// # Errors
    ///
    /// As [`AutoScheduler::launch`], for any constituent dispatch.
    pub fn launch_graph(&self, graph: &LaunchGraph) -> Result<GraphReport, Error> {
        self.launch_graph_tagged(graph, UserId::new(0), DEFAULT_TENANT)
    }

    /// [`AutoScheduler::launch_graph`], billed to a session.
    ///
    /// Each planned group is placed as one merged task (names joined
    /// with `+`, costs and input bytes summed), so the policy sees the
    /// fused dispatch it is actually scheduling. Every fusion decision —
    /// lead, member, solo, or rejection with its machine-readable code —
    /// lands in the audit log's `fused=` column, and fused dispatches
    /// bump `haocl_fused_launches_total` /
    /// `haocl_fusion_commands_saved_total`.
    ///
    /// # Errors
    ///
    /// As [`AutoScheduler::launch`], for any constituent dispatch.
    pub fn launch_graph_tagged(
        &self,
        graph: &LaunchGraph,
        user: UserId,
        tenant: &str,
    ) -> Result<GraphReport, Error> {
        let nodes = graph.nodes();
        let plan = graph.plan();
        let obs = &self.context.platform.obs;
        let mut report = GraphReport {
            nodes: nodes.len(),
            wire_launches: 0,
            fused_launches: 0,
            commands_saved: 0,
            events: Vec::with_capacity(plan.len()),
            decisions: vec![(String::new(), FusionDecision::Solo); nodes.len()],
        };
        for group in &plan {
            let members = &group.members;
            let lead_name = nodes[members[0]].kernel.name().to_string();
            // The lead's column explains this dispatch: why it fused, or
            // why it could not extend the previous one.
            let lead_decision = match (&group.rejected, members.len()) {
                (Some(code), _) => FusionDecision::Rejected { code: code.clone() },
                (None, 1) => FusionDecision::Solo,
                (None, len) => FusionDecision::Fused { len },
            };
            for &m in &members[1..] {
                report.decisions[m] = (
                    nodes[m].kernel.name().to_string(),
                    FusionDecision::FusedInto {
                        lead: lead_name.clone(),
                    },
                );
            }
            report.decisions[members[0]] = (lead_name, lead_decision.clone());
            let parts = members.iter().map(|&m| nodes[m].clone()).collect();
            let (event, _) = self.dispatch(parts, lead_decision, user, tenant)?;
            report.wire_launches += 1;
            if members.len() > 1 {
                report.fused_launches += 1;
                report.commands_saved += members.len() - 1;
                obs.metrics.inc_counter(names::FUSED_LAUNCHES, &[], 1);
                obs.metrics.inc_counter(
                    names::FUSION_COMMANDS_SAVED,
                    &[],
                    (members.len() - 1) as u64,
                );
            }
            report.events.push(event);
        }
        Ok(report)
    }
}

impl std::fmt::Debug for AutoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AutoScheduler({}, {} devices)",
            self.policy_name(),
            self.queues.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemFlags};
    use crate::platform::{DeviceType, Platform};
    use crate::program::Program;
    use haocl_kernel::CostModel;
    use haocl_proto::messages::DeviceKind;
    use haocl_sched::policies;

    fn setup(kinds: &[DeviceKind]) -> (Platform, Context) {
        let p = Platform::local(kinds).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        (p, ctx)
    }

    #[test]
    fn round_robin_spreads_launches() {
        let (_p, ctx) = setup(&[DeviceKind::Gpu, DeviceKind::Gpu]);
        let auto = AutoScheduler::new(&ctx, Box::new(policies::RoundRobin::new())).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void f(__global int* a) { a[get_global_id(0)] = 1; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "f").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let mut picks = Vec::new();
        for _ in 0..4 {
            let (_, dev) = auto.launch(&k, NdRange::linear(4, 1)).unwrap();
            picks.push(dev);
        }
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn bitstream_programs_route_streaming_work_to_the_fpga() {
        let registry = haocl_kernel::KernelRegistry::new();
        registry
            .register_source(
                "__kernel void fill_ones(__global int* a) { a[get_global_id(0)] = 1; }",
            )
            .unwrap();
        let p =
            Platform::local_with_registry(&[DeviceKind::Fpga, DeviceKind::Gpu], registry).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
        let prog = Program::with_bitstream_kernels(&ctx, ["fill_ones"]);
        prog.build().unwrap();
        let k = Kernel::new(&prog, "fill_ones").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_cost(CostModel::new().flops(1e10).bytes_read(1e6).streaming());
        let (_, dev) = auto.launch(&k, NdRange::linear(4, 1)).unwrap();
        assert_eq!(ctx.devices()[dev].kind(), DeviceKind::Fpga);
    }

    #[test]
    fn locality_policy_follows_resident_buffers() {
        let (_p, ctx) = setup(&[DeviceKind::Gpu, DeviceKind::Gpu]);
        let auto = AutoScheduler::new(&ctx, Box::new(policies::LocalityAware::new())).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void f(__global int* a) { a[get_global_id(0)] = 1; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "f").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        // Seed the input on device 1: the launch should follow the data
        // there even though device 0 comes first in every tie-break.
        buf.inner
            .host_write(&ctx.devices()[1], 0, &[7u8; 64])
            .unwrap();
        let (_, dev) = auto.launch(&k, NdRange::linear(4, 1)).unwrap();
        assert_eq!(dev, 1, "placement must follow the resident replica");
    }

    #[test]
    fn profile_feeds_back_into_placement() {
        let (_p, ctx) = setup(&[DeviceKind::Cpu, DeviceKind::Gpu]);
        let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void f(__global int* a) { a[get_global_id(0)] = 1; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "f").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_cost(CostModel::new().flops(1e9));
        let (_, first) = auto.launch(&k, NdRange::linear(4, 1)).unwrap();
        // Dense uniform work goes to the GPU (device index 1).
        assert_eq!(first, 1);
    }
}
