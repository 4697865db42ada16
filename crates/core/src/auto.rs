//! The extendable task scheduling component (§III-B).
//!
//! Instead of enqueueing on an explicit per-device queue (user-directed
//! placement), an [`AutoScheduler`] routes each launch through a
//! pluggable [`SchedulingPolicy`] — the paper's upgrade path to automatic
//! heterogeneity-aware scheduling, fed by the runtime profile of every
//! completed launch.

use std::collections::BTreeSet;

use parking_lot::Mutex;

use haocl_cluster::MembershipState;
use haocl_kernel::NdRange;
use haocl_obs::{names, FusionDecision, PlacementAudit, Span, TraceCtx, DEFAULT_TENANT};
use haocl_proto::ids::{NodeId, UserId};
use haocl_sched::{
    DeviceView, DriftDetector, DriftEvent, NodeCondition, Scheduler, SchedulingPolicy, TaskSpec,
    DEFAULT_QUARANTINE_THRESHOLD,
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
    /// Involuntary failovers before a node is quarantined (see
    /// [`AutoScheduler::condition`]).
    quarantine_threshold: u32,
    /// The nodes whose last reading was quarantined, so that each move
    /// into quarantine is announced once.
    announced: Mutex<BTreeSet<NodeId>>,
    /// Timing-drift watchdog: every completed launch feeds it, and nodes
    /// running persistently slower than their own healthy baseline are
    /// advisorily down-weighted (see [`AutoScheduler::drift`]).
    drift: DriftDetector,
}

/// What one look at the host runtime and the drift detector says about
/// a node: everything its [`NodeCondition`] is derived from.
#[derive(Clone, Copy)]
struct Reading {
    membership: Option<MembershipState>,
    /// Routing epoch bumps: one per failover and one per drain.
    epochs: u32,
    /// The bumps that drains made.
    voluntary_epochs: u32,
    /// The drift detector's verdict.
    degraded: bool,
}

impl Reading {
    /// Involuntary failovers: the epoch bumps no drain made.
    fn failovers(self) -> u32 {
        self.epochs.saturating_sub(self.voluntary_epochs)
    }

    /// Quarantined once the failovers reach `threshold` (0 counts as 1),
    /// else degraded while the drift detector says so. A departed node
    /// reads healthy: a drain is not evidence of ill health.
    fn condition(self, threshold: u32) -> NodeCondition {
        if self.membership == Some(MembershipState::Departed) {
            NodeCondition::Healthy
        } else if self.failovers() >= threshold.max(1) {
            NodeCondition::Quarantined
        } else if self.degraded {
            NodeCondition::Degraded
        } else {
            NodeCondition::Healthy
        }
    }
}

/// An audit row about a node's health rather than a placement.
fn health_row(policy: &str, chosen: usize, reason: String) -> PlacementAudit {
    PlacementAudit {
        kernel: "<node-health>".into(),
        tenant: DEFAULT_TENANT.into(),
        policy: policy.into(),
        candidates: Vec::new(),
        chosen,
        reason,
        fused: FusionDecision::Unconsidered,
    }
}

/// Whether reading `condition` for `node` announces its quarantine: on
/// its first quarantined reading, and again only after one that was not.
fn announces(announced: &mut BTreeSet<NodeId>, node: NodeId, condition: NodeCondition) -> bool {
    if condition == NodeCondition::Quarantined {
        announced.insert(node)
    } else {
        announced.remove(&node);
        false
    }
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
            quarantine_threshold: DEFAULT_QUARANTINE_THRESHOLD,
            announced: Mutex::new(BTreeSet::new()),
            drift: DriftDetector::new(),
        })
    }

    /// The drift detector watching per-node launch timings (inspect
    /// degraded nodes, or feed it synthetic observations in tests).
    pub fn drift(&self) -> &DriftDetector {
        &self.drift
    }

    /// A node's health, read from what the runtime already counts:
    /// quarantined once the host's involuntary failovers for it
    /// (`node_epoch − node_voluntary_epochs`) reach the quarantine
    /// threshold, else degraded while the [`DriftDetector`] says so. A
    /// departed node reads healthy.
    pub fn condition(&self, node: NodeId) -> NodeCondition {
        self.reading(node).condition(self.quarantine_threshold)
    }

    /// Quarantines nodes after `threshold` involuntary failovers (0
    /// counts as 1). The next placement announces every quarantine
    /// anew.
    pub fn set_quarantine_threshold(&mut self, threshold: u32) {
        self.quarantine_threshold = threshold;
        self.announced.get_mut().clear();
    }

    fn reading(&self, node: NodeId) -> Reading {
        let host = self.context.platform.host();
        Reading {
            membership: host.node_membership(node),
            epochs: host.node_epoch(node),
            voluntary_epochs: host.node_voluntary_epochs(node),
            degraded: self.drift.is_degraded(node),
        }
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

    /// Feeds one completed launch into the drift detector. A verdict
    /// flip — `Degraded` (candidates down-weighted, not banned) or
    /// `Recovered` — lands in the audit log as a `drift` row.
    fn observe_drift(&self, kernel: &str, choice: usize, duration: haocl_sim::SimDuration) {
        let device = &self.context.devices()[choice];
        let node = device.node();
        let Some(transition) = self.drift.observe(kernel, node, duration) else {
            return;
        };
        let reason = match transition {
            DriftEvent::Degraded { ratio, .. } => format!(
                "node {} degraded: launches running {ratio:.2}x over healthy baseline",
                device.node_name()
            ),
            DriftEvent::Recovered { .. } => {
                format!("node {} recovered to healthy baseline", device.node_name())
            }
        };
        let row = health_row("drift", device.index(), reason);
        self.context.platform.obs.audit.record(row);
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

    /// Places `task` over the context's devices: builds one view per
    /// device (load, residency of `buffers`, and its node's standing),
    /// announces each node's move into quarantine once, refreshes the
    /// health gauge, and leaves filtering and choosing to the scheduler.
    fn place_filtered(
        &self,
        task: &TaskSpec,
        buffers: &[Buffer],
    ) -> Result<(usize, PlacementAudit), Error> {
        let now = self.context.platform.clock().now();
        let obs = &self.context.platform.obs;
        let busy = self.busy_until.lock();
        let mut announced = self.announced.lock();
        let mut views = Vec::with_capacity(busy.len());
        for (d, &until) in self.context.devices().iter().zip(busy.iter()) {
            let node = d.node();
            let reading = self.reading(node);
            let condition = reading.condition(self.quarantine_threshold);
            if announces(&mut announced, node, condition) {
                let reason = format!(
                    "node {} quarantined after {} route failovers",
                    d.node_name(),
                    reading.failovers()
                );
                obs.audit
                    .record(health_row("quarantine", d.index(), reason));
                obs.metrics
                    .inc_counter(names::QUARANTINES, &[("node", d.node_name())], 1);
            }
            let gauge = condition as i64;
            obs.metrics
                .set_gauge(names::DEVICE_HEALTH, &[("node", d.node_name())], gauge);
            let local = buffers
                .iter()
                .map(|b| b.inner.resident_bytes_on(d.index))
                .sum();
            // A queue that drained in the past is available *now*, not at
            // its stale drain time — without the clamp a long-idle (e.g.
            // degraded, avoided) device looks cheaper than a recently
            // busy healthy one.
            let view = DeviceView::from_descriptor(node, d.descriptor())
                .named(d.node_name())
                .loaded(until.max(now), u32::from(until > now))
                .with_local_bytes(local)
                // Advisory health: a drifting node's candidates stay in
                // the running, but every predicted run is inflated by its
                // observed slowdown.
                .with_health_penalty(self.drift.penalty(node))
                .standing(
                    reading.membership == Some(MembershipState::Active),
                    condition == NodeCondition::Quarantined,
                );
            views.push(view);
        }
        drop((busy, announced));
        if !views.iter().any(|v| v.active) {
            return Err(Error::api(
                Status::InvalidOperation,
                "no active node to place on",
            ));
        }
        let (choice, audit) = self
            .scheduler
            .place_audited(task, &views)
            .map_err(|e| Error::api(Status::InvalidOperation, e.to_string()))?;
        // Advisory health in action: a degraded candidate was on offer
        // but a healthy device won — count the avoidance against each
        // sick node that lost.
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
        Ok((choice, audit))
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
    fn node_condition_is_read_from_the_counts() {
        use NodeCondition::{Degraded, Healthy, Quarantined};
        let up = |epochs, voluntary_epochs, degraded| Reading {
            membership: Some(MembershipState::Active),
            epochs,
            voluntary_epochs,
            degraded,
        };
        let departed = Reading {
            membership: Some(MembershipState::Departed),
            ..up(2, 0, true)
        };
        // (case, threshold, one reading per placement, the last
        // reading's condition, quarantines announced)
        let table: [(&str, u32, &[Reading], NodeCondition, usize); 7] = [
            (
                "failovers are involuntary epochs",
                2,
                &[up(0, 0, false), up(1, 0, false), up(2, 0, false)],
                Quarantined,
                1,
            ),
            (
                "voluntary epochs are no failovers",
                2,
                &[up(2, 2, false), up(3, 2, false)],
                Healthy,
                0,
            ),
            ("degraded is advisory", 2, &[up(1, 0, true)], Degraded, 0),
            (
                "quarantined outranks degraded",
                2,
                &[up(0, 0, true), up(2, 0, true)],
                Quarantined,
                1,
            ),
            (
                "a threshold of 0 counts as 1",
                0,
                &[up(1, 0, false)],
                Quarantined,
                1,
            ),
            (
                "a departed node reads healthy",
                2,
                &[up(2, 0, true), departed],
                Healthy,
                1,
            ),
            (
                "the transition is announced once",
                2,
                &[up(2, 0, false), up(2, 0, false), up(3, 0, false)],
                Quarantined,
                1,
            ),
        ];
        let node = NodeId::new(1);
        for (case, threshold, readings, want, announcements) in table {
            let mut announced = BTreeSet::new();
            let mut made = 0;
            let mut last = Healthy;
            for reading in readings {
                last = reading.condition(threshold);
                made += usize::from(announces(&mut announced, node, last));
            }
            assert_eq!((last, made), (want, announcements), "{case}");
        }
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
