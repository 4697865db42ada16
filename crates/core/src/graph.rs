//! Task-graph capture for fusion-aware dispatch.
//!
//! A [`LaunchGraph`] records enqueues — kernel, argument snapshot,
//! geometry — instead of submitting them immediately. When the graph is
//! handed to [`crate::auto::AutoScheduler::launch_graph`], adjacent
//! nodes whose effect summaries the compiler's fusion prover
//! ([`haocl_clc::prove_fusable`]) certifies as safe collapse into a
//! single `LaunchFused` wire command: the NMP runs the constituent
//! bodies back-to-back under one dispatch, saving one command round per
//! folded kernel.
//!
//! Legality is decided *only* from static facts shipped on each
//! kernel's build report (per-argument access modes, item-privacy
//! proofs, barrier counts). Anything the analyzer could not prove —
//! opaque indexing, mismatched shapes, bitstream kernels with no report
//! — keeps the nodes unfused, so a graph run is always byte-identical
//! to replaying its nodes one enqueue at a time.

use haocl_clc::{
    prove_fusable, AccessMode, AccessPattern, ArgEffect, EffectSummary, FusionCandidate,
    FusionShape, PatternBase,
};
use haocl_kernel::NdRange;
use haocl_obs::FusionDecision;
use haocl_proto::messages::{Fidelity, WireKernelReport};

use crate::error::Error;
use crate::event::Event;
use crate::kernel::{Kernel, StoredArg};
use crate::queue::LaunchPart;

/// An ordered capture of kernel enqueues, fused where provably safe at
/// dispatch time.
///
/// # Examples
///
/// ```no_run
/// # use haocl::graph::LaunchGraph;
/// # use haocl_kernel::NdRange;
/// # fn demo(auto: &haocl::auto::AutoScheduler, k1: &haocl::Kernel, k2: &haocl::Kernel) {
/// let mut graph = LaunchGraph::new();
/// graph.add(k1, NdRange::linear(1024, 64)).unwrap();
/// graph.add(k2, NdRange::linear(1024, 64)).unwrap();
/// let report = auto.launch_graph(&graph).unwrap();
/// assert!(report.wire_launches <= report.nodes);
/// # }
/// ```
#[derive(Default)]
pub struct LaunchGraph {
    /// One captured enqueue each.
    nodes: Vec<LaunchPart>,
    fusion_disabled: bool,
}

/// A contiguous run of graph nodes dispatched as one wire command.
pub(crate) struct PlannedGroup {
    /// Node indices, in submission order (≥ 1).
    pub(crate) members: Vec<usize>,
    /// When the group's first node could not join the previous group:
    /// the prover's machine-readable rejection code.
    pub(crate) rejected: Option<String>,
}

/// The outcome of dispatching a [`LaunchGraph`].
pub struct GraphReport {
    /// Captured nodes.
    pub nodes: usize,
    /// Wire launch commands actually issued.
    pub wire_launches: usize,
    /// Issued commands that were fused dispatches (≥ 2 kernels each).
    pub fused_launches: usize,
    /// Commands saved versus one command per node.
    pub commands_saved: usize,
    /// One completion event per issued command, in dispatch order.
    pub events: Vec<Event>,
    /// Per-node fusion verdict, in submission order: `(kernel name,
    /// decision)`.
    pub decisions: Vec<(String, FusionDecision)>,
}

impl LaunchGraph {
    /// Creates an empty graph with fusion enabled.
    pub fn new() -> Self {
        LaunchGraph::default()
    }

    /// Enables or disables fusion for this graph. Disabled graphs
    /// dispatch one wire command per node — the ablation baseline.
    pub fn set_fusion(&mut self, enabled: bool) {
        self.fusion_disabled = !enabled;
    }

    /// Whether fusion is enabled.
    pub fn fusion_enabled(&self) -> bool {
        !self.fusion_disabled
    }

    /// Captures an enqueue of `kernel` over `range`, snapshotting its
    /// currently-bound arguments. Returns the node's index.
    ///
    /// # Errors
    ///
    /// [`crate::Status::InvalidKernelArgs`] if any argument is unset.
    pub fn add(&mut self, kernel: &Kernel, range: NdRange) -> Result<usize, Error> {
        self.nodes.push(LaunchPart::capture(kernel, range)?);
        Ok(self.nodes.len() - 1)
    }

    /// Number of captured nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn nodes(&self) -> &[LaunchPart] {
        &self.nodes
    }

    /// Greedily groups adjacent nodes into fused dispatches: a node
    /// joins the open group iff the prover certifies it against *every*
    /// member (chain fusion is pairwise legality among all members) and
    /// both sides run at full fidelity. The first failure's code is
    /// recorded on the group that the node starts instead.
    pub(crate) fn plan(&self) -> Vec<PlannedGroup> {
        if self.fusion_disabled {
            return (0..self.nodes.len())
                .map(|i| PlannedGroup {
                    members: vec![i],
                    rejected: None,
                })
                .collect();
        }
        let facts: Vec<NodeFacts> = self.nodes.iter().map(NodeFacts::of).collect();
        let mut groups: Vec<PlannedGroup> = Vec::new();
        for i in 0..self.nodes.len() {
            let joined = groups.last().and_then(|g| {
                let verdict = g
                    .members
                    .iter()
                    .try_for_each(|&m| facts[m].prove_with(&facts[i]));
                verdict.err()
            });
            match (groups.last_mut(), joined) {
                (Some(group), None) => group.members.push(i),
                (_, rejected) => groups.push(PlannedGroup {
                    members: vec![i],
                    rejected,
                }),
            }
        }
        groups
    }
}

/// Per-node static facts the prover consumes, owned so the borrowed
/// [`FusionCandidate`] views can be rebuilt per pairwise check.
struct NodeFacts {
    name: String,
    effects: Option<EffectSummary>,
    shape: FusionShape,
    buffers: Vec<Option<u64>>,
    full_fidelity: bool,
}

impl NodeFacts {
    fn of(node: &LaunchPart) -> NodeFacts {
        let effects = node
            .kernel
            .program()
            .kernel_reports()
            .iter()
            .find(|r| r.kernel == node.kernel.name())
            .map(summary_from_wire);
        let buffers = node
            .args
            .iter()
            .map(|a| match a {
                // The buffer's identity is its shared inner allocation:
                // two kernels alias iff they bind the same `BufferInner`.
                StoredArg::Buffer(b) => Some(std::sync::Arc::as_ptr(&b.inner) as usize as u64),
                _ => None,
            })
            .collect();
        NodeFacts {
            name: node.kernel.name().to_string(),
            effects,
            shape: FusionShape {
                work_dim: node.range.work_dim,
                global: node.range.global,
                local: node.range.local,
            },
            buffers,
            full_fidelity: node.kernel.fidelity() == Fidelity::Full,
        }
    }

    fn candidate(&self) -> FusionCandidate<'_> {
        FusionCandidate {
            name: &self.name,
            effects: self.effects.as_ref(),
            shape: self.shape,
            buffers: &self.buffers,
        }
    }

    /// Proves `self` (earlier) fusable with `later`, mapping every
    /// failure to its machine-readable code. Modeled-fidelity kernels
    /// never execute, so fusing them with real work is rejected up
    /// front.
    fn prove_with(&self, later: &NodeFacts) -> Result<(), String> {
        if !self.full_fidelity || !later.full_fidelity {
            return Err("non-full-fidelity".to_string());
        }
        prove_fusable(&self.candidate(), &later.candidate()).map_err(|e| e.code().to_string())
    }
}

/// Rebuilds the compiler's canonical [`EffectSummary`] from its flat
/// wire mirror on a kernel's build report. Unknown discriminants decay
/// to the conservative direction (read-write mode, opaque base), so a
/// newer node can never make an older host fuse unsoundly.
pub(crate) fn summary_from_wire(report: &WireKernelReport) -> EffectSummary {
    let args = report
        .effects
        .iter()
        .map(|e| ArgEffect {
            mode: match e.mode {
                0 => AccessMode::None,
                1 => AccessMode::Read,
                2 => AccessMode::Write,
                _ => AccessMode::ReadWrite,
            },
            elem_bytes: e.elem_bytes,
            elem_bounds: e.bounded.then_some((e.lo, e.hi)),
            complete: e.complete,
            patterns: e
                .patterns
                .iter()
                .map(|p| AccessPattern {
                    write: p.write,
                    coeffs: p.coeffs,
                    base: match p.base_kind {
                        0 => PatternBase::Const(p.base_add),
                        1 => PatternBase::Geom {
                            id: p.base_id,
                            add: p.base_add,
                        },
                        _ => PatternBase::Opaque,
                    },
                    provable: p.provable,
                })
                .collect(),
        })
        .collect();
    EffectSummary {
        args,
        barriers: report.barrier_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemFlags};
    use crate::context::Context;
    use crate::platform::{DeviceType, Platform};
    use crate::program::Program;
    use haocl_proto::messages::DeviceKind;

    const CHAIN_SRC: &str = r#"
        __kernel void scale(__global float* y, __global const float* x, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = x[i] * 2.0f;
        }
        __kernel void shift(__global float* y, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = y[i] + 1.0f;
        }
        __kernel void gather(__global float* y, __global const int* idx, int n) {
            int i = get_global_id(0);
            if (i < n) y[i] = y[idx[i]];
        }
    "#;

    fn setup() -> (Platform, Context, Program) {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, CHAIN_SRC);
        prog.build().unwrap();
        (p, ctx, prog)
    }

    #[test]
    fn elementwise_chain_plans_one_group() {
        let (_p, ctx, prog) = setup();
        let x = Buffer::new(&ctx, MemFlags::READ_ONLY, 64).unwrap();
        let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        let scale = Kernel::new(&prog, "scale").unwrap();
        scale.set_arg_buffer(0, &y).unwrap();
        scale.set_arg_buffer(1, &x).unwrap();
        scale.set_arg_i32(2, 16).unwrap();
        let shift = Kernel::new(&prog, "shift").unwrap();
        shift.set_arg_buffer(0, &y).unwrap();
        shift.set_arg_i32(1, 16).unwrap();
        let mut graph = LaunchGraph::new();
        graph.add(&scale, NdRange::linear(16, 4)).unwrap();
        graph.add(&shift, NdRange::linear(16, 4)).unwrap();
        let plan = graph.plan();
        assert_eq!(plan.len(), 1, "elementwise chain must fuse");
        assert_eq!(plan[0].members, vec![0, 1]);
        assert!(plan[0].rejected.is_none());
    }

    #[test]
    fn opaque_gather_breaks_the_chain_with_a_code() {
        let (_p, ctx, prog) = setup();
        let x = Buffer::new(&ctx, MemFlags::READ_ONLY, 64).unwrap();
        let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        let idx = Buffer::new(&ctx, MemFlags::READ_ONLY, 64).unwrap();
        let scale = Kernel::new(&prog, "scale").unwrap();
        scale.set_arg_buffer(0, &y).unwrap();
        scale.set_arg_buffer(1, &x).unwrap();
        scale.set_arg_i32(2, 16).unwrap();
        let gather = Kernel::new(&prog, "gather").unwrap();
        gather.set_arg_buffer(0, &y).unwrap();
        gather.set_arg_buffer(1, &idx).unwrap();
        gather.set_arg_i32(2, 16).unwrap();
        let mut graph = LaunchGraph::new();
        graph.add(&scale, NdRange::linear(16, 4)).unwrap();
        graph.add(&gather, NdRange::linear(16, 4)).unwrap();
        let plan = graph.plan();
        assert_eq!(plan.len(), 2, "the data-dependent gather must not fuse");
        let code = plan[1].rejected.as_deref().unwrap();
        assert!(
            code == "read-write-overlap" || code == "write-write-overlap",
            "unexpected rejection code {code}"
        );
    }

    #[test]
    fn shape_mismatch_and_disabled_fusion_stay_unfused() {
        let (_p, ctx, prog) = setup();
        let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        let shift = Kernel::new(&prog, "shift").unwrap();
        shift.set_arg_buffer(0, &y).unwrap();
        shift.set_arg_i32(1, 16).unwrap();
        let mut graph = LaunchGraph::new();
        graph.add(&shift, NdRange::linear(16, 4)).unwrap();
        graph.add(&shift, NdRange::linear(8, 4)).unwrap();
        let plan = graph.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].rejected.as_deref(), Some("shape-mismatch"));

        let mut off = LaunchGraph::new();
        off.set_fusion(false);
        assert!(!off.fusion_enabled());
        off.add(&shift, NdRange::linear(16, 4)).unwrap();
        off.add(&shift, NdRange::linear(16, 4)).unwrap();
        let plan = off.plan();
        assert_eq!(plan.len(), 2, "disabled graphs never fuse");
        assert!(plan.iter().all(|g| g.rejected.is_none()));
    }

    #[test]
    fn modeled_fidelity_is_rejected_up_front() {
        let (_p, ctx, prog) = setup();
        let y = Buffer::new(&ctx, MemFlags::READ_WRITE, 64).unwrap();
        let shift = Kernel::new(&prog, "shift").unwrap();
        shift.set_arg_buffer(0, &y).unwrap();
        shift.set_arg_i32(1, 16).unwrap();
        let modeled = Kernel::new(&prog, "shift").unwrap();
        modeled.set_arg_buffer(0, &y).unwrap();
        modeled.set_arg_i32(1, 16).unwrap();
        modeled.set_fidelity(crate::Fidelity::Modeled);
        let mut graph = LaunchGraph::new();
        graph.add(&shift, NdRange::linear(16, 4)).unwrap();
        graph.add(&modeled, NdRange::linear(16, 4)).unwrap();
        let plan = graph.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].rejected.as_deref(), Some("non-full-fidelity"));
    }

    #[test]
    fn wire_roundtrip_of_effects_is_lossless_enough_to_prove() {
        // The summary that travels host-ward over the wire must carry
        // everything the prover needs: rebuild from the report and check
        // the modes/patterns survived.
        let (_p, ctx, prog) = setup();
        drop(ctx);
        let reports = prog.kernel_reports();
        let scale = reports.iter().find(|r| r.kernel == "scale").unwrap();
        let summary = summary_from_wire(scale);
        assert_eq!(summary.args.len(), 3);
        assert_eq!(summary.args[0].mode, AccessMode::Write);
        assert_eq!(summary.args[1].mode, AccessMode::Read);
        assert_eq!(summary.args[2].mode, AccessMode::None);
        assert!(summary.args[0].patterns.iter().all(|p| p.provable));
        assert!(summary.args[0].complete);
    }
}
