//! The analyzer proper: abstract interpretation of kernel bytecode over
//! the CFG, driving the barrier-divergence, local-memory race and bounds
//! checks, plus the AST-level use-before-init check and feature
//! extraction.
//!
//! # Soundness stance
//!
//! Divergence and race detection are *conservative*: a kernel the
//! analyzer accepts should not trip the VM's corresponding dynamic
//! checks, at the price of occasional false positives (e.g. guarded
//! reduction trees, whose disjointness needs relational reasoning
//! between the guard and the index). Bounds and use-before-init are
//! *best-effort* warnings unless an access is provably out of bounds.

use std::collections::HashSet;

use crate::analysis::cfg::{BlockSet, Cfg};
use crate::analysis::dataflow::{self, Form, ForwardAnalysis, Iv, Pt, PtrBase, Sc, Uoff, AV};
use crate::analysis::effects::{
    AccessMode, AccessPattern, ArgEffect, EffectSummary, PatternBase, GEOM_SYM, LOAD_SYM,
    MAX_PATTERNS,
};
use crate::analysis::{KernelFeatures, KernelReport};
use crate::ast::{Block as AstBlock, Expr, KernelDecl, ParamType, Stmt};
use crate::bytecode::{BinKind, CompiledKernel, Geom, Instr};
use crate::diag::{Diagnostic, Diagnostics, Severity, Stage};
use crate::types::{AddressSpace, ScalarType};

/// Interval bounds beyond this magnitude are treated as "unknown" rather
/// than "meaningfully bounded" when deciding whether to warn.
const HUGE: i64 = 1 << 40;

/// The per-point abstract state: operand stack plus local slots.
#[derive(Debug, PartialEq)]
pub(crate) struct AbsState {
    stack: Vec<AV>,
    slots: Vec<AV>,
}

impl Clone for AbsState {
    fn clone(&self) -> Self {
        AbsState {
            stack: self.stack.clone(),
            slots: self.slots.clone(),
        }
    }

    /// Reuses both buffers: the solver copies one state per block visit.
    fn clone_from(&mut self, source: &Self) {
        self.stack.clone_from(&source.stack);
        self.slots.clone_from(&source.slots);
    }
}

/// A memory access, as the latest visit of its block observed it.
#[derive(Debug, Clone, Copy)]
struct Event {
    pc: usize,
    block: usize,
    write: bool,
    base: PtrBase,
    form: Form,
    range: Iv,
    value_item_dep: bool,
    ctrl_tainted: bool,
}

struct Analyzer<'a> {
    kernel: &'a CompiledKernel,
    cfg: &'a Cfg,
    pdom: &'a [BlockSet],
    /// Blocks under work-item-dependent control. Grows during the solve:
    /// a conditional terminator whose condition is item-dependent taints
    /// the blocks control-dependent on it.
    tainted: BlockSet,
    /// Branch blocks whose dependents are already in `tainted`.
    diverged: BlockSet,
    /// Blocks tainted since `solve` last asked (see
    /// [`ForwardAnalysis::take_grown`]).
    grown: Vec<usize>,
    /// Every access every visit observed, in visit order.
    log: Vec<Event>,
    /// Per block, what its latest visit observed. A block's last visit
    /// starts from its solved entry state under its final taint (a change
    /// to either re-queues it), so these are the solution's observations.
    latest: Vec<Latest>,
}

/// What one visit of a block observed.
#[derive(Clone, Copy, Default)]
struct Latest {
    /// Its accesses: `log[first..end]`.
    first: usize,
    end: usize,
    /// Bit `d`: it queried `get_global_id`/`get_local_id` for dimension
    /// `d`; bit 3: for a non-constant dimension.
    dims: u8,
}

impl ForwardAnalysis for Analyzer<'_> {
    type State = AbsState;

    fn boundary(&self) -> AbsState {
        let mut slots = Vec::with_capacity(self.kernel.n_slots as usize);
        for (i, p) in self.kernel.params.iter().enumerate() {
            let slot = i as u16;
            slots.push(match p {
                ParamType::Scalar(_) => AV::Scalar(Sc {
                    form: Form::uniform_sym(u32::from(slot)),
                    range: Iv::TOP,
                }),
                ParamType::Pointer(AddressSpace::Local, _) => AV::Ptr(Pt {
                    base: PtrBase::LocalDyn(slot),
                    form: Form::constant(0),
                    range: Iv::constant(0),
                }),
                ParamType::Pointer(..) => AV::Ptr(Pt {
                    base: PtrBase::Global(slot),
                    form: Form::constant(0),
                    range: Iv::constant(0),
                }),
            });
        }
        while slots.len() < self.kernel.n_slots as usize {
            slots.push(AV::Scalar(Sc::constant(0)));
        }
        AbsState {
            stack: Vec::new(),
            slots,
        }
    }

    fn transfer(&mut self, st: &mut AbsState, pc: usize, instr: &Instr) {
        let block = self.cfg.block_of[pc];
        if pc == self.cfg.blocks[block].start {
            let at = self.log.len();
            self.latest[block] = Latest {
                first: at,
                end: at,
                dims: 0,
            };
        }
        self.step(st, pc, block, instr);
    }

    fn take_grown(&mut self) -> Option<usize> {
        self.grown.pop()
    }

    fn join(&self, into: &mut AbsState, from: &AbsState) -> bool {
        let mut changed = false;
        // Structured codegen keeps stack heights equal at joins; truncate
        // defensively if they ever differ.
        let n = into.stack.len().min(from.stack.len());
        if into.stack.len() != n {
            into.stack.truncate(n);
            changed = true;
        }
        let pairs = into.stack.iter_mut().zip(&from.stack);
        for (a, &b) in pairs.chain(into.slots.iter_mut().zip(&from.slots)) {
            // Equal values join to themselves; most slots are unchanged.
            if *a != b {
                let j = a.join(b);
                changed |= j != *a;
                *a = j;
            }
        }
        changed
    }
}

impl Analyzer<'_> {
    fn pop(st: &mut AbsState) -> AV {
        st.stack.pop().unwrap_or_else(AV::top)
    }

    /// Taints every block control-dependent on the branch ending `block`
    /// (once per branch) and records the newly tainted ones in `grown`.
    fn diverge(&mut self, block: usize) {
        if !self.diverged.insert(block) {
            return;
        }
        let deps = self.cfg.control_dependents(block, self.pdom);
        for b in 0..self.cfg.blocks.len() {
            if deps.contains(b) && self.tainted.insert(b) {
                self.grown.push(b);
            }
        }
    }

    fn observe(&mut self, block: usize, event: Event) {
        self.log.push(event);
        self.latest[block].end = self.log.len();
    }

    /// One instruction's abstract effect.
    fn step(&mut self, st: &mut AbsState, pc: usize, block: usize, instr: &Instr) {
        let in_tainted = self.tainted.contains(block);
        match *instr {
            Instr::PushInt(v, _) => st.stack.push(AV::Scalar(Sc::constant(v))),
            Instr::PushFloat(..) => st.stack.push(AV::Scalar(Sc {
                form: Form::uniform_opaque(),
                range: Iv::TOP,
            })),
            Instr::PushBool(b) => st.stack.push(AV::Scalar(Sc::constant(i64::from(b)))),
            Instr::PushLocalPtr { byte_offset, .. } => st.stack.push(AV::Ptr(Pt {
                base: PtrBase::LocalArray(byte_offset),
                form: Form::constant(0),
                range: Iv::constant(0),
            })),
            Instr::LoadLocal(s) => {
                let v = st.slots.get(s as usize).copied().unwrap_or_else(AV::top);
                st.stack.push(v);
            }
            Instr::StoreLocal(s) => {
                let mut v = Self::pop(st);
                if in_tainted {
                    // Implicit flow: a value stored under work-item-dependent
                    // control is itself work-item-dependent.
                    v = v.taint();
                }
                if let Some(slot) = st.slots.get_mut(s as usize) {
                    *slot = v;
                }
            }
            Instr::LoadMem(_) => {
                let ptr = Self::pop(st);
                let val = match ptr {
                    AV::Ptr(p) => {
                        self.observe(
                            block,
                            Event {
                                pc,
                                block,
                                write: false,
                                base: p.base,
                                form: p.form,
                                range: p.range,
                                value_item_dep: false,
                                ctrl_tainted: in_tainted,
                            },
                        );
                        if p.form.is_uniform() {
                            // Same address for every work-item → same value.
                            Sc {
                                form: Form::uniform_sym(LOAD_SYM + pc as u32),
                                range: Iv::TOP,
                            }
                        } else {
                            Sc::top()
                        }
                    }
                    AV::Scalar(_) => Sc::top(),
                };
                st.stack.push(AV::Scalar(val));
            }
            Instr::StoreMem(_) => {
                let value = Self::pop(st);
                let ptr = Self::pop(st);
                if let AV::Ptr(p) = ptr {
                    self.observe(
                        block,
                        Event {
                            pc,
                            block,
                            write: true,
                            base: p.base,
                            form: p.form,
                            range: p.range,
                            value_item_dep: value.as_scalar().form.is_item_dependent(),
                            ctrl_tainted: in_tainted,
                        },
                    );
                }
            }
            Instr::PtrAdd => {
                let idx = Self::pop(st).as_scalar();
                let ptr = Self::pop(st);
                let out = match ptr {
                    AV::Ptr(p) => AV::Ptr(Pt {
                        base: p.base,
                        form: p.form + idx.form,
                        range: p.range + idx.range,
                    }),
                    AV::Scalar(_) => AV::Ptr(Pt {
                        base: PtrBase::Unknown,
                        form: Form::top(),
                        range: Iv::TOP,
                    }),
                };
                st.stack.push(out);
            }
            Instr::Bin(kind, _) => {
                let rhs = Self::pop(st).as_scalar();
                let lhs = Self::pop(st).as_scalar();
                let out = match kind {
                    BinKind::Add => Sc {
                        form: lhs.form + rhs.form,
                        range: lhs.range + rhs.range,
                    },
                    BinKind::Sub => Sc {
                        form: lhs.form - rhs.form,
                        range: lhs.range - rhs.range,
                    },
                    BinKind::Mul => Sc {
                        form: lhs.form * rhs.form,
                        range: lhs.range * rhs.range,
                    },
                    BinKind::Rem => {
                        let range = match rhs.range.as_const() {
                            Some(c) if c > 0 => {
                                Iv::range(if lhs.range.lo >= 0 { 0 } else { 1 - c }, c - 1)
                            }
                            _ => Iv::TOP,
                        };
                        Sc {
                            form: lhs.form.opaque_combine(rhs.form),
                            range,
                        }
                    }
                    BinKind::And => {
                        let mask = match (lhs.range.as_const(), rhs.range.as_const()) {
                            (_, Some(m)) | (Some(m), _) if m >= 0 => Some(m),
                            _ => None,
                        };
                        Sc {
                            form: lhs.form.opaque_combine(rhs.form),
                            range: mask.map_or(Iv::TOP, |m| Iv::range(0, m)),
                        }
                    }
                    _ => Sc {
                        form: lhs.form.opaque_combine(rhs.form),
                        range: Iv::TOP,
                    },
                };
                st.stack.push(AV::Scalar(out));
            }
            Instr::Cmp(..) => {
                let rhs = Self::pop(st).as_scalar();
                let lhs = Self::pop(st).as_scalar();
                st.stack.push(AV::Scalar(Sc {
                    form: lhs.form.opaque_combine(rhs.form),
                    range: Iv::range(0, 1),
                }));
            }
            Instr::Neg(_) => {
                let v = Self::pop(st).as_scalar();
                st.stack.push(AV::Scalar(Sc {
                    form: -v.form,
                    range: -v.range,
                }));
            }
            Instr::BitNot(_) | Instr::NotBool => {
                let v = Self::pop(st).as_scalar();
                let form = if v.form.is_uniform() {
                    Form::uniform_opaque()
                } else {
                    Form::top()
                };
                let range = if matches!(instr, Instr::NotBool) {
                    Iv::range(0, 1)
                } else {
                    Iv::TOP
                };
                st.stack.push(AV::Scalar(Sc { form, range }));
            }
            Instr::Cast { from, to } => {
                if let Some(AV::Scalar(s)) = st.stack.last_mut() {
                    let from_int = from.is_integer() || from == ScalarType::Bool;
                    if to == ScalarType::Bool {
                        s.range = Iv::range(0, 1);
                    } else if !from_int || !to.is_integer() || to.size_bytes() < from.size_bytes() {
                        s.range = Iv::TOP;
                    }
                }
            }
            Instr::Jump(_) => {}
            Instr::JumpIfFalse(_) | Instr::JumpIfTrue(_) => {
                if Self::pop(st).as_scalar().form.is_item_dependent() {
                    self.diverge(block);
                }
            }
            Instr::CallMath1(..) => {
                let v = Self::pop(st).as_scalar();
                let form = if v.form.is_uniform() {
                    Form::uniform_opaque()
                } else {
                    Form::top()
                };
                st.stack.push(AV::Scalar(Sc {
                    form,
                    range: Iv::TOP,
                }));
            }
            Instr::CallMath2(..) => {
                let b = Self::pop(st).as_scalar();
                let a = Self::pop(st).as_scalar();
                st.stack.push(AV::Scalar(Sc {
                    form: a.form.opaque_combine(b.form),
                    range: Iv::TOP,
                }));
            }
            Instr::Query(g) => {
                let dim_v = Self::pop(st).as_scalar();
                let dim = dim_v
                    .range
                    .as_const()
                    .filter(|k| (0..3).contains(k))
                    .map(|k| k as usize);
                let nonneg = Iv::range(0, i64::MAX);
                let positive = Iv::range(1, i64::MAX);
                let out = match (g, dim) {
                    (Geom::GlobalId, Some(d)) => {
                        self.latest[block].dims |= 1 << d;
                        Sc {
                            form: Form::gid(d, GEOM_SYM + d as u32),
                            range: nonneg,
                        }
                    }
                    (Geom::LocalId, Some(d)) => {
                        self.latest[block].dims |= 1 << d;
                        Sc {
                            form: Form::lid(d),
                            range: nonneg,
                        }
                    }
                    (Geom::GlobalId | Geom::LocalId, None) => {
                        self.latest[block].dims |= 1 << 3;
                        Sc {
                            form: Form::top(),
                            range: nonneg,
                        }
                    }
                    (Geom::GroupId, Some(d)) => Sc {
                        form: Form::uniform_sym(GEOM_SYM + 100 + d as u32),
                        range: nonneg,
                    },
                    (Geom::GlobalSize, Some(d)) => Sc {
                        form: Form::uniform_sym(GEOM_SYM + 200 + d as u32),
                        range: positive,
                    },
                    (Geom::LocalSize, Some(d)) => Sc {
                        form: Form::uniform_sym(GEOM_SYM + 300 + d as u32),
                        range: positive,
                    },
                    (Geom::NumGroups, Some(d)) => Sc {
                        form: Form::uniform_sym(GEOM_SYM + 400 + d as u32),
                        range: positive,
                    },
                    (Geom::WorkDim, _) => Sc {
                        form: Form::uniform_sym(GEOM_SYM + 500),
                        range: Iv::range(1, 3),
                    },
                    (_, None) => Sc {
                        form: Form::uniform_opaque(),
                        range: nonneg,
                    },
                };
                st.stack.push(AV::Scalar(out));
            }
            Instr::Barrier | Instr::Return => {}
            Instr::Dup => {
                let v = st.stack.last().copied().unwrap_or_else(AV::top);
                st.stack.push(v);
            }
            Instr::Pop => {
                Self::pop(st);
            }
        }
    }
}

/// Whether a structured item-dependent index form provably maps distinct
/// work-items to distinct elements.
fn is_private(form: &Form, active: &[bool; 3], dims: Option<&[u64]>) -> bool {
    if form.tainted {
        return false;
    }
    let nz: Vec<usize> = (0..3).filter(|&d| form.coeffs[d] != 0).collect();
    match nz.len() {
        1 => {
            let d = nz[0];
            active.iter().enumerate().all(|(e, &a)| !a || e == d)
        }
        2 => {
            // The 2-D tile pattern `row*stride + col` over a declared
            // `[rows][stride]` array, assuming the launch's local size does
            // not exceed the declared extents.
            let Some(dims) = dims else { return false };
            if dims.len() != 2 {
                return false;
            }
            let stride = dims[1];
            if stride <= 1 {
                return false;
            }
            let (a, b) = (nz[0], nz[1]);
            let (ca, cb) = (form.coeffs[a].unsigned_abs(), form.coeffs[b].unsigned_abs());
            let pattern = (ca == stride && cb == 1) || (ca == 1 && cb == stride);
            pattern
                && active
                    .iter()
                    .enumerate()
                    .all(|(e, &x)| !x || e == a || e == b)
        }
        _ => false,
    }
}

/// Analyzes one compiled kernel against its declaration.
pub(crate) fn analyze(decl: &KernelDecl, kernel: &CompiledKernel, source: &str) -> KernelReport {
    let mut diags = Diagnostics::new();
    let cfg = Cfg::build(&kernel.code);
    let m = cfg.blocks.len();
    let pdom = cfg.post_dominators();

    // One solve settles the values, the control taint and the
    // observations together: taint only grows, `diverge` re-queues the
    // blocks it reaches, and each block's latest visit is its observation.
    let mut analyzer = Analyzer {
        kernel,
        cfg: &cfg,
        pdom: &pdom,
        tainted: BlockSet::empty(m),
        diverged: BlockSet::empty(m),
        grown: Vec::new(),
        log: Vec::new(),
        latest: vec![Latest::default(); m],
    };
    let entries = dataflow::solve(&cfg, &kernel.code, &mut analyzer);
    let events: Vec<Event> = analyzer
        .latest
        .iter()
        .flat_map(|seen| &analyzer.log[seen.first..seen.end])
        .copied()
        .collect();
    // The dimensions the kernel queries ids for: all three if a query's
    // dimension is not a constant.
    let dims = analyzer.latest.iter().fold(0, |acc, seen| acc | seen.dims);
    let active = if dims & (1 << 3) != 0 {
        [true; 3]
    } else {
        [0, 1, 2].map(|d| dims & (1 << d) != 0)
    };
    let tainted = analyzer.tainted;

    let pos = |pc: usize| -> (usize, usize) {
        kernel
            .spans
            .get(pc)
            .map(|s| s.line_col(source))
            .unwrap_or((1, 1))
    };
    let mut seen: HashSet<String> = HashSet::new();
    let mut emit = |diags: &mut Diagnostics, sev: Severity, pc: usize, msg: String| {
        let (line, col) = pos(pc);
        let d = Diagnostic::at_position(Stage::Analysis, sev, line, col, msg);
        if seen.insert(d.render()) {
            diags.push(d);
        }
    };

    // --- Check 1: barrier divergence. -----------------------------------
    for site in &kernel.barrier_sites {
        let b = cfg.block_of[site.pc as usize];
        if entries[b].is_none() {
            continue;
        }
        if tainted.contains(b) {
            diags.push(Diagnostic::at_position(
                Stage::Analysis,
                Severity::Error,
                site.line as usize,
                site.col as usize,
                "barrier divergence: this barrier is inside work-item-dependent control \
                 flow, so the work-items of a group may not all reach it"
                    .to_string(),
            ));
        }
    }

    // --- Check 2: local-memory races. ------------------------------------
    let reachable = cfg.reachable();
    let local_events: Vec<Event> = events
        .iter()
        .filter(|e| matches!(e.base, PtrBase::LocalArray(_) | PtrBase::LocalDyn(_)))
        .copied()
        .collect();
    // anc[b] = blocks that reach b without crossing a barrier. Two accesses
    // can be concurrent iff some common block reaches both barrier-free
    // (they lie in one barrier interval). Only local stores ask.
    let mut anc: Vec<BlockSet> = Vec::new();
    if local_events.iter().any(|e| e.write) {
        anc = (0..m).map(|_| BlockSet::empty(m)).collect();
        for (p, rp) in cfg.barrier_free_reach(&kernel.code).iter().enumerate() {
            if !reachable.contains(p) {
                continue;
            }
            for (b, a) in anc.iter_mut().enumerate() {
                if rp.contains(b) {
                    a.insert(p);
                }
            }
        }
    }
    let connected = |x: usize, y: usize| {
        let mut i = anc[x].clone();
        i.intersect(&anc[y]);
        !i.is_empty()
    };
    let base_name = |base: PtrBase| -> Option<String> {
        match base {
            PtrBase::LocalArray(off) => kernel
                .local_arrays
                .iter()
                .find(|a| a.byte_offset == off)
                .map(|a| a.name.clone()),
            PtrBase::LocalDyn(slot) => decl.params.get(slot as usize).map(|p| p.name.to_string()),
            _ => None,
        }
    };
    let base_dims = |base: PtrBase| -> Option<&[u64]> {
        match base {
            PtrBase::LocalArray(off) => kernel
                .local_arrays
                .iter()
                .find(|a| a.byte_offset == off)
                .map(|a| a.dims.as_slice()),
            _ => None,
        }
    };
    for w in local_events.iter().filter(|e| e.write) {
        let name = base_name(w.base).unwrap_or_else(|| "<local>".to_string());
        if w.form.tainted {
            emit(
                &mut diags,
                Severity::Error,
                w.pc,
                format!(
                    "data race on `{name}`: store uses an unpredictable \
                     work-item-dependent index"
                ),
            );
            continue;
        }
        if w.form.is_uniform() {
            if w.value_item_dep {
                emit(
                    &mut diags,
                    Severity::Error,
                    w.pc,
                    format!(
                        "data race on `{name}`: work-items store different values \
                         to the same element"
                    ),
                );
            } else if w.ctrl_tainted
                && local_events
                    .iter()
                    .any(|x| x.pc != w.pc && x.base == w.base && connected(x.block, w.block))
            {
                emit(
                    &mut diags,
                    Severity::Error,
                    w.pc,
                    format!(
                        "data race on `{name}`: divergent store may conflict with \
                         other work-items' accesses without an intervening barrier"
                    ),
                );
            }
            continue;
        }
        // Structured work-item-dependent index.
        if !is_private(&w.form, &active, base_dims(w.base)) {
            emit(
                &mut diags,
                Severity::Error,
                w.pc,
                format!("data race on `{name}`: distinct work-items may store to the same element"),
            );
            continue;
        }
        if local_events.iter().any(|x| {
            x.pc != w.pc && x.base == w.base && x.form != w.form && connected(x.block, w.block)
        }) {
            emit(
                &mut diags,
                Severity::Error,
                w.pc,
                format!(
                    "data race on `{name}`: accessed with different work-item index \
                     patterns without an intervening barrier"
                ),
            );
        }
    }

    // --- Check 3: bounds on statically-sized local arrays. ----------------
    for e in &local_events {
        let PtrBase::LocalArray(off) = e.base else {
            continue;
        };
        let Some(info) = kernel.local_arrays.iter().find(|a| a.byte_offset == off) else {
            continue;
        };
        let extent = info.extent_elems() as i64;
        let (lo, hi) = (e.range.lo, e.range.hi);
        if lo >= extent || hi < 0 {
            emit(
                &mut diags,
                Severity::Error,
                e.pc,
                format!(
                    "index of `{}` is always out of bounds ({} element{})",
                    info.name,
                    extent,
                    if extent == 1 { "" } else { "s" }
                ),
            );
        } else if (hi >= extent && hi < HUGE) || (lo < 0 && lo > -HUGE) {
            emit(
                &mut diags,
                Severity::Warning,
                e.pc,
                format!(
                    "index of `{}` may be out of bounds ({} element{})",
                    info.name,
                    extent,
                    if extent == 1 { "" } else { "s" }
                ),
            );
        }
    }

    // --- Check 4: use-before-init of private scalars (AST level, since
    // sema's deterministic zero-init hides this in the bytecode). ----------
    check_uninit(decl, source, &mut diags);

    // --- Features. --------------------------------------------------------
    let mut flops = 0u64;
    let mut bytes = 0u64;
    for ins in &kernel.code {
        match *ins {
            Instr::Bin(_, t) | Instr::Neg(t) | Instr::CallMath1(_, t) | Instr::CallMath2(_, t)
                if t.is_float() =>
            {
                flops += 1;
            }
            Instr::LoadMem(t) | Instr::StoreMem(t) => bytes += t.size_bytes() as u64,
            _ => {}
        }
    }
    let reach_count = (0..m).filter(|&b| reachable.contains(b)).count().max(1);
    let div_count = (0..m)
        .filter(|&b| tainted.contains(b) && reachable.contains(b))
        .count();
    let features = KernelFeatures {
        local_bytes: kernel.static_local_bytes,
        barrier_count: kernel.barrier_sites.len() as u32,
        arithmetic_intensity: flops as f64 / bytes.max(1) as f64,
        divergence_score: div_count as f64 / reach_count as f64,
    };

    let effects = summarize_effects(kernel, &events, &active);

    KernelReport {
        diagnostics: diags,
        features,
        effects,
    }
}

// ---------------------------------------------------------------------------
// Effect summaries (inter-kernel; see `analysis::effects`).
// ---------------------------------------------------------------------------

/// Folds the solved global-memory events into per-argument effect
/// summaries. Over-approximates: an access through a pointer whose base
/// the dataflow lost (`PtrBase::Unknown`) is charged to *every* global
/// pointer argument with an unprovable pattern and unbounded interval.
fn summarize_effects(
    kernel: &CompiledKernel,
    events: &[Event],
    active: &[bool; 3],
) -> EffectSummary {
    let mut args: Vec<ArgEffect> = kernel
        .params
        .iter()
        .map(|p| {
            let mut a = ArgEffect::untouched();
            match p {
                ParamType::Scalar(_) | ParamType::Pointer(AddressSpace::Local, _) => {}
                ParamType::Pointer(_, t) => a.elem_bytes = t.size_bytes() as u32,
            }
            a
        })
        .collect();
    for e in events {
        match e.base {
            PtrBase::Global(slot) => {
                if let Some(a) = args.get_mut(slot as usize) {
                    fold_event(a, e.write, &e.form, e.range, active);
                }
            }
            PtrBase::LocalArray(_) | PtrBase::LocalDyn(_) => {}
            // Base lost: the access may land in any global buffer.
            _ => {
                for a in args.iter_mut().filter(|a| a.elem_bytes != 0) {
                    fold_event(a, e.write, &Form::top(), Iv::TOP, active);
                }
            }
        }
    }
    EffectSummary {
        args,
        barriers: kernel.barrier_sites.len() as u32,
    }
}

/// Folds one access into an argument's effect.
fn fold_event(a: &mut ArgEffect, write: bool, form: &Form, range: Iv, active: &[bool; 3]) {
    let first = a.mode == AccessMode::None;
    a.mode = a.mode.observe(write);
    let bounds = (range.lo > -HUGE && range.hi < HUGE).then_some((range.lo, range.hi));
    a.elem_bounds = if first {
        bounds
    } else {
        match (a.elem_bounds, bounds) {
            (Some((lo, hi)), Some((l2, h2))) => Some((lo.min(l2), hi.max(h2))),
            _ => None,
        }
    };
    let base = if form.tainted {
        PatternBase::Opaque
    } else {
        match form.uoff {
            Uoff::Known(k) => PatternBase::Const(k),
            Uoff::Sym { id, add } if (GEOM_SYM..LOAD_SYM).contains(&id) => PatternBase::Geom {
                id: id - GEOM_SYM,
                add,
            },
            _ => PatternBase::Opaque,
        }
    };
    // Globally item-private means injective over the *whole* NDRange, not
    // just within a group (contrast `is_private`, which serves the
    // per-group `__local` checks): a unit coefficient on exactly one
    // local-id dimension, rebased by that same dimension's group base —
    // i.e. the index is `gid(d) + const` — with no other dimension active.
    let provable = !form.tainted && {
        let nz: Vec<usize> = (0..3).filter(|&d| form.coeffs[d] != 0).collect();
        nz.len() == 1
            && form.coeffs[nz[0]] == 1
            && matches!(base, PatternBase::Geom { id, .. } if id as usize == nz[0])
            && active.iter().enumerate().all(|(e, &x)| !x || e == nz[0])
    };
    let pat = AccessPattern {
        write,
        coeffs: if form.tainted { [0; 3] } else { form.coeffs },
        base,
        provable,
    };
    if !a.patterns.contains(&pat) {
        if a.patterns.len() >= MAX_PATTERNS {
            a.complete = false;
        } else {
            a.patterns.push(pat);
        }
    }
}

// ---------------------------------------------------------------------------
// Use-before-init (AST walk).
// ---------------------------------------------------------------------------

/// The use-before-init walk: one stack of the private scalars in scope,
/// innermost last, each with whether it is definitely assigned. A scope
/// is a mark into the stack; a branch or loop saves the `assigned` bits
/// it may not keep on `saved` and puts them back afterwards.
struct UninitCx<'a> {
    source: &'a str,
    vars: Vec<(&'a str, bool)>,
    saved: Vec<bool>,
    warned: Vec<&'a str>,
    diags: Vec<Diagnostic>,
}

fn check_uninit(decl: &KernelDecl, source: &str, out: &mut Diagnostics) {
    let mut cx = UninitCx {
        source,
        vars: Vec::new(),
        saved: Vec::new(),
        warned: Vec::new(),
        diags: Vec::new(),
    };
    cx.walk_block(&decl.body);
    out.extend(cx.diags);
}

impl<'a> UninitCx<'a> {
    fn read_var(&mut self, name: &'a str, span: crate::diag::Span) {
        let Some(&(_, assigned)) = self.vars.iter().rev().find(|(n, _)| *n == name) else {
            return;
        };
        if !assigned && !self.warned.contains(&name) {
            self.warned.push(name);
            self.diags.push(Diagnostic::at(
                Stage::Analysis,
                Severity::Warning,
                span,
                self.source,
                format!("`{name}` may be read before it is assigned"),
            ));
        }
    }

    fn assign_var(&mut self, name: &str) {
        if let Some(v) = self.vars.iter_mut().rev().find(|(n, _)| *n == name) {
            v.1 = true;
        }
    }

    /// Pushes the current `assigned` bits onto `saved`; returns where they
    /// start.
    fn save(&mut self) -> usize {
        let at = self.saved.len();
        self.saved.extend(self.vars.iter().map(|v| v.1));
        at
    }

    /// Puts back the bits `save` returned `at` for, and drops them.
    fn restore(&mut self, at: usize) {
        for (v, &bit) in self.vars.iter_mut().zip(&self.saved[at..]) {
            v.1 = bit;
        }
        self.saved.truncate(at);
    }

    fn walk_block(&mut self, b: &'a AstBlock) {
        let mark = self.vars.len();
        for s in &b.stmts {
            self.walk_stmt(s);
        }
        self.vars.truncate(mark);
    }

    fn walk_stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::Decl(d) => {
                if let Some(init) = &d.init {
                    self.walk_expr(init);
                }
                if d.array_dims.is_empty() && d.space == AddressSpace::Private {
                    self.vars.push((d.name, d.init.is_some()));
                }
            }
            Stmt::Expr(e) => self.walk_expr(e),
            Stmt::Block(b) => self.walk_block(b),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.walk_expr(cond);
                let before = self.save();
                self.walk_block(then);
                match otherwise {
                    Some(other) => {
                        let after_then = self.save();
                        for (v, &bit) in self.vars.iter_mut().zip(&self.saved[before..]) {
                            v.1 = bit;
                        }
                        self.walk_block(other);
                        // Assigned after the if ⇔ assigned before, or in
                        // both arms.
                        for (i, v) in self.vars.iter_mut().enumerate() {
                            v.1 = self.saved[before + i] || (self.saved[after_then + i] && v.1);
                        }
                        self.saved.truncate(before);
                    }
                    // No else: the state after is the state before.
                    None => self.restore(before),
                }
            }
            Stmt::While { cond, body } => {
                self.walk_expr(cond);
                // The body may run zero times: check its reads, discard its
                // assignments.
                let before = self.save();
                self.walk_block(body);
                self.restore(before);
            }
            Stmt::DoWhile { body, cond } => {
                // The body always runs at least once.
                self.walk_block(body);
                self.walk_expr(cond);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let mark = self.vars.len();
                if let Some(init) = init {
                    self.walk_stmt(init);
                }
                if let Some(cond) = cond {
                    self.walk_expr(cond);
                }
                let before = self.save();
                self.walk_block(body);
                if let Some(step) = step {
                    self.walk_expr(step);
                }
                self.restore(before);
                self.vars.truncate(mark);
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Return(_) | Stmt::Barrier(_) => {}
        }
    }

    fn walk_expr(&mut self, e: &'a Expr) {
        match e {
            Expr::IntLit { .. } | Expr::FloatLit { .. } => {}
            Expr::Var { name, span } => self.read_var(name, *span),
            Expr::Index { base, index, .. } => {
                self.walk_expr(base);
                self.walk_expr(index);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            Expr::Unary { operand, .. } => self.walk_expr(operand),
            Expr::Ternary {
                cond,
                then,
                otherwise,
                ..
            } => {
                self.walk_expr(cond);
                self.walk_expr(then);
                self.walk_expr(otherwise);
            }
            Expr::Cast { operand, .. } => self.walk_expr(operand),
            Expr::Assign {
                op, target, value, ..
            } => {
                self.walk_expr(value);
                match target.as_ref() {
                    Expr::Var { name, span } => {
                        if op.is_some() {
                            // Compound assignment reads the target first.
                            self.read_var(name, *span);
                        }
                        self.assign_var(name);
                    }
                    other => self.walk_expr(other),
                }
            }
            Expr::IncDec { target, .. } => match target.as_ref() {
                Expr::Var { name, span } => {
                    self.read_var(name, *span);
                    self.assign_var(name);
                }
                other => self.walk_expr(other),
            },
            Expr::Call { args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_src(src: &str) -> KernelReport {
        let toks = crate::lexer::lex(src).unwrap();
        let unit = crate::parser::parse(&toks, src).unwrap();
        let program = crate::sema::lower(&unit, src).unwrap();
        let k = program.kernels().next().unwrap();
        analyze(&unit.kernels[0], k, src)
    }

    fn errors(r: &KernelReport) -> Vec<String> {
        r.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .map(|d| d.message().to_string())
            .collect()
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                int g = get_global_id(0);
                if (g > 2) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[g] = g;
            }",
        );
        let errs = errors(&r);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("barrier divergence"));
        assert!(r.features.divergence_score > 0.0);
    }

    #[test]
    fn uniform_barrier_is_clean() {
        let r = analyze_src(
            "__kernel void f(__global int* a, int n) {
                __local int s[64];
                int l = get_local_id(0);
                for (int i = 0; i < n; i++) {
                    s[l] = a[l];
                    barrier(CLK_LOCAL_MEM_FENCE);
                    a[l] = s[63 - l];
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
            }",
        );
        assert!(errors(&r).is_empty(), "{:?}", r.diagnostics.render());
        assert_eq!(r.features.barrier_count, 2);
        assert_eq!(r.features.local_bytes, 64 * 4);
    }

    #[test]
    fn uniform_write_of_item_dependent_value_is_a_race() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                __local int s[4];
                int l = get_local_id(0);
                s[0] = l;
                a[l] = s[0];
            }",
        );
        let errs = errors(&r);
        assert!(
            errs.iter().any(|e| e.contains("different values")),
            "{errs:?}"
        );
    }

    #[test]
    fn missing_barrier_between_mismatched_accesses_is_a_race() {
        let r = analyze_src(
            "__kernel void f(__global int* a, int n) {
                __local int s[64];
                int l = get_local_id(0);
                s[l] = a[l];
                a[l] = s[63 - l];
            }",
        );
        let errs = errors(&r);
        assert!(
            errs.iter()
                .any(|e| e.contains("different work-item index patterns")),
            "{errs:?}"
        );
    }

    #[test]
    fn barrier_separated_accesses_are_clean() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                __local int s[64];
                int l = get_local_id(0);
                s[l] = a[l];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[l] = s[63 - l];
            }",
        );
        assert!(errors(&r).is_empty(), "{:?}", r.diagnostics.render());
    }

    #[test]
    fn divergent_sibling_writes_to_same_element_race() {
        let r = analyze_src(
            "__kernel void f(__global int* a, int x, int y) {
                __local int s[4];
                int l = get_local_id(0);
                if (l == 0) { s[0] = x; } else { s[0] = y; }
                a[l] = s[0];
            }",
        );
        assert!(!errors(&r).is_empty(), "{:?}", r.diagnostics.render());
    }

    #[test]
    fn constant_index_out_of_bounds_is_an_error() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                __local int s[8];
                s[8] = 1;
                a[0] = s[0];
            }",
        );
        let errs = errors(&r);
        assert!(
            errs.iter().any(|e| e.contains("always out of bounds")),
            "{errs:?}"
        );
    }

    #[test]
    fn masked_index_that_may_exceed_extent_warns() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                __local int s[8];
                int g = get_global_id(0);
                s[g & 15] = 1;
                barrier(CLK_LOCAL_MEM_FENCE);
                a[g] = s[g & 7];
            }",
        );
        // `g & 15` may collide across items too, but the bounds warning must
        // be present regardless.
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.severity() == Severity::Warning
                    && d.message().contains("may be out of bounds")),
            "{:?}",
            r.diagnostics.render()
        );
    }

    #[test]
    fn use_before_init_warns_once() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                int x;
                a[0] = x + x;
                x = 1;
                a[1] = x;
            }",
        );
        let warns: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.message().contains("before it is assigned"))
            .collect();
        assert_eq!(warns.len(), 1, "{:?}", r.diagnostics.render());
    }

    #[test]
    fn branch_assignment_on_both_arms_counts() {
        let r = analyze_src(
            "__kernel void f(__global int* a, int c) {
                int x;
                if (c) { x = 1; } else { x = 2; }
                a[0] = x;
            }",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics.render());
    }

    #[test]
    fn one_armed_branch_assignment_still_warns() {
        let r = analyze_src(
            "__kernel void f(__global int* a, int c) {
                int x;
                if (c) { x = 1; }
                a[0] = x;
            }",
        );
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.message().contains("before it is assigned")),
            "{:?}",
            r.diagnostics.render()
        );
    }

    #[test]
    fn streaming_kernel_has_arithmetic_intensity() {
        let r = analyze_src(
            "__kernel void f(__global float* a, __global float* b, float s) {
                int g = get_global_id(0);
                b[g] = a[g] * s + 1.0f;
            }",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics.render());
        assert!(r.features.arithmetic_intensity > 0.0);
        assert_eq!(r.features.barrier_count, 0);
        assert_eq!(r.features.divergence_score, 0.0);
    }

    #[test]
    fn tiled_2d_transpose_pattern_is_clean() {
        let r = analyze_src(
            "__kernel void f(__global float* in, __global float* out, int n) {
                __local float tile[4][4];
                int lx = get_local_id(0);
                int ly = get_local_id(1);
                int gx = get_global_id(0);
                int gy = get_global_id(1);
                tile[ly][lx] = in[gy * n + gx];
                barrier(CLK_LOCAL_MEM_FENCE);
                out[gx * n + gy] = tile[lx][ly];
            }",
        );
        assert!(errors(&r).is_empty(), "{:?}", r.diagnostics.render());
    }

    #[test]
    fn tainted_trip_count_loop_barrier_diverges() {
        let r = analyze_src(
            "__kernel void f(__global int* a) {
                int g = get_global_id(0);
                for (int i = 0; i < g; i++) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                a[g] = g;
            }",
        );
        assert!(
            errors(&r).iter().any(|e| e.contains("barrier divergence")),
            "{:?}",
            r.diagnostics.render()
        );
    }

    // --- Effect summaries. ------------------------------------------------

    #[test]
    fn elementwise_kernel_summary_is_provable() {
        let r = analyze_src(
            "__kernel void saxpy(__global float* y, __global float* x, float a, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = a * x[i] + y[i]; }
            }",
        );
        let e = &r.effects;
        assert_eq!(e.args.len(), 4);
        assert_eq!(e.barriers, 0);
        let y = &e.args[0];
        assert_eq!(y.mode, AccessMode::ReadWrite);
        assert_eq!(y.elem_bytes, 4);
        assert!(y.complete);
        assert!(!y.patterns.is_empty());
        assert!(
            y.patterns.iter().all(|p| p.provable
                && p.coeffs == [1, 0, 0]
                && p.base == PatternBase::Geom { id: 0, add: 0 }),
            "{y}"
        );
        assert!(y.patterns.iter().any(|p| p.write));
        assert!(y.patterns.iter().any(|p| !p.write));
        let x = &e.args[1];
        assert_eq!(x.mode, AccessMode::Read);
        assert!(x.patterns.iter().all(|p| p.provable && !p.write), "{x}");
        assert_eq!(e.args[2].mode, AccessMode::None);
        assert_eq!(e.args[3].mode, AccessMode::None);
    }

    #[test]
    fn scatter_through_loaded_index_is_unprovable() {
        let r = analyze_src(
            "__kernel void scatter(__global int* out, __global int* idx) {
                int i = get_global_id(0);
                out[idx[i]] = i;
            }",
        );
        let out = &r.effects.args[0];
        assert_eq!(out.mode, AccessMode::Write);
        assert!(out.patterns.iter().all(|p| !p.provable), "{out}");
        assert_eq!(out.elem_bounds, None);
    }

    #[test]
    fn shifted_access_keeps_the_addend() {
        let r = analyze_src(
            "__kernel void diff(__global int* out, __global int* in) {
                int i = get_global_id(0);
                out[i] = in[i + 1] - in[i];
            }",
        );
        let inp = &r.effects.args[1];
        assert!(inp
            .patterns
            .iter()
            .any(|p| p.base == PatternBase::Geom { id: 0, add: 1 } && p.provable));
        assert!(inp
            .patterns
            .iter()
            .any(|p| p.base == PatternBase::Geom { id: 0, add: 0 } && p.provable));
    }

    #[test]
    fn local_id_indexed_global_write_is_not_globally_private() {
        // `out[lid]` collides across groups even though it is private
        // within one — the global-privacy rule must reject it.
        let r = analyze_src(
            "__kernel void f(__global int* out) {
                out[get_local_id(0)] = 1;
            }",
        );
        let out = &r.effects.args[0];
        assert_eq!(out.mode, AccessMode::Write);
        assert!(out.patterns.iter().all(|p| !p.provable), "{out}");
    }

    #[test]
    fn symbolic_stride_write_is_unprovable() {
        let r = analyze_src(
            "__kernel void rowfill(__global float* c, int n) {
                int i = get_global_id(0);
                c[i * n] = 0.0f;
            }",
        );
        let c = &r.effects.args[0];
        assert!(c.patterns.iter().all(|p| !p.provable), "{c}");
    }

    #[test]
    fn analyzed_elementwise_chain_proves_fusable_end_to_end() {
        use crate::analysis::fusion::{prove_fusable, FusionCandidate, FusionShape};
        let scale = analyze_src(
            "__kernel void scale(__global float* y, float a, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = y[i] * a; }
            }",
        );
        let shift = analyze_src(
            "__kernel void shift(__global float* y, float b, int n) {
                int i = get_global_id(0);
                if (i < n) { y[i] = y[i] + b; }
            }",
        );
        let shape = FusionShape {
            work_dim: 1,
            global: [256, 1, 1],
            local: [32, 1, 1],
        };
        let bufs = [Some(1u64), None, None];
        let a = FusionCandidate {
            name: "scale",
            effects: Some(&scale.effects),
            shape,
            buffers: &bufs,
        };
        let b = FusionCandidate {
            name: "shift",
            effects: Some(&shift.effects),
            shape,
            buffers: &bufs,
        };
        assert_eq!(prove_fusable(&a, &b), Ok(()));
    }
}
