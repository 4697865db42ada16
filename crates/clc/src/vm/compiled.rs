//! The compiled execution engine.
//!
//! Lowers a kernel's bytecode **once** into a flat sequence of typed
//! register ops. Within each basic block the operand stack is
//! abstract-interpreted at lowering time, rebuilding the expression
//! trees the front end originally flattened — and *typing* them: every
//! slot gets one scalar-or-pointer type (parameters from the kernel
//! signature, locals from the values stored to them) and every tree node
//! the type its instruction names. Each effectful instruction (store,
//! branch, barrier, return) then emits its whole operand tree as ops from
//! [`super::regops`], each one a function monomorphised on those types
//! and reading and writing an untagged 8-byte register file — no runtime
//! operand stack, no [`Value`], no type dispatch. Values that cross a
//! block seam are spilled to canonical temporary registers, one per
//! (stack depth, type), so control-flow joins (short-circuit booleans,
//! conditional expressions) still see one well-defined location.
//! Lowered code is memoised on the kernel it was lowered from, so
//! repeated launches of one kernel object pay lowering once.
//!
//! The typing pass is a checker, not an inference engine: it accepts
//! exactly the operand types `sema`'s explicit casts produce. Anything
//! else — a slot stored at two types, an operand whose type is not the
//! instruction's, a `bool` test of a non-`bool`, a stack whose depth or
//! types differ between two edges into one seam, an underflow — sets
//! [`CompiledCode::fallback`] and the launch runs on the interpreter.
//! (Definite assignment is `sema`'s invariant — every declaration stores
//! — and is not re-proved: a local reads as zero bits of its type before
//! its first store, which for hand-built bytecode that reads a non-`int`
//! slot first differs from the interpreter's initial `I32(0)` tag.)
//!
//! Observational equivalence with the reference interpreter is a hard
//! requirement (the differential proptests assert byte-identical
//! buffers, identical [`ExecStats`] and identical errors):
//!
//! * every op computes what the [`super::ops`] helper computes for its
//!   types, builds its errors through those helpers, and trees emit
//!   their operands in original push order;
//! * each statement's last op retires the contiguous range of `covers`
//!   original instructions, so instruction counts match exactly on every
//!   path that completes (a failed launch reports no counts);
//! * deferral never reorders observable failures: before any op that
//!   can fail executes, pending trees containing fallible work are
//!   spilled in push order, pending memory reads are spilled before
//!   any memory write, and pending reads of a slot are spilled before
//!   that slot is overwritten;
//! * control flow only ever enters at block seams, where a pc → op
//!   index table gives the exact entry point, and a suspended item
//!   records a bytecode pc so barrier-divergence diagnostics are
//!   identical;
//! * items run under the same pass-based round-robin group schedule
//!   ([`interp::barrier_stall_check`]).
//!
//! State by lifetime: per *launch*, [`Launch`] resolves the bound
//! arguments into initial register contents and the root table — each
//! buffer with the class that says what a chunk may do to it, when the
//! lockstep gate lets the launch form chunks at all — and a
//! [`GroupScratch`] then holds those registers broadcast into a
//! `[register][lane]` file, and who touched what no class vouches for;
//! per *group*, one [`Ctx`] and one copy of the launch's registers; per
//! *item* — per chunk of `LANES` items, cut from a row or, rows being
//! narrower, from the linear order of the group or of the small groups
//! that fill it — the ids are written, the locals zeroed and what the
//! chunk before touched forgotten.

use std::fmt;
use std::sync::OnceLock;

use crate::analysis::cfg::Cfg;
use crate::ast::ParamType;
use crate::bytecode::{BinKind, CmpKind, CompiledKernel, Geom, Instr, Math1, Math2};
use crate::types::ScalarType;

use super::interp::{barrier_stall_check, Item, ItemStatus};
use super::lockstep::{self, Abort, LaneCounts, Shadow, Waive};
use super::ops::int_value;
use super::regops::{
    self, Class, CmpClass, Ctx, Halt, Op, OpFn, OpFns, Root, SplitCause, Step, LANES,
};
use super::*;

/// A kernel lowered to typed register ops.
#[derive(Default)]
pub(super) struct CompiledCode {
    /// Dense op sequence (several ops can share one bytecode position).
    ops: Vec<Op>,
    /// The lockstep instantiation of each op's body, parallel to `ops`.
    lanes: Vec<OpFn>,
    /// Each load's and store's bodies for a chunk that checks who touches
    /// what ([`regops::OpFns::owned`]), parallel to `ops`.
    owned: Vec<Option<[OpFn; 2]>>,
    /// For every bytecode pc that control can enter (block seams,
    /// barrier resume points), the op index to start at.
    ip_at: Vec<u32>,
    /// Initial register contents: constants and root ids in place,
    /// everything else zero. Its length is the register count.
    template: Vec<u64>,
    /// Registers `[0, n_params)` hold the parameters, `[n_params,
    /// n_slots)` the declared locals, `[n_slots, n_slots + GEOM_REGS)`
    /// the launch geometry.
    n_params: u32,
    n_slots: u32,
    /// Parameter registers (and pointer root registers) some op writes:
    /// restored from the launch's values before each item.
    mutated: Vec<u32>,
    /// Whether the bytecode contains any `Barrier`. Barrier-free
    /// kernels run items one at a time in one register file instead of
    /// materializing the whole group.
    has_barrier: bool,
    /// The typing pass refused the bytecode; execute via the
    /// interpreter instead. Never taken for sema-produced bytecode.
    fallback: bool,
    /// Per conditional jump, by its pc, the pc where its two ways meet
    /// again ([`join_pcs`]): built by the first chunk whose lanes part.
    joins: OnceLock<Vec<u32>>,
    /// The registers that can differ from lane to lane ([`Self::vary`]):
    /// built by the first chunk to park lanes.
    vary: OnceLock<Vec<u32>>,
}

/// Geometry registers: seven [`Geom`] queries × three dimensions
/// (`WorkDim` repeats its value), indexed `geom as u32 * 3 + dim`.
const GEOM_REGS: u32 = 21;

/// "No root register": the `root` of a scalar.
const NO_ROOT: u32 = u32::MAX;

/// The op index at which no run of ops stops short.
const NEVER: usize = usize::MAX;

// --- typed expression trees --------------------------------------------------

/// The static type of a slot or tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Scalar(ScalarType),
    /// A pointer into any address space; the root register says which.
    Ptr,
}

/// Index into [`Lowerer::nodes`].
type NodeId = u32;

/// One node of a reconstructed expression tree. Exists at lowering time
/// only: statements emit their trees as ops and the nodes are dropped.
#[derive(Clone, Copy)]
enum Node {
    /// A value already in a register: a slot, a spill temporary, a
    /// constant or a geometry id. `root` is the register holding a
    /// pointer's root id.
    Reg {
        reg: u32,
        root: u32,
    },
    Bin(BinKind, ScalarType, NodeId, NodeId),
    Cmp(CmpKind, CmpClass, NodeId, NodeId),
    Neg(ScalarType, NodeId),
    BitNot(ScalarType, NodeId),
    NotBool(NodeId),
    /// `(from, to, operand)`
    Cast(ScalarType, ScalarType, NodeId),
    Math1(Math1, ScalarType, NodeId),
    Math2(Math2, ScalarType, NodeId, NodeId),
    /// `checked`: the index is a `ulong` and must fit `i64`.
    PtrAdd {
        ptr: NodeId,
        idx: NodeId,
        checked: bool,
    },
    Load(ScalarType, NodeId),
    /// A geometry query whose dimension is not a constant.
    Query {
        geom: Geom,
        dim: NodeId,
        checked: bool,
    },
}

/// A canonical spill register for one (stack depth, type).
struct Temp {
    depth: u32,
    ty: Ty,
    reg: u32,
    root: u32,
}

// --- lowering --------------------------------------------------------------

struct Lowerer<'c> {
    code: &'c [Instr],
    ops: Vec<Op>,
    lanes: Vec<OpFn>,
    owned: Vec<Option<[OpFn; 2]>>,
    /// Control ops whose `c` still holds a bytecode pc.
    jumps: Vec<usize>,
    nodes: Vec<Node>,
    /// Type of each node, parallel to `nodes`.
    tys: Vec<Ty>,
    ip_at: Vec<u32>,
    /// Abstract-stack types at each block seam, recorded the first time
    /// the seam is seen and verified on every other edge.
    entry: Vec<Option<Box<[Ty]>>>,
    /// The abstract operand stack: ids of pending (deferred) trees.
    pend: Vec<NodeId>,
    /// First bytecode pc not yet retired by an emitted op.
    retired: usize,
    template: Vec<u64>,
    n_params: u32,
    n_slots: u32,
    /// Type of each slot: parameters from the signature, locals from
    /// their first store (or `int`, the interpreter's initial tag, when
    /// read first).
    slot_ty: Vec<Option<Ty>>,
    /// Root register of each pointer parameter.
    slot_root: Vec<u32>,
    mutated: Vec<u32>,
    /// `(bits, register)` of every pooled constant.
    consts: Vec<(u64, u32)>,
    temps: Vec<Temp>,
    /// Registers for tree intermediates, reused by every statement.
    scratch: Vec<u32>,
    scratch_used: usize,
    /// False while scanning instructions that no control flow reaches
    /// (after an unconditional jump/return, until the next seam).
    live: bool,
    ok: bool,
}

impl Lowerer<'_> {
    fn node(&mut self, n: Node, ty: Ty) -> NodeId {
        self.nodes.push(n);
        self.tys.push(ty);
        (self.nodes.len() - 1) as NodeId
    }

    fn push(&mut self, n: Node, ty: Ty) {
        let id = self.node(n, ty);
        self.pend.push(id);
    }

    /// Pops the abstract stack. Bytecode that underflows it cannot be
    /// typed; the dummy keeps the current instruction's handler going
    /// until the caller sees `ok` cleared.
    fn pop(&mut self) -> NodeId {
        match self.pend.pop() {
            Some(id) => id,
            None => {
                self.ok = false;
                self.node(
                    Node::Reg {
                        reg: 0,
                        root: NO_ROOT,
                    },
                    Ty::Scalar(ScalarType::I32),
                )
            }
        }
    }

    /// Pops an operand that must have scalar type `ty`.
    fn pop_as(&mut self, ty: ScalarType) -> NodeId {
        let id = self.pop();
        self.ok &= self.tys[id as usize] == Ty::Scalar(ty);
        id
    }

    /// Types `id` as an index for `Value::as_index`: any integer or
    /// `bool`, of which only `ulong` can fail (`true`: it needs the
    /// run-time check).
    fn index_is_checked(&mut self, id: NodeId) -> bool {
        match self.tys[id as usize] {
            Ty::Scalar(t) if !t.is_float() => t == ScalarType::U64,
            _ => {
                self.ok = false;
                false
            }
        }
    }

    fn new_reg(&mut self, init: u64) -> u32 {
        self.template.push(init);
        (self.template.len() - 1) as u32
    }

    /// The register holding constant `bits` (pooled by bit pattern,
    /// whatever the type).
    fn constant(&mut self, bits: u64) -> u32 {
        if let Some(&(_, reg)) = self.consts.iter().find(|(b, _)| *b == bits) {
            return reg;
        }
        let reg = self.new_reg(bits);
        self.consts.push((bits, reg));
        reg
    }

    fn push_const(&mut self, v: Value) {
        let (ty, bits) = regops::encode(v).expect("immediates are scalars");
        let reg = self.constant(bits);
        self.push(Node::Reg { reg, root: NO_ROOT }, Ty::Scalar(ty));
    }

    /// The constant a node denotes, if it is one.
    fn const_of(&self, id: NodeId) -> Option<u64> {
        let Node::Reg { reg, .. } = self.nodes[id as usize] else {
            return None;
        };
        self.consts.iter().find(|(_, r)| *r == reg).map(|(b, _)| *b)
    }

    /// The canonical spill location for `ty` at stack depth `depth`,
    /// the same on every path into a seam.
    fn temp(&mut self, depth: u32, ty: Ty) -> (u32, u32) {
        if let Some(t) = self.temps.iter().find(|t| t.depth == depth && t.ty == ty) {
            return (t.reg, t.root);
        }
        let reg = self.new_reg(0);
        let root = if ty == Ty::Ptr {
            self.new_reg(0)
        } else {
            NO_ROOT
        };
        self.temps.push(Temp {
            depth,
            ty,
            reg,
            root,
        });
        (reg, root)
    }

    fn scratch(&mut self) -> u32 {
        if self.scratch_used == self.scratch.len() {
            let reg = self.new_reg(0);
            self.scratch.push(reg);
        }
        self.scratch_used += 1;
        self.scratch[self.scratch_used - 1]
    }

    // Tree properties that bound how long a tree may stay deferred.

    /// Whether evaluating the tree can produce an `ExecError`. Used to
    /// keep deferred work from reordering observable failures.
    fn is_fallible(&self, id: NodeId) -> bool {
        match self.nodes[id as usize] {
            Node::Reg { .. } => false,
            Node::Load(..) => true,
            Node::Bin(k, ty, a, b) => {
                (!ty.is_float() && matches!(k, BinKind::Div | BinKind::Rem))
                    || self.is_fallible(a)
                    || self.is_fallible(b)
            }
            Node::Cmp(_, _, a, b) | Node::Math2(_, _, a, b) => {
                self.is_fallible(a) || self.is_fallible(b)
            }
            Node::Neg(_, a)
            | Node::BitNot(_, a)
            | Node::NotBool(a)
            | Node::Cast(_, _, a)
            | Node::Math1(_, _, a) => self.is_fallible(a),
            Node::PtrAdd { ptr, idx, checked } => {
                checked || self.is_fallible(ptr) || self.is_fallible(idx)
            }
            Node::Query { dim, checked, .. } => checked || self.is_fallible(dim),
        }
    }

    /// Whether the tree reads memory (global or `__local`); such trees
    /// must not be deferred across a memory write.
    fn reads_mem(&self, id: NodeId) -> bool {
        match self.nodes[id as usize] {
            Node::Reg { .. } => false,
            Node::Load(..) => true,
            Node::Neg(_, a)
            | Node::BitNot(_, a)
            | Node::NotBool(a)
            | Node::Cast(_, _, a)
            | Node::Math1(_, _, a)
            | Node::Query { dim: a, .. } => self.reads_mem(a),
            Node::Bin(_, _, a, b)
            | Node::Cmp(_, _, a, b)
            | Node::Math2(_, _, a, b)
            | Node::PtrAdd { ptr: a, idx: b, .. } => self.reads_mem(a) || self.reads_mem(b),
        }
    }

    /// Whether the tree reads slot register `s`; such trees must not be
    /// deferred across a store to `s`.
    fn reads_slot(&self, id: NodeId, s: u32) -> bool {
        match self.nodes[id as usize] {
            Node::Reg { reg, .. } => reg == s,
            Node::Neg(_, a)
            | Node::BitNot(_, a)
            | Node::NotBool(a)
            | Node::Cast(_, _, a)
            | Node::Math1(_, _, a)
            | Node::Load(_, a)
            | Node::Query { dim: a, .. } => self.reads_slot(a, s),
            Node::Bin(_, _, a, b)
            | Node::Cmp(_, _, a, b)
            | Node::Math2(_, _, a, b)
            | Node::PtrAdd { ptr: a, idx: b, .. } => self.reads_slot(a, s) || self.reads_slot(b, s),
        }
    }

    // Emission: a tree becomes ops in operand push order.

    fn op(&mut self, run: OpFns, dst: u32, a: u32, b: u32, c: u32, d: u32) {
        self.lanes.push(run.lanes);
        self.owned.push(run.owned);
        self.ops.push(Op {
            run: run.item,
            dst,
            a,
            b,
            c,
            d,
            covers: 0,
        });
    }

    /// The register holding the root id of pointer tree `id`.
    fn root_of(&self, id: NodeId) -> u32 {
        match self.nodes[id as usize] {
            Node::Reg { root, .. } => root,
            Node::PtrAdd { ptr, .. } => self.root_of(ptr),
            _ => NO_ROOT,
        }
    }

    /// Emits the ops computing tree `id` and returns the register its
    /// value lands in: `dst` when given (a slot or spill temporary the
    /// statement assigns), else wherever is cheapest.
    fn gen(&mut self, id: NodeId, dst: Option<u32>) -> u32 {
        let unary = |lw: &mut Self, run: OpFns, a: NodeId| {
            let ra = lw.gen(a, None);
            let out = dst.unwrap_or_else(|| lw.scratch());
            lw.op(run, out, ra, 0, 0, 0);
            out
        };
        let binary = |lw: &mut Self, run: OpFns, a: NodeId, b: NodeId| {
            let ra = lw.gen(a, None);
            let rb = lw.gen(b, None);
            let out = dst.unwrap_or_else(|| lw.scratch());
            lw.op(run, out, ra, rb, 0, 0);
            out
        };
        match self.nodes[id as usize] {
            Node::Reg { reg, .. } => match dst {
                Some(d) if d != reg => {
                    self.op(regops::MOV, d, reg, 0, 0, 0);
                    d
                }
                _ => reg,
            },
            Node::Bin(k, ty, a, b) => {
                // An integer `x * y + z` or `z + x * y` at one type (the
                // row-major index shape) folds into one op. Its operands
                // still emit in push order, so the first observable
                // failure stays where it was.
                let product = |lw: &Self, n: NodeId| match lw.nodes[n as usize] {
                    Node::Bin(BinKind::Mul, t, x, y) if t == ty => Some((x, y)),
                    _ => None,
                };
                let fused = match (k, regops::int_mul_add_fn(ty)) {
                    (BinKind::Add, Some(run)) => product(self, a)
                        .map(|(x, y)| (run, [x, y, b], [0, 1, 2]))
                        .or_else(|| product(self, b).map(|(x, y)| (run, [a, x, y], [1, 2, 0]))),
                    _ => None,
                };
                match fused {
                    Some((run, order, [x, y, z])) => {
                        let r = order.map(|n| self.gen(n, None));
                        let out = dst.unwrap_or_else(|| self.scratch());
                        self.op(run, out, r[x], r[y], r[z], 0);
                        out
                    }
                    None => {
                        let run = regops::bin_fn(k, ty).expect("typed at push");
                        binary(self, run, a, b)
                    }
                }
            }
            Node::Cmp(k, class, a, b) => binary(self, regops::cmp_fn(k, class), a, b),
            Node::Neg(ty, a) => unary(self, regops::neg_fn(ty), a),
            Node::BitNot(ty, a) => unary(self, regops::bit_not_fn(ty), a),
            Node::NotBool(a) => unary(self, regops::NOT_BOOL, a),
            Node::Cast(from, to, a) => unary(self, regops::cast_fn(from, to), a),
            Node::Math1(m, ty, a) => unary(self, regops::math1_fn(m, ty), a),
            Node::Math2(m, ty, a, b) => {
                let run = regops::math2_fn(m, ty).expect("typed at push");
                binary(self, run, a, b)
            }
            Node::PtrAdd { ptr, idx, checked } => {
                let run = if checked {
                    regops::PTR_ADD_U64
                } else {
                    regops::PTR_ADD
                };
                binary(self, run, ptr, idx)
            }
            Node::Load(elem, p) => {
                let (run, off, idx) = self.gen_address(regops::load_fns(elem), p);
                let out = dst.unwrap_or_else(|| self.scratch());
                self.op(run, out, off, idx, self.root_of(p), 0);
                out
            }
            Node::Query { geom, dim, checked } => {
                let rd = self.gen(dim, None);
                let out = dst.unwrap_or_else(|| self.scratch());
                let base = self.n_slots + geom as u32 * 3;
                self.op(regops::QUERY, out, rd, base, u32::from(checked), 0);
                out
            }
        }
    }

    /// Emits pointer tree `p` for a memory op and picks the op's form
    /// from `(plain, indexed)`: the ubiquitous `base[index]` shape folds
    /// its `PtrAdd` into the access. Returns `(op, offset register,
    /// index register)` — for the plain form a register that holds zero,
    /// which the op's checked body adds all the same.
    fn gen_address(&mut self, (plain, indexed): (OpFns, OpFns), p: NodeId) -> (OpFns, u32, u32) {
        if let Node::PtrAdd {
            ptr,
            idx,
            checked: false,
        } = self.nodes[p as usize]
        {
            let off = self.gen(ptr, None);
            (indexed, off, self.gen(idx, None))
        } else {
            (plain, self.gen(p, None), self.constant(0))
        }
    }

    /// Emits tree `id` into `(reg, root)`; `root` only for pointers.
    fn assign(&mut self, id: NodeId, reg: u32, root: u32) {
        self.scratch_used = 0;
        self.gen(id, Some(reg));
        if self.tys[id as usize] == Ty::Ptr {
            let from = self.root_of(id);
            if from != root {
                self.op(regops::MOV, root, from, 0, 0, 0);
            }
        }
    }

    /// Makes the ops emitted since `first` retire every instruction up
    /// to and including `end_pc`.
    fn retire(&mut self, end_pc: usize, first: usize) {
        if self.ops.len() == first {
            self.op(regops::NOP, 0, 0, 0, 0, 0);
        }
        let last = self.ops.last_mut().expect("just ensured");
        last.covers = (end_pc + 1 - self.retired) as u32;
        self.retired = end_pc + 1;
    }

    /// Spills pending entry `i` to its canonical temporary and replaces
    /// it with a read of that register. Evaluation happens where the
    /// spill ops execute, so callers spill bottom-up to preserve push
    /// order.
    fn flush_entry(&mut self, i: usize) {
        let src = self.pend[i];
        let ty = self.tys[src as usize];
        let (reg, root) = self.temp(i as u32, ty);
        if let Node::Reg { reg: r, .. } = self.nodes[src as usize] {
            if r == reg {
                return;
            }
        }
        self.assign(src, reg, root);
        self.pend[i] = self.node(Node::Reg { reg, root }, ty);
    }

    fn flush_all(&mut self) {
        for i in 0..self.pend.len() {
            self.flush_entry(i);
        }
    }

    /// Spills every pending tree containing fallible work (bottom-up,
    /// i.e. push order) so a following fallible op cannot fail first.
    fn flush_fallible(&mut self) {
        for i in 0..self.pend.len() {
            if self.is_fallible(self.pend[i]) {
                self.flush_entry(i);
            }
        }
    }

    fn stack_types(&self) -> Box<[Ty]> {
        self.pend.iter().map(|&id| self.tys[id as usize]).collect()
    }

    /// Records or verifies the abstract stack on an edge into `t`.
    fn check_target(&mut self, t: u32) {
        let ti = t as usize;
        if ti >= self.entry.len() {
            return; // jump past the end: falls off and completes
        }
        let here = self.stack_types();
        match &self.entry[ti] {
            None => self.entry[ti] = Some(here),
            Some(seen) => self.ok &= **seen == *here,
        }
    }

    /// Emits a control op whose target pc is resolved after lowering.
    fn control(&mut self, run: OpFns, dst: u32, a: u32, b: u32, target: u32) {
        self.jumps.push(self.ops.len());
        self.op(run, dst, a, b, target, 0);
    }

    /// Lowers a conditional branch on the `bool` on top of the stack.
    fn lower_branch(&mut self, pc: usize, t: u32, on_true: bool) {
        let c = self.pop_as(ScalarType::Bool);
        self.flush_all();
        self.check_target(t);
        let first = self.ops.len();
        self.scratch_used = 0;
        let rc = self.gen(c, None);
        self.control(regops::BRANCH, 0, rc, u32::from(on_true), t);
        // The driver looks the branch's join up by its pc.
        self.ops.last_mut().expect("just emitted").d = pc as u32;
        self.retire(pc, first);
    }

    /// Handles a block seam at `pc`: canonicalize live values into the
    /// per-depth temporaries and record the op index control enters at.
    fn boundary(&mut self, pc: usize) {
        if self.live {
            self.flush_all();
            if self.retired < pc {
                // Deferred pushes dropped by `Pop`, values dead here.
                self.retire(pc - 1, self.ops.len());
            }
            self.check_target(pc as u32);
        } else {
            // Reached only by jumps: rebuild the abstract stack as reads
            // of the canonical temporaries recorded for this seam — an
            // empty stack, on the record, when only later edges lead
            // here, so that each of them is checked against it.
            self.pend.clear();
            let seen = self.entry[pc].get_or_insert_with(Box::default).clone();
            for (depth, &ty) in seen.iter().enumerate() {
                let (reg, root) = self.temp(depth as u32, ty);
                self.push(Node::Reg { reg, root }, ty);
            }
            self.retired = pc;
            self.live = true;
        }
        self.ip_at[pc] = self.ops.len() as u32;
    }

    fn instr(&mut self, pc: usize) {
        if !self.live {
            // Unreachable instruction: the interpreter never executes
            // it either, so it must not be retired by any live op.
            self.retired = pc + 1;
            return;
        }
        match self.code[pc] {
            Instr::PushInt(v, ty) => self.push_const(int_value(v, ty)),
            Instr::PushFloat(v, ty) => self.push_const(if ty == ScalarType::F32 {
                Value::F32(v as f32)
            } else {
                Value::F64(v)
            }),
            Instr::PushBool(b) => self.push_const(Value::Bool(b)),
            Instr::PushLocalPtr { byte_offset, elem } => {
                let offset = (byte_offset as usize / elem.size_bytes()) as u64;
                let reg = self.constant(offset);
                // The arena's root id follows the parameters'.
                let root = self.constant(u64::from(self.n_params));
                self.push(Node::Reg { reg, root }, Ty::Ptr);
            }
            Instr::LoadLocal(s) => {
                let s = usize::from(s);
                let ty = *self.slot_ty[s].get_or_insert(Ty::Scalar(ScalarType::I32));
                let root = self.slot_root.get(s).map_or(NO_ROOT, |r| *r);
                self.push(
                    Node::Reg {
                        reg: s as u32,
                        root,
                    },
                    ty,
                );
            }
            Instr::Query(g) => {
                let d = self.pop();
                let checked = self.index_is_checked(d);
                let ty = Ty::Scalar(ScalarType::U64);
                match self.const_of(d) {
                    // A constant dimension that `as_index` accepts makes
                    // the query a plain register read.
                    Some(dim) if !checked || i64::try_from(dim).is_ok() => {
                        let dim = (dim as i64 as usize).min(2) as u32;
                        let reg = self.n_slots + g as u32 * 3 + dim;
                        self.push(Node::Reg { reg, root: NO_ROOT }, ty);
                    }
                    _ => self.push(
                        Node::Query {
                            geom: g,
                            dim: d,
                            checked,
                        },
                        ty,
                    ),
                }
            }
            Instr::Bin(k, ty) => {
                let b = self.pop_as(ty);
                let a = self.pop_as(ty);
                self.ok &= regops::bin_fn(k, ty).is_some();
                self.push(Node::Bin(k, ty, a, b), Ty::Scalar(ty));
            }
            Instr::Cmp(k, ty) => {
                let b = self.pop_as(ty);
                let a = self.pop_as(ty);
                self.push(
                    Node::Cmp(k, CmpClass::of(ty), a, b),
                    Ty::Scalar(ScalarType::Bool),
                );
            }
            Instr::Neg(ty) => {
                let a = self.pop_as(ty);
                // `neg_op` promotes a negated `bool` to `int`.
                let out = if ty == ScalarType::Bool {
                    ScalarType::I32
                } else {
                    ty
                };
                self.push(Node::Neg(ty, a), Ty::Scalar(out));
            }
            Instr::BitNot(ty) => {
                let a = self.pop_as(ty);
                self.push(Node::BitNot(ty, a), Ty::Scalar(ty));
            }
            Instr::NotBool => {
                let a = self.pop_as(ScalarType::Bool);
                self.push(Node::NotBool(a), Ty::Scalar(ScalarType::Bool));
            }
            Instr::Cast { to, .. } => {
                // Like `Value::cast`, convert from what the operand *is*.
                let a = self.pop();
                match self.tys[a as usize] {
                    Ty::Scalar(from) if from == to && !to.is_float() => self.pend.push(a),
                    Ty::Scalar(from) => self.push(Node::Cast(from, to, a), Ty::Scalar(to)),
                    Ty::Ptr => self.ok = false,
                }
            }
            Instr::CallMath1(m, ty) => {
                let a = self.pop_as(ty);
                let (a, ty) = self.math_operand(a, ty);
                self.push(Node::Math1(m, ty, a), Ty::Scalar(ty));
            }
            Instr::CallMath2(m, ty) => {
                let b = self.pop_as(ty);
                let a = self.pop_as(ty);
                let (a, _) = self.math_operand(a, ty);
                let (b, ty) = self.math_operand(b, ty);
                self.ok &= regops::math2_fn(m, ty).is_some();
                self.push(Node::Math2(m, ty, a, b), Ty::Scalar(ty));
            }
            Instr::PtrAdd => {
                let idx = self.pop();
                let ptr = self.pop();
                let checked = self.index_is_checked(idx);
                self.ok &= self.tys[ptr as usize] == Ty::Ptr;
                self.push(Node::PtrAdd { ptr, idx, checked }, Ty::Ptr);
            }
            Instr::LoadMem(elem) => {
                let p = self.pop();
                self.ok &= self.tys[p as usize] == Ty::Ptr;
                self.push(Node::Load(elem, p), Ty::Scalar(elem));
            }
            Instr::Dup => match self.pend.last().copied() {
                None => self.ok = false,
                Some(id) => {
                    if !matches!(self.nodes[id as usize], Node::Reg { .. }) {
                        // Materialize once, then share the register —
                        // re-evaluating an arbitrary tree could double
                        // a failure or observe an intervening store.
                        let last = self.pend.len() - 1;
                        for i in 0..last {
                            if self.is_fallible(self.pend[i]) {
                                self.flush_entry(i);
                            }
                        }
                        self.flush_entry(last);
                    }
                    let id = *self.pend.last().expect("non-empty");
                    self.pend.push(id);
                }
            },
            Instr::Pop => {
                let n = self.pop();
                if self.is_fallible(n) {
                    self.flush_fallible();
                    let first = self.ops.len();
                    self.scratch_used = 0;
                    self.gen(n, None);
                    self.retire(pc, first);
                }
                // A pure dropped value is unobservable; its pushes are
                // retired by the next emitted op.
            }
            Instr::StoreLocal(s) => {
                let v = self.pop();
                let s = u32::from(s);
                let ty = self.tys[v as usize];
                match self.slot_ty[s as usize] {
                    Some(t) => self.ok &= t == ty,
                    // A pointer local would read as `I32(0)` before its
                    // first store, which no root id can stand for.
                    None => {
                        self.ok &= ty != Ty::Ptr;
                        self.slot_ty[s as usize] = Some(ty);
                    }
                }
                if !self.ok {
                    return;
                }
                let can_fail = self.is_fallible(v);
                for i in 0..self.pend.len() {
                    let e = self.pend[i];
                    if self.reads_slot(e, s) || (can_fail && self.is_fallible(e)) {
                        self.flush_entry(i);
                    }
                }
                let root = self.slot_root.get(s as usize).map_or(NO_ROOT, |r| *r);
                if s < self.n_params {
                    for reg in [s, root] {
                        if reg != NO_ROOT && !self.mutated.contains(&reg) {
                            self.mutated.push(reg);
                        }
                    }
                }
                let first = self.ops.len();
                self.assign(v, s, root);
                self.retire(pc, first);
            }
            Instr::StoreMem(elem) => {
                let v = self.pop_as(elem);
                let p = self.pop();
                self.ok &= self.tys[p as usize] == Ty::Ptr;
                if !self.ok {
                    return;
                }
                for i in 0..self.pend.len() {
                    let e = self.pend[i];
                    if self.is_fallible(e) || self.reads_mem(e) {
                        self.flush_entry(i);
                    }
                }
                let first = self.ops.len();
                self.scratch_used = 0;
                // Push order: the pointer tree was built first, so its
                // index check runs before the value evaluates.
                let (run, off, idx) = self.gen_address(regops::store_fns(elem), p);
                let val = self.gen(v, None);
                self.op(run, 0, off, idx, self.root_of(p), val);
                self.retire(pc, first);
            }
            Instr::Jump(t) => {
                self.flush_all();
                self.check_target(t);
                let first = self.ops.len();
                self.control(regops::JUMP, 0, 0, 0, t);
                self.retire(pc, first);
                self.pend.clear();
                self.live = false;
            }
            Instr::JumpIfFalse(t) => self.lower_branch(pc, t, false),
            Instr::JumpIfTrue(t) => self.lower_branch(pc, t, true),
            Instr::Barrier => {
                self.flush_all();
                let first = self.ops.len();
                // `a`: the pc a released item resumes at.
                self.op(regops::BARRIER, 0, pc as u32 + 1, 0, 0, 0);
                self.retire(pc, first);
                self.ip_at[pc + 1] = self.ops.len() as u32;
            }
            Instr::Return => {
                // Anything fallible still pending would have failed
                // before the interpreter reached this Return.
                self.flush_fallible();
                let first = self.ops.len();
                self.op(regops::RET, 0, 0, 0, 0, 0);
                self.retire(pc, first);
                self.pend.clear();
                self.live = false;
            }
        }
    }

    /// `math1`/`math2` treat `bool` as a float type: the operand goes
    /// through `to_f64_lossy` and the result is a `double`.
    fn math_operand(&mut self, a: NodeId, ty: ScalarType) -> (NodeId, ScalarType) {
        if ty != ScalarType::Bool {
            return (a, ty);
        }
        let wide = ScalarType::F64;
        (self.node(Node::Cast(ty, wide, a), Ty::Scalar(wide)), wide)
    }
}

/// Lowers `kernel` to typed register ops, or to a `fallback` marker
/// when its bytecode cannot be typed.
fn lower(kernel: &CompiledKernel) -> CompiledCode {
    let code = &kernel.code[..];
    // Every pc a jump can land on is a block seam.
    let mut target = vec![false; code.len() + 1];
    for i in code {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = *i {
            if (t as usize) < target.len() {
                target[t as usize] = true;
            }
        }
    }
    let n_params = kernel.params.len() as u32;
    let n_slots = code
        .iter()
        .map(|i| match *i {
            Instr::LoadLocal(s) | Instr::StoreLocal(s) => u32::from(s) + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
        .max(u32::from(kernel.n_slots))
        .max(n_params);
    let mut lw = Lowerer {
        code,
        ops: Vec::with_capacity(code.len()),
        lanes: Vec::with_capacity(code.len()),
        owned: Vec::with_capacity(code.len()),
        jumps: Vec::new(),
        nodes: Vec::with_capacity(code.len() + 8),
        tys: Vec::with_capacity(code.len() + 8),
        ip_at: vec![u32::MAX; code.len() + 1],
        entry: vec![None; code.len() + 1],
        pend: Vec::new(),
        retired: 0,
        template: vec![0; (n_slots + GEOM_REGS) as usize],
        n_params,
        n_slots,
        slot_ty: vec![None; n_slots as usize],
        slot_root: Vec::with_capacity(n_params as usize),
        mutated: Vec::new(),
        consts: Vec::new(),
        temps: Vec::new(),
        scratch: Vec::new(),
        scratch_used: 0,
        live: true,
        ok: true,
    };
    for (p, param) in kernel.params.iter().enumerate() {
        let (ty, root) = match param {
            ParamType::Scalar(s) => (Ty::Scalar(*s), NO_ROOT),
            // A pointer parameter's root id is its own index.
            ParamType::Pointer(..) => (Ty::Ptr, lw.new_reg(p as u64)),
        };
        lw.slot_ty[p] = Some(ty);
        lw.slot_root.push(root);
    }
    lw.ip_at[0] = 0;
    for (pc, &is_target) in target[..code.len()].iter().enumerate() {
        if is_target {
            lw.boundary(pc);
        }
        lw.instr(pc);
        if !lw.ok {
            return CompiledCode {
                fallback: true,
                ..CompiledCode::default()
            };
        }
    }
    if lw.live && lw.retired < code.len() {
        // Dangling pushes before falling off the end still execute.
        lw.retire(code.len() - 1, lw.ops.len());
    }
    lw.ip_at[code.len()] = lw.ops.len() as u32;
    for &at in &lw.jumps {
        let pc = lw.ops[at].c as usize;
        // A jump past the end falls off and completes.
        lw.ops[at].c = lw.ip_at.get(pc).map_or(lw.ops.len() as u32, |ip| *ip);
    }
    // A kernel keeps its lowered code for as long as it lives: give back
    // what the builders reserved beyond it.
    lw.ops.shrink_to_fit();
    lw.lanes.shrink_to_fit();
    lw.owned.shrink_to_fit();
    lw.template.shrink_to_fit();
    CompiledCode {
        ops: lw.ops,
        lanes: lw.lanes,
        owned: lw.owned,
        ip_at: lw.ip_at,
        template: lw.template,
        n_params,
        n_slots,
        mutated: lw.mutated,
        has_barrier: code.iter().any(|i| matches!(i, Instr::Barrier)),
        fallback: false,
        joins: OnceLock::new(),
        vary: OnceLock::new(),
    }
}

/// For the conditional jump that ends each block of `code`, by its pc:
/// the first pc of the block's immediate post-dominator, where every way
/// out of the branch first meets the others; `code.len()` at the end.
fn join_pcs(code: &[Instr]) -> Vec<u32> {
    let cfg = Cfg::build(code);
    let pdom = cfg.post_dominators();
    let exit = cfg.blocks.len();
    let start_of = |b: usize| cfg.blocks.get(b).map_or(code.len(), |b| b.start) as u32;
    let mut joins = vec![u32::MAX; code.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        // A block's post-dominators are a chain, each one's set the one
        // before it less that block: the nearest has all but `b` itself.
        let size_of = |d: usize| pdom.get(d).map_or(1, |s| s.len());
        let nearest =
            (0..=exit).find(|&d| d != b && pdom[b].contains(d) && size_of(d) + 1 == pdom[b].len());
        joins[block.end - 1] = nearest.map_or(u32::MAX, start_of);
    }
    joins
}

impl CompiledCode {
    /// The op at which lanes that part on the branch at op `x` of
    /// `kernel` are all together again, if there is one.
    fn join_of(&self, kernel: &CompiledKernel, x: usize) -> Option<usize> {
        let pc = self.ops[x].d as usize;
        let join = self.joins.get_or_init(|| join_pcs(&kernel.code))[pc];
        // A block the branch falls into need not be a seam; it starts at
        // the next op all the same.
        let at = if join as usize == pc + 1 {
            x as u32 + 1
        } else {
            *self.ip_at.get(join as usize)?
        };
        (at != u32::MAX).then_some(at as usize)
    }

    /// The registers that can differ from lane to lane: what some op
    /// writes, and the ids. Every other register holds the launch's value
    /// in every lane.
    fn vary(&self) -> &[u32] {
        self.vary.get_or_init(|| {
            let ids = [Geom::GlobalId, Geom::LocalId, Geom::GroupId]
                .into_iter()
                .flat_map(|g| (0..3).map(move |d| self.n_slots + g as u32 * 3 + d));
            let mut regs: Vec<u32> = self.ops.iter().map(|op| op.dst).chain(ids).collect();
            regs.sort_unstable();
            regs.dedup();
            regs
        })
    }
}

// --- lowering memo --------------------------------------------------------

/// A kernel's lowered form, kept on the kernel: whoever holds the kernel
/// (a node keeps each in an `Arc`) launches it again without lowering it
/// again. Not part of the kernel's value — a clone starts empty and two
/// kernels compare equal whatever theirs hold — and only ever filled from
/// `code` and `params`, which nothing changes once a kernel is built.
/// Boxed because most kernel objects are never launched (a node keeps
/// every kernel of every program it built): held inline the empty memos
/// read as +2.4 MiB on `cold_build.peak_rss_mib`.
#[derive(Default)]
pub(crate) struct LoweredMemo(OnceLock<Box<CompiledCode>>);

impl Clone for LoweredMemo {
    fn clone(&self) -> Self {
        LoweredMemo::default()
    }
}

impl PartialEq for LoweredMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for LoweredMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LoweredMemo({})", self.0.get().is_some())
    }
}

#[cfg(test)]
thread_local! {
    /// Lowerings made by this thread.
    static LOWERINGS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Returns the lowered form of `kernel`, lowering it on its first launch.
fn lookup_or_lower(kernel: &CompiledKernel) -> &CompiledCode {
    kernel.lowered.0.get_or_init(|| {
        #[cfg(test)]
        LOWERINGS.set(LOWERINGS.get() + 1);
        Box::new(lower(kernel))
    })
}

// --- drivers --------------------------------------------------------------

/// One launch's resolved state, shared by every group.
struct Launch<'k> {
    code: &'k CompiledCode,
    kernel: &'k CompiledKernel,
    range: NdRange,
    num_groups: [u64; 3],
    /// [`CompiledCode::template`] with the bound arguments and the
    /// launch-wide geometry filled in.
    regs: Vec<u64>,
    /// What each root id names: parameter `p`'s buffer and its lockstep
    /// class at index `p`, the `__local` arena for `__local` parameters
    /// and at `n_params`.
    roots: Vec<Root>,
    /// How many consecutive items of a group chunks are cut from, `LANES`
    /// at a time: a row, where rows are at least a chunk wide; else the
    /// whole group in its linear `(z, y, x)` order; 0 where the launch
    /// runs item by item ([`lockstep::gate`]).
    span: u64,
    /// How many groups, consecutive in x, fill a chunk together, where a
    /// group is a whole fraction of one and the row has that many; else 1.
    fuse: u64,
    /// The launch runs lockstep and no buffer is `serial`: no lane can see
    /// another, so a chunk gets past a branch without checking.
    masks: bool,
}

impl<'k> Launch<'k> {
    fn new(
        code: &'k CompiledCode,
        kernel: &'k CompiledKernel,
        args: &[ArgValue],
        bound: &[Value],
        range: &NdRange,
    ) -> Launch<'k> {
        let num_groups = [
            range.global[0] / range.local[0],
            range.global[1] / range.local[1],
            range.global[2] / range.local[2],
        ];
        let in_rows = range.local[0] >= LANES as u64;
        let items = range.group_items();
        let span = if in_rows { range.local[0] } else { items };
        let fuse = match LANES as u64 / items {
            n if n * items == LANES as u64 && n <= num_groups[0] => n,
            _ => 1,
        };
        let lockstep =
            span * fuse >= LANES as u64 && lockstep::gate(kernel, code.has_barrier, args);
        let mut regs = code.template.clone();
        let mut roots = vec![Root::Local; bound.len() + 1];
        for (p, v) in bound.iter().enumerate() {
            regs[p] = match *v {
                Value::Ptr(ptr) => {
                    if let PtrSpace::Global(b) = ptr.space {
                        let class = if lockstep {
                            lockstep::classify(kernel, args, b, in_rows)
                        } else {
                            Class::Serial
                        };
                        roots[p] = Root::Global(b, class);
                    }
                    ptr.offset as u64
                }
                scalar => regops::encode(scalar).expect("not a pointer").1,
            };
        }
        let geom = code.n_slots as usize;
        for d in 0..3 {
            regs[geom + Geom::GlobalSize as usize * 3 + d] = range.global[d];
            regs[geom + Geom::LocalSize as usize * 3 + d] = range.local[d];
            regs[geom + Geom::NumGroups as usize * 3 + d] = num_groups[d];
            regs[geom + Geom::WorkDim as usize * 3 + d] = u64::from(range.work_dim);
        }
        let serial = roots
            .iter()
            .any(|r| matches!(r, Root::Global(_, Class::Serial)));
        Launch {
            masks: lockstep && !serial,
            code,
            kernel,
            range: *range,
            num_groups,
            regs,
            roots,
            span: if lockstep { span } else { 0 },
            fuse: if lockstep { fuse } else { 1 },
        }
    }

    /// The local id of item `at` of a group's linear `(z, y, x)` order.
    fn local_id_at(&self, at: u64) -> [u64; 3] {
        let [x, y, _] = self.range.local;
        [at % x, at / x % y, at / (x * y)]
    }

    /// Writes one item's ids into its register file and returns its
    /// global id.
    fn write_ids(&self, regs: &mut [u64], group_id: [u64; 3], local_id: [u64; 3]) -> [u64; 3] {
        let geom = self.code.n_slots as usize;
        let global_id = [0, 1, 2].map(|d| group_id[d] * self.range.local[d] + local_id[d]);
        for d in 0..3 {
            regs[geom + Geom::GlobalId as usize * 3 + d] = global_id[d];
            regs[geom + Geom::LocalId as usize * 3 + d] = local_id[d];
            regs[geom + Geom::GroupId as usize * 3 + d] = group_id[d];
        }
        global_id
    }

    /// The lanes of geometry register `(g, d)` in a chunk's file.
    fn id_lanes<'r>(&self, lanes: &'r mut [u64], g: Geom, d: usize) -> &'r mut [u64] {
        let at = (self.code.n_slots as usize + g as usize * 3 + d) * LANES;
        &mut lanes[at..at + LANES]
    }

    /// [`Launch::write_ids`] for every chunk of row `(ly, lz)`: the ids
    /// its items share.
    fn write_row_ids(&self, lanes: &mut [u64], group_id: [u64; 3], ly: u64, lz: u64) {
        for (d, id) in group_id.into_iter().enumerate() {
            self.id_lanes(lanes, Geom::GroupId, d).fill(id);
        }
        for (d, l) in [(1, ly), (2, lz)] {
            let global = group_id[d] * self.range.local[d] + l;
            self.id_lanes(lanes, Geom::GlobalId, d).fill(global);
            self.id_lanes(lanes, Geom::LocalId, d).fill(l);
        }
    }

    /// The x ids of the chunk of `LANES` items that starts at `lx`.
    fn write_chunk_x(&self, lanes: &mut [u64], group_x: u64, lx: u64) {
        let global = group_x * self.range.local[0] + lx;
        for (g, first) in [(Geom::GlobalId, global), (Geom::LocalId, lx)] {
            for (l, lane) in self.id_lanes(lanes, g, 0).iter_mut().enumerate() {
                *lane = first + l as u64;
            }
        }
    }

    /// [`Launch::write_ids`] for the chunk of `LANES` items that starts
    /// at item `at` of the group's linear order and runs across rows and,
    /// past the group's last item, into the next group in x.
    fn write_lane_ids(&self, lanes: &mut [u64], mut group_id: [u64; 3], at: u64) {
        let local = self.range.local;
        let mut id = self.local_id_at(at);
        for l in 0..LANES {
            for d in 0..3 {
                self.id_lanes(lanes, Geom::GlobalId, d)[l] = group_id[d] * local[d] + id[d];
                self.id_lanes(lanes, Geom::LocalId, d)[l] = id[d];
                self.id_lanes(lanes, Geom::GroupId, d)[l] = group_id[d];
            }
            id[0] += 1;
            if id[0] == local[0] {
                id = [0, id[1] + 1, id[2]];
                if id[1] == local[1] {
                    id = [0, 0, id[2] + 1];
                    if id[2] == local[2] {
                        id[2] = 0;
                        group_id[0] += 1;
                    }
                }
            }
        }
    }
}

/// Register storage reused across the groups of one launch.
struct GroupScratch {
    /// One item's file — or, under a barrier, one per item of a group.
    regs: Vec<u64>,
    /// A chunk's `[register][lane]` file; empty unless the launch runs
    /// lockstep. Only ids, locals and mutated parameters differ from
    /// chunk to chunk, so the rest is filled here once.
    lanes: Vec<u64>,
    shadow: Shadow,
    counts: LaneCounts,
}

impl GroupScratch {
    fn new(launch: &Launch<'_>) -> GroupScratch {
        let mut lanes = Vec::new();
        if launch.span > 0 {
            lanes.reserve_exact(launch.regs.len() * LANES);
            for &r in &launch.regs {
                lanes.extend(std::iter::repeat_n(r, LANES));
            }
        }
        let mut shadow = Shadow::default();
        // A lockstep launch with a serial buffer checks.
        shadow.on = launch.span > 0 && !launch.masks;
        GroupScratch {
            regs: Vec::new(),
            lanes,
            shadow,
            counts: LaneCounts::default(),
        }
    }
}

impl Drop for GroupScratch {
    fn drop(&mut self) {
        lockstep::record(&self.counts);
    }
}

/// Full-launch compiled-engine driver: work-groups one after another in
/// the interpreter's `(z, y, x)` order.
pub(super) fn run(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    range: &NdRange,
) -> Result<ExecStats, ExecError> {
    let ccode = lookup_or_lower(kernel);
    if ccode.fallback {
        return super::interp::run(kernel, args, buffers, range, None, None);
    }
    range.validate()?;
    let (bound, arena_bytes) = bind_args(kernel, args, buffers.len())?;
    let launch = Launch::new(ccode, kernel, args, &bound, range);
    let mut stats = ExecStats::default();
    let mut arena = vec![0u8; arena_bytes];
    let mut scratch = GroupScratch::new(&launch);
    let num_groups = launch.num_groups;
    for gz in 0..num_groups[2] {
        for gy in 0..num_groups[1] {
            // Too few small groups to fill a chunk run item by item.
            for gx in (0..num_groups[0]).step_by(launch.fuse as usize) {
                let groups = launch.fuse.min(num_groups[0] - gx);
                run_groups(
                    &launch,
                    buffers,
                    [gx, gy, gz],
                    groups,
                    &mut arena,
                    &mut scratch,
                    &mut stats,
                )?;
                stats.work_groups += groups;
            }
        }
    }
    Ok(stats)
}

/// Executes the `groups` work-groups from `group_id` on in x — more than
/// one only where they fill a chunk together ([`Launch::fuse`]) — to
/// completion under the shared pass-based round-robin schedule.
fn run_groups(
    launch: &Launch<'_>,
    mem: &mut [GlobalBuffer],
    group_id: [u64; 3],
    groups: u64,
    arena: &mut [u8],
    scratch: &mut GroupScratch,
    stats: &mut ExecStats,
) -> Result<(), ExecError> {
    // An empty arena's `fill` is a `memset` of nothing at a dangling
    // address, and that call alone measured ~100 ns per group here.
    if !arena.is_empty() {
        arena.fill(0);
    }
    let code = launch.code;
    let local = launch.range.local;
    let GroupScratch {
        regs,
        lanes,
        shadow,
        counts,
    } = scratch;
    let mut ctx = Ctx {
        mem,
        arena,
        roots: &launch.roots,
        shadow,
        fault: None,
    };
    regs.clear();
    if !code.has_barrier {
        // No barrier can suspend an item, so the round-robin schedule
        // degenerates to running each item once in local-id order, and
        // one register file serves them all: same execution order, same
        // stats, same first error. Where the launch runs lockstep, full
        // chunks take each op together instead, as far as `lockstep`
        // shows that no item can tell that from taking turns.
        regs.extend_from_slice(&launch.regs);
        let locals = code.n_params as usize..code.n_slots as usize;
        // What chunks are cut from is a row of the group — or, its rows
        // narrower than a chunk, the group itself, or the groups
        // themselves, as one long row.
        let cut = launch.span * groups;
        let across = cut > local[0];
        let (rows_z, rows_y, row) = if across {
            (1, 1, cut)
        } else {
            (local[2], local[1], local[0])
        };
        let chunked = row.min(cut) / LANES as u64 * LANES as u64;
        for lz in 0..rows_z {
            for ly in 0..rows_y {
                // One item from op 0, by itself.
                let item = |regs: &mut [u64], ctx: &mut Ctx<'_>, stats: &mut ExecStats, at| {
                    regs[locals.clone()].fill(0);
                    for &r in &code.mutated {
                        regs[r as usize] = launch.regs[r as usize];
                    }
                    let (mut group_id, mut local_id) = (group_id, [at, ly, lz]);
                    if across {
                        let items = launch.range.group_items();
                        group_id[0] += at / items;
                        local_id = launch.local_id_at(at % items);
                    }
                    launch.write_ids(regs, group_id, local_id);
                    exec::<1, false, false>(code, regs, ctx, 0, NEVER, stats).map(drop)
                };
                if chunked > 0 && !across {
                    launch.write_row_ids(lanes, group_id, ly, lz);
                }
                for at in (0..chunked).step_by(LANES) {
                    lanes[locals.start * LANES..locals.end * LANES].fill(0);
                    for &r in &code.mutated {
                        let first = r as usize * LANES;
                        lanes[first..first + LANES].fill(launch.regs[r as usize]);
                    }
                    if across {
                        launch.write_lane_ids(lanes, group_id, at);
                    } else {
                        launch.write_chunk_x(lanes, group_id[0], at);
                    }
                    if !run_chunk(launch, lanes, regs, &mut ctx, stats, counts)? {
                        for at in at..at + LANES as u64 {
                            item(regs, &mut ctx, stats, at)?;
                        }
                    }
                }
                for at in chunked..row {
                    item(regs, &mut ctx, stats, at)?;
                }
            }
        }
        stats.work_items += launch.range.group_items() * groups;
        return Ok(());
    }
    // One register file per item, side by side, so a suspended item's
    // state simply stays where it is.
    let n = launch.regs.len();
    let mut items = Vec::with_capacity(launch.range.group_items() as usize);
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                let at = regs.len();
                regs.extend_from_slice(&launch.regs);
                let local_id = [lx, ly, lz];
                let global_id = launch.write_ids(&mut regs[at..], group_id, local_id);
                // The interpreter's item record carries the schedule
                // state `barrier_stall_check` reads; the operand stack
                // and slots it also has room for live in `regs` here.
                items.push(Item {
                    pc: 0,
                    stack: Vec::new(),
                    slots: Vec::new(),
                    status: ItemStatus::Running,
                    global_id,
                    local_id,
                });
            }
        }
    }
    loop {
        let mut any_running = false;
        for (item, regs) in items.iter_mut().zip(regs.chunks_exact_mut(n)) {
            if item.status == ItemStatus::Running {
                // Control enters at a seam: a kernel's start, or the
                // instruction after a barrier.
                let ip = code.ip_at[item.pc] as usize;
                item.status = match exec::<1, false, false>(code, regs, &mut ctx, ip, NEVER, stats)?
                {
                    Exit::Barrier(resume) => {
                        item.pc = resume;
                        ItemStatus::AtBarrier
                    }
                    Exit::Done | Exit::Split { .. } => ItemStatus::Done,
                };
                any_running = true;
            }
        }
        if !any_running {
            if !barrier_stall_check(launch.kernel, &items)? {
                break;
            }
            stats.barriers += 1;
            for item in &mut items {
                item.status = ItemStatus::Running;
            }
        }
    }
    stats.work_items += items.len() as u64;
    Ok(())
}

/// How a run of ops ended.
enum Exit {
    /// The item — every lane — finished.
    Done,
    /// The item suspended at a barrier; the pc to resume at.
    Barrier(usize),
    /// The lanes could not take the op at `ip` together. It changed
    /// nothing and is not counted.
    Split {
        ip: usize,
        cause: regops::SplitCause,
    },
}

/// Whether some item of the launch stores to what `root` names.
fn is_owned(root: Root) -> bool {
    matches!(root, Root::Global(_, Class::Private | Class::Serial))
}

/// Runs `L` items, their registers laid out `[register][lane]`, from op
/// `ip` until they finish, suspend, split or one errors. With `CHECKS` they
/// are lanes of a chunk that checks who touches what: they take the `owned`
/// bodies where some item stores. With `STOPS` they are done at op `stop`.
fn exec<const L: usize, const CHECKS: bool, const STOPS: bool>(
    code: &CompiledCode,
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    mut ip: usize,
    stop: usize,
    stats: &mut ExecStats,
) -> Result<Exit, ExecError> {
    let ops = &code.ops[..];
    let mut retired = 0u64;
    let exit = loop {
        if STOPS && ip == stop {
            break Exit::Done;
        }
        // Falling off the end is a return, like the interpreter.
        let Some(op) = ops.get(ip) else {
            break Exit::Done;
        };
        let owned = if CHECKS { code.owned[ip] } else { None };
        let run = match owned {
            // A load or a store: by the class of the first lane's buffer.
            Some(owned) if is_owned(ctx.roots[regs[op.c as usize * L] as usize]) => {
                owned[usize::from(L > 1)]
            }
            _ if L == 1 => op.run,
            _ => code.lanes[ip],
        };
        retired += u64::from(op.covers);
        match run(regs, ctx, op) {
            Ok(Step::Next) => ip += 1,
            Ok(Step::Jump(t)) => ip = t as usize,
            // A chunk never meets a barrier ([`lockstep::gate`]).
            Ok(Step::Barrier) if L == 1 => break Exit::Barrier(op.a as usize),
            Ok(Step::Barrier | Step::Done) => break Exit::Done,
            Err(Halt::Fault) => return Err(ctx.fault.take().expect("a fault records its error")),
            Err(Halt::Split(cause)) => {
                retired -= u64::from(op.covers);
                break Exit::Split { ip, cause };
            }
        }
    };
    stats.instructions += retired * L as u64;
    Ok(exit)
}

/// Copies lane `l` of `lanes` to the one-item file `regs`.
fn lane_out(regs: &mut [u64], lanes: &[u64], l: usize) {
    for (reg, lanes) in regs.iter_mut().zip(lanes.chunks_exact(LANES)) {
        *reg = lanes[l];
    }
}

/// Copies the one-item file `regs` back to lane `l` of `lanes`.
fn lane_in(lanes: &mut [u64], regs: &[u64], l: usize) {
    for (reg, lanes) in regs.iter().zip(lanes.chunks_exact_mut(LANES)) {
        lanes[l] = *reg;
    }
}

/// The op lane `l` goes on at from the branch at op `x`.
fn way(code: &CompiledCode, lanes: &[u64], x: usize, l: usize) -> usize {
    let op = code.ops[x];
    if lanes[op.a as usize * LANES + l] == u64::from(op.b) {
        op.c as usize
    } else {
        x + 1
    }
}

/// Every lane of a chunk.
const ALL: u32 = u32::MAX >> (32 - LANES);

/// The lanes of `set` the branch at op `x` sends straight to op `to`.
fn sent_to(code: &CompiledCode, lanes: &[u64], x: usize, set: u32, to: usize) -> u32 {
    let op = code.ops[x];
    let cond = &lanes[op.a as usize * LANES..][..LANES];
    let taken = (0..LANES).fold(0, |set, l| set | u32::from(cond[l] == u64::from(op.b)) << l);
    let to_c = if op.c as usize == to { taken } else { 0 };
    let to_next = if x + 1 == to { !taken } else { 0 };
    set & (to_c | to_next)
}

/// Runs each lane of `set`, in lane order and by itself, from where the
/// branch at op `x` sends it to op `join`, and puts it back in its column
/// there, checked where the chunk checks. A lane that does not get there —
/// it splits or errors — ends the run: it comes back with why, and the
/// lanes after it stay put.
#[allow(clippy::too_many_arguments)]
fn lanes_to_join(
    code: &CompiledCode,
    lanes: &mut [u64],
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    stats: &mut ExecStats,
    set: u32,
    x: usize,
    join: usize,
) -> Result<(), (usize, Result<SplitCause, ExecError>)> {
    for l in lockstep::lanes_of(set) {
        let from = way(code, lanes, x, l);
        lane_out(regs, lanes, l);
        ctx.shadow.who = l as u8 + 1;
        let exit = if ctx.shadow.on {
            exec::<1, true, true>(code, regs, ctx, from, join, stats)
        } else {
            exec::<1, false, true>(code, regs, ctx, from, join, stats)
        };
        match exit {
            Ok(Exit::Split { cause, .. }) => return Err((l, Ok(cause))),
            Ok(_) => lane_in(lanes, regs, l),
            Err(e) => return Err((l, Err(e))),
        }
    }
    Ok(())
}

/// Runs the `LANES` items in `lanes` in lockstep, as far as that goes,
/// getting past the branches they disagree on as [`lockstep`] describes.
/// Whatever else they cannot take together, a chunk that checks who
/// touches what puts memory and `stats` back as it found them, ends the
/// checking for its launch and returns `false`: its items are yet to run,
/// one by one from op 0. Any other copies each lane to `regs` and finishes
/// it from its own op — a waiting one from the join — in lane order:
/// whatever the split was over, a fault included, then happens to one
/// item, on the path that reports it, after every item before it has run
/// to its end.
fn run_chunk(
    launch: &Launch<'_>,
    lanes: &mut [u64],
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    stats: &mut ExecStats,
    counts: &mut LaneCounts,
) -> Result<bool, ExecError> {
    let code = launch.code;
    counts.chunks += 1;
    let (checks, found) = (ctx.shadow.on, stats.instructions);
    // The op the waiting lanes wait at; `NEVER` while none does.
    let (mut ip, mut join) = (0, NEVER);
    let (x, cause) = loop {
        let live = ALL & !ctx.shadow.parked.lanes;
        let before = stats.instructions;
        let exit = match (checks, join) {
            (false, NEVER) => exec::<LANES, false, false>(code, lanes, ctx, ip, NEVER, stats),
            (false, _) => exec::<LANES, false, true>(code, lanes, ctx, ip, join, stats),
            (true, NEVER) => exec::<LANES, true, false>(code, lanes, ctx, ip, NEVER, stats),
            (true, _) => exec::<LANES, true, true>(code, lanes, ctx, ip, join, stats),
        }?;
        // The waiting columns rode along: only the live lanes retire.
        let ran = (stats.instructions - before) / LANES as u64;
        stats.instructions = before + ran * u64::from(live.count_ones());
        let Exit::Split { ip: x, cause } = exit else {
            // Every lane is done, or the live ones are at the join.
            if join >= code.ops.len() {
                ctx.shadow.parked.lanes = 0;
                if checks {
                    ctx.shadow.settle(None);
                }
                return Ok(true);
            }
            ctx.shadow.parked.restore(lanes, code.vary());
            (ip, join) = (join, NEVER);
            continue;
        };
        let to = match cause {
            SplitCause::Branch if join != NEVER => Some(join),
            SplitCause::Branch if checks || launch.masks => code.join_of(launch.kernel, x),
            _ => None,
        };
        let Some(to) = to else {
            break (x, cause);
        };
        counts.splits[cause as usize] += 1;
        stats.instructions += u64::from(code.ops[x].covers) * u64::from(live.count_ones());
        let goes = sent_to(code, lanes, x, live, to);
        let stays = live & !goes;
        if goes != 0 && stays.count_ones() as usize >= LANES / 4 {
            // One way is the join, so the lanes that stay all take the
            // other.
            let first = lockstep::lanes_of(stays).next().expect("a lane stays");
            counts.masked += 1;
            ctx.shadow.parked.park(lanes, code.vary(), goes, first);
            (ip, join) = (way(code, lanes, x, first), to);
            continue;
        }
        // Too few go on to be worth a chunk, neither way is the join (an
        // if/else, a `?:`, a `&&`) and none is there yet, or the others
        // wait at another join: each goes to the join alone.
        ctx.shadow.parked.restore(lanes, code.vary());
        if let Err((l, why)) = lanes_to_join(code, lanes, regs, ctx, stats, stays, x, to) {
            if checks {
                break (x, why.unwrap_or(SplitCause::Fault));
            }
            // Every lane before it is at the join: one of them fails
            // first, if any does.
            for l in 0..l {
                lane_out(regs, lanes, l);
                exec::<1, false, false>(code, regs, ctx, to, NEVER, stats)?;
            }
            let Err(e) = why else {
                unreachable!("a lane by itself does not split")
            };
            return Err(e);
        }
        counts.rejoins += 1;
        (ip, join) = (to, NEVER);
    };
    let waiting = std::mem::take(&mut ctx.shadow.parked.lanes);
    if checks {
        let full = ctx.shadow.settle(Some(ctx.mem)) == lockstep::TOUCHED_CAP;
        let why = match cause {
            SplitCause::Unproven if full => Abort::Overflow,
            SplitCause::Unproven => Abort::Conflict,
            _ => Abort::Fault,
        };
        counts.aborts[why as usize] += 1;
        stats.instructions = found;
        ctx.shadow.on = false;
        return Ok(false);
    }
    counts.splits[cause as usize] += 1;
    let late = |l: usize| lockstep::waived(Waive::Order) && waiting >> l & 1 == 1;
    for l in (0..LANES)
        .filter(|&l| !late(l))
        .chain((0..LANES).filter(|&l| late(l)))
    {
        lane_out(regs, lanes, l);
        let from = if waiting >> l & 1 == 1 {
            ctx.shadow.parked.own(regs, code.vary(), l);
            join
        } else {
            x
        };
        exec::<1, false, false>(code, regs, ctx, from, NEVER, stats)?;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::KernelReport;
    use crate::diag::Span;
    use crate::types::AddressSpace;

    /// A hand-built kernel over `(__global int* out, int n)`.
    fn hand_built(name: &str, code: Vec<Instr>, n_slots: u16) -> CompiledKernel {
        CompiledKernel {
            name: name.to_string(),
            params: vec![
                ParamType::Pointer(AddressSpace::Global, ScalarType::I32),
                ParamType::Scalar(ScalarType::I32),
            ],
            spans: vec![Span::default(); code.len()],
            code,
            n_slots,
            static_local_bytes: 0,
            uses_barrier: false,
            barrier_sites: vec![],
            local_arrays: vec![],
            report: KernelReport::default(),
            lowered: Default::default(),
        }
    }

    /// `out[at] = <value on the stack>` as `StoreMem(elem)` expects it:
    /// the instructions that push the pointer.
    fn out_at(at: i64) -> [Instr; 3] {
        [
            Instr::LoadLocal(0),
            Instr::PushInt(at, ScalarType::I32),
            Instr::PtrAdd,
        ]
    }

    /// Two edges into pc 5 with different stack depths: the typing pass
    /// has no single location for the value at the join.
    fn uneven_join() -> CompiledKernel {
        let mut code = vec![
            Instr::LoadLocal(1),
            Instr::PushInt(0, ScalarType::I32),
            Instr::Cmp(CmpKind::Gt, ScalarType::I32),
            Instr::JumpIfFalse(5),
            Instr::PushInt(7, ScalarType::I32),
        ];
        code.extend(out_at(0));
        code.extend([
            Instr::LoadLocal(1),
            Instr::StoreMem(ScalarType::I32),
            // Past the buffer when `n` is large: the error path.
            Instr::LoadLocal(0),
            Instr::LoadLocal(1),
            Instr::PtrAdd,
            Instr::PushInt(1, ScalarType::I32),
            Instr::StoreMem(ScalarType::I32),
            Instr::Return,
        ]);
        hand_built("uneven_join", code, 2)
    }

    /// Slot 2 stored as `int`, then as `float`.
    fn retyped_slot() -> CompiledKernel {
        let mut code = vec![
            Instr::LoadLocal(1),
            Instr::StoreLocal(2),
            Instr::PushFloat(2.5, ScalarType::F32),
            Instr::StoreLocal(2),
        ];
        code.extend(out_at(1));
        code.extend([
            Instr::LoadLocal(2),
            Instr::StoreMem(ScalarType::F32),
            Instr::LoadLocal(0),
            Instr::LoadLocal(1),
            Instr::PtrAdd,
            Instr::LoadLocal(2),
            Instr::StoreMem(ScalarType::F32),
            Instr::Return,
        ]);
        hand_built("retyped_slot", code, 3)
    }

    /// pc 1 is first reached with nothing recorded for it (only the
    /// backward jump at pc 3 leads there), and that edge then arrives
    /// with one value on the stack.
    fn late_edge() -> CompiledKernel {
        let code = vec![
            Instr::Jump(2),
            Instr::Return,
            Instr::PushInt(5, ScalarType::I32),
            Instr::Jump(1),
        ];
        hand_built("late_edge", code, 2)
    }

    /// Every construct of the subset, so that a front-end shape the
    /// typing pass cannot follow shows up here and not as a silent
    /// interpreter run.
    const EVERY_CONSTRUCT: &str = r#"
        __kernel void shapes(__global float* a, __global float* b, __global int* out,
                             __local int* scratch, int n, uint u, long w, ulong z,
                             float f, double d) {
            __local float tile[4][4];
            __local int flat[16];
            int i = get_global_id(0);
            int l = get_local_id(0);
            int dim = n & 1;
            tile[l & 3][i & 3] = a[i] * f;
            flat[l] = scratch[l] + (int)get_local_size(dim);
            barrier(CLK_LOCAL_MEM_FENCE);
            a = b;
            a = a + 1;
            b = b - (l & 1);
            bool both = (i < n && u > 3u) || !(w != 0);
            int picked = both ? flat[15 - l] : (int)z;
            out[i] += picked++ + --dim;
            out[both ? i : 0] = (int)min(both, i > 2) + (int)tile[i & 3][l & 3];
            for (int k = 0; k < 3; k++) {
                if (k == 1) continue;
                if (picked > 100) break;
                a[k] += b[k] * f + (float)d;
            }
            do { w = w >> 1; u = u << 1; z = z / 3 % 5; } while (w > 8);
            while (n > 0) { n = n - 1; }
            out[get_work_dim()] = (int)(w ^ ~(long)u) + (int)fmod(d, 2.0) + (int)-f;
        }
    "#;

    #[test]
    fn sema_output_is_typed_and_hand_built_misfits_are_not() {
        let opts = crate::CompileOptions {
            analysis: crate::AnalysisMode::Off,
        };
        let program = crate::compile_with_options(EVERY_CONSTRUCT, &opts).expect("compiles");
        assert!(!lower(program.kernel("shapes").expect("kernel")).fallback);
        assert!(lower(&uneven_join()).fallback);
        assert!(lower(&retyped_slot()).fallback);
        assert!(lower(&late_edge()).fallback);
    }

    /// `sema` never emits a cast between equal types, but one to the
    /// same float type is not a no-op: it quiets a signalling NaN.
    #[test]
    fn a_float_cast_to_its_own_type_quiets_like_the_interpreter() {
        let mut code = Vec::from(out_at(1));
        code.extend(out_at(0));
        code.extend([
            Instr::LoadMem(ScalarType::F32),
            Instr::Cast {
                from: ScalarType::F32,
                to: ScalarType::F32,
            },
            Instr::StoreMem(ScalarType::F32),
            Instr::Return,
        ]);
        let kernel = hand_built("recast", code, 2);
        assert!(!lower(&kernel).fallback);
        let run = |engine| {
            let mut buffers = vec![GlobalBuffer::from_i32(&[0x7f80_0001, 0])];
            let args = [ArgValue::global(0), ArgValue::from_i32(0)];
            let range = NdRange::linear(1, 1);
            run_ndrange_with_engine(&kernel, &args, &mut buffers, &range, engine).expect("runs");
            buffers[0].as_i32()[1]
        };
        assert_eq!(run(EngineKind::Interp), 0x7fc0_0001);
        assert_eq!(run(EngineKind::Compiled), 0x7fc0_0001);
    }

    /// A kernel somebody holds on to is lowered by its first launch and
    /// by no other; the memo is not part of a kernel's value, so a clone
    /// lowers once more and runs the same.
    #[test]
    fn a_held_kernel_is_lowered_once() {
        let source = "__kernel void held_once(__global int* out, int k) {
            out[get_global_id(0)] = k * 1000003 + 77;
        }";
        let program = crate::compile(source).expect("compiles");
        let kernel = std::sync::Arc::new(program.kernel("held_once").expect("kernel").clone());
        let args = [ArgValue::global(0), ArgValue::from_i32(3)];
        let range = NdRange::linear(4, 4);
        let launch = |kernel: &CompiledKernel| {
            let mut buffers = vec![GlobalBuffer::zeroed(16)];
            let stats =
                run_ndrange_with_engine(kernel, &args, &mut buffers, &range, EngineKind::Compiled)
                    .expect("runs");
            (buffers, stats)
        };
        let before = LOWERINGS.get();
        let first = launch(&kernel);
        assert_eq!(first.0[0].as_i32(), [3_000_086; 4]);
        for _ in 1..1_000 {
            assert_eq!(launch(&kernel), first);
        }
        assert_eq!(LOWERINGS.get() - before, 1);
        let copy = CompiledKernel::clone(&kernel);
        assert_eq!(copy, *kernel);
        assert_eq!(launch(&copy), first);
        assert_eq!(launch(&copy), first);
        assert_eq!(LOWERINGS.get() - before, 2);
    }

    /// Bytecode the typing pass refuses runs on the interpreter, so the
    /// compiled driver gives the reference's bytes, statistics and errors.
    #[test]
    fn untypable_bytecode_matches_the_interpreter_on_every_engine() {
        for kernel in [uneven_join(), retyped_slot()] {
            // In range, then an index past the four-element buffer.
            for n in [2, 0, 400] {
                let args = [ArgValue::global(0), ArgValue::from_i32(n)];
                let range = NdRange::linear(4, 2);
                let run = |engine| {
                    let mut buffers = vec![GlobalBuffer::from_i32(&[9; 4])];
                    let outcome =
                        run_ndrange_with_engine(&kernel, &args, &mut buffers, &range, engine)
                            .map_err(|e| (e.kind(), e.to_string()));
                    (outcome, buffers)
                };
                let (want, want_bytes) = run(EngineKind::Interp);
                assert_eq!(want.is_err(), n == 400, "{}: n = {n}", kernel.name);
                let (got, bytes) = run(EngineKind::Compiled);
                assert_eq!(got, want, "{}, n = {n}", kernel.name);
                if want.is_ok() {
                    assert_eq!(bytes, want_bytes, "{}", kernel.name);
                }
            }
        }
    }
}
