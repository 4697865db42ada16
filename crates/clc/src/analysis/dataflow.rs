//! A small forward-dataflow framework over the kernel CFG, plus the
//! abstract domain the checks interpret bytecode in.
//!
//! Abstract scalar values track a *linear form* over the work-item's local
//! ids (`c0·lid(0) + c1·lid(1) + c2·lid(2) + uniform part`) next to a
//! value interval. The form answers "is this the same for every work-item
//! in the group?" (all coefficients zero, not tainted) and "does this
//! index provably touch a distinct element per work-item?" (unit
//! coefficients over the dimensions the kernel actually queries). Values
//! the form cannot represent — data-dependent loads, non-linear
//! arithmetic — collapse to *tainted*.

use std::collections::VecDeque;
use std::ops::{Add, Mul, Neg, Sub};

use crate::analysis::cfg::Cfg;
use crate::bytecode::Instr;

/// A forward, monotone dataflow problem.
pub trait ForwardAnalysis {
    /// The per-program-point abstract state.
    type State: Clone + PartialEq;

    /// State on entry to the kernel.
    fn boundary(&self) -> Self::State;

    /// Applies one instruction's effect.
    fn transfer(&mut self, state: &mut Self::State, pc: usize, instr: &Instr);

    /// Joins `from` into `into`; returns whether `into` changed.
    fn join(&self, into: &mut Self::State, from: &Self::State) -> bool;

    /// A block whose transfer has grown since the last call, if any: an
    /// analysis that learns while it runs names the blocks it must see
    /// again, and [`solve`] re-visits those it has reached.
    fn take_grown(&mut self) -> Option<usize>;
}

/// Runs `analysis` to a fixpoint; returns the block-entry state per block
/// (`None` for blocks unreachable from the entry).
pub fn solve<A: ForwardAnalysis>(
    cfg: &Cfg,
    code: &[Instr],
    analysis: &mut A,
) -> Vec<Option<A::State>> {
    let n = cfg.blocks.len();
    let mut input: Vec<Option<A::State>> = vec![None; n];
    if n == 0 {
        return input;
    }
    let mut st = analysis.boundary();
    input[0] = Some(st.clone());
    let mut queued = vec![false; n];
    let mut work = VecDeque::from([0usize]);
    queued[0] = true;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        st.clone_from(input[b].as_ref().expect("queued blocks have input state"));
        let block = &cfg.blocks[b];
        for (pc, instr) in code.iter().enumerate().take(block.end).skip(block.start) {
            analysis.transfer(&mut st, pc, instr);
        }
        for &s in &cfg.blocks[b].succs {
            let changed = match &mut input[s] {
                Some(cur) => analysis.join(cur, &st),
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
            };
            if changed && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
        while let Some(g) = analysis.take_grown() {
            if input[g].is_some() && !queued[g] {
                queued[g] = true;
                work.push_back(g);
            }
        }
    }
    input
}

// ---------------------------------------------------------------------------
// The abstract domain.
// ---------------------------------------------------------------------------

/// The group-uniform part of a linear form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uoff {
    /// A compile-time constant.
    Known(i64),
    /// `symbolic value + constant`: a group-uniform unknown with a stable
    /// identity (parameter slot, geometry query, …), so `n - 1` and `n - 1`
    /// compare equal while `n - 1` and `m - 1` do not.
    Sym {
        /// Stable identity of the uniform unknown.
        id: u32,
        /// Constant addend.
        add: i64,
    },
    /// Group-uniform, but with no usable identity.
    Opaque,
}

/// A linear form over local ids: `Σ coeffs[d]·lid(d) + uoff`, or tainted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Form {
    /// Per-dimension `lid` coefficients (meaningless when `tainted`).
    pub coeffs: [i64; 3],
    /// The group-uniform part (meaningless when `tainted`).
    pub uoff: Uoff,
    /// Work-item-dependent in a way the form cannot represent.
    pub tainted: bool,
}

impl Form {
    /// The canonical tainted form.
    pub fn top() -> Form {
        Form {
            coeffs: [0; 3],
            uoff: Uoff::Opaque,
            tainted: true,
        }
    }

    /// A compile-time constant.
    pub fn constant(c: i64) -> Form {
        Form {
            coeffs: [0; 3],
            uoff: Uoff::Known(c),
            tainted: false,
        }
    }

    /// A group-uniform unknown with identity `id`.
    pub fn uniform_sym(id: u32) -> Form {
        Form {
            coeffs: [0; 3],
            uoff: Uoff::Sym { id, add: 0 },
            tainted: false,
        }
    }

    /// A group-uniform unknown without identity.
    pub fn uniform_opaque() -> Form {
        Form {
            coeffs: [0; 3],
            uoff: Uoff::Opaque,
            tainted: false,
        }
    }

    /// Exactly `lid(d)`.
    pub fn lid(d: usize) -> Form {
        let mut coeffs = [0; 3];
        coeffs[d] = 1;
        Form {
            coeffs,
            uoff: Uoff::Known(0),
            tainted: false,
        }
    }

    /// `gid(d)` = `lid(d)` plus a group-uniform offset with identity `id`.
    pub fn gid(d: usize, id: u32) -> Form {
        let mut coeffs = [0; 3];
        coeffs[d] = 1;
        Form {
            coeffs,
            uoff: Uoff::Sym { id, add: 0 },
            tainted: false,
        }
    }

    /// Whether the value is the same for every work-item in the group.
    pub fn is_uniform(&self) -> bool {
        !self.tainted && self.coeffs == [0; 3]
    }

    /// Whether the value may differ between work-items.
    pub fn is_item_dependent(&self) -> bool {
        self.tainted || self.coeffs != [0; 3]
    }

    /// This form with the taint bit set (canonicalized).
    pub fn taint(self) -> Form {
        Form::top()
    }

    fn add_uoff(a: Uoff, b: Uoff) -> Uoff {
        match (a, b) {
            (Uoff::Known(x), Uoff::Known(y)) => x.checked_add(y).map_or(Uoff::Opaque, Uoff::Known),
            (Uoff::Sym { id, add }, Uoff::Known(k)) | (Uoff::Known(k), Uoff::Sym { id, add }) => {
                add.checked_add(k)
                    .map_or(Uoff::Opaque, |add| Uoff::Sym { id, add })
            }
            _ => Uoff::Opaque,
        }
    }

    /// `self * k` for a compile-time constant `k`.
    pub fn scale(self, k: i64) -> Form {
        if self.tainted {
            return Form::top();
        }
        let mut coeffs = [0i64; 3];
        for (c, a) in coeffs.iter_mut().zip(self.coeffs.iter()) {
            match a.checked_mul(k) {
                Some(scaled) => *c = scaled,
                None => return Form::top(),
            }
        }
        let uoff = match self.uoff {
            Uoff::Known(x) => x.checked_mul(k).map_or(Uoff::Opaque, Uoff::Known),
            Uoff::Sym { id, add } if k == 1 => Uoff::Sym { id, add },
            _ => Uoff::Opaque,
        };
        Form {
            coeffs,
            uoff,
            tainted: false,
        }
    }

    /// Uniform-preserving combination for operators the form cannot track
    /// (division, shifts, bitwise ops, comparisons, math builtins).
    pub fn opaque_combine(self, other: Form) -> Form {
        if self.is_uniform() && other.is_uniform() {
            Form::uniform_opaque()
        } else {
            Form::top()
        }
    }

    /// Join across control-flow paths.
    pub fn join(self, other: Form) -> Form {
        if self == other {
            return self;
        }
        if self.tainted || other.tainted || self.coeffs != other.coeffs {
            return Form::top();
        }
        Form {
            coeffs: self.coeffs,
            uoff: if self.uoff == other.uoff {
                self.uoff
            } else {
                Uoff::Opaque
            },
            tainted: false,
        }
    }
}

impl Add for Form {
    type Output = Form;

    fn add(self, other: Form) -> Form {
        if self.tainted || other.tainted {
            return Form::top();
        }
        let mut coeffs = [0i64; 3];
        for (c, (a, b)) in coeffs
            .iter_mut()
            .zip(self.coeffs.iter().zip(other.coeffs.iter()))
        {
            match a.checked_add(*b) {
                Some(sum) => *c = sum,
                None => return Form::top(),
            }
        }
        Form {
            coeffs,
            uoff: Form::add_uoff(self.uoff, other.uoff),
            tainted: false,
        }
    }
}

impl Sub for Form {
    type Output = Form;

    fn sub(self, other: Form) -> Form {
        if self.tainted || other.tainted {
            return Form::top();
        }
        let mut coeffs = [0i64; 3];
        for (c, (a, b)) in coeffs
            .iter_mut()
            .zip(self.coeffs.iter().zip(other.coeffs.iter()))
        {
            match a.checked_sub(*b) {
                Some(diff) => *c = diff,
                None => return Form::top(),
            }
        }
        let uoff = match (self.uoff, other.uoff) {
            (Uoff::Known(x), Uoff::Known(y)) => x.checked_sub(y).map_or(Uoff::Opaque, Uoff::Known),
            (Uoff::Sym { id, add }, Uoff::Known(k)) => add
                .checked_sub(k)
                .map_or(Uoff::Opaque, |add| Uoff::Sym { id, add }),
            (Uoff::Sym { id: a, add: x }, Uoff::Sym { id: b, add: y }) if a == b => {
                // n - n cancels: a pure constant.
                x.checked_sub(y).map_or(Uoff::Opaque, Uoff::Known)
            }
            _ => Uoff::Opaque,
        };
        Form {
            coeffs,
            uoff,
            tainted: false,
        }
    }
}

impl Neg for Form {
    type Output = Form;

    fn neg(self) -> Form {
        Form::constant(0) - self
    }
}

/// Precise when one side is a constant; `top` otherwise (unless both
/// sides are group-uniform, which stays uniform-opaque).
impl Mul for Form {
    type Output = Form;

    fn mul(self, other: Form) -> Form {
        if self.tainted || other.tainted {
            return Form::top();
        }
        if let Uoff::Known(k) = self.uoff {
            if self.coeffs == [0; 3] {
                return other.scale(k);
            }
        }
        if let Uoff::Known(k) = other.uoff {
            if other.coeffs == [0; 3] {
                return self.scale(k);
            }
        }
        if self.is_uniform() && other.is_uniform() {
            return Form::uniform_opaque();
        }
        Form::top()
    }
}

/// A value interval with widening (best-effort; `TOP` when unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Iv {
    /// The unbounded interval.
    pub const TOP: Iv = Iv {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A singleton interval.
    pub fn constant(c: i64) -> Iv {
        Iv { lo: c, hi: c }
    }

    /// `[lo, hi]` (callers guarantee `lo <= hi`).
    pub fn range(lo: i64, hi: i64) -> Iv {
        Iv { lo, hi }
    }

    /// The constant, if the interval is a singleton.
    pub fn as_const(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn sat(v: i128) -> i64 {
        v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Join with widening: a bound that grew jumps straight to ±∞ so loops
    /// terminate (the price is losing loop-carried bounds — best-effort).
    pub fn widen_join(self, o: Iv) -> Iv {
        Iv {
            lo: if o.lo < self.lo { i64::MIN } else { self.lo },
            hi: if o.hi > self.hi { i64::MAX } else { self.hi },
        }
    }
}

impl Add for Iv {
    type Output = Iv;

    fn add(self, o: Iv) -> Iv {
        Iv {
            lo: Iv::sat(self.lo as i128 + o.lo as i128),
            hi: Iv::sat(self.hi as i128 + o.hi as i128),
        }
    }
}

impl Sub for Iv {
    type Output = Iv;

    fn sub(self, o: Iv) -> Iv {
        Iv {
            lo: Iv::sat(self.lo as i128 - o.hi as i128),
            hi: Iv::sat(self.hi as i128 - o.lo as i128),
        }
    }
}

impl Mul for Iv {
    type Output = Iv;

    fn mul(self, o: Iv) -> Iv {
        let products = [
            self.lo as i128 * o.lo as i128,
            self.lo as i128 * o.hi as i128,
            self.hi as i128 * o.lo as i128,
            self.hi as i128 * o.hi as i128,
        ];
        Iv {
            lo: Iv::sat(*products.iter().min().expect("non-empty")),
            hi: Iv::sat(*products.iter().max().expect("non-empty")),
        }
    }
}

impl Neg for Iv {
    type Output = Iv;

    fn neg(self) -> Iv {
        Iv {
            lo: Iv::sat(-(self.hi as i128)),
            hi: Iv::sat(-(self.lo as i128)),
        }
    }
}

/// What a pointer points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrBase {
    /// A `__global` (or `__constant`) buffer parameter, by slot.
    Global(u16),
    /// A statically-declared `__local` array, by arena byte offset.
    LocalArray(u32),
    /// A dynamic `__local` pointer parameter, by slot.
    LocalDyn(u16),
    /// Joined from different bases.
    Unknown,
}

/// An abstract scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sc {
    /// Linear form over local ids.
    pub form: Form,
    /// Value interval.
    pub range: Iv,
}

impl Sc {
    /// The unknown, work-item-dependent scalar.
    pub fn top() -> Sc {
        Sc {
            form: Form::top(),
            range: Iv::TOP,
        }
    }

    /// A compile-time constant.
    pub fn constant(c: i64) -> Sc {
        Sc {
            form: Form::constant(c),
            range: Iv::constant(c),
        }
    }
}

/// An abstract pointer: base plus element-offset form/interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pt {
    /// What the pointer points into.
    pub base: PtrBase,
    /// Element offset from the base, as a linear form.
    pub form: Form,
    /// Element offset interval.
    pub range: Iv,
}

/// An abstract stack/slot value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AV {
    /// A scalar.
    Scalar(Sc),
    /// A pointer.
    Ptr(Pt),
}

impl AV {
    /// The unknown scalar.
    pub fn top() -> AV {
        AV::Scalar(Sc::top())
    }

    /// The scalar inside, or the unknown scalar for pointers (defensive).
    pub fn as_scalar(&self) -> Sc {
        match self {
            AV::Scalar(s) => *s,
            AV::Ptr(_) => Sc::top(),
        }
    }

    /// Join across control-flow paths (interval side uses widening).
    pub fn join(self, other: AV) -> AV {
        match (self, other) {
            (AV::Scalar(a), AV::Scalar(b)) => AV::Scalar(Sc {
                form: a.form.join(b.form),
                range: a.range.widen_join(b.range),
            }),
            (AV::Ptr(a), AV::Ptr(b)) => AV::Ptr(Pt {
                base: if a.base == b.base {
                    a.base
                } else {
                    PtrBase::Unknown
                },
                form: a.form.join(b.form),
                range: a.range.widen_join(b.range),
            }),
            _ => AV::top(),
        }
    }

    /// Taints the form (scalar or pointer offset).
    pub fn taint(self) -> AV {
        match self {
            AV::Scalar(s) => AV::Scalar(Sc {
                form: s.form.taint(),
                range: s.range,
            }),
            AV::Ptr(p) => AV::Ptr(Pt {
                form: p.form.taint(),
                ..p
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_linear_arithmetic() {
        let l = Form::lid(0);
        let n = Form::uniform_sym(7);
        // n - 1 - l  →  coeff -1, uoff Sym{7, -1}
        let f = n - Form::constant(1) - l;
        assert_eq!(f.coeffs, [-1, 0, 0]);
        assert_eq!(f.uoff, Uoff::Sym { id: 7, add: -1 });
        assert!(f.is_item_dependent());
        // Same expression compares equal; different sym does not.
        let f2 = n - Form::constant(1) - l;
        assert_eq!(f, f2);
        let g = Form::uniform_sym(8) - Form::constant(1) - l;
        assert_ne!(f, g);
    }

    #[test]
    fn form_mul_by_constant_scales() {
        let y = Form::lid(1);
        let f = y * Form::constant(4) + Form::lid(0);
        assert_eq!(f.coeffs, [1, 4, 0]);
        assert_eq!(f.uoff, Uoff::Known(0));
    }

    #[test]
    fn form_nonlinear_taints() {
        let l = Form::lid(0);
        assert!((l * l).tainted);
        assert!((l * Form::uniform_sym(3)).tainted);
        assert!(l.opaque_combine(Form::constant(2)).tainted);
        assert!(
            !Form::uniform_sym(1)
                .opaque_combine(Form::constant(2))
                .tainted
        );
    }

    #[test]
    fn form_join_same_coeffs_stays_structured() {
        let a = Form::lid(0) + Form::constant(1);
        let b = Form::lid(0) + Form::constant(2);
        let j = a.join(b);
        assert_eq!(j.coeffs, [1, 0, 0]);
        assert_eq!(j.uoff, Uoff::Opaque);
        assert!(!j.tainted);
        assert!(Form::lid(0).join(Form::lid(1)).tainted);
    }

    #[test]
    fn interval_widening_terminates_growth() {
        let a = Iv::range(0, 10);
        let grown = a.widen_join(Iv::range(0, 11));
        assert_eq!(grown.hi, i64::MAX);
        assert_eq!(grown.lo, 0);
        let same = a.widen_join(Iv::range(2, 9));
        assert_eq!(same, a);
    }

    #[test]
    fn sub_cancels_matching_syms() {
        let n = Form::uniform_sym(5);
        let d = n + Form::constant(3) - n;
        assert_eq!(d.uoff, Uoff::Known(3));
        assert_eq!(d.coeffs, [0, 0, 0]);
    }
}
