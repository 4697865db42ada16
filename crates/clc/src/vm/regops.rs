//! The compiled engine's instruction set: small monomorphic functions
//! over an untagged register file.
//!
//! A register is eight bytes and carries no tag — the typing pass in
//! `compiled.rs` fixed every operand's type at lowering time and picked
//! the function instantiated for it, so nothing here inspects a
//! [`Value`] or a [`ScalarType`] on the `Ok` path. Each scalar type has
//! one canonical encoding (the [`Scalar`] impls below): integers are
//! held so that the register *is* `Value::to_i64_lossy` (`int`
//! sign-extended, `uint` zero-extended, `bool` 0/1), floats as their bit
//! pattern. Integer arithmetic therefore runs in `i64` and re-normalizes
//! exactly like [`super::ops::bin_op`] does.
//!
//! A pointer is a pair of registers: the element offset, and a *root id*
//! naming the buffer (or the `__local` arena) in the launch's
//! [`Root`] table. Pointer arithmetic touches the offset only.
//!
//! Failures are built out of line by the same helpers the interpreter
//! uses (`bin_op`, `Value::as_index`, `checked_offset`), parked in
//! [`Ctx::fault`], and signalled by [`Halt::Fault`], so the success path
//! returns in registers and every message is the interpreter's, byte for
//! byte. The same goes for the one value that is not a function of the
//! source, the bits of a NaN (see "Float arithmetic" below).
//!
//! Every body is generic over a lane count `L` and acts on a register
//! file laid out `[register][lane]`: register `r` of lane `l` is word
//! `r * L + l`. `L = 1` is one work-item in the plain layout; `L =`
//! [`LANES`] is a chunk of consecutive work-items taking each op
//! together. A lane-wide op completes for every lane or changes nothing
//! and reports [`Halt::Split`] — where one item would fault, where the
//! lanes disagree on a branch, where they disagree on which buffer a
//! pointer names, where the buffer is one whose [`Class`] does not let
//! them touch it together — and the driver finishes the lanes one by one
//! from that op on the `L = 1` instantiation of the same bodies, which
//! is where errors are built and reported. (Not so the `owned` loads and
//! stores: they can halt half done, and their driver undoes the chunk.)

use std::hint::black_box;

use crate::bytecode::{BinKind, CmpKind, Math1, Math2};
use crate::types::ScalarType;

use super::lockstep::Shadow;
use super::ops::{bin_op, dangling_buffer, math1, math2, neg_op};
use super::{checked_offset, ExecError, GlobalBuffer, Value};

/// What a pointer's root id resolves to for one launch.
#[derive(Clone, Copy)]
pub(super) enum Root {
    /// Index into the launch's bound global buffers, and what a chunk
    /// may do to that buffer.
    Global(usize, Class),
    /// The work-group local arena.
    Local,
}

/// What the lanes of a chunk may do to a buffer together, decided per
/// launch by [`super::lockstep::classify`]. One item (`L = 1`) never
/// asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    /// No item of the launch stores to it: a chunk may load.
    Shared,
    /// Every item touches its own elements and no two lanes of a chunk
    /// are the same element: a chunk may load and store.
    Private,
    /// Neither is shown: a chunk checks lane by lane that it is so all the
    /// same ([`Shadow`]), or, one having failed, splits at its first access.
    Serial,
}

/// Items a lockstep chunk runs side by side. 16 measured fastest of 8,
/// 16 and 32 on the benchmark's element-wise kernels: wide enough to
/// amortise a dispatch, narrow enough that a 64-item group is four full
/// chunks and the register file of a chunk stays in L1.
pub(super) const LANES: usize = 16;

/// Why the lanes of a chunk could not take an op together.
#[derive(Clone, Copy)]
pub(super) enum SplitCause {
    /// They disagree on a conditional branch.
    Branch,
    /// At least one of them would fault.
    Fault,
    /// They disagree on the root of a pointer.
    Root,
    /// The op loads from a [`Class::Serial`] buffer, or stores to one that
    /// is not [`Class::Private`].
    Unproven,
}

/// Why an op did not complete.
pub(super) enum Halt {
    /// The item failed; the error is in [`Ctx::fault`].
    Fault,
    /// `L > 1` only: nothing was changed, and the lanes must be finished
    /// one at a time from this op on.
    Split(SplitCause),
}

/// Per-group execution context handed to every op.
pub(super) struct Ctx<'a> {
    pub(super) mem: &'a mut [GlobalBuffer],
    pub(super) arena: &'a mut [u8],
    /// Root id → memory region, resolved once per launch.
    pub(super) roots: &'a [Root],
    /// Which lane of the running chunk has touched which element, for
    /// the loads and stores of a chunk that checks ([`Ctx::touch`]).
    pub(super) shadow: &'a mut Shadow,
    pub(super) fault: Option<ExecError>,
}

/// The `N` bytes of element `off`, when in bounds. Agrees with
/// [`checked_offset`] on every input it accepts: `off < len / N` is
/// `off * N + N <= len`.
#[inline(always)]
fn element<const N: usize>(bytes: &[u8], off: i64) -> Option<&[u8; N]> {
    bytes.as_chunks::<N>().0.get(usize::try_from(off).ok()?)
}

#[inline(always)]
fn element_mut<const N: usize>(bytes: &mut [u8], off: i64) -> Option<&mut [u8; N]> {
    bytes
        .as_chunks_mut::<N>()
        .0
        .get_mut(usize::try_from(off).ok()?)
}

/// The canonical error for element `off` not fitting `len` bytes.
#[cold]
#[inline(never)]
fn out_of_bounds(off: i64, sz: usize, len: usize) -> ExecError {
    checked_offset(off, sz, len).expect_err("fast path accepts what this accepts")
}

impl Ctx<'_> {
    #[cold]
    #[inline(never)]
    fn fail(&mut self, e: ExecError) -> Halt {
        self.fault = Some(e);
        Halt::Fault
    }

    /// A lane cannot complete the op. One item builds and reports its
    /// error; a chunk, which has changed nothing yet, splits, and the
    /// item path's run of this very op reports it for the first lane in
    /// item order that fails.
    #[inline(always)]
    fn halt<const L: usize>(&mut self, error: impl FnOnce() -> ExecError) -> Halt {
        if L == 1 {
            self.fail(error())
        } else {
            Halt::Split(SplitCause::Fault)
        }
    }

    /// Element `offs[l]` of the region `root` names, for every lane.
    #[inline(always)]
    fn read<const L: usize, const N: usize>(
        &mut self,
        root: u64,
        offs: &[u64; L],
    ) -> Result<[[u8; N]; L], Halt> {
        let mut out = [[0u8; N]; L];
        let bytes: &[u8] = match self.roots[root as usize] {
            Root::Local => self.arena,
            Root::Global(_, Class::Serial) if L > 1 => {
                return Err(Halt::Split(SplitCause::Unproven))
            }
            Root::Global(b, _) => match self.mem.get(b) {
                Some(buf) => buf.as_bytes(),
                None => return Err(self.halt::<L>(|| dangling_buffer(b))),
            },
        };
        for (v, &off) in out.iter_mut().zip(offs) {
            match element(bytes, off as i64) {
                Some(bytes) => *v = *bytes,
                None => {
                    let len = bytes.len();
                    return Err(self.halt::<L>(|| out_of_bounds(off as i64, N, len)));
                }
            }
        }
        Ok(out)
    }

    /// Stores `vals[l]` to element `offs[l]` of the region `root` names:
    /// for every lane, or — a chunk validates all its lanes before it
    /// commits any — for none.
    #[inline(always)]
    fn write<const L: usize, const N: usize>(
        &mut self,
        root: u64,
        offs: &[u64; L],
        vals: [[u8; N]; L],
    ) -> Result<(), Halt> {
        let bytes: &mut [u8] = match self.roots[root as usize] {
            Root::Local => self.arena,
            Root::Global(_, class) if L > 1 && class != Class::Private => {
                return Err(Halt::Split(SplitCause::Unproven))
            }
            Root::Global(b, _) => match self.mem.get_mut(b) {
                Some(buf) => buf.as_bytes_mut(),
                None => return Err(self.halt::<L>(|| dangling_buffer(b))),
            },
        };
        if L > 1
            && offs
                .iter()
                .any(|&o| element::<N>(bytes, o as i64).is_none())
        {
            return Err(Halt::Split(SplitCause::Fault));
        }
        for (&off, v) in offs.iter().zip(vals) {
            match element_mut(bytes, off as i64) {
                Some(dst) => *dst = v,
                None => {
                    let len = bytes.len();
                    return Err(self.fail(out_of_bounds(off as i64, N, len)));
                }
            }
        }
        Ok(())
    }

    /// [`Ctx::read`] and, given `vals`, [`Ctx::write`] on bound buffer `b`
    /// for the lanes of a chunk that checks who touches what: each takes
    /// its element in the [`Shadow`] first, and one that reaches another
    /// lane's halts the chunk `Unproven` — after lanes before it may have
    /// stored: the driver undoes a chunk that halts here, whatever for.
    #[inline(always)]
    fn touch<const L: usize, const N: usize>(
        &mut self,
        b: usize,
        offs: &[u64; L],
        vals: Option<[[u8; N]; L]>,
    ) -> Result<[[u8; N]; L], Halt> {
        let Some(buf) = self.mem.get_mut(b) else {
            return Err(self.halt::<L>(|| dangling_buffer(b)));
        };
        let bytes = buf.as_bytes_mut();
        let (len, elems) = (bytes.len(), bytes.len() / N);
        let mut out = [[0u8; N]; L];
        for l in 0..L {
            let Some(at) = element_mut::<N>(bytes, offs[l] as i64) else {
                return Err(self.halt::<L>(|| out_of_bounds(offs[l] as i64, N, len)));
            };
            let me = if L == 1 {
                self.shadow.who
            } else {
                self.shadow.parked.mark(l)
            };
            if !self.shadow.claim(b, offs[l] as usize, me, at, elems) {
                return Err(Halt::Split(SplitCause::Unproven));
            }
            match vals {
                Some(vals) => *at = vals[l],
                None => out[l] = *at,
            }
        }
        Ok(out)
    }

    /// `Value::as_index` on a `ulong` register.
    #[inline(always)]
    fn index_u64<const L: usize>(&mut self, x: u64) -> Result<i64, Halt> {
        match i64::try_from(x) {
            Ok(i) => Ok(i),
            Err(_) => Err(self.halt::<L>(|| Value::U64(x).as_index().expect_err("exceeds i64"))),
        }
    }
}

// --- ops -------------------------------------------------------------------

/// What an op tells the dispatch loop to do next.
pub(super) enum Step {
    /// Fall through to the next op.
    Next,
    /// Continue at this op index.
    Jump(u32),
    /// Suspend the item at a barrier (the op's `a` is the resume pc).
    Barrier,
    /// The item finished.
    Done,
}

/// What an op returns: what to do next, or why it did not complete.
pub(super) type OpResult = Result<Step, Halt>;

pub(super) type OpFn = fn(&mut [u64], &mut Ctx<'_>, &Op) -> OpResult;

/// The instantiations of one op body the drivers run.
#[derive(Clone, Copy)]
pub(super) struct OpFns {
    /// `L = 1`: one work-item.
    pub(super) item: OpFn,
    /// `L = LANES`: a chunk in lockstep.
    pub(super) lanes: OpFn,
    /// For a load or a store: `[item, lanes]` for a chunk that checks who
    /// touches what, on a buffer some item stores to ([`load_owned`]).
    pub(super) owned: Option<[OpFn; 2]>,
}

/// [`OpFns`] of the body named, its lane count left off:
/// `op!(int_bin::<T, IAdd>)`; then of its `owned` body, if it has one.
macro_rules! op {
    ($f:ident) => {
        OpFns { item: $f::<1>, lanes: $f::<LANES>, owned: None }
    };
    ($f:ident::<$($g:tt),+>) => {
        OpFns { item: $f::<1, $($g),+>, lanes: $f::<LANES, $($g),+>, owned: None }
    };
    ($f:ident::<$($g:tt),+>, $o:ident) => {
        OpFns { owned: Some([$o::<1, $($g),+>, $o::<LANES, $($g),+>]), ..op!($f::<$($g),+>) }
    };
}

/// One lowered op: a function and the registers it reads and writes.
/// Which of `a..d` an op uses is documented on its function.
#[derive(Clone, Copy)]
pub(super) struct Op {
    /// The `L = 1` body; a chunk's is in [`super::compiled`]'s parallel
    /// table, so this stays four words.
    pub(super) run: OpFn,
    pub(super) dst: u32,
    pub(super) a: u32,
    pub(super) b: u32,
    pub(super) c: u32,
    pub(super) d: u32,
    /// How many bytecode instructions this op retires. Each instruction
    /// is retired by exactly one op on any executed path.
    pub(super) covers: u32,
}

/// A scalar type's canonical register encoding and its conversions,
/// mirroring `Value::{to_i64_lossy, to_f64_lossy, cast}` and
/// `ops::int_value`.
pub(super) trait Scalar {
    const FLOAT: bool;
    /// `Value::to_i64_lossy` of the register's value.
    fn to_i64(r: u64) -> i64;
    /// `Value::to_f64_lossy` of the register's value.
    fn to_f64(r: u64) -> f64;
    /// `ops::int_value(v, Self)`, encoded.
    fn from_i64(v: i64) -> u64;
    /// `x as Self` (for `bool`: `x != 0.0`), encoded.
    fn from_f64(x: f64) -> u64;
}

/// The integer types (and `bool`, which `bin_op` treats as one).
pub(super) trait Int: Scalar {
    const UNSIGNED: bool;
}

pub(super) struct BoolT;
pub(super) struct I32T;
pub(super) struct U32T;
pub(super) struct I64T;
pub(super) struct U64T;
pub(super) struct F32T;
pub(super) struct F64T;

macro_rules! int_scalar {
    ($T:ident, $unsigned:expr, |$r:ident| $to_f64:expr, |$v:ident| $from_i64:expr, |$x:ident| $from_f64:expr) => {
        impl Scalar for $T {
            const FLOAT: bool = false;
            #[inline(always)]
            fn to_i64(r: u64) -> i64 {
                r as i64
            }
            #[inline(always)]
            fn to_f64($r: u64) -> f64 {
                $to_f64
            }
            #[inline(always)]
            fn from_i64($v: i64) -> u64 {
                $from_i64
            }
            #[inline(always)]
            fn from_f64($x: f64) -> u64 {
                $from_f64
            }
        }
        impl Int for $T {
            const UNSIGNED: bool = $unsigned;
        }
    };
}

int_scalar!(
    BoolT,
    false,
    |r| r as i64 as f64,
    |v| u64::from(v != 0),
    |x| u64::from(x != 0.0)
);
int_scalar!(
    I32T,
    false,
    |r| r as i64 as f64,
    |v| v as i32 as i64 as u64,
    |x| x as i32 as i64 as u64
);
int_scalar!(
    U32T,
    true,
    |r| r as i64 as f64,
    |v| u64::from(v as u32),
    |x| u64::from(x as u32)
);
int_scalar!(I64T, false, |r| r as i64 as f64, |v| v as u64, |x| x as i64
    as u64);
int_scalar!(U64T, true, |r| r as f64, |v| v as u64, |x| x as u64);

#[inline(always)]
fn f32_of(r: u64) -> f32 {
    f32::from_bits(r as u32)
}

#[inline(always)]
fn f32_reg(x: f32) -> u64 {
    u64::from(x.to_bits())
}

impl Scalar for F32T {
    const FLOAT: bool = true;
    #[inline(always)]
    fn to_i64(r: u64) -> i64 {
        f32_of(r) as i64
    }
    #[inline(always)]
    fn to_f64(r: u64) -> f64 {
        f64::from(f32_of(r))
    }
    #[inline(always)]
    fn from_i64(v: i64) -> u64 {
        f32_reg(v as f32)
    }
    #[inline(always)]
    fn from_f64(x: f64) -> u64 {
        f32_reg(x as f32)
    }
}

impl Scalar for F64T {
    const FLOAT: bool = true;
    #[inline(always)]
    fn to_i64(r: u64) -> i64 {
        f64::from_bits(r) as i64
    }
    #[inline(always)]
    fn to_f64(r: u64) -> f64 {
        f64::from_bits(r)
    }
    #[inline(always)]
    fn from_i64(v: i64) -> u64 {
        (v as f64).to_bits()
    }
    #[inline(always)]
    fn from_f64(x: f64) -> u64 {
        x.to_bits()
    }
}

/// Encodes a scalar [`Value`] for a register; `None` for pointers.
pub(super) fn encode(v: Value) -> Option<(ScalarType, u64)> {
    Some(match v {
        Value::Bool(b) => (ScalarType::Bool, u64::from(b)),
        Value::I32(x) => (ScalarType::I32, x as i64 as u64),
        Value::U32(x) => (ScalarType::U32, u64::from(x)),
        Value::I64(x) => (ScalarType::I64, x as u64),
        Value::U64(x) => (ScalarType::U64, x),
        Value::F32(x) => (ScalarType::F32, f32_reg(x)),
        Value::F64(x) => (ScalarType::F64, x.to_bits()),
        Value::Ptr(_) => return None,
    })
}

/// Binds `$T` to the marker type of integer (or `bool`) type `$ty`
/// inside `$e`; evaluates `$else` for the float types.
macro_rules! with_int {
    ($ty:expr, $T:ident => $e:expr, $else:expr) => {
        match $ty {
            ScalarType::Bool => {
                type $T = BoolT;
                $e
            }
            ScalarType::I32 => {
                type $T = I32T;
                $e
            }
            ScalarType::U32 => {
                type $T = U32T;
                $e
            }
            ScalarType::I64 => {
                type $T = I64T;
                $e
            }
            ScalarType::U64 => {
                type $T = U64T;
                $e
            }
            ScalarType::F32 | ScalarType::F64 => $else,
        }
    };
}

/// Binds `$T` to the marker type of float type `$ty` inside `$e`.
macro_rules! with_float {
    ($ty:expr, $T:ident => $e:expr) => {
        if $ty == ScalarType::F32 {
            type $T = F32T;
            $e
        } else {
            type $T = F64T;
            $e
        }
    };
}

/// Binds `$T` to the marker type of scalar type `$ty` inside `$e`.
macro_rules! with_scalar {
    ($ty:expr, $T:ident => $e:expr) => {
        with_int!($ty, $T => $e, with_float!($ty, $T => $e))
    };
}

/// Register `r`, every lane.
#[inline(always)]
fn get<const L: usize>(regs: &[u64], r: u32) -> &[u64; L] {
    let at = r as usize * L;
    regs[at..at + L].try_into().expect("L lanes")
}

#[inline(always)]
fn set<const L: usize>(regs: &mut [u64], r: u32, v: [u64; L]) -> OpResult {
    let at = r as usize * L;
    regs[at..at + L].copy_from_slice(&v);
    Ok(Step::Next)
}

/// The value every lane of `v` holds, if they all hold the same one.
/// Branch-free: in lockstep they do, until the op that ends it.
#[inline(always)]
fn uniform<const L: usize>(v: &[u64; L]) -> Option<u64> {
    (v.iter().fold(0, |odd, x| odd | (x ^ v[0])) == 0).then_some(v[0])
}

/// `f` of each lane of `a` and `b`.
#[inline(always)]
fn zip<const L: usize>(a: &[u64; L], b: &[u64; L], f: impl Fn(u64, u64) -> u64) -> [u64; L] {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// `fast` of each lane of `a` and `b`, then `exact` in its place for the
/// lanes `odd(a, b, fast(a, b))` picks out. Every lane takes `fast`
/// first, so that loop is straight-line code whatever `exact` calls.
#[inline(always)]
fn zip_patched<const L: usize>(
    a: &[u64; L],
    b: &[u64; L],
    fast: impl Fn(u64, u64) -> u64,
    odd: impl Fn(u64, u64, u64) -> bool,
    exact: impl Fn(u64, u64) -> u64,
) -> [u64; L] {
    let mut v = zip(a, b, fast);
    if (0..L).any(|l| odd(a[l], b[l], v[l])) {
        for l in 0..L {
            if odd(a[l], b[l], v[l]) {
                v[l] = exact(a[l], b[l]);
            }
        }
    }
    v
}

// Data movement and control. Control ops keep their target in `c`.

/// `dst = a`
fn mov<const L: usize>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = *get::<L>(regs, op.a);
    set(regs, op.dst, v)
}

fn nop<const L: usize>(_: &mut [u64], _: &mut Ctx<'_>, _: &Op) -> OpResult {
    Ok(Step::Next)
}

fn jump<const L: usize>(_: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    Ok(Step::Jump(op.c))
}

/// Jumps to `c` when bool register `a` equals `b` (0 or 1).
fn branch<const L: usize>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    // A `bool` register holds 0 or 1, nothing else.
    let cond = uniform(get::<L>(regs, op.a)).ok_or(Halt::Split(SplitCause::Branch))?;
    Ok(if cond == u64::from(op.b) {
        Step::Jump(op.c)
    } else {
        Step::Next
    })
}

/// Never reached in lockstep: a kernel with a barrier runs item by item.
fn barrier<const L: usize>(_: &mut [u64], _: &mut Ctx<'_>, _: &Op) -> OpResult {
    Ok(Step::Barrier)
}

fn ret<const L: usize>(_: &mut [u64], _: &mut Ctx<'_>, _: &Op) -> OpResult {
    Ok(Step::Done)
}

pub(super) const MOV: OpFns = op!(mov);
pub(super) const NOP: OpFns = op!(nop);
pub(super) const JUMP: OpFns = op!(jump);
pub(super) const BRANCH: OpFns = op!(branch);
pub(super) const BARRIER: OpFns = op!(barrier);
pub(super) const RET: OpFns = op!(ret);

// Integer arithmetic, in `i64` like `bin_op`.

trait IntBin {
    /// `None` when the divisor is zero.
    fn apply<T: Int>(x: i64, y: i64) -> Option<i64>;
}

macro_rules! int_bin {
    ($Name:ident, |$x:ident, $y:ident, $T:ident| $e:expr) => {
        struct $Name;
        impl IntBin for $Name {
            #[inline(always)]
            fn apply<$T: Int>($x: i64, $y: i64) -> Option<i64> {
                $e
            }
        }
    };
}

int_bin!(IAdd, |x, y, T| Some(x.wrapping_add(y)));
int_bin!(ISub, |x, y, T| Some(x.wrapping_sub(y)));
int_bin!(IMul, |x, y, T| Some(x.wrapping_mul(y)));
int_bin!(IDiv, |x, y, T| if y == 0 {
    None
} else if T::UNSIGNED {
    Some((x as u64).wrapping_div(y as u64) as i64)
} else {
    Some(x.wrapping_div(y))
});
int_bin!(IRem, |x, y, T| if y == 0 {
    None
} else if T::UNSIGNED {
    Some((x as u64).wrapping_rem(y as u64) as i64)
} else {
    Some(x.wrapping_rem(y))
});
int_bin!(IShl, |x, y, T| Some(x.wrapping_shl(y as u32 & 63)));
int_bin!(IShr, |x, y, T| Some(if T::UNSIGNED {
    (x as u64).wrapping_shr(y as u32 & 63) as i64
} else {
    x.wrapping_shr(y as u32 & 63)
}));
int_bin!(IAnd, |x, y, T| Some(x & y));
int_bin!(IOr, |x, y, T| Some(x | y));
int_bin!(IXor, |x, y, T| Some(x ^ y));
int_bin!(IMin, |x, y, T| Some(if T::UNSIGNED {
    (x as u64).min(y as u64) as i64
} else {
    x.min(y)
}));
int_bin!(IMax, |x, y, T| Some(if T::UNSIGNED {
    (x as u64).max(y as u64) as i64
} else {
    x.max(y)
}));

/// The division-by-zero error, from the helper that owns its text.
#[cold]
#[inline(never)]
fn div_by_zero() -> ExecError {
    bin_op(BinKind::Div, ScalarType::I64, Value::I64(0), Value::I64(0))
        .expect_err("division by zero")
}

/// `dst = a <O> b` at integer type `T` (`min`/`max` included: `math2`
/// at an integer type is the same widen, operate, re-normalize).
fn int_bin<const L: usize, T: Int, O: IntBin>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let (a, b) = (get::<L>(regs, op.a), get::<L>(regs, op.b));
    let mut out = [0; L];
    for l in 0..L {
        match O::apply::<T>(a[l] as i64, b[l] as i64) {
            Some(r) => out[l] = T::from_i64(r),
            None => return Err(ctx.halt::<L>(div_by_zero)),
        }
    }
    set(regs, op.dst, out)
}

/// `dst = a * b + c` at integer type `T`: two `bin_op`s in one op.
fn int_mul_add<const L: usize, T: Int>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let (a, b, c) = (
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        get::<L>(regs, op.c),
    );
    let v: [u64; L] = std::array::from_fn(|l| {
        let m = T::from_i64((a[l] as i64).wrapping_mul(b[l] as i64)) as i64;
        T::from_i64(m.wrapping_add(c[l] as i64))
    });
    set(regs, op.dst, v)
}

// Float arithmetic. `bin_op` computes `float` in `f32` after an
// `f32 → f64 → f32` round trip of each operand, which is the identity on
// everything but a signalling NaN.
//
// Which NaN an operation yields — sign, quiet bit, payload — is the one
// part of its result that does not follow from the source: the hardware
// keeps its *first* NaN operand, the compiler may swap the operands of
// `+` and `*`, and it may delete a widen-and-narrow round trip together
// with the quieting it performs. So the typed code never produces a NaN
// itself. Every float op that sees one (in its result, or in an operand
// where an operation can swallow it) recomputes through the helper the
// interpreter calls, out of line, on operands the optimizer cannot see
// through: whatever that helper yields is by definition the answer.

/// The register encoding of a helper's scalar result.
fn bits(v: Value) -> u64 {
    encode(v).expect("float helpers return scalars").1
}

#[cold]
#[inline(never)]
fn bin_by_helper(kind: BinKind, ty: ScalarType, a: Value, b: Value) -> u64 {
    let (a, b) = black_box((a, b));
    bits(bin_op(kind, ty, a, b).expect("float arithmetic cannot fail"))
}

#[cold]
#[inline(never)]
fn neg_by_helper(ty: ScalarType, a: Value) -> u64 {
    bits(neg_op(ty, black_box(a)))
}

#[cold]
#[inline(never)]
fn cast_by_helper(a: Value, to: ScalarType) -> u64 {
    bits(black_box(a).cast(to))
}

#[cold]
#[inline(never)]
fn math1_by_helper(m: Math1, ty: ScalarType, a: Value) -> u64 {
    bits(math1(m, ty, black_box(a)))
}

#[cold]
#[inline(never)]
fn math2_by_helper(m: Math2, ty: ScalarType, a: Value, b: Value) -> u64 {
    let (a, b) = black_box((a, b));
    bits(math2(m, ty, a, b))
}

/// What the float ops need of `f32` and `f64`.
trait Real:
    Copy
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    fn is_nan(self) -> bool;
}

impl Real for f32 {
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
}

impl Real for f64 {
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
}

trait Float: Scalar {
    type V: Real;
    const TY: ScalarType;
    fn val(r: u64) -> Self::V;
    fn reg(v: Self::V) -> u64;
    /// The register as the tagged value the helpers take.
    fn value(r: u64) -> Value;
}

impl Float for F32T {
    type V = f32;
    const TY: ScalarType = ScalarType::F32;
    #[inline(always)]
    fn val(r: u64) -> f32 {
        f32_of(r)
    }
    #[inline(always)]
    fn reg(v: f32) -> u64 {
        f32_reg(v)
    }
    #[inline(always)]
    fn value(r: u64) -> Value {
        Value::F32(f32_of(r))
    }
}

impl Float for F64T {
    type V = f64;
    const TY: ScalarType = ScalarType::F64;
    #[inline(always)]
    fn val(r: u64) -> f64 {
        f64::from_bits(r)
    }
    #[inline(always)]
    fn reg(v: f64) -> u64 {
        v.to_bits()
    }
    #[inline(always)]
    fn value(r: u64) -> Value {
        Value::F64(f64::from_bits(r))
    }
}

trait FloatBin {
    const KIND: BinKind;
    fn apply<V: Real>(x: V, y: V) -> V;
}

macro_rules! float_bin {
    ($Name:ident, $kind:ident, $op:tt) => {
        struct $Name;
        impl FloatBin for $Name {
            const KIND: BinKind = BinKind::$kind;
            #[inline(always)]
            fn apply<V: Real>(x: V, y: V) -> V {
                x $op y
            }
        }
    };
}

float_bin!(FAdd, Add, +);
float_bin!(FSub, Sub, -);
float_bin!(FMul, Mul, *);
float_bin!(FDiv, Div, /);

/// `dst = a <O> b` at float type `F`. A NaN operand makes the result a
/// NaN, so the result is the only thing to test.
fn float_bin<const L: usize, F: Float, O: FloatBin>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let v = zip_patched(
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        |a, b| F::reg(O::apply(F::val(a), F::val(b))),
        |_, _, r| F::val(r).is_nan(),
        |a, b| bin_by_helper(O::KIND, F::TY, F::value(a), F::value(b)),
    );
    set(regs, op.dst, v)
}

/// The function for `Instr::Bin(kind, ty)`, or `None` where `bin_op`
/// rejects the pair (an integer-only operator at a float type).
pub(super) fn bin_fn(kind: BinKind, ty: ScalarType) -> Option<OpFns> {
    Some(with_int!(
        ty,
        T => match kind {
            BinKind::Add => op!(int_bin::<T, IAdd>),
            BinKind::Sub => op!(int_bin::<T, ISub>),
            BinKind::Mul => op!(int_bin::<T, IMul>),
            BinKind::Div => op!(int_bin::<T, IDiv>),
            BinKind::Rem => op!(int_bin::<T, IRem>),
            BinKind::Shl => op!(int_bin::<T, IShl>),
            BinKind::Shr => op!(int_bin::<T, IShr>),
            BinKind::And => op!(int_bin::<T, IAnd>),
            BinKind::Or => op!(int_bin::<T, IOr>),
            BinKind::Xor => op!(int_bin::<T, IXor>),
        },
        with_float!(ty, F => match kind {
            BinKind::Add => op!(float_bin::<F, FAdd>),
            BinKind::Sub => op!(float_bin::<F, FSub>),
            BinKind::Mul => op!(float_bin::<F, FMul>),
            BinKind::Div => op!(float_bin::<F, FDiv>),
            _ => return None,
        })
    ))
}

/// `a * b + c` at integer type `ty` (addition commutes exactly there, so
/// `c + a * b` is the same op); `None` at a float type.
pub(super) fn int_mul_add_fn(ty: ScalarType) -> Option<OpFns> {
    with_int!(ty, T => Some(op!(int_mul_add::<T>)), None)
}

// Comparisons: how `cmp_op` orders operands of one type.

/// The comparison domain `cmp_op` uses for a type.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum CmpClass {
    /// `bool`, `int`, `long`: as `i64`.
    Signed,
    /// `uint`, `ulong`: as `u64`.
    Unsigned,
    /// `float` — `f32 → f64` is exact, so comparing in `f32` matches.
    F32,
    F64,
}

impl CmpClass {
    pub(super) fn of(ty: ScalarType) -> CmpClass {
        match ty {
            ScalarType::Bool | ScalarType::I32 | ScalarType::I64 => CmpClass::Signed,
            ScalarType::U32 | ScalarType::U64 => CmpClass::Unsigned,
            ScalarType::F32 => CmpClass::F32,
            ScalarType::F64 => CmpClass::F64,
        }
    }
}

trait Domain {
    type V: PartialOrd;
    fn val(r: u64) -> Self::V;
}

struct SignedD;
struct UnsignedD;

impl Domain for SignedD {
    type V = i64;
    #[inline(always)]
    fn val(r: u64) -> i64 {
        r as i64
    }
}

impl Domain for UnsignedD {
    type V = u64;
    #[inline(always)]
    fn val(r: u64) -> u64 {
        r
    }
}

impl<F: Float> Domain for F {
    type V = F::V;
    #[inline(always)]
    fn val(r: u64) -> F::V {
        <F as Float>::val(r)
    }
}

trait Rel {
    fn holds<V: PartialOrd>(x: V, y: V) -> bool;
}

macro_rules! rel {
    ($Name:ident, $op:tt) => {
        struct $Name;
        impl Rel for $Name {
            #[inline(always)]
            fn holds<V: PartialOrd>(x: V, y: V) -> bool {
                x $op y
            }
        }
    };
}

rel!(REq, ==);
rel!(RNe, !=);
rel!(RLt, <);
rel!(RLe, <=);
rel!(RGt, >);
rel!(RGe, >=);

/// `dst = a <R> b` as a `bool`.
fn compare<const L: usize, D: Domain, R: Rel>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let v = zip(get::<L>(regs, op.a), get::<L>(regs, op.b), |a, b| {
        u64::from(R::holds(D::val(a), D::val(b)))
    });
    set(regs, op.dst, v)
}

/// The function for `Instr::Cmp(kind, _)` in `class`.
pub(super) fn cmp_fn(kind: CmpKind, class: CmpClass) -> OpFns {
    macro_rules! rels {
        ($D:ident) => {
            match kind {
                CmpKind::Eq => op!(compare::<$D, REq>),
                CmpKind::Ne => op!(compare::<$D, RNe>),
                CmpKind::Lt => op!(compare::<$D, RLt>),
                CmpKind::Le => op!(compare::<$D, RLe>),
                CmpKind::Gt => op!(compare::<$D, RGt>),
                CmpKind::Ge => op!(compare::<$D, RGe>),
            }
        };
    }
    match class {
        CmpClass::Signed => rels!(SignedD),
        CmpClass::Unsigned => rels!(UnsignedD),
        CmpClass::F32 => rels!(F32T),
        CmpClass::F64 => rels!(F64T),
    }
}

// Unary operators and conversions.

/// `ops::neg_op` at a float type. Off a NaN, the helper's round trip
/// through `f64` is the identity and negation flips the sign bit.
fn neg_float<const L: usize, F: Float>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let a = get::<L>(regs, op.a);
    let v = zip_patched(
        a,
        a,
        |a, _| F::reg(-F::val(a)),
        |a, _, _| F::val(a).is_nan(),
        |a, _| neg_by_helper(F::TY, F::value(a)),
    );
    set(regs, op.dst, v)
}

/// `ops::neg_op` at an integer type: negating in `i64` and truncating
/// equals truncating and negating.
fn neg_int<const L: usize, T: Int>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = get::<L>(regs, op.a).map(|a| T::from_i64((a as i64).wrapping_neg()));
    set(regs, op.dst, v)
}

/// Negating `bool` yields `int`, like the helper.
fn neg_bool<const L: usize>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = get::<L>(regs, op.a).map(|a| I32T::from_i64(-i64::from(a != 0)));
    set(regs, op.dst, v)
}

pub(super) fn neg_fn(ty: ScalarType) -> OpFns {
    if ty == ScalarType::Bool {
        return op!(neg_bool);
    }
    with_int!(ty, T => op!(neg_int::<T>), with_float!(ty, F => op!(neg_float::<F>)))
}

/// `int_value(!to_i64_lossy(a), T)`
fn bit_not<const L: usize, T: Scalar>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = get::<L>(regs, op.a).map(|a| T::from_i64(!T::to_i64(a)));
    set(regs, op.dst, v)
}

pub(super) fn bit_not_fn(ty: ScalarType) -> OpFns {
    with_scalar!(ty, T => op!(bit_not::<T>))
}

/// `dst = !a` on a `bool` register.
fn not_bool<const L: usize>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = get::<L>(regs, op.a).map(|a| a ^ 1);
    set(regs, op.dst, v)
}

pub(super) const NOT_BOOL: OpFns = op!(not_bool);

/// `Value::cast`: through `f64` when either side is a float, through
/// `i64` otherwise.
fn cast<const L: usize, S: Scalar, D: Scalar>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let v = get::<L>(regs, op.a).map(|r| {
        if S::FLOAT || D::FLOAT {
            D::from_f64(S::to_f64(r))
        } else {
            D::from_i64(S::to_i64(r))
        }
    });
    set(regs, op.dst, v)
}

/// A float-to-float cast: the only kind that hands a NaN through.
fn cast_float<const L: usize, S: Float, D: Float>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let a = get::<L>(regs, op.a);
    let v = zip_patched(
        a,
        a,
        |a, _| D::from_f64(S::to_f64(a)),
        |a, _, _| S::val(a).is_nan(),
        |a, _| cast_by_helper(S::value(a), D::TY),
    );
    set(regs, op.dst, v)
}

pub(super) fn cast_fn(from: ScalarType, to: ScalarType) -> OpFns {
    if from.is_float() && to.is_float() {
        return with_float!(from, S => with_float!(to, D => op!(cast_float::<S, D>)));
    }
    with_scalar!(from, S => with_scalar!(to, D => op!(cast::<S, D>)))
}

// Math builtins, computed in `f64` and narrowed like `ops::math1/math2`.

trait Fn1 {
    const KIND: Math1;
    fn f(x: f64) -> f64;
}

macro_rules! fn1 {
    ($Name:ident, |$x:ident| $e:expr) => {
        struct $Name;
        impl Fn1 for $Name {
            const KIND: Math1 = Math1::$Name;
            #[inline(always)]
            fn f($x: f64) -> f64 {
                $e
            }
        }
    };
}

fn1!(Sqrt, |x| x.sqrt());
fn1!(Rsqrt, |x| 1.0 / x.sqrt());
fn1!(Abs, |x| x.abs());
fn1!(Exp, |x| x.exp());
fn1!(Log, |x| x.ln());
fn1!(Log2, |x| x.log2());
fn1!(Sin, |x| x.sin());
fn1!(Cos, |x| x.cos());
fn1!(Tan, |x| x.tan());
fn1!(Floor, |x| x.floor());
fn1!(Ceil, |x| x.ceil());

/// Every one-argument builtin maps a NaN to a NaN, so the result is the
/// only thing to test.
fn float_math1<const L: usize, F: Float, M: Fn1>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    // The narrowed result is a NaN exactly when the `f64` one is.
    let a = get::<L>(regs, op.a);
    let v = zip_patched(
        a,
        a,
        |a, _| F::from_f64(M::f(F::to_f64(a))),
        |_, _, r| F::val(r).is_nan(),
        |a, _| math1_by_helper(M::KIND, F::TY, F::value(a)),
    );
    set(regs, op.dst, v)
}

/// `math1` at an integer type is `abs`, whatever the builtin.
fn int_abs<const L: usize, T: Int>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = get::<L>(regs, op.a).map(|a| T::from_i64((a as i64).wrapping_abs()));
    set(regs, op.dst, v)
}

/// The function for `CallMath1(m, ty)`; `ty` is `int`-like or a float.
pub(super) fn math1_fn(m: Math1, ty: ScalarType) -> OpFns {
    with_int!(
        ty,
        T => op!(int_abs::<T>),
        with_float!(ty, F => match m {
            Math1::Sqrt => op!(float_math1::<F, Sqrt>),
            Math1::Rsqrt => op!(float_math1::<F, Rsqrt>),
            Math1::Abs => op!(float_math1::<F, Abs>),
            Math1::Exp => op!(float_math1::<F, Exp>),
            Math1::Log => op!(float_math1::<F, Log>),
            Math1::Log2 => op!(float_math1::<F, Log2>),
            Math1::Sin => op!(float_math1::<F, Sin>),
            Math1::Cos => op!(float_math1::<F, Cos>),
            Math1::Tan => op!(float_math1::<F, Tan>),
            Math1::Floor => op!(float_math1::<F, Floor>),
            Math1::Ceil => op!(float_math1::<F, Ceil>),
        })
    )
}

trait Fn2 {
    const KIND: Math2;
    fn f(x: f64, y: f64) -> f64;
}

macro_rules! fn2 {
    ($Name:ident, |$x:ident, $y:ident| $e:expr) => {
        struct $Name;
        impl Fn2 for $Name {
            const KIND: Math2 = Math2::$Name;
            #[inline(always)]
            fn f($x: f64, $y: f64) -> f64 {
                $e
            }
        }
    };
}

fn2!(Pow, |x, y| x.powf(y));
fn2!(Min, |x, y| x.min(y));
fn2!(Max, |x, y| x.max(y));
fn2!(Fmod, |x, y| x % y);

/// `fmin`, `fmax` and `pow` can return a number for a NaN operand, so
/// the operands are tested as well as the result.
fn float_math2<const L: usize, F: Float, M: Fn2>(
    regs: &mut [u64],
    _: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let v = zip_patched(
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        |a, b| F::from_f64(M::f(F::to_f64(a), F::to_f64(b))),
        |a, b, r| F::val(a).is_nan() || F::val(b).is_nan() || F::val(r).is_nan(),
        |a, b| math2_by_helper(M::KIND, F::TY, F::value(a), F::value(b)),
    );
    set(regs, op.dst, v)
}

/// The function for `CallMath2(m, ty)`, or `None` for a float-only
/// builtin at an integer type (`math2` panics there).
pub(super) fn math2_fn(m: Math2, ty: ScalarType) -> Option<OpFns> {
    Some(with_int!(
        ty,
        T => match m {
            Math2::Min => op!(int_bin::<T, IMin>),
            Math2::Max => op!(int_bin::<T, IMax>),
            Math2::Pow | Math2::Fmod => return None,
        },
        with_float!(ty, F => match m {
            Math2::Pow => op!(float_math2::<F, Pow>),
            Math2::Min => op!(float_math2::<F, Min>),
            Math2::Max => op!(float_math2::<F, Max>),
            Math2::Fmod => op!(float_math2::<F, Fmod>),
        })
    ))
}

// Pointers and memory. A load widens the element to its canonical
// register form; a store needs only the element's size.

/// `dst = a + b` on element offsets (`b` any integer but `ulong`).
fn ptr_add<const L: usize>(regs: &mut [u64], _: &mut Ctx<'_>, op: &Op) -> OpResult {
    let v = zip(
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        u64::wrapping_add,
    );
    set(regs, op.dst, v)
}

/// [`ptr_add`] with a `ulong` index, which must fit `i64`.
fn ptr_add_u64<const L: usize>(regs: &mut [u64], ctx: &mut Ctx<'_>, op: &Op) -> OpResult {
    let (a, b) = (get::<L>(regs, op.a), get::<L>(regs, op.b));
    let mut out = [0; L];
    for l in 0..L {
        out[l] = a[l].wrapping_add(ctx.index_u64::<L>(b[l])? as u64);
    }
    set(regs, op.dst, out)
}

pub(super) const PTR_ADD: OpFns = op!(ptr_add);
pub(super) const PTR_ADD_U64: OpFns = op!(ptr_add_u64);

trait Widen<const N: usize> {
    fn widen(bytes: [u8; N]) -> u64;
}

struct BoolByte;
struct SignedWord;
struct Zeroed;

impl Widen<1> for BoolByte {
    #[inline(always)]
    fn widen(bytes: [u8; 1]) -> u64 {
        u64::from(bytes[0] != 0)
    }
}

impl Widen<4> for SignedWord {
    #[inline(always)]
    fn widen(bytes: [u8; 4]) -> u64 {
        i32::from_le_bytes(bytes) as i64 as u64
    }
}

impl Widen<4> for Zeroed {
    #[inline(always)]
    fn widen(bytes: [u8; 4]) -> u64 {
        u64::from(u32::from_le_bytes(bytes))
    }
}

impl Widen<8> for Zeroed {
    #[inline(always)]
    fn widen(bytes: [u8; 8]) -> u64 {
        u64::from_le_bytes(bytes)
    }
}

/// The one root id in register `r`: lanes that took the same ops hold
/// the same roots.
#[inline(always)]
fn root_of<const L: usize>(regs: &[u64], r: u32) -> Result<u64, Halt> {
    uniform(get::<L>(regs, r)).ok_or(Halt::Split(SplitCause::Root))
}

/// `dst = root(c)[a]`
fn load<const L: usize, const N: usize, W: Widen<N>>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let bytes = ctx.read::<L, N>(root_of::<L>(regs, op.c)?, get(regs, op.a))?;
    set(regs, op.dst, bytes.map(W::widen))
}

/// `dst = root(c)[a + b]`: [`ptr_add`] folded into the load.
fn load_indexed<const L: usize, const N: usize, W: Widen<N>>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let offs = zip(
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        u64::wrapping_add,
    );
    let bytes = ctx.read::<L, N>(root_of::<L>(regs, op.c)?, &offs)?;
    set(regs, op.dst, bytes.map(W::widen))
}

/// The low `N` bytes of a canonical register are the element's bytes
/// for every type of that size (`bool` is 0/1).
#[inline(always)]
fn narrow<const N: usize>(r: u64) -> [u8; N] {
    *r.to_le_bytes().first_chunk::<N>().expect("N <= 8")
}

/// `root(c)[a] = d`
fn store<const L: usize, const N: usize>(regs: &mut [u64], ctx: &mut Ctx<'_>, op: &Op) -> OpResult {
    let vals = get::<L>(regs, op.d).map(narrow::<N>);
    ctx.write::<L, N>(root_of::<L>(regs, op.c)?, get(regs, op.a), vals)?;
    Ok(Step::Next)
}

/// `root(c)[a + b] = d`
fn store_indexed<const L: usize, const N: usize>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let offs = zip(
        get::<L>(regs, op.a),
        get::<L>(regs, op.b),
        u64::wrapping_add,
    );
    let vals = get::<L>(regs, op.d).map(narrow::<N>);
    ctx.write::<L, N>(root_of::<L>(regs, op.c)?, &offs, vals)?;
    Ok(Step::Next)
}

/// For the `owned` bodies, which the driver picks for a chunk that checks
/// who touches what where some item stores to the first lane's buffer:
/// that buffer and the elements `a + b` (`b` zeros where `a` is all).
#[inline(always)]
fn owned<const L: usize>(regs: &[u64], ctx: &Ctx<'_>, op: &Op) -> Result<(usize, [u64; L]), Halt> {
    let Root::Global(buf, _) = ctx.roots[root_of::<L>(regs, op.c)? as usize] else {
        unreachable!("the driver saw a global buffer in the first lane");
    };
    let (a, b) = (get::<L>(regs, op.a), get::<L>(regs, op.b));
    Ok((buf, zip(a, b, u64::wrapping_add)))
}

/// [`load`] and [`load_indexed`], each lane taking its element first.
fn load_owned<const L: usize, const N: usize, W: Widen<N>>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let (buf, offs) = owned::<L>(regs, ctx, op)?;
    let bytes = ctx.touch::<L, N>(buf, &offs, None)?;
    set(regs, op.dst, bytes.map(W::widen))
}

/// [`store`] and [`store_indexed`], each lane taking its element first.
fn store_owned<const L: usize, const N: usize>(
    regs: &mut [u64],
    ctx: &mut Ctx<'_>,
    op: &Op,
) -> OpResult {
    let (buf, offs) = owned::<L>(regs, ctx, op)?;
    let vals = get::<L>(regs, op.d).map(narrow::<N>);
    ctx.touch::<L, N>(buf, &offs, Some(vals))?;
    Ok(Step::Next)
}

/// `(load, load_indexed)` for elements of type `elem`.
pub(super) fn load_fns(elem: ScalarType) -> (OpFns, OpFns) {
    macro_rules! loads {
        ($N:tt, $W:tt) => {
            (
                op!(load::<$N, $W>, load_owned),
                op!(load_indexed::<$N, $W>, load_owned),
            )
        };
    }
    match elem {
        ScalarType::Bool => loads!(1, BoolByte),
        ScalarType::I32 => loads!(4, SignedWord),
        ScalarType::U32 | ScalarType::F32 => loads!(4, Zeroed),
        ScalarType::I64 | ScalarType::U64 | ScalarType::F64 => loads!(8, Zeroed),
    }
}

/// `(store, store_indexed)` for elements of type `elem`.
pub(super) fn store_fns(elem: ScalarType) -> (OpFns, OpFns) {
    macro_rules! stores {
        ($N:tt) => {
            (
                op!(store::<$N>, store_owned),
                op!(store_indexed::<$N>, store_owned),
            )
        };
    }
    match elem.size_bytes() {
        1 => stores!(1),
        4 => stores!(4),
        _ => stores!(8),
    }
}

/// `dst = geometry[b + min(a, 2)]` for a dimension only known at run
/// time; `c != 0` when the dimension is a `ulong` that must fit `i64`.
fn query<const L: usize>(regs: &mut [u64], ctx: &mut Ctx<'_>, op: &Op) -> OpResult {
    let dims = get::<L>(regs, op.a);
    let mut out = [0; L];
    for (l, (v, &dim)) in out.iter_mut().zip(dims).enumerate() {
        let dim = if op.c != 0 {
            ctx.index_u64::<L>(dim)?
        } else {
            dim as i64
        };
        *v = get::<L>(regs, op.b + (dim as usize).min(2) as u32)[l];
    }
    set(regs, op.dst, out)
}

pub(super) const QUERY: OpFns = op!(query);
