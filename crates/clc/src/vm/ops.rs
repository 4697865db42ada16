//! Shared instruction semantics.
//!
//! The reference interpreter is written in these helpers, which makes
//! them the definition of arithmetic, conversion, memory and
//! math-builtin behaviour. The compiled engine's register ops
//! (`regops.rs`) compute the same functions on statically typed
//! registers, and come back here for every immediate they encode,
//! every error they raise and every NaN a float operation meets, so
//! messages and NaN bits are shared by construction and all other
//! values by the differential suites.

use crate::bytecode::{BinKind, CmpKind, Math1, Math2};
use crate::types::ScalarType;

use super::*;

pub(super) fn pop(stack: &mut Vec<Value>) -> Result<Value, ExecError> {
    stack
        .pop()
        .ok_or_else(|| ExecError::new("operand stack underflow"))
}

pub(super) fn int_value(v: i64, ty: ScalarType) -> Value {
    match ty {
        ScalarType::Bool => Value::Bool(v != 0),
        ScalarType::I32 => Value::I32(v as i32),
        ScalarType::U32 => Value::U32(v as u32),
        ScalarType::I64 => Value::I64(v),
        ScalarType::U64 => Value::U64(v as u64),
        ScalarType::F32 => Value::F32(v as f32),
        ScalarType::F64 => Value::F64(v as f64),
    }
}

/// The "dangling buffer binding" error, shared by every memory view.
pub(super) fn dangling_buffer(b: usize) -> ExecError {
    ExecError::new(format!("dangling buffer binding {b}"))
}

/// Loads one element from the work-group local arena.
pub(super) fn load_arena(arena: &[u8], elem: ScalarType, offset: i64) -> Result<Value, ExecError> {
    let sz = elem.size_bytes();
    let off = checked_offset(offset, sz, arena.len())?;
    Ok(decode_scalar(&arena[off..off + sz], elem))
}

/// Stores one element into the work-group local arena.
pub(super) fn store_arena(
    arena: &mut [u8],
    elem: ScalarType,
    offset: i64,
    v: &Value,
) -> Result<(), ExecError> {
    let sz = elem.size_bytes();
    let off = checked_offset(offset, sz, arena.len())?;
    write_scalar(&mut arena[off..off + sz], elem, v);
    Ok(())
}

pub(super) fn load_mem(
    p: Ptr,
    elem: ScalarType,
    buffers: &[GlobalBuffer],
    arena: &[u8],
) -> Result<Value, ExecError> {
    match p.space {
        PtrSpace::Global(b) => buffers
            .get(b)
            .ok_or_else(|| dangling_buffer(b))?
            .load(elem, p.offset),
        PtrSpace::Local => load_arena(arena, elem, p.offset),
    }
}

pub(super) fn store_mem(
    p: Ptr,
    elem: ScalarType,
    v: &Value,
    buffers: &mut [GlobalBuffer],
    arena: &mut [u8],
) -> Result<(), ExecError> {
    match p.space {
        PtrSpace::Global(b) => {
            let buf = buffers.get_mut(b).ok_or_else(|| dangling_buffer(b))?;
            buf.store(elem, p.offset, v)
        }
        PtrSpace::Local => store_arena(arena, elem, p.offset, v),
    }
}

pub(super) fn bin_op(
    kind: BinKind,
    ty: ScalarType,
    a: Value,
    b: Value,
) -> Result<Value, ExecError> {
    use ScalarType::*;
    if ty == F32 {
        // Compute in f32 so single-precision rounding matches real devices.
        let (x, y) = (a.to_f64_lossy() as f32, b.to_f64_lossy() as f32);
        let r = match kind {
            BinKind::Add => x + y,
            BinKind::Sub => x - y,
            BinKind::Mul => x * y,
            BinKind::Div => x / y,
            other => {
                return Err(ExecError::new(format!(
                    "float operands for integer operator {other:?}"
                )));
            }
        };
        return Ok(Value::F32(r));
    }
    if ty == F64 {
        let (x, y) = (a.to_f64_lossy(), b.to_f64_lossy());
        let r = match kind {
            BinKind::Add => x + y,
            BinKind::Sub => x - y,
            BinKind::Mul => x * y,
            BinKind::Div => x / y,
            other => {
                return Err(ExecError::new(format!(
                    "float operands for integer operator {other:?}"
                )));
            }
        };
        return Ok(Value::F64(r));
    }
    // Integer (and bool promoted earlier by sema).
    let (x, y) = (a.to_i64_lossy(), b.to_i64_lossy());
    let div_checked = |num: i64, den: i64| -> Result<i64, ExecError> {
        if den == 0 {
            Err(ExecError::new("integer division by zero"))
        } else {
            Ok(num)
        }
    };
    let r = match (kind, ty) {
        (BinKind::Add, _) => x.wrapping_add(y),
        (BinKind::Sub, _) => x.wrapping_sub(y),
        (BinKind::Mul, _) => x.wrapping_mul(y),
        (BinKind::Div, U32 | U64) => {
            div_checked(x, y)?;
            ((x as u64).wrapping_div(y as u64)) as i64
        }
        (BinKind::Div, _) => {
            div_checked(x, y)?;
            x.wrapping_div(y)
        }
        (BinKind::Rem, U32 | U64) => {
            div_checked(x, y)?;
            ((x as u64).wrapping_rem(y as u64)) as i64
        }
        (BinKind::Rem, _) => {
            div_checked(x, y)?;
            x.wrapping_rem(y)
        }
        (BinKind::Shl, _) => x.wrapping_shl(y as u32 & 63),
        (BinKind::Shr, U32 | U64) => ((x as u64).wrapping_shr(y as u32 & 63)) as i64,
        (BinKind::Shr, _) => x.wrapping_shr(y as u32 & 63),
        (BinKind::And, _) => x & y,
        (BinKind::Or, _) => x | y,
        (BinKind::Xor, _) => x ^ y,
    };
    // 32-bit types need masking before re-widening so wraparound matches C.
    Ok(match ty {
        I32 => Value::I32(r as i32),
        U32 => Value::U32(r as u32),
        I64 => Value::I64(r),
        U64 => Value::U64(r as u64),
        Bool => Value::Bool(r != 0),
        F32 | F64 => unreachable!("floats handled above"),
    })
}

pub(super) fn cmp_op(kind: CmpKind, ty: ScalarType, a: Value, b: Value) -> bool {
    if ty.is_float() {
        let (x, y) = (a.to_f64_lossy(), b.to_f64_lossy());
        match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        }
    } else if matches!(ty, ScalarType::U32 | ScalarType::U64) {
        let (x, y) = (a.to_i64_lossy() as u64, b.to_i64_lossy() as u64);
        match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        }
    } else {
        let (x, y) = (a.to_i64_lossy(), b.to_i64_lossy());
        match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        }
    }
}

pub(super) fn neg_op(ty: ScalarType, a: Value) -> Value {
    match ty {
        ScalarType::F32 => Value::F32(-(a.to_f64_lossy() as f32)),
        ScalarType::F64 => Value::F64(-a.to_f64_lossy()),
        ScalarType::I32 => Value::I32((a.to_i64_lossy() as i32).wrapping_neg()),
        ScalarType::U32 => Value::U32((a.to_i64_lossy() as u32).wrapping_neg()),
        ScalarType::I64 => Value::I64(a.to_i64_lossy().wrapping_neg()),
        ScalarType::U64 => Value::U64((a.to_i64_lossy() as u64).wrapping_neg()),
        ScalarType::Bool => Value::I32(-i64::from(a.to_i64_lossy() != 0) as i32),
    }
}

pub(super) fn math1(m: Math1, ty: ScalarType, a: Value) -> Value {
    if ty.is_integer() {
        // Only Abs reaches here for integers (sema guarantees).
        let x = a.to_i64_lossy();
        return int_value(x.wrapping_abs(), ty);
    }
    let x = a.to_f64_lossy();
    let r = match m {
        Math1::Sqrt => x.sqrt(),
        Math1::Rsqrt => 1.0 / x.sqrt(),
        Math1::Abs => x.abs(),
        Math1::Exp => x.exp(),
        Math1::Log => x.ln(),
        Math1::Log2 => x.log2(),
        Math1::Sin => x.sin(),
        Math1::Cos => x.cos(),
        Math1::Tan => x.tan(),
        Math1::Floor => x.floor(),
        Math1::Ceil => x.ceil(),
    };
    if ty == ScalarType::F32 {
        Value::F32(r as f32)
    } else {
        Value::F64(r)
    }
}

pub(super) fn math2(m: Math2, ty: ScalarType, a: Value, b: Value) -> Value {
    if ty.is_integer() {
        let (x, y) = (a.to_i64_lossy(), b.to_i64_lossy());
        let unsigned = matches!(ty, ScalarType::U32 | ScalarType::U64);
        let r = match m {
            Math2::Min => {
                if unsigned {
                    (x as u64).min(y as u64) as i64
                } else {
                    x.min(y)
                }
            }
            Math2::Max => {
                if unsigned {
                    (x as u64).max(y as u64) as i64
                } else {
                    x.max(y)
                }
            }
            Math2::Pow | Math2::Fmod => {
                // Sema types pow/fmod as floats, so this is unreachable.
                unreachable!("float-only builtin with integer type")
            }
        };
        return int_value(r, ty);
    }
    let (x, y) = (a.to_f64_lossy(), b.to_f64_lossy());
    let r = match m {
        Math2::Pow => x.powf(y),
        Math2::Min => x.min(y),
        Math2::Max => x.max(y),
        Math2::Fmod => x % y,
    };
    if ty == ScalarType::F32 {
        Value::F32(r as f32)
    } else {
        Value::F64(r)
    }
}
