//! When a launch may run its work-items `LANES` at a time, and how often
//! it did.
//!
//! Lockstep reorders execution *within* a chunk of consecutive local-x
//! items: instead of item 0 running to its end, then item 1, every lane
//! takes op 0, then every lane takes op 1. Registers are per lane, so the
//! only way one lane could tell is through memory — by touching a byte
//! another lane of its chunk writes. [`gate`] admits a launch only when
//! the effect prover rules that out:
//!
//! * no barrier and no `__local` memory, which exist to share;
//! * every written argument's buffer is bound to that parameter alone,
//!   its effect summary is `complete`, and every access to it — loads
//!   too — is the one provable shape `get_global_id(0) + k`. Lanes of a
//!   chunk differ in `get_global_id(0)` and in nothing else, so each
//!   touches its own element of every written buffer; everything else
//!   is only read.
//!
//! Chunks themselves still run one after another, rows in `(z, y)`
//! order, and groups in `(z, y, x)` order, so nothing else about the
//! schedule moves.
//!
//! The counters are the engine's self-report ([`lockstep_stats`]): plain
//! relaxed atomics, bumped once per launch or refusal, never part of
//! [`super::ExecStats`] — those are the interpreter's numbers.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::analysis::effects::PatternBase;
use crate::ast::ParamType;
use crate::bytecode::CompiledKernel;
use crate::types::AddressSpace;

use super::regops::LANES;
use super::ArgValue;

/// Why a launch wide enough for lockstep runs item by item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Refusal {
    /// The kernel carries no effect summary (analysis off, hand-built).
    NoEffects,
    /// A written argument's pattern set overflowed.
    Incomplete,
    /// A written argument's buffer is bound to another parameter too.
    Aliased,
    /// An access to a written argument is not the one provable shape
    /// along dimension 0.
    Pattern,
    /// The kernel has a barrier.
    Barrier,
    /// The kernel has `__local` memory.
    Local,
}

/// Label values of the split counters, indexed by
/// [`super::regops::SplitCause`].
const SPLIT_CAUSES: [&str; 3] = ["branch", "fault", "root"];

/// Label values of the refusal counters, indexed by [`Refusal`].
const REFUSALS: [&str; 6] = [
    "no_effects",
    "incomplete",
    "aliased",
    "pattern",
    "barrier",
    "local",
];

/// Checks that every written argument of `kernel` is a global buffer
/// bound to one parameter, with a complete summary whose patterns are
/// all the same provable `get_global_id(0) + k`.
fn written_args_private(kernel: &CompiledKernel, args: &[ArgValue]) -> Result<(), Refusal> {
    let effects = &kernel.report.effects;
    if effects.is_empty() || args.len() != effects.args.len() {
        return Err(Refusal::NoEffects);
    }
    for (i, eff) in effects.args.iter().enumerate() {
        if !eff.mode.writes() {
            continue;
        }
        let ArgValue::GlobalBuffer(buf) = args[i] else {
            return Err(Refusal::Pattern);
        };
        // In-launch aliasing would let another argument's (possibly
        // unprovable) patterns reach these bytes.
        let aliased = args
            .iter()
            .enumerate()
            .any(|(j, a)| j != i && matches!(a, ArgValue::GlobalBuffer(b) if *b == buf));
        if aliased {
            return Err(Refusal::Aliased);
        }
        if !eff.complete {
            return Err(Refusal::Incomplete);
        }
        let Some(first) = eff.patterns.first() else {
            return Err(Refusal::Pattern);
        };
        let one_shape = eff
            .patterns
            .iter()
            .all(|p| p.provable && p.coeffs == first.coeffs && p.base == first.base);
        // `provable` guarantees exactly one unit coefficient, on the
        // dimension of its `Geom { id, .. }` (group-base) base.
        let along_x = matches!(first.base, PatternBase::Geom { id: 0, .. });
        if !one_shape || !along_x || first.coeffs[0] != 1 {
            return Err(Refusal::Pattern);
        }
    }
    Ok(())
}

/// Whether no lane of a chunk can observe another lane's stores, so the
/// launch may run lockstep. A refusal is counted.
pub(super) fn gate(kernel: &CompiledKernel, has_barrier: bool, args: &[ArgValue]) -> bool {
    let has_local = kernel.static_local_bytes > 0
        || kernel
            .params
            .iter()
            .any(|p| matches!(p, ParamType::Pointer(AddressSpace::Local, _)));
    let verdict = if has_barrier {
        Err(Refusal::Barrier)
    } else if has_local {
        Err(Refusal::Local)
    } else {
        written_args_private(kernel, args)
    };
    if let Err(why) = verdict {
        REFUSED[why as usize].fetch_add(1, Ordering::Relaxed);
    }
    verdict.is_ok()
}

// --- self-report -------------------------------------------------------------

/// What one launch's groups did, added to the process-wide counters when
/// it ends.
#[derive(Default)]
pub(super) struct LaneCounts {
    /// Chunks entered in lockstep.
    pub(super) chunks: u64,
    /// Of those, the ones that split, by [`super::regops::SplitCause`].
    pub(super) splits: [u64; 3],
}

static CHUNKS: AtomicU64 = AtomicU64::new(0);
static SPLITS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
static REFUSED: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

pub(super) fn record(counts: &LaneCounts) {
    if counts.chunks > 0 {
        CHUNKS.fetch_add(counts.chunks, Ordering::Relaxed);
        for (total, n) in SPLITS.iter().zip(counts.splits) {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The compiled engine's lockstep counters, process-wide since start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Work-items per chunk.
    pub lanes: u64,
    /// Chunks of `lanes` work-items entered in lockstep.
    pub chunks: u64,
    /// Of those, the chunks whose lanes split and finished one by one,
    /// by cause: `branch`, `fault`, `root`.
    pub splits: [(&'static str, u64); 3],
    /// Launches wide enough for a chunk that the gate refused, by
    /// reason: `no_effects`, `incomplete`, `aliased`, `pattern`,
    /// `barrier`, `local`.
    pub refused: [(&'static str, u64); 6],
}

/// Reads the lockstep counters.
pub fn lockstep_stats() -> LockstepStats {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    LockstepStats {
        lanes: LANES as u64,
        chunks: load(&CHUNKS),
        splits: std::array::from_fn(|i| (SPLIT_CAUSES[i], load(&SPLITS[i]))),
        refused: std::array::from_fn(|i| (REFUSALS[i], load(&REFUSED[i]))),
    }
}
