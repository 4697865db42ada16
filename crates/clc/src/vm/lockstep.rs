//! What the lanes of a chunk may touch together, and how often they did.
//!
//! Lockstep reorders execution *within* a chunk of `LANES` consecutive
//! items: instead of item 0 running to its end, then item 1, every lane
//! takes op 0, then every lane takes op 1. Registers are per lane, so the
//! only way one lane could tell is through memory — by touching a byte
//! another lane of its chunk writes. [`gate`] turns away the launches
//! that exist to share (a barrier, `__local` memory) and those without an
//! effect summary; for the rest [`classify`] gives every bound buffer one
//! of three classes ([`Class`]), once per launch, from the summary:
//!
//! * **shared** — no parameter bound to it stores: a chunk may load;
//! * **private** — bound to one parameter whose summary is `complete` and
//!   whose every access, loads too, is the one provable shape
//!   `get_global_id(0) + k`, in a launch whose chunks each lie inside one
//!   row, so that lanes differ in `get_global_id(0)` and each touches its
//!   own element: a chunk may load and store;
//! * **serial** — everything else: the op that reaches it splits the
//!   chunk (`unproven`) having changed nothing, and the lanes finish one
//!   by one, in lane order, from that op.
//!
//! So a chunk runs in lockstep for a *prefix* of its items' ops. Up to
//! the split its lanes have touched only memory no item of the launch
//! writes, or their own elements of a private buffer, so every
//! interleaving of those prefixes leaves the memory item order leaves;
//! after it they run in item order. A store to a shared buffer splits
//! too: the engine never writes what it classified read-only.
//!
//! A group whose rows are narrower than a chunk but which holds `LANES`
//! items cuts its chunks from its linear `(z, y, x)` order. Two lanes of
//! such a chunk can share `get_global_id(0)`, so nothing is private
//! there. Chunks still run one after another, in item order, and groups
//! in `(z, y, x)` order, so nothing else about the schedule moves.
//!
//! The counters are the engine's self-report ([`lockstep_stats`]): plain
//! relaxed atomics, bumped once per launch or refusal, never part of
//! [`super::ExecStats`] — those are the interpreter's numbers.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::analysis::effects::{ArgEffect, PatternBase};
use crate::ast::ParamType;
use crate::bytecode::CompiledKernel;
use crate::types::AddressSpace;

use super::regops::{Class, LANES};
use super::ArgValue;

/// Why a launch with groups of at least a chunk runs item by item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// The kernel carries no effect summary (analysis off, hand-built).
    NoEffects,
    /// The kernel has a barrier.
    Barrier,
    /// The kernel has `__local` memory.
    Local,
}

/// Label values of the split counters, indexed by
/// [`super::regops::SplitCause`].
const SPLIT_CAUSES: [&str; 4] = ["branch", "fault", "root", "unproven"];

/// Label values of the refusal counters, indexed by [`Refusal`].
const REFUSALS: [&str; 3] = ["no_effects", "barrier", "local"];

/// Whether the launch may form chunks at all. A refusal is counted.
pub(super) fn gate(kernel: &CompiledKernel, has_barrier: bool, args: &[ArgValue]) -> bool {
    let has_local = kernel.static_local_bytes > 0
        || kernel
            .params
            .iter()
            .any(|p| matches!(p, ParamType::Pointer(AddressSpace::Local, _)));
    let effects = &kernel.report.effects;
    let why = if has_barrier {
        Refusal::Barrier
    } else if has_local {
        Refusal::Local
    } else if effects.is_empty() || args.len() != effects.args.len() {
        Refusal::NoEffects
    } else {
        return true;
    };
    REFUSED[why as usize].fetch_add(1, Ordering::Relaxed);
    false
}

/// Whether every access `eff` lists — and it lists them all — is the same
/// provable `get_global_id(0) + k`.
fn own_element_only(eff: &ArgEffect) -> bool {
    let Some(first) = eff.patterns.first() else {
        return false;
    };
    // `provable` guarantees exactly one unit coefficient, on the
    // dimension of its `Geom { id, .. }` (group-base) base.
    eff.complete
        && matches!(first.base, PatternBase::Geom { id: 0, .. })
        && eff
            .patterns
            .iter()
            .all(|p| p.provable && p.coeffs == first.coeffs && p.base == first.base)
}

/// The class of buffer `buf` in a launch [`gate`] passed. `in_rows`:
/// every chunk lies inside one row of its group.
pub(super) fn classify(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buf: usize,
    in_rows: bool,
) -> Class {
    // In-launch aliasing lets another parameter's (possibly unprovable)
    // accesses reach these bytes: the class is the buffer's.
    let bound = || {
        let effects = kernel.report.effects.args.iter();
        args.iter()
            .zip(effects)
            .filter(|(arg, _)| matches!(arg, ArgValue::GlobalBuffer(b) if *b == buf))
            .map(|(_, eff)| eff)
    };
    let class = if !bound().any(|eff| eff.mode.writes()) {
        Class::Shared
    } else if in_rows && bound().count() == 1 && bound().all(own_element_only) {
        Class::Private
    } else {
        Class::Serial
    };
    #[cfg(test)]
    let class = FORCED
        .get()
        .filter(|_| class == Class::Serial)
        .unwrap_or(class);
    class
}

#[cfg(test)]
thread_local! {
    /// What [`classify`] answers on this thread where the rules say
    /// `Serial`: the tests show each rule necessary by breaking it.
    static FORCED: std::cell::Cell<Option<Class>> = const { std::cell::Cell::new(None) };
}

// --- self-report -------------------------------------------------------------

/// What one launch's groups did, added to the process-wide counters when
/// it ends.
#[derive(Default)]
pub(super) struct LaneCounts {
    /// Chunks entered in lockstep.
    pub(super) chunks: u64,
    /// Of those, the ones that split, by [`super::regops::SplitCause`].
    pub(super) splits: [u64; 4],
}

static CHUNKS: AtomicU64 = AtomicU64::new(0);
static SPLITS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
static REFUSED: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

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
    /// by cause: `branch`, `fault`, `root`, `unproven` (the op reached a
    /// buffer the chunk may not touch together).
    pub splits: [(&'static str, u64); 4],
    /// Launches with groups of at least a chunk that ran no chunk, by
    /// reason: `no_effects`, `barrier`, `local`.
    pub refused: [(&'static str, u64); 3],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{run_ndrange_with_engine, EngineKind, GlobalBuffer, NdRange};

    /// Four kernels, one per rule of [`classify`], each leaving other
    /// bytes behind if the rule is waived.
    const ADVERSARIES: &str = r#"
    // (a) Every store is `get_global_id(0) + u` with `u` the same in every
    // lane, at two sites: lane l's second store and lane l + s's first are
    // one element, and item order lets the first win.
    __kernel void two_sites(__global float* out, int s) {
        int c = get_global_id(0);
        out[c] = (float)c;
        out[c + s] = (float)(c + 100);
    }

    // (b) `x` is only read — and, bound to the buffer `y` is, reads what
    // the item before stored.
    __kernel void carry(__global const float* x, __global float* y) {
        int i = get_global_id(0);
        y[i + 1] = x[i] + 1.0f;
    }

    // (c) Each item its own element, as long as no two items share
    // `get_global_id(0)`.
    __kernel void bump(__global float* y) {
        int i = get_global_id(0);
        y[i] = y[i] + 1.0f;
    }

    // (d) A late lane loads, through an index buffer, what an early lane
    // stores.
    __kernel void chase(__global const int* idx, __global float* y) {
        int i = get_global_id(0);
        y[i] = y[idx[i]] + 1.0f;
    }
    "#;

    const L: u64 = LANES as u64;

    fn ramp(n: u64) -> GlobalBuffer {
        GlobalBuffer::from_f32(&(0..n).map(|i| i as f32 * 0.5).collect::<Vec<_>>())
    }

    /// Whether the compiled engine leaves what the interpreter leaves,
    /// with every `Serial` verdict on this thread replaced by `forced`.
    fn matches_oracle(
        kernel: &CompiledKernel,
        args: &[ArgValue],
        buffers: &[GlobalBuffer],
        range: NdRange,
        forced: Option<Class>,
    ) -> bool {
        let run = |engine| {
            let mut buffers = buffers.to_vec();
            let stats = run_ndrange_with_engine(kernel, args, &mut buffers, &range, engine);
            (stats.expect("in bounds"), buffers)
        };
        let want = run(EngineKind::Interp);
        FORCED.set(forced);
        let got = run(EngineKind::Compiled);
        FORCED.set(None);
        got == want
    }

    #[test]
    fn each_classification_rule_is_necessary() {
        let program = crate::compile(ADVERSARIES).expect("compiles");
        let kernel = |name: &str| program.kernel(name).expect("kernel");
        let one = [ArgValue::global(0)];
        let line = NdRange::linear(4 * L, 2 * L);

        // (a) One shape per written buffer. The condition ROADMAP once
        // gave — each store `gid(0) + u`, `u` lane-uniform — holds for
        // every `s`; waived to it, the launch is right only where the two
        // sites are `0` or at least a chunk apart.
        let two_sites = kernel("two_sites");
        for (s, survives) in [(0, true), (1, false), (L - 1, false), (L, true)] {
            let args = [ArgValue::global(0), ArgValue::from_i32(s as i32)];
            let buffers = [ramp(4 * L + s)];
            assert_eq!(classify(two_sites, &args, 0, true), Class::Serial);
            assert!(matches_oracle(two_sites, &args, &buffers, line, None));
            assert_eq!(
                matches_oracle(two_sites, &args, &buffers, line, Some(Class::Private)),
                survives,
                "s = {s}"
            );
        }

        // (b) The class is the buffer's, not the parameter's.
        let carry = kernel("carry");
        let apart = [ArgValue::global(0), ArgValue::global(1)];
        assert_eq!(classify(carry, &apart, 0, true), Class::Shared);
        assert_eq!(classify(carry, &apart, 1, true), Class::Private);
        let aliased = [ArgValue::global(0), ArgValue::global(0)];
        let buffers = [ramp(4 * L + 1)];
        assert_eq!(classify(carry, &aliased, 0, true), Class::Serial);
        assert!(matches_oracle(carry, &aliased, &buffers, line, None));
        for waived in [Class::Shared, Class::Private] {
            assert!(!matches_oracle(
                carry,
                &aliased,
                &buffers,
                line,
                Some(waived)
            ));
        }

        // (c) Private needs every chunk inside one row.
        let bump = kernel("bump");
        let across = NdRange::d2([L, 4], [L / 2, 2]);
        assert_eq!(classify(bump, &one, 0, true), Class::Private);
        assert_eq!(classify(bump, &one, 0, false), Class::Serial);
        assert!(matches_oracle(bump, &one, &[ramp(L)], across, None));
        assert!(!matches_oracle(
            bump,
            &one,
            &[ramp(L)],
            across,
            Some(Class::Private)
        ));

        // (d) Every access counts, loads too — and a load in step is as
        // wrong as a store in step.
        let chase = kernel("chase");
        let back: Vec<i32> = (0..4 * L as i32).map(|i| (i - 1).max(0)).collect();
        let buffers = [GlobalBuffer::from_i32(&back), ramp(4 * L)];
        assert_eq!(classify(chase, &apart, 0, true), Class::Shared);
        assert_eq!(classify(chase, &apart, 1, true), Class::Serial);
        assert!(matches_oracle(chase, &apart, &buffers, line, None));
        for waived in [Class::Shared, Class::Private] {
            assert!(!matches_oracle(chase, &apart, &buffers, line, Some(waived)));
        }
    }
}
