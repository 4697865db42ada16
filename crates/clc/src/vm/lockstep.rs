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
//! * **serial** — everything else: proved nothing, checked instead.
//!
//! **Checked, not proved.** A launch with a serial buffer keeps a
//! [`Shadow`]: a byte per element of every buffer somebody stores to,
//! naming the lane of the running chunk that touched it first. A lane may
//! touch its own and what is nobody's yet (it takes it, and the element's
//! bytes go on the chunk's list); one that reaches another lane's makes
//! the chunk **abort**. If every element written during a chunk was
//! touched by one lane only, no lane read or overwrote another's write, so
//! every interleaving of the lanes — item order included — computes the
//! same bytes. And an abort leaves memory as the chunk found it: the list
//! is put back, the shadow cleared, the instruction count restored, and
//! the chunk's items run one by one from op 0. A fault, or pointers that
//! name different buffers, abort a checking chunk too, so the first error
//! in item order and the bytes behind it stay the interpreter's. The list
//! is undo log and clear list at once, so it grows with the elements a
//! chunk touches, not with its accesses; past [`TOUCHED_CAP`] it aborts.
//! A launch aborts at most once: from then on an op that reaches a serial
//! buffer splits its chunk (`unproven`) having changed nothing, the lanes
//! finishing one by one from that op in lane order — as at a store to a
//! shared buffer: the engine never writes what it classed read-only.
//!
//! **One way through a branch.** Lanes that a branch sends straight to
//! where its ways meet — the first op of the branch block's immediate
//! post-dominator — wait there ([`Parked`]): their lane-varying registers
//! are kept and their columns become copies of a live lane, which ride
//! along computing what it computes — storing, faulting, branching and,
//! in a checking chunk, taking elements as that lane ([`Parked::mark`])
//! only where it does — while the live lanes go on in lockstep; at the
//! join the waiting lanes take their registers back. With fewer than
//! `LANES / 4` lanes going on (carrying the rest would cost more than
//! running those alone), at a branch neither of whose ways is the join (an
//! if/else, a `?:`, a `&&`), or at one inside the stretch to a join lanes
//! already wait at, the live lanes go one by one, in lane order, to that
//! join and the chunk **re-joins** there. No op body knows of a mask. A
//! lane run ahead to a join has done ops that in item order follow ops
//! lower lanes have yet to do, which only a launch in which no lane can see
//! another — no serial buffer — or one that checks can afford: a launch
//! that stopped checking splits at a branch for good. Anything else the
//! lanes cannot take together aborts a checking chunk, and any other
//! finishes one by one from its own op, a waiting lane from the join, in
//! lane order.
//!
//! A group whose rows are narrower than a chunk but which holds `LANES`
//! items cuts its chunks from its linear `(z, y, x)` order, and groups
//! that are a whole fraction of a chunk fill one together, consecutive in
//! x. Two lanes of such a chunk can share `get_global_id(0)`, so nothing
//! is private there. Chunks still run one after another, in item order,
//! and groups in `(z, y, x)` order, so nothing else about the schedule
//! moves.
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
use super::{ArgValue, GlobalBuffer};

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

/// Why a chunk that was checking who touches what undid itself
/// ([`LockstepStats::aborts`]); `Fault` stands for every other split.
#[derive(Clone, Copy)]
pub(super) enum Abort {
    Conflict,
    Fault,
    Overflow,
}

/// Label values of the abort counters, indexed by [`Abort`].
const ABORTS: [&str; 3] = ["conflict", "fault", "overflow"];

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

// --- masks -------------------------------------------------------------------

const _: () = assert!(LANES <= 32, "a lane set is a `u32`");

/// The lanes of set `set`, in lane order.
pub(super) fn lanes_of(mut set: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = set.trailing_zeros() as usize;
        set &= set.wrapping_sub(1);
        (l < 32).then_some(l)
    })
}

/// The lanes of a chunk that wait at a branch's join while the others go
/// on in lockstep; reused from chunk to chunk.
#[derive(Default)]
pub(super) struct Parked {
    /// Bit `l`: lane `l` waits.
    pub(super) lanes: u32,
    /// The live lane every waiting column is a copy of.
    from: usize,
    /// `[k][lane]`: register `vary[k]` of each waiting lane, as it was.
    saved: Vec<u64>,
}

impl Parked {
    /// Lanes `now` stop at the join, keeping their lane-varying registers
    /// `vary`, and every waiting column becomes a copy of live lane `from`:
    /// from then on it computes what `from` computes, so it stores, faults,
    /// names a root and takes a branch only where `from` does. Out of
    /// line, like [`Parked::restore`] and [`Parked::own`]: inlined into
    /// the chunk driver, their loops cost every chunk, splitting or not.
    #[inline(never)]
    pub(super) fn park(&mut self, lanes: &mut [u64], vary: &[u32], now: u32, from: usize) {
        self.saved.resize(vary.len() * LANES, 0);
        for l in lanes_of(now) {
            for (k, &r) in vary.iter().enumerate() {
                self.saved[k * LANES + l] = lanes[r as usize * LANES + l];
            }
        }
        // The columns already waiting copy a lane still live, unless that
        // lane waits from now on too.
        let copy = if self.lanes != 0 && now >> self.from & 1 == 0 {
            now
        } else {
            self.from = from;
            self.lanes | now
        };
        self.lanes |= now;
        if waived(Waive::Refresh) {
            return;
        }
        for l in lanes_of(copy) {
            for &r in vary {
                lanes[r as usize * LANES + l] = lanes[r as usize * LANES + self.from];
            }
        }
    }

    /// Every waiting lane takes its own registers back.
    #[inline(never)]
    pub(super) fn restore(&mut self, lanes: &mut [u64], vary: &[u32]) {
        if !waived(Waive::Restore) {
            for l in lanes_of(self.lanes) {
                for (k, &r) in vary.iter().enumerate() {
                    lanes[r as usize * LANES + l] = self.saved[k * LANES + l];
                }
            }
        }
        self.lanes = 0;
    }

    /// Waiting lane `l`'s own registers, into its one-item file `regs`.
    #[inline(never)]
    pub(super) fn own(&self, regs: &mut [u64], vary: &[u32], l: usize) {
        for (k, &r) in vary.iter().enumerate() {
            regs[r as usize] = self.saved[k * LANES + l];
        }
    }

    /// The mark column `l` touches elements by ([`Shadow::claim`]): a
    /// waiting column touches what the live lane it copies touches, as that
    /// lane.
    #[inline(always)]
    pub(super) fn mark(&self, l: usize) -> u8 {
        let copies = self.lanes >> l & 1 == 1 && !waived(Waive::Mark);
        (if copies { self.from } else { l }) as u8 + 1
    }
}

/// A rule of masked lockstep a test may break to show it necessary.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Waive {
    /// Waiting columns keep their own registers instead of a live lane's.
    Refresh,
    /// Waiting lanes leave the join with what rode along in their columns.
    Restore,
    /// Where the lanes finish one by one, the live ones go first.
    Order,
    /// A waiting column touches elements as its own lane.
    Mark,
}

/// Whether a test on this thread breaks `rule`; never outside tests.
#[inline(always)]
pub(super) fn waived(rule: Waive) -> bool {
    #[cfg(test)]
    return tests::WAIVED.get() == Some(rule);
    #[cfg(not(test))]
    {
        let _ = rule;
        false
    }
}

// --- ownership -------------------------------------------------------------

/// Elements one chunk may touch in the buffers somebody stores to before
/// it gives up ([`Abort::Overflow`]): 24 bytes of list each, 96 KiB.
pub(super) const TOUCHED_CAP: usize = 4096;

/// Which lane touched which element of the buffers somebody stores to
/// since the running chunk began: one byte per element, per launch,
/// reused from chunk to chunk.
#[derive(Default)]
pub(super) struct Shadow {
    /// Chunks check: a launch with a serial buffer, until one aborts.
    pub(super) on: bool,
    /// The mark — one more than its lane — of the item that runs by itself
    /// between a branch and its join; in lockstep each column leaves
    /// [`Parked::mark`].
    pub(super) who: u8,
    /// The lanes of the running chunk that wait at a join.
    pub(super) parked: Parked,
    /// Per bound buffer, its element size and, per element, 0 or its
    /// owner's mark. Sized at the first touch.
    owners: Vec<(usize, Vec<u8>)>,
    /// `(buffer, element, its bytes then)` of every element owned: what to
    /// clear when the chunk ends and what to put back if it aborts.
    touched: Vec<(usize, usize, [u8; 8])>,
}

impl Shadow {
    /// The lane whose mark is `me` is about to load or store element `off`
    /// — `old`, one of `n` — of buffer `buf`. `false`: it is another
    /// lane's, or the chunk has touched all it may.
    #[inline(always)]
    pub(super) fn claim(&mut self, buf: usize, off: usize, me: u8, old: &[u8], n: usize) -> bool {
        let mine = |(size, by): &(usize, Vec<u8>)| *size == old.len() && by.get(off) == Some(&me);
        self.owners.get(buf).is_some_and(mine) || self.take(buf, off, me, old, n)
    }

    #[inline(never)]
    fn take(&mut self, buf: usize, off: usize, me: u8, old: &[u8], n: usize) -> bool {
        if self.owners.len() <= buf {
            self.owners.resize_with(buf + 1, Default::default);
        }
        let (grain, by) = &mut self.owners[buf];
        if by.is_empty() {
            (*grain, *by) = (old.len(), vec![0; n]);
        }
        // A buffer read at two element sizes has no one grain to own by.
        let free = *grain == old.len() && by[off] == 0;
        #[cfg(test)]
        if !free && tests::UNCHECKED.get() {
            return true;
        }
        if !free || self.touched.len() == TOUCHED_CAP {
            return false;
        }
        by[off] = me;
        let mut bytes = [0; 8];
        bytes[..old.len()].copy_from_slice(old);
        self.touched.push((buf, off, bytes));
        true
    }

    /// Ends the chunk: nothing is owned any more, and with `undo` every
    /// element taken holds its old bytes again. Returns how many were.
    pub(super) fn settle(&mut self, mut undo: Option<&mut [GlobalBuffer]>) -> usize {
        let taken = self.touched.len();
        for (buf, off, old) in self.touched.drain(..).rev() {
            let (size, by) = &mut self.owners[buf];
            by[off] = 0;
            if let Some(mem) = &mut undo {
                mem[buf].as_bytes_mut()[off * *size..][..*size].copy_from_slice(&old[..*size]);
            }
        }
        taken
    }
}

// --- self-report -------------------------------------------------------------

/// What one launch's groups did, added to the process-wide counters when
/// it ends.
#[derive(Default, Clone, Copy)]
pub(super) struct LaneCounts {
    /// Chunks entered in lockstep.
    pub(super) chunks: u64,
    /// Times a chunk's lanes split, by [`super::regops::SplitCause`].
    pub(super) splits: [u64; 4],
    /// Of the `branch` splits, those after which the live lanes arrived at
    /// the join one by one.
    pub(super) rejoins: u64,
    /// Of the `branch` splits, those after which some lanes waited at the
    /// join while the others went on.
    pub(super) masked: u64,
    /// Chunks that undid themselves, by [`Abort`].
    pub(super) aborts: [u64; 3],
}

static CHUNKS: AtomicU64 = AtomicU64::new(0);
static SPLITS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
static REJOINS: AtomicU64 = AtomicU64::new(0);
static MASKED: AtomicU64 = AtomicU64::new(0);
static ABORTS_BY: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
static REFUSED: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

pub(super) fn record(counts: &LaneCounts) {
    #[cfg(test)]
    tests::LAST.set(*counts);
    if counts.chunks > 0 {
        CHUNKS.fetch_add(counts.chunks, Ordering::Relaxed);
        let by_cause = SPLITS.iter().zip(counts.splits);
        let aborts = ABORTS_BY.iter().zip(counts.aborts);
        let plain = [(&REJOINS, counts.rejoins), (&MASKED, counts.masked)];
        for (total, n) in by_cause.chain(aborts).chain(plain) {
            // Most launches have nothing to add to most of these.
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// The compiled engine's lockstep counters, process-wide since start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Work-items per chunk.
    pub lanes: u64,
    /// Chunks of `lanes` work-items entered in lockstep, across groups too.
    pub chunks: u64,
    /// Times the lanes of a chunk could not take an op together, by
    /// cause: `branch`, `fault`, `root`, `unproven` (the op reached a
    /// buffer the chunk may not touch together and is not checking).
    /// Unless they mask or re-join, the lanes finish one by one.
    pub splits: [(&'static str, u64); 4],
    /// Of the `branch` splits, those after which the live lanes went one by
    /// one to a post-dominator — the branch's own, or the one other lanes
    /// waited at — and the chunk went on in lockstep from there; counted
    /// when they arrive.
    pub rejoins: u64,
    /// Of the `branch` splits, those after which the lanes the branch sent
    /// to the post-dominator waited there while the others went on in
    /// lockstep (at least a quarter of the chunk going on). Where a chunk
    /// gets past its branches, `branch == masked + rejoins`.
    pub masked: u64,
    /// Chunks that undid themselves and ran again item by item, ending
    /// the checking for their launch: a lane reached an element another
    /// had touched (`conflict`), the lanes split over anything else
    /// (`fault`), the chunk touched more than 4096 elements (`overflow`).
    pub aborts: [(&'static str, u64); 3],
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
        rejoins: load(&REJOINS),
        masked: load(&MASKED),
        aborts: std::array::from_fn(|i| (ABORTS[i], load(&ABORTS_BY[i]))),
        refused: std::array::from_fn(|i| (REFUSALS[i], load(&REFUSED[i]))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{run_ndrange_with_engine, EngineKind, GlobalBuffer, NdRange};

    thread_local! {
        /// Lets every lane on this thread touch what another owns
        /// ([`Shadow::take`]): the tests show the ownership rule necessary
        /// by breaking it.
        pub(super) static UNCHECKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        /// The rule [`waived`] says this thread breaks.
        pub(super) static WAIVED: std::cell::Cell<Option<Waive>> = const { std::cell::Cell::new(None) };
        /// What the last compiled launch on this thread counted.
        pub(super) static LAST: std::cell::Cell<LaneCounts> = std::cell::Cell::default();
    }

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

    /// Whether the compiled engine leaves what the interpreter leaves —
    /// bytes, and statistics or error — with every `Serial` verdict on
    /// this thread replaced by `forced`.
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
            (stats.map_err(|e| e.to_string()), buffers)
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

    /// Eight kernels for the chunks that check instead of proving: what
    /// ownership has to catch, and what an abort has to put back.
    const SPECULATORS: &str = r#"
    // (a) Read after write across lanes: item order chains the values,
    // lockstep loads them all before any is stored.
    __kernel void chain(__global float* y) {
        int i = get_global_id(0);
        y[i + 1] = y[i] + 1.0f;
    }

    // (b) Write after write: the last store to `y[j]` in item order is the
    // first site's, by item 2j + 1; op by op it is the second site's.
    __kernel void overwrite(__global float* y) {
        int i = get_global_id(0);
        y[i / 2] = (float)-i;
        y[i / 2 + 1] = (float)i;
    }

    // (c) `bfs_step`'s append: every lane would read the same count.
    __kernel void append(__global int* count, __global int* found) {
        int i = get_global_id(0);
        int at = count[0];
        count[0] = at + 1;
        found[at] = i;
    }

    // (d) The lanes part over `x`, each on its own element, and meet on
    // `y` only once they are together again.
    __kernel void late(__global float* x, __global float* y) {
        int i = get_global_id(0);
        if (i % 2 == 0) {
            x[i] = x[i] * 2.0f;
        }
        y[i + 1] = y[i] + 1.0f;
    }

    // (e) An even lane, on its way to the join by itself, doubles what
    // the next lane has already incremented and item order has not yet.
    __kernel void ahead(__global float* y) {
        int i = get_global_id(0);
        y[i] = y[i] + 1.0f;
        if (i % 2 == 0) {
            y[i + 1] = y[i + 1] * 2.0f;
        }
    }

    // (f) Every lane has stored to `y` when one lane's store to `z`
    // falls outside it.
    __kernel void spill(__global float* y, __global float* z, __global const int* at) {
        int i = get_global_id(0);
        y[i] = (float)i;
        z[at[i]] = 1.0f;
    }

    // (g) One way out of the branch returns: the ways meet at the
    // kernel's end and nowhere before.
    __kernel void leave(__global float* y) {
        int i = get_global_id(0);
        if (i % 3 == 0) {
            y[i / 3] = 1.0f;
            return;
        }
        y[i + 32] = y[i + 32] + 2.0f;
    }

    // (h) Even lanes wait at the loop's exit after one turn; odd lanes go
    // on and reach the element the next even lane took before it waited.
    __kernel void reach(__global float* y) {
        int i = get_global_id(0);
        for (int k = 0; k < 1 + 2 * (i % 2); k++) {
            y[i + k] = y[i + k] * 2.0f + (float)k;
        }
    }
    "#;

    /// [`matches_oracle`] as shipped, and with the ownership check waived.
    fn checked_and_not(
        kernel: &CompiledKernel,
        args: &[ArgValue],
        buffers: &[GlobalBuffer],
        range: NdRange,
    ) -> (bool, bool) {
        let shipped = matches_oracle(kernel, args, buffers, range, None);
        UNCHECKED.set(true);
        let waived = matches_oracle(kernel, args, buffers, range, None);
        UNCHECKED.set(false);
        (shipped, waived)
    }

    #[test]
    fn ownership_is_necessary_and_an_abort_leaves_no_trace() {
        let program = crate::compile(SPECULATORS).expect("compiles");
        let kernel = |name: &str| program.kernel(name).expect("kernel");
        let globals = |n: usize| (0..n).map(ArgValue::global).collect::<Vec<_>>();
        // Two chunks a group, or four groups a chunk: either way the
        // second chunk runs after the first undid itself.
        for line in [NdRange::linear(4 * L, 2 * L), NdRange::linear(4 * L, 4)] {
            let n = 4 * L + 1;
            let cases = [
                ("chain", vec![ramp(n)]),
                ("overwrite", vec![ramp(n)]),
                (
                    "append",
                    vec![
                        GlobalBuffer::zeroed(4),
                        GlobalBuffer::zeroed(4 * n as usize),
                    ],
                ),
                ("late", vec![ramp(n), ramp(n)]),
                ("ahead", vec![ramp(n)]),
                ("reach", vec![ramp(n + 2)]),
            ];
            for (name, buffers) in cases {
                let args = globals(buffers.len());
                assert_eq!(
                    checked_and_not(kernel(name), &args, &buffers, line),
                    (true, false),
                    "{name}, {line:?}"
                );
            }
            // (h) The first conflict is met while the even lanes wait: one
            // park, then one `conflict` abort.
            assert!(matches_oracle(
                kernel("reach"),
                &globals(1),
                &[ramp(n + 2)],
                line,
                None
            ));
            let counts = LAST.get();
            assert_eq!((counts.masked, counts.aborts), (1, [1, 0, 0]), "{line:?}");
            // (f) Lane 9 of the second chunk: the items before it have run
            // whole, it has stored to `y`, and no item after it has.
            let mut at: Vec<i32> = (0..4 * L as i32).collect();
            at[L as usize + 9] = 4 * L as i32 + 7;
            let buffers = [ramp(n), ramp(n), GlobalBuffer::from_i32(&at)];
            let (spill, args) = (kernel("spill"), globals(3));
            let mut left = buffers.to_vec();
            let err = run_ndrange_with_engine(spill, &args, &mut left, &line, EngineKind::Compiled)
                .expect_err("lane 9 stores outside `z`");
            assert!(err.to_string().contains("out-of-bounds"), "{err}");
            let stored = |i: u64| left[0].as_f32()[i as usize] == i as f32;
            assert!(stored(L + 9) && !stored(L + 10) && !stored(2 * L - 1));
            assert!(matches_oracle(spill, &args, &buffers, line, None));
            // (g) Nothing to undo, nothing to catch: the same either way.
            let buffers = [ramp(4 * L + 32)];
            assert_eq!(
                checked_and_not(kernel("leave"), &globals(1), &buffers, line),
                (true, true),
                "{line:?}"
            );
        }
    }

    /// Four kernels for the five rules of chunks that mask: ragged loops
    /// over shared and private buffers only, and one with a buffer that is
    /// neither.
    const MASKERS: &str = r#"
    // (a) A ragged loop that stores as it goes: a waiting lane that rode
    // along on its own registers would keep adding.
    __kernel void accumulate(__global const int* row_ptr, __global const float* v,
                             __global float* y) {
        int i = get_global_id(0);
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
            y[i] += v[j];
        }
    }

    // (b) SpMV's shape: what a waiting lane takes past the join is its
    // own, not what rode along in its column.
    __kernel void dot(__global const int* row_ptr, __global const float* v,
                      __global float* y) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
            acc += v[j];
        }
        y[i] = acc;
    }

    // (c) A fault in the loop, and one after the join.
    __kernel void late_fault(__global const int* row_ptr, __global const int* at,
                             __global const float* v, __global const int* den,
                             __global float* y) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
            acc += v[at[j]];
        }
        y[i] = acc + (float)(7 / den[i]);
    }

    // (d) `dot` that keeps each partial sum in a buffer nobody proved the
    // lanes' own: a waiting column stores where its live lane does.
    __kernel void dot_twice(__global const int* row_ptr, __global const float* v,
                            __global float* y, __global float* z) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
            acc += v[j];
            z[2 * i] = acc;
        }
        y[i] = acc;
    }
    "#;

    /// CSR row pointers for rows of `lens` nonzeros.
    fn row_ptr(lens: &[usize]) -> Vec<i32> {
        let mut at = vec![0];
        for &n in lens {
            at.push(at[at.len() - 1] + n as i32);
        }
        at
    }

    /// [`matches_oracle`] as shipped, and with mask rule `rule` waived.
    fn masked_and_waived(
        kernel: &CompiledKernel,
        args: &[ArgValue],
        buffers: &[GlobalBuffer],
        range: NdRange,
        rule: Waive,
    ) -> (bool, bool) {
        let shipped = matches_oracle(kernel, args, buffers, range, None);
        WAIVED.set(Some(rule));
        let waived = matches_oracle(kernel, args, buffers, range, None);
        WAIVED.set(None);
        (shipped, waived)
    }

    #[test]
    fn each_mask_rule_is_necessary() {
        use crate::vm::regops::SplitCause;
        let program = crate::compile(MASKERS).expect("compiles");
        let kernel = |name: &str| program.kernel(name).expect("kernel");
        let globals = |n: usize| (0..n).map(ArgValue::global).collect::<Vec<_>>();
        let n = 2 * L;
        let line = NdRange::linear(n, n);
        // Rows of one, two and three: a third of each chunk waits at the
        // first exit, and the rest go on masked. The last row is short and
        // ends where `v` does.
        let mut lens: Vec<usize> = (0..n as usize).map(|i| 1 + i % 3).collect();
        lens[n as usize - 1] = 1;
        let ptr = row_ptr(&lens);
        let nnz = *ptr.last().expect("rows") as u64;
        let csr = |v: u64| vec![GlobalBuffer::from_i32(&ptr), ramp(v), ramp(n)];

        // (a) Waiting columns copy a live lane, or they store.
        let accumulate = kernel("accumulate");
        let buffers = csr(nnz + 1);
        assert_eq!(
            masked_and_waived(accumulate, &globals(3), &buffers, line, Waive::Refresh),
            (true, false)
        );
        // (b) Waiting lanes take their own registers back at the join.
        let dot = kernel("dot");
        let buffers = csr(nnz);
        assert_eq!(
            masked_and_waived(dot, &globals(3), &buffers, line, Waive::Restore),
            (true, false)
        );
        // ... and, copying a live lane, never fault where it does not: the
        // last lane, riding along on its own registers, reads past `v` —
        // which finishes the chunk lane by lane, harmless but not masked.
        let fault = SplitCause::Fault as usize;
        assert!(matches_oracle(dot, &globals(3), &buffers, line, None));
        let shipped = LAST.get();
        assert_eq!((shipped.masked, shipped.splits[fault]), (4, 0));
        assert_eq!(
            masked_and_waived(dot, &globals(3), &buffers, line, Waive::Refresh),
            (true, true)
        );
        assert_eq!(LAST.get().splits[fault], 1);

        // (c) Lane 9 faults in the loop, masked, and lane 2 after the join:
        // the interpreter reports lane 2, so lanes finish in lane order —
        // when lane 9 is one of eight live lanes, and when it is the only
        // one and goes to the join by itself.
        let late = kernel("late_fault");
        for long in [8..16, 9..10] {
            let lens: Vec<usize> = (0..L as usize)
                .map(|l| if long.contains(&l) { 6 } else { 2 })
                .collect();
            let ptr = row_ptr(&lens);
            let mut at: Vec<i32> = (0..ptr[L as usize]).collect();
            at[ptr[9] as usize + 4] = 1 << 20;
            let mut den = vec![1; L as usize];
            den[2] = 0;
            let buffers = [
                GlobalBuffer::from_i32(&ptr),
                GlobalBuffer::from_i32(&at),
                ramp(at.len() as u64),
                GlobalBuffer::from_i32(&den),
                ramp(L),
            ];
            let (args, chunk) = (globals(5), NdRange::linear(L, L));
            let mut left = buffers.to_vec();
            let err = run_ndrange_with_engine(late, &args, &mut left, &chunk, EngineKind::Compiled)
                .expect_err("lanes 2 and 9 fail");
            assert!(err.to_string().contains("division by zero"), "{err}");
            // A lane that faults on its way to the join has not re-joined.
            assert_eq!(LAST.get().rejoins, 0, "{long:?}");
            let (shipped, waived) = masked_and_waived(late, &args, &buffers, chunk, Waive::Order);
            assert!(shipped, "{long:?}");
            assert_eq!(waived, long.len() == 1, "{long:?}");
        }

        // (d) A buffer that is neither shared nor private: the chunk checks
        // and masks all the same, a waiting column touching as its live
        // lane. Touching as itself, the first copy to store meets the live
        // lane's element, and the chunk undoes itself.
        let twice = kernel("dot_twice");
        let mut buffers = csr(nnz);
        buffers.push(ramp(2 * n));
        let branch = SplitCause::Branch as usize;
        assert_eq!(
            masked_and_waived(twice, &globals(4), &buffers, line, Waive::Mark),
            (true, true)
        );
        assert_eq!((LAST.get().masked, LAST.get().aborts), (1, [1, 0, 0]));
        assert!(matches_oracle(twice, &globals(4), &buffers, line, None));
        let counts = LAST.get();
        assert_eq!((counts.masked, counts.aborts), (4, [0; 3]));
        assert_eq!(counts.splits[branch], counts.masked + counts.rejoins);

        // (e) One long row among short ones: the one live lane goes to the
        // join by itself, under the live floor, and nothing is masked.
        let lens: Vec<usize> = (0..n as usize)
            .map(|i| if i % L as usize == 5 { 24 } else { 8 })
            .collect();
        let ptr = row_ptr(&lens);
        let buffers = [
            GlobalBuffer::from_i32(&ptr),
            ramp(u64::from(ptr[n as usize] as u32)),
            ramp(n),
        ];
        assert!(matches_oracle(dot, &globals(3), &buffers, line, None));
        let counts = LAST.get();
        assert_eq!((counts.masked, counts.rejoins), (0, 2));
    }
}
