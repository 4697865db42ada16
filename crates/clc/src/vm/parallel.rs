//! Parallel execution of independent work-groups.
//!
//! OpenCL guarantees work-groups share no `__local` state, so the only
//! thing that can make group execution order observable is *global*
//! memory: two groups touching the same buffer bytes with at least one
//! write. The static effect prover ([`crate::analysis::effects`])
//! already computes per-argument access shapes for the inter-kernel
//! fusion checks; [`parallel_groups_safe`] reuses them to decide, per
//! launch, whether every written byte is provably private to one
//! work-group. Only then do groups fan out across OS threads — anything
//! weaker falls back to the sequential driver, so `run_ndrange` stays
//! byte-identical to the reference interpreter by construction.
//!
//! # Safety argument
//!
//! A written global argument parallelizes only when:
//!
//! * the effect summary is present and `complete` (no pattern overflow),
//!   and the argument's buffer is bound to exactly one parameter (no
//!   in-launch aliasing);
//! * every access pattern on it is `provable` — element index is
//!   exactly `gid(d) + add` for a single dimension `d` — and all
//!   patterns agree on `(coeffs, base)`, so reads never reach into a
//!   neighbouring group's written elements;
//! * every dimension other than `d` has exactly one work-group, so two
//!   distinct groups always differ in `gid(d)` and therefore write
//!   disjoint elements.
//!
//! Workers then share buffers through raw [`SharedBufs`] views: no
//! `&mut` to the bytes is ever formed, and the prover's disjointness
//! result is what makes the concurrent raw writes race-free.
//!
//! # Determinism
//!
//! Group execution itself uses the same compiled code and the same
//! intra-group schedule as the serial driver, and groups write disjoint
//! bytes, so successful runs are byte-identical regardless of thread
//! interleaving. [`ExecStats`] counters are summed over groups —
//! order-independent. On error, workers finish their sweep and the
//! error of the *lowest-numbered* failing group is reported, which is
//! exactly the error the sequential `gz/gy/gx` loop would have hit
//! first (buffer contents after a failed launch are indeterminate
//! either way).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::bytecode::CompiledKernel;

use super::compiled::{run_group, GroupScratch, Launch};
use super::lockstep::written_args_private;
use super::regops::{Memory, SharedBufs};
use super::*;

/// Below this many total work-items a launch is not worth fanning out.
const MIN_PARALLEL_ITEMS: u64 = 256;

/// Whether the effect prover can show that parallel work-group
/// execution of `kernel` over `range` with `args` is unobservable
/// (same bytes, any group order).
///
/// Conservative: `false` means "could not prove it", not "unsafe".
/// Scalar and `__local` arguments never block parallelism; read-only
/// global arguments are always safe; written global arguments must
/// carry provably group-private access patterns (see the module docs
/// for the full argument).
pub fn parallel_groups_safe(kernel: &CompiledKernel, args: &[ArgValue], range: &NdRange) -> bool {
    // Groups that differ only in a dimension other than the pattern's
    // share their gid(d) range — require those dimensions to hold a
    // single group.
    let one_group_elsewhere = |d| (0..3).all(|e| e == d || range.global[e] / range.local[e] == 1);
    written_args_private(kernel, args, one_group_elsewhere).is_ok()
}

/// Worker-thread count for a launch: `HAOCL_VM_THREADS` override, else
/// the machine's available parallelism, never more than the group count.
/// The process-wide part is resolved once, on the first launch that asks:
/// `available_parallelism` re-reads cgroup files on every call.
fn thread_count(total_groups: u64) -> u64 {
    static CONFIGURED: OnceLock<u64> = OnceLock::new();
    let n = *CONFIGURED.get_or_init(|| {
        std::env::var("HAOCL_VM_THREADS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1)
            })
    });
    n.min(total_groups)
}

/// Runs the launch with work-groups fanned out over a worker pool, or
/// returns `None` when the launch should take the sequential path
/// (prover can't show safety, too small to pay for threads, or a
/// single-group range).
pub(super) fn try_run_parallel(
    launch: &Launch<'_>,
    args: &[ArgValue],
    buffers: &mut [GlobalBuffer],
    arena_bytes: usize,
) -> Option<Result<ExecStats, ExecError>> {
    let num_groups = launch.num_groups;
    let total_groups = num_groups[0] * num_groups[1] * num_groups[2];
    if total_groups < 2 || launch.range.total_items() < MIN_PARALLEL_ITEMS {
        return None;
    }
    let threads = thread_count(total_groups);
    if threads < 2 {
        return None;
    }
    if !parallel_groups_safe(launch.kernel, args, &launch.range) {
        return None;
    }

    let shared = SharedBufs::new(buffers);
    // Work distribution: a single fetch-add counter over flattened group
    // ids — natural work stealing, since fast workers simply claim more
    // groups.
    let next = AtomicU64::new(0);
    // First (lowest flat group id) error wins, matching the sequential
    // loop. `u64::MAX` = "no error so far"; also read by workers to skip
    // groups that can no longer affect the outcome.
    let first_err_group = AtomicU64::new(u64::MAX);
    let err_slot: Mutex<Option<(u64, ExecError)>> = Mutex::new(None);
    let total_stats = Mutex::new(ExecStats::default());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut arena = vec![0u8; arena_bytes];
                let mut scratch = GroupScratch::new(launch);
                let mut stats = ExecStats::default();
                let mut mem = Memory::Shared(&shared);
                loop {
                    let flat = next.fetch_add(1, Ordering::Relaxed);
                    if flat >= total_groups {
                        break;
                    }
                    // A lower-numbered group already failed: this group's
                    // outcome is unobservable, skip the work.
                    if first_err_group.load(Ordering::Relaxed) < flat {
                        continue;
                    }
                    let gx = flat % num_groups[0];
                    let gy = (flat / num_groups[0]) % num_groups[1];
                    let gz = flat / (num_groups[0] * num_groups[1]);
                    let r = run_group(
                        launch,
                        &mut mem,
                        [gx, gy, gz],
                        &mut arena,
                        &mut scratch,
                        &mut stats,
                    );
                    match r {
                        Ok(()) => stats.work_groups += 1,
                        Err(e) => {
                            if first_err_group.fetch_min(flat, Ordering::Relaxed) > flat {
                                let mut slot = err_slot.lock().unwrap_or_else(|p| p.into_inner());
                                match &*slot {
                                    Some((g, _)) if *g <= flat => {}
                                    _ => *slot = Some((flat, e)),
                                }
                            }
                        }
                    }
                }
                let mut t = total_stats.lock().unwrap_or_else(|p| p.into_inner());
                t.instructions += stats.instructions;
                t.work_items += stats.work_items;
                t.work_groups += stats.work_groups;
                t.barriers += stats.barriers;
            });
        }
    });

    let err = err_slot.into_inner().unwrap_or_else(|p| p.into_inner());
    Some(match err {
        Some((_, e)) => Err(e),
        None => Ok(total_stats.into_inner().unwrap_or_else(|p| p.into_inner())),
    })
}
