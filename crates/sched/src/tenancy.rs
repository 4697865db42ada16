//! The multi-tenant arbitration tier: fair-share queueing, quotas and
//! admission control.
//!
//! The paper's host program owns the whole cluster (§III-A); a serving
//! system instead arbitrates between many concurrent *tenants*, each with
//! its own quotas. This module is the scheduler tier that sits **above**
//! placement: placement (`Scheduler`) answers *where* a launch runs,
//! tenancy answers *whose* launch runs next — and whether it is admitted
//! at all.
//!
//! * [`TenantScheduler`] — weighted fair queueing over bounded per-tenant
//!   queues. Each tenant carries a virtual-time counter advanced by
//!   `consumed / weight`; the next dispatch always goes to the active
//!   tenant with the smallest virtual time, so long-run compute shares
//!   converge to the weight ratio and no tenant starves.
//! * [`TenantQuota`] — device-memory bytes and a normalized compute-time
//!   budget. Memory is enforced at allocation through the [`QuotaLedger`];
//!   compute is enforced at admission using [`CostModel`] estimates
//!   ([`normalized_cost_nanos`]) and settled with observed durations.
//! * [`AdmitError`] — the typed `Overloaded` taxonomy: a full queue, a
//!   memory quota, or an exhausted compute budget. Load is *shed* with an
//!   error, never absorbed into an unbounded queue.
//! * Budget exhaustion is sticky: a tenant over its compute budget is
//!   throttled (every submit sheds) until an explicit
//!   [`TenantScheduler::replenish`] — an operator/billing decision, not a
//!   side effect.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use parking_lot::Mutex;

use haocl_kernel::CostModel;
use haocl_proto::ids::TenantId;
use haocl_sim::SimDuration;

/// Default bound on a tenant's pending-launch queue.
pub const DEFAULT_MAX_PENDING: usize = 64;

/// Reference device the compute budget normalizes against: 1 TFLOP/s.
/// A budget of one "normalized second" buys what the reference device
/// computes in one second, regardless of which device class actually
/// runs the work (the "compute currency" the cost model trades in).
const REFERENCE_FLOPS: f64 = 1.0e12;
/// Reference memory bandwidth: 100 GB/s.
const REFERENCE_BYTES_PER_SEC: f64 = 100.0e9;

/// Converts a launch's cost model into normalized compute nanoseconds on
/// the reference device (roofline: max of compute and memory time).
pub fn normalized_cost_nanos(cost: &CostModel) -> u64 {
    let compute = cost.total_flops() / REFERENCE_FLOPS;
    let memory = cost.total_bytes() / REFERENCE_BYTES_PER_SEC;
    SimDuration::from_secs_f64(compute.max(memory)).as_nanos()
}

/// Per-tenant resource limits. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Device-memory bytes the tenant may hold allocated at once.
    pub mem_bytes: Option<u64>,
    /// Cumulative normalized compute-time budget in nanoseconds (see
    /// [`normalized_cost_nanos`]); exhausted budgets shed until
    /// [`TenantScheduler::replenish`].
    pub compute_nanos: Option<u64>,
    /// Bound on the pending-launch queue; submissions beyond it shed
    /// with [`AdmitError::QueueFull`].
    pub max_pending: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            mem_bytes: None,
            compute_nanos: None,
            max_pending: DEFAULT_MAX_PENDING,
        }
    }
}

impl TenantQuota {
    /// No limits at all (the default tenant's quota: single-tenant
    /// programs must never be shed).
    pub fn unlimited() -> Self {
        TenantQuota {
            mem_bytes: None,
            compute_nanos: None,
            max_pending: usize::MAX,
        }
    }

    /// Caps held device memory.
    pub fn mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }

    /// Caps the cumulative normalized compute budget.
    pub fn compute(mut self, budget: SimDuration) -> Self {
        self.compute_nanos = Some(budget.as_nanos());
        self
    }

    /// Bounds the pending queue.
    pub fn max_pending(mut self, limit: usize) -> Self {
        self.max_pending = limit.max(1);
        self
    }
}

/// A tenant as registered with the arbiter.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (metric/audit label).
    pub name: String,
    /// Fair-share weight (≥ 1): long-run compute shares converge to the
    /// weight ratio between backlogged tenants.
    pub weight: u32,
    /// Resource limits.
    pub quota: TenantQuota,
}

impl TenantSpec {
    /// A weight-1 tenant with default quotas.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            quota: TenantQuota::default(),
        }
    }

    /// Sets the fair-share weight (clamped to ≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the quota.
    pub fn quota(mut self, quota: TenantQuota) -> Self {
        self.quota = quota;
        self
    }
}

/// Why a submission (or allocation) was shed instead of queued — the
/// typed `Overloaded` taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant's pending queue is at its bound.
    QueueFull {
        /// Shedding tenant.
        tenant: String,
        /// The configured bound it hit.
        limit: usize,
    },
    /// The allocation would exceed the tenant's device-memory quota.
    MemoryQuota {
        /// Shedding tenant.
        tenant: String,
        /// Bytes currently charged.
        used: u64,
        /// Bytes the allocation asked for.
        requested: u64,
        /// The configured quota.
        limit: u64,
    },
    /// The tenant's normalized compute budget is exhausted (throttled
    /// until [`TenantScheduler::replenish`]).
    ComputeBudget {
        /// Shedding tenant.
        tenant: String,
        /// Normalized nanoseconds consumed so far.
        used_nanos: u64,
        /// The configured budget.
        limit_nanos: u64,
    },
    /// The tenant id was never registered (or already closed).
    UnknownTenant {
        /// The unresolved id.
        tenant: TenantId,
    },
}

impl AdmitError {
    /// The shedding tenant's display name (`tenantN` for unknown ids).
    pub fn tenant(&self) -> String {
        match self {
            AdmitError::QueueFull { tenant, .. }
            | AdmitError::MemoryQuota { tenant, .. }
            | AdmitError::ComputeBudget { tenant, .. } => tenant.clone(),
            AdmitError::UnknownTenant { tenant } => tenant.to_string(),
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QueueFull { tenant, limit } => {
                write!(f, "tenant `{tenant}` queue full (limit {limit})")
            }
            AdmitError::MemoryQuota {
                tenant,
                used,
                requested,
                limit,
            } => write!(
                f,
                "tenant `{tenant}` memory quota: {used}+{requested} B exceeds {limit} B"
            ),
            AdmitError::ComputeBudget {
                tenant,
                used_nanos,
                limit_nanos,
            } => write!(
                f,
                "tenant `{tenant}` compute budget exhausted: {used_nanos} of {limit_nanos} ns"
            ),
            AdmitError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A tenant's accounting snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Launches admitted into the queue.
    pub submitted: u64,
    /// Launches dispatched and completed.
    pub completed: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Virtual compute-time consumed by completed launches, in
    /// nanoseconds (what fairness ratios are measured over).
    pub compute_nanos: u64,
    /// Launches currently queued.
    pub pending: usize,
    /// Device-memory bytes currently charged.
    pub mem_bytes: u64,
}

/// Thread-safe per-tenant device-memory accounting, shared between the
/// arbiter (admission) and buffer lifetimes (release on drop).
///
/// Kept separate from [`TenantScheduler`] so a buffer's release guard
/// does not need the arbiter's queue-payload type.
#[derive(Debug, Default)]
pub struct QuotaLedger {
    accounts: Mutex<BTreeMap<u32, MemAccount>>,
}

#[derive(Debug, Default, Clone)]
struct MemAccount {
    name: String,
    used: u64,
    limit: Option<u64>,
}

impl QuotaLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        QuotaLedger::default()
    }

    /// Registers (or re-limits) a tenant's memory account.
    pub fn open(&self, tenant: TenantId, name: impl Into<String>, limit: Option<u64>) {
        let mut accounts = self.accounts.lock();
        let account = accounts.entry(tenant.raw()).or_default();
        account.name = name.into();
        account.limit = limit;
    }

    /// Atomically checks and charges `bytes` against the tenant's quota.
    ///
    /// # Errors
    ///
    /// [`AdmitError::MemoryQuota`] when the charge would exceed the
    /// limit; [`AdmitError::UnknownTenant`] for unregistered ids.
    pub fn try_charge(&self, tenant: TenantId, bytes: u64) -> Result<(), AdmitError> {
        let mut accounts = self.accounts.lock();
        let account = accounts
            .get_mut(&tenant.raw())
            .ok_or(AdmitError::UnknownTenant { tenant })?;
        if let Some(limit) = account.limit {
            if account.used.saturating_add(bytes) > limit {
                return Err(AdmitError::MemoryQuota {
                    tenant: account.name.clone(),
                    used: account.used,
                    requested: bytes,
                    limit,
                });
            }
        }
        account.used += bytes;
        Ok(())
    }

    /// Releases a previous charge (buffer dropped / freed).
    pub fn release(&self, tenant: TenantId, bytes: u64) {
        if let Some(account) = self.accounts.lock().get_mut(&tenant.raw()) {
            account.used = account.used.saturating_sub(bytes);
        }
    }

    /// Bytes currently charged to `tenant`.
    pub fn used(&self, tenant: TenantId) -> u64 {
        self.accounts
            .lock()
            .get(&tenant.raw())
            .map_or(0, |a| a.used)
    }
}

struct TenantState<T> {
    spec: TenantSpec,
    queue: VecDeque<T>,
    /// WFQ virtual time in weighted nanoseconds: grows by
    /// `consumed / weight` per completion. The smallest active value is
    /// dispatched next.
    vtime: u128,
    submitted: u64,
    completed: u64,
    shed: u64,
    compute_nanos: u64,
    throttled: bool,
}

struct ArbiterInner<T> {
    tenants: BTreeMap<u32, TenantState<T>>,
    /// Virtual time of the most recent dispatch: newly-active tenants
    /// start here, so going idle never banks credit against tenants
    /// that kept the cluster busy meanwhile.
    vclock: u128,
}

/// Weighted fair queueing over bounded per-tenant launch queues.
///
/// Deterministic: dispatch order is a pure function of the submission
/// sequence and completion durations (ties on virtual time break on the
/// lower tenant id).
///
/// # Examples
///
/// ```
/// use haocl_proto::ids::TenantId;
/// use haocl_sched::tenancy::{TenantScheduler, TenantSpec};
/// use haocl_sim::SimDuration;
///
/// let arb: TenantScheduler<&'static str> = TenantScheduler::new();
/// let a = TenantId::new(1);
/// let b = TenantId::new(2);
/// arb.register(a, TenantSpec::new("a").weight(2));
/// arb.register(b, TenantSpec::new("b"));
/// arb.submit(a, "a1", 0).unwrap();
/// arb.submit(a, "a2", 0).unwrap();
/// arb.submit(b, "b1", 0).unwrap();
/// // Equal virtual time: the lower id goes first; completing charges
/// // vtime by duration/weight, so weight-2 `a` runs twice per `b` once.
/// let (first, item) = arb.next().unwrap();
/// assert_eq!((first, item), (a, "a1"));
/// arb.complete(first, SimDuration::from_micros(10));
/// assert_eq!(arb.next().unwrap(), (b, "b1"));
/// ```
pub struct TenantScheduler<T> {
    inner: Mutex<ArbiterInner<T>>,
}

impl<T> Default for TenantScheduler<T> {
    fn default() -> Self {
        TenantScheduler::new()
    }
}

impl<T> TenantScheduler<T> {
    /// Creates an arbiter with no tenants.
    pub fn new() -> Self {
        TenantScheduler {
            inner: Mutex::new(ArbiterInner {
                tenants: BTreeMap::new(),
                vclock: 0,
            }),
        }
    }

    /// Registers a tenant. Re-registering an id replaces its spec but
    /// keeps accumulated accounting.
    pub fn register(&self, tenant: TenantId, spec: TenantSpec) {
        let mut inner = self.inner.lock();
        let vclock = inner.vclock;
        inner
            .tenants
            .entry(tenant.raw())
            .and_modify(|t| t.spec = spec.clone())
            .or_insert_with(|| TenantState {
                spec,
                queue: VecDeque::new(),
                vtime: vclock,
                submitted: 0,
                completed: 0,
                shed: 0,
                compute_nanos: 0,
                throttled: false,
            });
    }

    /// Removes a tenant, returning any still-queued items.
    pub fn unregister(&self, tenant: TenantId) -> Vec<T> {
        self.inner
            .lock()
            .tenants
            .remove(&tenant.raw())
            .map(|t| t.queue.into_iter().collect())
            .unwrap_or_default()
    }

    /// The registered tenant's display name.
    pub fn name(&self, tenant: TenantId) -> Option<String> {
        self.inner
            .lock()
            .tenants
            .get(&tenant.raw())
            .map(|t| t.spec.name.clone())
    }

    /// Admission control + enqueue: `est_nanos` is the launch's
    /// normalized cost estimate ([`normalized_cost_nanos`]), checked
    /// against the remaining compute budget.
    ///
    /// # Errors
    ///
    /// The typed shed reasons of [`AdmitError`]; a shed submission is
    /// counted but never queued.
    pub fn submit(&self, tenant: TenantId, item: T, est_nanos: u64) -> Result<(), AdmitError> {
        let mut inner = self.inner.lock();
        let vclock = inner.vclock;
        let state = inner
            .tenants
            .get_mut(&tenant.raw())
            .ok_or(AdmitError::UnknownTenant { tenant })?;
        if let Some(limit) = state.spec.quota.compute_nanos {
            if state.throttled || state.compute_nanos.saturating_add(est_nanos) > limit {
                state.throttled = true;
                state.shed += 1;
                return Err(AdmitError::ComputeBudget {
                    tenant: state.spec.name.clone(),
                    used_nanos: state.compute_nanos,
                    limit_nanos: limit,
                });
            }
        }
        if state.queue.len() >= state.spec.quota.max_pending {
            state.shed += 1;
            return Err(AdmitError::QueueFull {
                tenant: state.spec.name.clone(),
                limit: state.spec.quota.max_pending,
            });
        }
        if state.queue.is_empty() {
            // (Re)activation: catch up to the dispatch clock so idle
            // time is not banked as credit.
            state.vtime = state.vtime.max(vclock);
        }
        state.queue.push_back(item);
        state.submitted += 1;
        Ok(())
    }

    /// Dispatches the next launch: the backlogged tenant with the
    /// smallest virtual time (ties to the lower id). Returns `None` when
    /// every queue is empty.
    pub fn next(&self) -> Option<(TenantId, T)> {
        let mut inner = self.inner.lock();
        let chosen = inner
            .tenants
            .iter()
            .filter(|(_, t)| !t.queue.is_empty())
            .min_by_key(|(id, t)| (t.vtime, **id))
            .map(|(id, _)| *id)?;
        let vtime = inner.tenants[&chosen].vtime;
        inner.vclock = inner.vclock.max(vtime);
        let item = inner
            .tenants
            .get_mut(&chosen)
            .and_then(|t| t.queue.pop_front())?;
        Some((TenantId::new(chosen), item))
    }

    /// Settles a dispatched launch: charges `consumed` virtual compute
    /// time to the tenant's fairness account and budget. Returns `true`
    /// when this settlement newly exhausted the compute budget (the
    /// throttle transition, reported once — callers emit the audit
    /// entry / metric on it, as they do for a node's quarantine).
    pub fn complete(&self, tenant: TenantId, consumed: SimDuration) -> bool {
        let mut inner = self.inner.lock();
        let Some(state) = inner.tenants.get_mut(&tenant.raw()) else {
            return false;
        };
        let nanos = consumed.as_nanos();
        state.completed += 1;
        state.compute_nanos = state.compute_nanos.saturating_add(nanos);
        state.vtime += u128::from(nanos) / u128::from(state.spec.weight.max(1));
        if let Some(limit) = state.spec.quota.compute_nanos {
            if !state.throttled && state.compute_nanos >= limit {
                state.throttled = true;
                return true;
            }
        }
        false
    }

    /// Whether the tenant is currently throttled (budget exhausted).
    pub fn is_throttled(&self, tenant: TenantId) -> bool {
        self.inner
            .lock()
            .tenants
            .get(&tenant.raw())
            .is_some_and(|t| t.throttled)
    }

    /// Lifts a compute-budget throttle and resets consumed budget (the
    /// start of a new accounting period).
    pub fn replenish(&self, tenant: TenantId) {
        if let Some(state) = self.inner.lock().tenants.get_mut(&tenant.raw()) {
            state.compute_nanos = 0;
            state.throttled = false;
        }
    }

    /// The tenant's accounting snapshot (memory comes from the caller's
    /// [`QuotaLedger`], reported as 0 here).
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.inner
            .lock()
            .tenants
            .get(&tenant.raw())
            .map(|t| TenantStats {
                submitted: t.submitted,
                completed: t.completed,
                shed: t.shed,
                compute_nanos: t.compute_nanos,
                pending: t.queue.len(),
                mem_bytes: 0,
            })
    }

    /// Every tenant's `(id, name, stats)`, ascending by id.
    pub fn all_stats(&self) -> Vec<(TenantId, String, TenantStats)> {
        self.inner
            .lock()
            .tenants
            .iter()
            .map(|(id, t)| {
                (
                    TenantId::new(*id),
                    t.spec.name.clone(),
                    TenantStats {
                        submitted: t.submitted,
                        completed: t.completed,
                        shed: t.shed,
                        compute_nanos: t.compute_nanos,
                        pending: t.queue.len(),
                        mem_bytes: 0,
                    },
                )
            })
            .collect()
    }

    /// Total launches queued across all tenants.
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .tenants
            .values()
            .map(|t| t.queue.len())
            .sum()
    }

    /// Whether no launch is queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }
}

impl<T> fmt::Debug for TenantScheduler<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TenantScheduler")
            .field("tenants", &inner.tenants.len())
            .field(
                "pending",
                &inner.tenants.values().map(|t| t.queue.len()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb() -> TenantScheduler<u32> {
        TenantScheduler::new()
    }

    #[test]
    fn wfq_shares_follow_weights() {
        let a = TenantId::new(1);
        let b = TenantId::new(2);
        let s = arb();
        s.register(
            a,
            TenantSpec::new("a")
                .weight(2)
                .quota(TenantQuota::unlimited()),
        );
        s.register(b, TenantSpec::new("b").quota(TenantQuota::unlimited()));
        for i in 0..90 {
            s.submit(a, i, 0).unwrap();
            s.submit(b, i, 0).unwrap();
        }
        // Dispatch 60 equal-cost launches; weight 2 should win ~40.
        let mut counts = (0u32, 0u32);
        for _ in 0..60 {
            let (t, _) = s.next().unwrap();
            if t == a {
                counts.0 += 1;
            } else {
                counts.1 += 1;
            }
            s.complete(t, SimDuration::from_micros(100));
        }
        assert_eq!(counts, (40, 20), "weighted shares must be exact here");
        let sa = s.stats(a).unwrap();
        let sb = s.stats(b).unwrap();
        assert_eq!(sa.compute_nanos, 2 * sb.compute_nanos);
    }

    #[test]
    fn no_backlogged_tenant_starves() {
        let s = arb();
        let ids: Vec<TenantId> = (1..=4).map(TenantId::new).collect();
        for (i, &t) in ids.iter().enumerate() {
            s.register(
                t,
                TenantSpec::new(format!("t{i}"))
                    .weight(if i == 0 { 8 } else { 1 })
                    .quota(TenantQuota::unlimited()),
            );
            for j in 0..50 {
                s.submit(t, j, 0).unwrap();
            }
        }
        let mut completed = vec![0u32; 4];
        for _ in 0..40 {
            let (t, _) = s.next().unwrap();
            completed[(t.raw() - 1) as usize] += 1;
            s.complete(t, SimDuration::from_micros(10));
        }
        for (i, &c) in completed.iter().enumerate() {
            assert!(c > 0, "tenant {i} starved: {completed:?}");
        }
    }

    #[test]
    fn queue_bound_sheds_with_typed_error() {
        let s = arb();
        let t = TenantId::new(1);
        s.register(
            t,
            TenantSpec::new("t").quota(TenantQuota::default().max_pending(2)),
        );
        s.submit(t, 0, 0).unwrap();
        s.submit(t, 1, 0).unwrap();
        let err = s.submit(t, 2, 0).unwrap_err();
        assert_eq!(
            err,
            AdmitError::QueueFull {
                tenant: "t".into(),
                limit: 2
            }
        );
        let stats = s.stats(t).unwrap();
        assert_eq!((stats.submitted, stats.shed, stats.pending), (2, 1, 2));
        // Draining reopens the queue.
        s.next().unwrap();
        s.submit(t, 2, 0).unwrap();
    }

    #[test]
    fn compute_budget_throttles_until_replenished() {
        let s = arb();
        let t = TenantId::new(1);
        s.register(
            t,
            TenantSpec::new("t").quota(TenantQuota::default().compute(SimDuration::from_micros(1))),
        );
        // Estimate alone can shed: a launch bigger than the whole budget.
        let err = s.submit(t, 0, 5_000).unwrap_err();
        assert!(matches!(err, AdmitError::ComputeBudget { .. }));
        // Once throttled, even free-looking submissions shed.
        assert!(s.is_throttled(t));
        assert!(s.submit(t, 0, 0).is_err());
        s.replenish(t);
        assert!(!s.is_throttled(t));
        s.submit(t, 0, 0).unwrap();
        // Observed consumption also exhausts the budget, exactly once.
        let (dispatched, _) = s.next().unwrap();
        assert!(s.complete(dispatched, SimDuration::from_micros(2)));
        assert!(!s.complete(dispatched, SimDuration::from_micros(2)));
        assert!(s.is_throttled(t));
    }

    #[test]
    fn idle_tenant_banks_no_credit() {
        let s = arb();
        let busy = TenantId::new(1);
        let idle = TenantId::new(2);
        s.register(
            busy,
            TenantSpec::new("busy").quota(TenantQuota::unlimited()),
        );
        s.register(
            idle,
            TenantSpec::new("idle").quota(TenantQuota::unlimited()),
        );
        for i in 0..10 {
            s.submit(busy, i, 0).unwrap();
        }
        for _ in 0..10 {
            let (t, _) = s.next().unwrap();
            s.complete(t, SimDuration::from_millis(1));
        }
        // `idle` wakes up: it must not get 10 ms of catch-up credit —
        // after one dispatch each, the clock is even again.
        s.submit(idle, 0, 0).unwrap();
        s.submit(idle, 1, 0).unwrap();
        s.submit(busy, 0, 0).unwrap();
        let (first, _) = s.next().unwrap();
        assert_eq!(first, idle, "fresh tenant goes first once");
        s.complete(first, SimDuration::from_millis(1));
        let (second, _) = s.next().unwrap();
        assert_eq!(second, busy, "but does not monopolize afterwards");
    }

    #[test]
    fn ledger_charges_release_and_enforce() {
        let ledger = QuotaLedger::new();
        let t = TenantId::new(1);
        ledger.open(t, "t", Some(100));
        ledger.try_charge(t, 60).unwrap();
        ledger.try_charge(t, 40).unwrap();
        let err = ledger.try_charge(t, 1).unwrap_err();
        assert_eq!(
            err,
            AdmitError::MemoryQuota {
                tenant: "t".into(),
                used: 100,
                requested: 1,
                limit: 100
            }
        );
        ledger.release(t, 40);
        assert_eq!(ledger.used(t), 60);
        ledger.try_charge(t, 40).unwrap();
        // Unknown tenants are typed, not panics.
        assert!(matches!(
            ledger.try_charge(TenantId::new(9), 1),
            Err(AdmitError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn unregister_returns_queued_items() {
        let s = arb();
        let t = TenantId::new(1);
        s.register(t, TenantSpec::new("t"));
        s.submit(t, 7, 0).unwrap();
        s.submit(t, 8, 0).unwrap();
        assert_eq!(s.unregister(t), vec![7, 8]);
        assert!(matches!(
            s.submit(t, 9, 0),
            Err(AdmitError::UnknownTenant { .. })
        ));
        assert!(s.is_idle());
    }

    #[test]
    fn normalized_cost_is_roofline_on_reference_device() {
        // 1e12 flops at 1 TFLOP/s = 1 s; memory term smaller.
        let c = CostModel::new().flops(1e12).bytes_read(1e9);
        assert_eq!(normalized_cost_nanos(&c), 1_000_000_000);
        // 1e12 bytes at 100 GB/s = 10 s dominates.
        let m = CostModel::new().flops(1e9).bytes_read(1e12);
        assert_eq!(normalized_cost_nanos(&m), 10_000_000_000);
    }
}
