//! The multi-tenant serving plane.
//!
//! The paper motivates HaoCL with "large-scale cloud systems that need
//! to serve massive requests from many users simultaneously" (§I). This
//! module is that tier: many concurrent client programs share one
//! [`Context`] + [`AutoScheduler`] through per-tenant [`Session`]s, and
//! a weighted-fair arbiter ([`haocl_sched::TenantScheduler`]) decides
//! whose launch dispatches next.
//!
//! * **Sessions** — [`ServingPlane::open_session`] registers a tenant
//!   (name, fair-share weight, quotas) and returns a cloneable handle
//!   that tags every submission. [`ServingPlane::default_session`] is
//!   the untagged single-tenant path: it bills the `"default"` tenant
//!   with user id 0, which makes [`Session::submit`] +
//!   [`ServingPlane::drain`] behave exactly like calling
//!   [`AutoScheduler::launch`] directly.
//! * **Fair-share scheduling** — submissions queue per tenant;
//!   [`ServingPlane::dispatch_one`] pops the backlogged tenant with the
//!   smallest WFQ virtual time and routes the launch through
//!   [`AutoScheduler::launch_tagged`]. Completed virtual compute time
//!   divided by the tenant's weight advances its virtual time, so a
//!   weight-2 tenant sustains twice the compute share of a weight-1
//!   tenant under contention.
//! * **Admission control** — every queue is bounded and every quota is
//!   checked *before* work enters the system: a full queue, exhausted
//!   compute budget or busted memory quota sheds the submission with a
//!   typed [`Error::Overloaded`] instead of queueing unboundedly.
//!   Shedding is free: no cluster state changes, the caller can retry
//!   after load drains.
//! * **Quota release** — [`Session::create_buffer`] charges the
//!   tenant's device-memory ledger; dropping the last [`Buffer`] handle
//!   releases the charge (see `Drop for BufferInner`), so quota flows
//!   back without an explicit free call.
//!
//! Everything here is host-side bookkeeping in *virtual time*: the
//! arbiter never advances the clock, so a default-session program
//! reproduces the single-tenant run bit for bit.

use std::sync::Arc;

use haocl_kernel::NdRange;
use haocl_obs::names;
use haocl_proto::ids::{TenantId, UserId};
use haocl_sched::{
    normalized_cost_nanos, AdmitError, QuotaLedger, SchedulingPolicy, TenantScheduler, TenantSpec,
    TenantStats,
};
use haocl_sim::SimDuration;

use crate::auto::AutoScheduler;
use crate::buffer::{Buffer, MemFlags, TenantCharge};
use crate::context::Context;
use crate::error::Error;
use crate::event::Event;
use crate::kernel::Kernel;

/// One queued launch: everything `dispatch_one` needs to route it.
struct Pending {
    kernel: Kernel,
    range: NdRange,
}

struct ServeInner {
    context: Context,
    auto: AutoScheduler,
    arbiter: TenantScheduler<Pending>,
    ledger: Arc<QuotaLedger>,
}

impl ServeInner {
    /// `stats` with the tenant's live memory-ledger bytes filled in.
    fn with_mem(&self, tenant: TenantId, mut stats: TenantStats) -> TenantStats {
        stats.mem_bytes = self.ledger.used(tenant);
        stats
    }
}

/// The serving tier: one shared [`AutoScheduler`], many tenants.
///
/// # Examples
///
/// ```
/// use haocl::serve::ServingPlane;
/// use haocl::{Context, DeviceKind, DeviceType, Platform};
/// use haocl_sched::{policies, TenantSpec};
///
/// let platform = Platform::local(&[DeviceKind::Gpu])?;
/// let ctx = Context::new(&platform, &platform.devices(DeviceType::All))?;
/// let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new()))?;
/// let acme = plane.open_session(TenantSpec::new("acme").weight(2));
/// assert_eq!(acme.name(), "acme");
/// assert!(plane.is_idle());
/// # Ok::<(), haocl::Error>(())
/// ```
pub struct ServingPlane {
    inner: Arc<ServeInner>,
}

/// A tenant's handle onto the serving plane. Cloneable; clones share
/// the tenant's queue, quotas and accounting.
#[derive(Clone)]
pub struct Session {
    inner: Arc<ServeInner>,
    tenant: TenantId,
    name: String,
}

impl ServingPlane {
    /// Creates the serving tier over all of `context`'s devices, driven
    /// by `policy`. The `"default"` tenant (weight 1, unlimited quota)
    /// is pre-registered for the single-tenant path.
    ///
    /// # Errors
    ///
    /// Propagates queue-creation failures.
    pub fn new(context: &Context, policy: Box<dyn SchedulingPolicy>) -> Result<Self, Error> {
        Self::with_auto(context, AutoScheduler::new(context, policy)?)
    }

    /// Wraps an existing [`AutoScheduler`] (keeps its warmed profile
    /// database, drift verdicts and quarantine threshold).
    ///
    /// # Errors
    ///
    /// None today; `Result` keeps room for validation.
    pub fn with_auto(context: &Context, auto: AutoScheduler) -> Result<Self, Error> {
        let arbiter = TenantScheduler::new();
        let ledger = Arc::new(QuotaLedger::new());
        arbiter.register(
            TenantId::DEFAULT,
            TenantSpec::new(haocl_obs::DEFAULT_TENANT),
        );
        ledger.open(TenantId::DEFAULT, haocl_obs::DEFAULT_TENANT, None);
        Ok(ServingPlane {
            inner: Arc::new(ServeInner {
                context: context.clone(),
                auto,
                arbiter,
                ledger,
            }),
        })
    }

    /// Opens a session for a new tenant: takes its id from the host's
    /// user-id allocator and registers its weight and quotas with the
    /// arbiter and the memory ledger.
    pub fn open_session(&self, spec: TenantSpec) -> Session {
        let user = self.inner.context.platform.host().allocate_user();
        let tenant = TenantId::new(user.raw());
        let name = spec.name.clone();
        self.inner
            .ledger
            .open(tenant, &spec.name, spec.quota.mem_bytes);
        self.inner.arbiter.register(tenant, spec);
        Session {
            inner: Arc::clone(&self.inner),
            tenant,
            name,
        }
    }

    /// The implicit single-tenant session: bills the `"default"` tenant
    /// under user id 0, exactly like an untagged
    /// [`AutoScheduler::launch`].
    pub fn default_session(&self) -> Session {
        Session {
            inner: Arc::clone(&self.inner),
            tenant: TenantId::DEFAULT,
            name: haocl_obs::DEFAULT_TENANT.to_string(),
        }
    }

    /// Closes a session: drops its queue (still-pending launches are
    /// discarded).
    pub fn close_session(&self, session: &Session) {
        self.inner.arbiter.unregister(session.tenant);
    }

    /// Dispatches the next launch under the fair-share policy: the
    /// backlogged tenant with the smallest virtual time goes first.
    /// Returns `Ok(None)` when every queue is empty.
    ///
    /// The launch settles before returning (the scheduler's load
    /// tracking needs the completion time), charging its virtual
    /// duration to the tenant's fairness account and compute budget. A
    /// failed launch settles with zero consumption and propagates its
    /// error.
    ///
    /// # Errors
    ///
    /// Launch failures from [`AutoScheduler::launch_tagged`].
    pub fn dispatch_one(&self) -> Result<Option<(TenantId, Event, usize)>, Error> {
        let Some((tenant, pending)) = self.inner.arbiter.next() else {
            return Ok(None);
        };
        let user = UserId::new(tenant.raw());
        let name = self
            .inner
            .arbiter
            .name(tenant)
            .unwrap_or_else(|| haocl_obs::DEFAULT_TENANT.to_string());
        let host = self.inner.context.platform.host();
        // Tag the wire path: every request this dispatch issues carries
        // the tenant's session id (§III-D's user ID field), and the
        // previous tag comes back when it returns. The default tenant
        // keeps the host's ambient tag, so the single-tenant path stays
        // byte-identical.
        let ambient = (tenant != TenantId::DEFAULT).then(|| host.set_user(user));
        let outcome = self
            .inner
            .auto
            .launch_tagged(&pending.kernel, pending.range, user, &name);
        if let Some(ambient) = ambient {
            host.set_user(ambient);
        }
        let obs = &self.inner.context.platform.obs;
        let consumed = match &outcome {
            Ok((event, _)) => event.duration(),
            Err(_) => SimDuration::ZERO,
        };
        let throttled = self.inner.arbiter.complete(tenant, consumed);
        if throttled {
            obs.metrics
                .inc_counter(names::TENANT_THROTTLES, &[("tenant", &name)], 1);
        }
        let (event, device) = outcome?;
        obs.metrics
            .inc_counter(names::TENANT_LAUNCHES, &[("tenant", &name)], 1);
        obs.metrics.inc_counter(
            names::TENANT_COMPUTE_NANOS,
            &[("tenant", &name)],
            consumed.as_nanos(),
        );
        let depth = self
            .inner
            .arbiter
            .stats(tenant)
            .map_or(0, |s| s.pending as i64);
        obs.metrics
            .set_gauge(names::TENANT_QUEUE_DEPTH, &[("tenant", &name)], depth);
        Ok(Some((tenant, event, device)))
    }

    /// Dispatches until every queue is empty, returning the number of
    /// launches completed.
    ///
    /// # Errors
    ///
    /// Stops at the first launch failure.
    pub fn drain(&self) -> Result<u64, Error> {
        let mut count = 0;
        while self.dispatch_one()?.is_some() {
            count += 1;
        }
        Ok(count)
    }

    /// Dispatches until `budget` of virtual *compute* time has been
    /// consumed across all tenants or every queue empties, whichever
    /// first, returning the number of launches completed. The fairness
    /// harness uses this to measure shares *under contention* — queues
    /// stay backlogged across the window.
    ///
    /// # Errors
    ///
    /// Stops at the first launch failure.
    pub fn drain_budget(&self, budget: SimDuration) -> Result<u64, Error> {
        let mut spent = 0u64;
        let mut count = 0;
        while spent < budget.as_nanos() {
            let Some((_, event, _)) = self.dispatch_one()? else {
                break;
            };
            spent += event.duration().as_nanos();
            count += 1;
        }
        Ok(count)
    }

    /// Lifts a tenant's compute-budget throttle and resets its consumed
    /// budget (the start of a new accounting period).
    pub fn replenish(&self, tenant: TenantId) {
        self.inner.arbiter.replenish(tenant);
    }

    /// Whether the tenant's compute budget is exhausted.
    pub fn is_throttled(&self, tenant: TenantId) -> bool {
        self.inner.arbiter.is_throttled(tenant)
    }

    /// The tenant's accounting snapshot, with live memory-ledger bytes.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        let s = self.inner.arbiter.stats(tenant)?;
        Some(self.inner.with_mem(tenant, s))
    }

    /// Every tenant's `(id, name, stats)`, ascending by id.
    pub fn all_stats(&self) -> Vec<(TenantId, String, TenantStats)> {
        self.inner
            .arbiter
            .all_stats()
            .into_iter()
            .map(|(id, name, s)| (id, name, self.inner.with_mem(id, s)))
            .collect()
    }

    /// Total launches queued across all tenants.
    pub fn pending(&self) -> usize {
        self.inner.arbiter.pending()
    }

    /// Whether no launch is queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.inner.arbiter.is_idle()
    }

    /// The scheduler underneath (profile database, quarantine,
    /// policy).
    pub fn auto(&self) -> &AutoScheduler {
        &self.inner.auto
    }
}

impl std::fmt::Debug for ServingPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPlane")
            .field("arbiter", &self.inner.arbiter)
            .finish()
    }
}

impl Session {
    /// The tenant this session bills against.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The user id this session's requests carry on the wire: its
    /// tenant id (0 for the default session).
    pub fn user(&self) -> UserId {
        UserId::new(self.tenant.raw())
    }

    /// The tenant's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits a launch through admission control into the tenant's
    /// queue. Nothing executes until the plane dispatches it
    /// ([`ServingPlane::dispatch_one`] / [`ServingPlane::drain`]).
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the tenant's queue is full, its
    /// compute budget is exhausted, or the session was closed. A shed
    /// submission changes no cluster state.
    pub fn submit(&self, kernel: &Kernel, range: NdRange) -> Result<(), Error> {
        let est = normalized_cost_nanos(&kernel.cost());
        let queued = self.inner.arbiter.submit(
            self.tenant,
            Pending {
                kernel: kernel.clone(),
                range,
            },
            est,
        );
        let obs = &self.inner.context.platform.obs;
        match queued {
            Ok(()) => {
                let depth = self
                    .inner
                    .arbiter
                    .stats(self.tenant)
                    .map_or(0, |s| s.pending as i64);
                obs.metrics
                    .set_gauge(names::TENANT_QUEUE_DEPTH, &[("tenant", &self.name)], depth);
                Ok(())
            }
            Err(e) => Err(self.shed(e)),
        }
    }

    /// Creates a buffer billed to this tenant's device-memory quota.
    /// The charge releases when the last handle drops.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the charge would exceed the tenant's
    /// memory quota; buffer-creation failures otherwise (the charge is
    /// rolled back).
    pub fn create_buffer(&self, flags: MemFlags, size: u64) -> Result<Buffer, Error> {
        if let Err(e) = self.inner.ledger.try_charge(self.tenant, size) {
            return Err(self.shed(e));
        }
        let obs = &self.inner.context.platform.obs;
        match Buffer::new(&self.inner.context, flags, size) {
            Ok(buffer) => {
                buffer.attach_charge(TenantCharge {
                    ledger: Arc::clone(&self.inner.ledger),
                    tenant: self.tenant,
                    tenant_name: self.name.clone(),
                    bytes: size,
                });
                obs.metrics.set_gauge(
                    names::TENANT_MEM_BYTES,
                    &[("tenant", &self.name)],
                    self.inner.ledger.used(self.tenant) as i64,
                );
                Ok(buffer)
            }
            Err(e) => {
                self.inner.ledger.release(self.tenant, size);
                Err(e)
            }
        }
    }

    /// This tenant's accounting snapshot.
    pub fn stats(&self) -> Option<TenantStats> {
        let s = self.inner.arbiter.stats(self.tenant)?;
        Some(self.inner.with_mem(self.tenant, s))
    }

    /// Records the shed in metrics and wraps the admission error.
    fn shed(&self, e: AdmitError) -> Error {
        let reason = match &e {
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::MemoryQuota { .. } => "memory_quota",
            AdmitError::ComputeBudget { .. } => "compute_budget",
            AdmitError::UnknownTenant { .. } => "unknown_tenant",
        };
        let obs = &self.inner.context.platform.obs;
        obs.metrics.inc_counter(
            names::TENANT_SHED,
            &[("tenant", &self.name), ("reason", reason)],
            1,
        );
        Error::Overloaded(e)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Session({} as {})", self.name, self.user())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeviceType, Platform};
    use crate::program::Program;
    use haocl_kernel::CostModel;
    use haocl_proto::messages::DeviceKind;
    use haocl_sched::{policies, TenantQuota};

    fn plane_with_kernel() -> (Platform, ServingPlane, Kernel, Buffer) {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void bump(__global int* a) { a[get_global_id(0)] += 1; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "bump").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        (p, plane, k, buf)
    }

    #[test]
    fn default_session_drains_like_direct_launches() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        let session = plane.default_session();
        for _ in 0..3 {
            session.submit(&k, NdRange::linear(4, 1)).unwrap();
        }
        assert_eq!(plane.pending(), 3);
        assert_eq!(plane.drain().unwrap(), 3);
        assert!(plane.is_idle());
        let stats = plane.stats(TenantId::DEFAULT).unwrap();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn bounded_queue_sheds_with_typed_error() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        let s = plane
            .open_session(TenantSpec::new("tiny").quota(TenantQuota::unlimited().max_pending(2)));
        s.submit(&k, NdRange::linear(4, 1)).unwrap();
        s.submit(&k, NdRange::linear(4, 1)).unwrap();
        let err = s.submit(&k, NdRange::linear(4, 1)).unwrap_err();
        assert!(matches!(
            err,
            Error::Overloaded(AdmitError::QueueFull { limit: 2, .. })
        ));
        // The shed is visible in the tenant's stats.
        assert_eq!(s.stats().unwrap().shed, 1);
        assert_eq!(plane.drain().unwrap(), 2);
    }

    #[test]
    fn memory_quota_bounds_buffer_creation_until_drop() {
        let (_p, plane, _k, _buf) = plane_with_kernel();
        let s = plane
            .open_session(TenantSpec::new("memo").quota(TenantQuota::unlimited().mem_bytes(128)));
        let a = s.create_buffer(MemFlags::READ_WRITE, 96).unwrap();
        let err = s.create_buffer(MemFlags::READ_WRITE, 64).unwrap_err();
        assert!(matches!(
            err,
            Error::Overloaded(AdmitError::MemoryQuota { .. })
        ));
        assert_eq!(s.stats().unwrap().mem_bytes, 96);
        drop(a);
        // The drop released the charge: the same request now admits.
        let _b = s.create_buffer(MemFlags::READ_WRITE, 64).unwrap();
        assert_eq!(s.stats().unwrap().mem_bytes, 64);
    }

    #[test]
    fn compute_budget_throttles_until_replenished() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        k.set_cost(CostModel::new().flops(1e9));
        // Budget 1.5× the launch's *normalized* estimate: the first
        // submit always admits, and repeated rounds must throttle —
        // either ahead of time (estimate would overrun) or at
        // settlement (consumption reached the limit).
        let est = normalized_cost_nanos(&k.cost());
        let s = plane.open_session(
            TenantSpec::new("capped")
                .quota(TenantQuota::unlimited().compute(SimDuration::from_nanos(est * 3 / 2))),
        );
        let mut shed = None;
        for _ in 0..64 {
            match s.submit(&k, NdRange::linear(4, 1)) {
                Ok(()) => plane.drain().map(|_| ()).unwrap(),
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            shed,
            Some(Error::Overloaded(AdmitError::ComputeBudget { .. }))
        ));
        assert!(plane.is_throttled(s.tenant()));
        plane.replenish(s.tenant());
        s.submit(&k, NdRange::linear(4, 1)).unwrap();
        assert_eq!(plane.drain().unwrap(), 1);
    }

    #[test]
    fn weighted_tenants_split_compute_fairly() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        k.set_cost(CostModel::new().flops(1e9));
        let heavy = plane.open_session(TenantSpec::new("heavy").weight(2));
        let light = plane.open_session(TenantSpec::new("light"));
        // Calibrate one launch's virtual compute time so the drain
        // window admits ~20 of the 60 queued launches.
        heavy.submit(&k, NdRange::linear(4, 1)).unwrap();
        plane.drain().unwrap();
        let per_launch = plane.stats(heavy.tenant()).unwrap().compute_nanos;
        assert!(per_launch > 0);
        for _ in 0..30 {
            heavy.submit(&k, NdRange::linear(4, 1)).unwrap();
            light.submit(&k, NdRange::linear(4, 1)).unwrap();
        }
        // Drain a bounded window so both stay backlogged throughout:
        // shares are only meaningful under contention.
        plane
            .drain_budget(SimDuration::from_nanos(per_launch * 20))
            .unwrap();
        let h = plane.stats(heavy.tenant()).unwrap();
        let l = plane.stats(light.tenant()).unwrap();
        assert!(h.pending > 0 && l.pending > 0, "window must stay contended");
        let ratio = h.compute_nanos as f64 / l.compute_nanos as f64;
        assert!(
            (ratio - 2.0).abs() < 0.4,
            "2:1 weights must yield ~2:1 compute ({ratio:.2})"
        );
    }

    #[test]
    fn tenant_dispatch_restores_the_host_tag() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        let tag = || plane.inner.context.platform.host().user();
        let tenant = plane.open_session(TenantSpec::new("tagged"));
        assert_eq!(tag(), UserId::new(0), "ambient tag is the host's");
        tenant.submit(&k, NdRange::linear(4, 1)).unwrap();
        plane.drain().unwrap();
        plane
            .default_session()
            .submit(&k, NdRange::linear(4, 1))
            .unwrap();
        plane.drain().unwrap();
        assert_eq!(tag(), UserId::new(0), "tenant tag leaked");
    }

    #[test]
    fn closed_sessions_shed_with_unknown_tenant() {
        let (_p, plane, k, _buf) = plane_with_kernel();
        let s = plane.open_session(TenantSpec::new("gone"));
        plane.close_session(&s);
        let err = s.submit(&k, NdRange::linear(4, 1)).unwrap_err();
        assert!(matches!(
            err,
            Error::Overloaded(AdmitError::UnknownTenant { .. })
        ));
    }
}
