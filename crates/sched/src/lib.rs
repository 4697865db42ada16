//! The extensible task scheduling component (paper §III-B).
//!
//! The demo paper ships *user-directed* placement and sketches an
//! upgrade path: "it can be upgraded to an automatic scheduler with the
//! runtime profiling information from the cluster to enable more accurate
//! heterogeneity-aware task scheduling." This crate implements both the
//! shipped behaviour and that upgrade:
//!
//! * [`task`] — [`TaskSpec`]: one kernel launch as the scheduler sees it.
//!   Dependency ordering (Fig. 1's task graph) lives in the host
//!   runtime's `LaunchGraph`, not here.
//! * [`monitor`] — [`DeviceView`]: the host-side snapshot of every device
//!   in the cluster (model summary + load + data locality + the node's
//!   standing: active, quarantined, advisory health penalty),
//!   [`NodeCondition`]: the health verdict the runtime derives from its
//!   failover counts and the drift verdict, and [`DriftDetector`]:
//!   per-node z-score/ratio tests over rolling launch-timing windows
//!   that flag sub-healthy devices.
//! * [`profile`] — [`ProfileDb`]: per-(kernel, device-class) EWMAs of
//!   observed execution times, recalibrated online on every completed
//!   launch.
//! * [`policy`] — the object-safe [`SchedulingPolicy`] trait users extend
//!   with their own algorithms, and `policy::predict`: the two-rung
//!   prediction ladder (warm observed profile, else the roofline cost
//!   model) the cost-driven policies and the audit log both read.
//! * [`policies`] — six built-ins: user-directed, round-robin,
//!   least-loaded, heterogeneity-aware (profile + model driven),
//!   power-aware and locality-aware.
//! * [`tenancy`] — the multi-tenant arbitration tier *above* placement:
//!   [`TenantScheduler`] (weighted fair queueing over bounded per-tenant
//!   queues, device-memory quotas) and the typed [`AdmitError`] shed
//!   reasons — placement decides *where*, tenancy decides *whose* and
//!   *whether at all*.
//!
//! # Examples
//!
//! ```
//! use haocl_sched::{policies, DeviceView, ProfileDb, Scheduler, TaskSpec};
//! use haocl_kernel::CostModel;
//! use haocl_proto::messages::DeviceKind;
//!
//! let scheduler = Scheduler::new(Box::new(policies::HeteroAware::new()));
//! let devices = vec![
//!     DeviceView::sample(0, 0, DeviceKind::Gpu),
//!     DeviceView::sample(1, 0, DeviceKind::Fpga),
//! ];
//! // A streaming task lands on the FPGA.
//! let task = TaskSpec::new("spmv_compute")
//!     .cost(CostModel::new().flops(1e9).bytes_read(1e6).streaming())
//!     .fpga_eligible(true);
//! let choice = scheduler.place(&task, &devices)?;
//! assert_eq!(devices[choice].kind, DeviceKind::Fpga);
//! # Ok::<(), haocl_sched::SchedError>(())
//! ```

#![forbid(unsafe_code)]

pub mod monitor;
pub mod policies;
pub mod policy;
pub mod profile;
pub mod task;
pub mod tenancy;

pub use monitor::{
    DeviceView, DriftDetector, DriftEvent, NodeCondition, DEFAULT_QUARANTINE_THRESHOLD,
};
pub use policy::{SchedError, Scheduler, SchedulingPolicy};
pub use profile::ProfileDb;
pub use task::TaskSpec;
pub use tenancy::{
    normalized_cost_nanos, AdmitError, TenantQuota, TenantScheduler, TenantSpec, TenantStats,
};
