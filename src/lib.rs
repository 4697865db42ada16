//! The HaoCL suite meta-crate.
//!
//! Re-exports every crate of the workspace for the runnable examples in
//! `examples/` and the cross-crate integration tests in `tests/`. Library
//! users should depend on the individual crates (start with [`haocl`]).
//!
//! The README follows; its Rust blocks compile and run as this crate's
//! doctests.
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]

pub use haocl;
pub use haocl_baselines as baselines;
pub use haocl_clc as clc;
pub use haocl_cluster as cluster;
pub use haocl_device as device;
pub use haocl_kernel as kernel;
pub use haocl_net as net;
pub use haocl_proto as proto;
pub use haocl_sched as sched;
pub use haocl_sim as sim;
pub use haocl_workloads as workloads;
