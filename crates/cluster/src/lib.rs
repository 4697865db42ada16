//! The HaoCL cluster runtime: Node Management Processes and the host.
//!
//! This crate wires the substrates together into the system of Fig. 1:
//!
//! * [`config`] — the cluster configuration file (host address, node
//!   addresses and device inventories, link parameters) the paper's host
//!   process reads at startup (§III-C).
//! * [`nmp`] — the **Node Management Process** (§III-D): a daemon on each
//!   device node that accepts connections on a *message* port and a
//!   *data* port, unpacks message packages, executes them on its
//!   simulated devices and replies. FPGAs only serve kernels pre-built in
//!   their bitstream registry.
//! * [`host`] — the host-side runtime: connects to every node from the
//!   config, performs the `clGetDeviceIDs` device-mapping handshake, and
//!   forwards calls over a pipelined backbone — non-blocking
//!   [`HostRuntime::submit`] returning a [`host::PendingCall`], with
//!   whoever waits completing responses out of order for everyone
//!   (leader/follower receive, in the private `link` module) and
//!   [`HostRuntime::call`] retaining the paper's synchronous semantics.
//! * [`local`] — [`LocalCluster`]: spawns a whole cluster in-process
//!   (NMPs as OS threads on a shared [`haocl_net::Fabric`]) for tests,
//!   examples and benchmarks.
//! * [`autoscale`] — the metrics-driven [`autoscale::Autoscaler`]: a
//!   hysteresis/cooldown policy engine over the obs layer's queue-depth
//!   series that tells the platform when to grow or drain the fleet.
//!
//! # Examples
//!
//! ```
//! use haocl_cluster::{ClusterConfig, LocalCluster};
//! use haocl_kernel::KernelRegistry;
//! use haocl_proto::messages::ApiCall;
//!
//! let config = ClusterConfig::gpu_cluster(2);
//! let cluster = LocalCluster::launch(&config, KernelRegistry::new())?;
//! let host = cluster.host();
//! assert_eq!(host.devices().len(), 2);
//! # Ok::<(), haocl_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod config;
pub mod error;
pub mod host;
mod link;
pub mod local;
pub mod nmp;

pub use autoscale::{AutoscaleConfig, Autoscaler, Decision, LoadSample};
pub use config::{ClusterConfig, NodeSpec};
pub use error::ClusterError;
pub use host::{
    CallOutcome, HostRuntime, MembershipState, PendingCall, RecoveryPolicy, RemoteDevice,
};
pub use local::LocalCluster;
pub use nmp::{NmpHandle, NodeObjects};
