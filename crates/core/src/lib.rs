//! HaoCL: an OpenCL-compatible programming framework for large-scale
//! heterogeneous clusters.
//!
//! This crate is the paper's *wrapper library* (§III-B): it exposes the
//! OpenCL object model — platform, devices, context, command queues,
//! buffers, programs, kernels, events — and implements every call by
//! packaging it into a message and forwarding it over the communication
//! backbone to the Node Management Process that owns the target device.
//! Existing OpenCL host programs port by renaming calls
//! (`clEnqueueNDRangeKernel` → [`CommandQueue::enqueue_nd_range_kernel`]
//! or the [`api`] free functions); the cluster topology stays invisible.
//!
//! * [`platform`] — [`Platform`]: the ICD entry point. A platform either
//!   fronts a whole cluster ([`Platform::cluster`]) or a single node with
//!   a zero-cost interconnect ([`Platform::local`]) — the latter is the
//!   "native OpenCL" baseline the paper compares against.
//! * [`buffer`] — [`Buffer`] with a host shadow copy and single-writer
//!   coherence across device nodes (transfers are host-mediated, as in
//!   the paper where the host does all message delivering).
//! * [`program`] / [`kernel`] — source programs compile on CPU/GPU nodes;
//!   FPGA nodes load pre-built bitstream kernels (§III-D).
//! * [`queue`] / [`event`] — in-order queues with OpenCL-style profiling
//!   on virtual time.
//! * [`auto`] — the extendable task scheduling component: launches routed
//!   by a pluggable [`haocl_sched::SchedulingPolicy`] instead of an
//!   explicit queue.
//! * [`serve`] — the multi-tenant serving plane: [`Session`]s over one
//!   shared scheduler, weighted fair queueing between tenants, and
//!   admission control with typed overload errors.
//! * [`api`] — free functions mirroring the OpenCL C API names.
//!
//! # Examples
//!
//! ```
//! use haocl::{Buffer, CommandQueue, Context, DeviceType, MemFlags, Platform, Program};
//! use haocl::kernel::Kernel;
//! use haocl_kernel::NdRange;
//!
//! // A "cluster" of one simulated GPU node, zero-cost interconnect.
//! let platform = Platform::local(&[haocl::DeviceKind::Gpu])?;
//! let devices = platform.devices(DeviceType::All);
//! let context = Context::new(&platform, &devices)?;
//! let queue = CommandQueue::new(&context, &devices[0])?;
//!
//! let program = Program::from_source(
//!     &context,
//!     "__kernel void vadd(__global const float* a, __global const float* b,
//!                         __global float* c) {
//!         int i = get_global_id(0);
//!         c[i] = a[i] + b[i];
//!     }",
//! );
//! program.build()?;
//! let kernel = Kernel::new(&program, "vadd")?;
//!
//! let a = Buffer::new(&context, MemFlags::READ_ONLY, 16)?;
//! let b = Buffer::new(&context, MemFlags::READ_ONLY, 16)?;
//! let c = Buffer::new(&context, MemFlags::WRITE_ONLY, 16)?;
//! queue.enqueue_write_buffer(&a, 0, &1.0f32.to_le_bytes().repeat(4))?;
//! queue.enqueue_write_buffer(&b, 0, &2.0f32.to_le_bytes().repeat(4))?;
//!
//! kernel.set_arg_buffer(0, &a)?;
//! kernel.set_arg_buffer(1, &b)?;
//! kernel.set_arg_buffer(2, &c)?;
//! queue.enqueue_nd_range_kernel(&kernel, NdRange::linear(4, 2))?;
//!
//! let mut out = vec![0u8; 16];
//! queue.enqueue_read_buffer(&c, 0, &mut out)?;
//! queue.finish();
//! assert!(out.chunks_exact(4).all(|c| f32::from_le_bytes(c.try_into().unwrap()) == 3.0));
//! # Ok::<(), haocl::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod auto;
pub mod buffer;
pub mod context;
pub mod error;
pub mod event;
pub mod graph;
pub mod kernel;
pub mod platform;
pub mod program;
pub mod queue;
pub(crate) mod residency;
pub mod serve;

pub use buffer::{Buffer, MemFlags};
pub use context::Context;
pub use error::{Error, Status};
pub use event::Event;
pub use graph::{GraphReport, LaunchGraph};
pub use kernel::Kernel;
pub use platform::{Device, DeviceType, DrainOptions, DrainReport, Platform};
pub use program::Program;
pub use queue::CommandQueue;
pub use serve::{ServingPlane, Session};

pub use haocl_cluster::{
    AutoscaleConfig, Autoscaler, Decision, LoadSample, MembershipState, NodeObjects, NodeSpec,
    RecoveryPolicy,
};
pub use haocl_kernel::NdRange;
pub use haocl_net::{ChaosPolicy, ChaosSpec};
pub use haocl_proto::ids::{NodeId, TenantId};
pub use haocl_proto::messages::{DeviceKind, Fidelity};
pub use haocl_sched::{AdmitError, NodeCondition, TenantQuota, TenantSpec, TenantStats};
