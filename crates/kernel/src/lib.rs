//! Kernel abstraction for the HaoCL runtime.
//!
//! Every kernel is OpenCL C compiled by [`haocl_clc`] and run on its
//! work-item VM ([`haocl_clc::vm::run_ndrange`]). What differs between
//! device classes is *when* the compile happens:
//!
//! * CPU and GPU nodes build source online (`clCreateProgramWithSource`).
//! * FPGA nodes cannot. They look kernels up in a [`KernelRegistry`], the
//!   bitstream store, which holds the same OpenCL C compiled ahead of
//!   time. This models the paper's FPGA flow (§III-D): *"the tasks are
//!   pre-built as executable binaries with the bitstreams"*.
//!
//! Launches are costed for virtual time with a [`CostModel`].
//!
//! # Examples
//!
//! ```
//! use haocl_kernel::{ArgValue, GlobalBuffer, KernelRegistry, NdRange};
//!
//! let store = KernelRegistry::new();
//! store.register_source(
//!     "__kernel void neg(__global int* a) { int i = get_global_id(0); a[i] = -a[i]; }",
//! )?;
//! let kernel = store.get("neg").unwrap();
//! let mut bufs = vec![GlobalBuffer::from_i32(&[1, -2, 3])];
//! haocl_clc::vm::run_ndrange(&kernel, &[ArgValue::global(0)], &mut bufs, &NdRange::linear(3, 1))?;
//! assert_eq!(bufs[0].as_i32(), vec![-1, 2, -3]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod registry;

pub use cost::CostModel;
pub use registry::KernelRegistry;

// The VM's launch vocabulary is the kernel vocabulary; re-export it so
// downstream crates depend on `haocl-kernel` only.
pub use haocl_clc::vm::{ArgValue, ExecError, ExecStats, GlobalBuffer, NdRange, Value};
pub use haocl_clc::{ClcError, CompiledKernel, CompiledProgram};
