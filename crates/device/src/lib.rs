//! Simulated heterogeneous compute devices.
//!
//! The paper's cluster mixes Intel Xeon E5-2686 CPUs, NVIDIA Tesla P4
//! GPUs and Xilinx VU9P FPGAs. None of that silicon is available here, so
//! this crate substitutes *analytic device models* driving a virtual
//! clock, while kernels still execute for real on the [`haocl_clc`]
//! VM so results stay verifiable:
//!
//! * [`model`] — the roofline-style [`DeviceModel`]: peak compute, memory
//!   bandwidth, launch overhead, divergence penalties, and the FPGA's
//!   streaming-pipeline character (fill latency, bitstream load).
//! * [`presets`] — calibrated models for the paper's three device types.
//! * [`memory`] — per-device buffer store with capacity accounting.
//! * [`device`] — [`SimDevice`]: a device timeline that admits transfers
//!   and launches, executes them, charges virtual time and energy, and
//!   records the per-kernel profile the scheduler feeds on.
//! * [`wire`] — launch geometry and cost, to and from their wire forms.
//!
//! # Examples
//!
//! ```
//! use haocl_device::presets;
//! use haocl_kernel::CostModel;
//!
//! let gpu = presets::tesla_p4();
//! let fpga = presets::vu9p();
//! // A uniform compute-heavy launch runs faster on the GPU...
//! let dense = CostModel::new().flops(1e10).bytes_read(1e8);
//! assert!(gpu.kernel_time(&dense) < fpga.kernel_time(&dense));
//! // ...but the FPGA wins on energy for streaming workloads.
//! let stream = CostModel::new().flops(1e10).bytes_read(1e8).streaming();
//! let gpu_energy = gpu.energy(gpu.kernel_time(&stream));
//! let fpga_energy = fpga.energy(fpga.kernel_time(&stream));
//! assert!(fpga_energy < gpu_energy);
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod memory;
pub mod model;
pub mod presets;
pub mod wire;

pub use device::{DeviceError, LaunchOutcome, LaunchPart, SimDevice};
pub use memory::MemoryManager;
pub use model::DeviceModel;

pub use haocl_proto::messages::DeviceKind;
