//! Kernel abstraction for the HaoCL runtime.
//!
//! Device nodes execute kernels in one of two forms:
//!
//! * **Compiled** — OpenCL C source compiled by [`haocl_clc`] and run on
//!   its work-item VM. This is the `clCreateProgramWithSource` path used
//!   by CPU and GPU nodes.
//! * **Native** — a pre-built Rust implementation registered in a
//!   [`KernelRegistry`]. This models the paper's FPGA flow (§III-D):
//!   *"the tasks are pre-built as executable binaries with the bitstreams"*
//!   — FPGA nodes cannot compile arbitrary source online and instead look
//!   kernels up in their bitstream store. Native kernels are also the fast
//!   path for large launches on any device.
//!
//! Both forms execute through one entry point, [`Kernel::execute`], and
//! both are costed for virtual time with a [`CostModel`].
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use haocl_kernel::{ArgValue, GlobalBuffer, Kernel, NdRange};
//!
//! let program = haocl_clc::compile(
//!     "__kernel void neg(__global int* a) { int i = get_global_id(0); a[i] = -a[i]; }",
//! )?;
//! let kernel = Kernel::Compiled(Arc::new(program.kernel("neg").unwrap().clone()));
//! let mut bufs = vec![GlobalBuffer::from_i32(&[1, -2, 3])];
//! kernel.execute(&[ArgValue::global(0)], &mut bufs, &NdRange::linear(3, 1))?;
//! assert_eq!(bufs[0].as_i32(), vec![-1, 2, -3]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod registry;

use std::fmt;
use std::sync::Arc;

pub use cost::CostModel;
pub use registry::KernelRegistry;

// The VM's launch vocabulary is the kernel vocabulary; re-export it so
// downstream crates depend on `haocl-kernel` only.
pub use haocl_clc::vm::{ArgValue, ExecError, ExecStats, GlobalBuffer, NdRange, Value};
pub use haocl_clc::{ClcError, CompiledKernel, CompiledProgram};

/// A pre-built kernel implementation (the "bitstream" form).
///
/// Implementations must be deterministic: the cluster runtime may re-run a
/// kernel on a different node and expects identical buffers.
pub trait NativeKernel: Send + Sync {
    /// The kernel name used for lookup (matches the OpenCL kernel name).
    fn name(&self) -> &str;

    /// Number of arguments the kernel expects.
    fn arity(&self) -> usize;

    /// Executes the kernel across `range`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on argument mismatches or out-of-bounds
    /// accesses, mirroring the VM's failure modes.
    fn execute(
        &self,
        args: &[ArgValue],
        buffers: &mut [GlobalBuffer],
        range: &NdRange,
    ) -> Result<ExecStats, ExecError>;
}

/// An executable kernel in either form.
#[derive(Clone)]
pub enum Kernel {
    /// Bytecode compiled from OpenCL C source.
    Compiled(Arc<CompiledKernel>),
    /// A registered pre-built implementation.
    Native(Arc<dyn NativeKernel>),
}

impl Kernel {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        match self {
            Kernel::Compiled(k) => &k.name,
            Kernel::Native(k) => k.name(),
        }
    }

    /// Number of arguments the kernel expects.
    pub fn arity(&self) -> usize {
        match self {
            Kernel::Compiled(k) => k.arity(),
            Kernel::Native(k) => k.arity(),
        }
    }

    /// Whether this is a pre-built native kernel (bitstream form).
    pub fn is_native(&self) -> bool {
        matches!(self, Kernel::Native(_))
    }

    /// Executes the kernel across `range` against `buffers`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for invalid arguments, out-of-bounds buffer
    /// accesses, division by zero or barrier divergence.
    pub fn execute(
        &self,
        args: &[ArgValue],
        buffers: &mut [GlobalBuffer],
        range: &NdRange,
    ) -> Result<ExecStats, ExecError> {
        if args.len() != self.arity() {
            return Err(ExecError::from_message(format!(
                "kernel `{}` expects {} argument(s), got {}",
                self.name(),
                self.arity(),
                args.len()
            )));
        }
        match self {
            Kernel::Compiled(k) => haocl_clc::vm::run_ndrange(k, args, buffers, range),
            Kernel::Native(k) => k.execute(args, buffers, range),
        }
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kernel::Compiled(k) => write!(f, "Kernel::Compiled({})", k.name),
            Kernel::Native(k) => write!(f, "Kernel::Native({})", k.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl NativeKernel for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }

        fn arity(&self) -> usize {
            1
        }

        fn execute(
            &self,
            _args: &[ArgValue],
            buffers: &mut [GlobalBuffer],
            range: &NdRange,
        ) -> Result<ExecStats, ExecError> {
            let mut data = buffers[0].as_i32();
            for v in data.iter_mut() {
                *v *= 2;
            }
            buffers[0] = GlobalBuffer::from_i32(&data);
            Ok(ExecStats {
                instructions: range.total_items(),
                work_items: range.total_items(),
                work_groups: range.total_groups(),
                barriers: 0,
            })
        }
    }

    #[test]
    fn native_kernel_executes() {
        let k = Kernel::Native(Arc::new(Doubler));
        assert_eq!(k.name(), "doubler");
        assert!(k.is_native());
        let mut bufs = vec![GlobalBuffer::from_i32(&[1, 2, 3, 4])];
        k.execute(&[ArgValue::global(0)], &mut bufs, &NdRange::linear(4, 1))
            .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn compiled_kernel_executes() {
        let p = haocl_clc::compile(
            "__kernel void half(__global int* a) { int i = get_global_id(0); a[i] = a[i] / 2; }",
        )
        .unwrap();
        let k = Kernel::Compiled(Arc::new(p.kernel("half").unwrap().clone()));
        assert!(!k.is_native());
        assert_eq!(k.arity(), 1);
        let mut bufs = vec![GlobalBuffer::from_i32(&[2, 4, 6, 8])];
        k.execute(&[ArgValue::global(0)], &mut bufs, &NdRange::linear(4, 2))
            .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn arity_mismatch_fails_before_dispatch() {
        let k = Kernel::Native(Arc::new(Doubler));
        let mut bufs = vec![GlobalBuffer::from_i32(&[1])];
        let err = k
            .execute(&[], &mut bufs, &NdRange::linear(1, 1))
            .unwrap_err();
        assert!(err.message().contains("expects 1 argument"));
    }

    #[test]
    fn debug_shows_form_and_name() {
        let k = Kernel::Native(Arc::new(Doubler));
        assert_eq!(format!("{k:?}"), "Kernel::Native(doubler)");
    }
}
