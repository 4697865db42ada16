//! `cl_kernel` objects.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use haocl_kernel::CostModel;
use haocl_proto::ids::KernelId;
use haocl_proto::messages::{ApiCall, ApiReply, Fidelity, WireArg};
use haocl_sim::Phase;

use crate::buffer::Buffer;
use crate::error::{Error, Status};
use crate::platform::Device;
use crate::program::Program;

/// A bound kernel argument.
#[derive(Clone, Debug)]
pub(crate) enum StoredArg {
    /// A buffer object.
    Buffer(Buffer),
    /// A scalar passed by value.
    Scalar(WireArg),
    /// A dynamically-sized `__local` allocation.
    Local(u64),
}

pub(crate) struct KernelInner {
    pub(crate) program: Program,
    pub(crate) name: Arc<str>,
    /// Per-device remote kernel handles (created lazily).
    remote: Mutex<HashMap<usize, KernelId>>,
    arity: u32,
    pub(crate) args: Mutex<Vec<Option<StoredArg>>>,
    cost: Mutex<CostModel>,
    fidelity: Mutex<Fidelity>,
}

/// An OpenCL kernel with bound arguments and a launch cost hint.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) inner: Arc<KernelInner>,
}

impl Kernel {
    /// Creates a kernel from a built program (`clCreateKernel`).
    ///
    /// The kernel is instantiated eagerly on the first built device to
    /// learn its arity, and lazily on every other device at first launch.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidProgramExecutable`] if the program has not been
    /// built for any device; [`Status::InvalidKernelName`] if the program
    /// has no kernel named `name`.
    pub fn new(program: &Program, name: impl Into<String>) -> Result<Self, Error> {
        let name = name.into();
        let first_built = program
            .context()
            .devices()
            .iter()
            .find(|d| program.is_built_for(d.index))
            .cloned()
            .ok_or_else(|| {
                Error::api(
                    Status::InvalidProgramExecutable,
                    "program has not been built for any device",
                )
            })?;
        let id = KernelId::new(program.inner.platform.ids.next());
        let outcome = program.inner.platform.call_traced(
            first_built.node(),
            ApiCall::CreateKernel {
                device: first_built.device_index(),
                kernel: id,
                program: program.inner.id,
                name: name.clone(),
            },
            Phase::Init,
        )?;
        let arity = match outcome.reply {
            ApiReply::KernelInfo { arity } => arity,
            other => {
                return Err(Error::Transport(format!(
                    "CreateKernel answered with {other:?}"
                )));
            }
        };
        let mut remote = HashMap::new();
        remote.insert(first_built.index, id);
        Ok(Kernel {
            inner: Arc::new(KernelInner {
                program: program.clone(),
                name: name.into(),
                remote: Mutex::new(remote),
                arity,
                args: Mutex::new(vec![None; arity as usize]),
                cost: Mutex::new(CostModel::new()),
                fidelity: Mutex::new(Fidelity::Full),
            }),
        })
    }

    /// The kernel's function name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of arguments the kernel takes.
    pub fn arity(&self) -> u32 {
        self.inner.arity
    }

    /// The program this kernel came from.
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// Binds a buffer argument (`clSetKernelArg` with a `cl_mem`).
    ///
    /// # Errors
    ///
    /// [`Status::InvalidArgIndex`] for an out-of-range index.
    pub fn set_arg_buffer(&self, index: u32, buffer: &Buffer) -> Result<(), Error> {
        self.set_stored(index, StoredArg::Buffer(buffer.clone()))
    }

    /// Binds a dynamically-sized `__local` allocation argument.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidArgIndex`] for an out-of-range index.
    pub fn set_arg_local(&self, index: u32, bytes: u64) -> Result<(), Error> {
        self.set_stored(index, StoredArg::Local(bytes))
    }

    fn set_stored(&self, index: u32, arg: StoredArg) -> Result<(), Error> {
        let mut args = self.inner.args.lock();
        let slot = args.get_mut(index as usize).ok_or_else(|| {
            Error::api(
                Status::InvalidArgIndex,
                format!(
                    "argument index {index} out of range for kernel `{}` with {} argument(s)",
                    self.inner.name, self.inner.arity
                ),
            )
        })?;
        *slot = Some(arg);
        Ok(())
    }

    /// Sets the device-independent cost hint used for virtual timing and
    /// scheduling of this kernel's launches.
    pub fn set_cost(&self, cost: CostModel) {
        *self.inner.cost.lock() = cost;
    }

    /// The current cost hint.
    pub fn cost(&self) -> CostModel {
        *self.inner.cost.lock()
    }

    /// Chooses full execution or model-only timing for launches.
    pub fn set_fidelity(&self, fidelity: Fidelity) {
        *self.inner.fidelity.lock() = fidelity;
    }

    /// The current fidelity.
    pub fn fidelity(&self) -> Fidelity {
        *self.inner.fidelity.lock()
    }

    /// The remote kernel handle on `device`, creating it if necessary.
    pub(crate) fn ensure_remote(&self, device: &Device) -> Result<KernelId, Error> {
        if let Some(id) = self.inner.remote.lock().get(&device.index) {
            return Ok(*id);
        }
        if !self.inner.program.is_built_for(device.index) {
            return Err(Error::api(
                Status::InvalidProgramExecutable,
                format!(
                    "program not built for device {} (`{}`)",
                    device.index(),
                    device.name()
                ),
            ));
        }
        let id = KernelId::new(self.inner.program.inner.platform.ids.next());
        let outcome = self.inner.program.inner.platform.call_traced(
            device.node(),
            ApiCall::CreateKernel {
                device: device.device_index(),
                kernel: id,
                program: self.inner.program.inner.id,
                name: self.inner.name.to_string(),
            },
            Phase::Init,
        )?;
        match outcome.reply {
            ApiReply::KernelInfo { .. } => {
                self.inner.remote.lock().insert(device.index, id);
                Ok(id)
            }
            other => Err(Error::Transport(format!(
                "CreateKernel answered with {other:?}"
            ))),
        }
    }

    /// Snapshots the bound arguments, erroring if any slot is unset.
    pub(crate) fn bound_args(&self) -> Result<Vec<StoredArg>, Error> {
        let args = self.inner.args.lock();
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            match a {
                Some(arg) => out.push(arg.clone()),
                None => {
                    return Err(Error::api(
                        Status::InvalidKernelArgs,
                        format!("argument {i} of kernel `{}` is not set", self.inner.name),
                    ));
                }
            }
        }
        Ok(out)
    }
}

macro_rules! scalar_setters {
    ($($fn_name:ident, $t:ty, $variant:ident, $doc:literal;)*) => {
        impl Kernel {
            $(
                #[doc = $doc]
                ///
                /// # Errors
                ///
                /// [`Status::InvalidArgIndex`] for an out-of-range index.
                pub fn $fn_name(&self, index: u32, value: $t) -> Result<(), Error> {
                    self.set_stored(index, StoredArg::Scalar(WireArg::$variant(value)))
                }
            )*
        }
    };
}

scalar_setters! {
    set_arg_f32, f32, F32, "Binds a `float` scalar argument.";
    set_arg_f64, f64, F64, "Binds a `double` scalar argument.";
    set_arg_i32, i32, I32, "Binds an `int` scalar argument.";
    set_arg_u32, u32, U32, "Binds a `uint` scalar argument.";
    set_arg_i64, i64, I64, "Binds a `long` scalar argument.";
    set_arg_u64, u64, U64, "Binds a `ulong` scalar argument.";
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({}/{})", self.inner.name, self.inner.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::context::Context;
    use crate::platform::{DeviceType, Platform};
    use haocl_proto::messages::DeviceKind;

    fn built_program() -> (Platform, Context, Program) {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void axpy(__global float* y, __global const float* x, float a, int n) {
                int i = get_global_id(0);
                if (i < n) y[i] = y[i] + a * x[i];
            }",
        );
        prog.build().unwrap();
        (p, ctx, prog)
    }

    #[test]
    fn kernel_learns_arity_from_node() {
        let (_p, _ctx, prog) = built_program();
        let k = Kernel::new(&prog, "axpy").unwrap();
        assert_eq!(k.arity(), 4);
        assert_eq!(k.name(), "axpy");
    }

    #[test]
    fn unknown_kernel_name_rejected() {
        let (_p, _ctx, prog) = built_program();
        let err = Kernel::new(&prog, "ghost").unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidKernelName));
    }

    #[test]
    fn unbuilt_program_rejected() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, "__kernel void f() {}");
        let err = Kernel::new(&prog, "f").unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidProgramExecutable));
    }

    #[test]
    fn arg_index_bounds_checked() {
        let (_p, _ctx, prog) = built_program();
        let k = Kernel::new(&prog, "axpy").unwrap();
        assert_eq!(
            k.set_arg_f32(9, 1.0).unwrap_err().status(),
            Some(Status::InvalidArgIndex)
        );
    }

    #[test]
    fn unset_args_detected_at_launch_prep() {
        let (_p, ctx, prog) = built_program();
        let k = Kernel::new(&prog, "axpy").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_buffer(1, &buf).unwrap();
        k.set_arg_f32(2, 2.0).unwrap();
        // arg 3 unset
        let err = k.bound_args().unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidKernelArgs));
        k.set_arg_i32(3, 4).unwrap();
        assert_eq!(k.bound_args().unwrap().len(), 4);
    }

    #[test]
    fn cost_and_fidelity_hints_stick() {
        let (_p, _ctx, prog) = built_program();
        let k = Kernel::new(&prog, "axpy").unwrap();
        k.set_cost(CostModel::new().flops(123.0));
        assert_eq!(k.cost().total_flops(), 123.0);
        k.set_fidelity(Fidelity::Modeled);
        assert_eq!(k.fidelity(), Fidelity::Modeled);
    }
}
