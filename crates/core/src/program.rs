//! `cl_program` objects.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use haocl_obs::names;
use haocl_proto::ids::ProgramId;
use haocl_proto::messages::{status, ApiCall, ApiReply, DeviceKind, WireKernelReport};
use haocl_sim::Phase;

use crate::context::Context;
use crate::error::{Error, Status};
use crate::platform::{Device, PlatformInner};

pub(crate) enum ProgramForm {
    /// OpenCL C source, compiled on CPU/GPU nodes.
    Source(String),
    /// Names of pre-built bitstream kernels (required on FPGAs, loadable
    /// on every device).
    Bitstream(Vec<String>),
}

pub(crate) struct ProgramInner {
    pub(crate) platform: Arc<PlatformInner>,
    pub(crate) context: Context,
    pub(crate) id: ProgramId,
    pub(crate) form: ProgramForm,
    /// Devices (global indices) the program has been built for.
    pub(crate) built: Mutex<BTreeSet<usize>>,
    build_log: Mutex<String>,
    /// Per-kernel static-analysis summaries from the last source build.
    reports: Mutex<Vec<WireKernelReport>>,
    /// Whether error-severity analysis findings fail [`Program::build`]
    /// (`clBuildProgram` semantics). On by default.
    enforce_analysis: AtomicBool,
}

/// An OpenCL program: source text or a set of pre-built kernels, built
/// per device.
#[derive(Clone)]
pub struct Program {
    pub(crate) inner: Arc<ProgramInner>,
}

impl Program {
    /// Creates a program from OpenCL C source
    /// (`clCreateProgramWithSource`).
    pub fn from_source(context: &Context, source: impl Into<String>) -> Self {
        Self::with_form(context, ProgramForm::Source(source.into()))
    }

    /// Creates a program from pre-built bitstream kernel names (the
    /// `clCreateProgramWithBinary` analogue; required for FPGA devices,
    /// §III-D).
    pub fn with_bitstream_kernels<I, S>(context: &Context, kernels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::with_form(
            context,
            ProgramForm::Bitstream(kernels.into_iter().map(Into::into).collect()),
        )
    }

    fn with_form(context: &Context, form: ProgramForm) -> Self {
        let platform = Arc::clone(&context.platform);
        let id = ProgramId::new(platform.ids.next());
        Program {
            inner: Arc::new(ProgramInner {
                platform,
                context: context.clone(),
                id,
                form,
                built: Mutex::new(BTreeSet::new()),
                build_log: Mutex::new(String::new()),
                reports: Mutex::new(Vec::new()),
                enforce_analysis: AtomicBool::new(true),
            }),
        }
    }

    /// Builds the program for every device in its context
    /// (`clBuildProgram`).
    ///
    /// Source programs are rejected by FPGA devices; bitstream programs
    /// load on any device whose node's registry holds the named kernels.
    ///
    /// # Errors
    ///
    /// [`Status::BuildProgramFailure`] with the build log on compile or
    /// load failure; [`Status::InvalidOperation`] when source meets FPGA.
    pub fn build(&self) -> Result<(), Error> {
        let devices = self.inner.context.devices().to_vec();
        for device in &devices {
            self.build_for(device)?;
        }
        Ok(())
    }

    /// Builds the program for one device, even a device outside the
    /// program's original context — how an already-built program reaches
    /// a node that joined the cluster after the build. Idempotent per
    /// device.
    ///
    /// # Errors
    ///
    /// As [`Program::build`].
    pub fn build_for(&self, device: &Device) -> Result<(), Error> {
        {
            if self.inner.built.lock().contains(&device.index) {
                return Ok(());
            }
            let call = match &self.inner.form {
                ProgramForm::Source(source) => {
                    if device.kind() == DeviceKind::Fpga {
                        return Err(Error::api(
                            Status::InvalidOperation,
                            format!(
                                "device {} is an FPGA: build from source is not supported, \
                                 use Program::with_bitstream_kernels",
                                device.index()
                            ),
                        ));
                    }
                    ApiCall::BuildProgram {
                        device: device.device_index(),
                        program: self.inner.id,
                        source: source.clone(),
                    }
                }
                ProgramForm::Bitstream(kernels) => ApiCall::LoadBitstream {
                    device: device.device_index(),
                    program: self.inner.id,
                    kernels: kernels.clone(),
                },
            };
            let outcome = self
                .inner
                .platform
                .call_traced(device.node(), call, Phase::Init)?;
            match outcome.reply {
                ApiReply::BuildLog {
                    ok: true,
                    log,
                    reports,
                } => {
                    // Nodes compile WarnOnly (mechanism); whether analysis
                    // errors fail the build is host policy, decided here.
                    let errors = reports.iter().map(|r| r.errors).sum::<u32>();
                    *self.inner.build_log.lock() = log.clone();
                    if !reports.is_empty() {
                        *self.inner.reports.lock() = reports;
                    }
                    if errors > 0 && self.inner.enforce_analysis.load(Ordering::Relaxed) {
                        return Err(Error::api(Status::BuildProgramFailure, log));
                    }
                    self.inner.built.lock().insert(device.index);
                }
                ApiReply::BuildLog {
                    ok: false,
                    log,
                    reports,
                } => {
                    *self.inner.build_log.lock() = log.clone();
                    *self.inner.reports.lock() = reports;
                    return Err(Error::api(Status::BuildProgramFailure, log));
                }
                other => {
                    return Err(Error::Transport(format!("build answered with {other:?}")));
                }
            }
        }
        Ok(())
    }

    /// Disables (or re-enables) failing the build on error-severity
    /// static-analysis findings — the escape hatch for kernels the
    /// conservative analyzer rejects but the author knows to be safe.
    /// Warnings always stay in the [build log](Self::build_log).
    pub fn set_analysis_enforced(&self, enforced: bool) {
        self.inner
            .enforce_analysis
            .store(enforced, Ordering::Relaxed);
    }

    /// Per-kernel static-analysis summaries from the last source build
    /// (empty before [`build`](Self::build) and for bitstream programs).
    /// Launch-graph fusion reads their effect summaries.
    pub fn kernel_reports(&self) -> Vec<WireKernelReport> {
        self.inner.reports.lock().clone()
    }

    /// The last build log (`clGetProgramBuildInfo(CL_PROGRAM_BUILD_LOG)`).
    pub fn build_log(&self) -> String {
        self.inner.build_log.lock().clone()
    }

    /// Whether the program has been built for `device_index`.
    pub fn is_built_for(&self, device_index: usize) -> bool {
        self.inner.built.lock().contains(&device_index)
    }

    /// The context the program belongs to.
    pub fn context(&self) -> &Context {
        &self.inner.context
    }

    /// Whether this is a bitstream (pre-built) program.
    pub fn is_bitstream(&self) -> bool {
        matches!(self.inner.form, ProgramForm::Bitstream(_))
    }
}

impl Drop for ProgramInner {
    /// `clReleaseProgram`: when the last handle drops — a [`Kernel`]
    /// holds its program, and so does a launch until it resolves — every
    /// device the program was built for forgets it, and the kernel
    /// handles created from it there. Best effort, like a buffer's
    /// release: one that cannot reach its node counts into
    /// `haocl_program_release_failed_total`. An `INVALID_PROGRAM` answer
    /// is no failure: after a failover one node can serve two devices
    /// with the same index, and the first release took the program off
    /// both.
    ///
    /// [`Kernel`]: crate::Kernel
    fn drop(&mut self) {
        for &dev in self.built.get_mut().iter() {
            let gone = Some(status::INVALID_PROGRAM);
            self.platform
                .release_on(dev, names::PROGRAM_RELEASE_FAILED, gone, |info| {
                    ApiCall::ReleaseProgram {
                        device: info.device,
                        program: self.id,
                    }
                });
        }
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Program({}, {})",
            self.inner.id,
            if self.is_bitstream() {
                "bitstream"
            } else {
                "source"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{DeviceType, Platform};

    #[test]
    fn source_program_builds_on_gpu() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, "__kernel void f(__global int* a) { a[0] = 1; }");
        prog.build().unwrap();
        assert!(prog.is_built_for(0));
        assert!(!prog.is_bitstream());
    }

    #[test]
    fn bad_source_yields_build_failure_with_log() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, "__kernel void broken(");
        let err = prog.build().unwrap_err();
        assert_eq!(err.status(), Some(Status::BuildProgramFailure));
        assert!(prog.build_log().contains("error"));
    }

    #[test]
    fn source_program_refuses_fpga() {
        let p = Platform::local(&[DeviceKind::Fpga]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, "__kernel void f() {}");
        let err = prog.build().unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidOperation));
    }

    #[test]
    fn missing_bitstream_kernel_fails_build() {
        let p = Platform::local(&[DeviceKind::Fpga]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::with_bitstream_kernels(&ctx, ["ghost_kernel"]);
        let err = prog.build().unwrap_err();
        assert_eq!(err.status(), Some(Status::BuildProgramFailure));
    }

    const DIVERGENT_SRC: &str = r#"__kernel void div(__global int* a) {
        if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
        a[get_global_id(0)] = 1;
    }"#;

    #[test]
    fn analysis_errors_fail_the_build_by_default() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, DIVERGENT_SRC);
        let err = prog.build().unwrap_err();
        assert_eq!(err.status(), Some(Status::BuildProgramFailure));
        assert!(prog.build_log().contains("barrier divergence"));
        assert!(!prog.is_built_for(0));
    }

    #[test]
    fn analysis_enforcement_can_be_waived() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, DIVERGENT_SRC);
        prog.set_analysis_enforced(false);
        prog.build().unwrap();
        assert!(prog.is_built_for(0));
        // The finding still lands in the log and the reports.
        assert!(prog.build_log().contains("barrier divergence"));
        let reports = prog.kernel_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].errors >= 1);
    }

    #[test]
    fn clean_build_exposes_kernel_features() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let src = r#"__kernel void saxpy(__global float* y, __global const float* x, float a) {
            int i = get_global_id(0);
            y[i] = y[i] + a * x[i];
        }"#;
        let prog = Program::from_source(&ctx, src);
        prog.build().unwrap();
        let reports = prog.kernel_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kernel, "saxpy");
        assert_eq!(reports[0].errors, 0);
        assert!(reports[0].arithmetic_intensity > 0.0);
        assert_eq!(reports[0].barrier_count, 0);
    }

    #[test]
    fn rebuild_is_idempotent() {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let prog = Program::from_source(&ctx, "__kernel void f(__global int* a) { a[0] = 1; }");
        prog.build().unwrap();
        prog.build().unwrap(); // second build skips already-built devices
    }
}
