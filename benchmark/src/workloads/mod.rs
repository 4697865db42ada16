//! The six workloads. Later issues refer to them by these names.

pub mod bulk_transfer;
pub mod cold_build;
pub mod paper_apps;
pub mod pipelined_fanout;
pub mod serve_mix;
pub mod small_launch;

pub use bulk_transfer::BulkTransfer;
pub use cold_build::ColdBuild;
pub use paper_apps::PaperApps;
pub use pipelined_fanout::PipelinedFanout;
pub use serve_mix::ServeMix;
pub use small_launch::SmallLaunch;

use haocl::auto::AutoScheduler;
use haocl::{Buffer, CommandQueue, Event, Kernel, MemFlags, NdRange, Program, Session};

use crate::gen::{f32s_to_bytes, Rng};
use crate::harness::{OpLog, Res, Rig, Workload};
use crate::kernels;

/// `(name, why)` for every workload, in the order the full pass runs
/// them. `BENCHMARK.json` carries the same list.
pub const ALL: [(&str, &str); 6] = [
    (SmallLaunch::NAME, SmallLaunch::WHY),
    (PipelinedFanout::NAME, PipelinedFanout::WHY),
    (BulkTransfer::NAME, BulkTransfer::WHY),
    (PaperApps::NAME, PaperApps::WHY),
    (ServeMix::NAME, ServeMix::WHY),
    (ColdBuild::NAME, ColdBuild::WHY),
];

/// Work-items (and floats) in every small saxpy launch.
pub const SMALL_ITEMS: usize = 64;

/// One work-group of [`SMALL_ITEMS`].
pub fn small_range() -> NdRange {
    NdRange::linear(SMALL_ITEMS as u64, SMALL_ITEMS as u64)
}

/// One saxpy launch target: a bound kernel, its device buffers and the
/// host's model of what `y` must hold. `small_launch` and
/// `pipelined_fanout` issue the same launch through different paths.
pub struct SaxpyLane {
    kernel: Kernel,
    _x_dev: Buffer,
    y_dev: Buffer,
    x: Vec<f32>,
    y: Vec<f32>,
    a: f32,
    /// Launches issued since `y` was last brought up to date.
    owed: u32,
}

impl SaxpyLane {
    pub fn new(
        rig: &Rig,
        program: &Program,
        queue: &CommandQueue,
        rng: &mut Rng,
    ) -> Res<SaxpyLane> {
        let n = SMALL_ITEMS;
        let x = rng.f32s(n, 0.0, 1.0);
        let y = rng.f32s(n, 0.0, 1.0);
        let a = rng.f32_in(0.5, 1.5);
        let x_dev = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * n as u64)?;
        let y_dev = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * n as u64)?;
        queue.enqueue_write_buffer(&x_dev, 0, &f32s_to_bytes(&x))?;
        queue.enqueue_write_buffer(&y_dev, 0, &f32s_to_bytes(&y))?;
        let kernel = Kernel::new(program, "saxpy")?;
        kernel.set_arg_buffer(0, &x_dev)?;
        kernel.set_arg_buffer(1, &y_dev)?;
        kernel.set_arg_f32(2, a)?;
        kernel.set_arg_i32(3, n as i32)?;
        Ok(SaxpyLane {
            kernel,
            _x_dev: x_dev,
            y_dev,
            x,
            y,
            a,
            owed: 0,
        })
    }

    pub fn enqueue(&mut self, queue: &CommandQueue) -> Result<Event, haocl::Error> {
        self.owed += 1;
        queue.enqueue_nd_range_kernel(&self.kernel, small_range())
    }

    /// The same launch, placed by the [`AutoScheduler`].
    pub fn launch_auto(&mut self, auto: &AutoScheduler) -> Result<(Event, usize), haocl::Error> {
        self.owed += 1;
        auto.launch(&self.kernel, small_range())
    }

    /// The same launch, queued on a tenant session.
    pub fn submit(&mut self, session: &Session) -> Result<(), haocl::Error> {
        self.owed += 1;
        session.submit(&self.kernel, small_range())
    }

    /// Reads `y` back and compares it, bit for bit, with the host
    /// applying the same multiply-then-add once per issued launch.
    pub fn verify(&mut self, queue: &CommandQueue, log: &mut OpLog) -> Res<()> {
        for _ in 0..std::mem::take(&mut self.owed) {
            for (y, x) in self.y.iter_mut().zip(&self.x) {
                *y += self.a * x;
            }
        }
        let mut got = vec![0u8; 4 * SMALL_ITEMS];
        queue.enqueue_read_buffer(&self.y_dev, 0, &mut got)?;
        log.check(got == f32s_to_bytes(&self.y), || {
            "saxpy output differs from the host reference".to_string()
        });
        Ok(())
    }
}

/// The saxpy program, built from source on every device.
pub fn build_saxpy(rig: &Rig) -> Res<Program> {
    let program = Program::from_source(&rig.ctx, kernels::SAXPY);
    program.build()?;
    Ok(program)
}

/// Every launch the benchmark issues itself must have run in the VM: a
/// native kernel standing in for the source build retires no
/// instructions.
pub fn check_ran_in_vm(event: &Event, log: &mut OpLog) {
    log.check(event.instructions() > 0, || {
        "launch retired no VM instructions (native kernel shadowing the source build?)".to_string()
    });
}
