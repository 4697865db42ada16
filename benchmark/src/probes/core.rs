//! `core` probes: the wrapper library's own calls, each timed as a round
//! trip; [`super::derive`] turns them into self time over the `cluster`
//! call beneath.

use haocl::auto::AutoScheduler;
use haocl::{Buffer, Kernel, MemFlags, Program, ServingPlane, Session, TenantSpec};
use haocl_sched::policies::HeteroAware;

use super::wire::MIB;
use super::{time_ns, time_ns_after, Budget, Samples};
use crate::gen::Rng;
use crate::harness::{Res, Rig, Scale};
use crate::kernels::{self, stamp_from, stamp_kernel, STAMP_KERNEL_NAME};
use crate::workloads::cold_build::corpus;
use crate::workloads::{build_saxpy, small_range, SaxpyLane, SMALL_ITEMS};

pub struct Fixture {
    rig: Rig,
    _programs: [Program; 2],
    lane: SaxpyLane,
    auto: AutoScheduler,
    plane: ServingPlane,
    session: Session,
    touch: Kernel,
    big: Buffer,
    payload: Vec<u8>,
    stamp_out: Buffer,
    sources: Vec<(String, String)>,
    rng: Rng,
    builds: usize,
}

impl Fixture {
    pub fn new(seed: u64, scale: Scale) -> Res<Fixture> {
        let rig = Rig::launch()?;
        let mut rng = Rng::new(seed, 24);
        let saxpy = build_saxpy(&rig)?;
        let lane = SaxpyLane::new(&rig, &saxpy, &rig.queues[0], &mut rng)?;
        let auto = AutoScheduler::new(&rig.ctx, Box::new(HeteroAware::new()))?;
        let plane = ServingPlane::new(&rig.ctx, Box::new(HeteroAware::new()))?;
        let session = plane.open_session(TenantSpec::new("probe"));

        let payload = rng.bytes(scale.pick(MIB, 16 << 10));
        let big = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, payload.len() as u64)?;
        let touch_program = Program::from_source(&rig.ctx, kernels::TOUCH);
        touch_program.build()?;
        let touch = Kernel::new(&touch_program, "touch")?;
        touch.set_arg_buffer(0, &big)?;
        touch.set_arg_u32(1, 0)?;
        touch.set_arg_i32(2, SMALL_ITEMS as i32)?;
        let stamp_out = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * SMALL_ITEMS as u64)?;
        Ok(Fixture {
            rig,
            _programs: [saxpy, touch_program],
            lane,
            auto,
            plane,
            session,
            touch,
            big,
            payload,
            stamp_out,
            sources: corpus()?,
            rng,
            builds: 0,
        })
    }

    pub fn pass(&mut self, budget: &Budget, samples: &mut Samples) -> Res<()> {
        let Fixture {
            rig,
            lane,
            auto,
            plane,
            session,
            touch,
            big,
            payload,
            stamp_out,
            sources,
            rng,
            builds,
            ..
        } = self;
        let (queue, other) = (&rig.queues[0], &rig.queues[1]);

        // --- launch paths: raw queue, AutoScheduler, ServingPlane -----
        samples.add(
            "core.enqueue_rt_ns",
            time_ns(budget.units(3), 1, || {
                lane.enqueue(queue).and_then(|e| e.wait()).expect("launch");
            }),
        );
        samples.add(
            "core.auto_rt_ns",
            time_ns(budget.units(3), 1, || {
                let (event, _) = lane.launch_auto(auto).expect("placed");
                event.wait().expect("launch");
            }),
        );
        samples.add(
            "core.serve_rt_ns",
            time_ns(budget.units(3), 1, || {
                lane.submit(session).expect("admitted");
                plane
                    .dispatch_one()
                    .expect("dispatched")
                    .expect("one launch queued");
            }),
        );
        for q in &rig.queues {
            q.finish();
        }

        // --- buffers: the bulk_transfer op, part by part. The four parts
        // always run in the op's order — write to device 0, touch there
        // (so the device owns the newest copy), touch on device 1 (the
        // peer migration), read from device 1. Each loop times one part
        // and runs the other three untimed before it, so every part sees
        // the residency state the op gives it.
        const PARTS: [&str; 4] = [
            "core.write1m_rt_ns",
            "core.own1m_rt_ns",
            "core.migrate1m_rt_ns",
            "core.read1m_rt_ns",
        ];
        let mut readback = vec![0u8; payload.len()];
        let touch_on = |q: &haocl::CommandQueue| {
            q.enqueue_nd_range_kernel(touch, small_range())
                .and_then(|e| e.wait())
                .expect("touch")
        };
        let mut step = |part: usize| match part % PARTS.len() {
            0 => drop(queue.enqueue_write_buffer(big, 0, payload).expect("write")),
            1 => touch_on(queue),
            2 => touch_on(other),
            _ => drop(
                other
                    .enqueue_read_buffer(big, 0, &mut readback)
                    .expect("read"),
            ),
        };
        step(0);
        for (part, name) in PARTS.into_iter().enumerate() {
            let ns = time_ns_after(
                budget.units(2),
                1,
                |step| (1..PARTS.len()).for_each(|ahead| step(part + ahead)),
                |step| step(part),
                &mut step,
            );
            samples.add(name, ns);
        }
        // Finish the cycle, then time the op whole.
        (1..PARTS.len()).for_each(&mut step);
        samples.add(
            "core.bulk_op_ns",
            time_ns(budget.units(3), 1, || {
                (0..PARTS.len()).for_each(&mut step);
            }),
        );
        if readback != *payload {
            return Err("core probe read back different bytes than it wrote".into());
        }

        // --- programs: cold build, first launch, drop, cache-hit rebuild.
        let mut fresh_source = || {
            *builds += 1;
            format!(
                "{}{}",
                sources[*builds % sources.len()].1,
                stamp_kernel(stamp_from(rng.next_u64()))
            )
        };
        let build = |source: String| {
            let program = Program::from_source(&rig.ctx, source);
            program.build().expect("corpus source builds");
            program
        };
        let mut words = vec![0u8; 4 * SMALL_ITEMS];
        let mut first_launch = |program: &Program| {
            let kernel = Kernel::new(program, STAMP_KERNEL_NAME).expect("stamp kernel");
            kernel.set_arg_buffer(0, stamp_out).expect("arg");
            kernel.set_arg_i32(1, SMALL_ITEMS as i32).expect("arg");
            queue
                .enqueue_nd_range_kernel(&kernel, small_range())
                .and_then(|e| e.wait())
                .expect("launch");
            queue
                .enqueue_read_buffer(stamp_out, 0, &mut words)
                .expect("read");
        };
        // One corpus cycle per sample, so every sample averages the same
        // mix of sources. Built programs are parked in `held` so that
        // dropping them is timed on its own.
        let cycle = sources.len() as u32;
        let mut held: Vec<Program> = Vec::new();
        samples.add(
            "core.program.build_ns",
            time_ns_after(
                budget.units(3),
                cycle,
                |held: &mut Vec<Program>| held.clear(),
                |held| held.push(build(fresh_source())),
                &mut held,
            ),
        );
        samples.add(
            "core.program.drop_ns",
            time_ns_after(
                budget.units(1),
                1,
                |held: &mut Vec<Program>| held.extend((0..cycle).map(|_| build(fresh_source()))),
                |held| held.clear(),
                &mut held,
            ) / f64::from(cycle),
        );
        samples.add(
            "core.first_launch_ns",
            time_ns_after(
                budget.units(3),
                1,
                |held: &mut Vec<Program>| {
                    held.clear();
                    held.extend((0..cycle).map(|_| build(fresh_source())));
                },
                |held| held.iter().for_each(&mut first_launch),
                &mut held,
            ) / f64::from(cycle),
        );
        held.clear();
        samples.add(
            "core.cold_op_ns",
            time_ns(budget.units(3), cycle, || {
                let program = build(fresh_source());
                first_launch(&program);
            }),
        );
        let same = sources[0].1.clone();
        build(same.clone());
        samples.add(
            "core.program.rebuild_ns",
            time_ns(budget.units(2), 1, || {
                build(same.clone());
            }),
        );
        Ok(())
    }
}
