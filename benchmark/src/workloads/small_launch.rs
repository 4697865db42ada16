//! `small_launch` — a 64-work-item `saxpy` built from source,
//! `enqueue_nd_range_kernel` + `Event::wait`, alternating the two device
//! queues; op = one launch.
//!
//! Why: the smallest-message case. The VM runs for about half of the
//! round trip (a tenth when wake-ups cross cores), so
//! `core`/`cluster`/`proto`/`net` per-message cost and thread hand-offs
//! decide it; this is where "negligible overhead" is tested.

use std::time::{Duration, Instant};

use haocl::{Platform, Program};

use super::{build_saxpy, check_ran_in_vm, SaxpyLane};
use crate::gen::Rng;
use crate::harness::{OpLog, Res, Rig, Scale, Workload};
use crate::spans::Spans;

pub struct SmallLaunch {
    rig: Rig,
    _program: Program,
    /// One lane per device queue.
    lanes: Vec<SaxpyLane>,
    ops_per_block: usize,
}

impl Workload for SmallLaunch {
    const NAME: &'static str = "small_launch";
    const WHY: &'static str = "smallest message: one 64-item launch per round trip, so per-message cost in core/cluster/proto/net and thread hand-offs weigh as much as the VM";
    const RSS_AT_BLOCKS: usize = 100;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let rig = Rig::launch()?;
        let program = build_saxpy(&rig)?;
        let mut rng = Rng::new(seed, 1);
        let lanes = rig
            .queues
            .iter()
            .map(|q| SaxpyLane::new(&rig, &program, q, &mut rng))
            .collect::<Res<Vec<_>>>()?;
        Ok(SmallLaunch {
            rig,
            _program: program,
            lanes,
            ops_per_block: scale.pick(1_000, 40),
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        let started = Instant::now();
        for i in 0..self.ops_per_block {
            let which = i % self.lanes.len();
            let (queue, lane) = (&self.rig.queues[which], &mut self.lanes[which]);
            spans.next_op();
            let t0 = Instant::now();
            let event = spans.time("op", |s| {
                let event = s.time("core.queue.enqueue_nd_range_kernel", |_| {
                    lane.enqueue(queue)
                })?;
                s.time("core.event.wait", |_| event.wait())?;
                Ok::<_, haocl::Error>(event)
            })?;
            log.done(t0);
            check_ran_in_vm(&event, log);
        }
        let wall = started.elapsed();
        for (queue, lane) in self.rig.queues.iter().zip(&mut self.lanes) {
            queue.finish();
            lane.verify(queue, log)?;
        }
        Ok(wall)
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
