//! `pipelined_fanout` — bursts of 64 launches per queue (128 in flight,
//! disjoint buffer pairs) enqueued without waiting, then the events
//! waited in order and `finish()`; op = one launch, latency =
//! enqueue → resolved.
//!
//! Why: the same per-launch work as `small_launch`, but through the
//! asynchronous backbone (out-of-order demux, control-plane batch
//! coalescing). Wake-up savings show in `small_launch` and little here;
//! coalescing/demux changes show here and not there.

use std::time::{Duration, Instant};

use haocl::{Platform, Program};

use super::{build_saxpy, check_ran_in_vm, SaxpyLane};
use crate::gen::Rng;
use crate::harness::{OpLog, Res, Rig, Scale, Workload};
use crate::spans::Spans;

pub struct PipelinedFanout {
    rig: Rig,
    _program: Program,
    /// `lanes[q]` holds the disjoint launch targets of queue `q`.
    lanes: Vec<Vec<SaxpyLane>>,
    bursts_per_block: usize,
}

impl Workload for PipelinedFanout {
    const NAME: &'static str = "pipelined_fanout";
    const WHY: &'static str = "same launches, 128 in flight: exercises out-of-order demux and batch coalescing, which small_launch bypasses";
    const RSS_AT_BLOCKS: usize = 100;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let rig = Rig::launch()?;
        let program = build_saxpy(&rig)?;
        let mut rng = Rng::new(seed, 2);
        let per_queue = scale.pick(64, 8);
        let lanes = rig
            .queues
            .iter()
            .map(|q| {
                (0..per_queue)
                    .map(|_| SaxpyLane::new(&rig, &program, q, &mut rng))
                    .collect::<Res<Vec<_>>>()
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(PipelinedFanout {
            rig,
            _program: program,
            lanes,
            bursts_per_block: scale.pick(8, 2),
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        let queues = &self.rig.queues;
        let per_queue = self.lanes[0].len();
        let mut in_flight = Vec::with_capacity(queues.len() * per_queue);
        let started = Instant::now();
        for _ in 0..self.bursts_per_block {
            spans.next_op();
            spans.time("burst", |s| {
                s.time("core.queue.enqueue_nd_range_kernel x128", |_| {
                    for slot in 0..per_queue {
                        for (queue, lanes) in queues.iter().zip(&mut self.lanes) {
                            let t0 = Instant::now();
                            in_flight.push((t0, lanes[slot].enqueue(queue)?));
                        }
                    }
                    Ok::<_, haocl::Error>(())
                })?;
                s.time("core.event.wait x128", |_| {
                    for (t0, event) in &in_flight {
                        event.wait()?;
                        log.done(*t0);
                    }
                    Ok::<_, haocl::Error>(())
                })?;
                s.time("core.queue.finish", |_| {
                    for queue in queues {
                        queue.finish();
                    }
                });
                Ok::<_, haocl::Error>(())
            })?;
            for (_, event) in in_flight.drain(..) {
                check_ran_in_vm(&event, log);
            }
        }
        let wall = started.elapsed();
        for (queue, lanes) in queues.iter().zip(&mut self.lanes) {
            for lane in lanes {
                lane.verify(queue, log)?;
            }
        }
        Ok(wall)
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
