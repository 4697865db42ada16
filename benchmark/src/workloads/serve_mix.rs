//! `serve_mix` — a `ServingPlane` with three sessions (weights 1/1/2),
//! each submitting rounds of 16 launches over four distinct small
//! kernels (64–1024 items, own buffers), drained one `dispatch_one` at a
//! time; every 4th round one 4-kernel kNN-style `LaunchGraph` through
//! `plane.auto().launch_graph`. Op = one dispatched launch (or one
//! graph).
//!
//! Why: the only workload that goes through `sched::place_audited`,
//! `sched::tenancy`, `core::auto`/`serve`/`graph` and the always-on
//! audit log — raw-queue workloads bypass all of them, so scheduler and
//! launch-path refactors are guarded here and predicted flat elsewhere.

use std::time::{Duration, Instant};

use haocl::{
    Buffer, Kernel, LaunchGraph, MemFlags, NdRange, Platform, Program, ServingPlane, Session,
    TenantSpec,
};
use haocl_sched::policies::HeteroAware;
use haocl_workloads::knn;

use super::check_ran_in_vm;
use crate::gen::{f32s_to_bytes, Rng};
use crate::harness::{OpLog, Res, Rig, Scale, Workload};
use crate::kernels::{self, SERVE_KERNELS};
use crate::spans::Spans;

const WEIGHTS: [u32; 3] = [1, 1, 2];
const LAUNCHES_PER_ROUND: usize = 16;
const GRAPH_EVERY: usize = 4;
const GRAPH_QUERIES: usize = 4;
const GRAPH_RECORDS: usize = 256;

/// One tenant kernel with its private input and output.
struct Slot {
    name: &'static str,
    items: usize,
    kernel: Kernel,
    x: Vec<f32>,
    out: Buffer,
    _x_dev: Buffer,
}

struct Tenant {
    session: Session,
    slots: Vec<Slot>,
}

/// The kNN distance chain: four `nn_dist` launches over the same
/// records, one query each, into four outputs — the shape the fusion
/// prover approves.
struct KnnGraph {
    kernels: Vec<Kernel>,
    outs: Vec<Buffer>,
    lat: Vec<f32>,
    lng: Vec<f32>,
    _inputs: [Buffer; 2],
}

pub struct ServeMix {
    rig: Rig,
    plane: ServingPlane,
    _programs: [Program; 2],
    tenants: Vec<Tenant>,
    graph: KnnGraph,
    rng: Rng,
    rounds_per_block: usize,
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const WHY: &'static str = "three weighted tenants through ServingPlane plus fused graphs: the only path through sched, tenancy, auto/serve/graph and the audit log";
    const RSS_AT_BLOCKS: usize = 20;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let rig = Rig::launch()?;
        let plane = ServingPlane::new(&rig.ctx, Box::new(HeteroAware::new()))?;
        let serve_program = Program::from_source(&rig.ctx, kernels::SERVE);
        serve_program.build()?;
        let knn_program = Program::from_source(&rig.ctx, knn::KERNEL_SOURCE);
        knn_program.build()?;
        let mut rng = Rng::new(seed, 5);
        let stage = &rig.queues[0];

        let mut tenants = Vec::with_capacity(WEIGHTS.len());
        for (t, weight) in WEIGHTS.into_iter().enumerate() {
            let session = plane.open_session(TenantSpec::new(format!("tenant{t}")).weight(weight));
            let mut slots = Vec::with_capacity(SERVE_KERNELS.len());
            for (name, items) in SERVE_KERNELS {
                let x = rng.f32s(items, -4.0, 4.0);
                let x_dev = session.create_buffer(MemFlags::READ_ONLY, 4 * items as u64)?;
                let out = session.create_buffer(MemFlags::WRITE_ONLY, 4 * items as u64)?;
                stage.enqueue_write_buffer(&x_dev, 0, &f32s_to_bytes(&x))?;
                let kernel = Kernel::new(&serve_program, name)?;
                kernel.set_arg_buffer(0, &x_dev)?;
                kernel.set_arg_buffer(1, &out)?;
                kernel.set_arg_i32(3, items as i32)?;
                slots.push(Slot {
                    name,
                    items,
                    kernel,
                    x,
                    out,
                    _x_dev: x_dev,
                });
            }
            tenants.push(Tenant { session, slots });
        }

        let lat = rng.f32s(GRAPH_RECORDS, 0.0, 90.0);
        let lng = rng.f32s(GRAPH_RECORDS, 0.0, 180.0);
        let lat_dev = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * GRAPH_RECORDS as u64)?;
        let lng_dev = Buffer::new(&rig.ctx, MemFlags::READ_ONLY, 4 * GRAPH_RECORDS as u64)?;
        stage.enqueue_write_buffer(&lat_dev, 0, &f32s_to_bytes(&lat))?;
        stage.enqueue_write_buffer(&lng_dev, 0, &f32s_to_bytes(&lng))?;
        let mut kernels = Vec::with_capacity(GRAPH_QUERIES);
        let mut outs = Vec::with_capacity(GRAPH_QUERIES);
        for _ in 0..GRAPH_QUERIES {
            let out = Buffer::new(&rig.ctx, MemFlags::READ_WRITE, 4 * GRAPH_RECORDS as u64)?;
            let kernel = Kernel::new(&knn_program, knn::DIST_KERNEL_NAME)?;
            kernel.set_arg_buffer(0, &lat_dev)?;
            kernel.set_arg_buffer(1, &lng_dev)?;
            kernel.set_arg_buffer(2, &out)?;
            kernel.set_arg_i32(5, GRAPH_RECORDS as i32)?;
            kernels.push(kernel);
            outs.push(out);
        }

        Ok(ServeMix {
            rig,
            plane,
            _programs: [serve_program, knn_program],
            tenants,
            graph: KnnGraph {
                kernels,
                outs,
                lat,
                lng,
                _inputs: [lat_dev, lng_dev],
            },
            rng,
            rounds_per_block: scale.pick(24, 4),
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        // One scalar per block: outputs differ from the previous block's,
        // so a launch that did not run leaves a detectably stale result.
        let a = self.rng.f32_in(-2.0, 2.0);
        let queries: Vec<(f32, f32)> = (0..GRAPH_QUERIES)
            .map(|_| (self.rng.f32_in(0.0, 90.0), self.rng.f32_in(0.0, 180.0)))
            .collect();
        for tenant in &self.tenants {
            for slot in &tenant.slots {
                slot.kernel.set_arg_f32(2, a)?;
            }
        }
        for (kernel, (qlat, qlng)) in self.graph.kernels.iter().zip(&queries) {
            kernel.set_arg_f32(3, *qlat)?;
            kernel.set_arg_f32(4, *qlng)?;
        }

        let started = Instant::now();
        for round in 0..self.rounds_per_block {
            spans.time("core.serve.submit x48", |_| {
                for tenant in &self.tenants {
                    for i in 0..LAUNCHES_PER_ROUND {
                        let slot = &tenant.slots[i % tenant.slots.len()];
                        tenant
                            .session
                            .submit(&slot.kernel, NdRange::linear(slot.items as u64, 64))?;
                    }
                }
                Ok::<_, haocl::Error>(())
            })?;
            loop {
                spans.next_op();
                let t0 = Instant::now();
                let dispatched =
                    spans.time("core.serve.dispatch_one", |_| self.plane.dispatch_one())?;
                let Some((_, event, _)) = dispatched else {
                    break;
                };
                log.done(t0);
                check_ran_in_vm(&event, log);
            }
            if (round + 1) % GRAPH_EVERY == 0 {
                spans.next_op();
                let t0 = Instant::now();
                let report = spans.time("core.auto.launch_graph", |_| {
                    let mut graph = LaunchGraph::new();
                    for kernel in &self.graph.kernels {
                        graph.add(kernel, NdRange::linear(GRAPH_RECORDS as u64, 64))?;
                    }
                    let report = self.plane.auto().launch_graph(&graph)?;
                    for event in &report.events {
                        event.wait()?;
                    }
                    Ok::<_, haocl::Error>(report)
                })?;
                log.done(t0);
                for event in &report.events {
                    check_ran_in_vm(event, log);
                }
            }
        }
        let wall = started.elapsed();

        let reader = &self.rig.queues[0];
        for tenant in &self.tenants {
            for slot in &tenant.slots {
                let mut got = vec![0u8; 4 * slot.items];
                reader.enqueue_read_buffer(&slot.out, 0, &mut got)?;
                let want = f32s_to_bytes(&kernels::serve_reference(slot.name, &slot.x, a));
                log.check(got == want, || {
                    format!(
                        "{}: {} output differs from the host reference",
                        tenant.session.name(),
                        slot.name
                    )
                });
            }
        }
        for (out, (qlat, qlng)) in self.graph.outs.iter().zip(&queries) {
            let mut got = vec![0u8; 4 * GRAPH_RECORDS];
            reader.enqueue_read_buffer(out, 0, &mut got)?;
            let want: Vec<f32> = self
                .graph
                .lat
                .iter()
                .zip(&self.graph.lng)
                .map(|(lat, lng)| {
                    let (dx, dy) = (lat - qlat, lng - qlng);
                    (dx * dx + dy * dy).sqrt()
                })
                .collect();
            log.check(got == f32s_to_bytes(&want), || {
                "nn_dist graph output differs from the host reference".to_string()
            });
        }
        Ok(wall)
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
