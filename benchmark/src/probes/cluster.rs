//! `cluster` probes: `ApiCall`s through `HostRuntime::call` on a
//! `LocalCluster`, below the `core` API — a round trip per message kind.

use bytes::Bytes;
use haocl_cluster::{ClusterConfig, HostRuntime, LocalCluster};
use haocl_kernel::KernelRegistry;
use haocl_net::PoolStats;
use haocl_proto::ids::{BufferId, KernelId, NodeId, ProgramId};
use haocl_proto::messages::{ApiCall, ApiReply};

use super::wire::{launch_call, MIB};
use super::{time_ns, Budget, Samples};
use crate::gen::{f32s_to_bytes, Rng};
use crate::harness::{Res, NODES};
use crate::kernels::{self, stamp_from, stamp_kernel};
use crate::workloads::cold_build::corpus;
use crate::workloads::SMALL_ITEMS;

const NODE: NodeId = NodeId::new(0);
const PROGRAM: ProgramId = ProgramId::new(1);
const KERNEL: KernelId = KernelId::new(1);
const X: BufferId = BufferId::new(1);
const Y: BufferId = BufferId::new(2);
const BIG: BufferId = BufferId::new(3);

/// One call that must not come back as an error reply.
fn call(host: &HostRuntime, call: ApiCall) -> Res<ApiReply> {
    match host.call(NODE, call)?.reply {
        ApiReply::Error { code, message } => {
            Err(format!("node answered error {code}: {message}").into())
        }
        reply => Ok(reply),
    }
}

/// Share of pool checkouts between two snapshots that reused a buffer.
fn reuse_ratio(before: PoolStats, after: PoolStats) -> f64 {
    let (reuses, misses) = (after.reuses - before.reuses, after.misses - before.misses);
    reuses as f64 / (reuses + misses).max(1) as f64
}

pub struct Fixture {
    cluster: LocalCluster,
    payload: Bytes,
    sources: Vec<(String, String)>,
    rng: Rng,
    builds: u64,
}

impl Fixture {
    /// A cluster with the saxpy launch set up message by message.
    pub fn new(seed: u64) -> Res<Fixture> {
        let cluster =
            LocalCluster::launch(&ClusterConfig::gpu_cluster(NODES), KernelRegistry::new())?;
        let host = cluster.host();
        let mut rng = Rng::new(seed, 23);
        call(
            host,
            ApiCall::BuildProgram {
                device: 0,
                program: PROGRAM,
                source: kernels::SAXPY.to_string(),
            },
        )?;
        call(
            host,
            ApiCall::CreateKernel {
                device: 0,
                kernel: KERNEL,
                program: PROGRAM,
                name: "saxpy".to_string(),
            },
        )?;
        for (buffer, size) in [(X, 4 * SMALL_ITEMS), (Y, 4 * SMALL_ITEMS), (BIG, MIB)] {
            call(
                host,
                ApiCall::CreateBuffer {
                    device: 0,
                    buffer,
                    size: size as u64,
                },
            )?;
        }
        for buffer in [X, Y] {
            call(
                host,
                ApiCall::WriteBuffer {
                    device: 0,
                    buffer,
                    offset: 0,
                    data: Bytes::from(f32s_to_bytes(&rng.f32s(SMALL_ITEMS, 0.0, 1.0))),
                },
            )?;
        }
        let payload = Bytes::from(rng.bytes(MIB));
        Ok(Fixture {
            cluster,
            payload,
            sources: corpus()?,
            rng,
            builds: 100,
        })
    }

    pub fn pass(&mut self, budget: &Budget, samples: &mut Samples) -> Res<()> {
        let host = self.cluster.host();
        let fabric = self.cluster.fabric();
        samples.add(
            "cluster.ping_rt_ns",
            time_ns(budget.units(2), 1, || {
                host.call(NODE, ApiCall::Ping).expect("ping");
            }),
        );

        let pool_before = fabric.pool_stats();
        let mut instructions = 0;
        samples.add(
            "cluster.launch_rt_ns",
            time_ns(budget.units(3), 1, || {
                let outcome = host
                    .call(NODE, launch_call(KERNEL, X, Y, 1.25))
                    .expect("launch");
                if let ApiReply::LaunchDone {
                    instructions: n, ..
                } = outcome.reply
                {
                    instructions = n;
                }
            }),
        );
        if instructions == 0 {
            return Err("cluster launch retired no VM instructions".into());
        }
        let pool_small = fabric.pool_stats();

        let payload = &self.payload;
        samples.add(
            "cluster.write1m_rt_ns",
            time_ns(budget.units(3), 1, || {
                host.call(
                    NODE,
                    ApiCall::WriteBuffer {
                        device: 0,
                        buffer: BIG,
                        offset: 0,
                        data: payload.clone(),
                    },
                )
                .expect("write");
            }),
        );
        let read = || {
            host.call(
                NODE,
                ApiCall::ReadBuffer {
                    device: 0,
                    buffer: BIG,
                    offset: 0,
                    len: MIB as u64,
                },
            )
        };
        if !matches!(&read()?.reply, ApiReply::Data { bytes } if bytes[..] == payload[..]) {
            return Err("cluster read returned different bytes than were written".into());
        }
        samples.add(
            "cluster.read1m_rt_ns",
            time_ns(budget.units(3), 1, || {
                read().expect("read");
            }),
        );
        let pool_bulk = fabric.pool_stats();
        samples.add(
            "net.pool.miss_ratio.small",
            1.0 - reuse_ratio(pool_before, pool_small),
        );
        samples.add(
            "net.pool.miss_ratio.bulk",
            1.0 - reuse_ratio(pool_small, pool_bulk),
        );

        // Builds of never-seen sources, cycling the cold_build corpus.
        let (sources, rng, builds) = (&self.sources, &mut self.rng, &mut self.builds);
        samples.add(
            "cluster.build_rt_ns",
            time_ns(budget.units(3), sources.len() as u32, || {
                let (_, text) = &sources[*builds as usize % sources.len()];
                *builds += 1;
                let outcome = host
                    .call(
                        NODE,
                        ApiCall::BuildProgram {
                            device: 0,
                            program: ProgramId::new(*builds),
                            source: format!("{text}{}", stamp_kernel(stamp_from(rng.next_u64()))),
                        },
                    )
                    .expect("build");
                assert!(
                    matches!(outcome.reply, ApiReply::BuildLog { ok: true, .. }),
                    "corpus source failed to build"
                );
            }),
        );
        Ok(())
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}
