//! Regression: a failover triggered by *unrelated* traffic must not
//! make a buffer read return its stale host shadow.
//!
//! Node 1 holds a buffer's only current replica (written and launched
//! on there, so the host shadow is stale) when writes to a different
//! buffer detect its crash. Journal replay rebuilds the replica on the
//! survivor, so `ResidencyTracker::revalidate` has to *refresh* that
//! replayable replica to the new epoch. When it dropped it instead, the
//! stale shadow was promoted as the best remaining copy and the read
//! returned pre-launch bytes. The crash is swept across every frame of
//! the scenario.

use std::time::Duration;

use haocl::{
    Buffer, ChaosPolicy, ChaosSpec, CommandQueue, Context, DeviceType, Kernel, MemFlags, NdRange,
    Platform, Program, RecoveryPolicy,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::KernelRegistry;

const SIZE: usize = 32;
const LANES: usize = SIZE / 4;

const SCRAMBLE_SRC: &str =
    "__kernel void scramble(__global int* a) { int i = get_global_id(0); a[i] = a[i] ^ (i + 1); }";

fn scramble_ref(model: &mut [u8]) {
    for i in 0..LANES {
        let mut v = i32::from_le_bytes(model[i * 4..i * 4 + 4].try_into().unwrap());
        v ^= (i + 1) as i32;
        model[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[test]
fn stale_shadow_promoted_after_unrelated_failover() {
    let mut failed_frames = Vec::new();
    for frame in 1u64..120 {
        let config = ClusterConfig::gpu_cluster(2);
        let node1_host = config.nodes[1].addr.split(':').next().unwrap().to_string();
        let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
        let spec = ChaosSpec::parse(&format!("crash={node1_host}@{frame}")).unwrap();
        platform.install_chaos(ChaosPolicy::new(7, spec));
        platform.set_recovery(Some(RecoveryPolicy {
            base_timeout: Duration::from_millis(10),
            max_attempts: 4,
            failover: true,
        }));

        let devices = platform.devices(DeviceType::All);
        let ctx = Context::new(&platform, &devices).unwrap();
        let queues: Vec<CommandQueue> = devices
            .iter()
            .map(|d| CommandQueue::new(&ctx, d).unwrap())
            .collect();
        let prog = Program::from_source(&ctx, SCRAMBLE_SRC);
        prog.build().unwrap();
        let kernel = Kernel::new(&prog, "scramble").unwrap();

        let buf0 = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap();
        let buf1 = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE as u64).unwrap();
        let mut model = vec![0u8; SIZE];
        let data: Vec<u8> = (1..=SIZE as u8).collect();

        // Seed buf0 via node1's device, then scramble it there: node1's
        // device becomes the sole current replica, the shadow goes stale.
        if queues[1].enqueue_write_buffer(&buf0, 0, &data).is_err() {
            continue;
        }
        model.copy_from_slice(&data);
        kernel.set_arg_buffer(0, &buf0).unwrap();
        let Ok(ev) = queues[1].enqueue_nd_range_kernel(&kernel, NdRange::linear(LANES as u64, 4))
        else {
            continue;
        };
        if ev.wait().is_err() {
            continue;
        }
        scramble_ref(&mut model);

        // Unrelated traffic to node1 around the crash: this is what
        // detects the failure and bumps node1's epoch.
        for _ in 0..6 {
            let _ = queues[1].enqueue_write_buffer(&buf1, 0, &data);
        }

        // Now read buf0 in full.
        let mut out = vec![0u8; SIZE];
        if queues[0].enqueue_read_buffer(&buf0, 0, &mut out).is_err() {
            continue;
        }
        if out != model {
            failed_frames.push((frame, out.clone()));
        }
    }
    assert!(
        failed_frames.is_empty(),
        "stale reads at crash frames: {:?}",
        failed_frames
            .iter()
            .map(|(f, o)| (*f, o[..8].to_vec()))
            .collect::<Vec<_>>()
    );
}
