//! Integration tests for the multi-tenant serving plane: weighted
//! fair-share under contention, typed admission-control sheds, the
//! byte-identical default path, and per-tenant accounting under chaos.

use std::time::Duration;

use haocl::auto::AutoScheduler;
use haocl::serve::ServingPlane;
use haocl::{
    AdmitError, Buffer, ChaosPolicy, ChaosSpec, CommandQueue, Context, DeviceKind, DeviceType,
    Error, Kernel, MemFlags, NdRange, NodeId, Platform, Program, RecoveryPolicy, TenantQuota,
    TenantSpec,
};
use haocl_cluster::ClusterConfig;
use haocl_kernel::{CostModel, KernelRegistry};
use haocl_proto::ids::TenantId;
use haocl_sched::policies;
use haocl_sim::SimDuration;

const SIZE: u64 = 32;
const LANES: u64 = SIZE / 4;

/// Order-sensitive integer churn: `k` applications from zeros give a
/// unique digest, so the device contents pin down exactly how many
/// launches really executed.
const CHURN_SRC: &str =
    "__kernel void churn(__global int* a) { int i = get_global_id(0); a[i] = a[i] * 3 + i; }";

fn churn_ref(applications: u64) -> Vec<u8> {
    let mut lanes = vec![0i32; LANES as usize];
    for _ in 0..applications {
        for (i, v) in lanes.iter_mut().enumerate() {
            *v = v.wrapping_mul(3).wrapping_add(i as i32);
        }
    }
    lanes.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn churn_kernel(ctx: &Context) -> Kernel {
    let prog = Program::from_source(ctx, CHURN_SRC);
    prog.build().unwrap();
    let k = Kernel::new(&prog, "churn").unwrap();
    k.set_cost(CostModel::new().flops(1e8).bytes_read(SIZE as f64));
    k
}

/// Five tenants, 2:2:1:1:1 weights: under a contended window the two
/// weight-2 tenants each sustain ~2x the compute of each weight-1
/// tenant, within 20% (the acceptance bound), so the weight-1 tenants
/// stay within 1.5x of each other. One of them is a hog that
/// oversubmits into a bounded queue: admission control sheds it, and
/// its admitted backlog gets its share within the same 20% bound as
/// the other weight-1 tenants. Only the hog may be shed.
#[test]
fn weighted_tenants_get_proportional_compute_within_20pct() {
    let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Gpu]).unwrap();
    let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();

    // Calibrate one launch's virtual compute on the default session so
    // the measurement tenants start with clean accounts.
    let cal_kernel = churn_kernel(&ctx);
    let cal_buf = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE).unwrap();
    cal_kernel.set_arg_buffer(0, &cal_buf).unwrap();
    let calib = plane.default_session();
    calib
        .submit(&cal_kernel, NdRange::linear(LANES, 1))
        .unwrap();
    plane.drain().unwrap();
    let per_launch = plane
        .stats(calib.tenant())
        .map_or(1, |s| s.compute_nanos.max(1));

    // (name, weight, queue bound, submissions): the hog submits twice
    // what the others do into a queue of 8.
    let mut sessions = Vec::new();
    for (name, weight, max_pending, submits) in [
        ("gold-a", 2u32, 1024usize, 30),
        ("gold-b", 2, 1024, 30),
        ("bronze-a", 1, 1024, 30),
        ("bronze-b", 1, 1024, 30),
        ("hog", 1, 8, 60),
    ] {
        let session = plane.open_session(
            TenantSpec::new(name)
                .weight(weight)
                .quota(TenantQuota::unlimited().max_pending(max_pending)),
        );
        let kernel = churn_kernel(&ctx);
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE).unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        for _ in 0..submits {
            match session.submit(&kernel, NdRange::linear(LANES, 1)) {
                Err(Error::Overloaded(_)) if submits > max_pending => {}
                other => other.unwrap_or_else(|e| panic!("{name}: submit failed: {e}")),
            }
        }
        sessions.push((session, weight));
    }
    let (hog, _) = sessions.last().unwrap();
    let hog = plane.stats(hog.tenant()).unwrap();
    assert!(hog.shed > 0, "the hog was never shed: {hog:?}");

    // A 28-launch window splits 8:8:4:4:4 under perfect 2:2:1:1:1
    // sharing, leaving every queue backlogged (30 admitted each, 8 for
    // the hog).
    plane
        .drain_budget(SimDuration::from_nanos(per_launch * 28))
        .unwrap();

    let shares: Vec<(u32, u64, usize)> = sessions
        .iter()
        .map(|(s, w)| {
            let st = plane.stats(s.tenant()).unwrap();
            (*w, st.compute_nanos, st.pending)
        })
        .collect();
    for (weight, compute, pending) in &shares {
        assert!(
            *pending > 0,
            "weight-{weight} tenant must stay backlogged through the window \
             (got {compute} ns, 0 pending)"
        );
    }
    for &(w_hi, hi, _) in shares.iter().filter(|(w, ..)| *w == 2) {
        for &(w_lo, lo, _) in shares.iter().filter(|(w, ..)| *w == 1) {
            let ratio = hi as f64 / lo.max(1) as f64;
            assert!(
                (ratio - 2.0).abs() <= 0.4,
                "weight {w_hi} vs {w_lo}: compute ratio {ratio:.2} strayed \
                 more than 20% from 2.0 ({hi} vs {lo} ns)"
            );
        }
    }
    plane.drain().unwrap();
}

/// The very first opened session must get a tenant id distinct from the
/// pre-registered `"default"` tenant: user ids start at 1 (0 is the
/// reserved ambient user), so `TenantId::new(user)` can never collide
/// with [`TenantId::DEFAULT`] — nor two opened sessions with each other.
#[test]
fn first_open_session_does_not_collide_with_default() {
    let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
    let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let s = plane.open_session(TenantSpec::new("first").weight(7));
    assert_ne!(
        s.tenant(),
        TenantId::DEFAULT,
        "first opened tenant collides with the default tenant"
    );
    assert!(s.user().raw() != 0, "user id 0 is reserved for the host");
    let t = plane.open_session(TenantSpec::new("second"));
    assert!(t.user().raw() >= 1, "user id 0 is reserved for the host");
    assert_ne!(s.user(), t.user(), "two sessions share a user id");
    assert_ne!(s.tenant(), t.tenant(), "two sessions share a tenant");
}

/// Two tenants' buffers on one shared device each read back their own
/// bytes.
#[test]
fn tenants_sharing_a_device_read_back_their_own_buffers() {
    let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
    let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let queue = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
    let tenants = [
        (plane.open_session(TenantSpec::new("alice")), 7u8),
        (plane.open_session(TenantSpec::new("bob")), 9u8),
    ];
    let buffers: Vec<_> = tenants
        .iter()
        .map(|(session, fill)| {
            let buf = session.create_buffer(MemFlags::READ_WRITE, 64).unwrap();
            queue.enqueue_write_buffer(&buf, 0, &[*fill; 64]).unwrap();
            buf
        })
        .collect();
    for ((session, fill), buf) in tenants.iter().zip(&buffers) {
        let mut out = vec![0u8; 64];
        queue.enqueue_read_buffer(buf, 0, &mut out).unwrap();
        assert_eq!(
            out,
            vec![*fill; 64],
            "{} read another tenant's bytes",
            session.name()
        );
        assert_eq!(plane.stats(session.tenant()).unwrap().mem_bytes, 64);
    }
}

/// A full bounded queue sheds with a typed, matchable error and no
/// accounting drift: the shed submission never counts as submitted.
#[test]
fn bounded_queue_sheds_with_typed_overloaded_error() {
    let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
    let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let session =
        plane.open_session(TenantSpec::new("boxed").quota(TenantQuota::unlimited().max_pending(2)));
    let kernel = churn_kernel(&ctx);
    let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();

    session.submit(&kernel, NdRange::linear(LANES, 1)).unwrap();
    session.submit(&kernel, NdRange::linear(LANES, 1)).unwrap();
    let err = session
        .submit(&kernel, NdRange::linear(LANES, 1))
        .unwrap_err();
    match &err {
        Error::Overloaded(AdmitError::QueueFull { tenant, limit }) => {
            assert_eq!((tenant.as_str(), *limit), ("boxed", 2));
        }
        other => panic!("expected a QueueFull shed, got {other:?}"),
    }
    assert!(err.admit_error().is_some());
    assert!(err.status().is_none(), "sheds are not OpenCL status errors");

    let stats = plane.stats(session.tenant()).unwrap();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.shed, 1);
    plane.drain().unwrap();
    let stats = plane.stats(session.tenant()).unwrap();
    assert_eq!(stats.completed, 2, "shed work must never execute");
}

/// Runs the same program once through a raw [`AutoScheduler`] and once
/// through a default [`Session`] on a fresh identical platform: bytes,
/// audit log and virtual clock must match exactly — multi-tenancy is
/// invisible until a second tenant shows up.
#[test]
fn default_session_is_byte_identical_to_direct_autoscheduler() {
    let run = |through_plane: bool| -> (Vec<u8>, String, u64) {
        let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Gpu]).unwrap();
        let ctx = Context::new(&p, &p.devices(DeviceType::All)).unwrap();
        let kernel = churn_kernel(&ctx);
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, SIZE).unwrap();
        kernel.set_arg_buffer(0, &buf).unwrap();
        if through_plane {
            let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
            let session = plane.default_session();
            for _ in 0..6 {
                session.submit(&kernel, NdRange::linear(LANES, 1)).unwrap();
            }
            plane.drain().unwrap();
        } else {
            let auto = AutoScheduler::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
            for _ in 0..6 {
                let (event, _) = auto.launch(&kernel, NdRange::linear(LANES, 1)).unwrap();
                event.wait().unwrap();
            }
        }
        let staging = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();
        let mut out = vec![0u8; SIZE as usize];
        staging.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        staging.finish();
        (out, p.render_audit_log(), p.clock().now().as_nanos())
    };
    let (direct_bytes, direct_audit, direct_now) = run(false);
    let (plane_bytes, plane_audit, plane_now) = run(true);
    assert_eq!(direct_bytes, churn_ref(6), "reference run is correct");
    assert_eq!(plane_bytes, direct_bytes, "bytes diverged");
    assert_eq!(plane_audit, direct_audit, "audit log diverged");
    assert_eq!(plane_now, direct_now, "virtual clock diverged");
    assert!(
        direct_audit.contains("tenant=default"),
        "the single-tenant audit column defaults to `default`"
    );
}

/// Three tenants keep submitting while a node crashes on a lossy
/// network: after recovery, per-tenant accounting (submitted ==
/// completed once drained), buffer digests and the memory ledger must
/// all be exact — journal replay is tenant-aware — and the traced span
/// tree has no orphans. One row per `(spec, seed)`: `{node}` stands for
/// the host of `gpu0`, the node the placements land on (`HeteroAware`
/// breaks its ties toward device 0), so the crash fires mid-run.
#[test]
fn chaos_crash_preserves_per_tenant_accounting_and_digests() {
    const WIDE: &str = "crash={node}@40,drop=0.02,delay=0.05:200us,dup=0.02,reorder=0.02";
    for (spec, seed) in [
        ("crash={node}@25,drop=0.03,dup=0.05,delay=0.1:200us", 11),
        (WIDE, 1),
        (WIDE, 2),
        (WIDE, 3),
    ] {
        chaos_crash_row(spec, seed);
    }
}

fn chaos_crash_row(spec: &str, seed: u64) {
    let config = ClusterConfig::gpu_cluster(2);
    let crash_host = config.nodes[0].addr.split(':').next().unwrap();
    let spec = spec.replace("{node}", crash_host);
    let row = format!("{spec} seed {seed}");
    let platform = Platform::cluster(&config, KernelRegistry::new()).unwrap();
    platform.set_tracing(true);
    platform.install_chaos(ChaosPolicy::new(seed, ChaosSpec::parse(&spec).unwrap()));
    platform.set_recovery(Some(RecoveryPolicy {
        base_timeout: Duration::from_millis(10),
        max_attempts: 4,
        failover: true,
    }));
    // Peer-fed replicas are deliberately rolled back to the shadow
    // across a failover (the replayed re-pull can race the crash); pin
    // the data plane to the journaled host relay so digests must
    // survive bit-for-bit.
    platform.set_peer_transfers(false);

    let ctx = Context::new(&platform, &platform.devices(DeviceType::All)).unwrap();
    let plane = ServingPlane::new(&ctx, Box::new(policies::HeteroAware::new())).unwrap();
    let staging = CommandQueue::new(&ctx, &ctx.devices()[0]).unwrap();

    let mut actors = Vec::new();
    for (name, max_pending) in [("alpha", 64usize), ("beta", 64), ("gamma", 2)] {
        let session = plane.open_session(
            TenantSpec::new(name).quota(
                TenantQuota::unlimited()
                    .mem_bytes(SIZE)
                    .max_pending(max_pending),
            ),
        );
        let kernel = churn_kernel(&ctx);
        let buffer = session.create_buffer(MemFlags::READ_WRITE, SIZE).unwrap();
        kernel.set_arg_buffer(0, &buffer).unwrap();
        actors.push((session, kernel, buffer));
    }

    for _ in 0..8 {
        for (session, kernel, _) in &actors {
            for _ in 0..4 {
                match session.submit(kernel, NdRange::linear(LANES, 1)) {
                    Ok(()) | Err(Error::Overloaded(_)) => {}
                    Err(e) => panic!("{row}: launch failed under recovery: {e}"),
                }
            }
        }
        plane.drain().unwrap();
    }

    assert_eq!(
        platform.node_epoch(NodeId::new(0)),
        1,
        "{row}: the crash never fired"
    );
    let mut sheds = 0;
    for (session, _, buffer) in &actors {
        let stats = plane.stats(session.tenant()).unwrap();
        assert!(stats.completed > 0, "{row}: {} starved", session.name());
        assert_eq!(
            stats.submitted,
            stats.completed,
            "{row}: {}: admitted work lost or double-run across the failover",
            session.name()
        );
        sheds += stats.shed;
        let mut out = vec![0u8; SIZE as usize];
        staging.enqueue_read_buffer(buffer, 0, &mut out).unwrap();
        staging.finish();
        assert_eq!(
            out,
            churn_ref(stats.completed),
            "{row}: {}: buffer does not match {} completed applications",
            session.name(),
            stats.completed
        );
        assert_eq!(
            stats.mem_bytes,
            SIZE,
            "{row}: {} ledger drifted",
            session.name()
        );
    }
    assert!(sheds > 0, "{row}: the bounded tenant was never shed");

    // Dropping the buffers replenishes every ledger, crash or not.
    let tenants: Vec<_> = actors.iter().map(|(s, ..)| s.tenant()).collect();
    drop(actors);
    for tenant in tenants {
        assert_eq!(plane.stats(tenant).unwrap().mem_bytes, 0, "{row}");
    }
    let orphans = haocl_obs::orphans(&platform.obs().recorder.spans());
    assert!(orphans.is_empty(), "{row}: orphan spans {orphans:?}");
}
