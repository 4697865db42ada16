//! `proto` and `net` probes: the codec on a launch-sized and a 1 MiB
//! message, framing/segmentation/reassembly at both sizes, and the
//! fabric's thread-to-thread hop.

use std::thread;
use std::time::Duration;

use bytes::Bytes;
use haocl_net::frame::{encode_frame_pooled, segment_pooled, FrameAssembler};
use haocl_net::{BufferPool, Fabric, LinkModel};
use haocl_proto::ids::{BufferId, KernelId, RequestId, UserId};
use haocl_proto::messages::{
    ApiCall, ApiReply, Envelope, Fidelity, Request, Response, WireArg, WireCost, WireNdRange,
};
use haocl_proto::wire::{decode_from_slice, encode_into_vec, encode_to_vec, Decode, Encode};
use haocl_sim::{Clock, SimTime};

use super::{time_ns, Budget, Samples};
use crate::gen::Rng;
use crate::harness::Res;
use crate::workloads::SMALL_ITEMS;

pub const MIB: usize = 1 << 20;

fn request(body: ApiCall) -> Envelope {
    Envelope::Single(Request {
        id: RequestId::new(7),
        user: UserId::new(0),
        sent_at_nanos: 123_456_789,
        trace_id: 0,
        parent_span: 0,
        epoch: 0,
        attempt: 0,
        body,
    })
}

fn response(body: ApiReply) -> Response {
    Response {
        id: RequestId::new(7),
        completed_at_nanos: 123_999_999,
        body,
        duplicate: false,
        spans: Vec::new(),
    }
}

/// The 64-item saxpy launch exactly as `core::queue` puts it on the wire.
pub fn launch_call(kernel: KernelId, x: BufferId, y: BufferId, a: f32) -> ApiCall {
    let items = SMALL_ITEMS as u64;
    ApiCall::LaunchKernel {
        device: 0,
        kernel,
        args: vec![
            WireArg::Buffer(x),
            WireArg::Buffer(y),
            WireArg::F32(a),
            WireArg::I32(items as i32),
        ],
        range: WireNdRange {
            work_dim: 1,
            global: [items, 1, 1],
            local: [items, 1, 1],
        },
        cost: WireCost {
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            uniform: true,
            streaming: false,
        },
        fidelity: Fidelity::Full,
        shared: false,
    }
}

/// Samples `<name>.encode_ns` and `<name>.decode_ns` of one message.
fn codec<T: Encode + Decode>(
    samples: &mut Samples,
    name: &str,
    slice: Duration,
    batch: u32,
    message: &T,
) -> Res<()> {
    let mut wire = Vec::new();
    let encode_ns = time_ns(slice, batch, || {
        wire.clear();
        encode_into_vec(message, &mut wire);
    });
    decode_from_slice::<T>(&wire)
        .map_err(|e| format!("{name} does not survive a round trip: {e:?}"))?;
    let decode_ns = time_ns(slice, batch, || {
        std::hint::black_box(decode_from_slice::<T>(&wire).expect("decoded once already"));
    });
    samples.add(format!("{name}.encode_ns"), encode_ns);
    samples.add(format!("{name}.decode_ns"), decode_ns);
    Ok(())
}

/// Frame + segment + reassemble one message body, pooled — the path
/// every fabric send and receive takes.
fn framing_ns(slice: Duration, batch: u32, body: &[u8]) -> f64 {
    let pool = BufferPool::new();
    let mut assembler = FrameAssembler::new();
    time_ns(slice, batch, || {
        let frame = encode_frame_pooled(&pool, |v| v.extend_from_slice(body));
        for chunk in segment_pooled(&frame) {
            for whole in assembler.push_pooled(&chunk).expect("clean stream") {
                assert_eq!(whole.len(), body.len(), "reassembled frame lost bytes");
            }
        }
    })
}

/// Round trips over a two-thread `Conn` pair: `forward` bytes there,
/// `reply` bytes back. Nanoseconds per round trip.
fn ping_pong_ns(slice: Duration, forward: &[u8], reply: &[u8]) -> Res<f64> {
    let fabric = Fabric::new(Clock::new(), LinkModel::gigabit_ethernet());
    let listener = fabric.bind("10.9.0.2:9000")?;
    let reply = reply.to_vec();
    let echo = thread::spawn(move || {
        let mut conn = listener.accept().expect("client connects");
        // Ends when the client hangs up.
        while let Ok((_, at)) = conn.recv_frame() {
            if conn.send_frame(&reply, at).is_err() {
                break;
            }
        }
    });
    let mut conn = fabric.connect("10.9.0.1:9000", "10.9.0.2:9000")?;
    let rt = time_ns(slice, 1, || {
        conn.send_frame(forward, SimTime::ZERO)
            .expect("echo thread is up");
        conn.recv_frame().expect("echo thread replies");
    });
    drop(conn);
    echo.join().map_err(|_| "echo thread panicked")?;
    Ok(rt)
}

pub struct Fixture {
    launch_req: Envelope,
    launch_resp: Response,
    write_req: Envelope,
}

impl Fixture {
    pub fn new(seed: u64) -> Fixture {
        Fixture {
            launch_req: request(launch_call(
                KernelId::new(3),
                BufferId::new(11),
                BufferId::new(12),
                1.25,
            )),
            launch_resp: response(ApiReply::LaunchDone {
                start_nanos: 1_000,
                end_nanos: 9_000,
                instructions: 1_088,
            }),
            write_req: request(ApiCall::WriteBuffer {
                device: 0,
                buffer: BufferId::new(11),
                offset: 0,
                data: Bytes::from(Rng::new(seed, 22).bytes(MIB)),
            }),
        }
    }

    pub fn pass(&mut self, budget: &Budget, samples: &mut Samples) -> Res<()> {
        let unit = budget.units(1);
        codec(samples, "proto.launch_req", unit, 200, &self.launch_req)?;
        codec(samples, "proto.launch_resp", unit, 200, &self.launch_resp)?;
        codec(
            samples,
            "proto.ping_req",
            unit,
            200,
            &request(ApiCall::Ping),
        )?;
        codec(
            samples,
            "proto.ping_resp",
            unit,
            200,
            &response(ApiReply::Pong { now_nanos: 5 }),
        )?;
        codec(
            samples,
            "proto.write1m_req",
            budget.units(2),
            1,
            &self.write_req,
        )?;

        let (req_wire, resp_wire, write_wire) = (
            encode_to_vec(&self.launch_req),
            encode_to_vec(&self.launch_resp),
            encode_to_vec(&self.write_req),
        );
        samples.add("proto.launch_req_bytes", req_wire.len() as f64);
        samples.add("proto.launch_resp_bytes", resp_wire.len() as f64);
        samples.add("proto.write1m_req_bytes", write_wire.len() as f64);
        samples.add("net.frame.small_ns", framing_ns(unit, 200, &req_wire));
        samples.add(
            "net.frame.bulk_ns",
            framing_ns(budget.units(2), 1, &write_wire),
        );
        samples.add(
            "net.fabric.small_rt_ns",
            ping_pong_ns(budget.units(3), &req_wire, &resp_wire)?,
        );
        samples.add(
            "net.fabric.bulk_rt_ns",
            ping_pong_ns(budget.units(3), &write_wire, &resp_wire)?,
        );
        Ok(())
    }
}
