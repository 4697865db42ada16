//! `bulk_transfer` — op = write 1 MiB to device 0 → 64-item touch kernel
//! on device 0 (so the device, not the host shadow the write just
//! filled, owns the newest copy) → the same kernel on device 1 (which
//! forces the node-to-node migration over the peer path) → read 1 MiB
//! back from device 1 → compare every byte with the host's copy. Cycles
//! 16 buffers; 3 MiB moved per op (computed: host → node 0, node 0 →
//! node 1, node 1 → host).
//!
//! Why: the `proto` payload codec, `net` segmentation/reassembly/pool
//! and `core::buffer`/residency do all the work, the VM and scheduler
//! none. It runs the same framing/codec code as `small_launch` at the
//! opposite message size, so a pooling or zero-copy change that helps
//! one and costs the other shows.

use std::time::{Duration, Instant};

use haocl::{Buffer, Kernel, MemFlags, NdRange, Platform, Program};

use super::check_ran_in_vm;
use crate::gen::Rng;
use crate::harness::{OpLog, Res, Rig, Scale, Workload};
use crate::kernels;
use crate::spans::Spans;

/// Words the touch kernel rewrites.
const TOUCHED_WORDS: usize = 64;

pub struct BulkTransfer {
    rig: Rig,
    _program: Program,
    kernel: Kernel,
    buffers: Vec<Buffer>,
    /// The host's copy of what it last wrote to each buffer.
    payloads: Vec<Vec<u8>>,
    readback: Vec<u8>,
    rng: Rng,
    ops_per_block: usize,
    next: usize,
}

impl Workload for BulkTransfer {
    const NAME: &'static str = "bulk_transfer";
    const WHY: &'static str = "1 MiB write, peer migration, read back: proto payload codec, net segmentation/pool and core::buffer residency do all the work, the VM none";
    const RSS_AT_BLOCKS: usize = 6;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let rig = Rig::launch()?;
        let program = Program::from_source(&rig.ctx, kernels::TOUCH);
        program.build()?;
        let kernel = Kernel::new(&program, "touch")?;
        kernel.set_arg_i32(2, TOUCHED_WORDS as i32)?;
        let payload_bytes = scale.pick(1 << 20, 16 << 10);
        let count = scale.pick(16, 4);
        let mut rng = Rng::new(seed, 3);
        let mut buffers = Vec::with_capacity(count);
        let mut payloads = Vec::with_capacity(count);
        for _ in 0..count {
            buffers.push(Buffer::new(
                &rig.ctx,
                MemFlags::READ_WRITE,
                payload_bytes as u64,
            )?);
            payloads.push(rng.bytes(payload_bytes));
        }
        Ok(BulkTransfer {
            rig,
            _program: program,
            kernel,
            buffers,
            payloads,
            readback: vec![0u8; payload_bytes],
            rng,
            ops_per_block: scale.pick(112, 8),
            next: 0,
        })
    }

    fn block(&mut self, spans: &mut Spans, log: &mut OpLog) -> Res<Duration> {
        let (first, second) = (&self.rig.queues[0], &self.rig.queues[1]);
        let started = Instant::now();
        for _ in 0..self.ops_per_block {
            let slot = self.next % self.buffers.len();
            self.next += 1;
            let buffer = &self.buffers[slot];
            let payload = &mut self.payloads[slot];
            // Fresh head words every op, so a write that silently did
            // nothing leaves the previous op's bytes behind.
            let head = self.rng.bytes(4 * TOUCHED_WORDS);
            payload[..head.len()].copy_from_slice(&head);
            let masks = [self.rng.next_u64() as u32, self.rng.next_u64() as u32];
            let mask = masks[0] ^ masks[1];
            let readback = &mut self.readback;
            spans.next_op();
            let t0 = Instant::now();
            let (events, intact) = spans.time("op", |s| {
                s.time("core.queue.enqueue_write_buffer", |_| {
                    first.enqueue_write_buffer(buffer, 0, payload)
                })?;
                let mut events = Vec::with_capacity(2);
                for (queue, mask) in [first, second].into_iter().zip(masks) {
                    let event = s.time("core.queue.enqueue_nd_range_kernel", |_| {
                        self.kernel.set_arg_buffer(0, buffer)?;
                        self.kernel.set_arg_u32(1, mask)?;
                        queue.enqueue_nd_range_kernel(
                            &self.kernel,
                            NdRange::linear(TOUCHED_WORDS as u64, TOUCHED_WORDS as u64),
                        )
                    })?;
                    s.time("core.event.wait", |_| event.wait())?;
                    events.push(event);
                }
                s.time("core.queue.enqueue_read_buffer", |_| {
                    second.enqueue_read_buffer(buffer, 0, readback)
                })?;
                let intact =
                    s.time("bench.compare", |_| {
                        let (got_head, got_rest) = readback.split_at(head.len());
                        let head_ok = got_head.chunks_exact(4).zip(head.chunks_exact(4)).all(
                            |(got, sent)| {
                                let sent = u32::from_le_bytes(sent.try_into().expect("word"));
                                got == (sent ^ mask).to_le_bytes()
                            },
                        );
                        head_ok && got_rest == &payload[head.len()..]
                    });
                Ok::<_, haocl::Error>((events, intact))
            })?;
            log.done(t0);
            for event in &events {
                check_ran_in_vm(event, log);
            }
            log.check(intact, || {
                format!("buffer {slot} read back different bytes")
            });
        }
        Ok(started.elapsed())
    }

    fn platform(&self) -> &Platform {
        &self.rig.platform
    }
}
