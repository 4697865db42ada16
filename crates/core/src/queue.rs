//! `cl_command_queue` objects.
//!
//! Buffer transfers keep the paper's synchronous host semantics (§III-C:
//! the host "will wait for the response message and then take the next
//! action"). Kernel launches ride the pipelined backbone instead:
//! `enqueue_nd_range_kernel` submits the launch without blocking and
//! returns a pending [`Event`] that resolves when the NMP's response
//! arrives — on [`Event::wait`], a profiling accessor, [`finish`], or a
//! dependent operation on a buffer the launch wrote. Dependent work is
//! kept correct by the buffers themselves: every coherence entry point
//! settles the in-flight launches registered against the buffer first.
//!
//! [`finish`]: CommandQueue::finish

use std::collections::VecDeque;
use std::sync::Arc;

use haocl_device::wire::{cost_to_wire, range_to_wire};
use haocl_kernel::NdRange;
use haocl_obs::{names, phase_from_name, Span, TraceCtx};
use haocl_proto::messages::{ApiCall, ApiReply, WireArg, WireLaunchPart};
use haocl_sim::{Phase, SimTime};

use crate::buffer::Buffer;
use crate::context::Context;
use crate::error::{Error, Status};
use crate::event::{CommandType, Event, Profile};
use crate::kernel::{Kernel, StoredArg};
use crate::platform::Device;

/// One constituent of a (possibly fused) dispatch: a kernel with a
/// snapshot of its bound arguments and its launch geometry. The
/// [`crate::auto::AutoScheduler`] captures these when a
/// [`crate::graph::LaunchGraph`] is recorded, so later `set_arg` calls
/// cannot retroactively change an already-captured launch.
#[derive(Clone)]
pub(crate) struct LaunchPart {
    pub(crate) kernel: Kernel,
    pub(crate) args: Vec<StoredArg>,
    pub(crate) range: NdRange,
}

impl LaunchPart {
    /// Snapshots `kernel`'s currently-bound arguments for a launch over
    /// `range`.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidKernelArgs`] if any argument is unset.
    pub(crate) fn capture(kernel: &Kernel, range: NdRange) -> Result<Self, Error> {
        Ok(LaunchPart {
            kernel: kernel.clone(),
            args: kernel.bound_args()?,
            range,
        })
    }
}

/// The name a dispatch of `parts` goes by: a lone kernel's own (shared)
/// name, or the fused chain's names joined with `+`.
pub(crate) fn dispatch_name(parts: &[LaunchPart]) -> Arc<str> {
    match parts {
        [lone] => Arc::clone(&lone.kernel.inner.name),
        _ => {
            let names: Vec<&str> = parts.iter().map(|p| p.kernel.name()).collect();
            names.join("+").into()
        }
    }
}

/// An in-order command queue bound to one device.
#[derive(Clone)]
pub struct CommandQueue {
    context: Context,
    device: Device,
    /// Completion time of the latest asynchronous launch (clFinish
    /// target). Shared across clones of the queue.
    last_end: Arc<parking_lot::Mutex<SimTime>>,
    /// Launches submitted on this queue and not yet seen resolved.
    /// Shared across clones.
    pending: Arc<parking_lot::Mutex<PendingLaunches>>,
}

/// The launches [`CommandQueue::finish`] still has to wait for, oldest
/// first.
struct PendingLaunches {
    events: VecDeque<Event>,
    /// Length at which the next push first drops the events that have
    /// resolved meanwhile — twice what the last such sweep left, so a
    /// program that waits on every [`Event`] itself and never calls
    /// `finish` keeps a bounded list at amortised constant cost.
    sweep_at: usize,
}

impl PendingLaunches {
    /// Shortest list worth sweeping.
    const MIN_SWEEP: usize = 64;

    fn push(&mut self, event: Event) {
        if self.events.len() >= self.sweep_at {
            self.events.retain(|e| !e.is_settled());
            self.sweep_at = (2 * self.events.len()).max(Self::MIN_SWEEP);
        }
        self.events.push_back(event);
    }
}

impl CommandQueue {
    /// Creates a queue on `device` (`clCreateCommandQueue`).
    ///
    /// # Errors
    ///
    /// [`Status::InvalidDevice`] if `device` is not in `context`.
    pub fn new(context: &Context, device: &Device) -> Result<Self, Error> {
        if !context.contains(device) {
            return Err(Error::api(
                Status::InvalidDevice,
                format!("device {} is not in the context", device.index()),
            ));
        }
        Ok(CommandQueue {
            context: context.clone(),
            device: device.clone(),
            last_end: Arc::new(parking_lot::Mutex::new(SimTime::ZERO)),
            pending: Arc::new(parking_lot::Mutex::new(PendingLaunches {
                events: VecDeque::new(),
                sweep_at: PendingLaunches::MIN_SWEEP,
            })),
        })
    }

    /// The queue's device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The queue's context.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Writes host data into a buffer (`clEnqueueWriteBuffer`).
    ///
    /// # Errors
    ///
    /// [`Status::InvalidValue`] for out-of-range writes; transport errors
    /// otherwise.
    pub fn enqueue_write_buffer(
        &self,
        buffer: &Buffer,
        offset: u64,
        data: &[u8],
    ) -> Result<Event, Error> {
        let queued = self.now();
        buffer.inner.host_write(&self.device, offset, data)?;
        let end = self.now();
        Ok(Event::new(CommandType::WriteBuffer, queued, queued, end, 0))
    }

    /// Reads a buffer back to host memory (`clEnqueueReadBuffer`).
    ///
    /// # Errors
    ///
    /// [`Status::InvalidValue`] for out-of-range reads; transport errors
    /// otherwise.
    pub fn enqueue_read_buffer(
        &self,
        buffer: &Buffer,
        offset: u64,
        out: &mut [u8],
    ) -> Result<Event, Error> {
        let queued = self.now();
        buffer.inner.host_read(offset, out)?;
        let end = self.now();
        Ok(Event::new(CommandType::ReadBuffer, queued, queued, end, 0))
    }

    /// Modeled write: charges the transfer of `len` bytes into a
    /// [`Buffer::new_modeled`] buffer without carrying data.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidOperation`] on a non-modeled buffer;
    /// [`Status::InvalidValue`] for out-of-range writes.
    pub fn enqueue_write_buffer_modeled(
        &self,
        buffer: &Buffer,
        offset: u64,
        len: u64,
    ) -> Result<Event, Error> {
        let queued = self.now();
        buffer.inner.host_write_modeled(&self.device, offset, len)?;
        let end = self.now();
        Ok(Event::new(CommandType::WriteBuffer, queued, queued, end, 0))
    }

    /// Modeled read: charges the pull of `len` bytes from a
    /// [`Buffer::new_modeled`] buffer without carrying data.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidOperation`] on a non-modeled buffer;
    /// [`Status::InvalidValue`] for out-of-range reads.
    pub fn enqueue_read_buffer_modeled(
        &self,
        buffer: &Buffer,
        offset: u64,
        len: u64,
    ) -> Result<Event, Error> {
        let queued = self.now();
        buffer.inner.host_read_modeled(offset, len)?;
        let end = self.now();
        Ok(Event::new(CommandType::ReadBuffer, queued, queued, end, 0))
    }

    /// Copies between buffers on this queue's device
    /// (`clEnqueueCopyBuffer`).
    ///
    /// # Errors
    ///
    /// [`Status::InvalidValue`] for out-of-range ranges; transport errors
    /// otherwise.
    pub fn enqueue_copy_buffer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        src_offset: u64,
        dst_offset: u64,
        len: u64,
    ) -> Result<Event, Error> {
        if src_offset + len > src.size() || dst_offset + len > dst.size() {
            return Err(Error::api(
                Status::InvalidValue,
                "copy range outside buffer bounds",
            ));
        }
        let queued = self.now();
        src.inner.make_current_on(&self.device, false)?;
        dst.inner.make_current_on(&self.device, true)?;
        let outcome = self.device.platform.call_traced(
            self.device.node(),
            ApiCall::CopyBuffer {
                device: self.device.device_index(),
                src: src.inner.wire_id_on(self.device.node()),
                dst: dst.inner.wire_id_on(self.device.node()),
                src_offset,
                dst_offset,
                len,
            },
            Phase::DataTransfer,
        )?;
        dst.inner.note_device_write_full(&self.device);
        Ok(Event::new(
            CommandType::CopyBuffer,
            queued,
            queued,
            outcome.node_completed,
            0,
        ))
    }

    /// Launches a kernel across `range` (`clEnqueueNDRangeKernel`).
    ///
    /// Buffer arguments are made current on this queue's device first
    /// (transfers are charged to the `DataTransfer` phase). The launch
    /// itself is *submitted* on the pipelined backbone without waiting
    /// for the node's response: the returned [`Event`] is pending and
    /// resolves — performing the coherence and profiling bookkeeping —
    /// when the response is first observed. Remote launch failures
    /// therefore surface on [`Event::wait`], not here.
    ///
    /// # Errors
    ///
    /// [`Status::InvalidKernelArgs`] if any argument is unset; staging
    /// or submission transport failures.
    pub fn enqueue_nd_range_kernel(&self, kernel: &Kernel, range: NdRange) -> Result<Event, Error> {
        self.enqueue_nd_range_kernel_traced(kernel, range, None)
    }

    /// [`enqueue_nd_range_kernel`](Self::enqueue_nd_range_kernel) with an
    /// explicit parent trace context.
    ///
    /// With tracing enabled this launch records a root span (or a child
    /// of `parent`, when given — the [`crate::auto::AutoScheduler`] nests
    /// launches under its placement span this way) covering the
    /// submit-to-response interval, plus the fabric hops it synthesizes
    /// and the NMP/VM spans the node ships back in its response — one
    /// causally connected tree per enqueue. With tracing off, `parent`
    /// is ignored and this is exactly `enqueue_nd_range_kernel`.
    ///
    /// # Errors
    ///
    /// Same as [`enqueue_nd_range_kernel`](Self::enqueue_nd_range_kernel).
    pub fn enqueue_nd_range_kernel_traced(
        &self,
        kernel: &Kernel,
        range: NdRange,
        parent: Option<TraceCtx>,
    ) -> Result<Event, Error> {
        self.enqueue_launch_parts_traced(&[LaunchPart::capture(kernel, range)?], parent)
    }

    /// Submits one wire command covering `parts`: the plain
    /// `LaunchKernel` path for a single part (byte-identical to
    /// [`enqueue_nd_range_kernel`](Self::enqueue_nd_range_kernel)), or
    /// one `LaunchFused` command whose constituents the NMP executes
    /// back-to-back under a single dispatch. Callers must only pass
    /// multiple parts the fusion prover approved (see [`crate::graph`]):
    /// this method trusts the plan and does not re-check legality.
    ///
    /// # Errors
    ///
    /// Staging or submission transport failures; remote launch failures
    /// surface on the returned [`Event`].
    pub(crate) fn enqueue_launch_parts_traced(
        &self,
        parts: &[LaunchPart],
        parent: Option<TraceCtx>,
    ) -> Result<Event, Error> {
        assert!(!parts.is_empty(), "a dispatch needs at least one part");
        let queued = self.now();
        let buffer_args = || {
            parts
                .iter()
                .flat_map(|p| p.args.iter())
                .filter_map(|a| match a {
                    StoredArg::Buffer(b) => Some(&b.inner),
                    _ => None,
                })
        };
        // Stage buffer arguments onto this device. This settles earlier
        // launches against these buffers, so same-buffer launches
        // serialize while independent launches pipeline.
        for buffer in buffer_args() {
            buffer.make_current_on(&self.device, buffer.flags.kernel_writable())?;
        }
        let mut wire_parts = Vec::with_capacity(parts.len());
        for part in parts {
            let remote_kernel = part.kernel.ensure_remote(&self.device)?;
            let wire_args: Vec<WireArg> = part
                .args
                .iter()
                .map(|a| match a {
                    StoredArg::Buffer(b) => WireArg::Buffer(b.inner.wire_id_on(self.device.node())),
                    StoredArg::Scalar(w) => *w,
                    StoredArg::Local(bytes) => WireArg::LocalBytes(*bytes),
                })
                .collect();
            wire_parts.push(WireLaunchPart {
                kernel: remote_kernel,
                args: wire_args,
                range: range_to_wire(&part.range),
                cost: cost_to_wire(&part.kernel.cost()),
            });
        }
        let started = self.now();
        let obs = &self.device.platform.obs;
        // The root span's id is allocated up front — the NMP parents its
        // dispatch span under it over the wire — but the span itself is
        // recorded at resolve time, once its end is known.
        let root = obs.enabled().then(|| {
            let trace = parent.map_or_else(|| obs.recorder.new_trace(), |c| c.trace);
            (trace, obs.recorder.next_span_id(), parent.map(|c| c.parent))
        });
        let ctx = root.map(|(trace, id, _)| TraceCtx::new(trace, id));
        let fused_len = parts.len();
        // Only the spans and the latency histogram name the dispatch.
        let kernel_name = root.map_or_else(String::new, |_| dispatch_name(parts).to_string());
        let fidelity = parts[0].kernel.fidelity();
        let call = self
            .device
            .platform
            .host()
            .submit_traced(
                self.device.node(),
                ApiCall::launch(self.device.device_index(), fidelity, false, wire_parts),
                ctx,
            )
            .map_err(Error::from)?;
        // The resolver holds the buffers weakly: a buffer nobody can
        // reach anymore has no coherence state worth updating, and a
        // strong reference would cycle through the buffer's own
        // pending-writer list.
        let written: Vec<std::sync::Weak<crate::buffer::BufferInner>> =
            buffer_args().map(Arc::downgrade).collect();
        // The resolver holds every part's program until the launch
        // resolves, so a program's release cannot overtake a launch that
        // is still being retransmitted. A lone launch's list is empty.
        let programs = (
            parts[0].kernel.program().clone(),
            parts[1..]
                .iter()
                .map(|p| p.kernel.program().clone())
                .collect::<Vec<_>>(),
        );
        let device = self.device.clone();
        let last_end = Arc::clone(&self.last_end);
        let event = Event::pending(CommandType::NdRangeKernel, move || {
            let _programs = programs;
            let wall_started = std::time::Instant::now();
            let outcome = call.wait()?;
            let wall_nanos = wall_started.elapsed().as_nanos() as u64;
            let platform = &device.platform;
            device.count_wall_round_trip(wall_nanos);
            // The enqueue RPC round-trip, now that its cost is known.
            platform.tracer.record(
                Phase::Compute,
                outcome.host_received.saturating_duration_since(started),
            );
            let ApiReply::LaunchDone {
                start_nanos,
                end_nanos,
                instructions,
            } = outcome.reply
            else {
                return Err(Error::Transport(format!(
                    "LaunchKernel answered with {:?}",
                    outcome.reply
                )));
            };
            // The launch may have written through any writable buffer
            // arg.
            for buffer in &written {
                if let Some(buffer) = buffer.upgrade() {
                    buffer.note_kernel_write(&device);
                }
            }
            let start = SimTime::from_nanos(start_nanos);
            let end = SimTime::from_nanos(end_nanos);
            if let Some((trace, root_id, outer_parent)) = root {
                let rec = &platform.obs.recorder;
                let node_name = device.node_name();
                let kind = format!("{:?}", device.kind());
                let span_name = if fused_len == 1 {
                    format!("enqueue_nd_range {kernel_name}")
                } else {
                    format!("enqueue_fused {kernel_name}")
                };
                let mut span = Span::new(
                    root_id,
                    trace,
                    outer_parent,
                    span_name,
                    Phase::Compute,
                    "host",
                    started,
                    outcome.host_received,
                )
                .attr("kernel", kernel_name.clone())
                .attr("device_kind", kind.clone())
                .attr("instructions", instructions.to_string());
                if fused_len > 1 {
                    span = span.attr("fused_parts", fused_len.to_string());
                }
                rec.record(span);
                // The node's side of the tree arrived inside the
                // response; its spans keep their wire-derived ids.
                let mut arrival = None;
                for w in &outcome.spans {
                    if w.name == "nmp.dispatch" {
                        arrival = Some(SimTime::from_nanos(w.start_nanos));
                    }
                    let mut span = Span::new(
                        haocl_obs::SpanId(w.id),
                        trace,
                        (w.parent != 0).then_some(haocl_obs::SpanId(w.parent)),
                        w.name.clone(),
                        phase_from_name(&w.category),
                        node_name,
                        SimTime::from_nanos(w.start_nanos),
                        SimTime::from_nanos(w.end_nanos),
                    );
                    // Wall-clock (monotonic) duration measured on the
                    // node, alongside the virtual interval; zero means
                    // the node did not measure.
                    if w.wall_nanos > 0 {
                        span = span.attr("wall_nanos", w.wall_nanos.to_string());
                    }
                    rec.record(span);
                }
                // Fabric hops are synthesized host-side — the fabric
                // never decodes payloads, so it cannot record them.
                if let Some(arrival) = arrival {
                    rec.record(Span::new(
                        rec.next_span_id(),
                        trace,
                        Some(root_id),
                        "fabric.request",
                        Phase::DataTransfer,
                        format!("fabric:{node_name}"),
                        started,
                        arrival,
                    ));
                    rec.record(Span::new(
                        rec.next_span_id(),
                        trace,
                        Some(root_id),
                        "fabric.reply",
                        Phase::DataTransfer,
                        format!("fabric:{node_name}"),
                        outcome.node_completed,
                        outcome.host_received,
                    ));
                }
                platform.obs.metrics.observe_nanos(
                    names::KERNEL_LATENCY,
                    &[("kernel", &kernel_name), ("kind", &kind)],
                    end_nanos.saturating_sub(start_nanos),
                );
            }
            // The kernel runs asynchronously until `end_nanos` — charge
            // its device time to the Compute phase and remember it for
            // `finish`.
            platform.tracer.record(Phase::Compute, end - start);
            {
                let mut last = last_end.lock();
                *last = (*last).max(end);
            }
            Ok(Profile {
                queued,
                start,
                end,
                instructions,
            })
        });
        for buffer in buffer_args() {
            buffer.add_pending_writer(event.clone());
        }
        let depth = {
            let mut pending = self.pending.lock();
            pending.push(event.clone());
            pending.events.len()
        };
        self.device.note_queue_depth(depth);
        Ok(event)
    }

    /// Blocks until all enqueued commands complete (`clFinish`).
    ///
    /// Transfers are synchronous already; kernel launches are pending
    /// events, so this resolves every launch submitted on this queue,
    /// advances the virtual clock to the completion of the latest one
    /// and returns the new time. A launch that failed keeps its error on
    /// its own [`Event`] (observe it with [`Event::wait`]).
    pub fn finish(&self) -> SimTime {
        // What is queued now, oldest first, popped one at a time: the
        // list keeps its storage and its lock is not held across a wait.
        let queued = self.pending.lock().events.len();
        for _ in 0..queued {
            let Some(event) = self.pending.lock().events.pop_front() else {
                break;
            };
            let _ = event.wait();
        }
        self.device.note_queue_depth(0);
        let last = *self.last_end.lock();
        self.device.platform.clock().advance_to(last);
        self.now()
    }

    /// Issues queued commands (`clFlush`) — a no-op: launches are
    /// submitted to the backbone at enqueue time.
    pub fn flush(&self) {}

    fn now(&self) -> SimTime {
        self.device.platform.clock().now()
    }
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CommandQueue(device {})", self.device.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::platform::{DeviceType, Platform};
    use crate::program::Program;
    use haocl_proto::messages::DeviceKind;

    fn gpu_setup() -> (Platform, Context, CommandQueue) {
        let p = Platform::local(&[DeviceKind::Gpu]).unwrap();
        let devs = p.devices(DeviceType::All);
        let ctx = Context::new(&p, &devs).unwrap();
        let q = CommandQueue::new(&ctx, &devs[0]).unwrap();
        (p, ctx, q)
    }

    #[test]
    fn queue_requires_context_membership() {
        let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Cpu]).unwrap();
        let devs = p.devices(DeviceType::All);
        let ctx = Context::new(&p, &devs[..1]).unwrap();
        let err = CommandQueue::new(&ctx, &devs[1]).unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidDevice));
    }

    #[test]
    fn write_launch_read_roundtrip() {
        let (_p, ctx, q) = gpu_setup();
        let prog = Program::from_source(
            &ctx,
            "__kernel void neg(__global int* a) { int i = get_global_id(0); a[i] = -a[i]; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "neg").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 16).unwrap();
        let data: Vec<u8> = [1i32, 2, 3, 4]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        q.enqueue_write_buffer(&buf, 0, &data).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let ev = q
            .enqueue_nd_range_kernel(&k, NdRange::linear(4, 2))
            .unwrap();
        assert!(ev.finished_at() >= ev.started_at());
        assert!(ev.instructions() > 0);
        let mut out = vec![0u8; 16];
        q.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        let vals: Vec<i32> = out
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![-1, -2, -3, -4]);
        q.finish();
    }

    #[test]
    fn copy_buffer_on_device() {
        let (_p, ctx, q) = gpu_setup();
        let a = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let b = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        q.enqueue_write_buffer(&a, 0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        q.enqueue_copy_buffer(&a, &b, 4, 0, 4).unwrap();
        let mut out = vec![0u8; 8];
        q.enqueue_read_buffer(&b, 0, &mut out).unwrap();
        assert_eq!(out, vec![5, 6, 7, 8, 0, 0, 0, 0]);
    }

    #[test]
    fn copy_bounds_checked() {
        let (_p, ctx, q) = gpu_setup();
        let a = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let b = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        let err = q.enqueue_copy_buffer(&a, &b, 0, 0, 8).unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidValue));
    }

    #[test]
    fn launch_with_unset_args_fails() {
        let (_p, ctx, q) = gpu_setup();
        let prog = Program::from_source(
            &ctx,
            "__kernel void f(__global int* a, int n) { a[0] = n; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "f").unwrap();
        let err = q
            .enqueue_nd_range_kernel(&k, NdRange::linear(1, 1))
            .unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidKernelArgs));
    }

    #[test]
    fn data_moves_between_devices_via_host() {
        // Write on device 0, compute on device 1, read back: coherence
        // must route through the host transparently.
        let p = Platform::local(&[DeviceKind::Gpu, DeviceKind::Gpu]).unwrap();
        let devs = p.devices(DeviceType::All);
        let ctx = Context::new(&p, &devs).unwrap();
        let q0 = CommandQueue::new(&ctx, &devs[0]).unwrap();
        let q1 = CommandQueue::new(&ctx, &devs[1]).unwrap();
        let prog = Program::from_source(
            &ctx,
            "__kernel void inc(__global int* a) { int i = get_global_id(0); a[i] = a[i] + 1; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "inc").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let data: Vec<u8> = [10i32, 20].iter().flat_map(|v| v.to_le_bytes()).collect();
        q0.enqueue_write_buffer(&buf, 0, &data).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        // Launch on device 0, then on device 1: the second launch must see
        // the first launch's result.
        q0.enqueue_nd_range_kernel(&k, NdRange::linear(2, 1))
            .unwrap();
        q1.enqueue_nd_range_kernel(&k, NdRange::linear(2, 1))
            .unwrap();
        let mut out = vec![0u8; 8];
        q1.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
        let vals: Vec<i32> = out
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![12, 22]);
    }

    #[test]
    fn modeled_pipeline_charges_time_without_data() {
        let (p, ctx, q) = gpu_setup();
        let prog = Program::from_source(
            &ctx,
            "__kernel void big(__global float* a) { int i = get_global_id(0); a[i] = 1.0f; }",
        );
        prog.build().unwrap();
        let k = Kernel::new(&prog, "big").unwrap();
        k.set_fidelity(crate::Fidelity::Modeled);
        k.set_cost(haocl_kernel::CostModel::new().flops(1e12).bytes_read(4e9));
        // A "1 GB" buffer that allocates nothing.
        let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 1 << 30).unwrap();
        assert!(buf.is_modeled());
        let t0 = p.now();
        q.enqueue_write_buffer_modeled(&buf, 0, 1 << 30).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let ev = q
            .enqueue_nd_range_kernel(&k, NdRange::linear(1 << 20, 256))
            .unwrap();
        q.enqueue_read_buffer_modeled(&buf, 0, 1 << 30).unwrap();
        // PCIe at 12 GB/s: 1 GiB each way ≈ 90 ms each; kernel ≈ 260 ms.
        let elapsed = p.now() - t0;
        assert!(
            elapsed > haocl_sim::SimDuration::from_millis(100),
            "{elapsed}"
        );
        assert_eq!(ev.instructions(), 0);
    }

    #[test]
    fn modeled_ops_rejected_on_real_buffers_and_vice_versa() {
        let (_p, ctx, q) = gpu_setup();
        let real = Buffer::new(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        let modeled = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        assert_eq!(
            q.enqueue_write_buffer_modeled(&real, 0, 8)
                .unwrap_err()
                .status(),
            Some(Status::InvalidOperation)
        );
        assert_eq!(
            q.enqueue_write_buffer(&modeled, 0, &[1u8; 8])
                .unwrap_err()
                .status(),
            Some(Status::InvalidOperation)
        );
        let mut out = [0u8; 8];
        assert_eq!(
            q.enqueue_read_buffer(&modeled, 0, &mut out)
                .unwrap_err()
                .status(),
            Some(Status::InvalidOperation)
        );
    }

    #[test]
    fn full_fidelity_launch_on_modeled_buffer_fails_remotely() {
        let (_p, ctx, q) = gpu_setup();
        let prog = Program::from_source(&ctx, "__kernel void w(__global int* a) { a[0] = 1; }");
        prog.build().unwrap();
        let k = Kernel::new(&prog, "w").unwrap();
        let buf = Buffer::new_modeled(&ctx, MemFlags::READ_WRITE, 8).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        // Fidelity stays Full: the node must reject executing against a
        // virtual buffer. The launch submits without blocking, so the
        // remote rejection surfaces on the event.
        let ev = q
            .enqueue_nd_range_kernel(&k, NdRange::linear(1, 1))
            .unwrap();
        let err = ev.wait().unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidOperation));
    }

    #[test]
    fn independent_launches_pipeline_until_finish() {
        // Launches on disjoint buffers have no dependencies: all four
        // submit before any response is consumed, and `finish` resolves
        // the lot.
        let (_p, ctx, q) = gpu_setup();
        let prog = Program::from_source(&ctx, "__kernel void one(__global int* a) { a[0] = 1; }");
        prog.build().unwrap();
        let mut events = Vec::new();
        for _ in 0..4 {
            let k = Kernel::new(&prog, "one").unwrap();
            let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            let ev = q
                .enqueue_nd_range_kernel(&k, NdRange::linear(1, 1))
                .unwrap();
            events.push((ev, buf));
        }
        q.finish();
        for (ev, buf) in events {
            assert!(ev.is_resolved());
            ev.wait().unwrap();
            let mut out = [0u8; 4];
            q.enqueue_read_buffer(&buf, 0, &mut out).unwrap();
            assert_eq!(i32::from_le_bytes(out), 1);
        }
    }

    #[test]
    fn waiting_on_every_event_without_finish_keeps_the_pending_list_bounded() {
        let (_p, ctx, q) = gpu_setup();
        let prog = Program::from_source(&ctx, "__kernel void one(__global int* a) { a[0] = 1; }");
        prog.build().unwrap();
        let k = Kernel::new(&prog, "one").unwrap();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 4).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let mut latest = SimTime::ZERO;
        for _ in 0..10_000 {
            let ev = q
                .enqueue_nd_range_kernel(&k, NdRange::linear(1, 1))
                .unwrap();
            ev.wait().unwrap();
            latest = latest.max(ev.finished_at());
            // Never more than one sweep threshold of resolved events,
            // plus the one still in flight.
            let listed = q.pending.lock().events.len();
            assert!(listed <= PendingLaunches::MIN_SWEEP, "{listed} listed");
        }
        // The swept events still count: `finish` lands on the newest end.
        assert!(latest > SimTime::ZERO);
        assert_eq!(q.finish(), latest);
        assert!(q.pending.lock().events.is_empty());
    }

    #[test]
    fn events_report_phase_times() {
        let (p, ctx, q) = gpu_setup();
        p.reset_phases();
        let buf = Buffer::new(&ctx, MemFlags::READ_WRITE, 1 << 20).unwrap();
        let data = vec![1u8; 1 << 20];
        q.enqueue_write_buffer(&buf, 0, &data).unwrap();
        let breakdown = p.phase_breakdown();
        // PCIe transfer of 1 MiB must have been charged to DataTransfer.
        assert!(breakdown.time(haocl_sim::Phase::DataTransfer) > haocl_sim::SimDuration::ZERO);
    }
}
