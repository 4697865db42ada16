//! The node itself: what an NMP does with a package, as a function.
//!
//! [`Node::handle`] takes a decoded request and its virtual arrival time
//! and returns a [`Step`]: the [`Response`] to send, or — for a peer
//! data-plane transfer — a [`PeerHop`], the inner request this node
//! sends to another NMP before it can answer. [`Node::resume`] takes the
//! peer's answer and returns the outer response. Both run on `&mut self`
//! and touch no lock, socket or wall clock, and start nothing that runs
//! on its own: the driver in the parent module owns all of that, so a
//! test can step two nodes by hand.
//!
//! Every request takes one path: one journal lookup at the top of
//! [`Node::handle`], and one place ([`Node::respond`]) that assembles
//! the node's spans, builds the [`Response`] and records it in the
//! journal.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use haocl_device::device::DeviceError;
use haocl_device::memory::MemoryError;
use haocl_device::wire::{cost_from_wire, range_from_wire};
use haocl_device::{presets, LaunchPart, SimDevice};
use haocl_kernel::{CompiledKernel, KernelRegistry};
use haocl_obs::SpanId;
use haocl_proto::ids::{BufferId, KernelId, ProgramId, RequestId, UserId};
use haocl_proto::messages::{
    status, ApiCall, ApiReply, DeviceKind, Request, Response, WireAccessPattern, WireArgEffect,
    WireKernelReport, WireLaunch, WireLaunchPart, WireLaunchParts, WireSpan,
};
use haocl_sim::SimTime;

use crate::config::NodeSpec;
use crate::nmp::NodeObjects;

/// How many completed state-mutating requests the at-most-once journal
/// remembers. The host retries a request only while it is pending, so
/// the journal needs to outlive the host's in-flight window — 1024 is
/// orders of magnitude deeper than the backbone ever pipelines.
pub(crate) const JOURNAL_CAP: usize = 1024;

/// A built program's kernels by name, each shared by every kernel object
/// created from it: compiled here from source (CPU/GPU path) or taken
/// from the bitstream store (FPGA path).
type ProgramKernels = HashMap<String, Arc<CompiledKernel>>;

/// A kernel handle: the device it was created for, the program it came
/// from (releasing that program releases the handle) and its code.
struct KernelEntry {
    device: u8,
    program: ProgramId,
    kernel: Arc<CompiledKernel>,
}

/// One NMP's state: its devices, programs, kernels and journal.
pub(crate) struct Node {
    devices: Vec<SimDevice>,
    programs: HashMap<(ProgramId, u8), ProgramKernels>,
    kernels: HashMap<KernelId, KernelEntry>,
    registry: KernelRegistry,
    /// Set by [`ApiCall::BeginDrain`]: the node refuses fresh kernel
    /// launches so live migration can converge, while buffer traffic
    /// and already-queued work keep completing.
    draining: bool,
    /// At-most-once journal: completed responses to state-mutating
    /// requests, keyed by correlation token. A retried or duplicated
    /// request whose id is here is answered from the journal instead of
    /// re-executing — a kernel never runs twice, a write never applies
    /// twice.
    journal: HashMap<RequestId, Response>,
    /// Journal insertion order, for FIFO eviction at [`JOURNAL_CAP`].
    journal_order: VecDeque<RequestId>,
}

/// What [`Node::handle`] comes to.
pub(crate) enum Step {
    /// The response to send.
    Reply(Response),
    /// A peer transfer's inner request, for the NMP at the hop's
    /// `peer_addr`, and the hop to [`Node::resume`] with its answer. The
    /// request travels beside the hop, not in it, so sending consumes
    /// it: a push's staged view of device memory then lives only in the
    /// frame.
    Hop(Request, PeerHop),
}

/// A peer transfer waiting on its peer.
pub(crate) struct PeerHop {
    /// The peer's data-listener address.
    pub(crate) peer_addr: String,
    /// The virtual time the inner request leaves: when the last staged
    /// byte is off the local device (push) or on arrival (pull).
    pub(crate) send_at: SimTime,
    /// Bytes the inner frame is charged as, for a modeled push.
    pub(crate) virtual_len: u64,
    /// Who the outer response answers, and how it is built.
    origin: Origin,
    /// For a pull, where the fetched bytes land.
    landing: Option<Landing>,
}

/// Who a reply answers, and how its [`Response`] is built.
#[derive(Clone, Copy)]
struct Origin {
    id: RequestId,
    parent_span: u64,
    arrival: SimTime,
    traced: bool,
    /// The call mutates node state, so its response is journaled.
    journaled: bool,
    /// A peer transfer: the dispatch span's child is the hop, not a VM run.
    peer: bool,
}

impl Origin {
    /// The node's side of a traced request's span tree: a dispatch span
    /// covering the NMP's handling, and under it the VM run a launch
    /// reply carries or a peer transfer's hop. Span ids are derived from
    /// the correlation token (host-side ids never set the high bit), so
    /// no cross-network id coordination is needed. The driver stamps
    /// their `wall_nanos`.
    fn spans(&self, body: &ApiReply, completed: SimTime) -> Vec<WireSpan> {
        let (start, end) = (self.arrival.as_nanos(), completed.as_nanos());
        let child = match body {
            _ if self.peer => Some(("fabric.peer_transfer", "DataTransfer", start, end)),
            ApiReply::LaunchDone {
                start_nanos,
                end_nanos,
                ..
            } => Some(("vm.run", "Compute", *start_nanos, *end_nanos)),
            _ => None,
        };
        let span =
            |seq, parent, (name, category, start_nanos, end_nanos): (&str, &str, _, _)| WireSpan {
                id: SpanId::derive(self.id.raw(), seq).0,
                parent,
                name: name.to_string(),
                category: category.to_string(),
                start_nanos,
                end_nanos,
                wall_nanos: 0,
            };
        // Enqueue is non-blocking: a launch reply leaves at receipt time
        // while the kernel occupies the device until its end. The
        // dispatch span stretches to cover the run so the tree nests.
        let end = child.map_or(end, |c| c.3.max(end));
        let mut spans = Vec::with_capacity(2);
        spans.push(span(
            0,
            self.parent_span,
            ("nmp.dispatch", "Dispatch", start, end),
        ));
        if let Some(child) = child {
            spans.push(span(1, spans[0].id, child));
        }
        spans
    }
}

/// The local end of a pull.
#[derive(Clone, Copy)]
struct Landing {
    device: u8,
    buffer: BufferId,
    offset: u64,
    modeled: bool,
}

impl Node {
    /// A node with `spec`'s devices, serving FPGA kernels from `registry`.
    pub(crate) fn new(spec: &NodeSpec, registry: KernelRegistry) -> Self {
        Node {
            devices: spec
                .devices
                .iter()
                .map(|k| SimDevice::new(presets::by_kind(*k)))
                .collect(),
            programs: HashMap::new(),
            kernels: HashMap::new(),
            registry,
            draining: false,
            journal: HashMap::new(),
            journal_order: VecDeque::new(),
        }
    }

    /// How many programs (one per device built for) and kernel handles
    /// the node holds.
    pub(crate) fn objects(&self) -> NodeObjects {
        NodeObjects {
            programs: self.programs.len(),
            kernels: self.kernels.len(),
        }
    }

    /// Executes `request`, which arrived at virtual time `arrival`.
    ///
    /// At-most-once: a retransmitted (or chaos-duplicated) mutating
    /// request is answered from the journal — the kernel does not run
    /// again, the write does not apply again, a peer transfer does not
    /// hop again. The cached response is re-sent verbatim, flagged so
    /// the host can count the dedup. Pure queries (pings, reads, profile
    /// queries) are safe to re-run and skip the journal.
    pub(crate) fn handle(&mut self, request: Request, arrival: SimTime) -> Step {
        let journaled = request.body.mutates_node_state();
        if journaled {
            if let Some(cached) = self.journal.get(&request.id) {
                let mut response = cached.clone();
                response.duplicate = true;
                return Step::Reply(response);
            }
        }
        let origin = Origin {
            id: request.id,
            parent_span: request.parent_span,
            arrival,
            traced: request.traced(),
            journaled,
            peer: request.body.is_peer_transfer(),
        };
        self.dispatch(request.body, request.user, origin)
    }

    /// Finishes a peer transfer with the peer's `answer` to its inner
    /// request — the reply and the virtual time it arrived, or the error
    /// the hop ended in — landing a pull's bytes on the local device.
    pub(crate) fn resume(
        &mut self,
        hop: PeerHop,
        answer: Result<(ApiReply, SimTime), ApiReply>,
    ) -> Response {
        let (body, completed) = match (answer, hop.landing) {
            (Err(reply), _) => (reply, hop.send_at),
            (Ok((ApiReply::Ack, at)), None) => (ApiReply::Ack, at),
            (Ok((ApiReply::Data { bytes }, at)), Some(to)) if !to.modeled => {
                self.on_device(to.device, at, |dev| {
                    let grant = dev.write_buffer(to.buffer, to.offset, bytes, at)?;
                    Ok((ApiReply::Ack, grant.end))
                })
            }
            (Ok((ApiReply::DataModeled { len }, at)), Some(to)) if to.modeled => {
                self.on_device(to.device, at, |dev| {
                    let grant = dev.transfer_modeled(to.buffer, to.offset, len, at)?;
                    Ok((ApiReply::Ack, grant.end))
                })
            }
            (Ok((_, at)), _) => (
                err_reply(
                    status::INVALID_OPERATION,
                    format!(
                        "peer {} answered the transfer with an unexpected reply",
                        hop.peer_addr
                    ),
                ),
                at,
            ),
        };
        self.respond(&hop.origin, body, completed)
    }

    /// Builds the response to `origin`, and journals it if the call
    /// mutates node state.
    fn respond(&mut self, origin: &Origin, body: ApiReply, completed: SimTime) -> Response {
        let spans = if origin.traced {
            origin.spans(&body, completed)
        } else {
            Vec::new()
        };
        let response = Response {
            id: origin.id,
            completed_at_nanos: completed.as_nanos(),
            body,
            duplicate: false,
            spans,
        };
        if origin.journaled && self.journal.insert(origin.id, response.clone()).is_none() {
            self.journal_order.push_back(origin.id);
            while self.journal_order.len() > JOURNAL_CAP {
                if let Some(evicted) = self.journal_order.pop_front() {
                    self.journal.remove(&evicted);
                }
            }
        }
        response
    }

    /// Executes one call: the reply, or the hop of a peer transfer, which
    /// leaves the node before it can be answered.
    fn dispatch(&mut self, call: ApiCall, user: UserId, origin: Origin) -> Step {
        let at = origin.arrival;
        let call = match call.into_launch() {
            Ok(wire) => {
                let body = self.launch(wire, at).unwrap_or_else(|e| e);
                return Step::Reply(self.respond(&origin, body, at));
            }
            Err(call) => call,
        };
        // A peer transfer leaves the node as an inner request, which reuses
        // the outer correlation token with the high bit set (host-side
        // allocators never produce such ids): a chaos-duplicated inner
        // frame hits the peer's own at-most-once journal instead of
        // applying the write twice.
        let hop = |peer_addr, epoch, send_at: SimTime, body, virtual_len, landing| {
            let inner = Request {
                id: RequestId::new(origin.id.raw() | (1 << 63)),
                user,
                sent_at_nanos: send_at.as_nanos(),
                trace_id: 0,
                parent_span: 0,
                epoch,
                attempt: 0,
                body,
            };
            let hop = PeerHop {
                peer_addr,
                send_at,
                virtual_len,
                origin,
                landing,
            };
            Step::Hop(inner, hop)
        };
        let (body, completed) = match call {
            ApiCall::Hello { client: _ } | ApiCall::ListDevices => {
                let devices = self
                    .devices
                    .iter()
                    .enumerate()
                    .map(|(i, d)| d.descriptor(i as u8))
                    .collect();
                (ApiReply::NodeInfo { devices }, at)
            }
            ApiCall::Ping => (
                ApiReply::Pong {
                    now_nanos: at.as_nanos(),
                },
                at,
            ),
            ApiCall::Shutdown => (ApiReply::Ack, at),
            ApiCall::CreateBufferModeled {
                device,
                buffer,
                size,
            } => self.on_device(device, at, |dev| {
                dev.alloc_buffer_modeled(buffer, size)?;
                Ok((ApiReply::Ack, at))
            }),
            ApiCall::WriteBufferModeled {
                device,
                buffer,
                offset,
                len,
            } => self.on_device(device, at, |dev| {
                let grant = dev.transfer_modeled(buffer, offset, len, at)?;
                Ok((ApiReply::Ack, grant.end))
            }),
            ApiCall::ReadBufferModeled {
                device,
                buffer,
                offset,
                len,
            } => self.on_device(device, at, |dev| {
                let grant = dev.transfer_modeled(buffer, offset, len, at)?;
                Ok((ApiReply::DataModeled { len }, grant.end))
            }),
            ApiCall::QueryProfile => {
                let mut entries = Vec::new();
                for (i, d) in self.devices.iter().enumerate() {
                    entries.extend(d.profile_entries(i as u8));
                }
                (ApiReply::Profile { entries }, at)
            }
            // Fault injection: degrade (or restore) a device's compute rate.
            // Idempotent control call — deliberately NOT journaled, and the
            // descriptor keeps advertising full speed, so only observed
            // timings betray the sickness.
            ApiCall::SetThrottle { device, factor } => self.on_device(device, at, |dev| {
                dev.set_throttle(factor);
                Ok((ApiReply::Ack, at))
            }),
            // Idempotent like SetThrottle: not journaled, safe to re-apply
            // on a retried delivery.
            ApiCall::BeginDrain => {
                self.draining = true;
                (ApiReply::Ack, at)
            }
            ApiCall::CreateBuffer {
                device,
                buffer,
                size,
            } => self.on_device(device, at, |dev| {
                dev.alloc_buffer(buffer, size)?;
                Ok((ApiReply::Ack, at))
            }),
            ApiCall::ReleaseBuffer { device, buffer } => self.on_device(device, at, |dev| {
                dev.free_buffer(buffer)?;
                Ok((ApiReply::Ack, at))
            }),
            ApiCall::WriteBuffer {
                device,
                buffer,
                offset,
                data,
            } => self.on_device(device, at, |dev| {
                let grant = dev.write_buffer(buffer, offset, data, at)?;
                Ok((ApiReply::Ack, grant.end))
            }),
            ApiCall::ReadBuffer {
                device,
                buffer,
                offset,
                len,
            } => self.on_device(device, at, |dev| {
                let (bytes, grant) = dev.read_buffer(buffer, offset, len, at)?;
                Ok((ApiReply::Data { bytes }, grant.end))
            }),
            ApiCall::CopyBuffer {
                device,
                src,
                dst,
                src_offset,
                dst_offset,
                len,
            } => self.on_device(device, at, |dev| {
                let grant = dev.copy_buffer(src, dst, src_offset, dst_offset, len, at)?;
                Ok((ApiReply::Ack, grant.end))
            }),
            ApiCall::PushBufferTo {
                device,
                buffer,
                peer_addr,
                peer_device,
                peer_buffer,
                offset,
                len,
                version: _,
                epoch,
                modeled,
            } => {
                // Stage the bytes off the local device; the peer's ack
                // carries the arrival time of the last byte.
                let staged = self.device_mut(device).and_then(|dev| {
                    let staged = if modeled {
                        dev.transfer_modeled(buffer, offset, len, at).map(|grant| {
                            let body = ApiCall::WriteBufferModeled {
                                device: peer_device,
                                buffer: peer_buffer,
                                offset,
                                len,
                            };
                            (body, len, grant.end)
                        })
                    } else {
                        dev.read_buffer(buffer, offset, len, at)
                            .map(|(data, grant)| {
                                let body = ApiCall::WriteBuffer {
                                    device: peer_device,
                                    buffer: peer_buffer,
                                    offset,
                                    data,
                                };
                                (body, 0, grant.end)
                            })
                    };
                    staged.map_err(device_error_reply)
                });
                match staged {
                    Ok((body, virtual_len, send_at)) => {
                        return hop(peer_addr, epoch, send_at, body, virtual_len, None)
                    }
                    Err(reply) => (reply, at),
                }
            }
            ApiCall::PullBufferFrom {
                device,
                buffer,
                peer_addr,
                peer_device,
                peer_buffer,
                offset,
                len,
                version: _,
                epoch,
                modeled,
            } => {
                let body = if modeled {
                    ApiCall::ReadBufferModeled {
                        device: peer_device,
                        buffer: peer_buffer,
                        offset,
                        len,
                    }
                } else {
                    ApiCall::ReadBuffer {
                        device: peer_device,
                        buffer: peer_buffer,
                        offset,
                        len,
                    }
                };
                let landing = Landing {
                    device,
                    buffer,
                    offset,
                    modeled,
                };
                return hop(peer_addr, epoch, at, body, 0, Some(landing));
            }
            ApiCall::BuildProgram {
                device,
                program,
                source,
            } => (
                self.build(device, program, &source).unwrap_or_else(|e| e),
                at,
            ),
            ApiCall::LoadBitstream {
                device,
                program,
                kernels,
            } => self
                .load_bitstream(device, program, kernels, at)
                .unwrap_or_else(|e| (e, at)),
            ApiCall::CreateKernel {
                device,
                kernel,
                program,
                name,
            } => {
                let reply = self.create_kernel(device, kernel, program, &name);
                (reply.unwrap_or_else(|e| e), at)
            }
            ApiCall::ReleaseProgram { device, program } => {
                (self.release_program(device, program), at)
            }
            // Routed to `launch` before this match; reaching here is a
            // logic error.
            ApiCall::LaunchKernel { .. } | ApiCall::LaunchFused { .. } => (
                err_reply(
                    status::INVALID_OPERATION,
                    "launches are handled outside this match",
                ),
                at,
            ),
        };
        Step::Reply(self.respond(&origin, body, completed))
    }

    /// Compiles `source` for a CPU or GPU device (`BuildProgram`). Like
    /// [`Node::launch`], both arms of the result are the reply to send.
    fn build(
        &mut self,
        device: u8,
        program: ProgramId,
        source: &str,
    ) -> Result<ApiReply, ApiReply> {
        let dev = self
            .devices
            .get(device as usize)
            .ok_or_else(|| err_reply(status::INVALID_DEVICE, "no such device"))?;
        if dev.model().kind == DeviceKind::Fpga {
            return Err(err_reply(
                status::INVALID_OPERATION,
                "FPGA devices load pre-built bitstreams (use LoadBitstream)",
            ));
        }
        // Compile in `WarnOnly`: the node is mechanism, the host is
        // policy. Analysis findings travel back as wire reports and
        // `Program::build` decides whether errors fail the build.
        let opts = haocl_clc::CompileOptions {
            analysis: haocl_clc::AnalysisMode::WarnOnly,
        };
        let compiled =
            haocl_clc::compile_with_options(source, &opts).map_err(|e| ApiReply::BuildLog {
                ok: false,
                log: e.build_log(),
                reports: Vec::new(),
            })?;
        let reports = wire_reports(&compiled);
        let log = compiled
            .kernels()
            .map(|k| k.report.diagnostics.render())
            .filter(|r| !r.is_empty())
            .collect::<Vec<_>>()
            .join("\n");
        let kernels = compiled
            .into_kernels()
            .map(|k| (k.name.clone(), Arc::new(k)))
            .collect();
        self.programs.insert((program, device), kernels);
        Ok(ApiReply::BuildLog {
            ok: true,
            log,
            reports,
        })
    }

    /// Loads pre-built kernels from the bitstream store (`LoadBitstream`);
    /// `Err` is the early-exit reply.
    fn load_bitstream(
        &mut self,
        device: u8,
        program: ProgramId,
        kernels: Vec<String>,
        at: SimTime,
    ) -> Result<(ApiReply, SimTime), ApiReply> {
        let dev = self
            .devices
            .get_mut(device as usize)
            .ok_or_else(|| err_reply(status::INVALID_DEVICE, "no such device"))?;
        // Resolved here, once: a loaded bitstream keeps the kernels the
        // store held when it was loaded.
        let n = kernels.len();
        let mut loaded = ProgramKernels::new();
        let mut missing = Vec::new();
        for name in kernels {
            match self.registry.get(&name) {
                Some(k) => {
                    loaded.insert(name, k);
                }
                None => missing.push(name),
            }
        }
        if !missing.is_empty() {
            return Err(ApiReply::BuildLog {
                ok: false,
                log: format!("bitstream store is missing kernels: {}", missing.join(", ")),
                reports: Vec::new(),
            });
        }
        self.programs.insert((program, device), loaded);
        let grant = dev.note_program_loaded(program, at);
        let log = format!("loaded {n} pre-built kernel(s)");
        let reports = Vec::new();
        Ok((
            ApiReply::BuildLog {
                ok: true,
                log,
                reports,
            },
            grant.end,
        ))
    }

    /// Creates a kernel object from a built program (`CreateKernel`);
    /// both arms of the result are the reply to send.
    fn create_kernel(
        &mut self,
        device: u8,
        kernel: KernelId,
        program: ProgramId,
        name: &str,
    ) -> Result<ApiReply, ApiReply> {
        let entry = self.programs.get(&(program, device)).ok_or_else(|| {
            err_reply(
                status::INVALID_PROGRAM,
                "program is unknown or not built for this device",
            )
        })?;
        let resolved = entry.get(name).map(Arc::clone).ok_or_else(|| {
            err_reply(
                status::INVALID_KERNEL_NAME,
                format!("no kernel `{name}` in program"),
            )
        })?;
        let arity = resolved.arity() as u32;
        let entry = KernelEntry {
            device,
            program,
            kernel: resolved,
        };
        self.kernels.insert(kernel, entry);
        Ok(ApiReply::KernelInfo { arity })
    }

    /// Forgets `program` as built for `device`, and every kernel handle
    /// created from it there (`ReleaseProgram`).
    fn release_program(&mut self, device: u8, program: ProgramId) -> ApiReply {
        if self.programs.remove(&(program, device)).is_none() {
            return err_reply(
                status::INVALID_PROGRAM,
                "program is unknown or not built for this device",
            );
        }
        self.kernels
            .retain(|_, k| k.program != program || k.device != device);
        ApiReply::Ack
    }

    /// Runs one kernel dispatch — a lone `LaunchKernel` or a `LaunchFused`
    /// chain, which differ only in how many parts they carry. Both arms of
    /// the result are the reply to send; `Err` is the early-exit one.
    fn launch(&mut self, launch: WireLaunch, at: SimTime) -> Result<ApiReply, ApiReply> {
        if self.draining {
            return Err(err_reply(status::DEVICE_NOT_AVAILABLE, "node is draining"));
        }
        if matches!(&launch.parts, WireLaunchParts::Fused(parts) if parts.len() < 2) {
            return Err(err_reply(
                status::INVALID_VALUE,
                "fused launch needs >= 2 parts",
            ));
        }
        // Resolve every constituent before running any: a dispatch is one
        // command, so it fails whole on bad handles.
        let resolve = |part| resolve_part(&self.kernels, launch.device, part);
        // A lone launch — the small-launch hot path — views its part from
        // the stack; only a chain pays for a list.
        let (lone, chain);
        let parts: &[LaunchPart<'_>] = match &*launch.parts {
            [part] => {
                lone = [resolve(part)?];
                &lone
            }
            parts => {
                chain = parts.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
                &chain
            }
        };
        let dev = self
            .devices
            .get_mut(launch.device as usize)
            .ok_or_else(|| err_reply(status::INVALID_DEVICE, "no such device"))?;
        // Enqueue is non-blocking (OpenCL semantics): the reply leaves at
        // receipt time while the dispatch occupies the device timeline until
        // `end_nanos`. Later operations on this device queue behind it; the
        // host only waits at `clFinish`/reads.
        let outcome = dev
            .launch(parts, launch.fidelity, at)
            .map_err(device_error_reply)?;
        Ok(ApiReply::LaunchDone {
            start_nanos: outcome.grant.start.as_nanos(),
            end_nanos: outcome.grant.end.as_nanos(),
            instructions: outcome.instructions,
        })
    }

    /// Runs `op` on `device`; an unknown device or a device error is the
    /// reply, at `at`.
    fn on_device(
        &mut self,
        device: u8,
        at: SimTime,
        op: impl FnOnce(&mut SimDevice) -> Result<(ApiReply, SimTime), DeviceError>,
    ) -> (ApiReply, SimTime) {
        match self.device_mut(device) {
            Ok(dev) => op(dev).unwrap_or_else(|e| (device_error_reply(e), at)),
            Err(reply) => (reply, at),
        }
    }

    fn device_mut(&mut self, device: u8) -> Result<&mut SimDevice, ApiReply> {
        self.devices
            .get_mut(device as usize)
            .ok_or_else(|| err_reply(status::INVALID_DEVICE, format!("no device {device}")))
    }
}

pub(super) fn err_reply(code: i32, message: impl Into<String>) -> ApiReply {
    ApiReply::Error {
        code,
        message: message.into(),
    }
}

/// Looks up the kernel a launch part names and views the part as the
/// device runs it.
fn resolve_part<'a>(
    kernels: &'a HashMap<KernelId, KernelEntry>,
    device: u8,
    part: &'a WireLaunchPart,
) -> Result<LaunchPart<'a>, ApiReply> {
    let Some(entry) = kernels.get(&part.kernel) else {
        return Err(err_reply(status::INVALID_KERNEL, "unknown kernel"));
    };
    if entry.device != device {
        return Err(err_reply(
            status::INVALID_DEVICE,
            "kernel was created for a different device",
        ));
    }
    Ok(LaunchPart {
        kernel: &entry.kernel,
        args: &part.args,
        range: range_from_wire(&part.range),
        cost: cost_from_wire(&part.cost),
    })
}

/// Flattens each kernel's static-analysis report into its wire form.
fn wire_reports(compiled: &haocl_clc::CompiledProgram) -> Vec<WireKernelReport> {
    compiled
        .kernels()
        .map(|k| WireKernelReport {
            kernel: k.name.clone(),
            errors: k.report.diagnostics.error_count() as u32,
            warnings: k.report.diagnostics.warning_count() as u32,
            local_bytes: k.report.features.local_bytes,
            barrier_count: k.report.features.barrier_count,
            arithmetic_intensity: k.report.features.arithmetic_intensity,
            divergence_score: k.report.features.divergence_score,
            effects: wire_effects(&k.report.effects),
        })
        .collect()
}

/// Flattens a compiler effect summary into its wire form.
fn wire_effects(summary: &haocl_clc::EffectSummary) -> Vec<WireArgEffect> {
    use haocl_clc::{AccessMode, PatternBase};
    summary
        .args
        .iter()
        .map(|a| WireArgEffect {
            mode: match a.mode {
                AccessMode::None => 0,
                AccessMode::Read => 1,
                AccessMode::Write => 2,
                AccessMode::ReadWrite => 3,
            },
            elem_bytes: a.elem_bytes,
            bounded: a.elem_bounds.is_some(),
            lo: a.elem_bounds.map_or(0, |b| b.0),
            hi: a.elem_bounds.map_or(0, |b| b.1),
            complete: a.complete,
            patterns: a
                .patterns
                .iter()
                .map(|p| {
                    let (base_kind, base_id, base_add) = match p.base {
                        PatternBase::Const(k) => (0, 0, k),
                        PatternBase::Geom { id, add } => (1, id, add),
                        PatternBase::Opaque => (2, 0, 0),
                    };
                    WireAccessPattern {
                        write: p.write,
                        provable: p.provable,
                        coeffs: p.coeffs,
                        base_kind,
                        base_id,
                        base_add,
                    }
                })
                .collect(),
        })
        .collect()
}

fn device_error_reply(e: DeviceError) -> ApiReply {
    let code = match &e {
        DeviceError::Memory(MemoryError::OutOfMemory { .. }) => {
            status::MEM_OBJECT_ALLOCATION_FAILURE
        }
        DeviceError::Memory(MemoryError::UnknownBuffer(_)) => status::INVALID_MEM_OBJECT,
        DeviceError::Memory(MemoryError::DuplicateBuffer(_)) => status::INVALID_VALUE,
        DeviceError::Memory(MemoryError::OutOfBounds { .. }) => status::INVALID_VALUE,
        DeviceError::Memory(MemoryError::VirtualBuffer(_)) => status::INVALID_OPERATION,
        DeviceError::Exec(_) => status::INVALID_KERNEL_ARGS,
        DeviceError::NotSupported(_) => status::INVALID_OPERATION,
    };
    err_reply(code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use bytes::Bytes;

    fn request(id: u64, body: ApiCall) -> Request {
        Request {
            id: RequestId::new(id),
            user: UserId::new(1),
            sent_at_nanos: 0,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body,
        }
    }

    /// The response to a request that must not leave the node.
    fn reply(node: &mut Node, request: Request) -> Response {
        match node.handle(request, SimTime::ZERO) {
            Step::Reply(response) => response,
            Step::Hop(inner, _) => panic!("unexpected hop with {:?}", inner.body),
        }
    }

    /// The hop a peer transfer steps to.
    fn hop(step: Step) -> (Request, PeerHop) {
        match step {
            Step::Hop(inner, hop) => (inner, hop),
            Step::Reply(response) => panic!("answered without a hop: {:?}", response.body),
        }
    }

    /// What the driver makes of `peer`'s reply to an inner request, with
    /// no fabric between them: the reply lands when the peer completes.
    fn deliver(peer: &mut Node, inner: Request) -> Result<(ApiReply, SimTime), ApiReply> {
        let arrival = SimTime::from_nanos(inner.sent_at_nanos);
        let response = match peer.handle(inner, arrival) {
            Step::Reply(response) => response,
            Step::Hop(..) => panic!("an inner request hopped again"),
        };
        match response.body {
            ApiReply::Error { code, message } => Err(err_reply(code, message)),
            body => Ok((body, SimTime::from_nanos(response.completed_at_nanos))),
        }
    }

    fn create(buffer: u64) -> ApiCall {
        ApiCall::CreateBuffer {
            device: 0,
            buffer: BufferId::new(buffer),
            size: 4,
        }
    }

    fn write(buffer: u64, bytes: [u8; 4]) -> ApiCall {
        ApiCall::WriteBuffer {
            device: 0,
            buffer: BufferId::new(buffer),
            offset: 0,
            data: Bytes::copy_from_slice(&bytes),
        }
    }

    fn read(node: &mut Node, buffer: u64) -> Bytes {
        let read = ApiCall::ReadBuffer {
            device: 0,
            buffer: BufferId::new(buffer),
            offset: 0,
            len: 4,
        };
        match reply(node, request(1, read)).body {
            ApiReply::Data { bytes } => bytes,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn push(to: u64, peer_addr: String) -> ApiCall {
        ApiCall::PushBufferTo {
            device: 0,
            buffer: BufferId::new(1),
            peer_addr,
            peer_device: 0,
            peer_buffer: BufferId::new(to),
            offset: 0,
            len: 4,
            version: 1,
            epoch: 0,
            modeled: false,
        }
    }

    /// Two GPU nodes, A and B, with buffer 1 on each; A's holds 11 22 33 44.
    fn two_nodes() -> (ClusterConfig, Node, Node) {
        let config = ClusterConfig::gpu_cluster(2);
        let [mut a, mut b] = [0, 1].map(|n| Node::new(&config.nodes[n], KernelRegistry::new()));
        for node in [&mut a, &mut b] {
            assert_eq!(reply(node, request(10, create(1))).body, ApiReply::Ack);
        }
        assert_eq!(
            reply(&mut a, request(11, write(1, [11, 22, 33, 44]))).body,
            ApiReply::Ack
        );
        (config, a, b)
    }

    #[test]
    fn a_push_lands_on_the_peer_once() {
        let (config, mut a, mut b) = two_nodes();
        let outer = request(40, push(1, config.nodes[1].data_addr()));
        let (inner, hop) = hop(a.handle(outer.clone(), SimTime::ZERO));
        let inner_id = RequestId::new(40 | 1 << 63);
        assert_eq!(inner.id, inner_id);
        assert_eq!(hop.peer_addr, config.nodes[1].data_addr());
        let resent = inner.clone();
        let answer = deliver(&mut b, inner);
        let first = a.resume(hop, answer);
        assert_eq!(first.body, ApiReply::Ack);
        assert!(!first.duplicate);
        assert_eq!(read(&mut b, 1).as_ref(), &[11, 22, 33, 44]);
        assert!(b.journal.contains_key(&inner_id));
        // B's buffer moves on; the inner request delivered again is
        // answered from B's journal and writes nothing.
        assert_eq!(
            reply(&mut b, request(41, write(1, [0; 4]))).body,
            ApiReply::Ack
        );
        let again = reply(&mut b, resent);
        assert!(again.duplicate);
        assert_eq!(again.body, ApiReply::Ack);
        assert_eq!(read(&mut b, 1).as_ref(), &[0; 4]);
        // The outer push delivered again is answered from A's journal,
        // with no second hop.
        let again = reply(&mut a, outer);
        assert!(again.duplicate);
        assert_eq!(again.body, ApiReply::Ack);
        assert_eq!(again.completed_at_nanos, first.completed_at_nanos);
    }

    #[test]
    fn a_pull_lands_the_peers_bytes() {
        let (config, mut a, mut b) = two_nodes();
        let pull = ApiCall::PullBufferFrom {
            device: 0,
            buffer: BufferId::new(1),
            peer_addr: config.nodes[0].data_addr(),
            peer_device: 0,
            peer_buffer: BufferId::new(1),
            offset: 0,
            len: 4,
            version: 1,
            epoch: 0,
            modeled: false,
        };
        let (inner, hop) = hop(b.handle(request(50, pull), SimTime::ZERO));
        assert!(matches!(inner.body, ApiCall::ReadBuffer { .. }));
        let answer = deliver(&mut a, inner);
        assert_eq!(b.resume(hop, answer).body, ApiReply::Ack);
        assert_eq!(read(&mut b, 1).as_ref(), &[11, 22, 33, 44]);
    }

    #[test]
    fn a_peer_error_is_the_reply_and_the_node_keeps_serving() {
        let (config, mut a, mut b) = two_nodes();
        // B has no buffer 2.
        let (inner, hop) = hop(a.handle(
            request(60, push(2, config.nodes[1].data_addr())),
            SimTime::ZERO,
        ));
        let answer = deliver(&mut b, inner);
        assert!(answer.is_err());
        let response = a.resume(hop, answer);
        assert!(
            matches!(response.body, ApiReply::Error { code, .. } if code == status::INVALID_MEM_OBJECT),
            "unexpected reply {:?}",
            response.body
        );
        assert!(matches!(
            reply(&mut a, request(61, ApiCall::Ping)).body,
            ApiReply::Pong { .. }
        ));
    }

    #[test]
    fn a_self_push_steps_to_completion() {
        let (config, mut a, _) = two_nodes();
        assert_eq!(reply(&mut a, request(70, create(2))).body, ApiReply::Ack);
        // A is its own peer: the inner request goes back into A.
        let (inner, hop) = hop(a.handle(
            request(71, push(2, config.nodes[0].data_addr())),
            SimTime::ZERO,
        ));
        let answer = deliver(&mut a, inner);
        assert_eq!(a.resume(hop, answer).body, ApiReply::Ack);
        assert_eq!(read(&mut a, 2).as_ref(), &[11, 22, 33, 44]);
    }

    #[test]
    fn traced_transfers_ship_a_dispatch_and_a_hop_span() {
        let (config, mut a, mut b) = two_nodes();
        let mut outer = request(80, push(1, config.nodes[1].data_addr()));
        outer.trace_id = 1;
        outer.parent_span = 7;
        let (inner, hop) = hop(a.handle(outer, SimTime::ZERO));
        assert!(!inner.traced(), "the inner request ships no spans");
        let answer = deliver(&mut b, inner);
        let spans = a.resume(hop, answer).spans;
        let names: Vec<_> = spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            names,
            [("nmp.dispatch", 7), ("fabric.peer_transfer", spans[0].id)]
        );
        assert!(
            spans.iter().all(|s| s.wall_nanos == 0),
            "the driver's to stamp"
        );
    }

    /// A GPU node with program 1 built on device 0 and kernels 5 and 6
    /// created from it.
    fn node_with_program() -> Node {
        let config = ClusterConfig::gpu_cluster(1);
        let mut node = Node::new(&config.nodes[0], KernelRegistry::new());
        let build = ApiCall::BuildProgram {
            device: 0,
            program: ProgramId::new(1),
            source: "__kernel void one(__global int* a) { a[get_global_id(0)] = 1; }".into(),
        };
        let built = reply(&mut node, request(1, build)).body;
        assert!(
            matches!(built, ApiReply::BuildLog { ok: true, .. }),
            "{built:?}"
        );
        for kernel in [5, 6] {
            let create = ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(kernel),
                program: ProgramId::new(1),
                name: "one".into(),
            };
            let created = reply(&mut node, request(1 + kernel, create)).body;
            assert_eq!(created, ApiReply::KernelInfo { arity: 1 });
        }
        assert_eq!(reply(&mut node, request(10, create(1))).body, ApiReply::Ack);
        node
    }

    fn release(program: u64) -> ApiCall {
        ApiCall::ReleaseProgram {
            device: 0,
            program: ProgramId::new(program),
        }
    }

    fn launch(kernel: u64) -> ApiCall {
        ApiCall::LaunchKernel {
            device: 0,
            kernel: KernelId::new(kernel),
            args: vec![haocl_proto::messages::WireArg::Buffer(BufferId::new(1))],
            range: haocl_proto::messages::WireNdRange {
                work_dim: 1,
                global: [1, 1, 1],
                local: [1, 1, 1],
            },
            cost: haocl_proto::messages::WireCost {
                flops: 1.0,
                bytes_read: 0.0,
                bytes_written: 4.0,
                uniform: true,
                streaming: false,
            },
            fidelity: haocl_proto::messages::Fidelity::Full,
            shared: false,
        }
    }

    fn error_code(body: &ApiReply) -> Option<i32> {
        match body {
            ApiReply::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    #[test]
    fn a_release_drops_the_program_and_its_kernels() {
        let mut node = node_with_program();
        assert!(matches!(
            reply(&mut node, request(20, launch(5))).body,
            ApiReply::LaunchDone { .. }
        ));
        assert_eq!((node.programs.len(), node.kernels.len()), (1, 2));
        assert_eq!(
            reply(&mut node, request(21, release(1))).body,
            ApiReply::Ack
        );
        assert_eq!((node.programs.len(), node.kernels.len()), (0, 0));
        let launched = reply(&mut node, request(22, launch(5))).body;
        assert_eq!(error_code(&launched), Some(status::INVALID_KERNEL));
    }

    #[test]
    fn a_second_release_is_an_invalid_program() {
        let mut node = node_with_program();
        assert_eq!(
            reply(&mut node, request(20, release(1))).body,
            ApiReply::Ack
        );
        let again = reply(&mut node, request(21, release(1)));
        assert!(!again.duplicate);
        assert_eq!(error_code(&again.body), Some(status::INVALID_PROGRAM));
        // Nor does a program the node never built release.
        let unknown = reply(&mut node, request(22, release(9))).body;
        assert_eq!(error_code(&unknown), Some(status::INVALID_PROGRAM));
    }

    #[test]
    fn a_retransmitted_release_is_answered_from_the_journal() {
        let mut node = node_with_program();
        let first = reply(&mut node, request(20, release(1)));
        assert_eq!(first.body, ApiReply::Ack);
        // The same request id again: the journal's Ack, not an
        // INVALID_PROGRAM from running the release a second time.
        let again = reply(&mut node, request(20, release(1)));
        assert!(again.duplicate);
        assert_eq!(again.body, ApiReply::Ack);
    }

    #[test]
    fn journal_evicts_oldest_entries_beyond_cap() {
        let config = ClusterConfig::gpu_cluster(1);
        let mut node = Node::new(&config.nodes[0], KernelRegistry::new());
        // Every one fails (there is no device 7), and is journaled all the same.
        let missing = |id| {
            request(
                id,
                ApiCall::CreateBuffer {
                    device: 7,
                    buffer: BufferId::new(1),
                    size: 4,
                },
            )
        };
        let newest = JOURNAL_CAP as u64 + 10;
        for id in 1..=newest {
            assert!(!reply(&mut node, missing(id)).duplicate);
        }
        assert_eq!(node.journal.len(), JOURNAL_CAP);
        assert_eq!(node.journal_order.len(), JOURNAL_CAP);
        assert!(
            !node.journal.contains_key(&RequestId::new(1)),
            "oldest evicted"
        );
        assert!(reply(&mut node, missing(newest)).duplicate);
        assert!(
            !reply(&mut node, missing(1)).duplicate,
            "evicted ids run again"
        );
    }
}
