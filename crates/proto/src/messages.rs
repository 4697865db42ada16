//! The message packages exchanged between host and Node Management
//! Processes.
//!
//! Every OpenCL API call that the wrapper library forwards becomes one
//! [`ApiCall`] variant; the NMP answers with an [`ApiReply`]. Buffer
//! contents travel inline as [`bytes::Bytes`] blobs — the "data packages"
//! of the paper. Timestamps on [`Request`]/[`Response`] carry the virtual
//! clock across the simulated network.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ids::{BufferId, KernelId, ProgramId, RequestId, UserId};
use crate::wire::{Decode, Encode, WireError};

/// OpenCL-style status codes carried in [`ApiReply::Error`].
pub mod status {
    /// Success (CL_SUCCESS).
    pub const SUCCESS: i32 = 0;
    /// CL_DEVICE_NOT_FOUND.
    pub const DEVICE_NOT_FOUND: i32 = -1;
    /// CL_DEVICE_NOT_AVAILABLE.
    pub const DEVICE_NOT_AVAILABLE: i32 = -2;
    /// CL_OUT_OF_RESOURCES.
    pub const OUT_OF_RESOURCES: i32 = -5;
    /// CL_OUT_OF_HOST_MEMORY.
    pub const OUT_OF_HOST_MEMORY: i32 = -6;
    /// CL_MEM_OBJECT_ALLOCATION_FAILURE.
    pub const MEM_OBJECT_ALLOCATION_FAILURE: i32 = -4;
    /// CL_BUILD_PROGRAM_FAILURE.
    pub const BUILD_PROGRAM_FAILURE: i32 = -11;
    /// CL_INVALID_VALUE.
    pub const INVALID_VALUE: i32 = -30;
    /// CL_INVALID_DEVICE.
    pub const INVALID_DEVICE: i32 = -33;
    /// CL_INVALID_MEM_OBJECT.
    pub const INVALID_MEM_OBJECT: i32 = -38;
    /// CL_INVALID_PROGRAM.
    pub const INVALID_PROGRAM: i32 = -44;
    /// CL_INVALID_KERNEL_NAME.
    pub const INVALID_KERNEL_NAME: i32 = -46;
    /// CL_INVALID_KERNEL.
    pub const INVALID_KERNEL: i32 = -48;
    /// CL_INVALID_KERNEL_ARGS.
    pub const INVALID_KERNEL_ARGS: i32 = -52;
    /// CL_INVALID_WORK_GROUP_SIZE.
    pub const INVALID_WORK_GROUP_SIZE: i32 = -54;
    /// CL_INVALID_OPERATION.
    pub const INVALID_OPERATION: i32 = -59;
    /// CL_INVALID_BUFFER_SIZE.
    pub const INVALID_BUFFER_SIZE: i32 = -61;
}

/// The class of a compute device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// A multi-core CPU (Intel Xeon E5-2686 in the paper's cluster).
    Cpu,
    /// A discrete GPU (NVIDIA Tesla P4).
    Gpu,
    /// An FPGA used as a streaming processor (Xilinx VU9P).
    Fpga,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceKind::Cpu => "CPU",
            DeviceKind::Gpu => "GPU",
            DeviceKind::Fpga => "FPGA",
        })
    }
}

/// Summary of one device a node advertises in its hello reply (the
/// `clGetDeviceIDs` mapping data of §III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDescriptor {
    /// Device index within its node.
    pub index: u8,
    /// Device class.
    pub kind: DeviceKind,
    /// Human-readable model name.
    pub name: String,
    /// Global memory capacity in bytes.
    pub mem_bytes: u64,
    /// Peak single-precision throughput, GFLOP/s.
    pub gflops: f64,
    /// Global memory bandwidth, GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Board power draw under load, watts.
    pub power_watts: f64,
}

/// Execution fidelity for a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Execute the kernel for real (results land in buffers).
    #[default]
    Full,
    /// Evaluate only the cost model (paper-scale benchmarking; buffers are
    /// left untouched).
    Modeled,
}

/// A kernel argument on the wire (`clSetKernelArg` payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireArg {
    /// `float` scalar.
    F32(f32),
    /// `double` scalar.
    F64(f64),
    /// `int` scalar.
    I32(i32),
    /// `uint` scalar.
    U32(u32),
    /// `long` scalar.
    I64(i64),
    /// `ulong` scalar.
    U64(u64),
    /// A `__global` buffer handle.
    Buffer(BufferId),
    /// A dynamically-sized `__local` allocation.
    LocalBytes(u64),
}

/// NDRange geometry on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireNdRange {
    /// Number of dimensions (1–3).
    pub work_dim: u32,
    /// Global sizes (unused dimensions are 1).
    pub global: [u64; 3],
    /// Local sizes (unused dimensions are 1).
    pub local: [u64; 3],
}

/// Launch cost model on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCost {
    /// Total floating-point operations.
    pub flops: f64,
    /// Total bytes read from global memory.
    pub bytes_read: f64,
    /// Total bytes written to global memory.
    pub bytes_written: f64,
    /// Regular control flow / memory access.
    pub uniform: bool,
    /// Sequential streaming pass.
    pub streaming: bool,
}

/// One forwarded OpenCL API call (the "message package").
#[derive(Debug, Clone, PartialEq)]
pub enum ApiCall {
    /// Session handshake; the node answers with its device inventory.
    Hello {
        /// Human-readable client name (for the node's logs).
        client: String,
    },
    /// Re-query the device inventory (`clGetDeviceIDs`).
    ListDevices,
    /// `clCreateBuffer` on a device.
    CreateBuffer {
        /// Target device index on the node.
        device: u8,
        /// Host-assigned cluster-unique buffer handle.
        buffer: BufferId,
        /// Size in bytes.
        size: u64,
    },
    /// `clReleaseMemObject`.
    ReleaseBuffer {
        /// Target device index on the node.
        device: u8,
        /// Buffer to release.
        buffer: BufferId,
    },
    /// `clEnqueueWriteBuffer` (carries the data package inline).
    WriteBuffer {
        /// Target device index on the node.
        device: u8,
        /// Destination buffer.
        buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// The bytes to write.
        data: Bytes,
    },
    /// `clEnqueueReadBuffer`.
    ReadBuffer {
        /// Target device index on the node.
        device: u8,
        /// Source buffer.
        buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// `clEnqueueCopyBuffer` between two buffers on the same device.
    CopyBuffer {
        /// Target device index on the node.
        device: u8,
        /// Source buffer.
        src: BufferId,
        /// Destination buffer.
        dst: BufferId,
        /// Source byte offset.
        src_offset: u64,
        /// Destination byte offset.
        dst_offset: u64,
        /// Bytes to copy.
        len: u64,
    },
    /// `clBuildProgram` from source (CPU/GPU path).
    BuildProgram {
        /// Target device index on the node.
        device: u8,
        /// Host-assigned program handle.
        program: ProgramId,
        /// OpenCL C source text.
        source: String,
    },
    /// Load pre-built kernels from the node's bitstream store (FPGA path,
    /// §III-D).
    LoadBitstream {
        /// Target device index on the node.
        device: u8,
        /// Host-assigned program handle.
        program: ProgramId,
        /// Kernel names expected in the store.
        kernels: Vec<String>,
    },
    /// `clCreateKernel`.
    CreateKernel {
        /// Target device index on the node.
        device: u8,
        /// Host-assigned kernel handle.
        kernel: KernelId,
        /// Program the kernel comes from.
        program: ProgramId,
        /// Kernel function name.
        name: String,
    },
    /// `clEnqueueNDRangeKernel` with all arguments bound.
    LaunchKernel {
        /// Target device index on the node.
        device: u8,
        /// Kernel to launch.
        kernel: KernelId,
        /// Bound arguments, in parameter order.
        args: Vec<WireArg>,
        /// Launch geometry.
        range: WireNdRange,
        /// Device-independent cost (for virtual timing).
        cost: WireCost,
        /// Execute fully or model-only.
        fidelity: Fidelity,
        /// Whether the device may be time-shared with other users.
        shared: bool,
    },
    /// Modeled `clCreateBuffer`: the node accounts for capacity but does
    /// not back the buffer with real memory (paper-scale benchmarking;
    /// only legal with modeled launches and transfers).
    CreateBufferModeled {
        /// Target device index on the node.
        device: u8,
        /// Host-assigned cluster-unique buffer handle.
        buffer: BufferId,
        /// Size in bytes.
        size: u64,
    },
    /// Modeled `clEnqueueWriteBuffer`: charges the PCIe transfer for
    /// `len` bytes without carrying data.
    WriteBufferModeled {
        /// Target device index on the node.
        device: u8,
        /// Destination buffer.
        buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes the modeled transfer stands in for.
        len: u64,
    },
    /// Modeled `clEnqueueReadBuffer`: charges the transfer; the reply is
    /// a [`ApiReply::DataModeled`] descriptor instead of bytes.
    ReadBufferModeled {
        /// Target device index on the node.
        device: u8,
        /// Source buffer.
        buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes the modeled transfer stands in for.
        len: u64,
    },
    /// Ship a buffer's contents directly to a peer NMP's data listener
    /// (one hop, no host relay). The host still *sends* this command —
    /// it keeps packaging and delivering every message (§III-A) — but
    /// the bulk bytes travel node-to-node.
    PushBufferTo {
        /// Source device index on the receiving (owning) node.
        device: u8,
        /// Buffer to ship, under the *source* node's wire id.
        buffer: BufferId,
        /// Data-plane address of the destination node.
        peer_addr: String,
        /// Destination device index on the peer node.
        peer_device: u8,
        /// The same buffer under the *destination* node's wire id. Wire
        /// ids are per logical node, so failed-over nodes co-located on
        /// one physical NMP keep disjoint buffer slots.
        peer_buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes to ship.
        len: u64,
        /// Residency version being propagated (observability/consistency
        /// annotation; the receiving replica becomes current at it).
        version: u64,
        /// Destination node's routing epoch as observed by the host.
        epoch: u32,
        /// Whether the buffer is modeled (timing-only transfer).
        modeled: bool,
    },
    /// Fetch a buffer's contents directly from a peer NMP's data
    /// listener into a local device (the inverse of `PushBufferTo`;
    /// journal replay uses it to reconstruct peer-delivered bytes).
    PullBufferFrom {
        /// Destination device index on the receiving node.
        device: u8,
        /// Buffer to fetch, under the *destination* node's wire id.
        buffer: BufferId,
        /// Data-plane address of the source node.
        peer_addr: String,
        /// Source device index on the peer node.
        peer_device: u8,
        /// The same buffer under the *source* node's wire id.
        peer_buffer: BufferId,
        /// Byte offset within the buffer.
        offset: u64,
        /// Bytes to fetch.
        len: u64,
        /// Residency version being propagated.
        version: u64,
        /// Source node's routing epoch as observed by the host.
        epoch: u32,
        /// Whether the buffer is modeled (timing-only transfer).
        modeled: bool,
    },
    /// A prover-approved chain of launches executed back-to-back under
    /// one dispatch: one wire command, one completion, one device grant.
    /// The host only emits this for chains the fusion-legality prover
    /// accepted, so constituent order within the dispatch is the only
    /// ordering the parts need.
    LaunchFused {
        /// Target device index on the node.
        device: u8,
        /// Execute fully or model-only.
        fidelity: Fidelity,
        /// Whether the device may be time-shared with other users.
        shared: bool,
        /// Constituent launches, in program order (at least two).
        parts: Vec<WireLaunchPart>,
    },
    /// Pull the node's runtime profile (scheduler feedback, §III-B).
    QueryProfile,
    /// Inject (or lift, with `factor == 1.0`) a degradation multiplier
    /// on one of the node's devices — the fault-injection lever behind
    /// drift-detection tests and degraded-device soaks. Idempotent
    /// control call: not journaled, safe to re-execute on retry.
    SetThrottle {
        /// Target device index on the node.
        device: u8,
        /// Slowdown multiplier, clamped to ≥ 1.0 device-side.
        factor: f64,
    },
    /// Tell the node it is draining out of the cluster: refuse fresh
    /// kernel launches (buffer traffic and in-flight work continue, so
    /// live migration can proceed). Idempotent control call: not
    /// journaled, safe to re-execute on retry.
    BeginDrain,
    /// Liveness check.
    Ping,
    /// Orderly shutdown of the NMP.
    Shutdown,
}

/// A reply to an [`ApiCall`].
#[derive(Debug, Clone, PartialEq)]
pub enum ApiReply {
    /// Operation completed.
    Ack,
    /// Operation failed.
    Error {
        /// An OpenCL status code (see [`status`]).
        code: i32,
        /// Human-readable details.
        message: String,
    },
    /// Device inventory (reply to `Hello`/`ListDevices`).
    NodeInfo {
        /// The node's devices.
        devices: Vec<DeviceDescriptor>,
    },
    /// Buffer contents (reply to `ReadBuffer`).
    Data {
        /// The bytes read.
        bytes: Bytes,
    },
    /// Build outcome (reply to `BuildProgram`/`LoadBitstream`).
    BuildLog {
        /// Whether the build succeeded.
        ok: bool,
        /// Compiler/loader log text.
        log: String,
        /// Static-analysis summary per kernel (empty when the node's
        /// toolchain does not run the analyzer, e.g. bitstream loads).
        reports: Vec<WireKernelReport>,
    },
    /// Launch outcome with device-side virtual timing.
    LaunchDone {
        /// Virtual time the kernel started on the device.
        start_nanos: u64,
        /// Virtual time the kernel finished.
        end_nanos: u64,
        /// Bytecode instructions retired (0 in modeled fidelity).
        instructions: u64,
    },
    /// Node profile (reply to `QueryProfile`).
    Profile {
        /// Per-device, per-kernel timing records.
        entries: Vec<ProfileEntry>,
    },
    /// Liveness answer.
    Pong {
        /// The node's current virtual time.
        now_nanos: u64,
    },
    /// Kernel metadata (reply to `CreateKernel`).
    KernelInfo {
        /// Number of arguments the kernel takes.
        arity: u32,
    },
    /// A modeled data package: stands in for `len` bytes on the return
    /// path (reply to `ReadBufferModeled`). The response frame is charged
    /// on the link as if it carried the data.
    DataModeled {
        /// Bytes the modeled payload stands in for.
        len: u64,
    },
}

/// Static-analysis summary of one built kernel, produced by the device
/// node's compiler and forwarded in [`ApiReply::BuildLog`] so the host
/// scheduler can seed placement hints before any launch has run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireKernelReport {
    /// Kernel name.
    pub kernel: String,
    /// Error-severity findings (barrier divergence, `__local` races,
    /// provable out-of-bounds).
    pub errors: u32,
    /// Warning-severity findings.
    pub warnings: u32,
    /// Statically-declared `__local` bytes.
    pub local_bytes: u32,
    /// Number of `barrier(...)` sites.
    pub barrier_count: u32,
    /// Static flops-per-byte estimate.
    pub arithmetic_intensity: f64,
    /// Fraction of reachable blocks under work-item-dependent control
    /// flow.
    pub divergence_score: f64,
    /// Per-argument effect summary (fusion-legality input), in parameter
    /// order. Empty when the node's toolchain does not run the analyzer.
    pub effects: Vec<WireArgEffect>,
}

/// Flat wire mirror of one access pattern in an effect summary (see the
/// compiler's `analysis::effects::AccessPattern`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAccessPattern {
    /// Store (`true`) or load (`false`).
    pub write: bool,
    /// Provably item-private with a cross-kernel-comparable base.
    pub provable: bool,
    /// Per-dimension local-id coefficients, in elements.
    pub coeffs: [i64; 3],
    /// Base discriminant: 0 = constant, 1 = launch-geometry symbol,
    /// 2 = opaque.
    pub base_kind: u8,
    /// Geometry symbol id (`base_kind == 1` only).
    pub base_id: u32,
    /// Constant element addend (`base_kind <= 1`).
    pub base_add: i64,
}

/// Flat wire mirror of one argument's effect summary.
#[derive(Debug, Clone, PartialEq)]
pub struct WireArgEffect {
    /// Access mode: 0 = none, 1 = read, 2 = write, 3 = read-write.
    pub mode: u8,
    /// Element size of the pointee in bytes (0 for non-global args).
    pub elem_bytes: u32,
    /// Whether `lo`/`hi` carry meaningful element bounds.
    pub bounded: bool,
    /// Inclusive lower element offset (when `bounded`).
    pub lo: i64,
    /// Inclusive upper element offset (when `bounded`).
    pub hi: i64,
    /// Whether `patterns` covers every possible access.
    pub complete: bool,
    /// Deduplicated access shapes.
    pub patterns: Vec<WireAccessPattern>,
}

/// One constituent launch of an [`ApiCall::LaunchFused`] dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct WireLaunchPart {
    /// Kernel to run.
    pub kernel: KernelId,
    /// Bound arguments, in parameter order.
    pub args: Vec<WireArg>,
    /// Launch geometry (the prover guarantees all parts of one fused
    /// dispatch share it).
    pub range: WireNdRange,
    /// Device-independent cost (for virtual timing).
    pub cost: WireCost,
}

/// One row of a node's runtime profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Device index on the node.
    pub device: u8,
    /// Kernel name.
    pub kernel: String,
    /// Number of completed launches.
    pub runs: u64,
    /// Mean execution time, virtual nanoseconds.
    pub mean_nanos: u64,
    /// Device busy time so far, virtual nanoseconds.
    pub busy_nanos: u64,
}

/// A span recorded on a device node, shipped back inside the response
/// that completes it.
///
/// The NMP cannot reach the host's span recorder across the (simulated)
/// network, so node-side spans ride the wire: ids are minted
/// deterministically from the request's correlation token (high bit set,
/// so they never collide with host-allocated ids) and the host ingests
/// them into the recorder when the response is claimed.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpan {
    /// Span id (node-derived).
    pub id: u64,
    /// Parent span id; `0` means "root" (never emitted by the NMP).
    pub parent: u64,
    /// Operation name (e.g. `nmp.dispatch`, `vm.run`).
    pub name: String,
    /// Breakdown category name.
    pub category: String,
    /// Interval start, virtual nanoseconds.
    pub start_nanos: u64,
    /// Interval end, virtual nanoseconds.
    pub end_nanos: u64,
    /// Wall-clock (monotonic) nanoseconds the node spent handling the
    /// work — *real* time alongside the virtual interval, so simulation
    /// throughput is measurable per span. `0` when not measured.
    pub wall_nanos: u64,
}

/// A framed request on the backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation token.
    pub id: RequestId,
    /// Originating user/session.
    pub user: UserId,
    /// Virtual send time at the host.
    pub sent_at_nanos: u64,
    /// Trace the call belongs to; `0` when tracing is off.
    pub trace_id: u64,
    /// Host-side span the node's spans should hang off; `0` when tracing
    /// is off.
    pub parent_span: u64,
    /// The host's routing epoch for the target logical node. Bumped on
    /// every failover, so a node (or an operator reading a capture) can
    /// tell a replayed world apart from the original one.
    pub epoch: u32,
    /// Delivery attempt, starting at `0`. Retransmissions of the same
    /// `RequestId` bump this; the node's at-most-once journal treats any
    /// attempt after the first as a duplicate.
    pub attempt: u32,
    /// The forwarded call.
    pub body: ApiCall,
}

impl Request {
    /// Whether the caller asked for node-side spans.
    pub fn traced(&self) -> bool {
        self.trace_id != 0
    }

    /// Whether this is a retransmission of an earlier send.
    pub fn is_retry(&self) -> bool {
        self.attempt != 0
    }
}

/// A framed response on the backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoes the request's correlation token.
    pub id: RequestId,
    /// Virtual completion time at the node.
    pub completed_at_nanos: u64,
    /// The reply.
    pub body: ApiReply,
    /// `true` when the node served this answer from its at-most-once
    /// request journal instead of executing the call again (a retried or
    /// duplicated request hit a completed entry).
    pub duplicate: bool,
    /// Node-side spans for traced requests (empty when tracing is off).
    pub spans: Vec<WireSpan>,
}

/// What one host→node control-plane frame carries.
///
/// The pipelined backbone coalesces small control messages that queue up
/// while the host NIC is busy: instead of paying per-frame overhead for
/// each, it packs every queued [`Request`] into one `Batch` frame. The
/// node unpacks the envelope and answers each request with its own
/// [`Response`] frame, preserving per-request correlation (and therefore
/// out-of-order completion) end to end.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Exactly one request (the common uncongested case).
    Single(Request),
    /// Several requests coalesced into one transmission.
    Batch(Vec<Request>),
}

impl Envelope {
    /// The requests carried, in submission order.
    pub fn into_requests(self) -> Vec<Request> {
        match self {
            Envelope::Single(request) => vec![request],
            Envelope::Batch(requests) => requests,
        }
    }

    /// How many requests the envelope carries.
    pub fn len(&self) -> usize {
        match self {
            Envelope::Single(_) => 1,
            Envelope::Batch(requests) => requests.len(),
        }
    }

    /// Whether the envelope carries no requests (possible only for an
    /// empty `Batch`, which well-formed senders never emit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<Request>> for Envelope {
    /// Wraps queued requests, collapsing a singleton into
    /// [`Envelope::Single`].
    fn from(mut requests: Vec<Request>) -> Self {
        if requests.len() == 1 {
            Envelope::Single(requests.pop().expect("len checked"))
        } else {
            Envelope::Batch(requests)
        }
    }
}

// ---------------------------------------------------------------------
// Codec implementations
// ---------------------------------------------------------------------

impl Encode for DeviceKind {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            DeviceKind::Cpu => 0,
            DeviceKind::Gpu => 1,
            DeviceKind::Fpga => 2,
        });
    }
}

impl Decode for DeviceKind {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "DeviceKind" });
        }
        match buf.get_u8() {
            0 => Ok(DeviceKind::Cpu),
            1 => Ok(DeviceKind::Gpu),
            2 => Ok(DeviceKind::Fpga),
            tag => Err(WireError::InvalidTag {
                what: "DeviceKind",
                tag,
            }),
        }
    }
}

impl Encode for DeviceDescriptor {
    fn encode(&self, buf: &mut BytesMut) {
        self.index.encode(buf);
        self.kind.encode(buf);
        self.name.encode(buf);
        self.mem_bytes.encode(buf);
        self.gflops.encode(buf);
        self.mem_bandwidth_gbps.encode(buf);
        self.power_watts.encode(buf);
    }
}

impl Decode for DeviceDescriptor {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(DeviceDescriptor {
            index: Decode::decode(buf)?,
            kind: Decode::decode(buf)?,
            name: Decode::decode(buf)?,
            mem_bytes: Decode::decode(buf)?,
            gflops: Decode::decode(buf)?,
            mem_bandwidth_gbps: Decode::decode(buf)?,
            power_watts: Decode::decode(buf)?,
        })
    }
}

impl Encode for Fidelity {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            Fidelity::Full => 0,
            Fidelity::Modeled => 1,
        });
    }
}

impl Decode for Fidelity {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "Fidelity" });
        }
        match buf.get_u8() {
            0 => Ok(Fidelity::Full),
            1 => Ok(Fidelity::Modeled),
            tag => Err(WireError::InvalidTag {
                what: "Fidelity",
                tag,
            }),
        }
    }
}

impl Encode for WireArg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireArg::F32(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            WireArg::F64(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            WireArg::I32(v) => {
                buf.put_u8(2);
                v.encode(buf);
            }
            WireArg::U32(v) => {
                buf.put_u8(3);
                v.encode(buf);
            }
            WireArg::I64(v) => {
                buf.put_u8(4);
                v.encode(buf);
            }
            WireArg::U64(v) => {
                buf.put_u8(5);
                v.encode(buf);
            }
            WireArg::Buffer(v) => {
                buf.put_u8(6);
                v.encode(buf);
            }
            WireArg::LocalBytes(v) => {
                buf.put_u8(7);
                v.encode(buf);
            }
        }
    }
}

impl Decode for WireArg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "WireArg" });
        }
        Ok(match buf.get_u8() {
            0 => WireArg::F32(Decode::decode(buf)?),
            1 => WireArg::F64(Decode::decode(buf)?),
            2 => WireArg::I32(Decode::decode(buf)?),
            3 => WireArg::U32(Decode::decode(buf)?),
            4 => WireArg::I64(Decode::decode(buf)?),
            5 => WireArg::U64(Decode::decode(buf)?),
            6 => WireArg::Buffer(Decode::decode(buf)?),
            7 => WireArg::LocalBytes(Decode::decode(buf)?),
            tag => {
                return Err(WireError::InvalidTag {
                    what: "WireArg",
                    tag,
                })
            }
        })
    }
}

impl Encode for WireNdRange {
    fn encode(&self, buf: &mut BytesMut) {
        self.work_dim.encode(buf);
        self.global.encode(buf);
        self.local.encode(buf);
    }
}

impl Decode for WireNdRange {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireNdRange {
            work_dim: Decode::decode(buf)?,
            global: Decode::decode(buf)?,
            local: Decode::decode(buf)?,
        })
    }
}

impl Encode for WireCost {
    fn encode(&self, buf: &mut BytesMut) {
        self.flops.encode(buf);
        self.bytes_read.encode(buf);
        self.bytes_written.encode(buf);
        self.uniform.encode(buf);
        self.streaming.encode(buf);
    }
}

impl Decode for WireCost {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireCost {
            flops: Decode::decode(buf)?,
            bytes_read: Decode::decode(buf)?,
            bytes_written: Decode::decode(buf)?,
            uniform: Decode::decode(buf)?,
            streaming: Decode::decode(buf)?,
        })
    }
}

impl Encode for ApiCall {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ApiCall::Hello { client } => {
                buf.put_u8(0);
                client.encode(buf);
            }
            ApiCall::ListDevices => buf.put_u8(1),
            ApiCall::CreateBuffer {
                device,
                buffer,
                size,
            } => {
                buf.put_u8(2);
                device.encode(buf);
                buffer.encode(buf);
                size.encode(buf);
            }
            ApiCall::ReleaseBuffer { device, buffer } => {
                buf.put_u8(3);
                device.encode(buf);
                buffer.encode(buf);
            }
            ApiCall::WriteBuffer {
                device,
                buffer,
                offset,
                data,
            } => {
                buf.put_u8(4);
                device.encode(buf);
                buffer.encode(buf);
                offset.encode(buf);
                data.encode(buf);
            }
            ApiCall::ReadBuffer {
                device,
                buffer,
                offset,
                len,
            } => {
                buf.put_u8(5);
                device.encode(buf);
                buffer.encode(buf);
                offset.encode(buf);
                len.encode(buf);
            }
            ApiCall::CopyBuffer {
                device,
                src,
                dst,
                src_offset,
                dst_offset,
                len,
            } => {
                buf.put_u8(6);
                device.encode(buf);
                src.encode(buf);
                dst.encode(buf);
                src_offset.encode(buf);
                dst_offset.encode(buf);
                len.encode(buf);
            }
            ApiCall::BuildProgram {
                device,
                program,
                source,
            } => {
                buf.put_u8(7);
                device.encode(buf);
                program.encode(buf);
                source.encode(buf);
            }
            ApiCall::LoadBitstream {
                device,
                program,
                kernels,
            } => {
                buf.put_u8(8);
                device.encode(buf);
                program.encode(buf);
                kernels.encode(buf);
            }
            ApiCall::CreateKernel {
                device,
                kernel,
                program,
                name,
            } => {
                buf.put_u8(9);
                device.encode(buf);
                kernel.encode(buf);
                program.encode(buf);
                name.encode(buf);
            }
            ApiCall::LaunchKernel {
                device,
                kernel,
                args,
                range,
                cost,
                fidelity,
                shared,
            } => {
                buf.put_u8(10);
                device.encode(buf);
                kernel.encode(buf);
                args.encode(buf);
                range.encode(buf);
                cost.encode(buf);
                fidelity.encode(buf);
                shared.encode(buf);
            }
            ApiCall::QueryProfile => buf.put_u8(11),
            ApiCall::Ping => buf.put_u8(12),
            ApiCall::Shutdown => buf.put_u8(13),
            ApiCall::CreateBufferModeled {
                device,
                buffer,
                size,
            } => {
                buf.put_u8(14);
                device.encode(buf);
                buffer.encode(buf);
                size.encode(buf);
            }
            ApiCall::WriteBufferModeled {
                device,
                buffer,
                offset,
                len,
            } => {
                buf.put_u8(15);
                device.encode(buf);
                buffer.encode(buf);
                offset.encode(buf);
                len.encode(buf);
            }
            ApiCall::ReadBufferModeled {
                device,
                buffer,
                offset,
                len,
            } => {
                buf.put_u8(16);
                device.encode(buf);
                buffer.encode(buf);
                offset.encode(buf);
                len.encode(buf);
            }
            ApiCall::PushBufferTo {
                device,
                buffer,
                peer_addr,
                peer_device,
                peer_buffer,
                offset,
                len,
                version,
                epoch,
                modeled,
            } => {
                buf.put_u8(17);
                device.encode(buf);
                buffer.encode(buf);
                peer_addr.encode(buf);
                peer_device.encode(buf);
                peer_buffer.encode(buf);
                offset.encode(buf);
                len.encode(buf);
                version.encode(buf);
                epoch.encode(buf);
                modeled.encode(buf);
            }
            ApiCall::PullBufferFrom {
                device,
                buffer,
                peer_addr,
                peer_device,
                peer_buffer,
                offset,
                len,
                version,
                epoch,
                modeled,
            } => {
                buf.put_u8(18);
                device.encode(buf);
                buffer.encode(buf);
                peer_addr.encode(buf);
                peer_device.encode(buf);
                peer_buffer.encode(buf);
                offset.encode(buf);
                len.encode(buf);
                version.encode(buf);
                epoch.encode(buf);
                modeled.encode(buf);
            }
            ApiCall::LaunchFused {
                device,
                fidelity,
                shared,
                parts,
            } => {
                buf.put_u8(19);
                device.encode(buf);
                fidelity.encode(buf);
                shared.encode(buf);
                parts.encode(buf);
            }
            ApiCall::SetThrottle { device, factor } => {
                buf.put_u8(20);
                device.encode(buf);
                factor.encode(buf);
            }
            ApiCall::BeginDrain => buf.put_u8(21),
        }
    }
}

impl Decode for ApiCall {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "ApiCall" });
        }
        Ok(match buf.get_u8() {
            0 => ApiCall::Hello {
                client: Decode::decode(buf)?,
            },
            1 => ApiCall::ListDevices,
            2 => ApiCall::CreateBuffer {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                size: Decode::decode(buf)?,
            },
            3 => ApiCall::ReleaseBuffer {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
            },
            4 => ApiCall::WriteBuffer {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                data: Decode::decode(buf)?,
            },
            5 => ApiCall::ReadBuffer {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
            },
            6 => ApiCall::CopyBuffer {
                device: Decode::decode(buf)?,
                src: Decode::decode(buf)?,
                dst: Decode::decode(buf)?,
                src_offset: Decode::decode(buf)?,
                dst_offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
            },
            7 => ApiCall::BuildProgram {
                device: Decode::decode(buf)?,
                program: Decode::decode(buf)?,
                source: Decode::decode(buf)?,
            },
            8 => ApiCall::LoadBitstream {
                device: Decode::decode(buf)?,
                program: Decode::decode(buf)?,
                kernels: Decode::decode(buf)?,
            },
            9 => ApiCall::CreateKernel {
                device: Decode::decode(buf)?,
                kernel: Decode::decode(buf)?,
                program: Decode::decode(buf)?,
                name: Decode::decode(buf)?,
            },
            10 => ApiCall::LaunchKernel {
                device: Decode::decode(buf)?,
                kernel: Decode::decode(buf)?,
                args: Decode::decode(buf)?,
                range: Decode::decode(buf)?,
                cost: Decode::decode(buf)?,
                fidelity: Decode::decode(buf)?,
                shared: Decode::decode(buf)?,
            },
            11 => ApiCall::QueryProfile,
            12 => ApiCall::Ping,
            13 => ApiCall::Shutdown,
            14 => ApiCall::CreateBufferModeled {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                size: Decode::decode(buf)?,
            },
            15 => ApiCall::WriteBufferModeled {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
            },
            16 => ApiCall::ReadBufferModeled {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
            },
            17 => ApiCall::PushBufferTo {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                peer_addr: Decode::decode(buf)?,
                peer_device: Decode::decode(buf)?,
                peer_buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
                version: Decode::decode(buf)?,
                epoch: Decode::decode(buf)?,
                modeled: Decode::decode(buf)?,
            },
            18 => ApiCall::PullBufferFrom {
                device: Decode::decode(buf)?,
                buffer: Decode::decode(buf)?,
                peer_addr: Decode::decode(buf)?,
                peer_device: Decode::decode(buf)?,
                peer_buffer: Decode::decode(buf)?,
                offset: Decode::decode(buf)?,
                len: Decode::decode(buf)?,
                version: Decode::decode(buf)?,
                epoch: Decode::decode(buf)?,
                modeled: Decode::decode(buf)?,
            },
            19 => ApiCall::LaunchFused {
                device: Decode::decode(buf)?,
                fidelity: Decode::decode(buf)?,
                shared: Decode::decode(buf)?,
                parts: Decode::decode(buf)?,
            },
            20 => ApiCall::SetThrottle {
                device: Decode::decode(buf)?,
                factor: Decode::decode(buf)?,
            },
            21 => ApiCall::BeginDrain,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "ApiCall",
                    tag,
                })
            }
        })
    }
}

impl Encode for WireKernelReport {
    fn encode(&self, buf: &mut BytesMut) {
        self.kernel.encode(buf);
        self.errors.encode(buf);
        self.warnings.encode(buf);
        self.local_bytes.encode(buf);
        self.barrier_count.encode(buf);
        self.arithmetic_intensity.encode(buf);
        self.divergence_score.encode(buf);
        self.effects.encode(buf);
    }
}

impl Decode for WireKernelReport {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireKernelReport {
            kernel: Decode::decode(buf)?,
            errors: Decode::decode(buf)?,
            warnings: Decode::decode(buf)?,
            local_bytes: Decode::decode(buf)?,
            barrier_count: Decode::decode(buf)?,
            arithmetic_intensity: Decode::decode(buf)?,
            divergence_score: Decode::decode(buf)?,
            effects: Decode::decode(buf)?,
        })
    }
}

impl Encode for WireAccessPattern {
    fn encode(&self, buf: &mut BytesMut) {
        self.write.encode(buf);
        self.provable.encode(buf);
        for c in self.coeffs {
            c.encode(buf);
        }
        self.base_kind.encode(buf);
        self.base_id.encode(buf);
        self.base_add.encode(buf);
    }
}

impl Decode for WireAccessPattern {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireAccessPattern {
            write: Decode::decode(buf)?,
            provable: Decode::decode(buf)?,
            coeffs: [
                Decode::decode(buf)?,
                Decode::decode(buf)?,
                Decode::decode(buf)?,
            ],
            base_kind: Decode::decode(buf)?,
            base_id: Decode::decode(buf)?,
            base_add: Decode::decode(buf)?,
        })
    }
}

impl Encode for WireArgEffect {
    fn encode(&self, buf: &mut BytesMut) {
        self.mode.encode(buf);
        self.elem_bytes.encode(buf);
        self.bounded.encode(buf);
        self.lo.encode(buf);
        self.hi.encode(buf);
        self.complete.encode(buf);
        self.patterns.encode(buf);
    }
}

impl Decode for WireArgEffect {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireArgEffect {
            mode: Decode::decode(buf)?,
            elem_bytes: Decode::decode(buf)?,
            bounded: Decode::decode(buf)?,
            lo: Decode::decode(buf)?,
            hi: Decode::decode(buf)?,
            complete: Decode::decode(buf)?,
            patterns: Decode::decode(buf)?,
        })
    }
}

impl Encode for WireLaunchPart {
    fn encode(&self, buf: &mut BytesMut) {
        self.kernel.encode(buf);
        self.args.encode(buf);
        self.range.encode(buf);
        self.cost.encode(buf);
    }
}

impl Decode for WireLaunchPart {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireLaunchPart {
            kernel: Decode::decode(buf)?,
            args: Decode::decode(buf)?,
            range: Decode::decode(buf)?,
            cost: Decode::decode(buf)?,
        })
    }
}

impl Encode for ProfileEntry {
    fn encode(&self, buf: &mut BytesMut) {
        self.device.encode(buf);
        self.kernel.encode(buf);
        self.runs.encode(buf);
        self.mean_nanos.encode(buf);
        self.busy_nanos.encode(buf);
    }
}

impl Decode for ProfileEntry {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ProfileEntry {
            device: Decode::decode(buf)?,
            kernel: Decode::decode(buf)?,
            runs: Decode::decode(buf)?,
            mean_nanos: Decode::decode(buf)?,
            busy_nanos: Decode::decode(buf)?,
        })
    }
}

impl Encode for ApiReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ApiReply::Ack => buf.put_u8(0),
            ApiReply::Error { code, message } => {
                buf.put_u8(1);
                code.encode(buf);
                message.encode(buf);
            }
            ApiReply::NodeInfo { devices } => {
                buf.put_u8(2);
                devices.encode(buf);
            }
            ApiReply::Data { bytes } => {
                buf.put_u8(3);
                bytes.encode(buf);
            }
            ApiReply::BuildLog { ok, log, reports } => {
                buf.put_u8(4);
                ok.encode(buf);
                log.encode(buf);
                reports.encode(buf);
            }
            ApiReply::LaunchDone {
                start_nanos,
                end_nanos,
                instructions,
            } => {
                buf.put_u8(5);
                start_nanos.encode(buf);
                end_nanos.encode(buf);
                instructions.encode(buf);
            }
            ApiReply::Profile { entries } => {
                buf.put_u8(6);
                entries.encode(buf);
            }
            ApiReply::Pong { now_nanos } => {
                buf.put_u8(7);
                now_nanos.encode(buf);
            }
            ApiReply::KernelInfo { arity } => {
                buf.put_u8(8);
                arity.encode(buf);
            }
            ApiReply::DataModeled { len } => {
                buf.put_u8(9);
                len.encode(buf);
            }
        }
    }
}

impl Decode for ApiReply {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "ApiReply" });
        }
        Ok(match buf.get_u8() {
            0 => ApiReply::Ack,
            1 => ApiReply::Error {
                code: Decode::decode(buf)?,
                message: Decode::decode(buf)?,
            },
            2 => ApiReply::NodeInfo {
                devices: Decode::decode(buf)?,
            },
            3 => ApiReply::Data {
                bytes: Decode::decode(buf)?,
            },
            4 => ApiReply::BuildLog {
                ok: Decode::decode(buf)?,
                log: Decode::decode(buf)?,
                reports: Decode::decode(buf)?,
            },
            5 => ApiReply::LaunchDone {
                start_nanos: Decode::decode(buf)?,
                end_nanos: Decode::decode(buf)?,
                instructions: Decode::decode(buf)?,
            },
            6 => ApiReply::Profile {
                entries: Decode::decode(buf)?,
            },
            7 => ApiReply::Pong {
                now_nanos: Decode::decode(buf)?,
            },
            8 => ApiReply::KernelInfo {
                arity: Decode::decode(buf)?,
            },
            9 => ApiReply::DataModeled {
                len: Decode::decode(buf)?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    what: "ApiReply",
                    tag,
                })
            }
        })
    }
}

impl Encode for WireSpan {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.parent.encode(buf);
        self.name.encode(buf);
        self.category.encode(buf);
        self.start_nanos.encode(buf);
        self.end_nanos.encode(buf);
        self.wall_nanos.encode(buf);
    }
}

impl Decode for WireSpan {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(WireSpan {
            id: Decode::decode(buf)?,
            parent: Decode::decode(buf)?,
            name: Decode::decode(buf)?,
            category: Decode::decode(buf)?,
            start_nanos: Decode::decode(buf)?,
            end_nanos: Decode::decode(buf)?,
            wall_nanos: Decode::decode(buf)?,
        })
    }
}

impl Encode for Request {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.user.encode(buf);
        self.sent_at_nanos.encode(buf);
        self.trace_id.encode(buf);
        self.parent_span.encode(buf);
        self.epoch.encode(buf);
        self.attempt.encode(buf);
        self.body.encode(buf);
    }
}

impl Decode for Request {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Request {
            id: Decode::decode(buf)?,
            user: Decode::decode(buf)?,
            sent_at_nanos: Decode::decode(buf)?,
            trace_id: Decode::decode(buf)?,
            parent_span: Decode::decode(buf)?,
            epoch: Decode::decode(buf)?,
            attempt: Decode::decode(buf)?,
            body: Decode::decode(buf)?,
        })
    }
}

impl Encode for Response {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.completed_at_nanos.encode(buf);
        self.body.encode(buf);
        self.duplicate.encode(buf);
        self.spans.encode(buf);
    }
}

impl Decode for Response {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Response {
            id: Decode::decode(buf)?,
            completed_at_nanos: Decode::decode(buf)?,
            body: Decode::decode(buf)?,
            duplicate: Decode::decode(buf)?,
            spans: Decode::decode(buf)?,
        })
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Envelope::Single(request) => {
                buf.put_u8(0);
                request.encode(buf);
            }
            Envelope::Batch(requests) => {
                buf.put_u8(1);
                requests.encode(buf);
            }
        }
    }
}

impl Decode for Envelope {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::UnexpectedEof { what: "Envelope" });
        }
        Ok(match buf.get_u8() {
            0 => Envelope::Single(Decode::decode(buf)?),
            1 => Envelope::Batch(Decode::decode(buf)?),
            tag => {
                return Err(WireError::InvalidTag {
                    what: "Envelope",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_from_bytes, decode_from_slice, encode_to_vec};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    fn sample_descriptor() -> DeviceDescriptor {
        DeviceDescriptor {
            index: 0,
            kind: DeviceKind::Gpu,
            name: "Tesla P4 (simulated)".to_string(),
            mem_bytes: 8 << 30,
            gflops: 5500.0,
            mem_bandwidth_gbps: 192.0,
            power_watts: 75.0,
        }
    }

    #[test]
    fn device_kinds_roundtrip() {
        roundtrip(DeviceKind::Cpu);
        roundtrip(DeviceKind::Gpu);
        roundtrip(DeviceKind::Fpga);
        assert_eq!(DeviceKind::Fpga.to_string(), "FPGA");
    }

    #[test]
    fn descriptor_roundtrips() {
        roundtrip(sample_descriptor());
    }

    /// One instance of every [`ApiCall`] variant.
    pub(super) fn every_api_call() -> Vec<ApiCall> {
        vec![
            ApiCall::Hello {
                client: "host".into(),
            },
            ApiCall::ListDevices,
            ApiCall::CreateBuffer {
                device: 1,
                buffer: BufferId::new(5),
                size: 1024,
            },
            ApiCall::ReleaseBuffer {
                device: 1,
                buffer: BufferId::new(5),
            },
            ApiCall::WriteBuffer {
                device: 0,
                buffer: BufferId::new(5),
                offset: 16,
                data: Bytes::from_static(b"payload"),
            },
            ApiCall::ReadBuffer {
                device: 0,
                buffer: BufferId::new(5),
                offset: 0,
                len: 128,
            },
            ApiCall::CopyBuffer {
                device: 0,
                src: BufferId::new(5),
                dst: BufferId::new(6),
                src_offset: 0,
                dst_offset: 64,
                len: 32,
            },
            ApiCall::BuildProgram {
                device: 0,
                program: ProgramId::new(1),
                source: "__kernel void f() {}".into(),
            },
            ApiCall::LoadBitstream {
                device: 2,
                program: ProgramId::new(2),
                kernels: vec!["matmul".into(), "spmv".into()],
            },
            ApiCall::CreateKernel {
                device: 0,
                kernel: KernelId::new(9),
                program: ProgramId::new(1),
                name: "f".into(),
            },
            ApiCall::LaunchKernel {
                device: 0,
                kernel: KernelId::new(9),
                args: vec![
                    WireArg::Buffer(BufferId::new(5)),
                    WireArg::F32(1.5),
                    WireArg::I32(-3),
                    WireArg::U64(u64::MAX),
                    WireArg::LocalBytes(256),
                ],
                range: WireNdRange {
                    work_dim: 2,
                    global: [1024, 1024, 1],
                    local: [16, 16, 1],
                },
                cost: WireCost {
                    flops: 2e9,
                    bytes_read: 1e6,
                    bytes_written: 5e5,
                    uniform: true,
                    streaming: false,
                },
                fidelity: Fidelity::Modeled,
                shared: true,
            },
            ApiCall::QueryProfile,
            ApiCall::Ping,
            ApiCall::Shutdown,
            ApiCall::CreateBufferModeled {
                device: 0,
                buffer: BufferId::new(8),
                size: 1 << 30,
            },
            ApiCall::WriteBufferModeled {
                device: 0,
                buffer: BufferId::new(8),
                offset: 0,
                len: 1 << 30,
            },
            ApiCall::ReadBufferModeled {
                device: 0,
                buffer: BufferId::new(8),
                offset: 4,
                len: 1 << 20,
            },
            ApiCall::PushBufferTo {
                device: 1,
                buffer: BufferId::new(5),
                peer_addr: "10.0.1.2:7101".into(),
                peer_device: 0,
                peer_buffer: BufferId::new(23),
                offset: 8,
                len: 4096,
                version: 7,
                epoch: 2,
                modeled: false,
            },
            ApiCall::PullBufferFrom {
                device: 0,
                buffer: BufferId::new(8),
                peer_addr: "10.0.2.1:7101".into(),
                peer_device: 3,
                peer_buffer: BufferId::new(31),
                offset: 0,
                len: 1 << 30,
                version: u64::MAX,
                epoch: 0,
                modeled: true,
            },
            ApiCall::LaunchFused {
                device: 1,
                fidelity: Fidelity::Full,
                shared: false,
                parts: vec![
                    WireLaunchPart {
                        kernel: KernelId::new(9),
                        args: vec![WireArg::Buffer(BufferId::new(5)), WireArg::I32(64)],
                        range: WireNdRange {
                            work_dim: 1,
                            global: [256, 1, 1],
                            local: [32, 1, 1],
                        },
                        cost: WireCost {
                            flops: 1e6,
                            bytes_read: 2e6,
                            bytes_written: 1e6,
                            uniform: true,
                            streaming: true,
                        },
                    },
                    WireLaunchPart {
                        kernel: KernelId::new(10),
                        args: vec![WireArg::Buffer(BufferId::new(5)), WireArg::F32(0.5)],
                        range: WireNdRange {
                            work_dim: 1,
                            global: [256, 1, 1],
                            local: [32, 1, 1],
                        },
                        cost: WireCost {
                            flops: 2e6,
                            bytes_read: 1e6,
                            bytes_written: 1e6,
                            uniform: true,
                            streaming: false,
                        },
                    },
                ],
            },
            ApiCall::SetThrottle {
                device: 2,
                factor: 3.5,
            },
            ApiCall::BeginDrain,
        ]
    }

    #[test]
    fn every_api_call_roundtrips() {
        for call in every_api_call() {
            roundtrip(call);
        }
    }

    /// One instance of every [`ApiReply`] variant.
    pub(super) fn every_api_reply() -> Vec<ApiReply> {
        vec![
            ApiReply::Ack,
            ApiReply::Error {
                code: status::INVALID_KERNEL_NAME,
                message: "no kernel `foo`".into(),
            },
            ApiReply::NodeInfo {
                devices: vec![sample_descriptor()],
            },
            ApiReply::Data {
                bytes: Bytes::from_static(&[1, 2, 3]),
            },
            ApiReply::BuildLog {
                ok: false,
                log: "3:1: error (parse): expected `;`".into(),
                reports: vec![WireKernelReport {
                    kernel: "matmul".into(),
                    errors: 1,
                    warnings: 2,
                    local_bytes: 4096,
                    barrier_count: 2,
                    arithmetic_intensity: 1.5,
                    divergence_score: 0.25,
                    effects: vec![
                        WireArgEffect {
                            mode: 3,
                            elem_bytes: 4,
                            bounded: true,
                            lo: 0,
                            hi: 1023,
                            complete: true,
                            patterns: vec![
                                WireAccessPattern {
                                    write: true,
                                    provable: true,
                                    coeffs: [1, 0, 0],
                                    base_kind: 1,
                                    base_id: 0,
                                    base_add: 0,
                                },
                                WireAccessPattern {
                                    write: false,
                                    provable: false,
                                    coeffs: [0, 0, 0],
                                    base_kind: 2,
                                    base_id: 0,
                                    base_add: 0,
                                },
                            ],
                        },
                        WireArgEffect {
                            mode: 0,
                            elem_bytes: 0,
                            bounded: false,
                            lo: 0,
                            hi: 0,
                            complete: true,
                            patterns: Vec::new(),
                        },
                    ],
                }],
            },
            ApiReply::LaunchDone {
                start_nanos: 10,
                end_nanos: 200,
                instructions: 4242,
            },
            ApiReply::Profile {
                entries: vec![ProfileEntry {
                    device: 0,
                    kernel: "matmul".into(),
                    runs: 12,
                    mean_nanos: 1_000_000,
                    busy_nanos: 12_000_000,
                }],
            },
            ApiReply::Pong { now_nanos: 77 },
            ApiReply::KernelInfo { arity: 5 },
            ApiReply::DataModeled { len: 1 << 30 },
        ]
    }

    #[test]
    fn every_api_reply_roundtrips() {
        for reply in every_api_reply() {
            roundtrip(reply);
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// Bytes captured from the encoder before the bulk path was rebuilt
    /// around shared frame storage: what goes on the wire must not move.
    #[test]
    fn bulk_messages_encode_to_the_golden_bytes() {
        let write = Envelope::Single(Request {
            id: RequestId::new(0x0102_0304_0506_0708),
            user: UserId::new(9),
            sent_at_nanos: 1_000_000,
            trace_id: 0x1122,
            parent_span: 0x3344,
            epoch: 2,
            attempt: 1,
            body: ApiCall::WriteBuffer {
                device: 1,
                buffer: BufferId::new(77),
                offset: 16,
                data: Bytes::from((0u8..24).collect::<Vec<u8>>()),
            },
        });
        let golden = unhex(concat!(
            "0008070605040302010900000040420f00000000002211000000000000443300",
            "0000000000020000000100000004014d00000000000000100000000000000018",
            "00000000000000000102030405060708090a0b0c0d0e0f1011121314151617",
        ));
        assert_eq!(encode_to_vec(&write), golden);
        assert_eq!(decode_from_bytes::<Envelope>(golden.into()), Ok(write));

        let data = Response {
            id: RequestId::new(0x0102_0304_0506_0708),
            completed_at_nanos: 2_500_000,
            body: ApiReply::Data {
                bytes: Bytes::from(vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0xff]),
            },
            duplicate: true,
            spans: vec![WireSpan {
                id: 5,
                parent: 4,
                name: "nmp.dispatch".into(),
                category: "Dispatch".into(),
                start_nanos: 10,
                end_nanos: 20,
                wall_nanos: 30,
            }],
        };
        let golden = unhex(concat!(
            "0807060504030201a025260000000000030600000000000000deadbeef00ff01",
            "0100000000000000050000000000000004000000000000000c00000000000000",
            "6e6d702e6469737061746368080000000000000044697370617463680a000000",
            "0000000014000000000000001e00000000000000",
        ));
        assert_eq!(encode_to_vec(&data), golden);
        assert_eq!(decode_from_bytes::<Response>(golden.into()), Ok(data));
    }

    #[test]
    fn request_response_envelopes_roundtrip() {
        roundtrip(Request {
            id: RequestId::new(1),
            user: UserId::new(2),
            sent_at_nanos: 3,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body: ApiCall::Ping,
        });
        roundtrip(Response {
            id: RequestId::new(1),
            completed_at_nanos: 99,
            body: ApiReply::Pong { now_nanos: 99 },
            duplicate: false,
            spans: Vec::new(),
        });
    }

    #[test]
    fn traced_request_and_spanned_response_roundtrip() {
        roundtrip(Request {
            id: RequestId::new(4),
            user: UserId::new(1),
            sent_at_nanos: 10,
            trace_id: 7,
            parent_span: 12,
            epoch: 2,
            attempt: 1,
            body: ApiCall::Ping,
        });
        // Node-derived span ids use the high bit — must survive intact.
        roundtrip(Response {
            id: RequestId::new(4),
            completed_at_nanos: 50,
            body: ApiReply::Pong { now_nanos: 50 },
            duplicate: true,
            spans: vec![
                WireSpan {
                    id: (1 << 63) | 64,
                    parent: 12,
                    name: "nmp.dispatch".into(),
                    category: "Dispatch".into(),
                    start_nanos: 20,
                    end_nanos: 45,
                    wall_nanos: 1_830,
                },
                WireSpan {
                    id: (1 << 63) | 65,
                    parent: (1 << 63) | 64,
                    name: "vm.run".into(),
                    category: "Compute".into(),
                    start_nanos: 25,
                    end_nanos: 44,
                    wall_nanos: 0,
                },
            ],
        });
        let traced = Request {
            id: RequestId::new(4),
            user: UserId::new(1),
            sent_at_nanos: 10,
            trace_id: 7,
            parent_span: 12,
            epoch: 0,
            attempt: 1,
            body: ApiCall::Ping,
        };
        assert!(traced.traced());
        assert!(traced.is_retry());
        assert!(!Request {
            attempt: 0,
            ..traced
        }
        .is_retry());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = decode_from_slice::<ApiCall>(&[200]).unwrap_err();
        assert!(matches!(
            err,
            WireError::InvalidTag {
                what: "ApiCall",
                tag: 200
            }
        ));
    }

    #[test]
    fn envelopes_roundtrip_and_unpack() {
        let request = |n: u64| Request {
            id: RequestId::new(n),
            user: UserId::new(1),
            sent_at_nanos: n * 10,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body: ApiCall::Ping,
        };
        roundtrip(Envelope::Single(request(1)));
        roundtrip(Envelope::Batch(vec![request(1), request(2), request(3)]));

        // From<Vec<_>> collapses singletons into the cheaper variant.
        let single = Envelope::from(vec![request(7)]);
        assert_eq!(single, Envelope::Single(request(7)));
        assert_eq!(single.len(), 1);
        assert!(!single.is_empty());

        let batch = Envelope::from(vec![request(1), request(2)]);
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.into_requests(),
            vec![request(1), request(2)],
            "submission order preserved"
        );
    }

    #[test]
    fn status_codes_match_opencl_values() {
        assert_eq!(status::SUCCESS, 0);
        assert_eq!(status::INVALID_VALUE, -30);
        assert_eq!(status::BUILD_PROGRAM_FAILURE, -11);
        assert_eq!(status::INVALID_KERNEL_NAME, -46);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{every_api_call, every_api_reply};
    use super::*;
    use crate::wire::{decode_from_bytes, decode_from_slice, encode_to_vec};
    use proptest::prelude::*;

    /// Both decoders over `wire`, the in-place one reading it as a view
    /// into the middle of a larger buffer (as a frame out of a pooled
    /// allocation is): same value or same error.
    fn decoders_agree<T: Decode + PartialEq + std::fmt::Debug>(
        wire: &[u8],
    ) -> Result<(), TestCaseError> {
        let mut storage = vec![0xEE; 7];
        storage.extend_from_slice(wire);
        storage.extend_from_slice(&[0xEE; 5]);
        let view = Bytes::from(storage).slice(7..7 + wire.len());
        prop_assert_eq!(decode_from_bytes::<T>(view), decode_from_slice::<T>(wire));
        Ok(())
    }

    fn arb_arg() -> impl Strategy<Value = WireArg> {
        prop_oneof![
            any::<f32>().prop_map(WireArg::F32),
            any::<f64>().prop_map(WireArg::F64),
            any::<i32>().prop_map(WireArg::I32),
            any::<u32>().prop_map(WireArg::U32),
            any::<i64>().prop_map(WireArg::I64),
            any::<u64>().prop_map(WireArg::U64),
            any::<u64>().prop_map(|v| WireArg::Buffer(BufferId::new(v))),
            any::<u64>().prop_map(WireArg::LocalBytes),
        ]
    }

    proptest! {
        #[test]
        fn launch_kernel_roundtrips(
            device in any::<u8>(),
            kernel in any::<u64>(),
            args in proptest::collection::vec(arb_arg(), 0..8),
            global in any::<[u64; 3]>(),
            local in any::<[u64; 3]>(),
            flops in 0.0f64..1e15,
            shared in any::<bool>(),
        ) {
            // NaN floats break PartialEq, so constrain flops; scalar args may
            // still carry NaN — compare via re-encoding instead.
            let call = ApiCall::LaunchKernel {
                device,
                kernel: KernelId::new(kernel),
                args,
                range: WireNdRange { work_dim: 3, global, local },
                cost: WireCost {
                    flops,
                    bytes_read: 0.0,
                    bytes_written: 0.0,
                    uniform: true,
                    streaming: false,
                },
                fidelity: Fidelity::Full,
                shared,
            };
            let bytes = encode_to_vec(&call);
            let back: ApiCall = decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(encode_to_vec(&back), bytes);
        }

        #[test]
        fn in_place_and_copying_decoders_agree(
            cut in any::<usize>(),
            trailing in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            // Every variant: whole, cut short anywhere, with garbage
            // behind, and read as the wrong type (more garbage).
            for call in every_api_call() {
                let wire = encode_to_vec(&call);
                decoders_agree::<ApiCall>(&wire)?;
                decoders_agree::<ApiCall>(&wire[..cut % wire.len()])?;
                decoders_agree::<ApiCall>(&[&wire[..], &trailing[..]].concat())?;
                decoders_agree::<ApiReply>(&wire)?;
            }
            for reply in every_api_reply() {
                let wire = encode_to_vec(&reply);
                decoders_agree::<ApiReply>(&wire)?;
                decoders_agree::<ApiReply>(&wire[..cut % wire.len()])?;
                decoders_agree::<ApiReply>(&[&wire[..], &trailing[..]].concat())?;
                decoders_agree::<ApiCall>(&wire)?;
            }
        }

        #[test]
        fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_from_slice::<ApiCall>(&data);
            let _ = decode_from_slice::<ApiReply>(&data);
            let _ = decode_from_slice::<Request>(&data);
            let _ = decode_from_slice::<Response>(&data);
            let _ = decode_from_slice::<Envelope>(&data);
        }

        #[test]
        fn request_roundtrips_with_epoch_and_attempt(
            id in any::<u64>(),
            user in any::<u32>(),
            sent in any::<u64>(),
            trace in any::<u64>(),
            parent in any::<u64>(),
            epoch in any::<u32>(),
            attempt in any::<u32>(),
        ) {
            let request = Request {
                id: RequestId::new(id),
                user: UserId::new(user),
                sent_at_nanos: sent,
                trace_id: trace,
                parent_span: parent,
                epoch,
                attempt,
                body: ApiCall::Ping,
            };
            let bytes = encode_to_vec(&request);
            let back: Request = decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(back, request);
        }

        #[test]
        fn response_roundtrips_with_duplicate_flag(
            id in any::<u64>(),
            completed in any::<u64>(),
            duplicate in any::<bool>(),
            code in any::<i32>(),
        ) {
            let response = Response {
                id: RequestId::new(id),
                completed_at_nanos: completed,
                body: ApiReply::Error { code, message: "injected".into() },
                duplicate,
                spans: Vec::new(),
            };
            let bytes = encode_to_vec(&response);
            let back: Response = decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(back, response);
        }

        #[test]
        fn truncated_frames_are_rejected_not_misread(
            cut in any::<usize>(),
            trailing in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let request = Request {
                id: RequestId::new(7),
                user: UserId::new(3),
                sent_at_nanos: 11,
                trace_id: 5,
                parent_span: 9,
                epoch: 1,
                attempt: 2,
                body: ApiCall::WriteBuffer {
                    device: 0,
                    buffer: BufferId::new(1),
                    offset: 0,
                    data: Bytes::from(vec![0xAB; 64]),
                },
            };
            let full = encode_to_vec(&Envelope::Single(request));
            // Every strict prefix must fail to decode (the codec is
            // length-prefixed throughout — a cut frame can't silently
            // parse as a shorter valid message)…
            let cut = cut % full.len();
            prop_assert!(decode_from_slice::<Envelope>(&full[..cut]).is_err());
            // …and trailing garbage past a whole message is rejected by
            // decode_from_slice's exact-consumption check.
            if !trailing.is_empty() {
                let mut long = full.clone();
                long.extend_from_slice(&trailing);
                prop_assert!(decode_from_slice::<Envelope>(&long).is_err());
            }
        }
    }
}
