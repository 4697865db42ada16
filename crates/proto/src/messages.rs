//! The message packages exchanged between host and Node Management
//! Processes.
//!
//! Every OpenCL API call that the wrapper library forwards becomes one
//! [`ApiCall`] variant; the NMP answers with an [`ApiReply`]. Buffer
//! contents travel inline as [`bytes::Bytes`] blobs — the "data packages"
//! of the paper. Timestamps on [`Request`]/[`Response`] carry the virtual
//! clock across the simulated network.

use bytes::Bytes;

use crate::ids::{BufferId, KernelId, ProgramId, RequestId, UserId};
use crate::wire::{wire_enum, wire_struct};

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

wire_enum! {
    /// The class of a compute device.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum DeviceKind {
        /// A multi-core CPU (Intel Xeon E5-2686 in the paper's cluster).
        0 => Cpu,
        /// A discrete GPU (NVIDIA Tesla P4).
        1 => Gpu,
        /// An FPGA used as a streaming processor (Xilinx VU9P).
        2 => Fpga,
    }
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

wire_struct! {
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
}

wire_enum! {
    /// Execution fidelity for a kernel launch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum Fidelity {
        /// Execute the kernel for real (results land in buffers).
        #[default]
        0 => Full,
        /// Evaluate only the cost model (paper-scale benchmarking; buffers are
        /// left untouched).
        1 => Modeled,
    }
}

wire_enum! {
    /// A kernel argument on the wire (`clSetKernelArg` payload).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum WireArg {
        /// `float` scalar.
        0 => F32(f32),
        /// `double` scalar.
        1 => F64(f64),
        /// `int` scalar.
        2 => I32(i32),
        /// `uint` scalar.
        3 => U32(u32),
        /// `long` scalar.
        4 => I64(i64),
        /// `ulong` scalar.
        5 => U64(u64),
        /// A `__global` buffer handle.
        6 => Buffer(BufferId),
        /// A dynamically-sized `__local` allocation.
        7 => LocalBytes(u64),
    }
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_enum! {
    /// One forwarded OpenCL API call (the "message package").
    #[derive(Debug, Clone, PartialEq)]
    pub enum ApiCall {
        /// Session handshake; the node answers with its device inventory.
        0 => Hello {
            /// Human-readable client name (for the node's logs).
            client: String,
        },
        /// Re-query the device inventory (`clGetDeviceIDs`).
        1 => ListDevices,
        /// `clCreateBuffer` on a device.
        2 => CreateBuffer {
            /// Target device index on the node.
            device: u8,
            /// Host-assigned cluster-unique buffer handle.
            buffer: BufferId,
            /// Size in bytes.
            size: u64,
        },
        /// `clReleaseMemObject`.
        3 => ReleaseBuffer {
            /// Target device index on the node.
            device: u8,
            /// Buffer to release.
            buffer: BufferId,
        },
        /// `clEnqueueWriteBuffer` (carries the data package inline).
        4 => WriteBuffer {
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
        5 => ReadBuffer {
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
        6 => CopyBuffer {
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
        7 => BuildProgram {
            /// Target device index on the node.
            device: u8,
            /// Host-assigned program handle.
            program: ProgramId,
            /// OpenCL C source text.
            source: String,
        },
        /// Load pre-built kernels from the node's bitstream store (FPGA path,
        /// §III-D).
        8 => LoadBitstream {
            /// Target device index on the node.
            device: u8,
            /// Host-assigned program handle.
            program: ProgramId,
            /// Kernel names expected in the store.
            kernels: Vec<String>,
        },
        /// `clCreateKernel`.
        9 => CreateKernel {
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
        10 => LaunchKernel {
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
        14 => CreateBufferModeled {
            /// Target device index on the node.
            device: u8,
            /// Host-assigned cluster-unique buffer handle.
            buffer: BufferId,
            /// Size in bytes.
            size: u64,
        },
        /// Modeled `clEnqueueWriteBuffer`: charges the PCIe transfer for
        /// `len` bytes without carrying data.
        15 => WriteBufferModeled {
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
        16 => ReadBufferModeled {
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
        17 => PushBufferTo {
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
        18 => PullBufferFrom {
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
        19 => LaunchFused {
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
        11 => QueryProfile,
        /// Inject (or lift, with `factor == 1.0`) a degradation multiplier
        /// on one of the node's devices — the fault-injection lever behind
        /// drift-detection tests and degraded-device soaks. Idempotent
        /// control call: not journaled, safe to re-execute on retry.
        20 => SetThrottle {
            /// Target device index on the node.
            device: u8,
            /// Slowdown multiplier, clamped to ≥ 1.0 device-side.
            factor: f64,
        },
        /// Tell the node it is draining out of the cluster: refuse fresh
        /// kernel launches (buffer traffic and in-flight work continue, so
        /// live migration can proceed). Idempotent control call: not
        /// journaled, safe to re-execute on retry.
        21 => BeginDrain,
        /// `clReleaseProgram`: the node forgets the program as built for
        /// one device, and every kernel handle created from it there.
        22 => ReleaseProgram {
            /// Target device index on the node.
            device: u8,
            /// Program to release.
            program: ProgramId,
        },
        /// Liveness check.
        12 => Ping,
        /// Orderly shutdown of the NMP.
        13 => Shutdown,
    }
}

/// Which of a node's two connections a request travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The message connection (control plane).
    Control,
    /// The data connection (buffer contents, §III-C's data listener).
    Data,
}

/// The rows of the call-classification table (see [`ApiCall::class`]).
#[derive(Clone, Copy)]
enum CallClass {
    /// Message connection; re-running it changes nothing. Pure queries,
    /// and the idempotent control calls (`SetThrottle`, `BeginDrain`)
    /// that are documented safe to re-execute on retry.
    ControlQuery,
    /// Message connection; establishes node state.
    ControlMutation,
    /// Data connection; reads only.
    DataQuery,
    /// Data connection; writes node state.
    DataMutation,
    /// Data connection; a host-commanded NMP→NMP hop that writes node
    /// state on one side or the other.
    PeerTransfer,
}

/// What the host and the node need to know about a call beyond its
/// bytes. Every answer bottoms out in an exhaustive `match`: a new
/// variant does not compile until it has been classified.
impl ApiCall {
    /// The classification table, one row per variant.
    fn class(&self) -> CallClass {
        match self {
            ApiCall::Hello { .. } => CallClass::ControlQuery,
            ApiCall::ListDevices => CallClass::ControlQuery,
            ApiCall::CreateBuffer { .. } => CallClass::ControlMutation,
            ApiCall::ReleaseBuffer { .. } => CallClass::ControlMutation,
            ApiCall::WriteBuffer { .. } => CallClass::DataMutation,
            ApiCall::ReadBuffer { .. } => CallClass::DataQuery,
            ApiCall::CopyBuffer { .. } => CallClass::ControlMutation,
            ApiCall::BuildProgram { .. } => CallClass::ControlMutation,
            ApiCall::LoadBitstream { .. } => CallClass::ControlMutation,
            ApiCall::CreateKernel { .. } => CallClass::ControlMutation,
            ApiCall::LaunchKernel { .. } => CallClass::ControlMutation,
            ApiCall::CreateBufferModeled { .. } => CallClass::ControlMutation,
            ApiCall::WriteBufferModeled { .. } => CallClass::DataMutation,
            ApiCall::ReadBufferModeled { .. } => CallClass::DataQuery,
            ApiCall::PushBufferTo { .. } => CallClass::PeerTransfer,
            ApiCall::PullBufferFrom { .. } => CallClass::PeerTransfer,
            ApiCall::LaunchFused { .. } => CallClass::ControlMutation,
            ApiCall::QueryProfile => CallClass::ControlQuery,
            ApiCall::SetThrottle { .. } => CallClass::ControlQuery,
            ApiCall::BeginDrain => CallClass::ControlQuery,
            ApiCall::ReleaseProgram { .. } => CallClass::ControlMutation,
            ApiCall::Ping => CallClass::ControlQuery,
            ApiCall::Shutdown => CallClass::ControlQuery,
        }
    }

    /// The connection the call travels on: buffer contents go over the
    /// data connection, everything else over the message connection.
    pub fn plane(&self) -> Plane {
        match self.class() {
            CallClass::ControlQuery | CallClass::ControlMutation => Plane::Control,
            CallClass::DataQuery | CallClass::DataMutation | CallClass::PeerTransfer => Plane::Data,
        }
    }

    /// Whether executing the call a second time would mutate node state
    /// a second time — the calls a node's at-most-once journal guards.
    pub fn mutates_node_state(&self) -> bool {
        match self.class() {
            CallClass::ControlQuery | CallClass::DataQuery => false,
            CallClass::ControlMutation | CallClass::DataMutation | CallClass::PeerTransfer => true,
        }
    }

    /// Whether the call commands an NMP→NMP transfer. The node does not
    /// answer these at once: it steps them to a hop — an inner request
    /// for the peer and what it needs to finish — and its driver, not
    /// the node, releases the node lock around the hop (the peer may be
    /// the node itself).
    pub fn is_peer_transfer(&self) -> bool {
        match self.class() {
            CallClass::PeerTransfer => true,
            CallClass::ControlQuery
            | CallClass::ControlMutation
            | CallClass::DataQuery
            | CallClass::DataMutation => false,
        }
    }

    /// Whether the host replays the call onto a failover target: every
    /// call that established node state, except peer transfers — the
    /// bytes of those never crossed the lost node's host connection, so
    /// the coherence layer journals a compensating pull for them
    /// instead.
    pub fn replayed_on_failover(&self) -> bool {
        self.mutates_node_state() && !self.is_peer_transfer()
    }

    /// The size of the data package a modeled bulk write stands in for,
    /// charged on the host's link next to the descriptor that is really
    /// sent. Peer-transfer commands stay at zero: their bulk bytes are
    /// charged on the NMP→NMP hop, not the host's NIC — that is the
    /// whole point of them.
    pub fn virtual_len(&self) -> u64 {
        match self {
            ApiCall::WriteBufferModeled { len, .. } => *len,
            ApiCall::Hello { .. }
            | ApiCall::ListDevices
            | ApiCall::CreateBuffer { .. }
            | ApiCall::ReleaseBuffer { .. }
            | ApiCall::WriteBuffer { .. }
            | ApiCall::ReadBuffer { .. }
            | ApiCall::CopyBuffer { .. }
            | ApiCall::BuildProgram { .. }
            | ApiCall::LoadBitstream { .. }
            | ApiCall::CreateKernel { .. }
            | ApiCall::LaunchKernel { .. }
            | ApiCall::CreateBufferModeled { .. }
            | ApiCall::ReadBufferModeled { .. }
            | ApiCall::PushBufferTo { .. }
            | ApiCall::PullBufferFrom { .. }
            | ApiCall::LaunchFused { .. }
            | ApiCall::QueryProfile
            | ApiCall::SetThrottle { .. }
            | ApiCall::BeginDrain
            | ApiCall::ReleaseProgram { .. }
            | ApiCall::Ping
            | ApiCall::Shutdown => 0,
        }
    }

    /// The wire form of one dispatch of `parts`: a lone kernel travels
    /// as `LaunchKernel`, a chain of two or more as `LaunchFused`.
    pub fn launch(
        device: u8,
        fidelity: Fidelity,
        shared: bool,
        parts: Vec<WireLaunchPart>,
    ) -> Self {
        match <[WireLaunchPart; 1]>::try_from(parts) {
            Ok([part]) => ApiCall::LaunchKernel {
                device,
                kernel: part.kernel,
                args: part.args,
                range: part.range,
                cost: part.cost,
                fidelity,
                shared,
            },
            Err(parts) => ApiCall::LaunchFused {
                device,
                fidelity,
                shared,
                parts,
            },
        }
    }

    /// The dispatch a launch call carries, whichever of the two wire
    /// forms it arrived in ([`ApiCall::launch`] read backwards); any
    /// other call is handed back. A lone kernel's fields move into a
    /// one-element array, so the common case allocates nothing.
    ///
    /// # Errors
    ///
    /// The call itself, when it is not a launch.
    pub fn into_launch(self) -> Result<WireLaunch, ApiCall> {
        match self {
            ApiCall::LaunchKernel {
                device,
                kernel,
                args,
                range,
                cost,
                fidelity,
                shared,
            } => Ok(WireLaunch {
                device,
                fidelity,
                shared,
                parts: WireLaunchParts::Lone([WireLaunchPart {
                    kernel,
                    args,
                    range,
                    cost,
                }]),
            }),
            ApiCall::LaunchFused {
                device,
                fidelity,
                shared,
                parts,
            } => Ok(WireLaunch {
                device,
                fidelity,
                shared,
                parts: WireLaunchParts::Fused(parts),
            }),
            other @ (ApiCall::Hello { .. }
            | ApiCall::ListDevices
            | ApiCall::CreateBuffer { .. }
            | ApiCall::ReleaseBuffer { .. }
            | ApiCall::WriteBuffer { .. }
            | ApiCall::ReadBuffer { .. }
            | ApiCall::CopyBuffer { .. }
            | ApiCall::BuildProgram { .. }
            | ApiCall::LoadBitstream { .. }
            | ApiCall::CreateKernel { .. }
            | ApiCall::CreateBufferModeled { .. }
            | ApiCall::WriteBufferModeled { .. }
            | ApiCall::ReadBufferModeled { .. }
            | ApiCall::PushBufferTo { .. }
            | ApiCall::PullBufferFrom { .. }
            | ApiCall::QueryProfile
            | ApiCall::SetThrottle { .. }
            | ApiCall::BeginDrain
            | ApiCall::ReleaseProgram { .. }
            | ApiCall::Ping
            | ApiCall::Shutdown) => Err(other),
        }
    }
}

/// One kernel dispatch as the node executes it: the device-level
/// settings and the constituent launches, in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct WireLaunch {
    /// Target device index on the node.
    pub device: u8,
    /// Execute fully or model-only.
    pub fidelity: Fidelity,
    /// Whether the device may be time-shared with other users.
    pub shared: bool,
    /// The constituent launches.
    pub parts: WireLaunchParts,
}

/// The parts of a [`WireLaunch`]; dereferences to the slice of them.
#[derive(Debug, Clone, PartialEq)]
pub enum WireLaunchParts {
    /// Arrived as `LaunchKernel`: exactly one part, held inline.
    Lone([WireLaunchPart; 1]),
    /// Arrived as `LaunchFused`: the frame's part list as decoded (a
    /// well-formed sender puts at least two in it).
    Fused(Vec<WireLaunchPart>),
}

impl std::ops::Deref for WireLaunchParts {
    type Target = [WireLaunchPart];

    fn deref(&self) -> &[WireLaunchPart] {
        match self {
            WireLaunchParts::Lone(part) => part,
            WireLaunchParts::Fused(parts) => parts,
        }
    }
}

wire_enum! {
    /// A reply to an [`ApiCall`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum ApiReply {
        /// Operation completed.
        0 => Ack,
        /// Operation failed.
        1 => Error {
            /// An OpenCL status code (see [`status`]).
            code: i32,
            /// Human-readable details.
            message: String,
        },
        /// Device inventory (reply to `Hello`/`ListDevices`).
        2 => NodeInfo {
            /// The node's devices.
            devices: Vec<DeviceDescriptor>,
        },
        /// Buffer contents (reply to `ReadBuffer`).
        3 => Data {
            /// The bytes read.
            bytes: Bytes,
        },
        /// Build outcome (reply to `BuildProgram`/`LoadBitstream`).
        4 => BuildLog {
            /// Whether the build succeeded.
            ok: bool,
            /// Compiler/loader log text.
            log: String,
            /// Static-analysis summary per kernel (empty when the node's
            /// toolchain does not run the analyzer, e.g. bitstream loads).
            reports: Vec<WireKernelReport>,
        },
        /// Launch outcome with device-side virtual timing.
        5 => LaunchDone {
            /// Virtual time the kernel started on the device.
            start_nanos: u64,
            /// Virtual time the kernel finished.
            end_nanos: u64,
            /// Bytecode instructions retired (0 in modeled fidelity).
            instructions: u64,
        },
        /// Node profile (reply to `QueryProfile`).
        6 => Profile {
            /// Per-device, per-kernel timing records.
            entries: Vec<ProfileEntry>,
        },
        /// Liveness answer.
        7 => Pong {
            /// The node's current virtual time.
            now_nanos: u64,
        },
        /// Kernel metadata (reply to `CreateKernel`).
        8 => KernelInfo {
            /// Number of arguments the kernel takes.
            arity: u32,
        },
        /// A modeled data package: stands in for `len` bytes on the return
        /// path (reply to `ReadBufferModeled`). The response frame is charged
        /// on the link as if it carried the data.
        9 => DataModeled {
            /// Bytes the modeled payload stands in for.
            len: u64,
        },
    }
}

wire_struct! {
    /// Static-analysis summary of one built kernel, produced by the device
    /// node's compiler and forwarded in [`ApiReply::BuildLog`], where the
    /// host's build log, `haocl-lint` and launch-graph fusion read it.
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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

wire_struct! {
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
}

wire_enum! {
    /// What one host→node frame carries: exactly one [`Request`], on
    /// either plane. The node answers it with one [`Response`] frame.
    ///
    /// Tag 1 was `Batch(Vec<Request>)` (several control messages in one
    /// frame) until PR 23; it is retired, never reused, and refused by the
    /// decoder like any unknown tag. The one-variant wrapper stays so that
    /// no wire byte moves.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Envelope {
        /// The request. (The variant name survives only because
        /// `benchmark/` spells it; it leaves with ROADMAP item 1(a).)
        0 => Single(Request),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        decode_from_bytes, decode_from_segments, decode_from_slice, encode_segmented,
        encode_to_vec, Decode, Encode, WireError,
    };

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    /// `value`'s segments in payload order: the head cut at each blob's
    /// offset, the blob between the cuts.
    pub(super) fn segments_of<T: Encode>(value: &T) -> Vec<Bytes> {
        let (mut head, mut blobs) = (Vec::new(), Vec::new());
        encode_segmented(value, &mut head, &mut blobs);
        let head = Bytes::from(head);
        let mut segments = Vec::new();
        let mut at = 0;
        for (offset, blob) in blobs {
            segments.push(head.slice(at..offset));
            segments.push(blob);
            at = offset;
        }
        segments.push(head.slice(at..head.len()));
        segments
    }

    /// The segments' bytes, end to end.
    pub(super) fn joined(segments: &[Bytes]) -> Vec<u8> {
        segments.iter().flat_map(|s| s.iter().copied()).collect()
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
            ApiCall::ReleaseProgram {
                device: 1,
                program: ProgramId::new(1),
            },
        ]
    }

    #[test]
    fn every_api_call_roundtrips() {
        for call in every_api_call() {
            roundtrip(call);
        }
    }

    /// The classification every layer above relies on, pinned variant by
    /// variant: (plane, node journals it, peer transfer, host replays it
    /// on failover).
    #[test]
    fn every_api_call_is_classified() {
        use Plane::{Control, Data};
        let expected = [
            ("Hello", Control, false, false, false),
            ("ListDevices", Control, false, false, false),
            ("CreateBuffer", Control, true, false, true),
            ("ReleaseBuffer", Control, true, false, true),
            ("WriteBuffer", Data, true, false, true),
            ("ReadBuffer", Data, false, false, false),
            ("CopyBuffer", Control, true, false, true),
            ("BuildProgram", Control, true, false, true),
            ("LoadBitstream", Control, true, false, true),
            ("CreateKernel", Control, true, false, true),
            ("LaunchKernel", Control, true, false, true),
            ("QueryProfile", Control, false, false, false),
            ("Ping", Control, false, false, false),
            ("Shutdown", Control, false, false, false),
            ("CreateBufferModeled", Control, true, false, true),
            ("WriteBufferModeled", Data, true, false, true),
            ("ReadBufferModeled", Data, false, false, false),
            ("PushBufferTo", Data, true, true, false),
            ("PullBufferFrom", Data, true, true, false),
            ("LaunchFused", Control, true, false, true),
            ("SetThrottle", Control, false, false, false),
            ("BeginDrain", Control, false, false, false),
            ("ReleaseProgram", Control, true, false, true),
        ];
        let calls = every_api_call();
        assert_eq!(calls.len(), expected.len());
        for (call, (name, plane, mutates, peer, replayed)) in calls.iter().zip(expected) {
            assert_eq!(variant_name(call), name);
            assert_eq!(call.plane(), plane, "{name}: plane");
            assert_eq!(call.mutates_node_state(), mutates, "{name}: mutates state");
            assert_eq!(call.is_peer_transfer(), peer, "{name}: peer transfer");
            assert_eq!(call.replayed_on_failover(), replayed, "{name}: replayed");
            // The host's replay set is the node's journal set minus the
            // peer transfers — for every variant, not just today's.
            assert_eq!(
                call.replayed_on_failover(),
                call.mutates_node_state() && !call.is_peer_transfer(),
                "{name}"
            );
            let modeled_write = matches!(call, ApiCall::WriteBufferModeled { .. });
            assert_eq!(
                call.virtual_len() != 0,
                modeled_write,
                "{name}: virtual len"
            );
        }
    }

    #[test]
    fn a_launch_reads_the_same_from_either_wire_form() {
        for call in every_api_call() {
            let launch = match call.clone().into_launch() {
                Ok(launch) => launch,
                Err(back) => {
                    assert_eq!(back, call, "a non-launch call is handed back whole");
                    continue;
                }
            };
            let lone = matches!(call, ApiCall::LaunchKernel { .. });
            assert_eq!(matches!(launch.parts, WireLaunchParts::Lone(_)), lone);
            assert_eq!(launch.parts.len(), if lone { 1 } else { 2 });
            // `launch` picks the form back from the part count alone.
            let rebuilt = ApiCall::launch(
                launch.device,
                launch.fidelity,
                launch.shared,
                launch.parts.to_vec(),
            );
            assert_eq!(rebuilt, call);
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

    /// The framing samples of the golden corpus: a plain request, a
    /// traced retransmission, a response carrying node spans, and the
    /// envelope.
    fn golden_frames() -> (Request, Request, Response, Envelope) {
        let calls = every_api_call();
        let body_of = |want: fn(&ApiCall) -> bool| {
            calls
                .iter()
                .find(|c| want(c))
                .expect("variant sampled")
                .clone()
        };
        let plain = Request {
            id: RequestId::new(0x0102_0304_0506_0708),
            user: UserId::new(9),
            sent_at_nanos: 1_000_000,
            trace_id: 0,
            parent_span: 0,
            epoch: 0,
            attempt: 0,
            body: body_of(|c| matches!(c, ApiCall::LaunchKernel { .. })),
        };
        let traced = Request {
            id: RequestId::new(0x1112_1314_1516_1718),
            user: UserId::new(3),
            sent_at_nanos: 2_000_000,
            trace_id: 0x1122,
            parent_span: 0x3344,
            epoch: 2,
            attempt: 1,
            body: body_of(|c| matches!(c, ApiCall::LaunchFused { .. })),
        };
        let response = Response {
            id: RequestId::new(0x1112_1314_1516_1718),
            completed_at_nanos: 2_500_000,
            body: ApiReply::LaunchDone {
                start_nanos: 2_100_000,
                end_nanos: 2_400_000,
                instructions: 4242,
            },
            duplicate: true,
            spans: vec![
                WireSpan {
                    id: (1 << 63) | 64,
                    parent: 0x3344,
                    name: "nmp.dispatch".into(),
                    category: "Dispatch".into(),
                    start_nanos: 2_050_000,
                    end_nanos: 2_400_000,
                    wall_nanos: 1_830,
                },
                WireSpan {
                    id: (1 << 63) | 65,
                    parent: (1 << 63) | 64,
                    name: "vm.run".into(),
                    category: "Compute".into(),
                    start_nanos: 2_100_000,
                    end_nanos: 2_400_000,
                    wall_nanos: 0,
                },
            ],
        };
        let single = Envelope::Single(plain.clone());
        (plain, traced, response, single)
    }

    /// `ApiCall::LaunchKernel { .. }` → `LaunchKernel`.
    fn variant_name(value: &impl std::fmt::Debug) -> String {
        let debug = format!("{value:?}");
        debug
            .split(|c: char| !c.is_alphanumeric())
            .next()
            .expect("split yields at least one piece")
            .to_string()
    }

    /// Checks the next corpus line against `value`: same label, the
    /// encoder still produces the recorded bytes — contiguous, and as
    /// segments that concatenate to them — and the recorded bytes and the
    /// segments still decode to the value.
    fn check_golden<T: Encode + Decode + PartialEq + std::fmt::Debug>(
        lines: &mut std::str::Lines<'_>,
        label: &str,
        value: T,
    ) {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("corpus ends before {label}"));
        let (recorded, hex) = line.split_once(' ').expect("`label hex` line");
        assert_eq!(recorded, label, "corpus order");
        let golden = unhex(hex);
        assert_eq!(encode_to_vec(&value), golden, "{label}: encoding moved");
        let segments = segments_of(&value);
        assert_eq!(joined(&segments), golden, "{label}: segments moved");
        assert_eq!(
            decode_from_segments::<T>(segments).as_ref(),
            Ok(&value),
            "{label}: decoding the segments moved"
        );
        assert_eq!(
            decode_from_bytes::<T>(golden.into()),
            Ok(value),
            "{label}: decoding moved"
        );
    }

    /// Every message form against `fixtures/wire_golden.txt`, which was
    /// written by the hand-rolled codecs this module had before its
    /// messages were declared through `wire_struct!`/`wire_enum!`: what
    /// goes on the wire must not move.
    #[test]
    fn every_message_encodes_to_the_golden_corpus() {
        let mut lines = include_str!("../fixtures/wire_golden.txt").lines();
        for call in every_api_call() {
            let label = format!("ApiCall::{}", variant_name(&call));
            check_golden(&mut lines, &label, call);
        }
        for reply in every_api_reply() {
            let label = format!("ApiReply::{}", variant_name(&reply));
            check_golden(&mut lines, &label, reply);
        }
        let (plain, traced, response, single) = golden_frames();
        check_golden(&mut lines, "Request", plain);
        check_golden(&mut lines, "Request.traced", traced);
        check_golden(&mut lines, "Response.spans", response);
        check_golden(&mut lines, "Envelope::Single", single);
        assert_eq!(lines.next(), None, "corpus has unchecked lines");
    }

    /// `fixtures/wire_retired.txt` holds frames this module once produced
    /// and must never accept again: the `Envelope::Batch` line is the
    /// three-request batch of the golden corpus, byte for byte.
    #[test]
    fn retired_envelope_batch_tag_does_not_decode() {
        let mut lines = include_str!("../fixtures/wire_retired.txt").lines();
        let (label, hex) = lines
            .next()
            .and_then(|line| line.split_once(' '))
            .expect("`label hex` line");
        assert_eq!(label, "Envelope::Batch");
        assert_eq!(
            decode_from_bytes::<Envelope>(unhex(hex).into()),
            Err(WireError::InvalidTag {
                what: "Envelope",
                tag: 1
            })
        );
        assert_eq!(lines.next(), None, "corpus has unchecked lines");
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
    fn status_codes_match_opencl_values() {
        assert_eq!(status::SUCCESS, 0);
        assert_eq!(status::INVALID_VALUE, -30);
        assert_eq!(status::BUILD_PROGRAM_FAILURE, -11);
        assert_eq!(status::INVALID_KERNEL_NAME, -46);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{every_api_call, every_api_reply, joined, segments_of};
    use super::*;
    use crate::wire::{
        decode_from_bytes, decode_from_segments, decode_from_slice, encode_to_vec, Decode, Encode,
        WireError,
    };
    use proptest::prelude::*;

    /// A write request carrying `data` and a read reply carrying `reply`:
    /// each a bulk field behind fixed-width ones.
    fn bulk_pair(id: u64, data: Vec<u8>, reply: Vec<u8>) -> (Envelope, Response) {
        let request = Envelope::Single(Request {
            id: RequestId::new(id),
            user: UserId::new(3),
            sent_at_nanos: id ^ 0x5555,
            trace_id: 0,
            parent_span: 0,
            epoch: 1,
            attempt: 0,
            body: ApiCall::WriteBuffer {
                device: 1,
                buffer: BufferId::new(id),
                offset: 8,
                data: Bytes::from(data),
            },
        });
        let response = Response {
            id: RequestId::new(id),
            completed_at_nanos: 77,
            body: ApiReply::Data {
                bytes: Bytes::from(reply),
            },
            duplicate: false,
            spans: Vec::new(),
        };
        (request, response)
    }

    /// `wire` cut at each of `cuts` (taken modulo its length + 1).
    fn cut(wire: &[u8], cuts: &[usize]) -> Vec<Bytes> {
        let wire = Bytes::copy_from_slice(wire);
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        at.sort_unstable();
        let mut segments = Vec::new();
        let mut start = 0;
        for end in at {
            segments.push(wire.slice(start..end));
            start = end;
        }
        segments.push(wire.slice(start..wire.len()));
        segments
    }

    /// The segments and the contiguous bytes of `value` agree, and any
    /// other cut of those bytes decodes to the same value or is refused
    /// as a straddled value.
    fn segmented_decodes_agree<T: Encode + Decode + PartialEq + std::fmt::Debug>(
        value: &T,
        cuts: &[usize],
    ) -> Result<(), TestCaseError> {
        let wire = encode_to_vec(value);
        let segments = segments_of(value);
        prop_assert_eq!(joined(&segments), wire.clone());
        prop_assert_eq!(
            decode_from_segments::<T>(segments),
            decode_from_slice::<T>(&wire)
        );
        match decode_from_segments::<T>(cut(&wire, cuts)) {
            Ok(back) => prop_assert_eq!(&back, value),
            Err(e) => prop_assert!(matches!(e, WireError::Straddles { .. }), "{:?}", e),
        }
        Ok(())
    }

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
        fn garbage_never_panics(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let _ = decode_from_slice::<ApiCall>(&data);
            let _ = decode_from_slice::<ApiReply>(&data);
            let _ = decode_from_slice::<Request>(&data);
            let _ = decode_from_slice::<Response>(&data);
            let _ = decode_from_slice::<Envelope>(&data);
            let _ = decode_from_segments::<Envelope>(cut(&data, &cuts));
            let _ = decode_from_segments::<Response>(cut(&data, &cuts));
        }

        #[test]
        fn segments_concatenate_to_the_contiguous_bytes_and_decode_alike(
            id in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            reply in proptest::collection::vec(any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(any::<usize>(), 1..6),
        ) {
            let (request, response) = bulk_pair(id, data, reply);
            // Head, blob, head: the blob is its own segment.
            prop_assert_eq!(segments_of(&request).len(), 3);
            segmented_decodes_agree(&request, &cuts)?;
            segmented_decodes_agree(&response, &cuts)?;
            for call in every_api_call() {
                segmented_decodes_agree(&call, &cuts)?;
            }
            for reply in every_api_reply() {
                segmented_decodes_agree(&reply, &cuts)?;
            }
        }

        #[test]
        fn a_boundary_inside_a_scalar_is_refused(
            id in any::<u64>(),
            inside in 1usize..8,
        ) {
            let (request, response) = bulk_pair(id, vec![1, 2, 3], vec![4]);
            // The request id is the eight bytes after the envelope's tag;
            // the response id leads the response.
            let wire = encode_to_vec(&request);
            prop_assert_eq!(
                decode_from_segments::<Envelope>(cut(&wire, &[1 + inside])),
                Err(WireError::Straddles { what: "u64" })
            );
            let wire = encode_to_vec(&response);
            prop_assert_eq!(
                decode_from_segments::<Response>(cut(&wire, &[inside])),
                Err(WireError::Straddles { what: "u64" })
            );
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
