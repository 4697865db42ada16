//! Wire protocol for the HaoCL cluster runtime.
//!
//! The paper's wrapper library turns every OpenCL API call into a
//! *message package* — function name plus arguments — and ships buffer
//! contents as *data packages* (§III-B). This crate is that protocol:
//!
//! * [`ids`] — cluster-wide identifier newtypes ([`NodeId`],
//!   [`BufferId`], …) so a buffer handle can never be confused with a
//!   kernel handle at compile time,
//! * [`wire`] — a compact, hand-rolled binary codec ([`wire::Encode`] /
//!   [`wire::Decode`]) over [`bytes`], with roundtrip property tests,
//! * [`messages`] — the [`messages::ApiCall`] /
//!   [`messages::ApiReply`] message set covering every forwarded OpenCL
//!   operation, plus device descriptors and status codes.
//!
//! # Examples
//!
//! ```
//! use haocl_proto::ids::{BufferId, RequestId, UserId};
//! use haocl_proto::messages::{ApiCall, Request};
//! use haocl_proto::wire::{decode_from_slice, encode_to_vec};
//!
//! let req = Request {
//!     id: RequestId::new(7),
//!     user: UserId::new(1),
//!     sent_at_nanos: 123,
//!     trace_id: 0,
//!     parent_span: 0,
//!     epoch: 0,
//!     attempt: 0,
//!     body: ApiCall::CreateBuffer {
//!         device: 0,
//!         buffer: BufferId::new(42),
//!         size: 4096,
//!     },
//! };
//! let bytes = encode_to_vec(&req);
//! let back: Request = decode_from_slice(&bytes)?;
//! assert_eq!(back, req);
//! # Ok::<(), haocl_proto::wire::WireError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ids;
pub mod messages;
pub mod wire;

pub use ids::{BufferId, EventId, KernelId, NodeId, ProgramId, QueueId, RequestId, UserId};
pub use messages::{
    ApiCall, ApiReply, DeviceDescriptor, DeviceKind, Envelope, Request, Response, WireSpan,
};
pub use wire::{Decode, Encode, WireError};

/// The data-package type: every bulk field of a message is one.
pub use bytes::Bytes;
