//! Virtual-time simulation substrate for the HaoCL framework.
//!
//! The HaoCL paper evaluates on a 20-node Alibaba Cloud cluster of GPUs and
//! FPGAs connected by Gigabit Ethernet. This reproduction runs on a single
//! machine, so *time* — device compute time, link transfer time, queueing
//! delay — is modelled with a deterministic virtual clock rather than
//! measured from silicon. This crate provides the pieces every other HaoCL
//! crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual
//!   timestamps and spans.
//! * [`Resource`] — a serialized resource (a device, a NIC, an Ethernet
//!   link) that admits one operation at a time and tracks `busy_until`.
//! * [`Clock`] — a shared monotonic virtual clock.
//! * [`trace`] — phase tracing used by the Fig. 3 breakdown analysis
//!   (data-create / data-transfer / compute phases).
//! * [`rng`] — deterministic seed-derivation helpers so every experiment is
//!   reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use haocl_sim::{Clock, Resource, SimDuration};
//!
//! let clock = Clock::new();
//! let mut link = Resource::new("eth0");
//! // Two back-to-back transfers serialize on the link.
//! let first = link.acquire(clock.now(), SimDuration::from_micros(10));
//! let second = link.acquire(clock.now(), SimDuration::from_micros(10));
//! assert_eq!(second.end - first.end, SimDuration::from_micros(10));
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;

pub use clock::Clock;
pub use resource::{Grant, Resource};
pub use time::{SimDuration, SimTime};
pub use trace::{Phase, PhaseBreakdown, Tracer};
