//! `cl_event` objects with virtual-time profiling.

use std::sync::Arc;

use haocl_sim::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::error::Error;

/// What an event measured (`CL_COMMAND_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandType {
    /// `clEnqueueWriteBuffer`.
    WriteBuffer,
    /// `clEnqueueReadBuffer`.
    ReadBuffer,
    /// `clEnqueueCopyBuffer`.
    CopyBuffer,
    /// `clEnqueueNDRangeKernel`.
    NdRangeKernel,
}

/// Resolved profiling data (`CL_PROFILING_COMMAND_QUEUED/START/END`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Profile {
    pub(crate) queued: SimTime,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) instructions: u64,
}

/// Deferred completion: blocks on the backbone response and performs the
/// command's post-completion bookkeeping exactly once.
type Resolver = Box<dyn FnOnce() -> Result<Profile, Error> + Send>;

enum EventState {
    /// Submitted to the backbone; the response has not been observed yet.
    /// The resolver is taken (and the slot left `None`) only for the
    /// instant it runs under the state lock.
    Pending(Option<Resolver>),
    /// Completed successfully.
    Ready(Profile),
    /// The command failed; every later observation returns this error.
    Failed(Error),
}

struct EventInner {
    command: CommandType,
    state: Mutex<EventState>,
}

/// A command's completion handle with OpenCL-style profiling info.
///
/// Synchronous commands (transfers, copies) are complete by the time the
/// enqueue returns. Kernel launches ride the pipelined backbone: the
/// enqueue returns immediately and the event *resolves* — blocking until
/// the NMP's response arrives — the first time its outcome is observed,
/// via [`Event::wait`], a profiling accessor, or a dependent operation
/// on a buffer the launch may have written.
#[derive(Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// An already-complete event (synchronous commands).
    pub(crate) fn new(
        command: CommandType,
        queued: SimTime,
        start: SimTime,
        end: SimTime,
        instructions: u64,
    ) -> Self {
        Event {
            inner: Arc::new(EventInner {
                command,
                state: Mutex::new(EventState::Ready(Profile {
                    queued,
                    start,
                    end,
                    instructions,
                })),
            }),
        }
    }

    /// An in-flight event. `resolve` runs exactly once, on the first
    /// observation, and must block until the command's response arrives.
    pub(crate) fn pending(
        command: CommandType,
        resolve: impl FnOnce() -> Result<Profile, Error> + Send + 'static,
    ) -> Self {
        Event {
            inner: Arc::new(EventInner {
                command,
                state: Mutex::new(EventState::Pending(Some(Box::new(resolve)))),
            }),
        }
    }

    /// Blocks until the command completes (`clWaitForEvents`), surfacing
    /// the failure if the command errored asynchronously.
    ///
    /// # Errors
    ///
    /// The command's failure, with its OpenCL status for remote API
    /// errors. Waiting again returns the same error.
    pub fn wait(&self) -> Result<(), Error> {
        self.resolve().map(|_| ())
    }

    /// Whether the command has already been observed to complete —
    /// `false` for an in-flight launch. Never blocks.
    pub fn is_resolved(&self) -> bool {
        !matches!(&*self.inner.state.lock(), EventState::Pending(_))
    }

    /// [`Event::is_resolved`], as far as can be told right now: an event
    /// another thread is resolving at this moment reads as unsettled
    /// instead of blocking the caller until that wait ends.
    pub(crate) fn is_settled(&self) -> bool {
        self.inner
            .state
            .try_lock()
            .is_some_and(|st| !matches!(&*st, EventState::Pending(_)))
    }

    fn resolve(&self) -> Result<Profile, Error> {
        let mut st = self.inner.state.lock();
        if let EventState::Pending(resolver) = &mut *st {
            let resolver = resolver.take().expect("event resolver ran twice");
            let result = resolver();
            *st = match &result {
                Ok(p) => EventState::Ready(*p),
                Err(e) => EventState::Failed(e.clone()),
            };
            return result;
        }
        match &*st {
            EventState::Ready(p) => Ok(*p),
            EventState::Failed(e) => Err(e.clone()),
            EventState::Pending(_) => unreachable!("pending handled above"),
        }
    }

    /// Resolves for a profiling accessor; a failed command has no
    /// profiling data to report.
    fn profile(&self) -> Profile {
        self.resolve().unwrap_or_else(|e| {
            panic!("no profiling info: command failed ({e}); check Event::wait() first")
        })
    }

    /// What this event measured.
    pub fn command_type(&self) -> CommandType {
        self.inner.command
    }

    /// When the command was enqueued (`CL_PROFILING_COMMAND_QUEUED`).
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn queued_at(&self) -> SimTime {
        self.profile().queued
    }

    /// When execution started on the device
    /// (`CL_PROFILING_COMMAND_START`). Blocks until the command
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn started_at(&self) -> SimTime {
        self.profile().start
    }

    /// When execution finished on the device
    /// (`CL_PROFILING_COMMAND_END`). Blocks until the command completes.
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn finished_at(&self) -> SimTime {
        self.profile().end
    }

    /// Device execution time (`END − START`). Blocks until the command
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn duration(&self) -> SimDuration {
        let p = self.profile();
        p.end - p.start
    }

    /// Queueing delay before the device picked the command up. Blocks
    /// until the command completes.
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn queueing_delay(&self) -> SimDuration {
        let p = self.profile();
        p.start.saturating_duration_since(p.queued)
    }

    /// Bytecode instructions retired (kernel launches in full fidelity;
    /// zero otherwise). Blocks until the command completes.
    ///
    /// # Panics
    ///
    /// Panics if the command failed; observe errors with [`Event::wait`].
    pub fn instructions(&self) -> u64 {
        self.profile().instructions
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.inner.state.lock() {
            EventState::Pending(_) => write!(f, "Event({:?}, pending)", self.inner.command),
            EventState::Ready(p) => write!(
                f,
                "Event({:?}, queued {} start {} end {})",
                self.inner.command, p.queued, p.start, p.end
            ),
            EventState::Failed(e) => write!(f, "Event({:?}, failed: {e})", self.inner.command),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Status;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn profiling_accessors() {
        let e = Event::new(
            CommandType::NdRangeKernel,
            SimTime::from_nanos(10),
            SimTime::from_nanos(30),
            SimTime::from_nanos(100),
            42,
        );
        assert_eq!(e.command_type(), CommandType::NdRangeKernel);
        assert_eq!(e.queued_at(), SimTime::from_nanos(10));
        assert_eq!(e.duration(), SimDuration::from_nanos(70));
        assert_eq!(e.queueing_delay(), SimDuration::from_nanos(20));
        assert_eq!(e.instructions(), 42);
        assert!(e.is_resolved());
    }

    #[test]
    fn clone_shares_data() {
        let e = Event::new(
            CommandType::ReadBuffer,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_nanos(5),
            0,
        );
        let f = e.clone();
        assert_eq!(f.finished_at(), e.finished_at());
    }

    #[test]
    fn pending_event_resolves_exactly_once() {
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let e = Event::pending(CommandType::NdRangeKernel, || {
            RUNS.fetch_add(1, Ordering::SeqCst);
            Ok(Profile {
                queued: SimTime::ZERO,
                start: SimTime::from_nanos(1),
                end: SimTime::from_nanos(9),
                instructions: 3,
            })
        });
        assert!(!e.is_resolved());
        let f = e.clone();
        e.wait().unwrap();
        assert!(e.is_resolved());
        // The clone observes the cached profile; the resolver is spent.
        assert_eq!(f.duration(), SimDuration::from_nanos(8));
        assert_eq!(f.instructions(), 3);
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_event_keeps_its_error() {
        let e = Event::pending(CommandType::NdRangeKernel, || {
            Err(Error::api(Status::InvalidOperation, "virtual buffer"))
        });
        let err = e.wait().unwrap_err();
        assert_eq!(err.status(), Some(Status::InvalidOperation));
        // A second wait observes the same stored failure.
        let again = e.wait().unwrap_err();
        assert_eq!(again.status(), Some(Status::InvalidOperation));
        assert!(e.is_resolved());
    }
}
