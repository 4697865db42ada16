//! Offline drop-in subset of the `crossbeam` crate.
//!
//! Provides `crossbeam::channel` — an unbounded MPMC channel with
//! disconnect tracking — which is the only piece of crossbeam the HaoCL
//! workspace uses (the in-process network fabric's per-connection
//! queues). Backed by a `Mutex<VecDeque>` + `Condvar`; throughput is far
//! below real crossbeam's but the fabric moves whole frames, not bytes,
//! so the queue is never the bottleneck in the virtual-time simulation.
//! A send only signals the condition variable when a receiver is parked
//! on it: `Condvar::notify_one` is a system call even with nobody to
//! wake, and most sends find the receiver busy or not yet waiting.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Queue<T> {
        items: VecDeque<T>,
        /// Receivers blocked on `ready` right now.
        parked: usize,
    }

    struct Inner<T> {
        queue: Mutex<Queue<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    ///
    /// Carries the unsent value back to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the deadline.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// The sending half of an unbounded channel. Cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable (MPMC).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                parked: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.items.push_back(value);
            // Read under the lock a receiver parks under: it either saw
            // the item before parking or is counted here.
            let wake = queue.parked > 0;
            drop(queue);
            if wake {
                self.inner.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect instead of sleeping forever. Taking the
                // lock orders this after any receiver's check-then-park.
                drop(self.inner.queue.lock().unwrap_or_else(|e| e.into_inner()));
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = queue.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue.parked += 1;
                queue = self
                    .inner
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
                queue.parked -= 1;
            }
        }

        /// Returns a message if one is queued right now.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = queue.items.pop_front() {
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = queue.items.pop_front() {
                    return Ok(v);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue.parked += 1;
                let (guard, _timed_out) = self
                    .inner
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
                queue.parked -= 1;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn disconnect_on_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn timeout_elapses() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
        }

        #[test]
        fn sends_to_a_busy_receiver_are_kept_and_a_parked_one_is_woken() {
            let (tx, rx) = unbounded();
            // Nobody parked: these sends signal nobody and lose nothing.
            for i in 0..3 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.inner.queue.lock().unwrap().parked, 0);
            let h = std::thread::spawn(move || (0..4).map(|_| rx.recv().unwrap()).sum::<i32>());
            // The fourth is sent once the receiver has drained the
            // backlog and parked, so this send has to wake it.
            while tx.inner.queue.lock().unwrap().parked == 0 {
                std::thread::yield_now();
            }
            tx.send(10).unwrap();
            assert_eq!(h.join().unwrap(), 13);
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(10));
            tx.send(42u64).unwrap();
            assert_eq!(h.join().unwrap(), Ok(42));
        }
    }
}
