//! Pooled byte buffers for the wire path.
//!
//! [`BufferPool`] recycles the allocations frames are built in: a
//! sender checks a [`PoolBuf`] out, writes the frame's head into it, and
//! seals it into [`PooledBytes`] — plain [`bytes::Bytes`] whose storage
//! is the pool buffer, so the head and every field decoded out of it are
//! views of one allocation (a bulk blob rides beside it as a segment of
//! its own and never enters the pool). When the last view drops, the
//! allocation returns to the pool for the next frame.
//!
//! The pool is deliberately simple — a mutex-guarded free list — because
//! the hot path amortizes it across whole frames, not per chunk. It is
//! bounded in buffer count and in *total* retained capacity: bulk frames
//! recycle like small ones, and a burst of huge transfers still cannot
//! pin more than [`MAX_RETAINED_BYTES`] of idle memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use bytes::Bytes;

/// Buffers kept on the free list beyond which returns are dropped.
const MAX_POOLED_BUFFERS: usize = 64;

/// Capacity the free list may hold in total; a return that would exceed
/// it is dropped instead (so is any single buffer larger than this).
pub const MAX_RETAINED_BYTES: usize = 8 << 20;

/// An immutable, cheaply cloneable view into a (possibly pooled) byte
/// buffer: the workspace's one refcounted byte view.
pub type PooledBytes = Bytes;

/// Cumulative counters for one [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served by a recycled buffer.
    pub reuses: u64,
    /// Checkouts that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
}

#[derive(Default)]
struct FreeList {
    buffers: Vec<Vec<u8>>,
    /// Sum of the listed buffers' capacities.
    bytes: usize,
}

#[derive(Default)]
struct PoolShared {
    free: Mutex<FreeList>,
    reuses: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl PoolShared {
    fn take(&self) -> Vec<u8> {
        let recycled = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            let recycled = free.buffers.pop();
            free.bytes -= recycled.as_ref().map_or(0, Vec::capacity);
            recycled
        };
        match recycled {
            Some(mut v) => {
                v.clear();
                self.reuses.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    fn put_back(&self, v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.buffers.len() < MAX_POOLED_BUFFERS
            && free.bytes + v.capacity() <= MAX_RETAINED_BYTES
        {
            free.bytes += v.capacity();
            free.buffers.push(v);
            self.returns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A shared recycling pool of byte buffers. Cloning is cheap; clones
/// draw from the same free list.
#[derive(Clone, Default)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Checks a writable buffer out of the pool (recycled when one is
    /// free, freshly allocated otherwise).
    pub fn take(&self) -> PoolBuf {
        PoolBuf {
            data: self.shared.take(),
            pool: Arc::downgrade(&self.shared),
        }
    }

    /// Buffers currently on the free list.
    pub fn idle_buffers(&self) -> usize {
        self.free().buffers.len()
    }

    /// Capacity currently held by the free list, in bytes.
    pub fn idle_bytes(&self) -> usize {
        self.free().bytes
    }

    fn free(&self) -> std::sync::MutexGuard<'_, FreeList> {
        self.shared.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A consistent-enough snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reuses: self.shared.reuses.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            returns: self.shared.returns.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("idle", &self.idle_buffers())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A writable buffer checked out of a [`BufferPool`].
///
/// Write the frame via [`PoolBuf::bytes_mut`] (it derefs to `Vec<u8>`),
/// then [`PoolBuf::seal`] it into an immutable [`PooledBytes`] view.
/// Dropping an unsealed `PoolBuf` returns the allocation immediately.
#[derive(Debug)]
pub struct PoolBuf {
    data: Vec<u8>,
    pool: Weak<PoolShared>,
}

impl PoolBuf {
    /// The buffer to write into (starts empty).
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Freezes the written bytes into an immutable shared view. The
    /// allocation returns to the pool when the last view drops.
    pub fn seal(self) -> PooledBytes {
        Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Unsealed, or sealed and the last view gone: the allocation goes back.
/// The pool link is weak: a pool teardown must not keep in-flight frames
/// alive, and in-flight frames must not keep a dropped pool alive.
impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put_back(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_write_seal_slice() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(b"hello world");
        let bytes = buf.seal();
        assert_eq!(bytes, *b"hello world");
        let hello = bytes.slice(0..5);
        let world = bytes.slice(6..11);
        assert_eq!(hello, *b"hello");
        assert_eq!(world, *b"world");
    }

    #[test]
    fn storage_returns_to_pool_after_last_view_drops() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(&[1, 2, 3]);
        let sealed = buf.seal();
        let view = sealed.slice(1..3);
        drop(sealed);
        assert_eq!(pool.idle_buffers(), 0, "view still alive");
        drop(view);
        assert_eq!(pool.idle_buffers(), 1);
        // Next checkout reuses the allocation.
        let _again = pool.take();
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn unsealed_checkout_returns_on_drop() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().extend_from_slice(&[0; 128]);
        drop(buf);
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn bulk_buffers_recycle_within_a_total_byte_bound() {
        let pool = BufferPool::new();
        let mib = vec![0u8; 1 << 20];
        // More 1 MiB frames in flight at once than the bound retains.
        let in_flight: Vec<PooledBytes> = (0..12)
            .map(|_| {
                let mut buf = pool.take();
                buf.bytes_mut().extend_from_slice(&mib);
                buf.seal()
            })
            .collect();
        drop(in_flight);
        assert!(pool.idle_buffers() >= 1, "bulk frames must recycle");
        assert!(pool.idle_bytes() <= MAX_RETAINED_BYTES);
        // A bulk checkout is now served from the free list, and checking
        // it out releases its share of the bound.
        let idle = pool.idle_bytes();
        let again = pool.take();
        assert_eq!(pool.stats().reuses, 1);
        assert!(pool.idle_bytes() + (1 << 20) <= idle);
        drop(again);
        // One buffer larger than the whole bound is never retained.
        let before = pool.idle_buffers();
        let mut huge = pool.take();
        let idle_while_out = pool.idle_bytes();
        huge.bytes_mut()
            .extend_from_slice(&vec![0u8; MAX_RETAINED_BYTES + 1]);
        drop(huge.seal());
        assert_eq!(pool.idle_buffers(), before - 1);
        assert_eq!(pool.idle_bytes(), idle_while_out);
    }

    #[test]
    fn pool_death_detaches_outstanding_views() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.bytes_mut().push(42);
        let sealed = buf.seal();
        drop(pool);
        assert_eq!(sealed, [42u8]);
        drop(sealed); // returns nowhere, must not panic
    }
}
