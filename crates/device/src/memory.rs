//! Per-device buffer store with capacity accounting.
//!
//! Device memory is copy-on-write: [`MemoryManager::read`] hands out a
//! [`Bytes`] view of the backing itself, and a write, copy or launch on a
//! backing that still has a view outstanding copies it first, so a view
//! never sees a later write. A reply's view lives as long as the frame
//! carrying it; once the reader lets go, nothing is copied.
//!
//! A whole-buffer write whose payload is a vector's storage — the host's
//! shadow — is kept as the backing rather than copied in
//! ([`MemoryManager::write_payload`]); the host may go on sharing it,
//! and the first mutation takes it over, copying only if someone still
//! does. A buffer gets storage of its own at its first touch.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use haocl_kernel::GlobalBuffer;
use haocl_proto::ids::BufferId;
use haocl_proto::Bytes;

/// A device memory allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// A data-carrying operation touched a virtual (modeled) buffer.
    VirtualBuffer(BufferId),
    /// The allocation would exceed device capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// The buffer handle is unknown on this device.
    UnknownBuffer(BufferId),
    /// The handle is already allocated on this device.
    DuplicateBuffer(BufferId),
    /// An access fell outside a buffer.
    OutOfBounds {
        /// The buffer accessed.
        buffer: BufferId,
        /// Byte offset requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Actual buffer size.
        size: u64,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes, {available} free"
            ),
            MemoryError::UnknownBuffer(id) => write!(f, "unknown buffer {id}"),
            MemoryError::VirtualBuffer(id) => write!(
                f,
                "buffer {id} is virtual (modeled); it carries no real data"
            ),
            MemoryError::DuplicateBuffer(id) => write!(f, "buffer {id} already exists"),
            MemoryError::OutOfBounds {
                buffer,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) outside buffer {buffer} of {size} bytes"
            ),
        }
    }
}

impl std::error::Error for MemoryError {}

/// How a buffer is stored on the device.
#[derive(Debug)]
enum Backing {
    /// Allocated, never touched: reads as zeros, and gets its storage at
    /// the first touch.
    Untouched(u64),
    /// Real bytes (full-fidelity execution), shared with the read views
    /// still outstanding.
    Real(Arc<GlobalBuffer>),
    /// A whole-buffer write's payload, kept as it arrived and perhaps
    /// still shared with its sender; it turns `Real` at the first
    /// mutation.
    Adopted(Bytes),
    /// Capacity accounting only, no bytes (modeled runs at paper scale).
    Virtual(u64),
}

impl Backing {
    fn len(&self) -> u64 {
        match self {
            Backing::Real(b) => b.len() as u64,
            Backing::Adopted(payload) => payload.len() as u64,
            Backing::Untouched(size) | Backing::Virtual(size) => *size,
        }
    }
}

/// What a read view owns: the backing it was taken from.
struct View(Arc<GlobalBuffer>);

impl AsRef<[u8]> for View {
    fn as_ref(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// `[offset, offset + len)` of buffer `id`, checked against its `size`.
fn range_of(id: BufferId, size: usize, offset: u64, len: u64) -> Result<Range<usize>, MemoryError> {
    let size = size as u64;
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(MemoryError::OutOfBounds {
            buffer: id,
            offset,
            len,
            size,
        });
    }
    Ok(offset as usize..(offset + len) as usize)
}

/// Released storage, kept for the next allocation of a similar size.
///
/// Every application run allocates its device buffers and frees them
/// again, MiB-sized blocks each, on whichever thread serves the node.
/// Handing those straight back to the allocator makes the resident set
/// depend on thread history: glibc serves such blocks from the calling
/// thread's arena once its mmap threshold has adapted upwards, keeps
/// what is freed there, and gives each new cluster's serve threads
/// other arenas to fill — a process that brought up a dozen clusters one
/// after another held 15 MiB more than after its first. A bounded
/// process-wide list breaks that: a released backing is reused by the
/// next allocation, on any device of any cluster. Without the list, in
/// three interleaved 4 s runs of the wall-clock benchmark, `paper_apps`
/// peaked at 37.8 MiB resident instead of 27.8–28.0, and `bulk_transfer`
/// took 0.068–0.091 s to set up instead of 0.054–0.064.
///
/// The list also recycles the storage an adopted payload displaces
/// ([`MemoryManager::write_payload`]): the host draws its shadows from
/// it ([`spare::take_vec`]), and every whole-buffer write pushes the
/// shadow, so a steady stream of them trades one block between host and
/// device — each write takes the block the previous one parked — instead
/// of allocating.
pub mod spare {
    use super::{Arc, Backing, Mutex};

    /// Blocks below this are cheap to allocate and not worth a lock.
    const MIN_BYTES: usize = 64 << 10;
    /// Most idle bytes the list holds; beyond it a backing is freed.
    /// Takes and parks balance, so the list holds what the last release
    /// let go of: uncapped, its high-water mark in the wall-clock
    /// benchmark is one `bulk_transfer` set-up's blocks (33 MiB) and
    /// 10.3 MiB in `paper_apps`, and nothing on the other workloads. The
    /// cap does not bind there; it bounds what one larger release keeps
    /// resident.
    const MAX_BYTES: usize = 48 << 20;

    /// `(idle bytes, backings)`
    static SPARE: Mutex<(usize, Vec<Vec<u8>>)> = Mutex::new((0, Vec::new()));

    /// The tightest spare with room for `len` bytes that wastes no more
    /// than it holds, emptied.
    fn reuse(len: usize) -> Option<Vec<u8>> {
        if len < MIN_BYTES {
            return None;
        }
        let mut spare = SPARE.lock().unwrap_or_else(|e| e.into_inner());
        let fit = spare
            .1
            .iter()
            .enumerate()
            .filter(|(_, v)| (len..=2 * len).contains(&v.capacity()))
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i)?;
        let mut v = spare.1.swap_remove(fit);
        spare.0 -= v.capacity();
        v.clear();
        Some(v)
    }

    /// An empty vector with room for `len` bytes, a spare if one fits.
    pub fn take_vec(len: usize) -> Vec<u8> {
        reuse(len).unwrap_or_else(|| Vec::with_capacity(len))
    }

    /// `len` zero bytes: a spare re-zeroed, else fresh zeroed memory
    /// (which the allocator may hand out untouched).
    pub fn take_zeroed(len: usize) -> Vec<u8> {
        match reuse(len) {
            Some(mut v) => {
                v.resize(len, 0);
                v
            }
            None => vec![0; len],
        }
    }

    /// Keeps `v` for a later [`take_vec`] while the list has room.
    pub fn park_vec(v: Vec<u8>) {
        if v.capacity() < MIN_BYTES {
            return;
        }
        let mut spare = SPARE.lock().unwrap_or_else(|e| e.into_inner());
        if spare.0 + v.capacity() <= MAX_BYTES {
            spare.0 += v.capacity();
            spare.1.push(v);
        }
    }

    /// Bytes the list holds idle.
    pub fn idle_bytes() -> usize {
        SPARE.lock().unwrap_or_else(|e| e.into_inner()).0
    }

    /// Parks a backing's storage, unless a view still shares it: then
    /// the bytes go with the view.
    pub(super) fn park(backing: Backing) {
        match backing {
            Backing::Real(shell) => {
                if let Ok(buffer) = Arc::try_unwrap(shell) {
                    park_vec(buffer.into_bytes());
                }
            }
            Backing::Adopted(payload) => {
                if let Ok(v) = payload.try_into_vec() {
                    park_vec(v);
                }
            }
            Backing::Untouched(_) | Backing::Virtual(_) => {}
        }
    }
}

/// Manages the buffers resident on one device.
///
/// # Examples
///
/// ```
/// use haocl_device::MemoryManager;
/// use haocl_proto::ids::BufferId;
///
/// let mut mem = MemoryManager::new(1024);
/// let id = BufferId::new(1);
/// mem.alloc(id, 256)?;
/// mem.write(id, 0, &[1, 2, 3])?;
/// assert_eq!(mem.read(id, 0, 3)?, [1, 2, 3]);
/// assert_eq!(mem.used_bytes(), 256);
/// # Ok::<(), haocl_device::memory::MemoryError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemoryManager {
    capacity: u64,
    used: u64,
    buffers: HashMap<BufferId, Backing>,
}

/// Buffers checked out by [`MemoryManager::take_for_launch`]: the
/// deduplicated backing stores plus, per input position, the slot index
/// its buffer landed in. Empty between launches; a caller keeps one for
/// its storage.
#[derive(Debug, Default)]
pub struct LaunchBuffers {
    /// The id of each buffer in `buffers`.
    ids: Vec<BufferId>,
    /// The shell each backing store was moved out of, to go back into.
    shells: Vec<Arc<GlobalBuffer>>,
    /// The backing stores, in first-appearance order.
    pub buffers: Vec<GlobalBuffer>,
    /// For each id asked for, its index in `buffers`.
    pub slots: Vec<usize>,
}

impl MemoryManager {
    /// Creates a store with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryManager {
            capacity,
            used: 0,
            buffers: HashMap::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of live buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Allocates a zero-filled buffer under `id`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::DuplicateBuffer`] if `id` exists;
    /// [`MemoryError::OutOfMemory`] if capacity would be exceeded.
    pub fn alloc(&mut self, id: BufferId, size: u64) -> Result<(), MemoryError> {
        self.alloc_backing(id, size, false)
    }

    /// Allocates a *virtual* buffer: capacity is accounted for but no
    /// bytes are backed. Only modeled transfers and modeled launches may
    /// touch it.
    ///
    /// # Errors
    ///
    /// Same as [`MemoryManager::alloc`].
    pub fn alloc_virtual(&mut self, id: BufferId, size: u64) -> Result<(), MemoryError> {
        self.alloc_backing(id, size, true)
    }

    fn alloc_backing(&mut self, id: BufferId, size: u64, virt: bool) -> Result<(), MemoryError> {
        if self.buffers.contains_key(&id) {
            return Err(MemoryError::DuplicateBuffer(id));
        }
        let available = self.capacity - self.used;
        if size > available {
            return Err(MemoryError::OutOfMemory {
                requested: size,
                available,
            });
        }
        let backing = if virt {
            Backing::Virtual(size)
        } else {
            Backing::Untouched(size)
        };
        self.buffers.insert(id, backing);
        self.used += size;
        Ok(())
    }

    /// Frees the buffer under `id`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] if `id` is not allocated.
    pub fn free(&mut self, id: BufferId) -> Result<(), MemoryError> {
        match self.buffers.remove(&id) {
            Some(backing) => {
                self.used -= backing.len();
                spare::park(backing);
                Ok(())
            }
            None => Err(MemoryError::UnknownBuffer(id)),
        }
    }

    /// Writes `data` into the buffer at `offset`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] or [`MemoryError::OutOfBounds`].
    pub fn write(&mut self, id: BufferId, offset: u64, data: &[u8]) -> Result<(), MemoryError> {
        let shell = self.shell_mut(id)?;
        let range = range_of(id, shell.len(), offset, data.len() as u64)?;
        Arc::make_mut(shell).as_bytes_mut()[range].copy_from_slice(data);
        Ok(())
    }

    /// Writes a payload the caller hands over. One that covers the whole
    /// buffer and is all of a vector's storage ([`Bytes::is_whole_vec`])
    /// becomes the backing, whoever else still shares it, and what it
    /// displaces goes to the [`spare`] list; anything else — a part of
    /// the buffer, or a view of other memory such as a peer device's —
    /// is copied in as by [`MemoryManager::write`].
    ///
    /// # Errors
    ///
    /// As [`MemoryManager::write`].
    pub fn write_payload(
        &mut self,
        id: BufferId,
        offset: u64,
        data: Bytes,
    ) -> Result<(), MemoryError> {
        let backing = self
            .buffers
            .get_mut(&id)
            .ok_or(MemoryError::UnknownBuffer(id))?;
        let whole = offset == 0 && data.len() as u64 == backing.len();
        if whole && data.is_whole_vec() && !matches!(backing, Backing::Virtual(_)) {
            spare::park(std::mem::replace(backing, Backing::Adopted(data)));
            return Ok(());
        }
        self.write(id, offset, &data)
    }

    /// A view of `len` bytes of the buffer at `offset`: the backing's own
    /// storage, not a copy. A later write to the buffer leaves the view
    /// as it was (see the module docs).
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] or [`MemoryError::OutOfBounds`].
    pub fn read(&mut self, id: BufferId, offset: u64, len: u64) -> Result<Bytes, MemoryError> {
        let whole = self.view(id)?;
        let range = range_of(id, whole.len(), offset, len)?;
        Ok(whole.slice(range))
    }

    /// A view of all of buffer `id`.
    fn view(&mut self, id: BufferId) -> Result<Bytes, MemoryError> {
        if let Some(Backing::Adopted(payload)) = self.buffers.get(&id) {
            return Ok(payload.clone());
        }
        let shell = self.shell_mut(id)?;
        Ok(Bytes::from_owner(View(Arc::clone(shell))))
    }

    /// Copies `len` bytes between two buffers, or within one with
    /// `memmove` semantics.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] or [`MemoryError::OutOfBounds`].
    pub fn copy(
        &mut self,
        src: BufferId,
        dst: BufferId,
        src_offset: u64,
        dst_offset: u64,
        len: u64,
    ) -> Result<(), MemoryError> {
        if src == dst {
            let shell = self.shell_mut(src)?;
            let from = range_of(src, shell.len(), src_offset, len)?;
            let to = range_of(dst, shell.len(), dst_offset, len)?;
            Arc::make_mut(shell)
                .as_bytes_mut()
                .copy_within(from, to.start);
            return Ok(());
        }
        // Another buffer's view: holding it does not make the target
        // shared.
        let source = self.view(src)?;
        let from = range_of(src, source.len(), src_offset, len)?;
        let shell = self.shell_mut(dst)?;
        let to = range_of(dst, shell.len(), dst_offset, len)?;
        Arc::make_mut(shell).as_bytes_mut()[to].copy_from_slice(&source[from]);
        Ok(())
    }

    /// Buffer `id`'s real backing, given storage of its own first if it
    /// has none yet: zeros for an untouched one, and for an adopted
    /// payload the payload's vector — taken over if nobody shares it,
    /// copied if someone does.
    fn shell_mut(&mut self, id: BufferId) -> Result<&mut Arc<GlobalBuffer>, MemoryError> {
        let backing = self
            .buffers
            .get_mut(&id)
            .ok_or(MemoryError::UnknownBuffer(id))?;
        let own = match backing {
            Backing::Real(_) => None,
            Backing::Virtual(_) => return Err(MemoryError::VirtualBuffer(id)),
            Backing::Untouched(size) => {
                Some(GlobalBuffer::from_bytes(spare::take_zeroed(*size as usize)))
            }
            Backing::Adopted(payload) => Some(match std::mem::take(payload).try_into_vec() {
                Ok(v) => GlobalBuffer::from_bytes(v),
                Err(shared) => {
                    let mut v = spare::take_vec(shared.len());
                    v.extend_from_slice(&shared);
                    GlobalBuffer::from_bytes(v)
                }
            }),
        };
        if let Some(own) = own {
            *backing = Backing::Real(Arc::new(own));
        }
        match backing {
            Backing::Real(shell) => Ok(shell),
            _ => unreachable!("given storage above"),
        }
    }

    /// Whether `id` is allocated here.
    pub fn contains(&self, id: BufferId) -> bool {
        self.buffers.contains_key(&id)
    }

    /// Size in bytes of buffer `id`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] if `id` is not allocated.
    pub fn size_of(&self, id: BufferId) -> Result<u64, MemoryError> {
        self.buffers
            .get(&id)
            .map(Backing::len)
            .ok_or(MemoryError::UnknownBuffer(id))
    }

    /// Whether `id` is a virtual (modeled) buffer.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] if `id` is not allocated.
    pub fn is_virtual(&self, id: BufferId) -> Result<bool, MemoryError> {
        self.buffers
            .get(&id)
            .map(|b| matches!(b, Backing::Virtual(_)))
            .ok_or(MemoryError::UnknownBuffer(id))
    }

    /// Temporarily moves the buffers named by `ids` (deduplicated, in
    /// first-appearance order) into `out` for a kernel launch, with a
    /// mapping from each input position to its slot.
    ///
    /// Each backing store is moved out of its shell, which `out` keeps
    /// for [`MemoryManager::restore`] to move it back into: neither
    /// allocates. A backing with a read view still out is copied instead,
    /// so the view keeps what it saw.
    ///
    /// # Errors
    ///
    /// [`MemoryError::UnknownBuffer`] if any id is missing (no buffers are
    /// removed in that case).
    pub fn take_for_launch(
        &mut self,
        ids: &[BufferId],
        out: &mut LaunchBuffers,
    ) -> Result<(), MemoryError> {
        for id in ids {
            self.shell_mut(*id)?;
        }
        out.slots.clear();
        for id in ids {
            if let Some(pos) = out.ids.iter().position(|t| t == id) {
                out.slots.push(pos);
            } else {
                let Some(Backing::Real(mut shell)) = self.buffers.remove(id) else {
                    unreachable!("checked above");
                };
                let buf = match Arc::get_mut(&mut shell) {
                    Some(buf) => std::mem::take(buf),
                    None => GlobalBuffer::clone(&shell),
                };
                out.ids.push(*id);
                out.shells.push(shell);
                out.buffers.push(buf);
                out.slots.push(out.ids.len() - 1);
            }
        }
        Ok(())
    }

    /// Returns buffers taken by [`MemoryManager::take_for_launch`],
    /// leaving `taken` empty.
    pub fn restore(&mut self, taken: &mut LaunchBuffers) {
        let returning = taken.ids.drain(..).zip(taken.shells.drain(..));
        for ((id, mut shell), buf) in returning.zip(taken.buffers.drain(..)) {
            match Arc::get_mut(&mut shell) {
                Some(slot) => *slot = buf,
                // The view that forced the copy keeps the old shell.
                None => shell = Arc::new(buf),
            }
            self.buffers.insert(id, Backing::Real(shell));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> BufferId {
        BufferId::new(n)
    }

    #[test]
    fn alloc_free_tracks_usage() {
        let mut m = MemoryManager::new(1000);
        m.alloc(id(1), 400).unwrap();
        m.alloc(id(2), 600).unwrap();
        assert_eq!(m.used_bytes(), 1000);
        assert_eq!(m.buffer_count(), 2);
        m.free(id(1)).unwrap();
        assert_eq!(m.used_bytes(), 600);
    }

    #[test]
    fn a_recycled_backing_reads_as_zeros() {
        // Sizes in the recycled range; a released backing full of ones
        // must never show through the next allocation, whichever spare
        // (this test's, or another test's) it is served from.
        const LEN: u64 = 300 << 10;
        let ones = vec![1u8; LEN as usize];
        let mut m = MemoryManager::new(4 * LEN);
        for round in 0..4 {
            m.alloc(id(1), LEN - round).unwrap();
            assert!(m
                .read(id(1), 0, LEN - round)
                .unwrap()
                .iter()
                .all(|b| *b == 0));
            m.write(id(1), 0, &ones[..(LEN - round) as usize]).unwrap();
            m.free(id(1)).unwrap();
        }
        // Another manager, and the smallest size a spare of `LEN` serves.
        let mut m = MemoryManager::new(LEN);
        m.alloc(id(3), LEN / 2 + 1).unwrap();
        assert_eq!(
            m.read(id(3), 0, LEN / 2 + 1).unwrap(),
            vec![0; LEN as usize / 2 + 1]
        );
    }

    #[test]
    fn over_allocation_fails() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 80).unwrap();
        let err = m.alloc(id(2), 21).unwrap_err();
        assert_eq!(
            err,
            MemoryError::OutOfMemory {
                requested: 21,
                available: 20
            }
        );
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 10).unwrap();
        assert_eq!(m.alloc(id(1), 10), Err(MemoryError::DuplicateBuffer(id(1))));
    }

    #[test]
    fn write_read_roundtrip_with_offset() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 10).unwrap();
        m.write(id(1), 4, &[9, 8, 7]).unwrap();
        assert_eq!(m.read(id(1), 4, 3).unwrap(), vec![9, 8, 7]);
        assert_eq!(m.read(id(1), 0, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 10).unwrap();
        let err = m.write(id(1), 8, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds { .. }));
        // Offset overflow must not wrap around.
        let err = m.write(id(1), u64::MAX, &[1]).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds { .. }));
    }

    #[test]
    fn copy_between_buffers() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 4).unwrap();
        m.alloc(id(2), 4).unwrap();
        m.write(id(1), 0, &[1, 2, 3, 4]).unwrap();
        m.copy(id(1), id(2), 1, 0, 3).unwrap();
        assert_eq!(m.read(id(2), 0, 4).unwrap(), vec![2, 3, 4, 0]);
    }

    #[test]
    fn copy_within_one_buffer_is_a_memmove() {
        const LEN: usize = 64;
        let start: Vec<u8> = (0..LEN as u8).collect();
        // Overlapping both ways, disjoint, empty and whole.
        for (src, dst, len) in [
            (0, 5, 40),
            (5, 0, 40),
            (10, 11, 50),
            (0, 32, 32),
            (7, 7, 9),
            (3, 60, 0),
            (0, 0, 64),
        ] {
            let mut m = MemoryManager::new(LEN as u64);
            m.alloc(id(1), LEN as u64).unwrap();
            m.write(id(1), 0, &start).unwrap();
            m.copy(id(1), id(1), src, dst, len).unwrap();
            let mut want = start.clone();
            want.copy_within(src as usize..(src + len) as usize, dst as usize);
            assert_eq!(
                m.read(id(1), 0, LEN as u64).unwrap(),
                want,
                "{src} -> {dst} x {len}"
            );
        }
        let mut m = MemoryManager::new(LEN as u64);
        m.alloc(id(1), LEN as u64).unwrap();
        assert!(matches!(
            m.copy(id(1), id(1), 40, 0, 30),
            Err(MemoryError::OutOfBounds { offset: 40, .. })
        ));
        assert!(matches!(
            m.copy(id(1), id(1), 0, 40, 30),
            Err(MemoryError::OutOfBounds { offset: 40, .. })
        ));
    }

    #[test]
    fn a_read_view_keeps_its_bytes_and_pins_nothing_once_dropped() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 8).unwrap();
        m.write(id(1), 0, &[1; 8]).unwrap();
        let view = m.read(id(1), 0, 8).unwrap();
        // A write and a launch on the buffer while the view is out…
        m.write(id(1), 0, &[2; 4]).unwrap();
        let mut taken = LaunchBuffers::default();
        m.take_for_launch(&[id(1)], &mut taken).unwrap();
        taken.buffers[0].as_bytes_mut()[7] = 3;
        m.restore(&mut taken);
        // …change the buffer, not the view.
        assert_eq!(view, [1; 8]);
        assert_eq!(m.read(id(1), 0, 8).unwrap(), [2, 2, 2, 2, 1, 1, 1, 3]);
        drop(view);
        // With no view out, writes and launches work in place.
        let at = m.read(id(1), 0, 8).unwrap().as_ptr();
        m.write(id(1), 0, &[4; 8]).unwrap();
        m.take_for_launch(&[id(1)], &mut taken).unwrap();
        assert_eq!(taken.buffers[0].as_bytes().as_ptr(), at);
        m.restore(&mut taken);
        let after = m.read(id(1), 0, 8).unwrap();
        assert_eq!((after.as_ptr(), &after[..]), (at, &[4; 8][..]));
    }

    #[test]
    fn a_sole_whole_payload_becomes_the_backing_without_a_copy() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 8).unwrap();
        let payload: Vec<u8> = (1..=8).collect();
        let at = payload.as_ptr();
        m.write_payload(id(1), 0, Bytes::from(payload)).unwrap();
        assert_eq!(m.read(id(1), 2, 3).unwrap().as_ptr(), at.wrapping_add(2));
        // Nobody else holds it: the launch works in the payload itself.
        let mut taken = LaunchBuffers::default();
        m.take_for_launch(&[id(1)], &mut taken).unwrap();
        assert_eq!(taken.buffers[0].as_bytes().as_ptr(), at);
        taken.buffers[0].as_bytes_mut()[0] = 9;
        m.restore(&mut taken);
        assert_eq!(m.read(id(1), 0, 3).unwrap(), [9, 2, 3]);
        // A part of a buffer, and a view of other memory, are copied in.
        let whole = Bytes::from(vec![5u8; 8]);
        m.write_payload(id(1), 0, whole.slice(0..4)).unwrap();
        m.alloc(id(2), 8).unwrap();
        let peer = m.read(id(1), 0, 8).unwrap();
        m.write_payload(id(2), 0, peer).unwrap();
        assert_ne!(m.read(id(2), 0, 8).unwrap().as_ptr(), at);
        assert_eq!(m.read(id(2), 0, 8).unwrap(), [5, 5, 5, 5, 5, 6, 7, 8]);
    }

    #[test]
    fn a_shared_payload_is_copied_at_its_first_mutation() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 8).unwrap();
        let sender = Bytes::from(vec![1u8; 8]);
        m.write_payload(id(1), 0, sender.clone()).unwrap();
        // Sharing costs nothing until someone writes.
        assert_eq!(m.read(id(1), 0, 8).unwrap().as_ptr(), sender.as_ptr());
        m.write(id(1), 0, &[2; 4]).unwrap();
        assert_eq!(sender, [1; 8], "the sender's bytes must not change");
        let now = m.read(id(1), 0, 8).unwrap();
        assert_eq!(now, [2, 2, 2, 2, 1, 1, 1, 1]);
        assert_ne!(now.as_ptr(), sender.as_ptr());
        // A launch copies a shared payload too.
        m.write_payload(id(1), 0, sender.clone()).unwrap();
        let mut taken = LaunchBuffers::default();
        m.take_for_launch(&[id(1)], &mut taken).unwrap();
        assert_ne!(taken.buffers[0].as_bytes().as_ptr(), sender.as_ptr());
        taken.buffers[0].as_bytes_mut().fill(3);
        m.restore(&mut taken);
        assert_eq!(
            (&sender[..], &m.read(id(1), 0, 8).unwrap()[..]),
            (&[1; 8][..], &[3; 8][..])
        );
    }

    #[test]
    fn a_view_of_an_adopted_payload_keeps_its_bytes_through_a_launch() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 8).unwrap();
        m.write_payload(id(1), 0, Bytes::from(vec![4u8; 8]))
            .unwrap();
        let view = m.read(id(1), 0, 8).unwrap();
        let mut taken = LaunchBuffers::default();
        m.take_for_launch(&[id(1)], &mut taken).unwrap();
        taken.buffers[0].as_bytes_mut()[0] = 7;
        m.restore(&mut taken);
        assert_eq!(view, [4; 8]);
        assert_eq!(m.read(id(1), 0, 8).unwrap(), [7, 4, 4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn take_for_launch_deduplicates() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 4).unwrap();
        m.alloc(id(2), 4).unwrap();
        let mut taken = LaunchBuffers::default();
        m.take_for_launch(&[id(1), id(2), id(1)], &mut taken)
            .unwrap();
        assert_eq!(taken.buffers.len(), 2);
        assert_eq!(taken.slots, vec![0, 1, 0]);
        assert_eq!(m.buffer_count(), 0);
        m.restore(&mut taken);
        assert_eq!(m.buffer_count(), 2);
        // The same storage serves the next launch.
        m.take_for_launch(&[id(2)], &mut taken).unwrap();
        assert_eq!((taken.buffers.len(), &taken.slots[..]), (1, &[0][..]));
        m.restore(&mut taken);
        assert_eq!(m.buffer_count(), 2);
    }

    #[test]
    fn take_for_launch_is_atomic_on_failure() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 4).unwrap();
        let mut taken = LaunchBuffers::default();
        let err = m.take_for_launch(&[id(1), id(9)], &mut taken).unwrap_err();
        assert_eq!(err, MemoryError::UnknownBuffer(id(9)));
        // Nothing was removed.
        assert!(m.contains(id(1)));
        assert!(taken.buffers.is_empty());
    }

    #[test]
    fn virtual_buffers_account_capacity_without_bytes() {
        let mut m = MemoryManager::new(100);
        m.alloc_virtual(id(1), 80).unwrap();
        assert_eq!(m.used_bytes(), 80);
        assert!(m.is_virtual(id(1)).unwrap());
        assert_eq!(m.size_of(id(1)).unwrap(), 80);
        // Real data operations are rejected.
        assert_eq!(
            m.write(id(1), 0, &[1]),
            Err(MemoryError::VirtualBuffer(id(1)))
        );
        assert_eq!(m.read(id(1), 0, 1), Err(MemoryError::VirtualBuffer(id(1))));
        assert_eq!(
            m.take_for_launch(&[id(1)], &mut LaunchBuffers::default())
                .unwrap_err(),
            MemoryError::VirtualBuffer(id(1))
        );
        m.free(id(1)).unwrap();
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn size_of_reports_length() {
        let mut m = MemoryManager::new(100);
        m.alloc(id(1), 42).unwrap();
        assert_eq!(m.size_of(id(1)).unwrap(), 42);
        assert!(m.size_of(id(2)).is_err());
    }
}
