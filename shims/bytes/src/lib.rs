//! Offline drop-in subset of the `bytes` crate.
//!
//! Provides [`Bytes`] (a cheaply cloneable, sliceable shared byte
//! buffer), [`BytesMut`] (a growable builder), and the [`Buf`]/[`BufMut`]
//! cursor traits — exactly the surface the HaoCL wire codec uses.
//! Little-endian accessors only, matching the hand-rolled protocol.
//!
//! As in the real crate, `Bytes::from(Vec<u8>)`, [`BytesMut::freeze`]
//! and [`Bytes::from_owner`] take their storage over without copying it,
//! so one refcounted view type serves owned vectors and pooled frame
//! buffers alike.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

macro_rules! buf_get_impl {
    ($($fn:ident -> $t:ty),* $(,)?) => {
        $(
            /// Consumes and returns one little-endian scalar.
            ///
            /// # Panics
            ///
            /// Panics if fewer than `size_of` bytes remain.
            fn $fn(&mut self) -> $t
            where
                Self: Sized,
            {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                self.copy_to_slice(&mut raw);
                <$t>::from_le_bytes(raw)
            }
        )*
    };
}

/// A read cursor over a contiguous byte buffer.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cnt > self.remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies bytes into `dst`, consuming them.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is longer than the remaining bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8])
    where
        Self: Sized,
    {
        assert!(dst.len() <= self.remaining(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes and returns one byte.
    ///
    /// # Panics
    ///
    /// Panics if no bytes remain.
    fn get_u8(&mut self) -> u8
    where
        Self: Sized,
    {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get_impl!(
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i32_le -> i32,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    );
}

macro_rules! bufmut_put_impl {
    ($($fn:ident($t:ty)),* $(,)?) => {
        $(
            /// Appends one little-endian scalar.
            fn $fn(&mut self, v: $t)
            where
                Self: Sized,
            {
                self.put_slice(&v.to_le_bytes());
            }
        )*
    };
}

/// A write cursor appending to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8)
    where
        Self: Sized,
    {
        self.put_slice(&[v]);
    }

    bufmut_put_impl!(
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    );
}

/// What keeps a [`Bytes`] view's memory alive.
#[derive(Clone)]
enum Storage {
    /// Borrowed for the whole program (also the empty buffer).
    Static(&'static [u8]),
    /// A plain vector: [`From<Vec<u8>>`] takes it over without copying,
    /// and `Vec::from(Bytes)` hands it back when no other view is left.
    Vec(Arc<Vec<u8>>),
    /// Caller-provided storage ([`Bytes::from_owner`]); the owner's
    /// `Drop` runs when the last view goes.
    Owner(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Clones share the backing storage; [`Bytes::split_to`],
/// [`Bytes::split_off`] and [`Bytes::slice`] adjust view bounds without
/// copying.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from_static(&[])
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice without copying.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Wraps `owner`'s bytes without copying them; `owner` is dropped
    /// when the last view of it is (a recycling pool hooks its `Drop`).
    ///
    /// The real crate reads `owner.as_ref()` once and asks only for
    /// `Send` by keeping a raw pointer; this shim keeps none and asks the
    /// owner on every access, hence the extra `Sync` bound.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            storage: Storage::Owner(Arc::new(owner)),
            start: 0,
            end,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Splits off and returns the first `at` bytes, leaving the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            storage: self.storage.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on, keeping the head.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = Bytes {
            storage: self.storage.clone(),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        tail
    }

    /// A sub-view of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for {} bytes",
            self.len()
        );
        Bytes {
            storage: self.storage.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Whether this view is all of a vector the buffer took over
    /// ([`From<Vec<u8>>`]), however many views share it: the storage
    /// [`Bytes::try_into_vec`] hands back once the others are gone.
    pub fn is_whole_vec(&self) -> bool {
        matches!(&self.storage, Storage::Vec(vec) if self.start == 0 && self.end == vec.len())
    }

    /// The backing vector, without copying, when this view is its only
    /// and whole owner; the view back otherwise. Upstream's
    /// `try_into_mut` has the same shape.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged when another view shares the storage,
    /// the view is a part of it, or the storage is not a vector.
    pub fn try_into_vec(self) -> Result<Vec<u8>, Bytes> {
        if !self.is_whole_vec() {
            return Err(self);
        }
        let Storage::Vec(vec) = self.storage else {
            unreachable!("checked above");
        };
        Arc::try_unwrap(vec).map_err(|shared| Bytes {
            storage: Storage::Vec(shared),
            start: self.start,
            end: self.end,
        })
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(bytes) => bytes,
            Storage::Vec(vec) => vec,
            Storage::Owner(owner) => (**owner).as_ref(),
        };
        &all[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector over as the buffer's storage; no bytes move.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            storage: Storage::Vec(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    /// Hands the backing vector back without copying when `bytes` is the
    /// only view left and covers all of it; copies otherwise.
    fn from(bytes: Bytes) -> Vec<u8> {
        bytes
            .try_into_vec()
            .unwrap_or_else(|shared| shared.as_slice().to_vec())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<'a, T: ?Sized> PartialEq<&'a T> for Bytes
where
    Bytes: PartialEq<T>,
{
    fn eq(&self, other: &&'a T) -> bool {
        *self == **other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte builder, frozen into [`Bytes`] when complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector without copying, appending after its
    /// current contents. With [`BytesMut::into_vec`], this lets pooled
    /// frame buffers be encoded into directly.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }

    /// Unwraps into the underlying vector without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// The accumulated bytes as an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Freezes the builder into an immutable shared buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_view_and_split() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        let tail = b.split_off(1);
        assert_eq!(&b[..], &[3]);
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(b.slice(0..1), Bytes::from(vec![3u8]));
    }

    #[test]
    fn buf_cursor_scalars() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32_le(0xdead_beef);
        m.put_f64_le(1.5);
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 13);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_f64_le(), 1.5);
        assert!(!b.has_remaining());
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![9u8; 64]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn vectors_move_in_and_out_without_copying() {
        let v = vec![5u8; 256];
        let addr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), addr, "From<Vec> must take the allocation over");
        let view = b.slice(10..20);
        assert_eq!(view.as_ptr(), addr.wrapping_add(10));
        // Shared: the vector cannot be reclaimed, so this copies.
        let copy = Vec::from(b.clone());
        assert_ne!(copy.as_ptr(), addr);
        drop(view);
        drop(copy);
        // Sole full view: the same allocation comes back.
        let back = Vec::from(b);
        assert_eq!(back.as_ptr(), addr);
    }

    #[test]
    fn try_into_vec_hands_back_only_a_sole_whole_vector() {
        let v = vec![7u8; 64];
        let addr = v.as_ptr();
        let b = Bytes::from(v);
        assert!(b.is_whole_vec());
        let other = b.clone();
        assert!(other.is_whole_vec(), "sharing does not change what it is");
        let b = b.try_into_vec().expect_err("another view shares it");
        drop(other);
        let part = b.slice(1..64);
        assert!(!part.is_whole_vec());
        assert_eq!(part.try_into_vec().unwrap_err().len(), 63);
        let back = b.try_into_vec().unwrap();
        assert_eq!(back.as_ptr(), addr);
        let fixed = Bytes::from_static(b"abc");
        assert!(!fixed.is_whole_vec());
        assert_eq!(fixed.try_into_vec().unwrap_err(), &b"abc"[..]);
    }

    #[test]
    fn owner_is_dropped_with_the_last_view() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct Owner(Vec<u8>, Arc<AtomicBool>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                self.1.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let data = vec![1u8, 2, 3, 4];
        let addr = data.as_ptr();
        let b = Bytes::from_owner(Owner(data, Arc::clone(&dropped)));
        assert_eq!(b.as_ptr(), addr);
        let tail = b.slice(2..4);
        drop(b);
        assert!(!dropped.load(Ordering::SeqCst), "a view is still alive");
        assert_eq!(tail, [3u8, 4]);
        assert_eq!(tail, &[3u8, 4]);
        drop(tail);
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.split_to(2);
    }
}
