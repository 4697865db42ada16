//! Length-prefixed framing with MTU segmentation: the byte-stream codec
//! a socket transport would use.
//!
//! On a byte stream every message/data package travels as one *frame*: a
//! little-endian `u32` length prefix followed by the payload, segmented
//! into [`MTU`]-sized chunks (standard Ethernet payload size) and
//! reassembled by a [`FrameAssembler`] at the receiver — partial arrival,
//! interleaved boundary cases and corrupt prefixes are all exercised by
//! the tests. A stream may cut anywhere, and the assembler is correct for
//! any chunking: [`segment`] yields borrowed sub-slices, [`segment_pooled`]
//! yields [`PooledBytes`] views sharing one allocation, frames that arrive
//! whole are sliced straight out of the chunk's storage, and a frame
//! straddling chunks is collected once, in the buffer that then becomes
//! its storage.
//!
//! The in-process fabric does not run this codec: it hands each frame to
//! the receiver whole, as one message of segments
//! ([`crate::fabric::Frame`]), and charges the link the prefix a stream
//! would carry. Only this module's own tests and the benchmark's framing
//! probe exercise it.

use crate::error::NetError;
use crate::pool::{BufferPool, PoolBuf, PooledBytes};

/// Ethernet payload size used for segmentation.
pub const MTU: usize = 1500;

/// Maximum accepted frame payload (guards against corrupt prefixes).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// How far ahead of the bytes actually received the assembler reserves
/// for a frame whose prefix announces more: a length prefix is input
/// from outside and may lie, so it buys at most this much memory.
pub const RESERVE_STEP: usize = 1 << 20;

/// Encodes a payload as a frame: length prefix plus body.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Builds a frame in a pooled buffer: `write` appends the payload, and
/// the length prefix is patched afterwards. One checkout, zero
/// intermediate copies.
pub fn encode_frame_pooled(pool: &BufferPool, write: impl FnOnce(&mut Vec<u8>)) -> PooledBytes {
    let mut buf = pool.take();
    let v = buf.bytes_mut();
    v.extend_from_slice(&[0u8; 4]);
    write(v);
    let len = (v.len() - 4) as u32;
    v[..4].copy_from_slice(&len.to_le_bytes());
    buf.seal()
}

/// Splits an encoded frame into MTU-sized chunks (the last may be
/// short) without copying: each chunk borrows the input, and a frame
/// that already fits in one MTU is yielded as-is.
///
/// An empty frame still produces one chunk (the 4-byte prefix).
pub fn segment(frame: &[u8]) -> impl Iterator<Item = &[u8]> {
    frame.chunks(MTU)
}

/// [`segment`] over a pooled frame: every chunk is a [`PooledBytes`]
/// view sharing the frame's backing storage.
pub fn segment_pooled(frame: &PooledBytes) -> impl Iterator<Item = PooledBytes> + '_ {
    (0..frame.len().max(1))
        .step_by(MTU)
        .map(|start| frame.slice(start..frame.len().min(start + MTU)))
}

/// Incremental reassembly of frames from a chunk stream.
///
/// # Examples
///
/// ```
/// use haocl_net::frame::{encode_frame, segment, FrameAssembler};
///
/// let payload = vec![7u8; 4000];
/// let mut asm = FrameAssembler::new();
/// let mut frames = Vec::new();
/// for chunk in segment(&encode_frame(&payload)) {
///     frames.extend(asm.push(chunk)?);
/// }
/// assert_eq!(frames, vec![payload]);
/// # Ok::<(), haocl_net::NetError>(())
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// The frame currently spanning chunk boundaries, prefix included
    /// (`None` while frames arrive whole).
    partial: Option<PoolBuf>,
    /// Recycles the storage of collected frames once their consumer has
    /// dropped them, so a stream of straddling bulk frames does not
    /// allocate (and fault in) fresh memory for each.
    pool: BufferPool,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Feeds received bytes in; returns every frame completed by them.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if a length prefix exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        Ok(self
            .push_pooled(&PooledBytes::copy_from_slice(chunk))?
            .into_iter()
            .map(Vec::from)
            .collect())
    }

    /// [`FrameAssembler::push`] over a pooled chunk. Frames contained
    /// entirely within `chunk` are returned as views of its storage; a
    /// frame spanning chunk boundaries is collected in a buffer of the
    /// assembler's own, which is then sealed as that frame's storage.
    /// Either way each payload byte is copied at most once.
    ///
    /// # Errors
    ///
    /// [`NetError::BadFrame`] if a length prefix exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn push_pooled(&mut self, chunk: &PooledBytes) -> Result<Vec<PooledBytes>, NetError> {
        let mut out = Vec::new();
        let bytes: &[u8] = chunk;
        let mut at = 0;
        while at < bytes.len() {
            let rest = &bytes[at..];
            if self.partial.is_none() {
                if let Some(total) = declared_len(rest)?.filter(|&total| total <= rest.len()) {
                    out.push(chunk.slice(at + 4..at + total));
                    at += total;
                    continue;
                }
            }
            let buf = self
                .partial
                .get_or_insert_with(|| self.pool.take())
                .bytes_mut();
            // Take only this frame's bytes: the prefix first, then
            // (length known) the remainder, reserving for it no further
            // ahead than the prefix is trusted.
            let declared = declared_len(buf)?;
            let missing = declared.unwrap_or(4) - buf.len();
            let take = missing.min(rest.len());
            if declared.is_some() && buf.capacity() - buf.len() < take {
                buf.reserve_exact(missing.min(take.max(RESERVE_STEP)));
            }
            buf.extend_from_slice(&rest[..take]);
            at += take;
            if declared_len(buf)? == Some(buf.len()) {
                let frame = self.partial.take().expect("filled above").seal();
                out.push(frame.slice(4..frame.len()));
            }
        }
        Ok(out)
    }

    /// Bytes buffered awaiting completion of the current frame.
    pub fn pending_bytes(&self) -> usize {
        self.partial.as_ref().map_or(0, |buf| buf.as_ref().len())
    }
}

/// Length (prefix + payload) announced by the frame at the front of
/// `bytes`; `None` until the whole prefix is there.
fn declared_len(bytes: &[u8]) -> Result<Option<usize>, NetError> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_LEN {
        return Err(NetError::BadFrame {
            reason: format!("length prefix {len} exceeds limit"),
        });
    }
    Ok(Some(4 + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_roundtrips() {
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&encode_frame(&[])).unwrap();
        assert_eq!(frames, vec![Vec::<u8>::new()]);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn single_chunk_roundtrips() {
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&encode_frame(b"abc")).unwrap();
        assert_eq!(frames, vec![b"abc".to_vec()]);
    }

    #[test]
    fn single_chunk_segmentation_borrows_the_frame() {
        let frame = encode_frame(&[5u8; 100]);
        let chunks: Vec<&[u8]> = segment(&frame).collect();
        assert_eq!(chunks.len(), 1);
        // The ≤ MTU common case must not copy: same allocation.
        assert!(std::ptr::eq(chunks[0], frame.as_slice()));
    }

    #[test]
    fn large_frame_segments_and_reassembles() {
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let frame = encode_frame(&payload);
        let chunks: Vec<&[u8]> = segment(&frame).collect();
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| c.len() <= MTU));
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for c in &chunks {
            frames.extend(asm.push(c).unwrap());
        }
        assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn pooled_segmentation_shares_storage() {
        let pool = BufferPool::new();
        let payload = vec![3u8; 4000];
        let frame = encode_frame_pooled(&pool, |v| v.extend_from_slice(&payload));
        assert_eq!(frame.len(), 4004);
        let chunks: Vec<PooledBytes> = segment_pooled(&frame).collect();
        assert_eq!(chunks.len(), 3);
        // Chunk views alias the frame's allocation, not copies of it.
        assert!(std::ptr::eq(&chunks[0][..MTU], &frame[..MTU]));
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for c in &chunks {
            frames.extend(asm.push_pooled(c).unwrap());
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0], payload);
    }

    #[test]
    fn assembler_fast_path_is_zero_copy() {
        let pool = BufferPool::new();
        let chunk = encode_frame_pooled(&pool, |v| v.extend_from_slice(b"tiny"));
        let mut asm = FrameAssembler::new();
        let frames = asm.push_pooled(&chunk).unwrap();
        assert_eq!(frames.len(), 1);
        // The returned frame is a view into the chunk's own storage.
        assert!(std::ptr::eq(&frames[0][..], &chunk[4..]));
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn two_frames_in_one_chunk() {
        let mut bytes = encode_frame(b"one");
        bytes.extend_from_slice(&encode_frame(b"two"));
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&bytes).unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn frame_split_at_awkward_boundaries() {
        let payload = vec![9u8; 100];
        let bytes = encode_frame(&payload);
        let mut asm = FrameAssembler::new();
        // Feed one byte at a time: the worst case.
        let mut frames = Vec::new();
        for b in &bytes {
            frames.extend(asm.push(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut asm = FrameAssembler::new();
        let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = asm.push(&bad).unwrap_err();
        assert!(matches!(err, NetError::BadFrame { .. }));
    }

    #[test]
    fn straddling_frame_is_collected_once_and_handed_over() {
        let payload: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let frame = encode_frame(&payload);
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for chunk in segment(&frame) {
            frames.extend(
                asm.push_pooled(&PooledBytes::copy_from_slice(chunk))
                    .unwrap(),
            );
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0], payload);
        assert_eq!(asm.pending_bytes(), 0);
        // The collecting buffer went out as the frame's storage, so a
        // frame arriving whole afterwards is again a view of its chunk…
        let whole = PooledBytes::from(encode_frame(b"next"));
        let next = asm.push_pooled(&whole).unwrap();
        assert!(std::ptr::eq(&next[0][..], &whole[4..]));
        // …and once the consumer lets go of the collected frame, the
        // next straddler is collected in that same storage.
        let storage = frames[0].as_ptr();
        drop(frames);
        let mut again = Vec::new();
        for chunk in segment(&frame) {
            again.extend(
                asm.push_pooled(&PooledBytes::copy_from_slice(chunk))
                    .unwrap(),
            );
        }
        assert_eq!(again[0], payload);
        assert_eq!(again[0].as_ptr(), storage);
    }

    #[test]
    fn lying_length_prefix_buys_one_reserve_step_at_most() {
        let mut asm = FrameAssembler::new();
        let mut stream = MAX_FRAME_LEN.to_le_bytes().to_vec();
        stream.extend_from_slice(&[7u8; 10]);
        assert!(asm.push(&stream).unwrap().is_empty());
        assert_eq!(asm.pending_bytes(), 14);
        let reserved = |asm: &mut FrameAssembler| {
            asm.partial
                .as_mut()
                .map_or(0, |buf| buf.bytes_mut().capacity())
        };
        assert!(
            reserved(&mut asm) <= 14 + RESERVE_STEP,
            "reserved {} bytes for 14 received",
            reserved(&mut asm)
        );
        // Trickling more in keeps the lead bounded.
        for _ in 0..3 {
            asm.push(&vec![7u8; RESERVE_STEP / 2 + 1]).unwrap();
            assert!(reserved(&mut asm) <= asm.pending_bytes() + RESERVE_STEP);
        }
        // One past the limit is still refused outright, whether the
        // prefix arrives at once or a byte at a time.
        let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut asm = FrameAssembler::new();
        assert!(matches!(asm.push(&bad), Err(NetError::BadFrame { .. })));
        let mut asm = FrameAssembler::new();
        for b in &bad[..3] {
            assert!(asm.push(std::slice::from_ref(b)).unwrap().is_empty());
        }
        assert!(matches!(
            asm.push(&bad[3..]),
            Err(NetError::BadFrame { .. })
        ));
        assert!(reserved(&mut asm) < RESERVE_STEP);
    }

    #[test]
    fn pending_bytes_tracks_partial_frames() {
        let mut asm = FrameAssembler::new();
        let bytes = encode_frame(&[1, 2, 3, 4]);
        asm.push(&bytes[..5]).unwrap();
        assert_eq!(asm.pending_bytes(), 5);
        asm.push(&bytes[5..]).unwrap();
        assert_eq!(asm.pending_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Cuts `stream` into pieces whose lengths cycle through `cuts`
    /// (1 B … longer than any frame), so pieces hold a fraction of a
    /// frame, exactly one, or several with a straddler at either end.
    fn pieces<'a>(stream: &'a [u8], cuts: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
        let mut at = 0;
        let mut cuts = cuts.iter().cycle();
        std::iter::from_fn(move || {
            if at == stream.len() {
                return None;
            }
            let end = stream
                .len()
                .min(at + cuts.next().expect("cuts is non-empty"));
            let piece = &stream[at..end];
            at = end;
            Some(piece)
        })
    }

    proptest! {
        #[test]
        fn arbitrary_payload_sequences_reassemble(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..5000), 1..6),
            cuts in proptest::collection::vec(1usize..12_000, 1..8),
        ) {
            let mut stream = Vec::new();
            for p in &payloads {
                stream.extend_from_slice(&encode_frame(p));
            }
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for piece in pieces(&stream, &cuts) {
                frames.extend(asm.push(piece).unwrap());
            }
            prop_assert_eq!(frames, payloads);
            prop_assert_eq!(asm.pending_bytes(), 0);
        }

        #[test]
        fn pooled_and_copying_paths_agree(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..4000), 1..5),
            cuts in proptest::collection::vec(1usize..9000, 1..8),
        ) {
            let pool = BufferPool::new();
            let mut stream = Vec::new();
            for p in &payloads {
                let f = encode_frame_pooled(&pool, |v| v.extend_from_slice(p));
                stream.extend_from_slice(&f);
            }
            // The same cuts through three doors: views of one shared
            // stream (frames inside a piece are sliced, straddlers are
            // collected in place), a private copy per piece, and the
            // copying `push`.
            let shared = PooledBytes::from(stream.clone());
            let (mut by_view, mut by_piece, mut by_copy) =
                (FrameAssembler::new(), FrameAssembler::new(), FrameAssembler::new());
            let (mut viewed, mut pieced, mut copied) = (Vec::new(), Vec::new(), Vec::new());
            let mut at = 0;
            for piece in pieces(&stream, &cuts) {
                let view = shared.slice(at..at + piece.len());
                at += piece.len();
                viewed.extend(by_view.push_pooled(&view).unwrap());
                pieced.extend(
                    by_piece.push_pooled(&PooledBytes::copy_from_slice(piece)).unwrap());
                copied.extend(by_copy.push(piece).unwrap());
                prop_assert_eq!(by_view.pending_bytes(), by_copy.pending_bytes());
                prop_assert_eq!(by_piece.pending_bytes(), by_copy.pending_bytes());
            }
            prop_assert_eq!(&viewed, &pieced);
            let viewed: Vec<Vec<u8>> = viewed.into_iter().map(Vec::from).collect();
            prop_assert_eq!(&viewed, &copied);
            prop_assert_eq!(copied, payloads);
            prop_assert_eq!(by_view.pending_bytes(), 0);
        }
    }
}
