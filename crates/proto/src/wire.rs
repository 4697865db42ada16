//! A compact hand-rolled binary codec.
//!
//! The paper's wrapper packs each API call by hand into a message package;
//! this module is the equivalent: little-endian fixed-width scalars,
//! length-prefixed strings/byte-blobs, `u8` tags for enums. No reflection,
//! no schema evolution — both ends are always the same build, exactly as
//! in the paper's deployment.
//!
//! # Segments
//!
//! A message is encoded either as one contiguous byte string
//! ([`encode_into_vec`]) or as a list of segments ([`encode_segmented`]):
//! every [`Bytes`] field becomes a segment of its own — the field's own
//! storage, shared, never copied — and every other byte goes into one head
//! buffer. In order, the segments are `head[..o₁], blob₁, head[o₁..o₂], …,
//! head[oₙ..]`, where `oᵢ` is the head offset blob `i` sits at, and they
//! concatenate to exactly the contiguous encoding. It is one encoder: the
//! contiguous form is the one that writes each blob into the head.
//!
//! The decoder reads a segment list ([`decode_from_segments`]); a
//! contiguous frame is the list of one ([`decode_from_bytes`]). Every
//! value is read out of one segment, so a blob body that fills its
//! segment is that segment itself, and a segment boundary inside a
//! scalar, a length prefix or a body is a [`WireError::Straddles`].

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes};

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The claimed length.
        len: u64,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A segment boundary fell inside a value the decoder reads whole.
    Straddles {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} for {what}")
            }
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::LengthOverflow { len } => {
                write!(f, "length prefix {len} exceeds the message limit")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after message")
            }
            WireError::Straddles { what } => {
                write!(f, "a segment boundary cuts through {what}")
            }
        }
    }
}

impl Error for WireError {}

/// Maximum length accepted for any single length-prefixed field (guards
/// against corrupted prefixes allocating unbounded memory).
pub const MAX_FIELD_LEN: u64 = 1 << 32;

/// Where an encoder writes: every byte into the head, except that a
/// segmenting writer sets each blob aside, as a shared view with the head
/// offset it sits at.
pub struct Writer<'a> {
    head: &'a mut Vec<u8>,
    blobs: Option<&'a mut Vec<(usize, Bytes)>>,
}

impl Writer<'_> {
    fn put_blob(&mut self, blob: &Bytes) {
        match &mut self.blobs {
            Some(blobs) => blobs.push((self.head.len(), blob.clone())),
            None => self.head.extend_from_slice(blob),
        }
    }
}

impl BufMut for Writer<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        self.head.extend_from_slice(src);
    }
}

/// A read cursor over a message's segments, in order.
pub struct Reader<'a> {
    /// The unread rest of the current segment.
    cur: Bytes,
    rest: &'a mut dyn Iterator<Item = Bytes>,
}

impl Reader<'_> {
    /// The current segment, once it holds the next `n` bytes.
    pub(crate) fn need(&mut self, n: usize, what: &'static str) -> Result<&mut Bytes, WireError> {
        if self.cur.len() < n {
            self.next_segment(n, what)?;
        }
        Ok(&mut self.cur)
    }

    /// Steps past an exhausted segment; fails unless the next non-empty
    /// one holds `n` bytes.
    #[cold]
    fn next_segment(&mut self, n: usize, what: &'static str) -> Result<(), WireError> {
        while self.cur.is_empty() {
            self.cur = self.rest.next().ok_or(WireError::UnexpectedEof { what })?;
        }
        if self.cur.len() >= n {
            Ok(())
        } else if self.unread() > self.cur.len() {
            Err(WireError::Straddles { what })
        } else {
            Err(WireError::UnexpectedEof { what })
        }
    }

    /// Bytes left in this segment and all after it (consumes the rest).
    fn unread(&mut self) -> usize {
        let mut unread = self.cur.len();
        for segment in &mut *self.rest {
            unread += segment.len();
        }
        unread
    }

    /// The next `n` bytes, as a view of their segment.
    fn take(&mut self, n: usize, what: &'static str) -> Result<Bytes, WireError> {
        Ok(self.need(n, what)?.split_to(n))
    }

    /// A length prefix, checked against [`MAX_FIELD_LEN`].
    fn len_prefix(&mut self) -> Result<usize, WireError> {
        let len = u64::decode(self)?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        Ok(len as usize)
    }
}

/// Serializes a value into a byte stream.
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer<'_>);
}

/// Deserializes a value from a byte stream.
pub trait Decode: Sized {
    /// Consumes this value's encoding from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes do not form a valid encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh `Vec<u8>`.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into_vec(value, &mut out);
    out
}

/// Encodes a value by appending to an existing vector: the contiguous
/// case of [`encode_segmented`], which copies each blob in after its
/// length prefix.
pub fn encode_into_vec<T: Encode>(value: &T, out: &mut Vec<u8>) {
    value.encode(&mut Writer {
        head: out,
        blobs: None,
    });
}

/// Encodes a value as segments (see the module docs): everything but the
/// blobs is appended to `head`, and each blob is pushed onto `blobs` —
/// shared, not copied — with the offset in `head` it sits at.
pub fn encode_segmented<T: Encode>(value: &T, head: &mut Vec<u8>, blobs: &mut Vec<(usize, Bytes)>) {
    value.encode(&mut Writer {
        head,
        blobs: Some(blobs),
    });
}

/// Decodes exactly one value out of a list of segments, rejecting
/// trailing garbage.
///
/// Nothing is copied for byte-blob fields: a decoded [`Bytes`] is a view
/// of its segment's storage and keeps it alive — for a received frame,
/// the pooled head buffer or the sender's own blob. Whoever retains a
/// decoded blob beyond its request must copy it out first.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input, a segment boundary inside
/// a value, or leftover bytes.
pub fn decode_from_segments<T: Decode>(
    segments: impl IntoIterator<Item = Bytes>,
) -> Result<T, WireError> {
    let mut rest = segments.into_iter();
    let mut reader = Reader {
        cur: rest.next().unwrap_or_default(),
        rest: &mut rest,
    };
    let v = T::decode(&mut reader)?;
    let remaining = reader.unread();
    if remaining > 0 {
        return Err(WireError::TrailingBytes { remaining });
    }
    Ok(v)
}

/// [`decode_from_segments`] over one contiguous frame.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or leftover bytes.
pub fn decode_from_bytes<T: Decode>(frame: Bytes) -> Result<T, WireError> {
    decode_from_segments([frame])
}

/// [`decode_from_bytes`] over a private copy of `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or leftover bytes.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    decode_from_bytes(Bytes::copy_from_slice(bytes))
}

macro_rules! scalar_codec {
    ($t:ty, $put:ident, $get:ident, $what:literal) => {
        impl Encode for $t {
            fn encode(&self, w: &mut Writer<'_>) {
                w.$put(*self);
            }
        }

        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(r.need(std::mem::size_of::<$t>(), $what)?.$get())
            }
        }
    };
}

scalar_codec!(u8, put_u8, get_u8, "u8");
scalar_codec!(u16, put_u16_le, get_u16_le, "u16");
scalar_codec!(u32, put_u32_le, get_u32_le, "u32");
scalar_codec!(u64, put_u64_le, get_u64_le, "u64");
scalar_codec!(i32, put_i32_le, get_i32_le, "i32");
scalar_codec!(i64, put_i64_le, get_i64_le, "i64");
scalar_codec!(f32, put_f32_le, get_f32_le, "f32");
scalar_codec!(f64, put_f64_le, get_f64_le, "f64");

impl Encode for bool {
    fn encode(&self, w: &mut Writer<'_>) {
        w.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.need(1, "bool")?.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer<'_>) {
        (self.len() as u64).encode(w);
        w.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len_prefix()?;
        let raw = r.take(len, "string body")?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut Writer<'_>) {
        (self.len() as u64).encode(w);
        w.put_blob(self);
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len_prefix()?;
        r.take(len, "bytes body")
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        (self.len() as u64).encode(w);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len_prefix()?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.need(1, "option tag")?.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<const N: usize, T: Encode> Encode for [T; N] {
    fn encode(&self, w: &mut Writer<'_>) {
        for item in self {
            item.encode(w);
        }
    }
}

impl<const N: usize, T: Decode + Default + Copy> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

// ID newtypes encode as their raw integers.
macro_rules! id_codec {
    ($($name:path),* $(,)?) => {
        $(
            impl Encode for $name {
                fn encode(&self, w: &mut Writer<'_>) {
                    self.raw().encode(w);
                }
            }

            impl Decode for $name {
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(<$name>::new(Decode::decode(r)?))
                }
            }
        )*
    };
}

id_codec!(
    crate::ids::NodeId,
    crate::ids::UserId,
    crate::ids::BufferId,
    crate::ids::ProgramId,
    crate::ids::KernelId,
    crate::ids::QueueId,
    crate::ids::EventId,
    crate::ids::RequestId,
);

/// Declares a message struct: the definition exactly as written, plus
/// its codec — the fields in declaration order, on both sides from the
/// one list, so the encoder and the decoder cannot disagree.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer<'_>) {
                $( $crate::wire::Encode::encode(&self.$field, w); )*
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $( $field: $crate::wire::Decode::decode(r)?, )*
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declares a message enum: the definition as written — unit, one-field
/// tuple and named-field variants — with each variant's wire tag in
/// front (`N => Variant`), plus its codec: the `u8` tag, then the
/// variant's fields in declaration order. Tags are explicit because
/// they are wire format: a variant can be declared anywhere without its
/// tag moving. A tag used twice is an unreachable decode arm, which the
/// build rejects.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $( { $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),* $(,)? } )?
                $( ( $tty:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $( { $( $(#[$fmeta])* $field: $fty, )* } )?
                $( ( $tty ) )?,
            )*
        }

        impl $crate::wire::Encode for $name {
            fn encode(&self, w: &mut $crate::wire::Writer<'_>) {
                match self {
                    $(
                        $name::$variant
                        $( { $( $field, )* } )?
                        $( ( $crate::wire::wire_enum!(@binder value $tty) ) )?
                        => {
                            ::bytes::BufMut::put_u8(w, $tag);
                            $( $( $crate::wire::Encode::encode($field, w); )* )?
                            $( <$tty as $crate::wire::Encode>::encode(value, w); )?
                        }
                    )*
                }
            }
        }

        impl $crate::wire::Decode for $name {
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match ::bytes::Buf::get_u8(r.need(1, stringify!($name))?) {
                    $(
                        $tag => $name::$variant
                        $( { $( $field: $crate::wire::Decode::decode(r)?, )* } )?
                        $( ( <$tty as $crate::wire::Decode>::decode(r)? ) )?,
                    )*
                    tag => {
                        return Err($crate::wire::WireError::InvalidTag {
                            what: stringify!($name),
                            tag,
                        })
                    }
                })
            }
        }
    };
    // The name a tuple variant's field is bound to, spelled by the
    // caller so the match pattern and the arm body mean the same
    // variable.
    (@binder $value:ident $tty:ty) => {
        $value
    };
}
pub(crate) use wire_enum;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }

    wire_enum! {
        /// Every variant shape, tags out of declaration order.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Shapes {
            7 => Unit,
            2 => Tuple(String),
            5 => Named {
                /// First on the wire.
                id: u16,
                flag: bool,
            },
        }
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Holder {
            pub count: u32,
            pub shapes: Vec<Shapes>,
        }
    }

    wire_struct! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Pair {
            pub word: u32,
            pub byte: u8,
        }
    }

    #[test]
    fn declared_messages_encode_tag_then_fields_in_declaration_order() {
        assert_eq!(encode_to_vec(&Shapes::Unit), [7]);
        assert_eq!(
            encode_to_vec(&Shapes::Tuple("ab".into())),
            [2, 2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']
        );
        let named = Shapes::Named {
            id: 0x0102,
            flag: true,
        };
        assert_eq!(encode_to_vec(&named), [5, 2, 1, 1]);
        let holder = Holder {
            count: 9,
            shapes: vec![named, Shapes::Unit],
        };
        assert_eq!(
            encode_to_vec(&holder),
            [9, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5, 2, 1, 1, 7]
        );
        roundtrip(holder);
        roundtrip(Shapes::Tuple(String::new()));
    }

    #[test]
    fn declared_enums_name_themselves_in_decode_errors() {
        assert_eq!(
            decode_from_slice::<Shapes>(&[]),
            Err(WireError::UnexpectedEof { what: "Shapes" })
        );
        assert_eq!(
            decode_from_slice::<Shapes>(&[0]),
            Err(WireError::InvalidTag {
                what: "Shapes",
                tag: 0
            })
        );
        // A declared struct has no framing of its own: it runs out
        // inside whichever field the input ends in.
        assert_eq!(
            decode_from_slice::<Holder>(&[9, 0]),
            Err(WireError::UnexpectedEof { what: "u32" })
        );
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(1.5f32);
        roundtrip(-2.25f64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        roundtrip(String::new());
        roundtrip("héllo wörld".to_string());
        roundtrip(Bytes::from_static(b"\x00\x01\xff"));
        roundtrip(Bytes::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(9u32));
        roundtrip(Option::<u32>::None);
        roundtrip([1u64, 2, 3]);
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(crate::ids::BufferId::new(77));
        roundtrip(crate::ids::NodeId::new(3));
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = encode_to_vec(&12345u64);
        let err = decode_from_slice::<u64>(&bytes[..4]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0);
        let err = decode_from_slice::<u8>(&bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let err = decode_from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(
            err,
            WireError::InvalidTag {
                what: "bool",
                tag: 2
            }
        ));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // A string claiming u64::MAX bytes must not attempt allocation.
        let bytes = encode_to_vec(&u64::MAX);
        let err = decode_from_slice::<String>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = encode_to_vec(&2u64);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let err = decode_from_slice::<String>(&bytes).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }

    #[test]
    fn a_blob_travels_as_its_own_segment_and_decodes_as_itself() {
        let blob = Bytes::from(vec![7u8; 100]);
        let (mut head, mut blobs) = (Vec::new(), Vec::new());
        encode_segmented(&blob, &mut head, &mut blobs);
        assert_eq!(head, 100u64.to_le_bytes());
        assert_eq!(blobs.len(), 1);
        assert_eq!((blobs[0].0, blobs[0].1.as_ptr()), (8, blob.as_ptr()));
        let decoded: Bytes = decode_from_segments([Bytes::from(head), blobs.remove(0).1]).unwrap();
        assert_eq!(
            decoded.as_ptr(),
            blob.as_ptr(),
            "the blob must not be copied"
        );
    }

    #[test]
    fn a_boundary_inside_a_scalar_is_an_error_and_between_values_is_not() {
        let wire = Bytes::from(encode_to_vec(&Pair {
            word: 0x0102_0304,
            byte: 9,
        }));
        assert_eq!(
            decode_from_segments::<Pair>([wire.slice(0..2), wire.slice(2..5)]),
            Err(WireError::Straddles { what: "u32" })
        );
        assert_eq!(
            decode_from_segments::<Pair>([wire.slice(0..4), Bytes::new(), wire.slice(4..5)]),
            Ok(Pair {
                word: 0x0102_0304,
                byte: 9
            })
        );
        // Cut short at a boundary, it is still plain truncation.
        assert_eq!(
            decode_from_segments::<Pair>([wire.slice(0..4), Bytes::new()]),
            Err(WireError::UnexpectedEof { what: "u8" })
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_u64_roundtrips(v in any::<u64>()) {
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<u64>(&bytes).unwrap(), v);
        }

        #[test]
        fn any_string_roundtrips(s in ".*") {
            let v = s.to_string();
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<String>(&bytes).unwrap(), v);
        }

        #[test]
        fn any_vec_roundtrips(v in proptest::collection::vec(any::<i64>(), 0..64)) {
            let bytes = encode_to_vec(&v);
            prop_assert_eq!(decode_from_slice::<Vec<i64>>(&bytes).unwrap(), v);
        }

        #[test]
        fn random_bytes_never_panic_decoding(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary garbage may fail but must not panic.
            let _ = decode_from_slice::<String>(&data);
            let _ = decode_from_slice::<Vec<u32>>(&data);
            let _ = decode_from_slice::<Option<u64>>(&data);
        }
    }
}
