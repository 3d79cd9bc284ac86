//! The one binary layout for values: device messages, WAL frames and
//! snapshot images all write through these functions.
//!
//! Every integer is little-endian, a `bool` is one byte, a string is a
//! `u32` byte length followed by UTF-8, and a sequence is a `u32` count
//! followed by its elements. A [`Value`] is a one-byte tag (0 NULL,
//! 1 bool, 2 int, 3 float, 4 string, 5 location) followed by its payload;
//! a [`Tuple`] is its values as a sequence, then its query tags as a
//! sequence of `u32`.
//!
//! [`Reader`] is strict: a short buffer, an unknown tag, invalid UTF-8 or
//! unread bytes at the end are a typed [`DecodeError`], and a count field
//! never sizes an allocation beyond the bytes that remain.

use std::fmt;

use crate::{Location, Tuple, Value};

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `bool` as one byte, 0 or 1.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tagged value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_bool(out, *b);
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Location(l) => {
            put_u8(out, 5);
            put_f64(out, l.x);
            put_f64(out, l.y);
            put_f64(out, l.z);
        }
    }
}

/// Appends a sequence: its `u32` count, then each item with `each`.
pub fn put_vec<T>(out: &mut Vec<u8>, items: &[T], mut each: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        each(out, item);
    }
}

/// Appends a tuple: its values, then its query tags.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_vec(out, t.values(), put_value);
    put_vec(out, t.tags(), |out, &q| put_u32(out, q));
}

/// Encoded size of a string written by [`put_str`].
#[inline]
pub fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// Encoded size of a value written by [`put_value`].
#[inline]
pub fn value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => str_len(s),
        Value::Location(_) => 3 * 8,
    }
}

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The buffer ends before the field does.
    Truncated,
    /// A tag byte names no variant of `field`.
    BadTag {
        /// The tagged field, e.g. `"value"` or `"record kind"`.
        field: &'static str,
        /// The unknown tag.
        tag: u8,
    },
    /// A string's bytes are not UTF-8.
    BadUtf8,
    /// Bytes remain after the last field.
    TrailingBytes {
        /// How many.
        count: usize,
    },
}

/// A decode failure at a byte offset of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset of the field that failed to decode.
    pub offset: usize,
    /// What failed.
    pub what: DecodeErrorKind,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.offset;
        match &self.what {
            DecodeErrorKind::Truncated => write!(f, "input ends inside the field at byte {at}"),
            DecodeErrorKind::BadTag { field, tag } => {
                write!(f, "unknown {field} tag {tag:#04x} at byte {at}")
            }
            DecodeErrorKind::BadUtf8 => write!(f, "invalid UTF-8 in the string at byte {at}"),
            DecodeErrorKind::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) at byte {at}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes. Every reader fails with
    /// [`DecodeErrorKind::Truncated`] when its field runs past the end.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.error(DecodeErrorKind::Truncated));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads an `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `bool`: any non-zero byte is true.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError {
                offset: self.pos - n,
                what: DecodeErrorKind::BadUtf8,
            })
    }

    /// Reads a tagged value.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.str()?),
            5 => Value::Location(Location::new(self.f64()?, self.f64()?, self.f64()?)),
            tag => return Err(self.bad_tag("value", tag)),
        })
    }

    /// Reads a tuple written by [`put_tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, DecodeError> {
        let mut t = Tuple::new(self.vec(Reader::value)?);
        for q in self.vec(Reader::u32)? {
            t.add_tag(q);
        }
        Ok(t)
    }

    /// Reads a `u32` count, then that many elements with `each`. The
    /// count sizes no allocation beyond the bytes that remain, so a lying
    /// count fails as truncation instead of exhausting memory.
    pub fn vec<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(each(self)?);
        }
        Ok(out)
    }

    /// The error for an unknown `tag` of `field`, pointing at the tag byte
    /// just read.
    pub fn bad_tag(&self, field: &'static str, tag: u8) -> DecodeError {
        DecodeError {
            offset: self.pos - 1,
            what: DecodeErrorKind::BadTag { field, tag },
        }
    }

    fn error(&self, what: DecodeErrorKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
        }
    }

    /// Ends the decode: [`DecodeErrorKind::TrailingBytes`] when bytes
    /// remain unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(self.error(DecodeErrorKind::TrailingBytes { count })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_the_offset_of_the_failing_field() {
        let mut out = Vec::new();
        put_u8(&mut out, 9);
        assert_eq!(
            Reader::new(&out).value(),
            Err(DecodeError {
                offset: 0,
                what: DecodeErrorKind::BadTag {
                    field: "value",
                    tag: 9
                }
            })
        );
        let mut out = Vec::new();
        put_u8(&mut out, 4);
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        let e = Reader::new(&out).value().unwrap_err();
        assert_eq!((e.offset, e.what), (5, DecodeErrorKind::BadUtf8));
    }

    #[test]
    fn a_lying_count_is_truncation_not_an_allocation() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        let e = Reader::new(&out).vec(Reader::value).unwrap_err();
        assert_eq!((e.offset, e.what), (4, DecodeErrorKind::Truncated));
    }
}
