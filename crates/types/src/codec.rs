//! The byte codec: the one rendering of the primitives every mammoth
//! format is written in.
//!
//! ```text
//! u8 u16 u32 u64   little-endian
//! str              u32-le byte length | utf8 bytes
//! ty               one tag byte: Bool 0 | I8 1 | I16 2 | I32 3 | I64 4 | F64 5 | Str 6 | Oid 7
//! value            one tag byte, then its payload: Null 0 | Bool 1 u8 | I8 2 u8 |
//!                  I16 3 u16 | I32 4 u32 | I64 5 u64 | F64 6 u64 (IEEE bits) |
//!                  Str 7 str | Oid 8 u64
//! column           str name | ty | u8 nullable
//! fixed::<T>       u64-le count | count little-endian T
//! ```
//!
//! WAL records and checkpoint images (`mammoth-storage`), wire messages
//! (`mammoth-server`) and Volcano's slotted pages all read and write
//! through this module, so a value has the same bytes on disk, on the wire
//! and in a page. Formats are versioned above the primitives — by the
//! `MWAL1` header, by `Login` negotiation, by record and message tags —
//! never in them.
//!
//! [`Reader`] is the one reader of untrusted bytes: every read is
//! bounds-checked, every decoded count passes [`Reader::count`] before it
//! sizes an allocation, and [`Reader::finish`] rejects trailing bytes.
//! Failures are [`Error::Corrupt`] with one message per kind; callers
//! prefix their own context ("bad frame: …", "loading checkpoint …").

use crate::{ColumnDef, Error, LogicalType, NativeType, Result, Value};

/// Type tags: a type's tag is its index here.
const TYPES: [LogicalType; 8] = {
    use LogicalType::*;
    [Bool, I8, I16, I32, I64, F64, Str, Oid]
};

fn corrupt(kind: &str) -> Error {
    Error::Corrupt(kind.into())
}

#[inline]
pub fn put_u8(x: u8, out: &mut Vec<u8>) {
    out.push(x);
}

#[inline]
pub fn put_u16(x: u16, out: &mut Vec<u8>) {
    out.extend_from_slice(&x.to_le_bytes());
}

#[inline]
pub fn put_u32(x: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&x.to_le_bytes());
}

#[inline]
pub fn put_u64(x: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&x.to_le_bytes());
}

#[inline]
pub fn put_str(s: &str, out: &mut Vec<u8>) {
    put_u32(s.len() as u32, out);
    out.extend_from_slice(s.as_bytes());
}

/// A type's tag byte.
pub fn put_ty(ty: LogicalType, out: &mut Vec<u8>) {
    out.push(match ty {
        LogicalType::Bool => 0,
        LogicalType::I8 => 1,
        LogicalType::I16 => 2,
        LogicalType::I32 => 3,
        LogicalType::I64 => 4,
        LogicalType::F64 => 5,
        LogicalType::Str => 6,
        LogicalType::Oid => 7,
    });
}

#[inline]
pub fn put_value(v: &Value, out: &mut Vec<u8>) {
    // the tag byte, then the payload's little-endian bytes
    let mut tagged = |tag: u8, payload: &[u8]| {
        out.push(tag);
        out.extend_from_slice(payload);
    };
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => tagged(1, &[*b as u8]),
        Value::I8(x) => tagged(2, &x.to_le_bytes()),
        Value::I16(x) => tagged(3, &x.to_le_bytes()),
        Value::I32(x) => tagged(4, &x.to_le_bytes()),
        Value::I64(x) => tagged(5, &x.to_le_bytes()),
        Value::F64(x) => tagged(6, &x.to_bits().to_le_bytes()),
        Value::Str(s) => {
            out.push(7);
            put_str(s, out);
        }
        Value::Oid(o) => tagged(8, &o.to_le_bytes()),
    }
}

/// A column definition: the shape the WAL's `CreateTable` and the
/// checkpoint manifest share.
pub fn put_column(c: &ColumnDef, out: &mut Vec<u8>) {
    put_str(&c.name, out);
    put_ty(c.ty, out);
    out.push(c.nullable as u8);
}

/// The slice writer: a u64 count, then every element little-endian.
pub fn put_fixed<T: NativeType>(v: &[T], out: &mut Vec<u8>) {
    put_u64(v.len() as u64, out);
    out.reserve(v.len() * T::WIDTH);
    for x in v {
        x.write_le(out);
    }
}

/// A bounds-checked cursor over bytes from a disk or a socket.
pub struct Reader<'a> {
    /// What has not been read yet.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = (self.rest)
            .split_at_checked(n)
            .ok_or_else(|| corrupt("truncated payload"))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.bytes(n)?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| corrupt("invalid utf8"))
    }

    pub fn ty(&mut self) -> Result<LogicalType> {
        let t = self.u8()?;
        TYPES
            .get(t as usize)
            .copied()
            .ok_or_else(|| Error::Corrupt(format!("unknown type tag {t}")))
    }

    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::I8(self.u8()? as i8),
            3 => Value::I16(self.u16()? as i16),
            4 => Value::I32(self.u32()? as i32),
            5 => Value::I64(self.u64()? as i64),
            6 => Value::F64(f64::from_bits(self.u64()?)),
            7 => Value::Str(self.str()?),
            8 => Value::Oid(self.u64()?),
            t => return Err(Error::Corrupt(format!("unknown value tag {t}"))),
        })
    }

    /// `n` values in a row; `n` is a vetted [`Reader::count`] or the
    /// reader's own arity.
    #[inline]
    pub fn values(&mut self, n: usize) -> Result<Vec<Value>> {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    /// A column definition written by [`put_column`] (at least 6 bytes).
    pub fn column(&mut self) -> Result<ColumnDef> {
        let mut def = ColumnDef::new(self.str()?, self.ty()?);
        def.nullable = self.u8()? != 0;
        Ok(def)
    }

    /// A slice written by [`put_fixed`].
    pub fn fixed<T: NativeType>(&mut self) -> Result<Vec<T>> {
        let n = self.u64()?;
        let n = self.vet(n, T::WIDTH)?;
        let bytes = self.bytes(n * T::WIDTH)?;
        Ok(bytes.chunks_exact(T::WIDTH).map(T::read_le).collect())
    }

    /// A u32 count of items that take at least `min_bytes_each` bytes
    /// apiece: the one allocation guard for decoded counts. A count the
    /// bytes left cannot hold is corrupt, and so is any nonzero count of
    /// zero-byte items (the rows of a zero-column table).
    #[inline]
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize> {
        let n = self.u32()?;
        self.vet(n.into(), min_bytes_each)
    }

    /// [`Reader::count`] for a u64 count.
    #[inline]
    pub fn count64(&mut self, min_bytes_each: usize) -> Result<usize> {
        let n = self.u64()?;
        self.vet(n, min_bytes_each)
    }

    #[inline]
    fn vet(&self, n: u64, min_bytes_each: usize) -> Result<usize> {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        match n.checked_mul(min_bytes_each) {
            Some(b) if b <= self.remaining() && (min_bytes_each > 0 || n == 0) => Ok(n),
            _ => Err(corrupt("count overruns payload")),
        }
    }

    /// Succeeds when every byte has been read.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(corrupt("trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OID_NIL;

    /// One value of every variant — the nil sentinels among them — and
    /// its bytes, written out by hand. A change here moves the WAL, the
    /// checkpoint images and the wire protocol at once.
    fn golden_values() -> Vec<(Value, Vec<u8>)> {
        vec![
            (Value::Null, vec![0]),
            (Value::Bool(true), vec![1, 1]),
            (Value::Bool(false), vec![1, 0]),
            (Value::I8(-3), vec![2, 0xfd]),
            (Value::I8(i8::MIN), vec![2, 0x80]),
            (Value::I16(-300), vec![3, 0xd4, 0xfe]),
            (Value::I16(i16::MIN), vec![3, 0x00, 0x80]),
            (Value::I32(70_000), vec![4, 0x70, 0x11, 0x01, 0x00]),
            (Value::I32(i32::MIN), vec![4, 0, 0, 0, 0x80]),
            (
                Value::I64(-2),
                vec![5, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            ),
            (Value::I64(i64::MIN), vec![5, 0, 0, 0, 0, 0, 0, 0, 0x80]),
            (Value::F64(2.5), vec![6, 0, 0, 0, 0, 0, 0, 0x04, 0x40]),
            (Value::F64(-0.0), vec![6, 0, 0, 0, 0, 0, 0, 0, 0x80]),
            (Value::F64(f64::NAN), vec![6, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f]),
            (
                Value::F64(f64::from_bits(0x7ff8_0000_0000_0001)),
                vec![6, 0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f],
            ),
            (Value::Str(String::new()), vec![7, 0, 0, 0, 0]),
            (
                Value::Str("σé".into()),
                vec![7, 4, 0, 0, 0, 0xcf, 0x83, 0xc3, 0xa9],
            ),
            (Value::Oid(42), vec![8, 42, 0, 0, 0, 0, 0, 0, 0]),
            (
                Value::Oid(OID_NIL),
                vec![8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            ),
        ]
    }

    /// Every byte string a whole golden document is made of, with the
    /// reads that take it apart.
    fn golden_document() -> Vec<u8> {
        let mut out = Vec::new();
        for (_, bytes) in golden_values() {
            out.extend_from_slice(&bytes);
        }
        out.extend(0..8u8);
        out.extend_from_slice(&[1, 0, 0, 0, b'a', 3, 0]); // column a int not null
        out.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xfe]); // fixed i8 [-1, -2]
        out
    }

    fn read_document(buf: &[u8]) -> Result<()> {
        let mut r = Reader::new(buf);
        for _ in golden_values() {
            r.value()?;
        }
        for _ in TYPES {
            r.ty()?;
        }
        r.column()?;
        r.fixed::<i8>()?;
        r.finish()
    }

    #[test]
    fn golden_bytes_are_pinned() {
        for (v, want) in golden_values() {
            let mut got = Vec::new();
            put_value(&v, &mut got);
            assert_eq!(got, want, "{v:?}");
            // decode, then re-encode: NaN payloads and -0.0 survive bit for bit
            let back = Reader::new(&want).value().unwrap();
            let mut again = Vec::new();
            put_value(&back, &mut again);
            assert_eq!(again, want, "{v:?} after a decode");
        }
        for (tag, ty) in TYPES.into_iter().enumerate() {
            let mut got = Vec::new();
            put_ty(ty, &mut got);
            assert_eq!(got, [tag as u8], "{ty:?}");
            assert_eq!(Reader::new(&got).ty().unwrap(), ty);
        }
        let mut doc = Vec::new();
        for (v, _) in golden_values() {
            put_value(&v, &mut doc);
        }
        for ty in TYPES {
            put_ty(ty, &mut doc);
        }
        put_column(&ColumnDef::new("a", LogicalType::I32).not_null(), &mut doc);
        put_fixed(&[-1i8, -2], &mut doc);
        assert_eq!(doc, golden_document());
        read_document(&doc).unwrap();
    }

    #[test]
    fn every_strict_prefix_is_an_error() {
        let doc = golden_document();
        for cut in 0..doc.len() {
            assert!(read_document(&doc[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut long = doc.clone();
        long.push(0);
        assert!(read_document(&long).is_err(), "trailing byte");
    }

    #[test]
    fn value_codec_roundtrips() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::I8(-3),
            Value::I16(-300),
            Value::I32(70_000),
            Value::I64(-1 << 40),
            Value::F64(2.5),
            Value::Str("x''y\"z\n".into()),
            Value::Str(String::new()),
            Value::Oid(42),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(v, &mut buf);
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.values(vals.len()).unwrap(), vals);
        r.finish().unwrap();
    }

    #[test]
    fn reader_bounds_checked() {
        let mut r = Reader::new(b"\x05\x00\x00\x00ab");
        assert!(r.str().is_err(), "declared 5 bytes, only 2 present");
        let mut r = Reader::new(b"\x09");
        assert!(r.value().is_err(), "unknown tag");
        let mut r = Reader::new(b"\x08");
        assert!(r.ty().is_err(), "unknown type tag");
        let mut r = Reader::new(b"\x02\x00\x00\x00\xff\xfe");
        assert!(r.str().is_err(), "invalid utf8");
    }

    #[test]
    fn counts_are_vetted_before_allocation() {
        // u32::MAX items of one byte each in a 4-byte buffer
        assert!(Reader::new(&[0xff; 4]).count(1).is_err());
        assert!(Reader::new(&[0xff; 8]).count64(1).is_err());
        assert!(Reader::new(&[0xff; 8]).fixed::<u64>().is_err());
        // a count the bytes left can hold passes; zero-byte items only at zero
        assert_eq!(Reader::new(&[2, 0, 0, 0, 7, 7]).count(1).unwrap(), 2);
        assert!(Reader::new(&[3, 0, 0, 0, 7, 7]).count(1).is_err());
        assert!(Reader::new(&[1, 0, 0, 0]).count(0).is_err());
        assert_eq!(Reader::new(&[0, 0, 0, 0]).count(0).unwrap(), 0);
    }
}
