//! Variable-width string heap.
//!
//! MonetDB splits variable-width columns into two arrays: a fixed-width
//! *offsets* array (the tail proper) and a *blob* of concatenated bytes.
//! Repeated strings are stored once: inserts look up the blob through a
//! hash table keyed on the string's bytes, so low-cardinality string columns
//! cost one offset per row plus one copy per distinct value — a free
//! dictionary encoding that MonetDB exploits heavily.

use mammoth_types::codec::{self, Reader};
use mammoth_types::{fnv1a, Error, Result, FNV_OFFSET};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// Offset value representing the nil string.
pub(crate) const STR_NIL_OFFSET: u64 = u64::MAX;

/// A deduplicating variable-width string heap.
#[derive(Debug, Clone, Default)]
pub struct StrHeap {
    /// Per-row offset into `blob`; `STR_NIL_OFFSET` encodes NULL.
    offsets: Vec<u64>,
    /// Concatenated `u32`-length-prefixed string payloads.
    blob: Vec<u8>,
    /// hash(string) -> blob offset of the first payload with that hash,
    /// for duplicate elimination. One flat table: building, cloning and
    /// dropping a heap allocate nothing per distinct string.
    dedup: HashMap<u64, u64>,
    /// `(hash, blob offset)` of every further payload whose hash was
    /// already taken. 64-bit collisions are vanishingly rare; correctness
    /// does not rest on that.
    spill: Vec<(u64, u64)>,
    /// Number of distinct strings in the blob.
    distinct: usize,
}

/// The unit tests keep four bits of the hash, so that every one of them
/// also exercises the collision path.
const HASH_MASK: u64 = if cfg!(test) { 0xf } else { !0 };

/// FNV-1a: cheap, good enough for a dedup table keyed by full comparison.
fn hash_bytes(b: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, b) & HASH_MASK
}

/// The payload of the blob entry at `off`.
fn payload(blob: &[u8], off: u64) -> &[u8] {
    let off = off as usize;
    let mut lenb = [0u8; 4];
    lenb.copy_from_slice(&blob[off..off + 4]);
    let len = u32::from_le_bytes(lenb) as usize;
    &blob[off + 4..off + 4 + len]
}

impl StrHeap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(rows: usize) -> Self {
        StrHeap {
            offsets: Vec::with_capacity(rows),
            ..Default::default()
        }
    }

    /// Number of entries (rows), including nils.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total bytes used by the blob (for storage accounting).
    pub(crate) fn blob_bytes(&self) -> usize {
        self.blob.len()
    }

    /// Append a string, deduplicating the payload. Returns its row index.
    pub fn push(&mut self, s: &str) -> usize {
        let off = self.intern(s.as_bytes());
        self.offsets.push(off);
        self.offsets.len() - 1
    }

    /// Append a NULL entry. Returns its row index.
    pub(crate) fn push_nil(&mut self) -> usize {
        self.offsets.push(STR_NIL_OFFSET);
        self.offsets.len() - 1
    }

    /// Store a payload in the blob (or find an existing copy) and return
    /// its offset. `bytes` is utf8: a `&str`'s, or another heap's payload.
    fn intern(&mut self, bytes: &[u8]) -> u64 {
        let h = hash_bytes(bytes);
        let off = self.blob.len() as u64;
        match self.dedup.entry(h) {
            Entry::Vacant(e) => {
                e.insert(off);
            }
            Entry::Occupied(e) => {
                let same = |&o: &u64| payload(&self.blob, o) == bytes;
                let spilled = self.spill.iter().filter(|(sh, _)| *sh == h).map(|(_, o)| o);
                if let Some(&found) = std::iter::once(e.get()).chain(spilled).find(|o| same(o)) {
                    return found;
                }
                self.spill.push((h, off));
            }
        }
        let len = u32::try_from(bytes.len()).expect("string longer than u32::MAX");
        self.blob.extend_from_slice(&len.to_le_bytes());
        self.blob.extend_from_slice(bytes);
        self.distinct += 1;
        off
    }

    fn payload_at(&self, off: u64) -> &[u8] {
        payload(&self.blob, off)
    }

    /// The string at row `i`; `None` for NULL. Panics if out of range.
    pub fn get(&self, i: usize) -> Option<&str> {
        let off = self.offsets[i];
        if off == STR_NIL_OFFSET {
            return None;
        }
        // utf8: payloads come from `push(&str)`, from another heap's
        // payloads, or were validated by `read_from`.
        Some(std::str::from_utf8(self.payload_at(off)).expect("heap payload is valid utf8"))
    }

    /// The raw offset at row `i` (rows with equal offsets are equal strings).
    pub fn offset(&self, i: usize) -> u64 {
        self.offsets[i]
    }

    /// Iterate rows as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Gather rows at `positions` into a new heap.
    pub fn take(&self, positions: &[usize]) -> StrHeap {
        let mut out = StrHeap::with_capacity(positions.len());
        for &p in positions {
            match self.get(p) {
                Some(s) => {
                    out.push(s);
                }
                None => {
                    out.push_nil();
                }
            }
        }
        out
    }

    /// Append the rows of `src` that `runs` name (ascending, in range).
    ///
    /// Rows are copied by offset: a table from `src` blob offsets to offsets
    /// here means each distinct payload is hashed and interned once, when it
    /// is first seen, and every other row costs one lookup. Payloads land in
    /// first-seen order, so the result is the heap that pushing the same
    /// strings one by one would have built, byte for byte.
    pub(crate) fn extend_from_runs(&mut self, src: &StrHeap, runs: &[Range<usize>]) {
        let whole = matches!(runs, [all] if *all == (0..src.len()));
        if whole && self.offsets.is_empty() && self.blob.is_empty() {
            // the whole of `src` into an empty heap: its blob already is
            // its strings in first-seen order
            self.clone_from(src);
            return;
        }
        // blob entries start at least 4 bytes (a length prefix) apart
        let mut moved = vec![STR_NIL_OFFSET; src.blob.len() / 4 + 1];
        let rows = runs.iter().map(|r| r.len()).sum();
        self.offsets.reserve(rows);
        self.dedup.reserve(src.distinct.min(rows));
        for run in runs {
            for &off in &src.offsets[run.clone()] {
                if off == STR_NIL_OFFSET {
                    self.offsets.push(STR_NIL_OFFSET);
                    continue;
                }
                let slot = &mut moved[off as usize / 4];
                if *slot == STR_NIL_OFFSET {
                    *slot = self.intern(src.payload_at(off));
                }
                self.offsets.push(*slot);
            }
        }
    }

    /// Serialize: the offsets, then the blob, in the byte codec's shapes.
    /// The dedup table is rebuilt on load (it is an in-memory acceleration
    /// structure only).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        codec::put_fixed(&self.offsets, out);
        codec::put_u64(self.blob.len() as u64, out);
        out.extend_from_slice(&self.blob);
    }

    /// Deserialize what [`StrHeap::write_to`] wrote.
    pub(crate) fn read_from(r: &mut Reader) -> Result<StrHeap> {
        let offsets = r.fixed()?;
        let n = r.count64(1)?;
        let mut heap = StrHeap {
            offsets,
            blob: r.bytes(n)?.to_vec(),
            ..StrHeap::default()
        };
        // Rebuild the dedup index by walking the blob, remembering every
        // valid entry boundary along the way.
        let mut boundaries = std::collections::HashSet::new();
        let mut walk = Reader::new(&heap.blob);
        while walk.remaining() > 0 {
            let off = (heap.blob.len() - walk.remaining()) as u64;
            let len = walk.u32()? as usize;
            let bytes = walk.bytes(len)?;
            // `get` hands these bytes out as &str, so reject non-utf8 now
            std::str::from_utf8(bytes)
                .map_err(|_| Error::Corrupt("invalid utf8 in string heap".into()))?;
            let h = hash_bytes(bytes);
            if let Entry::Vacant(e) = heap.dedup.entry(h) {
                e.insert(off);
            } else {
                heap.spill.push((h, off));
            }
            heap.distinct += 1;
            boundaries.insert(off);
        }
        // Offsets must name entry boundaries: an offset into the middle of
        // an entry would read garbage lengths and payloads.
        for &o in &heap.offsets {
            if o != STR_NIL_OFFSET && !boundaries.contains(&o) {
                return Err(Error::Corrupt("string offset not at entry boundary".into()));
            }
        }
        Ok(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_roundtrip() {
        let mut h = StrHeap::new();
        h.push("John Wayne");
        h.push("Roger Moore");
        h.push_nil();
        h.push("Bob Fosse");
        assert_eq!(h.len(), 4);
        assert_eq!(h.get(0), Some("John Wayne"));
        assert_eq!(h.get(2), None);
        assert_eq!(h.get(3), Some("Bob Fosse"));
    }

    #[test]
    fn duplicates_are_stored_once() {
        let mut h = StrHeap::new();
        for _ in 0..1000 {
            h.push("common-value");
            h.push("other-value");
        }
        assert_eq!(h.len(), 2000);
        assert_eq!(h.distinct, 2);
        // blob holds exactly two length-prefixed payloads
        assert_eq!(
            h.blob_bytes(),
            2 * 4 + "common-value".len() + "other-value".len()
        );
        // equal strings share offsets — usable as a dictionary code
        assert_eq!(h.offset(0), h.offset(2));
        assert_ne!(h.offset(0), h.offset(1));
    }

    #[test]
    fn empty_string_is_not_nil() {
        let mut h = StrHeap::new();
        h.push("");
        h.push_nil();
        assert_eq!(h.get(0), Some(""));
        assert_eq!(h.get(1), None);
    }

    #[test]
    fn take_gathers() {
        let mut h = StrHeap::new();
        for s in ["a", "b", "c", "d"] {
            h.push(s);
        }
        let t = h.take(&[3, 1, 1]);
        assert_eq!(t.get(0), Some("d"));
        assert_eq!(t.get(1), Some("b"));
        assert_eq!(t.get(2), Some("b"));
        assert_eq!(t.distinct, 2);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut h = StrHeap::new();
        h.push("x");
        h.push_nil();
        h.push("yy");
        h.push("x");
        let mut buf = Vec::new();
        h.write_to(&mut buf);
        let mut r = Reader::new(&buf);
        let back = StrHeap::read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.get(0), Some("x"));
        assert_eq!(back.get(1), None);
        assert_eq!(back.get(2), Some("yy"));
        assert_eq!(back.distinct, 2);
        // dedup index still works after reload
        let mut back = back;
        back.push("x");
        assert_eq!(back.distinct, 2);
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(StrHeap::read_from(&mut Reader::new(&[1, 2, 3])).is_err());
        let mut h = StrHeap::new();
        h.push("hello");
        let mut buf = Vec::new();
        h.write_to(&mut buf);
        buf.truncate(buf.len() - 2);
        assert!(StrHeap::read_from(&mut Reader::new(&buf)).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(strings in proptest::collection::vec(
            proptest::option::of("[a-z]{0,12}"), 0..64)
        ) {
            let mut h = StrHeap::new();
            for s in &strings {
                match s {
                    Some(s) => { h.push(s); }
                    None => { h.push_nil(); }
                }
            }
            prop_assert_eq!(h.len(), strings.len());
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(h.get(i), s.as_deref());
            }
            let mut buf = Vec::new();
            h.write_to(&mut buf);
            let back = StrHeap::read_from(&mut Reader::new(&buf)).unwrap();
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(back.get(i), s.as_deref());
            }
        }

        #[test]
        fn prop_dedup_counts_distinct(strings in proptest::collection::vec("[ab]{1,2}", 0..100)) {
            let mut h = StrHeap::new();
            for s in &strings {
                h.push(s);
            }
            let expect: std::collections::HashSet<_> = strings.iter().collect();
            prop_assert_eq!(h.distinct, expect.len());
        }
    }
}
