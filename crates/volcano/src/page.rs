//! NSM slotted pages.
//!
//! Tuples are serialized row-wise into fixed-size pages with a slot
//! directory at the end — the classical layout the paper's §3 contrasts
//! with memory arrays. Record ids (`Rid`) are `(page, slot)` pairs;
//! dereferencing one costs a slot-directory indirection, exactly the
//! "B-tree lookup into slotted pages" access path of the comparison.

use mammoth_types::codec::{put_value, Reader};
use mammoth_types::{Error, LogicalType, Result, Value};

/// Page size in bytes (classic 8 KiB).
pub(crate) const PAGE_SIZE: usize = 8192;

/// A record id: page number and slot number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rid {
    pub page: u32,
    pub slot: u16,
}

/// One slotted page: payload grows from the front, slots from the back.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    data: Vec<u8>,
    /// (offset, len) per slot.
    slots: Vec<(u16, u16)>,
    free_start: usize,
}

impl Page {
    fn new() -> Page {
        Page {
            data: vec![0; PAGE_SIZE],
            slots: Vec::new(),
            free_start: 0,
        }
    }

    fn free_space(&self) -> usize {
        PAGE_SIZE
            .saturating_sub(self.free_start)
            .saturating_sub((self.slots.len() + 1) * 4)
    }

    fn insert(&mut self, payload: &[u8]) -> Option<u16> {
        if payload.len() > self.free_space() {
            return None;
        }
        let off = self.free_start;
        self.data[off..off + payload.len()].copy_from_slice(payload);
        self.free_start += payload.len();
        self.slots.push((off as u16, payload.len() as u16));
        Some((self.slots.len() - 1) as u16)
    }

    fn get(&self, slot: u16) -> Option<&[u8]> {
        let (off, len) = *self.slots.get(slot as usize)?;
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    pub(crate) fn tuple_count(&self) -> usize {
        self.slots.len()
    }
}

/// A heap file of slotted pages.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    pages: Vec<Page>,
    arity: usize,
    tuples: usize,
}

impl HeapFile {
    pub fn new(arity: usize) -> HeapFile {
        HeapFile {
            pages: Vec::new(),
            arity,
            tuples: 0,
        }
    }

    pub(crate) fn tuple_count(&self) -> usize {
        self.tuples
    }

    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Append a tuple, returning its rid.
    pub fn insert(&mut self, row: &[Value]) -> Result<Rid> {
        if row.len() != self.arity {
            return Err(Error::LengthMismatch {
                left: row.len(),
                right: self.arity,
            });
        }
        // row-wise, each value in the byte codec's tagged shape
        let mut payload = Vec::with_capacity(row.len() * 9);
        row.iter().for_each(|v| put_value(v, &mut payload));
        if payload.len() > PAGE_SIZE - 8 {
            return Err(Error::Unsupported("tuple larger than a page".into()));
        }
        if self.pages.is_empty() {
            self.pages.push(Page::new());
        }
        let last = self.pages.len() - 1;
        let slot = match self.pages[last].insert(&payload) {
            Some(s) => s,
            None => {
                self.pages.push(Page::new());
                self.pages
                    .last_mut()
                    .unwrap()
                    .insert(&payload)
                    .expect("fresh page fits any tuple")
            }
        };
        self.tuples += 1;
        Ok(Rid {
            page: (self.pages.len() - 1) as u32,
            slot,
        })
    }

    /// Fetch by rid (the slotted-page indirection).
    pub fn get(&self, rid: Rid) -> Result<Vec<Value>> {
        let page = self.pages.get(rid.page as usize).ok_or(Error::OutOfRange {
            index: rid.page as u64,
            len: self.pages.len() as u64,
        })?;
        let buf = page.get(rid.slot).ok_or(Error::OutOfRange {
            index: rid.slot as u64,
            len: page.tuple_count() as u64,
        })?;
        Reader::new(buf).values(self.arity)
    }

    /// Scan every tuple in rid order.
    pub fn scan(&self) -> impl Iterator<Item = (Rid, Vec<Value>)> + '_ {
        self.pages.iter().enumerate().flat_map(move |(pi, page)| {
            (0..page.tuple_count()).map(move |si| {
                let rid = Rid {
                    page: pi as u32,
                    slot: si as u16,
                };
                let row = Reader::new(page.get(si as u16).unwrap())
                    .values(self.arity)
                    .expect("pages contain only tuples we wrote");
                (rid, row)
            })
        })
    }

    /// Build from column-oriented input (for apples-to-apples experiments).
    pub fn from_columns(types: &[LogicalType], columns: &[Vec<Value>]) -> Result<HeapFile> {
        assert_eq!(types.len(), columns.len());
        let n = columns.first().map_or(0, |c| c.len());
        let mut hf = HeapFile::new(types.len());
        let mut row = Vec::with_capacity(types.len());
        for i in 0..n {
            row.clear();
            for c in columns {
                row.push(c[i].clone());
            }
            hf.insert(&row)?;
        }
        Ok(hf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut hf = HeapFile::new(3);
        let rid = hf
            .insert(&[Value::I32(7), Value::Str("hello".into()), Value::Null])
            .unwrap();
        let row = hf.get(rid).unwrap();
        assert_eq!(
            row,
            vec![Value::I32(7), Value::Str("hello".into()), Value::Null]
        );
    }

    #[test]
    fn page_overflow_allocates_new_pages() {
        let mut hf = HeapFile::new(1);
        let long = "x".repeat(1000);
        for _ in 0..30 {
            hf.insert(&[Value::Str(long.clone())]).unwrap();
        }
        assert!(hf.page_count() > 1);
        assert_eq!(hf.tuple_count(), 30);
        assert_eq!(hf.scan().count(), 30);
    }

    #[test]
    fn scan_order_is_insert_order() {
        let mut hf = HeapFile::new(1);
        for i in 0..1000 {
            hf.insert(&[Value::I64(i)]).unwrap();
        }
        let got: Vec<i64> = hf.scan().map(|(_, row)| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn arity_enforced_and_bounds_checked() {
        let mut hf = HeapFile::new(2);
        assert!(hf.insert(&[Value::I32(1)]).is_err());
        assert!(hf.get(Rid { page: 0, slot: 0 }).is_err());
        assert!(hf
            .insert(&[Value::Str("y".repeat(9000)), Value::Null])
            .is_err());
    }

    #[test]
    fn all_value_types_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::I8(-8),
            Value::I16(-16),
            Value::I32(-32),
            Value::I64(-64),
            Value::F64(2.5),
            Value::Str("σ".into()),
            Value::Oid(42),
        ];
        let mut hf = HeapFile::new(row.len());
        let rid = hf.insert(&row).unwrap();
        assert_eq!(hf.get(rid).unwrap(), row);
    }

    #[test]
    fn from_columns_zips() {
        let hf = HeapFile::from_columns(
            &[LogicalType::I32, LogicalType::Str],
            &[
                vec![Value::I32(1), Value::I32(2)],
                vec![Value::Str("a".into()), Value::Str("b".into())],
            ],
        )
        .unwrap();
        assert_eq!(hf.tuple_count(), 2);
        let rows: Vec<_> = hf.scan().map(|(_, r)| r).collect();
        assert_eq!(rows[1], vec![Value::I32(2), Value::Str("b".into())]);
    }
}
