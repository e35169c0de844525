//! NSM tables: a heap file plus a schema, with helpers to build from
//! columnar data and to look rows up through a B+-tree over a column.

use crate::iter::Tuple;
use crate::page::{HeapFile, Rid};
use mammoth_index::BPlusTree;
use mammoth_types::{Result, TableSchema, Value};

/// A row-store table.
#[derive(Debug, Clone)]
pub struct NsmTable {
    pub schema: TableSchema,
    pub file: HeapFile,
}

impl NsmTable {
    /// Build from aligned columns of values.
    pub fn from_columns(schema: TableSchema, columns: &[Vec<Value>]) -> Result<NsmTable> {
        let types: Vec<_> = schema.columns.iter().map(|c| c.ty).collect();
        Ok(NsmTable {
            file: HeapFile::from_columns(&types, columns)?,
            schema,
        })
    }

    pub fn len(&self) -> usize {
        self.file.tuple_count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Build a B+-tree over an integer column, mapping key → rid-encoded
    /// position (the "index into slotted pages" of §3).
    pub fn build_btree(&self, col: usize) -> BPlusTree<i64> {
        let mut pairs: Vec<(i64, u64)> = Vec::with_capacity(self.len());
        for (rid, row) in self.file.scan() {
            if let Some(k) = row[col].as_i64() {
                pairs.push((k, ((rid.page as u64) << 16) | rid.slot as u64));
            }
        }
        pairs.sort_by_key(|p| p.0);
        BPlusTree::bulk_load(&pairs)
    }

    /// Decode a rid encoded by [`NsmTable::build_btree`] and fetch the row —
    /// the full traditional lookup path: tree descent + slotted-page read.
    pub fn fetch_encoded(&self, enc: u64) -> Result<Tuple> {
        let rid = Rid {
            page: (enc >> 16) as u32,
            slot: (enc & 0xFFFF) as u16,
        };
        self.file.get(rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::{ColumnDef, LogicalType};

    fn table() -> NsmTable {
        NsmTable::from_columns(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", LogicalType::I64),
                    ColumnDef::new("v", LogicalType::Str),
                ],
            ),
            &[
                (0..100).map(Value::I64).collect(),
                (0..100).map(|i| Value::Str(format!("s{i}"))).collect(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn btree_lookup_roundtrip() {
        let t = table();
        let idx = t.build_btree(0);
        for k in [0i64, 42, 99] {
            let enc = idx.get(k).unwrap();
            let row = t.fetch_encoded(enc).unwrap();
            assert_eq!(row[0], Value::I64(k));
            assert_eq!(row[1], Value::Str(format!("s{k}")));
        }
        assert!(idx.get(1000).is_none());
    }
}
