//! Hash partitioning: which shard owns a row.
//!
//! Every sharded table is hash-partitioned on a single **partition key**
//! column (by convention the table's first column). A row lives on exactly
//! one shard, chosen by hashing the canonical encoding of its key value
//! with FNV-1a and reducing modulo the shard count. The encoding is
//! deliberately type-class based — `I32(5)` and `I64(5)` hash identically —
//! so that routing a literal from SQL text agrees with routing the stored
//! value regardless of which integer width the parser picked.
//!
//! The map is pure arithmetic over the key value and the shard count:
//! restarting the coordinator (or building a second coordinator over the
//! same shard list) reproduces the same placement, which is what the
//! partitioner proptests in `tests/sharding.rs` pin down.

use std::collections::BTreeMap;

use mammoth_types::{fnv1a, Error, Result, TableSchema, Value, FNV_OFFSET};

/// FNV-1a over the canonical encoding of a value.
///
/// Each type class gets a tag byte so `Str("")` and `Null` cannot collide
/// structurally; integers normalise to `i64` little-endian so the two
/// integer widths route identically.
pub fn hash_value(v: &Value) -> u64 {
    let tagged = |tag: u8, bytes: &[u8]| fnv1a(fnv1a(FNV_OFFSET, &[tag]), bytes);
    match v {
        Value::Null => tagged(0, &[]),
        Value::Bool(b) => tagged(1, &[u8::from(*b)]),
        Value::I8(x) => tagged(2, &i64::from(*x).to_le_bytes()),
        Value::I16(x) => tagged(2, &i64::from(*x).to_le_bytes()),
        Value::I32(x) => tagged(2, &i64::from(*x).to_le_bytes()),
        Value::I64(x) => tagged(2, &x.to_le_bytes()),
        Value::F64(x) => tagged(3, &x.to_bits().to_le_bytes()),
        Value::Str(s) => tagged(4, s.as_bytes()),
        Value::Oid(o) => tagged(5, &o.to_le_bytes()),
    }
}

/// The shard that owns a row whose partition key is `v`, out of `nshards`.
pub fn shard_of(v: &Value, nshards: usize) -> usize {
    debug_assert!(nshards > 0);
    (hash_value(v) % nshards as u64) as usize
}

/// How one table is partitioned.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Name of the partition key column.
    pub key_column: String,
    /// Index of the key column in the table's schema (and in INSERT rows,
    /// which mammoth requires to list every column in schema order).
    pub key_index: usize,
}

/// Partition specs for every sharded table, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct PartitionMap {
    specs: BTreeMap<String, PartitionSpec>,
}

impl PartitionMap {
    /// Register a table: its first column becomes the partition key.
    pub fn add_table(&mut self, schema: &TableSchema) -> Result<()> {
        let first = schema
            .columns
            .first()
            .ok_or_else(|| Error::Unsupported("cannot shard a table with no columns".into()))?;
        self.specs.insert(
            schema.name.clone(),
            PartitionSpec {
                key_column: first.name.clone(),
                key_index: 0,
            },
        );
        Ok(())
    }

    /// Forget a dropped table.
    pub fn remove_table(&mut self, name: &str) {
        self.specs.remove(name);
    }

    /// The partition spec for `table`, if it is sharded.
    pub fn spec(&self, table: &str) -> Option<&PartitionSpec> {
        self.specs.get(table)
    }

    /// Iterate `(table, spec)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &PartitionSpec)> {
        self.specs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::{ColumnDef, LogicalType};

    #[test]
    fn integer_widths_route_identically() {
        for n in 1..8usize {
            for x in [-3i64, 0, 5, 41, i32::MAX as i64] {
                assert_eq!(
                    shard_of(&Value::I32(x as i32), n),
                    shard_of(&Value::I64(x), n),
                    "I32/I64 {x} disagree at n={n}"
                );
            }
        }
    }

    /// Placement is stored state: every durable shard directory holds the
    /// rows this function sent it, so it may not move between builds. The
    /// expected digits are `shard_of` of each value at 3 and at 7 shards.
    #[rustfmt::skip]
    #[test]
    fn placement_is_pinned() {
        let cases: [(Vec<Value>, &str, &str); 8] = [
            (vec![Value::Null, false.into(), true.into()], "012", "303"),
            ([i8::MIN, -100, -7, -1, 0, 1, 2, 5, 41, 100, 126, i8::MAX].map(Value::I8).to_vec(),
                "110122111102", "215353616440"),
            ([i16::MIN, -9_000, -129, -1, 0, 1, 2, 300, 4_097, 20_000, 32_766, i16::MAX]
                .map(Value::I16).to_vec(), "201122112002", "134353604332"),
            ([i32::MIN, -70_000, -129, -1, 0, 1, 2, 41, 65_536, 1 << 24, 1 << 30, i32::MAX]
                .map(Value::I32).to_vec(), "111122111221", "604353665045"),
            ([i64::MIN + 1, -1 << 40, -65_536, -129, -7, -1, 0, 1, 2, 41, 1 << 33, i64::MAX]
                .map(Value::I64).to_vec(), "120101221122", "226453536614"),
            ([f64::MIN, -1e300, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25, 1e10, f64::INFINITY, f64::NAN]
                .map(Value::F64).to_vec(), "100221112122", "113310025256"),
            (["", "a", "b", "k", "abc", "naïve", "key-1", "key-2", "hello world", "0", "42", "zzz"]
                .map(Value::from).to_vec(), "202010112211", "541132612522"),
            ([0, 1, 2, 3, 5, 41, 1_000, 1 << 32, 1 << 40, u64::MAX - 2, u64::MAX - 1, u64::MAX]
                .map(Value::Oid).to_vec(), "120102101111", "630454056106"),
        ];
        for (values, at3, at7) in cases {
            for (n, want) in [(3, at3), (7, at7)] {
                let got: String = values.iter().map(|v| shard_of(v, n).to_string()).collect();
                assert_eq!(got, want, "{values:?} at n={n}");
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        for v in [Value::Null, Value::Str("abc".into()), Value::I64(99)] {
            assert_eq!(shard_of(&v, 1), 0);
        }
    }

    #[test]
    fn spread_is_not_degenerate() {
        // 1000 consecutive keys over 3 shards: each shard gets a
        // non-trivial share. FNV-1a is not cryptographic, but it must not
        // collapse onto one shard for the workloads the tests generate.
        let mut counts = [0usize; 3];
        for k in 0..1000i64 {
            counts[shard_of(&Value::I64(k), 3)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 100, "shard {i} got only {c}/1000 keys: {counts:?}");
        }
    }

    #[test]
    fn map_tracks_first_column_and_drops() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", LogicalType::I64),
                ColumnDef::new("v", LogicalType::Str),
            ],
        );
        let mut map = PartitionMap::default();
        map.add_table(&schema).unwrap();
        let spec = map.spec("t").expect("registered");
        assert_eq!(spec.key_column, "id");
        assert_eq!(spec.key_index, 0);
        map.remove_table("t");
        assert!(map.spec("t").is_none());
    }
}
