//! Object identifiers.
//!
//! MonetDB's BATs pair every value with a surrogate *oid*. In the common
//! case the head column is a densely ascending oid sequence starting at some
//! *seqbase*, which is then not stored at all (a "void" column) and lookups
//! become O(1) array reads.

/// A surrogate object identifier (MonetDB `oid`).
///
/// A plain integer alias (not a newtype) so that positional arithmetic in
/// operator inner loops stays free of wrapper noise.
pub type Oid = u64;

/// The nil oid, MonetDB's in-domain NULL for the oid type.
pub(crate) const OID_NIL: Oid = u64::MAX;
