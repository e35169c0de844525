//! Dynamic values and logical types.

use crate::oid::Oid;
use std::fmt;

/// The logical (SQL-level) type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalType {
    Bool,
    I8,
    I16,
    I32,
    I64,
    F64,
    Str,
    Oid,
}

impl LogicalType {
    /// Width in bytes of the fixed part of a value of this type
    /// (strings store an 8-byte offset into a variable heap).
    pub fn fixed_width(&self) -> usize {
        match self {
            LogicalType::Bool => 1,
            LogicalType::I8 => 1,
            LogicalType::I16 => 2,
            LogicalType::I32 => 4,
            LogicalType::I64 | LogicalType::F64 | LogicalType::Oid => 8,
            LogicalType::Str => 8,
        }
    }

    /// True for types stored via a variable-width heap.
    pub fn is_varwidth(&self) -> bool {
        matches!(self, LogicalType::Str)
    }

    /// True for the numeric family (arithmetic is defined).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            LogicalType::I8
                | LogicalType::I16
                | LogicalType::I32
                | LogicalType::I64
                | LogicalType::F64
        )
    }

    /// The common type two numeric operands widen to, if any.
    pub fn widen(a: LogicalType, b: LogicalType) -> Option<LogicalType> {
        use LogicalType::*;
        if a == b {
            return Some(a);
        }
        if !a.is_numeric() || !b.is_numeric() {
            return None;
        }
        if a == F64 || b == F64 {
            return Some(F64);
        }
        let rank = |t: LogicalType| match t {
            I8 => 0,
            I16 => 1,
            I32 => 2,
            I64 => 3,
            _ => 4,
        };
        Some(if rank(a) >= rank(b) { a } else { b })
    }

    /// Canonical lower-case name (used by MAL textual form and SQL).
    pub fn name(&self) -> &'static str {
        match self {
            LogicalType::Bool => "bool",
            LogicalType::I8 => "tinyint",
            LogicalType::I16 => "smallint",
            LogicalType::I32 => "int",
            LogicalType::I64 => "bigint",
            LogicalType::F64 => "double",
            LogicalType::Str => "string",
            LogicalType::Oid => "oid",
        }
    }

    /// Parse a type name as produced by [`LogicalType::name`] (plus common
    /// SQL aliases).
    pub fn parse(s: &str) -> Option<LogicalType> {
        Some(match s.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => LogicalType::Bool,
            "tinyint" => LogicalType::I8,
            "smallint" => LogicalType::I16,
            "int" | "integer" => LogicalType::I32,
            "bigint" => LogicalType::I64,
            "double" | "float" | "real" => LogicalType::F64,
            "string" | "varchar" | "text" | "clob" => LogicalType::Str,
            "oid" => LogicalType::Oid,
            _ => return None,
        })
    }
}

impl fmt::Display for LogicalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed runtime value.
///
/// Bulk execution never materializes `Value`s in inner loops — they exist for
/// query constants, result rendering and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    F64(f64),
    Str(String),
    Oid(Oid),
}

impl Value {
    /// The logical type, if determinable (`Null` has none).
    pub fn logical_type(&self) -> Option<LogicalType> {
        Some(match self {
            Value::Null => return None,
            Value::Bool(_) => LogicalType::Bool,
            Value::I8(_) => LogicalType::I8,
            Value::I16(_) => LogicalType::I16,
            Value::I32(_) => LogicalType::I32,
            Value::I64(_) => LogicalType::I64,
            Value::F64(_) => LogicalType::F64,
            Value::Str(_) => LogicalType::Str,
            Value::Oid(_) => LogicalType::Oid,
        })
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 (for aggregation/rendering).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I8(x) => Some(*x as f64),
            Value::I16(x) => Some(*x as f64),
            Value::I32(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric view as i64, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I8(x) => Some(*x as i64),
            Value::I16(x) => Some(*x as i64),
            Value::I32(x) => Some(*x as i64),
            Value::I64(x) => Some(*x),
            Value::Oid(x) => i64::try_from(*x).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce to `ty` if a lossless conversion exists.
    pub fn coerce(&self, ty: LogicalType) -> Option<Value> {
        if self.is_null() {
            return Some(Value::Null);
        }
        if self.logical_type() == Some(ty) {
            return Some(self.clone());
        }
        match ty {
            LogicalType::I8 => self
                .as_i64()
                .and_then(|x| i8::try_from(x).ok())
                .map(Value::I8),
            LogicalType::I16 => self
                .as_i64()
                .and_then(|x| i16::try_from(x).ok())
                .map(Value::I16),
            LogicalType::I32 => self
                .as_i64()
                .and_then(|x| i32::try_from(x).ok())
                .map(Value::I32),
            LogicalType::I64 => self.as_i64().map(Value::I64),
            LogicalType::F64 => self.as_f64().map(Value::F64),
            LogicalType::Oid => self
                .as_i64()
                .and_then(|x| u64::try_from(x).ok())
                .map(Value::Oid),
            _ => None,
        }
    }

    /// Whether a column of type `ty` stores this value as its nil: `None`
    /// when the column cannot hold it (what [`Value::coerce`] refuses, and a
    /// NULL in a `bool` column, which has no nil), `Some(true)` for NULL and
    /// for a value whose stored image *is* the nil sentinel — `i64::MIN` in
    /// a BIGINT column, any NaN in a DOUBLE one — which the read path
    /// returns as NULL. Allocates nothing.
    pub fn stored_nil(&self, ty: LogicalType) -> Option<bool> {
        use crate::native::NativeType;
        if let (LogicalType::Str, Value::Str(_)) = (ty, self) {
            return Some(false);
        }
        // past strings, coercing copies no heap data
        Some(match self.coerce(ty)? {
            Value::Null if ty == LogicalType::Bool => return None,
            Value::Null => true,
            Value::I8(x) => x.is_nil(),
            Value::I16(x) => x.is_nil(),
            Value::I32(x) => x.is_nil(),
            Value::I64(x) => x.is_nil(),
            Value::F64(x) => x.is_nil(),
            Value::Oid(x) => x.is_nil(),
            Value::Bool(_) | Value::Str(_) => false,
        })
    }

    /// Whether comparing a column of type `ty` with this literal compares
    /// it with NULL — the literal is NULL, or the column stores it as its
    /// nil — so that no row can qualify.
    pub fn reads_as_null(&self, ty: LogicalType) -> bool {
        self.is_null() || self.stored_nil(ty) == Some(true)
    }

    /// SQL-style comparison: `None` when either side is NULL or the types
    /// are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => a.partial_cmp(b),
            (Str(a), Str(b)) => a.partial_cmp(b),
            (Oid(a), Oid(b)) => a.partial_cmp(b),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I8(x) => write!(f, "{x}"),
            Value::I16(x) => write!(f, "{x}"),
            Value::I32(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Oid(x) => write!(f, "{x}@0"),
        }
    }
}

impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::I32(x)
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::I64(x)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_rules() {
        use LogicalType::*;
        assert_eq!(LogicalType::widen(I32, I64), Some(I64));
        assert_eq!(LogicalType::widen(I8, I16), Some(I16));
        assert_eq!(LogicalType::widen(I64, F64), Some(F64));
        assert_eq!(LogicalType::widen(Str, I32), None);
        assert_eq!(LogicalType::widen(Str, Str), Some(Str));
    }

    #[test]
    fn type_name_roundtrip() {
        for t in [
            LogicalType::Bool,
            LogicalType::I8,
            LogicalType::I16,
            LogicalType::I32,
            LogicalType::I64,
            LogicalType::F64,
            LogicalType::Str,
            LogicalType::Oid,
        ] {
            assert_eq!(LogicalType::parse(t.name()), Some(t));
        }
        assert_eq!(LogicalType::parse("VARCHAR"), Some(LogicalType::Str));
        assert_eq!(LogicalType::parse("nonsense"), None);
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::I32(1)), None);
        assert_eq!(Value::I32(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::I32(1).sql_cmp(&Value::I64(2)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Value::Str("b".into()).sql_cmp(&Value::Str("a".into())),
            Some(std::cmp::Ordering::Greater)
        );
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::I64(7).coerce(LogicalType::I32), Some(Value::I32(7)));
        assert_eq!(Value::I64(i64::MAX).coerce(LogicalType::I32), None);
        assert_eq!(
            Value::I32(7).coerce(LogicalType::F64),
            Some(Value::F64(7.0))
        );
        assert_eq!(Value::Null.coerce(LogicalType::I32), Some(Value::Null));
        assert_eq!(Value::Str("x".into()).coerce(LogicalType::I32), None);
    }

    /// `stored_nil` is `coerce` followed by the column's native image.
    #[test]
    fn stored_nil_reads_the_stored_image() {
        use crate::native::NativeType;
        use crate::oid::OID_NIL;
        fn image<T: NativeType>(v: &Value) -> Option<bool> {
            T::from_value(v).map(|x| x.is_nil())
        }
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::I8(i8::MIN),
            Value::I8(3),
            Value::I16(i16::MIN),
            Value::I32(i32::MIN),
            Value::I32(-1),
            Value::I64(i64::MIN),
            Value::I64(i32::MIN.into()),
            Value::I64(i16::MIN.into()),
            Value::I64(i8::MIN.into()),
            Value::I64(-7),
            Value::I64(7),
            Value::F64(f64::NAN),
            Value::F64(-0.0),
            Value::F64(f64::NEG_INFINITY),
            Value::F64(2.5),
            Value::Str(String::new()),
            Value::Oid(OID_NIL),
            Value::Oid(OID_NIL - 1),
            Value::Oid(5),
        ];
        use LogicalType::*;
        for ty in [Bool, I8, I16, I32, I64, F64, Str, Oid] {
            for v in &values {
                let want = v.coerce(ty).and_then(|c| match ty {
                    Bool => image::<bool>(&c),
                    I8 => image::<i8>(&c),
                    I16 => image::<i16>(&c),
                    I32 => image::<i32>(&c),
                    I64 => image::<i64>(&c),
                    F64 => image::<f64>(&c),
                    Oid => image::<crate::Oid>(&c),
                    Str => Some(c.is_null()),
                });
                assert_eq!(v.stored_nil(ty), want, "{v:?} in a {ty} column");
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::I32(-5).to_string(), "-5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Oid(3).to_string(), "3@0");
    }
}
