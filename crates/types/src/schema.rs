//! Relational schemas.
//!
//! A table in mammoth is, per the Decomposed Storage Model, nothing more
//! than a set of aligned single-column BATs plus this logical description.

use crate::error::{Error, Result};
use crate::value::LogicalType;

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: LogicalType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: LogicalType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// The logical schema of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Index of a column by name, case-insensitively: untyped callers reach
    /// it, though a catalog's names are already folded (DESIGN.md, the
    /// `sql` row).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Look up a column, erroring with a proper message when absent.
    pub fn column(&self, name: &str) -> Result<(usize, &ColumnDef)> {
        self.column_index(name)
            .map(|i| (i, &self.columns[i]))
            .ok_or_else(|| Error::NotFound {
                kind: "column",
                name: format!("{}.{}", self.name, name),
            })
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate that column names are unique (case-insensitively).
    pub fn validate(&self) -> Result<()> {
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(Error::AlreadyExists {
                    kind: "column",
                    name: c.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableSchema {
        TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32).not_null(),
            ],
        )
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.column_index("AGE"), Some(1));
        assert_eq!(s.column_index("Name"), Some(0));
        assert_eq!(s.column_index("missing"), None);
        let (i, c) = s.column("age").unwrap();
        assert_eq!(i, 1);
        assert!(!c.nullable);
    }

    #[test]
    fn missing_column_error() {
        let s = sample();
        let e = s.column("salary").unwrap_err();
        assert_eq!(e.to_string(), "column not found: people.salary");
    }

    #[test]
    fn duplicate_names_rejected() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I32),
                ColumnDef::new("A", LogicalType::I64),
            ],
        );
        assert!(s.validate().is_err());
        assert!(sample().validate().is_ok());
    }
}
