//! BAT tail properties.
//!
//! §3.1: operators "maintain properties over the object accessed to gear the
//! selection of subsequent algorithms" — e.g. Select switches to binary
//! search when the tail is sorted. Properties are conservative: `false`
//! means *unknown*, never *known false*.

use mammoth_types::Value;

/// Conservative facts about a BAT's tail column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Properties {
    /// Tail is non-descending.
    pub sorted: bool,
    /// Tail is non-ascending.
    pub revsorted: bool,
    /// Tail values are unique.
    pub key: bool,
    /// Tail contains no nil values.
    pub nonil: bool,
    /// Smallest non-nil tail value, when known.
    pub min: Option<Value>,
    /// Largest non-nil tail value, when known.
    pub max: Option<Value>,
}

impl Properties {
    /// Properties of an empty BAT: trivially sorted, unique and nil-free.
    pub fn empty() -> Self {
        Properties {
            sorted: true,
            revsorted: true,
            key: true,
            nonil: true,
            min: None,
            max: None,
        }
    }

    /// Forget everything (used after operations that scramble the tail).
    pub fn unknown() -> Self {
        Properties::default()
    }

    /// Properties surviving an order-preserving filter of the tail.
    pub fn after_filter(&self) -> Properties {
        Properties {
            sorted: self.sorted,
            revsorted: self.revsorted,
            key: self.key,
            nonil: self.nonil,
            // min/max may have been filtered out; keep them only as bounds.
            min: None,
            max: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_everything() {
        let p = Properties::empty();
        assert!(p.sorted && p.revsorted && p.key && p.nonil);
    }

    #[test]
    fn filter_preserves_order_facts() {
        let p = Properties {
            sorted: true,
            revsorted: false,
            key: true,
            nonil: true,
            min: Some(Value::I32(1)),
            max: Some(Value::I32(9)),
        };
        let f = p.after_filter();
        assert!(f.sorted && f.key && f.nonil);
        assert_eq!(f.min, None);
    }
}
