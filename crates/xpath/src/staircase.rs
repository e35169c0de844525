//! Staircase join (§3.2).
//!
//! The staircase join evaluates an XPath axis for a whole *set* of context
//! nodes in a single sequential pass over the document: it prunes context
//! nodes covered by other context nodes (their regions nest), then scans
//! each surviving region exactly once. The naive region join — test every
//! document node against every context node — is kept as the E15 baseline.

use crate::encode::Doc;

/// Descendant axis, naive region join: O(|doc| × |context|).
pub fn descendants_naive(doc: &Doc, context: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for d in 0..doc.len() as u32 {
        if context.iter().any(|&c| doc.is_descendant(d, c)) {
            out.push(d);
        }
    }
    out
}

/// Descendant axis, staircase join: O(|doc region| + |context|), one pass,
/// duplicate-free output in document order.
///
/// `context` must be sorted by pre rank (ascending); the output is too.
pub fn descendants_staircase(doc: &Doc, context: &[u32]) -> Vec<u32> {
    debug_assert!(context.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::new();
    // prune: skip context nodes inside the previous kept node's region —
    // their descendants are already covered (the "staircase" shape)
    let mut region_end = 0u32; // exclusive end of the last emitted region
    for &c in context {
        let end = c + 1 + doc.size[c as usize];
        if end <= region_end {
            continue; // fully covered
        }
        // start after whatever was already emitted
        let start = (c + 1).max(region_end);
        for d in start..end {
            out.push(d);
        }
        region_end = end;
    }
    out
}

/// Child axis via the region encoding: descendants at `level(c)+1`.
pub fn children(doc: &Doc, context: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for &c in context {
        let end = c + 1 + doc.size[c as usize];
        let want = doc.level[c as usize] + 1;
        let mut d = c + 1;
        while d < end {
            if doc.level[d as usize] == want {
                out.push(d);
                // skip this child's own region
                d += 1 + doc.size[d as usize];
            } else {
                d += 1;
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{synthetic_tree, Doc};
    use crate::xml::parse_xml;

    fn doc() -> Doc {
        Doc::encode(&parse_xml("<a><b><c/></b><d><e/><f><g/></f></d></a>").unwrap())
        // pre: a=0 b=1 c=2 d=3 e=4 f=5 g=6
    }

    #[test]
    fn staircase_matches_naive_descendants() {
        let d = doc();
        for context in [
            vec![0u32],
            vec![1],
            vec![1, 3],
            vec![0, 1, 3], // 1 and 3 covered by 0
            vec![2, 4, 6], // leaves
            vec![],
        ] {
            let naive = descendants_naive(&d, &context);
            let fast = descendants_staircase(&d, &context);
            assert_eq!(fast, naive, "context {context:?}");
        }
    }

    #[test]
    fn pruning_emits_no_duplicates() {
        let d = doc();
        // overlapping regions: 0 covers everything
        let fast = descendants_staircase(&d, &[0, 1, 3, 5]);
        assert_eq!(fast, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn children_axis() {
        let d = doc();
        assert_eq!(children(&d, &[0]), vec![1, 3]);
        assert_eq!(children(&d, &[3]), vec![4, 5]);
        assert_eq!(children(&d, &[2]), Vec::<u32>::new());
        assert_eq!(children(&d, &[0, 3]), vec![1, 3, 4, 5]);
    }

    #[test]
    fn random_trees_agree() {
        for seed in 1..6u64 {
            let tree = synthetic_tree(5, 3, 4, seed);
            let d = Doc::encode(&tree);
            // context: every node with tag t1
            let context = d.nodes_with_tag("t1");
            assert_eq!(
                descendants_staircase(&d, &context),
                descendants_naive(&d, &context),
                "seed {seed}"
            );
        }
    }
}
