//! The pre/post region encoding as BATs.
//!
//! Every node gets its preorder rank (`pre`), postorder rank (`post`),
//! depth (`level`) and tag. `pre` is densely ascending, so it is the void
//! head of three BATs — "saving storage space and allowing fast O(1)
//! lookups" (§3.2). Axis semantics:
//!
//! * `d` is a **descendant** of `c` iff `pre(d) > pre(c) ∧ post(d) < post(c)`
//! * descendants of `c` are **contiguous** in `pre` order: the region
//!   `pre(c)+1 ..= pre(c)+size(c)` — the property staircase join exploits.

use crate::xml::XmlNode;
use mammoth_storage::{Bat, TailHeap};
use mammoth_types::Oid;
use std::collections::HashMap;

/// An encoded document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// post rank per pre rank.
    pub post: Vec<u32>,
    /// depth per pre rank (root = 0).
    pub level: Vec<u16>,
    /// interned tag id per pre rank.
    pub tag: Vec<u32>,
    /// tag names by id.
    pub tag_names: Vec<String>,
    /// subtree size per pre rank (descendant count, excluding self).
    pub size: Vec<u32>,
}

impl Doc {
    /// Encode a parsed tree.
    pub fn encode(root: &XmlNode) -> Doc {
        let n = root.size();
        let mut doc = Doc {
            post: vec![0; n],
            level: vec![0; n],
            tag: vec![0; n],
            tag_names: Vec::new(),
            size: vec![0; n],
        };
        let mut interned: HashMap<String, u32> = HashMap::new();
        let mut pre = 0u32;
        let mut post = 0u32;
        fn walk(
            node: &XmlNode,
            level: u16,
            pre: &mut u32,
            post: &mut u32,
            doc: &mut Doc,
            interned: &mut HashMap<String, u32>,
        ) -> u32 {
            let my_pre = *pre;
            *pre += 1;
            let tag_id = *interned.entry(node.tag.clone()).or_insert_with(|| {
                doc.tag_names.push(node.tag.clone());
                (doc.tag_names.len() - 1) as u32
            });
            doc.tag[my_pre as usize] = tag_id;
            doc.level[my_pre as usize] = level;
            let mut sz = 0;
            for c in &node.children {
                sz += 1 + walk(c, level + 1, pre, post, doc, interned);
            }
            doc.size[my_pre as usize] = sz;
            doc.post[my_pre as usize] = *post;
            *post += 1;
            sz
        }
        walk(root, 0, &mut pre, &mut post, &mut doc, &mut interned);
        doc
    }

    pub fn len(&self) -> usize {
        self.post.len()
    }

    pub fn is_empty(&self) -> bool {
        self.post.is_empty()
    }

    /// Tag id for a name, if any node uses it.
    pub(crate) fn tag_id(&self, name: &str) -> Option<u32> {
        self.tag_names
            .iter()
            .position(|t| t == name)
            .map(|i| i as u32)
    }

    /// All pre ranks with the given tag.
    pub fn nodes_with_tag(&self, name: &str) -> Vec<u32> {
        match self.tag_id(name) {
            None => Vec::new(),
            Some(id) => (0..self.len() as u32)
                .filter(|&p| self.tag[p as usize] == id)
                .collect(),
        }
    }

    /// Is `d` a descendant of `c`? (region predicate)
    pub(crate) fn is_descendant(&self, d: u32, c: u32) -> bool {
        d > c && self.post[d as usize] < self.post[c as usize]
    }

    /// Export the encoding as BATs with a void `pre` head — the §3.2
    /// representation (post, level, tag columns share the dense head).
    pub fn to_bats(&self) -> (Bat, Bat, Bat) {
        let post = Bat::dense(
            0,
            TailHeap::from_vec(self.post.iter().map(|&p| p as Oid).collect::<Vec<_>>()),
        );
        let level = Bat::dense(
            0,
            TailHeap::from_vec(self.level.iter().map(|&l| l as i32).collect::<Vec<_>>()),
        );
        let tag = Bat::dense(
            0,
            TailHeap::from_strings(
                self.tag
                    .iter()
                    .map(|&t| Some(self.tag_names[t as usize].as_str())),
            ),
        );
        (post, level, tag)
    }
}

/// Deterministic synthetic tree generator: `fanout^depth`-ish documents
/// with `ntags` distinct tags (the XMark substitute; see DESIGN.md).
pub fn synthetic_tree(depth: u32, fanout: u32, ntags: u32, seed: u64) -> XmlNode {
    fn rng_next(s: &mut u64) -> u64 {
        *s ^= *s >> 12;
        *s ^= *s << 25;
        *s ^= *s >> 27;
        s.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn build(depth: u32, fanout: u32, ntags: u32, s: &mut u64) -> XmlNode {
        let tag = format!("t{}", rng_next(s) % ntags.max(1) as u64);
        let mut node = XmlNode::new(tag);
        if depth > 0 {
            // vary the fan-out a little so trees are not perfectly regular
            let k = 1 + (rng_next(s) % fanout.max(1) as u64) as u32;
            for _ in 0..k {
                node.children.push(build(depth - 1, fanout, ntags, s));
            }
        }
        node
    }
    let mut s = seed.max(1);
    let mut root = build(depth, fanout, ntags, &mut s);
    root.tag = "root".into();
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse_xml;

    fn doc() -> Doc {
        // pre:      a=0 b=1 c=2 d=3 e=4
        // structure: a( b(c), d(e) )
        Doc::encode(&parse_xml("<a><b><c/></b><d><e/></d></a>").unwrap())
    }

    #[test]
    fn pre_post_levels() {
        let d = doc();
        assert_eq!(d.len(), 5);
        assert_eq!(d.level, vec![0, 1, 2, 1, 2]);
        // postorder: c=0, b=1, e=2, d=3, a=4
        assert_eq!(d.post, vec![4, 1, 0, 3, 2]);
        assert_eq!(d.size, vec![4, 1, 0, 1, 0]);
    }

    #[test]
    fn descendant_predicate() {
        let d = doc();
        assert!(d.is_descendant(2, 0)); // c under a
        assert!(d.is_descendant(2, 1)); // c under b
        assert!(!d.is_descendant(2, 3)); // c not under d
        assert!(!d.is_descendant(0, 2)); // ancestor is not descendant
                                         // contiguity: descendants of pre=0 are 1..=4
        for p in 1..5 {
            assert!(d.is_descendant(p, 0));
        }
    }

    #[test]
    fn tags_are_interned() {
        let d = Doc::encode(&parse_xml("<a><b/><b/><a/></a>").unwrap());
        assert_eq!(d.tag_names.len(), 2);
        assert_eq!(d.nodes_with_tag("b"), vec![1, 2]);
        assert_eq!(d.nodes_with_tag("a"), vec![0, 3]);
        assert!(d.nodes_with_tag("zzz").is_empty());
    }

    #[test]
    fn bats_share_void_head() {
        let d = doc();
        let (post, level, tag) = d.to_bats();
        assert!(post.head().is_void());
        assert_eq!(post.len(), 5);
        assert_eq!(level.value_at(2), mammoth_types::Value::I32(2));
        assert_eq!(tag.value_at(0), mammoth_types::Value::Str("a".into()));
    }

    #[test]
    fn synthetic_trees_are_deterministic() {
        let a = synthetic_tree(4, 3, 5, 42);
        let b = synthetic_tree(4, 3, 5, 42);
        assert_eq!(a, b);
        assert!(a.size() > 4);
        let c = synthetic_tree(4, 3, 5, 43);
        assert_ne!(a, c);
    }
}
