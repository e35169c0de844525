//! Flat open-addressing hash tables over key images.
//!
//! Grouping and joining hash the raw `u64` image of a column value (defined
//! by [`with_images`]) into one power-of-two slot array probed linearly: no
//! per-key allocation, no key copy beside the table itself, one multiply
//! per hash.

use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

/// The exact `u64` image a fixed-width column value groups and joins
/// under: equal values, and only those, have equal images.
///
/// Integers sign-extend through `i64`, so an `i32` column meets an `i64`
/// column on equal images; floats use their bit pattern with `-0.0` folded
/// into `0.0` and every NaN into one; a nil keeps its (in-domain, hence
/// unique) sentinel image.
pub trait KeyImage: Copy {
    fn image(self) -> u64;
}

macro_rules! key_image {
    ($($t:ty => |$x:ident| $image:expr),* $(,)?) => {
        $(impl KeyImage for $t {
            #[inline(always)]
            fn image(self) -> u64 {
                let $x = self;
                $image
            }
        })*
    };
}

key_image! {
    bool => |x| x as u64,
    i8 => |x| x as i64 as u64,
    i16 => |x| x as i64 as u64,
    i32 => |x| x as i64 as u64,
    i64 => |x| x as u64,
    u64 => |x| x,
    f64 => |x| if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    },
}

/// Evaluate `$body` with `$images` bound to an iterator over the
/// `(u64 image, is nil)` pairs of `$bat`'s tail, monomorphized per tail
/// type — the loop reads the column in place, nothing is copied.
///
/// Fixed-width images are [`KeyImage`]'s and exact. Strings hash their
/// payload, so equal images there still need a payload comparison.
macro_rules! with_images {
    ($bat:expr, |$images:ident| $body:expr) => {{
        use mammoth_storage::TailHeap;
        use mammoth_types::NativeType;
        use $crate::flat::KeyImage;
        macro_rules! fixed {
            ($v:expr) => {{
                let $images = $v.iter().map(|x| (x.image(), x.is_nil()));
                $body
            }};
        }
        match $bat.tail() {
            TailHeap::Bool(v) => fixed!(v),
            TailHeap::I8(v) => fixed!(v),
            TailHeap::I16(v) => fixed!(v),
            TailHeap::I32(v) => fixed!(v),
            TailHeap::I64(v) => fixed!(v),
            TailHeap::Oid(v) => fixed!(v),
            TailHeap::F64(v) => fixed!(v),
            TailHeap::Str(h) => {
                let $images = (0..h.len()).map(|i| match h.get(i) {
                    Some(s) => ($crate::flat::fnv1a(s.as_bytes()), false),
                    None => (0, true),
                });
                $body
            }
        }
    }};
}
pub(crate) use with_images;

pub(crate) fn fnv1a(b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A per-process random seed folded into every hash. Column values come
/// from outside the program; with a fixed multiplier alone, keys crafted to
/// share their top bits would degrade every probe to a linear scan.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// Fibonacci multiplicative hashing: the multiplier pushes entropy upward,
/// so the slot is the top `64 - shift` bits.
#[inline(always)]
fn slot_of(image: u64, seed: u64, shift: u32) -> usize {
    ((image ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

fn shift_for(slots: usize) -> u32 {
    debug_assert!(slots.is_power_of_two() && slots > 1);
    64 - slots.trailing_zeros()
}

/// A table key: one column image, or `(previous group id, image)` when
/// refining an existing grouping.
pub(crate) trait GroupKey: Copy + Eq + Default {
    /// Collapse to the single `u64` that gets hashed.
    fn image(self) -> u64;
}

impl GroupKey for u64 {
    #[inline(always)]
    fn image(self) -> u64 {
        self
    }
}

impl GroupKey for (u64, u64) {
    #[inline(always)]
    fn image(self) -> u64 {
        self.0.wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(31) ^ self.1
    }
}

/// The slot array both tables share: `(key, tag)` pairs, where a tag of 0
/// marks an empty slot (group ids and row numbers are stored plus one).
struct Slots<K> {
    slots: Vec<(K, usize)>,
    shift: u32,
    seed: u64,
}

impl<K: GroupKey> Slots<K> {
    fn new(slots: usize) -> Slots<K> {
        Slots {
            slots: vec![(K::default(), 0); slots],
            shift: shift_for(slots),
            seed: seed(),
        }
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    #[inline(always)]
    fn probe(&self, key: K) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = slot_of(key.image(), self.seed, self.shift);
        loop {
            let (k, tag) = self.slots[s];
            if tag == 0 || k == key {
                return s;
            }
            s = (s + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = Slots::new(self.slots.len() * 2);
        for &(k, tag) in self.slots.iter().filter(|(_, tag)| *tag != 0) {
            let s = bigger.probe(k);
            bigger.slots[s] = (k, tag);
        }
        *self = bigger;
    }
}

/// Dense group ids handed out in first-appearance order, one per distinct
/// key, for keys that arrive a row — or a vector of rows — at a time.
pub(crate) struct Groups<K> {
    table: Slots<K>,
    len: usize,
}

impl<K: GroupKey> Groups<K> {
    pub(crate) fn new() -> Groups<K> {
        Groups {
            table: Slots::new(1024),
            len: 0,
        }
    }

    /// The id of `key`'s group, and whether this is its first appearance.
    #[inline(always)]
    pub(crate) fn id_of(&mut self, key: K) -> (usize, bool) {
        let s = self.table.probe(key);
        match self.table.slots[s].1 {
            0 => {
                self.len += 1;
                self.table.slots[s] = (key, self.len);
                // stay at or below half full so probe runs stay short
                if self.len * 2 > self.table.slots.len() {
                    self.table.grow();
                }
                (self.len - 1, true)
            }
            id1 => (id1 - 1, false),
        }
    }
}

/// [`Groups`] over single-column [`KeyImage`]s: what `group.group` numbers
/// its groups with, open to callers that see the column one vector at a
/// time.
pub struct GroupTable(Groups<u64>);

impl Default for GroupTable {
    fn default() -> GroupTable {
        GroupTable(Groups::new())
    }
}

impl GroupTable {
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// The group id of a key image, and whether the group is new.
    #[inline(always)]
    pub fn id_of(&mut self, image: u64) -> (usize, bool) {
        self.0.id_of(image)
    }

    /// Groups seen so far.
    pub fn len(&self) -> usize {
        self.0.len
    }

    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }
}

/// Dense group ids in first-appearance order, one per key, plus the row of
/// each group's first appearance ("extents").
pub(crate) fn assign_groups<K: GroupKey>(keys: impl Iterator<Item = K>) -> (Vec<u64>, Vec<usize>) {
    let mut groups = Groups::new();
    let mut ids = Vec::with_capacity(keys.size_hint().0);
    let mut extents: Vec<usize> = Vec::new();
    for (row, key) in keys.enumerate() {
        let (id, new) = groups.id_of(key);
        if new {
            extents.push(row);
        }
        ids.push(id as u64);
    }
    (ids, extents)
}

/// A join's build side: each distinct image's slot holds the head of a
/// chain through `next` (one link per build row, row numbers plus one), so
/// duplicate keys cost no extra slots.
pub(crate) struct JoinTable {
    heads: Slots<u64>,
    next: Vec<usize>,
}

impl JoinTable {
    /// Build over the `(image, is nil)` pair of every build row; nil joins
    /// nothing and is left out.
    pub(crate) fn build(images: impl ExactSizeIterator<Item = (u64, bool)>) -> JoinTable {
        let n = images.len();
        let mut t = JoinTable {
            heads: Slots::new((2 * n).next_power_of_two().max(16)),
            next: vec![0; n],
        };
        for (row, (image, nil)) in images.enumerate() {
            if nil {
                continue;
            }
            let s = t.heads.probe(image);
            t.next[row] = t.heads.slots[s].1;
            t.heads.slots[s] = (image, row + 1);
        }
        t
    }

    /// Build rows whose image equals `image`, latest row first.
    #[inline(always)]
    pub(crate) fn matches(&self, image: u64) -> Chain<'_> {
        Chain {
            next: &self.next,
            cur: self.heads.slots[self.heads.probe(image)].1,
        }
    }
}

/// Iterator over the build rows sharing one image.
pub(crate) struct Chain<'a> {
    next: &'a [usize],
    cur: usize,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        let row = self.cur.checked_sub(1)?;
        self.cur = self.next[row];
        Some(row)
    }
}
