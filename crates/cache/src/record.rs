//! The recorder: a kernel's own memory traffic, replayed by the simulator.
//!
//! A kernel that takes a `mammoth_types::Mem` observer names its buffers
//! and reports every read and write of them. [`Recorder`] gives each buffer
//! an address of its own and hands each access on: to
//! [`HierarchySim::access`](crate::HierarchySim::access), or to a list when
//! a test wants the trace itself.

use mammoth_types::{AccessKind, Buf, Mem};

/// Where one buffer's base lies from the next: 4 GiB, so that no buffer
/// reaches the next, plus one page, so that the buffers' first pages do
/// not all fall in one TLB set.
const SPACING: u64 = (1 << 32) + 4096;

/// A [`Mem`] observer that places each buffer a kernel names at its own
/// page-aligned base, in the order the kernel first touches them, and hands
/// every access to `feed` as `(address, kind)`. It fixes the hash seed, so
/// a recording is the same on every run.
pub struct Recorder<F> {
    feed: F,
    /// Per buffer, in the order the kernel named them: its base and the
    /// bytes up to the end of the furthest element touched, once touched.
    placed: Vec<Option<(u64, u64)>>,
    touched: u64,
}

impl<F: FnMut(u64, AccessKind)> Recorder<F> {
    pub fn new(feed: F) -> Recorder<F> {
        Recorder {
            feed,
            placed: Vec::new(),
            touched: 0,
        }
    }

    /// The bytes of every buffer touched, in first-touch order: what the
    /// kernel's arrays spanned, to check a model's regions against.
    pub fn buffers(&self) -> Vec<u64> {
        let mut placed: Vec<(u64, u64)> = self.placed.iter().flatten().copied().collect();
        placed.sort_unstable();
        placed.into_iter().map(|(_, bytes)| bytes).collect()
    }

    fn touch(&mut self, buf: Buf, index: usize, bytes: usize, kind: AccessKind) {
        let (base, extent) = self.placed[buf.0 as usize].get_or_insert_with(|| {
            self.touched += 1;
            (self.touched * SPACING, 0)
        });
        let offset = (index * bytes) as u64;
        *extent = (*extent).max(offset + bytes as u64);
        (self.feed)(*base + offset, kind);
    }
}

impl<F: FnMut(u64, AccessKind)> Mem for Recorder<F> {
    fn buffer(&mut self) -> Buf {
        self.placed.push(None);
        Buf(self.placed.len() as u32 - 1)
    }

    fn read(&mut self, buf: Buf, index: usize, bytes: usize, kind: AccessKind) {
        self.touch(buf, index, bytes, kind);
    }

    fn write(&mut self, buf: Buf, index: usize, bytes: usize, kind: AccessKind) {
        self.touch(buf, index, bytes, kind);
    }

    fn hash_seed(&self) -> Option<u64> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_algebra::{partitioned_hash_join, radix_decluster_fixed};
    use mammoth_storage::Bat;

    fn join_trace(keys: &[u64]) -> Vec<(u64, AccessKind)> {
        let (l, r) = (Bat::from_vec(keys.to_vec()), Bat::from_vec(keys.to_vec()));
        let mut trace = Vec::new();
        let mut rec = Recorder::new(|addr, kind| trace.push((addr, kind)));
        partitioned_hash_join(&l, &r, &[3, 2], &mut rec).unwrap();
        trace
    }

    /// Buffers are placed by the kernel's names, never by heap address, and
    /// the hash seed is fixed: a second recording in the same process, with
    /// the allocator in another state, is the same trace.
    #[test]
    fn a_kernel_records_the_same_trace_twice() {
        let keys: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let first = join_trace(&keys);
        let unrelated: Vec<Vec<u64>> = (1..50).map(|i| vec![i; i as usize * 97]).collect();
        let second = join_trace(&keys);
        assert!(!unrelated.is_empty() && first.len() > 10 * keys.len());
        assert!(first == second, "the two recordings differ");
    }

    #[test]
    fn buffers_are_placed_in_first_touch_order_and_sized_by_their_elements() {
        let column: Vec<i64> = (0..1000).collect();
        let positions: Vec<u32> = (0..500).map(|i| (i * 7) % 1000).collect();
        let mut first = None;
        let mut rec = Recorder::new(|addr, _| _ = first.get_or_insert(addr));
        radix_decluster_fixed(&positions, &column, 2, &mut rec);
        // positions, offsets, cursors, clustered positions, column,
        // gathered values, output
        let furthest = positions.iter().max().map_or(0, |&p| 8 * (p as u64 + 1));
        assert_eq!(
            rec.buffers(),
            [2000, 4 * 5, 4 * 4, 2000, furthest, 4000, 4000]
        );
        assert_eq!(first, Some(SPACING));
    }
}
