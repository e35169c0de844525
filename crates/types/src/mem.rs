//! The memory observer the §4 kernels report their own traffic to.
//!
//! A kernel that takes `&mut impl Mem` names every buffer it touches and
//! reports each read and write of it as (buffer, index, bytes, access
//! kind). Serving code passes `&mut ()`, the no-op, which compiles away; the
//! cache simulator's recorder places the buffers in a simulated address
//! space and replays the accesses, so the kernel is its own trace.

/// Whether an access continues a stream a prefetcher follows, or lands
/// anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Sequential,
    Random,
}

/// A buffer a kernel touches: its own allocation or a slice it was handed.
/// Buffers are named in the order a kernel asks for them, never by heap
/// address, so a recording does not depend on where the allocator put them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Buf(pub u32);

/// An observer of a kernel's memory traffic.
pub trait Mem {
    /// A fresh name for a buffer the kernel is about to touch.
    fn buffer(&mut self) -> Buf;

    /// Element `index`, `bytes` wide, of `buf` was read.
    fn read(&mut self, buf: Buf, index: usize, bytes: usize, kind: AccessKind);

    /// Element `index`, `bytes` wide, of `buf` was written.
    fn write(&mut self, buf: Buf, index: usize, bytes: usize, kind: AccessKind);

    /// The seed a hash table uses under this observer. `None` keeps the
    /// per-process random one; a recorder fixes it, so that a trace is the
    /// same on every run.
    fn hash_seed(&self) -> Option<u64> {
        None
    }
}

/// The no-op observer every serving call site passes.
impl Mem for () {
    #[inline(always)]
    fn buffer(&mut self) -> Buf {
        Buf(0)
    }

    #[inline(always)]
    fn read(&mut self, _: Buf, _: usize, _: usize, _: AccessKind) {}

    #[inline(always)]
    fn write(&mut self, _: Buf, _: usize, _: usize, _: AccessKind) {}
}
