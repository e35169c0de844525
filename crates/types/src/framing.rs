//! The CRC32 length-prefixed frame codec shared by the WAL and the wire
//! protocol.
//!
//! ```text
//! frame := u32-le payload_len | u32-le crc32(payload) | payload
//! ```
//!
//! `crates/storage/src/wal.rs` frames redo records with it on disk and
//! `crates/server/src/frame.rs` frames protocol messages with it on a
//! socket; WAL-shipping replication is what makes the two the *same*
//! discipline rather than merely similar ones — a replica appends the
//! byte ranges it received over the wire directly to its local log. The
//! two call sites differ only in their sanity cap and in what a bad frame
//! means (torn tail vs. protocol error), so the codec takes the cap as a
//! parameter and reports outcomes instead of policies.
//!
//! Beside the checksum sits the one hash of bytes, [`fnv1a`], which the
//! string heap, the kernels' hash tables, the planner's sketches and shard
//! placement all use.

use crate::netfault::ReadFault;
use crate::{Error, Result};
use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

/// Frame header size: u32 length + u32 CRC.
pub(crate) const FRAME_HEADER: usize = 8;

// --------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven (slicing-by-8: eight bytes a step, so
// a checkpoint image costs a fraction of a nanosecond per byte to seal).
// Small and dependency-free.
// --------------------------------------------------------------------------

/// `t[0]` is the classic byte-at-a-time table; `t[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continuing from `h` — [`FNV_OFFSET`] to start
/// one, the hash of the bytes before to extend it. Not a checksum (that is
/// [`crc32`]): the one hash of bytes for tables, sketches and placement.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append one frame (header + payload) to `out`.
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    frame_with(out, |out| out.extend_from_slice(payload));
}

/// Append one frame whose payload `encode` writes straight into `out`:
/// the header is filled in afterwards, so no payload buffer is built.
pub fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The outcome of examining the front of a byte buffer for one frame.
///
/// The codec reports what it saw; the caller decides what it means. The
/// WAL replayer treats both non-`Complete` outcomes as a discarded tail
/// (a crash tears frames and a torn CRC is indistinguishable from
/// corruption), while a socket reader treats `Corrupt` as a fatal
/// protocol error and `Incomplete` as "keep reading".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole, CRC-clean frame: its payload and the total bytes consumed
    /// (header + payload).
    Complete { payload: &'a [u8], consumed: usize },
    /// The buffer ends mid-header or mid-payload.
    Incomplete,
    /// The frame is framed wrong: over the length cap or CRC mismatch.
    Corrupt(&'static str),
}

/// Examine the front of `buf` for one frame with payloads capped at `max`.
pub fn split_frame(buf: &[u8], max: usize) -> Frame<'_> {
    if buf.len() < FRAME_HEADER {
        return Frame::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > max {
        return Frame::Corrupt("frame length exceeds cap");
    }
    let Some(end) = FRAME_HEADER.checked_add(len).filter(|&e| e <= buf.len()) else {
        return Frame::Incomplete;
    };
    let payload = &buf[FRAME_HEADER..end];
    if crc32(payload) != crc {
        return Frame::Corrupt("frame CRC mismatch");
    }
    Frame::Complete {
        payload,
        consumed: end,
    }
}

/// Write one frame (header + payload) with a single `write_all`.
///
/// This is the wire half of the codec (the WAL appends frames through the
/// pure [`frame_into`]), so it is also the write-side FaultNet injection
/// point: a scheduled fault here models a broken pipe or a one-way
/// partition on a live socket.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    match crate::netfault::on_write() {
        Some(crate::netfault::WriteFault::Broken) => {
            return Err(Error::Io("injected fault: broken pipe".into()));
        }
        // One-way partition: report success, send nothing. Only the
        // peer's read deadline can surface this.
        Some(crate::netfault::WriteFault::Drop) => return Ok(()),
        None => {}
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame_into(payload, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// What [`FrameReader::poll`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// A whole, CRC-clean frame is buffered: [`FrameReader::take`] returns
    /// its payload.
    Ready,
    /// The source's read timed out. `since` is when the first byte of the
    /// frame in progress arrived, `None` while no byte of one is buffered.
    Waiting { since: Option<Instant> },
    /// The source ended at a frame boundary.
    Closed,
}

/// Bytes a reader's buffer starts at, allocated with its first read.
const INITIAL_BUFFER: usize = 4 << 10;
/// A buffer grown past this for one large frame is given back once that
/// frame has been taken.
const KEEP_BUFFER: usize = 64 << 10;

/// The socket half of the codec: one per connection, it splits frames out
/// of a buffer that one `read` refills, so a frame that arrives whole costs
/// one system call and frames that arrive together cost one between them.
/// [`split_frame`] does the parsing; the reader only feeds it.
///
/// The length cap is checked as soon as a header is buffered, before the
/// buffer grows, and the buffer grows only as bytes arrive (doubling from
/// 4 KiB once full): an 8-byte header announcing a large frame allocates
/// nothing for the bytes it announces.
///
/// This is also the read-side FaultNet injection point: each frame draws
/// one fault from [`crate::netfault`] when its first byte is buffered.
#[derive(Debug)]
pub struct FrameReader {
    /// Received bytes not yet taken live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Payload cap.
    max: usize,
    /// Length of the whole frame at `start` once a poll found it; 0 before.
    ready: usize,
    /// The frame in progress: when its first byte arrived, and FaultNet's
    /// draw for it.
    begun: Option<(Instant, Option<ReadFault>)>,
}

impl FrameReader {
    /// A reader of frames with payloads capped at `max`.
    pub fn new(max: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max,
            ready: 0,
            begun: None,
        }
    }

    /// Read from `src` until a whole frame is buffered — not at all when one
    /// already is — or until a read times out or finds the end of `src`.
    /// `Err` on a frame over the cap, a CRC mismatch, an end mid-frame, an
    /// I/O error other than a timeout, or a fault FaultNet injects.
    pub fn poll(&mut self, src: &mut impl Read) -> Result<Poll> {
        while !(self.start < self.end && self.whole()?) {
            self.make_room();
            match src.read(&mut self.buf[self.end..]) {
                Ok(0) if self.start == self.end => return Ok(Poll::Closed),
                Ok(0) => return Err(Error::Io("connection closed mid-frame".into())),
                Ok(n) => self.end += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(Poll::Waiting {
                        since: self.begun.map(|(t, _)| t),
                    });
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Poll::Ready)
    }

    /// The payload of the frame the last [`FrameReader::poll`] found
    /// whole, consumed: the next poll starts past it.
    ///
    /// # Panics
    /// When that poll did not return [`Poll::Ready`].
    pub fn take(&mut self) -> &[u8] {
        assert!(self.ready > 0, "take without a whole frame");
        let at = self.start;
        self.start += self.ready;
        self.ready = 0;
        self.begun = None;
        &self.buf[at + FRAME_HEADER..self.start]
    }

    /// The next frame's payload, for a peer that waits for each answer: a
    /// read timeout is an error here, and so is the end of `src`.
    pub fn read_frame(&mut self, src: &mut impl Read) -> Result<&[u8]> {
        match self.poll(src)? {
            Poll::Ready => Ok(self.take()),
            Poll::Waiting { .. } => Err(Error::Io("read timed out".into())),
            Poll::Closed => Err(Error::Io("connection closed by peer".into())),
        }
    }

    /// Whether the buffered bytes hold a whole frame; a frame's first look
    /// draws its FaultNet fault and fires it once its bytes allow.
    fn whole(&mut self) -> Result<bool> {
        if self.ready > 0 {
            return Ok(true);
        }
        let (_, fault) = *self
            .begun
            .get_or_insert_with(|| (Instant::now(), crate::netfault::on_read()));
        let buffered = &self.buf[self.start..self.end];
        let fired = match (fault, split_frame(buffered, self.max)) {
            (Some(ReadFault::Disconnect), _) => "injected fault: peer disconnected before frame",
            (Some(ReadFault::Stall(d)), _) => {
                // The read blocks past its deadline, then fails as the
                // timeout would. The sleep is what real stall victims pay.
                std::thread::sleep(d);
                "injected fault: read stalled past deadline"
            }
            (Some(ReadFault::Torn), _) if buffered.len() >= FRAME_HEADER => {
                // Header consumed, connection dies mid-payload: the stream
                // is now desynchronized, which is exactly what connection
                // poisoning must catch — a reused stream would misparse
                // from here on.
                self.start += FRAME_HEADER;
                "injected fault: connection torn mid-frame"
            }
            (_, Frame::Incomplete) => return Ok(false),
            (_, Frame::Corrupt(e)) => return Err(Error::Corrupt(e.into())),
            (Some(ReadFault::Corrupt), Frame::Complete { consumed, .. }) => {
                // The real payload is dropped on the floor: injected
                // corruption must never be able to leak the genuine bytes
                // upward.
                self.start += consumed;
                self.begun = None;
                return Err(Error::Corrupt("injected fault: frame CRC mismatch".into()));
            }
            (_, Frame::Complete { consumed, .. }) => {
                self.ready = consumed;
                return Ok(true);
            }
        };
        self.begun = None;
        Err(Error::Io(fired.into()))
    }

    /// Room past `end` for the next read: the unread bytes moved to the
    /// front, and the buffer doubled only when they fill it.
    fn make_room(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > KEEP_BUFFER {
                self.buf = Vec::new();
            }
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grown = self.buf.len() + self.buf.len().max(INITIAL_BUFFER);
            self.buf.resize(grown, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // continuing a hash is hashing the concatenation
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    /// Eight bytes a step gives the checksum one byte a step does, at every
    /// length around the step and every alignment of the tail.
    #[test]
    fn crc32_slices_agree_with_the_bytewise_definition() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let t = &crc32_tables()[0];
            !bytes.iter().fold(!0u32, |c, &b| {
                t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
            })
        }
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for from in 0..9 {
            for len in 0..=data.len() - from {
                let s = &data[from..from + len];
                assert_eq!(crc32(s), bytewise(s), "from {from} len {len}");
            }
        }
    }

    #[test]
    fn split_parses_what_frame_into_wrote() {
        let mut buf = Vec::new();
        frame_into(b"hello", &mut buf);
        frame_into(b"", &mut buf);
        match split_frame(&buf, 1 << 20) {
            Frame::Complete { payload, consumed } => {
                assert_eq!(payload, b"hello");
                match split_frame(&buf[consumed..], 1 << 20) {
                    Frame::Complete { payload, consumed } => {
                        assert_eq!(payload, b"");
                        assert_eq!(consumed, FRAME_HEADER);
                    }
                    other => panic!("second frame: {other:?}"),
                }
            }
            other => panic!("first frame: {other:?}"),
        }
    }

    #[test]
    fn torn_frames_are_incomplete_not_corrupt() {
        let mut buf = Vec::new();
        frame_into(b"payload", &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut], 1 << 20), Frame::Incomplete);
        }
    }

    #[test]
    fn bitflips_and_oversize_are_corrupt() {
        let mut buf = Vec::new();
        frame_into(b"payload", &mut buf);
        let mut bad = buf.clone();
        bad[FRAME_HEADER + 2] ^= 0x01;
        assert!(matches!(split_frame(&bad, 1 << 20), Frame::Corrupt(_)));
        assert!(matches!(split_frame(&buf, 3), Frame::Corrupt(_)));
    }

    // Property suite for the former call sites: the WAL replayer splits
    // frames out of a byte image (truncation = torn tail, must parse the
    // clean prefix and never panic or fabricate), the socket reader pulls
    // frames off a stream (corruption must be rejected).
    use proptest::prelude::*;

    fn frame_starts(payloads: &[Vec<u8>]) -> Vec<usize> {
        let mut starts = vec![0usize];
        for p in payloads {
            starts.push(starts.last().unwrap() + FRAME_HEADER + p.len());
        }
        starts
    }

    proptest! {
        #[test]
        fn prop_split_roundtrip(payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..40), 1..8)
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                frame_into(p, &mut buf);
            }
            let mut rest: &[u8] = &buf;
            let mut got = Vec::new();
            while let Frame::Complete { payload, consumed } = split_frame(rest, 1 << 20) {
                got.push(payload.to_vec());
                rest = &rest[consumed..];
            }
            prop_assert_eq!(&got, &payloads);
            prop_assert_eq!(rest.len(), 0);
        }

        #[test]
        fn prop_torn_tail_yields_clean_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..40), 1..8),
            cut_seed in 0usize..10_000,
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                frame_into(p, &mut buf);
            }
            let cut = cut_seed % (buf.len() + 1);
            let mut rest = &buf[..cut];
            let mut n = 0usize;
            loop {
                match split_frame(rest, 1 << 20) {
                    Frame::Complete { payload, consumed } => {
                        prop_assert_eq!(payload, &payloads[n][..]);
                        n += 1;
                        rest = &rest[consumed..];
                    }
                    Frame::Incomplete => break,
                    Frame::Corrupt(e) => prop_assert!(false, "truncation became corruption: {}", e),
                }
            }
            // exactly the frames wholly before the cut survive
            let starts = frame_starts(&payloads);
            let expect = starts[1..].iter().filter(|&&end| end <= cut).count();
            prop_assert_eq!(n, expect);
        }

        #[test]
        fn prop_bitflip_never_fabricates(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..40), 1..8),
            flip_seed in 0usize..10_000,
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                frame_into(p, &mut buf);
            }
            let flip = flip_seed % buf.len();
            buf[flip] ^= 1 << (flip_seed % 8);
            // frames wholly before the flipped byte still parse intact;
            // nothing past it is trusted, but nothing panics either
            let starts = frame_starts(&payloads);
            let intact = starts[1..].iter().filter(|&&end| end <= flip).count();
            let mut rest: &[u8] = &buf;
            for p in payloads.iter().take(intact) {
                match split_frame(rest, 1 << 20) {
                    Frame::Complete { payload, consumed } => {
                        prop_assert_eq!(payload, &p[..]);
                        rest = &rest[consumed..];
                    }
                    other => prop_assert!(false, "intact frame misparsed: {:?}", other),
                }
            }
            let _ = split_frame(rest, 1 << 20);
        }
    }

    proptest! {
        // Decoder fuzz against FaultNet-shaped damage: mangled streams
        // (torn tails, bit flips, both) must decode to a genuine prefix or
        // a clean error — never a panic, never a read past the buffer.
        #[test]
        fn prop_mangled_streams_decode_cleanly(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..40), 1..8),
            seed in 0u64..512,
        ) {
            let _g = crate::netfault::test_lock()
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut buf = Vec::new();
            for p in &payloads {
                frame_into(p, &mut buf);
            }
            let bad = crate::netfault::mangle(&buf, seed);
            prop_assert_ne!(&bad, &buf, "mangle must damage the stream");
            // pure decoder: terminates, never consumes past the buffer
            let mut rest: &[u8] = &bad;
            while let Frame::Complete { consumed, .. } = split_frame(rest, 1 << 20) {
                prop_assert!(consumed <= rest.len());
                rest = &rest[consumed..];
            }
            // io decoder: every successful read is a genuine prefix frame
            let mut r: &[u8] = &bad;
            let mut frames = FrameReader::new(1 << 20);
            let mut k = 0usize;
            while let Ok(p) = frames.read_frame(&mut r) {
                prop_assert!(k < payloads.len(), "fabricated frame past the input");
                prop_assert_eq!(p, &payloads[k][..]);
                k += 1;
            }
        }
    }

    /// Serializes a test against the tests that arm the process-global
    /// FaultNet: a reader draws a fault per frame.
    fn quiet() -> std::sync::MutexGuard<'static, ()> {
        crate::netfault::test_lock()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            frame_into(p, &mut wire);
        }
        wire
    }

    /// A source that delivers its script one step per `read` call — a
    /// chunk, as a socket hands over what arrived together, or a timeout —
    /// and counts the calls.
    struct Script {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    impl Script {
        /// One chunk per frame, and `None` steps for timeouts.
        fn new(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> Script {
            Script {
                steps: steps.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.steps.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// A source that hands over one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.0.len()).min(1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// The reader's cost model, pinned: a frame that arrives whole is one
    /// `read`, for the peer that blocks on each answer and for the server
    /// that idle-polls between frames alike; frames that arrive together
    /// share one.
    #[test]
    fn a_frame_that_arrives_whole_costs_one_read() {
        let _g = quiet();
        let payloads: [&[u8]; 3] = [b"select 1", b"", &[7u8; 3000]];
        // the client: send, then block on the answer
        let mut src = Script::new(payloads.iter().map(|p| Some(framed(&[p]))));
        let mut frames = FrameReader::new(1 << 20);
        for (k, p) in payloads.iter().enumerate() {
            assert_eq!(frames.read_frame(&mut src).unwrap(), *p);
            assert_eq!(src.reads, k + 1, "frame {k}");
        }
        // the server: timeouts while idle, a frame, two pipelined frames
        let steps = [
            None,
            None,
            Some(framed(&payloads[..1])),
            None,
            Some(framed(&payloads[1..])),
        ];
        let mut src = Script::new(steps);
        let mut frames = FrameReader::new(1 << 20);
        let mut polls = Vec::new();
        for _ in 0..3 {
            loop {
                let got = frames.poll(&mut src).unwrap();
                polls.push((got, src.reads));
                if got == Poll::Ready {
                    frames.take();
                    break;
                }
            }
        }
        let idle = Poll::Waiting { since: None };
        assert_eq!(
            polls,
            [
                (idle, 1),
                (idle, 2),
                (Poll::Ready, 3),
                (idle, 4),
                (Poll::Ready, 5),
                // already buffered: served without a read
                (Poll::Ready, 5),
            ]
        );
        assert_eq!(frames.poll(&mut src).unwrap(), Poll::Closed);
    }

    #[test]
    fn frames_split_across_reads_and_packed_into_one_parse_alike() {
        let _g = quiet();
        let payloads: [&[u8]; 4] = [b"hello", b"", b"x", &[0xa5; 9000]];
        let wire = framed(&payloads);
        // one byte per read
        let mut src = Trickle(&wire);
        let mut frames = FrameReader::new(1 << 20);
        for p in payloads {
            assert_eq!(frames.read_frame(&mut src).unwrap(), p);
        }
        assert_eq!(frames.poll(&mut src).unwrap(), Poll::Closed);
        // several frames in one read, then the end: two reads in all
        let mut src = Script::new([Some(wire.clone())]);
        let mut frames = FrameReader::new(1 << 20);
        for p in payloads {
            assert_eq!(frames.read_frame(&mut src).unwrap(), p);
        }
        assert_eq!(frames.poll(&mut src).unwrap(), Poll::Closed);
        // the 9000-byte frame outgrew the initial buffer...
        assert!(src.reads > 2 && frames.buf.len() > INITIAL_BUFFER);
        // ...and a begun frame times out with its first byte's time
        let mut src = Script::new([Some(wire[..3].to_vec()), None]);
        let mut frames = FrameReader::new(1 << 20);
        let before = Instant::now();
        match frames.poll(&mut src).unwrap() {
            Poll::Waiting { since: Some(t) } => assert!(t >= before),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_large_buffer_is_given_back_after_its_frame() {
        let _g = quiet();
        let big = vec![1u8; 3 * KEEP_BUFFER];
        let mut src = Script::new([Some(framed(&[&big])), Some(framed(&[b"small"]))]);
        let mut frames = FrameReader::new(1 << 20);
        assert_eq!(frames.read_frame(&mut src).unwrap(), &big[..]);
        assert_eq!(frames.read_frame(&mut src).unwrap(), b"small");
        assert_eq!(frames.buf.len(), INITIAL_BUFFER);
    }

    #[test]
    fn ends_bad_frames_and_oversize_headers_are_errors() {
        let _g = quiet();
        let wire = framed(&[b"hello"]);
        // the end at a frame boundary is a clean end, mid-frame an error
        let mut frames = FrameReader::new(1 << 20);
        assert_eq!(frames.poll(&mut &wire[..0]).unwrap(), Poll::Closed);
        for cut in 1..wire.len() {
            let mut frames = FrameReader::new(1 << 20);
            let mut src = &wire[..cut];
            assert!(matches!(frames.poll(&mut src), Err(Error::Io(_))), "{cut}");
        }
        let mut frames = FrameReader::new(1 << 20);
        assert!(frames.read_frame(&mut &wire[..0]).is_err(), "EOF");
        // a CRC mismatch
        let mut bad = wire.clone();
        bad[FRAME_HEADER + 1] ^= 0x40;
        let mut frames = FrameReader::new(1 << 20);
        assert!(matches!(
            frames.read_frame(&mut &bad[..]),
            Err(Error::Corrupt(_))
        ));
        // over the cap: refused on its header, nothing allocated for it
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let mut frames = FrameReader::new(1 << 20);
        assert!(matches!(
            frames.read_frame(&mut &huge[..]),
            Err(Error::Corrupt(_))
        ));
        assert_eq!(frames.buf.capacity(), INITIAL_BUFFER);
        // under the cap, the bytes announced are not allocated before they
        // arrive: 100 of 16 MiB, then the peer goes quiet
        let mut head = Vec::new();
        head.extend_from_slice(&((16u32 << 20) - 1).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&[0; 100]);
        let mut src = Script::new([Some(head), None]);
        let mut frames = FrameReader::new(16 << 20);
        assert!(matches!(
            frames.poll(&mut src).unwrap(),
            Poll::Waiting { since: Some(_) }
        ));
        assert_eq!(frames.buf.capacity(), INITIAL_BUFFER);
    }

    /// Each read fault fires on the frame its operation count names — the
    /// hook is drawn once per frame, however many reads the frame takes —
    /// and does what its doc says.
    #[test]
    fn each_read_fault_fires_once_per_frame() {
        let _g = quiet();
        use crate::netfault::{self, NetFaultPlan};
        let wire = framed(&[b"first", b"second", b"third"]);
        let faults = [
            ReadFault::Disconnect,
            ReadFault::Stall(std::time::Duration::from_millis(1)),
            ReadFault::Torn,
            ReadFault::Corrupt,
        ];
        for fault in faults {
            let mut plan = NetFaultPlan::none();
            plan.reads.push((1, fault));
            netfault::install(plan);
            // one byte per read: a per-read hook would fire inside "first"
            let mut src = Trickle(&wire);
            let mut frames = FrameReader::new(1 << 20);
            assert_eq!(frames.read_frame(&mut src).unwrap(), b"first", "{fault:?}");
            let err = frames.read_frame(&mut src).unwrap_err();
            assert_eq!(netfault::fired(), 1, "{fault:?}");
            match fault {
                ReadFault::Disconnect | ReadFault::Stall(_) => {
                    assert!(matches!(err, Error::Io(_)));
                    // nothing consumed: the frame is still there
                    assert_eq!(frames.read_frame(&mut src).unwrap(), b"second");
                }
                ReadFault::Torn => {
                    assert!(matches!(err, Error::Io(_)));
                    // header gone, payload left: the stream is desynchronized
                    assert!(frames.read_frame(&mut src).is_err());
                }
                ReadFault::Corrupt => {
                    assert!(matches!(err, Error::Corrupt(_)));
                    // the whole frame consumed, its bytes never returned
                    assert_eq!(frames.read_frame(&mut src).unwrap(), b"third");
                }
            }
            assert_eq!(netfault::fired(), 1, "transient: {fault:?}");
        }
        netfault::clear();
    }

    #[test]
    fn injected_write_faults_surface_as_clean_errors() {
        let _g = quiet();
        use crate::netfault::{self, NetFaultPlan, WriteFault};
        let mut plan = NetFaultPlan::none();
        plan.writes.push((0, WriteFault::Drop));
        plan.writes.push((1, WriteFault::Broken));
        netfault::install(plan);
        let mut out = Vec::new();
        write_frame(&mut out, b"x").unwrap();
        assert!(
            out.is_empty(),
            "dropped write reported success, sent nothing"
        );
        assert!(write_frame(&mut out, b"x").is_err(), "broken pipe");
        write_frame(&mut out, b"x").unwrap();
        assert_eq!(out, framed(&[b"x"]), "the next write is clean");
        assert_eq!(netfault::fired(), 2);
        netfault::clear();
    }
}
