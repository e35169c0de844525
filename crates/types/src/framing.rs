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

use crate::{Error, Result};
use std::io::{Read, Write};

/// Frame header size: u32 length + u32 CRC.
pub const FRAME_HEADER: usize = 8;

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

/// Append one frame (header + payload) to `out`.
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
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

/// Read one frame with payloads capped at `max`, verifying the CRC. Blocks
/// until a whole frame arrives; returns `Err` on EOF, oversized frames, or
/// CRC mismatch. The length bound is enforced *before* the payload
/// allocation, so an 8-byte header cannot make the reader allocate
/// gigabytes.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>> {
    let fault = crate::netfault::on_read();
    if let Some(crate::netfault::ReadFault::Disconnect) = fault {
        return Err(Error::Io(
            "injected fault: peer disconnected before frame".into(),
        ));
    }
    if let Some(crate::netfault::ReadFault::Stall(d)) = fault {
        // The read blocks past its deadline, then fails as the timeout
        // would. The sleep is what real stall victims pay.
        std::thread::sleep(d);
        return Err(Error::Io(
            "injected fault: read stalled past deadline".into(),
        ));
    }
    let mut head = [0u8; FRAME_HEADER];
    r.read_exact(&mut head)?;
    if let Some(crate::netfault::ReadFault::Torn) = fault {
        // Header consumed, connection dies mid-payload: the stream is now
        // desynchronized, which is exactly what connection poisoning must
        // catch — a reused stream would misparse from here on.
        return Err(Error::Io(
            "injected fault: connection torn mid-frame".into(),
        ));
    }
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > max {
        return Err(Error::Corrupt(format!(
            "frame length {len} exceeds the {max}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(Error::Corrupt("frame CRC mismatch".into()));
    }
    if let Some(crate::netfault::ReadFault::Corrupt) = fault {
        // The real payload is dropped on the floor: injected corruption
        // must never be able to leak the genuine bytes upward.
        return Err(Error::Corrupt("injected fault: frame CRC mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
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
            let mut k = 0usize;
            while let Ok(p) = read_frame(&mut r, 1 << 20) {
                prop_assert!(k < payloads.len(), "fabricated frame past the input");
                prop_assert_eq!(&p, &payloads[k]);
                k += 1;
            }
        }
    }

    #[test]
    fn injected_faults_surface_as_clean_errors() {
        let _g = crate::netfault::test_lock()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::netfault::{self, NetFaultPlan, ReadFault, WriteFault};
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let mut plan = NetFaultPlan::none();
        plan.reads.push((0, ReadFault::Disconnect));
        plan.reads.push((1, ReadFault::Torn));
        plan.reads.push((2, ReadFault::Corrupt));
        plan.writes.push((0, WriteFault::Drop));
        plan.writes.push((1, WriteFault::Broken));
        netfault::install(plan);
        assert!(read_frame(&mut &wire[..], 1 << 20).is_err(), "disconnect");
        let mut r: &[u8] = &wire;
        assert!(read_frame(&mut r, 1 << 20).is_err(), "torn");
        assert_eq!(
            r.len(),
            wire.len() - FRAME_HEADER,
            "torn fault consumed the header: the stream is desynchronized"
        );
        let mut r: &[u8] = &wire;
        assert!(
            matches!(read_frame(&mut r, 1 << 20), Err(Error::Corrupt(_))),
            "corrupt fault reports a CRC failure"
        );
        assert_eq!(r.len(), 0, "corrupt fault consumed the whole frame");
        assert_eq!(
            read_frame(&mut &wire[..], 1 << 20).unwrap(),
            b"payload",
            "faults are transient: the next read is clean"
        );
        let mut out = Vec::new();
        write_frame(&mut out, b"x").unwrap();
        assert!(
            out.is_empty(),
            "dropped write reported success, sent nothing"
        );
        assert!(write_frame(&mut out, b"x").is_err(), "broken pipe");
        assert_eq!(netfault::fired(), 5);
        netfault::clear();
    }

    #[test]
    fn io_roundtrip_and_rejection() {
        // serialize against tests that arm the process-global FaultNet
        let _g = crate::netfault::test_lock()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), b"");
        assert!(read_frame(&mut r, 1 << 20).is_err(), "EOF is an error");
        let mut bad = wire.clone();
        bad[FRAME_HEADER + 1] ^= 0x40;
        assert!(read_frame(&mut &bad[..], 1 << 20).is_err());
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut &huge[..], 1 << 20).is_err());
    }
}
