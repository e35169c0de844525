//! Wire framing: the WAL's framing discipline applied to a socket.
//!
//! Every protocol message travels as one frame:
//!
//! ```text
//! frame := u32-le payload_len | u32-le crc32(payload) | payload
//! ```
//!
//! exactly the record frame of `crates/storage/src/wal.rs` — both sides
//! delegate to the one shared codec, [`mammoth_types::framing`]. A socket
//! is a less hostile medium than a crashed disk (TCP already checksums),
//! but the frame CRC catches desynchronized streams and misbehaving
//! clients cheaply, and one framing discipline across the system is what
//! lets replication ship raw WAL byte ranges as message payloads.
//!
//! The payload's first byte is a message tag (see [`crate::protocol`]);
//! the rest is written in [`mammoth_types::codec`], the byte codec the WAL
//! and the checkpoint images use too. Each connection reads through one
//! [`FrameReader`], which rejects a frame above `MAX_FRAME` on its header
//! and allocates only as bytes arrive — a client cannot make the server
//! allocate gigabytes with an 8-byte header.

use mammoth_types::framing::{self, FrameReader};
use mammoth_types::Result;
use std::io::Write;

/// Sanity cap on one frame's payload, either direction.
pub(crate) const MAX_FRAME: usize = 16 << 20;

/// Write one frame (header + payload) with a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    framing::write_frame(w, payload)
}

/// A connection's frame reader, capped at `MAX_FRAME`: one per connection,
/// for as long as it lives, since it may hold bytes of the next frame.
pub fn reader() -> FrameReader {
    FrameReader::new(MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let (mut r, mut frames) = (&wire[..], reader());
        assert_eq!(frames.read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(frames.read_frame(&mut r).unwrap(), b"");
        assert!(frames.read_frame(&mut r).is_err(), "EOF is an error");
    }

    #[test]
    fn corrupt_frames_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // flip a payload byte: CRC must catch it
        let mut bad = wire.clone();
        bad[10] ^= 0x01;
        assert!(reader().read_frame(&mut &bad[..]).is_err());
        // a length over the cap: rejected on its header
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(reader().read_frame(&mut &huge[..]).is_err());
    }
}
