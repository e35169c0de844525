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
//! and the checkpoint images use too. Frames above `MAX_FRAME` are rejected before allocation — a client
//! cannot make the server allocate gigabytes with an 8-byte header.

use mammoth_types::{framing, Result};
use std::io::{Read, Write};

/// Sanity cap on one frame's payload, either direction.
pub(crate) const MAX_FRAME: usize = 16 << 20;

/// Write one frame (header + payload) with a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    framing::write_frame(w, payload)
}

/// Read one frame, verifying length bound and CRC. Blocks until a whole
/// frame arrives; returns `Err` on EOF, oversized frames, or CRC mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    framing::read_frame(r, MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "EOF is an error");
    }

    #[test]
    fn corrupt_frames_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        // flip a payload byte: CRC must catch it
        let mut bad = wire.clone();
        bad[10] ^= 0x01;
        assert!(read_frame(&mut &bad[..]).is_err());
        // absurd length: rejected before allocation
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());
    }
}
