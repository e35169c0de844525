//! The write-ahead (redo) log.
//!
//! Crash safety in mammoth follows the classic redo-only recipe: DML is
//! recorded in an append-only log *before* the in-memory delta BATs are
//! touched, commits are made durable with one fsync per batch, and the
//! periodic [checkpoint](crate::persist::checkpoint_image) folds the
//! logged state into the raw-heap image and truncates the log. Recovery
//! loads the last good checkpoint and replays the log tail.
//!
//! ## On-disk format
//!
//! ```text
//! wal := header record*
//! header := "MWAL1\n" u16-le version (8 bytes total)
//! record := u32-le payload_len | u32-le crc32(payload) | payload
//! ```
//!
//! A record's payload starts with a one-byte tag (see [`WalRecord`]); its
//! strings, integers, column definitions and values are the primitives of
//! [`mammoth_types::codec`], the same bytes the wire protocol carries.
//!
//! A record whose length overruns the file or whose CRC does not match
//! terminates replay: the tail from that point on is *discarded, not an
//! error* — it is the torn final append of a crashed process. Corruption
//! before the last valid record cannot be distinguished from a torn tail
//! and is treated the same way; the checkpoint + committed-prefix guarantee
//! is unaffected because every fsync'd batch either fully precedes the tear
//! or was never acknowledged.

use crate::fault::{sync_entry, Vfs};
use mammoth_types::codec::{put_column, put_str, put_u32, put_u64, put_value, Reader};
use mammoth_types::framing::{self, Frame};
use mammoth_types::{Error, EventKind, Oid, Result, TableSchema, TraceEvent, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every log's first bytes: the magic, then the format version (u16-le 1).
const WAL_HEADER: &[u8; 8] = b"MWAL1\n\x01\x00";
/// Sanity cap on one record's payload (inputs are untrusted on replay).
const MAX_RECORD: usize = 1 << 30;

/// Check the header at the front of a log image or stream.
fn check_header(buf: &[u8]) -> Result<()> {
    match buf.get(..WAL_HEADER.len()) {
        Some(h) if h == WAL_HEADER => Ok(()),
        Some(h) if h[..6] == WAL_HEADER[..6] => Err(Error::Corrupt(format!(
            "unknown WAL version {}",
            u16::from_le_bytes([h[6], h[7]])
        ))),
        _ => Err(Error::Corrupt("bad WAL magic".into())),
    }
}

/// One redo record. Replay applies these to the checkpointed catalog in
/// log order; the encoding is versioned by the WAL header.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// DDL: a table was created.
    CreateTable { schema: TableSchema },
    /// DDL: a table was dropped.
    DropTable { name: String },
    /// One row appended to a table's insert deltas.
    Insert { table: String, row: Vec<Value> },
    /// One position marked deleted in every column of a table.
    Delete { table: String, pos: Oid },
    /// The table's deltas were merged into a fresh base (renumbering
    /// positions). Logged so replayed [`WalRecord::Delete`] positions mean
    /// the same thing they meant online, independent of the configured
    /// merge threshold.
    Merge { table: String },
    /// Statement-commit marker. Replay applies records only up to the last
    /// marker, so a statement is atomic under any crash: a torn or
    /// unterminated batch is discarded wholesale, never half-applied.
    Commit,
}

impl WalRecord {
    /// Encode this record's payload (without the frame).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::CreateTable { schema } => {
                out.push(1);
                put_str(&schema.name, out);
                put_u32(schema.columns.len() as u32, out);
                for c in &schema.columns {
                    put_column(c, out);
                }
            }
            WalRecord::DropTable { name } => {
                out.push(2);
                put_str(name, out);
            }
            WalRecord::Insert { table, row } => encode_insert(table, row, out),
            WalRecord::Delete { table, pos } => encode_delete(table, *pos, out),
            WalRecord::Merge { table } => {
                out.push(5);
                put_str(table, out);
            }
            WalRecord::Commit => out.push(6),
        }
    }

    /// Decode one payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            1 => {
                let name = r.str()?;
                let n = r.count(6)?;
                let columns = (0..n).map(|_| r.column()).collect::<Result<_>>()?;
                WalRecord::CreateTable {
                    schema: TableSchema::new(name, columns),
                }
            }
            2 => WalRecord::DropTable { name: r.str()? },
            3 => {
                let table = r.str()?;
                let n = r.count(1)?;
                let row = r.values(n)?;
                WalRecord::Insert { table, row }
            }
            4 => WalRecord::Delete {
                table: r.str()?,
                pos: r.u64()?,
            },
            5 => WalRecord::Merge { table: r.str()? },
            6 => WalRecord::Commit,
            t => return Err(Error::Corrupt(format!("unknown WAL record tag {t}"))),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// The payload of a [`WalRecord::Insert`], written from a borrowed row —
/// the one encoding of that record, whether or not a record value exists.
pub(crate) fn encode_insert(table: &str, row: &[Value], out: &mut Vec<u8>) {
    out.push(3);
    put_str(table, out);
    put_u32(row.len() as u32, out);
    for v in row {
        put_value(v, out);
    }
}

/// The payload of a [`WalRecord::Delete`] (see [`encode_insert`]).
pub(crate) fn encode_delete(table: &str, pos: Oid, out: &mut Vec<u8>) {
    out.push(4);
    put_str(table, out);
    put_u64(pos, out);
}

/// What [`replay`] found in a log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReplay {
    /// The decoded records of *committed* statements, in append order:
    /// everything up to the last intact [`WalRecord::Commit`] marker
    /// (markers themselves are filtered out).
    pub records: Vec<WalRecord>,
    /// Whether anything after the last commit marker was discarded — a
    /// torn/corrupt frame, or intact records never followed by a marker
    /// (the unterminated batch of a crashed process).
    pub tail_discarded: bool,
}

/// Parse a WAL image. A missing header on a non-empty file is corruption
/// (the file is not a WAL); a bad frame mid-file ends replay with
/// `tail_discarded = true`. Records land in [`WalReplay::records`] only
/// when a [`WalRecord::Commit`] marker follows them, so a crash anywhere
/// inside a statement's batch discards the whole statement.
pub(crate) fn replay_bytes(buf: &[u8]) -> Result<WalReplay> {
    if buf.is_empty() {
        return Ok(WalReplay::default());
    }
    if buf.len() < WAL_HEADER.len() && WAL_HEADER.starts_with(buf) {
        // the header write itself tore (crash at generation creation,
        // before anything could have been acknowledged): an empty log
        return Ok(WalReplay {
            records: Vec::new(),
            tail_discarded: true,
        });
    }
    check_header(buf)?;
    let mut out = WalReplay::default();
    // records staged until their statement's commit marker arrives
    let mut staged: Vec<WalRecord> = Vec::new();
    let mut rest = &buf[WAL_HEADER.len()..];
    loop {
        match framing::split_frame(rest, MAX_RECORD) {
            Frame::Complete { payload, consumed } => {
                match WalRecord::decode(payload) {
                    Ok(WalRecord::Commit) => out.records.append(&mut staged),
                    Ok(rec) => staged.push(rec),
                    Err(_) => {
                        // framed and checksummed but undecodable: a torn
                        // tail can't produce this (CRC would fail first),
                        // but treat it the same way — replay stops at the
                        // last good record
                        out.tail_discarded = true;
                        break;
                    }
                }
                rest = &rest[consumed..];
            }
            Frame::Incomplete => {
                // mid-frame end of file is a torn append; the exact end of
                // the last frame is a clean log
                out.tail_discarded |= !rest.is_empty();
                break;
            }
            Frame::Corrupt(_) => {
                out.tail_discarded = true;
                break;
            }
        }
    }
    if !staged.is_empty() {
        // intact records with no commit marker: the unterminated batch of
        // a crash mid-statement — atomicity says drop them all
        out.tail_discarded = true;
    }
    Ok(out)
}

/// Read and parse the WAL at `path`; a missing file is an empty log.
pub fn replay(fs: &dyn Vfs, path: &Path) -> Result<WalReplay> {
    if !fs.exists(path) {
        return Ok(WalReplay::default());
    }
    replay_bytes(&fs.read(path)?)
}

/// The append side of the log.
///
/// A statement's records buffer in memory until [`Wal::statement_boundary`]
/// seals them with a [`WalRecord::Commit`] marker — so one statement is one
/// contiguous marker-terminated run of frames, and replay applies it all or
/// not at all. `batch` configures *group commit* in statements per fsync:
/// with `batch == 1` (the default) every boundary does one append + one
/// fsync; larger values trade the durability of the last `batch - 1`
/// acknowledged statements for fewer fsyncs (E20 measures exactly this
/// trade).
pub struct Wal {
    fs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Encoded, framed records not yet written to the file.
    buf: Vec<u8>,
    /// Record frames (excluding commit markers) in `buf`.
    pending: usize,
    /// Byte offset in `buf` of the last sealed statement boundary;
    /// everything past it belongs to the statement in flight.
    boundary_off: usize,
    /// Records appended since the last boundary (the in-flight statement).
    since_boundary: usize,
    /// Sealed statements buffered and not yet durable.
    stmts_pending: usize,
    /// Group-commit threshold (statements per fsync), >= 1.
    batch: usize,
    /// Total records appended since open (for trace events).
    appended: u64,
    tracing: bool,
    events: Vec<TraceEvent>,
}

impl Wal {
    /// Open (creating if missing) the log at `path`.
    pub fn open(fs: Arc<dyn Vfs>, path: PathBuf) -> Result<Wal> {
        let wal = Wal {
            fs,
            path,
            buf: Vec::new(),
            pending: 0,
            boundary_off: 0,
            since_boundary: 0,
            stmts_pending: 0,
            batch: 1,
            appended: 0,
            tracing: false,
            events: Vec::new(),
        };
        if !wal.fs.exists(&wal.path) {
            wal.write_header()?;
        }
        Ok(wal)
    }

    /// Write and sync the header, then sync the log's directory: a new
    /// file's entry is durable only then, and without it a power loss can
    /// drop the whole log. One fsync more per log generation.
    fn write_header(&self) -> Result<()> {
        self.fs.write_file(&self.path, WAL_HEADER)?;
        self.fs.sync(&self.path)?;
        sync_entry(self.fs.as_ref(), &self.path)
    }

    /// Set the group-commit batch size (clamped to >= 1).
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Toggle durability tracing (wal.append events, drained by
    /// [`Wal::take_events`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drain the events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Buffer one record of the statement in flight, its payload encoded
    /// straight into the frame. Nothing touches the file until the
    /// statement is sealed and its batch commits.
    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        framing::frame_with(&mut self.buf, encode);
        self.pending += 1;
        self.since_boundary += 1;
        Ok(())
    }

    /// Buffer one record of the statement in flight.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.push(|out| rec.encode(out))
    }

    /// [`Wal::append`] of a [`WalRecord::Insert`], framed from the
    /// statement's own row: the same bytes, and no record built.
    pub fn append_insert(&mut self, table: &str, row: &[Value]) -> Result<()> {
        self.push(|out| encode_insert(table, row, out))
    }

    /// [`Wal::append`] of a [`WalRecord::Delete`], without building it.
    pub fn append_delete(&mut self, table: &str, pos: Oid) -> Result<()> {
        self.push(|out| encode_delete(table, pos, out))
    }

    /// Append the buffered batch to the file and fsync it. A no-op when
    /// nothing is buffered.
    pub fn commit(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let n = self.pending as u64;
        let bytes = self.buf.len() as u64;
        self.fs.append(&self.path, &self.buf)?;
        self.fs.sync(&self.path)?;
        self.buf.clear();
        self.pending = 0;
        self.boundary_off = 0;
        self.since_boundary = 0;
        self.stmts_pending = 0;
        self.appended += n;
        if self.tracing {
            self.events.push(TraceEvent {
                kind: EventKind::WalAppend,
                op: "wal".to_string(),
                args: format!("{n} records, {bytes} bytes"),
                rows_in: n,
                bytes_out: bytes,
                ..TraceEvent::default()
            });
        }
        Ok(())
    }

    /// Seal the statement in flight with a [`WalRecord::Commit`] marker and
    /// commit the batch once `batch` statements have accumulated. A no-op
    /// for statements that appended nothing.
    pub fn statement_boundary(&mut self) -> Result<()> {
        if self.since_boundary == 0 {
            return Ok(());
        }
        framing::frame_with(&mut self.buf, |out| WalRecord::Commit.encode(out));
        self.boundary_off = self.buf.len();
        self.since_boundary = 0;
        self.stmts_pending += 1;
        if self.stmts_pending >= self.batch {
            self.commit()?;
        }
        Ok(())
    }

    /// Drop the records of the statement in flight (it failed before its
    /// commit point). Sealed statements buffered by group commit stay.
    pub fn rollback_pending(&mut self) {
        self.buf.truncate(self.boundary_off);
        self.pending -= self.since_boundary;
        self.since_boundary = 0;
    }
}

/// Incremental parser over a WAL byte *stream*: the replication applier's
/// view of the log, where bytes arrive in arbitrarily-sliced chunks off
/// the wire rather than as one file image.
///
/// Unlike `replay_bytes`, which charitably discards a bad tail (a crash
/// tears the final append), the cursor treats any bad frame as an error:
/// the primary only ships frames it has durably written, so a CRC mismatch
/// or undecodable record mid-stream means the replica's copy has diverged
/// and must re-bootstrap. Incomplete frames simply buffer until more bytes
/// arrive.
#[derive(Default)]
pub struct WalCursor {
    buf: Vec<u8>,
    header_done: bool,
    /// Records of the statement group in flight (no commit marker yet).
    staged: Vec<WalRecord>,
    /// Bytes consumed off the front of the stream so far, including the
    /// 8-byte header — i.e. the stream offset this cursor has applied to.
    consumed: u64,
}

impl WalCursor {
    pub fn new() -> WalCursor {
        WalCursor::default()
    }

    /// Stream offset fully parsed so far (header + whole frames).
    pub fn offset(&self) -> u64 {
        self.consumed
    }

    /// Feed the next chunk of the stream; returns the statement groups
    /// completed by it (each group is one committed statement's records,
    /// commit markers filtered out).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Vec<WalRecord>>> {
        self.buf.extend_from_slice(bytes);
        let mut groups = Vec::new();
        let mut pos = 0usize;
        if !self.header_done {
            if self.buf.len() < WAL_HEADER.len() {
                return Ok(groups);
            }
            check_header(&self.buf)?;
            self.header_done = true;
            pos = WAL_HEADER.len();
        }
        loop {
            match framing::split_frame(&self.buf[pos..], MAX_RECORD) {
                Frame::Complete { payload, consumed } => {
                    match WalRecord::decode(payload)? {
                        WalRecord::Commit => groups.push(std::mem::take(&mut self.staged)),
                        rec => self.staged.push(rec),
                    }
                    pos += consumed;
                }
                Frame::Incomplete => break,
                Frame::Corrupt(e) => {
                    return Err(Error::Corrupt(format!("WAL stream diverged: {e}")))
                }
            }
        }
        self.buf.drain(..pos);
        self.consumed += pos as u64;
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RealFs;
    use mammoth_types::{ColumnDef, LogicalType};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mammoth-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                schema: TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("a", LogicalType::I32),
                        ColumnDef::new("s", LogicalType::Str),
                    ],
                ),
            },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![Value::I32(7), Value::Str("x''y\"z".into())],
            },
            WalRecord::Insert {
                table: "t".into(),
                row: vec![Value::Null, Value::Str(String::new())],
            },
            WalRecord::Delete {
                table: "t".into(),
                pos: 1,
            },
            WalRecord::Merge { table: "t".into() },
            WalRecord::DropTable { name: "t".into() },
        ]
    }

    #[test]
    fn record_codec_roundtrips() {
        let mut all = sample_records();
        all.push(WalRecord::Commit);
        for rec in all {
            let mut p = Vec::new();
            rec.encode(&mut p);
            assert_eq!(WalRecord::decode(&p).unwrap(), rec);
        }
    }

    #[test]
    fn borrowed_rows_frame_to_the_records_bytes() {
        let d = tmp("borrowed");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut owned = Wal::open(Arc::clone(&fs), d.join("a")).unwrap();
        let mut borrowed = Wal::open(fs, d.join("b")).unwrap();
        let row = vec![
            Value::I64(i64::MIN),
            Value::Str("naïve".into()),
            Value::Null,
            Value::F64(-0.0),
        ];
        let insert = WalRecord::Insert {
            table: "t".into(),
            row: row.clone(),
        };
        let delete = WalRecord::Delete {
            table: "t".into(),
            pos: 7,
        };
        owned.append(&insert).unwrap();
        owned.append(&delete).unwrap();
        borrowed.append_insert("t", &row).unwrap();
        borrowed.append_delete("t", 7).unwrap();
        let mut framed = Vec::new();
        for rec in [&insert, &delete] {
            let mut payload = Vec::new();
            rec.encode(&mut payload);
            framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            framed.extend_from_slice(&framing::crc32(&payload).to_le_bytes());
            framed.extend_from_slice(&payload);
        }
        assert_eq!(owned.buf, framed);
        assert_eq!(borrowed.buf, framed);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_replay_roundtrip() {
        let d = tmp("roundtrip");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            wal.statement_boundary().unwrap();
        }
        let back = replay(fs.as_ref(), &path).unwrap();
        assert!(!back.tail_discarded);
        assert_eq!(back.records, sample_records(), "markers filtered out");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn uncommitted_records_are_not_replayed() {
        let d = tmp("uncommitted");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        wal.append(&WalRecord::Merge { table: "a".into() }).unwrap();
        wal.statement_boundary().unwrap();
        // a second statement's records reach the file with no marker (the
        // process dies between append and boundary): replay must drop them
        wal.append(&WalRecord::Merge { table: "b".into() }).unwrap();
        wal.commit().unwrap();
        let back = replay(fs.as_ref(), &path).unwrap();
        assert_eq!(back.records, vec![WalRecord::Merge { table: "a".into() }]);
        assert!(back.tail_discarded, "unterminated batch is a discard");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let d = tmp("torn");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            wal.statement_boundary().unwrap();
        }
        let full = fs.read(&path).unwrap();
        // statement boundaries in the byte stream: after each record's
        // frame plus its commit-marker frame (9 bytes). Cuts exactly there
        // are clean shorter logs; cuts anywhere else discard the whole
        // in-flight statement, never fail
        let mut boundaries = vec![8usize];
        for rec in sample_records() {
            let mut p = Vec::new();
            rec.encode(&mut p);
            boundaries.push(boundaries.last().unwrap() + 8 + p.len() + 9);
        }
        for cut in 8..full.len() {
            let got = replay_bytes(&full[..cut]).unwrap();
            let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.records.len(), committed, "cut at {cut}");
            let clean = boundaries.contains(&cut);
            assert_eq!(!got.tail_discarded, clean, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_header_is_an_empty_log_not_corruption() {
        // a crash can tear the 8-byte header write at generation creation;
        // nothing in that generation was acknowledged, so it's an empty log
        let full: &[u8] = b"MWAL1\n\x01\x00";
        for cut in 1..8 {
            let got = replay_bytes(&full[..cut]).unwrap();
            assert!(got.records.is_empty() && got.tail_discarded, "cut {cut}");
        }
        // a non-WAL file of the same size is still corruption
        assert!(replay_bytes(b"GARBAGE").is_err());
    }

    #[test]
    fn bitflips_never_panic_and_never_lie() {
        let d = tmp("flip");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            wal.statement_boundary().unwrap();
        }
        let full = fs.read(&path).unwrap();
        assert!(full.len() > 8, "records must actually be on disk");
        let originals = sample_records();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            // header flips -> Err; body flips -> a (possibly shortened)
            // prefix of valid records. No panics, no phantom records.
            match replay_bytes(&bad) {
                Err(Error::Corrupt(_)) => {}
                Err(e) => panic!("unexpected error kind {e}"),
                Ok(got) => {
                    for (g, o) in got.records.iter().zip(&originals) {
                        assert_eq!(g, o, "flip at byte {i} fabricated a record");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let d = tmp("batch");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        wal.set_batch(3);
        wal.set_tracing(true);
        for _ in 0..7 {
            wal.append(&WalRecord::Merge { table: "t".into() }).unwrap();
            wal.statement_boundary().unwrap();
        }
        assert_eq!(wal.pending, 1, "7 % 3 records still buffered");
        wal.commit().unwrap();
        let ev = wal.take_events();
        assert_eq!(ev.len(), 3, "two full batches plus the final flush");
        assert!(ev.iter().all(|e| e.kind == EventKind::WalAppend));
        let back = replay(fs.as_ref(), &path).unwrap();
        assert_eq!(back.records.len(), 7);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn cursor_agrees_with_replay_at_any_chunking() {
        let d = tmp("cursor");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
            wal.statement_boundary().unwrap();
        }
        let full = fs.read(&path).unwrap();
        let want = replay_bytes(&full).unwrap().records;
        for chunk in [1usize, 3, 7, full.len()] {
            let mut cur = WalCursor::new();
            let mut got: Vec<WalRecord> = Vec::new();
            for piece in full.chunks(chunk) {
                for group in cur.feed(piece).unwrap() {
                    got.extend(group);
                }
            }
            assert_eq!(got, want, "chunk size {chunk}");
            assert_eq!(cur.offset(), full.len() as u64);
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn cursor_rejects_divergence() {
        let d = tmp("cursor-bad");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let path = d.join("wal");
        let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
        wal.append(&WalRecord::Merge { table: "t".into() }).unwrap();
        wal.statement_boundary().unwrap();
        let mut full = fs.read(&path).unwrap();
        let last = full.len() - 1;
        full[last] ^= 0x40;
        let mut cur = WalCursor::new();
        assert!(cur.feed(&full).is_err(), "CRC mismatch is fatal mid-stream");
        let mut cur = WalCursor::new();
        assert!(cur.feed(b"NOTAWAL!").is_err(), "bad magic is fatal");
        let _ = std::fs::remove_dir_all(&d);
    }

    mod fuzz {
        //! FaultNet-style damage against the stream parser: whatever the
        //! wire does to WAL bytes — torn tails, flipped bits, truncated
        //! chunks — [`WalCursor`] must error cleanly or stall waiting for
        //! more input. It may never panic, never consume bytes it has not
        //! parsed, and never fabricate a committed group the pristine
        //! stream does not contain.
        use super::*;
        use mammoth_types::netfault::mangle;
        use proptest::prelude::*;

        fn encoded_wal(tables: &[String], tag: u64) -> Vec<u8> {
            let d = tmp(&format!("fuzz-{tag}"));
            let fs: Arc<dyn Vfs> = Arc::new(RealFs);
            let path = d.join("wal");
            let mut wal = Wal::open(Arc::clone(&fs), path.clone()).unwrap();
            for t in tables {
                wal.append(&WalRecord::Merge { table: t.clone() }).unwrap();
                wal.statement_boundary().unwrap();
            }
            let bytes = fs.read(&path).unwrap();
            let _ = std::fs::remove_dir_all(&d);
            bytes
        }

        proptest! {
            #[test]
            fn cursor_survives_mangled_streams(
                tables in proptest::collection::vec("[a-z]{1,8}", 1..6),
                seed in 0u64..512,
                chunk in 1usize..96,
            ) {
                let clean = encoded_wal(&tables, seed);
                // Ground truth: the groups a pristine feed yields.
                let want = WalCursor::new().feed(&clean).unwrap();
                let bad = mangle(&clean, seed);
                prop_assert_ne!(&bad, &clean, "mangle must damage the stream");
                let mut cur = WalCursor::new();
                let mut got: Vec<Vec<WalRecord>> = Vec::new();
                for piece in bad.chunks(chunk) {
                    match cur.feed(piece) {
                        Ok(groups) => got.extend(groups),
                        // A clean typed error is a correct outcome; so is
                        // stalling on an incomplete frame (more bytes
                        // would surface the divergence). Panicking,
                        // over-reading, or inventing groups is not.
                        Err(_) => break,
                    }
                }
                prop_assert!(cur.offset() <= bad.len() as u64, "over-consumed");
                prop_assert!(got.len() <= want.len(), "fabricated a group");
                prop_assert_eq!(&want[..got.len()], &got[..], "diverged from truth");
            }
        }
    }

    #[test]
    fn rollback_pending_drops_uncommitted() {
        let d = tmp("rollback");
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut wal = Wal::open(Arc::clone(&fs), d.join("wal")).unwrap();
        wal.set_batch(100);
        wal.append(&WalRecord::Merge { table: "t".into() }).unwrap();
        wal.rollback_pending();
        wal.commit().unwrap();
        let back = replay(fs.as_ref(), &d.join("wal")).unwrap();
        assert!(back.records.is_empty());
        let _ = std::fs::remove_dir_all(&d);
    }
}
