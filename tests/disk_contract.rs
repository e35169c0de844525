//! The on-disk contract, pinned byte for byte.
//!
//! Replicas, shards and crash recovery all replay the WAL records and load
//! the checkpoint images a primary writes, so neither encoding may drift
//! as a side effect of a change to the in-memory delta store. A fixed
//! DML + CHECKPOINT script runs through a recording [`Vfs`]; every WAL
//! file (the concatenation of its appends) and every file written into a
//! checkpoint directory is hashed, and the table of hashes below was taken
//! from the commit *before* the delta store was rewritten (PR 14). A
//! mismatch here is a format change: it needs a version bump and a
//! migration story, not a re-bless.
//!
//! The script covers what decides those bytes: every logical type, NULLs,
//! strings shared between the base and the insert delta, deletes in the
//! base, in the insert delta and across the boundary, checkpoints taken
//! clean / with inserts only / with deletes pending, and threshold merges
//! (a logged `Merge` renumbers positions, so later `Delete` records carry
//! the renumbered oids).

use mammoth_sql::Session;
use mammoth_storage::{RealFs, Vfs};
use mammoth_types::Result;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One written file: path relative to the store root, total bytes, and
/// the FNV-1a hash of its content (appends are folded in order).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Written {
    path: String,
    len: u64,
    hash: u64,
}

/// A [`Vfs`] over the real filesystem that remembers what was written.
struct RecordFs {
    inner: RealFs,
    root: PathBuf,
    files: Mutex<Vec<Written>>,
}

impl RecordFs {
    fn rel(&self, path: &Path) -> String {
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned()
    }
}

impl Vfs for RecordFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        // a rewrite of the same path (CURRENT.tmp, a new WAL's header) is
        // a new file as far as the contract goes
        self.files.lock().unwrap().push(Written {
            path: self.rel(path),
            len: bytes.len() as u64,
            hash: fnv1a(FNV_SEED, bytes),
        });
        self.inner.write_file(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let rel = self.rel(path);
        let mut files = self.files.lock().unwrap();
        match files.iter_mut().rev().find(|w| w.path == rel) {
            Some(w) => {
                w.len += bytes.len() as u64;
                w.hash = fnv1a(w.hash, bytes);
            }
            None => files.push(Written {
                path: rel,
                len: bytes.len() as u64,
                hash: fnv1a(FNV_SEED, bytes),
            }),
        }
        drop(files);
        self.inner.append(path, bytes)
    }
    fn sync(&self, path: &Path) -> Result<()> {
        self.inner.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }
    fn remove_file(&self, path: &Path) -> Result<()> {
        self.inner.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.inner.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn read_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }
}

/// The fixed script. Never edit a statement: the hashes below are of the
/// bytes these exact statements produce.
fn script() -> Vec<String> {
    let mut s = vec![
        "CREATE TABLE ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)".to_string(),
        "CREATE TABLE ty (b BOOLEAN, i1 TINYINT, i2 SMALLINT, i4 INT NOT NULL, \
         f DOUBLE, t TEXT NOT NULL)"
            .to_string(),
    ];
    let ev_rows = |lo: i64, hi: i64| -> String {
        (lo..hi)
            .map(|k| {
                let v = if k % 7 == 3 {
                    "NULL".to_string()
                } else {
                    ((k * 37) % 101 - 50).to_string()
                };
                let s = if k % 5 == 4 {
                    "NULL".to_string()
                } else {
                    format!("'e{:02}'", k % 13)
                };
                format!("({k}, {v}, {s})")
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let ty_rows = |lo: i64, hi: i64| -> String {
        (lo..hi)
            .map(|k| {
                let b = ["TRUE", "FALSE", "FALSE"][(k % 3) as usize];
                let i1 = if k % 4 == 1 {
                    "NULL".to_string()
                } else {
                    (k % 100 - 50).to_string()
                };
                let i2 = if k % 6 == 2 {
                    "NULL".to_string()
                } else {
                    (k * 300 - 9000).to_string()
                };
                let f = if k % 5 == 0 {
                    "NULL".to_string()
                } else {
                    format!("{}.25", k - 20)
                };
                format!("({b}, {i1}, {i2}, {}, {f}, 't{}')", k * 1000 - 7, k % 9)
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    // a base: loaded, then checkpointed with inserts only pending
    s.push(format!("INSERT INTO ev VALUES {}", ev_rows(0, 40)));
    s.push(format!("INSERT INTO ty VALUES {}", ty_rows(0, 24)));
    s.push("CHECKPOINT".into());
    // deletes in the base (prefix, middle, suffix) and inserts on top,
    // some deleted again while still in the insert delta
    s.push("DELETE FROM ev WHERE k < 5".into());
    s.push(format!("INSERT INTO ev VALUES {}", ev_rows(40, 49)));
    s.push("DELETE FROM ev WHERE k >= 17 AND k < 21".into());
    s.push("DELETE FROM ev WHERE k >= 38 AND k < 43".into()); // straddles
    s.push("DELETE FROM ev WHERE v = 0".into());
    s.push("DELETE FROM ev WHERE s = 'e03'".into());
    s.push(format!("INSERT INTO ev VALUES {}", ev_rows(49, 52)));
    s.push("DELETE FROM ty WHERE i4 < 2000".into());
    s.push("DELETE FROM ty WHERE b = TRUE AND f > 0.0".into());
    s.push(format!("INSERT INTO ty VALUES {}", ty_rows(24, 30)));
    s.push("DELETE FROM ty WHERE t >= 't7'".into());
    s.push("CHECKPOINT".into()); // deletes + inserts pending in both
    s.push("CHECKPOINT".into()); // clean

    // enough single-statement volume to cross the merge threshold (set to
    // 16 below) several times, deletes interleaved so the Delete records
    // after a Merge carry renumbered positions
    for round in 0..6i64 {
        let lo = 52 + round * 10;
        s.push(format!("INSERT INTO ev VALUES {}", ev_rows(lo, lo + 10)));
        s.push(format!(
            "DELETE FROM ev WHERE k >= {} AND k < {}",
            lo - 8,
            lo - 3
        ));
        s.push(format!(
            "INSERT INTO ev VALUES {}",
            ev_rows(lo + 200, lo + 201)
        ));
    }
    s.push("DELETE FROM ev WHERE k >= 250".into()); // insert-delta rows only
    s.push("DELETE FROM ev WHERE k >= 0".into()); // everything
    s.push(format!("INSERT INTO ev VALUES {}", ev_rows(300, 303)));
    s.push("DROP TABLE ty".into());
    s.push("CHECKPOINT".into());
    s.push(format!("INSERT INTO ev VALUES {}", ev_rows(303, 306)));
    s
}

/// `path len hash` per file, in the order first written. Taken at commit
/// 868504b (the parent of the delta-store rewrite).
const PINNED: &str = "\
wal-0 2746 7ea6ba2387f033b7
ckpt-1.tmp/ev.0.bat 355 f0311783c61baf52
ckpt-1.tmp/ev.1.bat 355 3b4ad2345fa36d35
ckpt-1.tmp/ev.2.bat 454 19a4cdac30675dec
ckpt-1.tmp/ty.0.bat 59 81ccc2b073a6e550
ckpt-1.tmp/ty.1.bat 59 20d5928ff978df23
ckpt-1.tmp/ty.2.bat 83 835443ed3fe999bc
ckpt-1.tmp/ty.3.bat 131 6b7c8d8aa8c44cb9
ckpt-1.tmp/ty.4.bat 227 438fd7c54d6c9336
ckpt-1.tmp/ty.5.bat 289 30f77a667d87683e
ckpt-1.tmp/catalog.mmth 214 6510e6bee7534e1b
CURRENT.tmp 7 a465704396a541bd
wal-1 1438 9d656c349803f842
ckpt-2.tmp/ev.0.bat 323 dfe42bb96a3de534
ckpt-2.tmp/ev.1.bat 323 e3bad073c63526e3
ckpt-2.tmp/ev.2.bat 415 a26ffbf1f8a80e8d
ckpt-2.tmp/ty.0.bat 55 66e79f21f6538a0f
ckpt-2.tmp/ty.1.bat 55 a2298baca4586ceb
ckpt-2.tmp/ty.2.bat 75 6ccd9e4cf66d53cf
ckpt-2.tmp/ty.3.bat 115 5c6212316e58513f
ckpt-2.tmp/ty.4.bat 195 4817651c2901748b
ckpt-2.tmp/ty.5.bat 245 f2295776f2465b70
ckpt-2.tmp/catalog.mmth 214 6510e6bee7534e1b
CURRENT.tmp 7 a45b2e43969c7d12
wal-2 8 c180be7318560832
ckpt-3.tmp/ev.0.bat 323 0230eee448d5b891
ckpt-3.tmp/ev.1.bat 323 e3bad073c63526e3
ckpt-3.tmp/ev.2.bat 415 a26ffbf1f8a80e8d
ckpt-3.tmp/ty.0.bat 55 77f0ad39fa715fbb
ckpt-3.tmp/ty.1.bat 55 c4920322ebeb8117
ckpt-3.tmp/ty.2.bat 75 5396b82ed8da5b8f
ckpt-3.tmp/ty.3.bat 115 ecfc2df5af446804
ckpt-3.tmp/ty.4.bat 195 e91023a63f1fb10a
ckpt-3.tmp/ty.5.bat 245 b5a50b5f555c4378
ckpt-3.tmp/catalog.mmth 214 6510e6bee7534e1b
CURRENT.tmp 7 a45e9043969f596f
wal-3 5071 cb1c65f3623c4df3
ckpt-4.tmp/ev.0.bat 59 83d66d8903410a64
ckpt-4.tmp/ev.1.bat 59 3af88a7f2136a983
ckpt-4.tmp/ev.2.bat 88 b1c41456e79b7815
ckpt-4.tmp/catalog.mmth 87 24db8ddc5441183b
CURRENT.tmp 7 a4546e439696cb24
wal-4 117 20abd13e8f073b0f
";

#[test]
fn wal_and_checkpoint_bytes_match_the_pinned_hashes() {
    let root = std::env::temp_dir().join(format!("mammoth-disk-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fs = Arc::new(RecordFs {
        inner: RealFs,
        root: root.clone(),
        files: Mutex::new(Vec::new()),
    });
    {
        let mut s = Session::open_durable_with(fs.clone(), root.clone()).unwrap();
        s.set_merge_threshold(16);
        for stmt in script() {
            s.execute(&stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        }
    }
    let got: String = fs
        .files
        .lock()
        .unwrap()
        .iter()
        .map(|w| format!("{} {} {:016x}\n", w.path, w.len, w.hash))
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        got.lines().any(|l| l.starts_with("wal-4 ")) && got.contains("ckpt-4.tmp/ev.2.bat"),
        "the script must reach generation 4 and log after it:\n{got}"
    );
    assert_eq!(
        got.trim(),
        PINNED.trim(),
        "WAL or checkpoint bytes drifted from the pinned format; got:\n{got}"
    );
}

/// A store written before the statistics stopped being stored has a
/// `stats.mstats` in its checkpoint directory. Nothing reads it: an open
/// rebuilds the statistics from the image, and the next CHECKPOINT leaves
/// the old generation, file and all, behind.
#[test]
fn a_legacy_stats_file_is_ignored_and_dropped() {
    use mammoth_storage::MemFs;
    let fs = Arc::new(MemFs::default());
    let root = PathBuf::from("/db");
    let fresh = {
        let mut s = Session::open_durable_with(fs.clone(), root.clone()).unwrap();
        for stmt in script().iter().take_while(|stmt| *stmt != "CHECKPOINT") {
            s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        }
        s.execute("CHECKPOINT").unwrap();
        s.stats_catalog()
    };
    let legacy = root.join("ckpt-1/stats.mstats");
    fs.write_file(&legacy, b"MSTATS1\ntable ev 9 9\ncol k \xff garbage")
        .unwrap();
    fs.sync(&legacy).unwrap();
    let mut s = Session::open_durable_with(fs.clone(), root.clone()).unwrap();
    assert_eq!(s.stats_catalog(), fresh);
    s.execute("CHECKPOINT").unwrap();
    let files = fs.read_dir(&root.join("ckpt-2")).unwrap();
    assert!(!files.is_empty() && !fs.exists(&legacy));
    assert!(
        files.iter().all(|p| !p.ends_with("stats.mstats")),
        "{files:?}"
    );
}
