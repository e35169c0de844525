//! The observability substrate: profiler events and unified run profiles.
//!
//! MonetDB ships `EXPLAIN`/`TRACE` and a per-instruction profiler because an
//! operator-at-a-time engine only earns trust when you can *see* what a plan
//! did. This module is the common vocabulary for that: every execution
//! engine (the serial interpreter, the serial interpreter with the recycler,
//! the dataflow worker pool) and every adaptive component (the recycler,
//! the cracker) reports [`TraceEvent`]s, and a whole run folds into one
//! [`ProfiledRun`].
//!
//! The JSON export is **one event per line** with a stable schema — the
//! golden files under `tests/golden/` and the `tracecheck` binary pin it.
//! Setting the [`TRACE_ENV`] environment variable (`MAMMOTH_TRACE=<path>`)
//! makes the SQL session append every profiled run to that file; the whole
//! run is written with a single `write` call so concurrent test processes
//! appending to one file do not interleave mid-line.

use std::fmt;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable naming the JSON-lines trace sink.
pub const TRACE_ENV: &str = "MAMMOTH_TRACE";

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One executed (or recycled) plan instruction.
    Instr,
    /// The recycler answered an instruction from its cache.
    RecyclerHit,
    /// The recycler admitted a computed intermediate.
    RecyclerAdmit,
    /// The recycler evicted an entry to make room.
    RecyclerEvict,
    /// A DML statement invalidated dependent cache entries.
    RecyclerInvalidate,
    /// A cracker select split a piece (physical reorganization).
    CrackPartition,
    /// The cracker merged its pending delta into the cracked store.
    CrackMerge,
    /// A batch of redo records was appended (and fsync'd) to the WAL.
    WalAppend,
    /// An atomic checkpoint was written and the WAL truncated.
    Checkpoint,
    /// Crash recovery loaded a checkpoint and replayed the WAL tail.
    Recover,
    /// The network server accepted (and admitted) a client connection.
    ServerAccept,
    /// A client completed the protocol handshake (greeting + login).
    ServerHandshake,
    /// The server executed one client statement end to end.
    ServerStatement,
    /// Admission control shed work (`SERVER_BUSY`): a connection over the
    /// backlog bound, or a statement past its admission deadline.
    ServerShed,
    /// The server drained in-flight work and shut down gracefully.
    ServerShutdown,
    /// A replica subscribed to the primary's WAL stream.
    ReplSubscribe,
    /// The primary shipped a WAL byte range (or checkpoint image chunk).
    ReplShip,
    /// A replica (re-)bootstrapped from a checkpoint image.
    ReplBootstrap,
    /// A replica applied a committed statement group from the stream.
    ReplApply,
    /// A replica drained the stream to the primary's durable tip.
    ReplCaughtUp,
    /// A replica was promoted to read-write primary.
    ReplPromote,
    /// The shard coordinator fanned a statement out to its shards.
    ShardScatter,
    /// A shard server executed one read-only fragment for a coordinator.
    ShardFragment,
    /// The coordinator merged per-shard partials into one result.
    ShardGather,
    /// A DML statement was routed to the owning shard(s) by partition key.
    ShardRoute,
    /// A scatter leg failed (dead shard, deadline) — `SHARD_UNAVAILABLE`.
    ShardUnavailable,
    /// A heartbeat probe failed; the shard is suspect but not yet written
    /// off (consecutive failures below the degrade threshold).
    HaSuspect,
    /// Consecutive probe failures crossed the threshold: the shard primary
    /// is considered dead, reads degrade to its replica (`SHARD_DEGRADED`).
    HaDegraded,
    /// The coordinator sent `PROMOTE` to a degraded shard's replica.
    HaPromote,
    /// Promotion confirmed: the replica reports `role=primary` and the
    /// shard's address was swapped — the cluster is healthy again.
    HaRecovered,
    /// A statement was compiled, verified and optimized into the plan
    /// cache (a cache miss, or the first PREPARE).
    PlanCompile,
    /// A statement was answered from the plan cache — no recompile, the
    /// cached program's premises re-checked sound.
    PlanCacheHit,
}

impl EventKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Instr => "instr",
            EventKind::RecyclerHit => "recycler.hit",
            EventKind::RecyclerAdmit => "recycler.admit",
            EventKind::RecyclerEvict => "recycler.evict",
            EventKind::RecyclerInvalidate => "recycler.invalidate",
            EventKind::CrackPartition => "crack.partition",
            EventKind::CrackMerge => "crack.merge",
            EventKind::WalAppend => "wal.append",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Recover => "recover",
            EventKind::ServerAccept => "server.accept",
            EventKind::ServerHandshake => "server.handshake",
            EventKind::ServerStatement => "server.statement",
            EventKind::ServerShed => "server.shed",
            EventKind::ServerShutdown => "server.shutdown",
            EventKind::ReplSubscribe => "repl.subscribe",
            EventKind::ReplShip => "repl.ship",
            EventKind::ReplBootstrap => "repl.bootstrap",
            EventKind::ReplApply => "repl.apply",
            EventKind::ReplCaughtUp => "repl.caughtup",
            EventKind::ReplPromote => "repl.promote",
            EventKind::ShardScatter => "shard.scatter",
            EventKind::ShardFragment => "shard.fragment",
            EventKind::ShardGather => "shard.gather",
            EventKind::ShardRoute => "shard.route",
            EventKind::ShardUnavailable => "shard.unavailable",
            EventKind::HaSuspect => "ha.suspect",
            EventKind::HaDegraded => "ha.degraded",
            EventKind::HaPromote => "ha.promote",
            EventKind::HaRecovered => "ha.recovered",
            EventKind::PlanCompile => "plan.compile",
            EventKind::PlanCacheHit => "plan.cache_hit",
        }
    }

    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "instr" => EventKind::Instr,
            "recycler.hit" => EventKind::RecyclerHit,
            "recycler.admit" => EventKind::RecyclerAdmit,
            "recycler.evict" => EventKind::RecyclerEvict,
            "recycler.invalidate" => EventKind::RecyclerInvalidate,
            "crack.partition" => EventKind::CrackPartition,
            "crack.merge" => EventKind::CrackMerge,
            "wal.append" => EventKind::WalAppend,
            "checkpoint" => EventKind::Checkpoint,
            "recover" => EventKind::Recover,
            "server.accept" => EventKind::ServerAccept,
            "server.handshake" => EventKind::ServerHandshake,
            "server.statement" => EventKind::ServerStatement,
            "server.shed" => EventKind::ServerShed,
            "server.shutdown" => EventKind::ServerShutdown,
            "repl.subscribe" => EventKind::ReplSubscribe,
            "repl.ship" => EventKind::ReplShip,
            "repl.bootstrap" => EventKind::ReplBootstrap,
            "repl.apply" => EventKind::ReplApply,
            "repl.caughtup" => EventKind::ReplCaughtUp,
            "repl.promote" => EventKind::ReplPromote,
            "shard.scatter" => EventKind::ShardScatter,
            "shard.fragment" => EventKind::ShardFragment,
            "shard.gather" => EventKind::ShardGather,
            "shard.route" => EventKind::ShardRoute,
            "shard.unavailable" => EventKind::ShardUnavailable,
            "ha.suspect" => EventKind::HaSuspect,
            "ha.degraded" => EventKind::HaDegraded,
            "ha.promote" => EventKind::HaPromote,
            "ha.recovered" => EventKind::HaRecovered,
            "plan.compile" => EventKind::PlanCompile,
            "plan.cache_hit" => EventKind::PlanCacheHit,
            _ => return None,
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One profiler event. Fields that do not apply to a kind are zero / empty;
/// the JSON line always carries the full schema so consumers never branch
/// on optional keys.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// Instruction index within the executed plan (`-1` for events not tied
    /// to a plan instruction, e.g. recycler evictions).
    pub instr: i64,
    /// The MonetDB-style `module.function` opcode, or the component label
    /// for non-instruction events.
    pub op: String,
    /// Rendered arguments (short form, e.g. `x3, 1927`).
    pub args: String,
    /// Worker thread that ran the instruction (0 for the serial engine).
    pub worker: usize,
    /// Start offset from the run's t0, in nanoseconds.
    pub start_ns: u64,
    /// Wall time of this event, in nanoseconds.
    pub dur_ns: u64,
    /// Input BAT rows (summed over BAT-valued arguments; the rows scanned,
    /// once, for a fused pipeline over aligned columns).
    pub rows_in: u64,
    /// Result BAT rows (summed over BAT-valued results; the sink's rows for a
    /// fused pipeline).
    pub rows_out: u64,
    /// The planner's compile-time estimate of `rows_out` (`-1` when the
    /// instruction was not estimated — no statistics, or a non-plan
    /// event). `TRACE` diffs this against the measured `rows_out`.
    pub est_rows: i64,
    /// Result heap bytes (summed over BAT-valued results).
    pub bytes_out: u64,
    /// Whether the result came from the recycler instead of being computed.
    pub recycled: bool,
}

impl Default for TraceEvent {
    fn default() -> TraceEvent {
        TraceEvent {
            kind: EventKind::Instr,
            instr: -1,
            op: String::new(),
            args: String::new(),
            worker: 0,
            start_ns: 0,
            dur_ns: 0,
            rows_in: 0,
            rows_out: 0,
            est_rows: -1,
            bytes_out: 0,
            recycled: false,
        }
    }
}

impl TraceEvent {
    /// One JSON object, keys in schema order. This exact shape is pinned by
    /// `tests/golden/` — extending it is a schema change and must update the
    /// golden files and `validate_trace_line` together.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"instr\":{},\"op\":\"{}\",\"args\":\"{}\",\
             \"worker\":{},\"start_ns\":{},\"dur_ns\":{},\"rows_in\":{},\
             \"rows_out\":{},\"est_rows\":{},\"bytes_out\":{},\"recycled\":{}}}",
            self.kind,
            self.instr,
            escape_json(&self.op),
            escape_json(&self.args),
            self.worker,
            self.start_ns,
            self.dur_ns,
            self.rows_in,
            self.rows_out,
            self.est_rows,
            self.bytes_out,
            self.recycled
        )
    }
}

/// The unified profile of one plan execution: what the execution core's
/// `ExecStats` folds into — the same counters whichever scheduler, serial
/// or worker pool, drove the run — plus the per-instruction event timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfiledRun {
    /// Engine label: `serial`, `serial+recycler`, or `dataflow`.
    pub engine: String,
    /// Worker threads the run used (1 for the serial engines).
    pub threads: usize,
    /// Instructions actually executed (excluding recycled ones and the
    /// `io.result` / `language.pass` markers).
    pub executed: u64,
    /// Instructions answered from the recycler.
    pub recycled: u64,
    /// BAT slots released before end of program.
    pub released_early: u64,
    /// Peak number of BAT-valued variables live at once.
    pub peak_live_bats: u64,
    /// Peak instructions in flight at once (1 for the serial engines).
    pub max_inflight: u64,
    /// Wall time of the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// The per-instruction timeline (plus recycler/cracker events routed
    /// through this run).
    pub events: Vec<TraceEvent>,
}

impl ProfiledRun {
    pub fn new(engine: impl Into<String>, threads: usize) -> ProfiledRun {
        ProfiledRun {
            engine: engine.into(),
            threads,
            max_inflight: 1,
            ..ProfiledRun::default()
        }
    }

    /// The run-summary JSON line (kind `run`), emitted ahead of the events.
    pub fn header_json(&self) -> String {
        format!(
            "{{\"kind\":\"run\",\"engine\":\"{}\",\"threads\":{},\"executed\":{},\
             \"recycled\":{},\"released_early\":{},\"peak_live_bats\":{},\
             \"max_inflight\":{},\"elapsed_ns\":{},\"events\":{}}}",
            escape_json(&self.engine),
            self.threads,
            self.executed,
            self.recycled,
            self.released_early,
            self.peak_live_bats,
            self.max_inflight,
            self.elapsed_ns,
            self.events.len()
        )
    }

    /// The whole run as JSON lines: the `run` header, then one line per
    /// event, each `\n`-terminated.
    pub fn to_json_lines(&self) -> String {
        let mut out = self.header_json();
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Zero every wall-clock field (run and events) so the serialization is
    /// deterministic — the golden-file tests compare this form.
    pub fn zero_timestamps(&mut self) {
        self.elapsed_ns = 0;
        for e in &mut self.events {
            e.start_ns = 0;
            e.dur_ns = 0;
        }
    }

    /// Append the run to `path` as JSON lines. The full block goes through
    /// one `write` call, so concurrent appenders do not interleave; the
    /// [`FlushGuard`] flushes again on drop so a panic between the write
    /// and the close still leaves complete lines behind.
    pub fn append_to_path(&self, path: &str) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut guard = FlushGuard::new(f);
        guard.write_all(self.to_json_lines().as_bytes())?;
        guard.finish()
    }

    /// Export to the file named by `MAMMOTH_TRACE`, when set. Returns
    /// whether an export happened; I/O errors are reported, not panicked.
    pub fn export_env(&self) -> std::io::Result<bool> {
        match std::env::var(TRACE_ENV) {
            Ok(path) if !path.is_empty() => {
                self.append_to_path(&path)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// A file wrapper that flushes on drop. Trace sinks are append-only side
/// channels: losing buffered bytes on an early return or panic would leave
/// a silently truncated trace, so the drop path flushes best-effort while
/// [`FlushGuard::finish`] reports errors to callers that care.
pub struct FlushGuard {
    file: Option<std::fs::File>,
}

impl FlushGuard {
    pub fn new(file: std::fs::File) -> FlushGuard {
        FlushGuard { file: Some(file) }
    }

    pub fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file
            .as_mut()
            .expect("guard not finished")
            .write_all(bytes)
    }

    /// Flush explicitly, consuming the guard and reporting the error.
    pub fn finish(mut self) -> std::io::Result<()> {
        match self.file.take() {
            Some(mut f) => f.flush(),
            None => Ok(()),
        }
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Some(mut f) = self.file.take() {
            let _ = f.flush();
        }
    }
}

/// A daemon's lifecycle-event buffer: events from any thread are stamped
/// against one timestamp base, and the whole buffer leaves as a single run
/// through [`ProfiledRun::export_env`] when the daemon shuts down.
///
/// Whether there is anywhere for the buffer to leave *to* is decided once,
/// at construction: with [`TRACE_ENV`] unset nothing would ever drain it,
/// so [`Recorder::record`] keeps nothing and a long-lived daemon's memory
/// does not grow by an event per statement.
pub struct Recorder {
    t0: Instant,
    /// `None` when no sink was named at construction.
    events: Option<Mutex<Vec<TraceEvent>>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        let sink = std::env::var(TRACE_ENV).is_ok_and(|path| !path.is_empty());
        Recorder {
            t0: Instant::now(),
            events: sink.then(|| Mutex::new(Vec::new())),
        }
    }
}

impl Recorder {
    /// Whether recorded events go anywhere. Callers that must build an
    /// event's `args` string ask first and skip the work when not.
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Events recorded and not yet flushed.
    pub fn pending(&self) -> usize {
        // a push leaves the buffer valid, so a poisoned lock is still usable
        self.events
            .as_ref()
            .map_or(0, |e| e.lock().unwrap_or_else(|e| e.into_inner()).len())
    }

    /// Record one event of `kind` (its `op` is the kind's name) that began
    /// at `started` and ends now. Does nothing without a sink.
    pub fn record(
        &self,
        kind: EventKind,
        worker: usize,
        args: impl Into<String>,
        started: Instant,
        rows: u64,
    ) {
        let Some(events) = &self.events else { return };
        let ev = TraceEvent {
            kind,
            op: kind.as_str().into(),
            args: args.into(),
            worker,
            start_ns: started.duration_since(self.t0).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
            rows_out: rows,
            ..TraceEvent::default()
        };
        events.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }

    /// Fold everything recorded so far into one `engine` run — `executed`
    /// counts the events of the `counted` kinds — and export it (a no-op
    /// returning `false` when `MAMMOTH_TRACE` is unset).
    pub fn flush(
        &self,
        engine: &str,
        threads: usize,
        counted: &[EventKind],
    ) -> std::io::Result<bool> {
        let Some(events) = &self.events else {
            return Ok(false);
        };
        let events = std::mem::take(&mut *events.lock().unwrap_or_else(|e| e.into_inner()));
        let mut run = ProfiledRun::new(engine, threads);
        run.executed = events.iter().filter(|e| counted.contains(&e.kind)).count() as u64;
        run.elapsed_ns = self.t0.elapsed().as_nanos() as u64;
        run.events = events;
        run.export_env()
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Schema validation (used by the `tracecheck` binary and the CI gate).
// ---------------------------------------------------------------------------

/// A minimal JSON scalar, as far as the trace schema needs.
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Parse one flat JSON object (no nesting — the trace schema is flat).
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| "not a JSON object".to_string())?;
    let bytes = inner.as_bytes();
    let mut pos = 0usize;
    let mut out: Vec<(String, JsonVal)> = Vec::new();

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && (b[*pos] as char).is_whitespace() {
            *pos += 1;
        }
    }
    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err("expected '\"'".into());
        }
        *pos += 1;
        let mut s = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = inner_slice(b, *pos + 1, 4)?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    s.push(c as char);
                    *pos += 1;
                }
            }
        }
    }
    fn inner_slice(b: &[u8], start: usize, len: usize) -> Result<&str, String> {
        if start + len > b.len() {
            return Err("truncated escape".into());
        }
        std::str::from_utf8(&b[start..start + len]).map_err(|_| "bad utf8".into())
    }

    loop {
        skip_ws(bytes, &mut pos);
        if pos >= bytes.len() {
            break;
        }
        let key = parse_string(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        let val = match bytes.get(pos) {
            Some(b'"') => JsonVal::Str(parse_string(bytes, &mut pos)?),
            Some(b't') if inner.get(pos..pos + 4) == Some("true") => {
                pos += 4;
                JsonVal::Bool(true)
            }
            Some(b'f') if inner.get(pos..pos + 5) == Some("false") => {
                pos += 5;
                JsonVal::Bool(false)
            }
            Some(b'n') if inner.get(pos..pos + 4) == Some("null") => {
                pos += 4;
                JsonVal::Null
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = pos;
                pos += 1;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_digit()
                        || bytes[pos] == b'.'
                        || bytes[pos] == b'e'
                        || bytes[pos] == b'E'
                        || bytes[pos] == b'+'
                        || bytes[pos] == b'-')
                {
                    pos += 1;
                }
                let text = &inner[start..pos];
                JsonVal::Num(text.parse().map_err(|_| format!("bad number {text:?}"))?)
            }
            _ => return Err(format!("bad value for key {key:?}")),
        };
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        out.push((key, val));
        skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            None => break,
            _ => return Err("expected ',' between members".into()),
        }
    }
    Ok(out)
}

fn require<'a>(
    fields: &'a [(String, JsonVal)],
    key: &str,
    line_kind: &str,
) -> Result<&'a JsonVal, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{line_kind} line missing key {key:?}"))
}

fn require_num(fields: &[(String, JsonVal)], key: &str, line_kind: &str) -> Result<f64, String> {
    match require(fields, key, line_kind)? {
        JsonVal::Num(n) => Ok(*n),
        other => Err(format!(
            "{line_kind} key {key:?} must be a number, got {other:?}"
        )),
    }
}

fn require_str(fields: &[(String, JsonVal)], key: &str, line_kind: &str) -> Result<(), String> {
    match require(fields, key, line_kind)? {
        JsonVal::Str(_) => Ok(()),
        other => Err(format!(
            "{line_kind} key {key:?} must be a string, got {other:?}"
        )),
    }
}

fn require_bool(fields: &[(String, JsonVal)], key: &str, line_kind: &str) -> Result<(), String> {
    match require(fields, key, line_kind)? {
        JsonVal::Bool(_) => Ok(()),
        other => Err(format!(
            "{line_kind} key {key:?} must be a bool, got {other:?}"
        )),
    }
}

const RUN_KEYS: &[&str] = &[
    "kind",
    "engine",
    "threads",
    "executed",
    "recycled",
    "released_early",
    "peak_live_bats",
    "max_inflight",
    "elapsed_ns",
    "events",
];

const EVENT_KEYS: &[&str] = &[
    "kind",
    "instr",
    "op",
    "args",
    "worker",
    "start_ns",
    "dur_ns",
    "rows_in",
    "rows_out",
    "est_rows",
    "bytes_out",
    "recycled",
];

/// Validate one trace line against the schema. Returns the line's kind
/// (`"run"` or an [`EventKind`] name) on success.
pub fn validate_trace_line(line: &str) -> Result<String, String> {
    let fields = parse_flat_object(line)?;
    let kind = match require(&fields, "kind", "trace")? {
        JsonVal::Str(s) => s.clone(),
        other => return Err(format!("key \"kind\" must be a string, got {other:?}")),
    };
    if kind == "run" {
        require_str(&fields, "engine", "run")?;
        for key in &[
            "threads",
            "executed",
            "recycled",
            "released_early",
            "peak_live_bats",
            "max_inflight",
            "elapsed_ns",
            "events",
        ] {
            require_num(&fields, key, "run")?;
        }
        for (k, _) in &fields {
            if !RUN_KEYS.contains(&k.as_str()) {
                return Err(format!("run line has unknown key {k:?} (schema drift)"));
            }
        }
        return Ok(kind);
    }
    if EventKind::parse(&kind).is_none() {
        return Err(format!("unknown event kind {kind:?}"));
    }
    require_str(&fields, "op", "event")?;
    require_str(&fields, "args", "event")?;
    require_bool(&fields, "recycled", "event")?;
    for key in &[
        "instr",
        "worker",
        "start_ns",
        "dur_ns",
        "rows_in",
        "rows_out",
        "est_rows",
        "bytes_out",
    ] {
        require_num(&fields, key, "event")?;
    }
    for (k, _) in &fields {
        if !EVENT_KEYS.contains(&k.as_str()) {
            return Err(format!("event line has unknown key {k:?} (schema drift)"));
        }
    }
    Ok(kind)
}

/// Validate a whole JSON-lines trace document. Returns `(runs, events)`
/// counts; empty lines are ignored.
pub fn validate_trace(text: &str) -> Result<(usize, usize), String> {
    let mut runs = 0usize;
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kind = validate_trace_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if kind == "run" {
            runs += 1;
        } else {
            events += 1;
        }
    }
    Ok((runs, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> ProfiledRun {
        let mut run = ProfiledRun::new("serial", 1);
        run.executed = 2;
        run.elapsed_ns = 100;
        run.events = vec![
            TraceEvent {
                instr: 0,
                op: "sql.bind".into(),
                args: "\"t\", \"a\"".into(),
                dur_ns: 10,
                rows_out: 4,
                bytes_out: 32,
                ..TraceEvent::default()
            },
            TraceEvent {
                instr: 1,
                op: "aggr.count".into(),
                args: "x0".into(),
                start_ns: 12,
                dur_ns: 5,
                rows_in: 4,
                ..TraceEvent::default()
            },
        ];
        run
    }

    #[test]
    fn json_roundtrips_through_validator() {
        let run = sample_run();
        let text = run.to_json_lines();
        let (runs, events) = validate_trace(&text).unwrap();
        assert_eq!((runs, events), (1, 2));
        for line in text.lines() {
            validate_trace_line(line).unwrap();
        }
    }

    #[test]
    fn validator_rejects_schema_drift() {
        assert!(validate_trace_line("{\"kind\":\"nope\"}").is_err());
        assert!(validate_trace_line("not json").is_err());
        // missing a required key
        assert!(validate_trace_line("{\"kind\":\"instr\",\"instr\":0}").is_err());
        // unknown extra key
        let mut line = sample_run().events[0].to_json();
        line.insert_str(line.len() - 1, ",\"extra\":1");
        assert!(validate_trace_line(&line).is_err());
        // wrong type
        let bad = "{\"kind\":\"run\",\"engine\":7,\"threads\":1,\"executed\":0,\
                   \"recycled\":0,\"released_early\":0,\"peak_live_bats\":0,\
                   \"max_inflight\":1,\"elapsed_ns\":0,\"events\":0}";
        assert!(validate_trace_line(bad).is_err());
    }

    #[test]
    fn zero_timestamps_makes_serialization_deterministic() {
        let mut a = sample_run();
        let mut b = sample_run();
        b.elapsed_ns = 9999;
        b.events[0].dur_ns = 77;
        b.events[1].start_ns = 1;
        a.zero_timestamps();
        b.zero_timestamps();
        assert_eq!(a.to_json_lines(), b.to_json_lines());
    }

    #[test]
    fn escapes_strings() {
        let e = TraceEvent {
            op: "a\"b\\c\n".into(),
            ..TraceEvent::default()
        };
        let line = e.to_json();
        validate_trace_line(&line).unwrap();
        assert!(line.contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn env_export_appends() {
        let dir = std::env::temp_dir().join(format!("mammoth-trace-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let run = sample_run();
        run.append_to_path(dir.to_str().unwrap()).unwrap();
        run.append_to_path(dir.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        let (runs, events) = validate_trace(&text).unwrap();
        assert_eq!((runs, events), (2, 4));
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn event_kind_names_roundtrip() {
        for k in [
            EventKind::Instr,
            EventKind::RecyclerHit,
            EventKind::RecyclerAdmit,
            EventKind::RecyclerEvict,
            EventKind::RecyclerInvalidate,
            EventKind::CrackPartition,
            EventKind::CrackMerge,
            EventKind::WalAppend,
            EventKind::Checkpoint,
            EventKind::Recover,
            EventKind::ServerAccept,
            EventKind::ServerHandshake,
            EventKind::ServerStatement,
            EventKind::ServerShed,
            EventKind::ServerShutdown,
            EventKind::ReplSubscribe,
            EventKind::ReplShip,
            EventKind::ReplBootstrap,
            EventKind::ReplApply,
            EventKind::ReplCaughtUp,
            EventKind::ReplPromote,
            EventKind::ShardScatter,
            EventKind::ShardFragment,
            EventKind::ShardGather,
            EventKind::ShardRoute,
            EventKind::ShardUnavailable,
            EventKind::HaSuspect,
            EventKind::HaDegraded,
            EventKind::HaPromote,
            EventKind::HaRecovered,
            EventKind::PlanCompile,
            EventKind::PlanCacheHit,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("run"), None);
    }
}
