//! The closed-loop driver, latency summaries and the in-memory span log
//! shared by all workloads.

use crate::gen::{Generator, Reply, Stmt};
use crate::stats::{percentile, quantile};
use mammoth_server::Response;
use mammoth_sql::QueryOutput;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

impl From<QueryOutput> for Reply {
    fn from(out: QueryOutput) -> Reply {
        match out {
            QueryOutput::Table { rows, .. } => Reply::Rows(rows),
            QueryOutput::Affected(n) => Reply::Affected(n as u64),
            QueryOutput::Ok => Reply::Ok,
        }
    }
}

impl From<Response> for Reply {
    fn from(r: Response) -> Reply {
        match r {
            Response::Table { rows, .. } => Reply::Rows(rows),
            Response::Affected(n) => Reply::Affected(n),
            Response::Ok => Reply::Ok,
        }
    }
}

/// One way of handing a statement to the program: a session, a wire
/// client, the shard coordinator, or one of the trace's inner levels.
pub type Target<'a> = dyn FnMut(&Stmt) -> Result<Reply, String> + 'a;

/// How long a closed loop runs. Both stop at a block boundary only, so
/// the class mix of what was measured is exact.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// At least this long (the driver's `--seconds`), ending on a round
    /// boundary ([`Generator::blocks_per_round`]).
    Seconds(f64),
    /// Exactly this many blocks: identical work on every run, which is
    /// what lets counts repeat exactly (tests, `--quick`, trace replays).
    Blocks(usize),
}

impl Budget {
    /// The share of a time budget each of `passes` equal passes gets; a
    /// block count is per pass already.
    pub fn split(self, passes: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / passes as f64),
            blocks => blocks,
        }
    }
}

/// One round of a closed loop: a sample range and the wall time it took.
#[derive(Debug, Clone, Copy)]
struct Round {
    start: usize,
    end: usize,
    wall_ns: u64,
}

/// Client-observed results of one closed loop.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub lat_ns: Vec<u64>,
    pub class: Vec<u8>,
    /// Errors, refusals and oracle mismatches.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub blocks: usize,
    rounds: Vec<Round>,
}

/// Fewest statements a chunk's percentiles are taken over.
const MIN_CHUNK_SAMPLES: usize = 40;

/// Run-level figures that shrug off a noisy host: the run is cut into
/// rounds and chunks, each gives one value, and the metric is the decile
/// of those values on the *undisturbed* side — the ninth decile of the
/// rates, the first of the latencies. Interference from a neighbouring VM
/// or from the scheduler only ever slows a chunk down, and it comes in
/// bursts: measured on `wire_prepared`, the median over chunks moved 14 %
/// (p50) and 28 % (p95) between the quartiles of twelve runs, the first
/// decile 4 % and 7 %. A change to the program moves every chunk, the
/// good ones included, so the decile still sees it.
#[derive(Debug, Default, Clone)]
pub struct Steady {
    /// Statements per second of each round, one client's view.
    pub round_rates: Vec<f64>,
    /// Latency percentiles in microseconds of each chunk (a run of whole
    /// rounds of one client).
    pub p50_us: Vec<f64>,
    pub p95_us: Vec<f64>,
    pub p99_us: Vec<f64>,
}

impl Steady {
    /// Statements per second of one client: ninth decile over rounds.
    pub fn rate(&self) -> f64 {
        quantile(&self.round_rates, 0.9)
    }

    /// `(p50, p95, p99)` in microseconds: first decile over chunks.
    pub fn latencies_us(&self) -> (f64, f64, f64) {
        let d1 = |v: &[f64]| quantile(v, 0.1);
        (d1(&self.p50_us), d1(&self.p95_us), d1(&self.p99_us))
    }

    pub fn merge(&mut self, other: Steady) {
        self.round_rates.extend(other.round_rates);
        self.p50_us.extend(other.p50_us);
        self.p95_us.extend(other.p95_us);
        self.p99_us.extend(other.p99_us);
    }
}

impl Samples {
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Append another loop's samples (another client, or a later pass).
    pub fn merge(&mut self, other: Samples) {
        let shift = self.lat_ns.len();
        self.rounds.extend(other.rounds.iter().map(|r| Round {
            start: r.start + shift,
            end: r.end + shift,
            ..*r
        }));
        self.lat_ns.extend(other.lat_ns);
        self.class.extend(other.class);
        self.failed += other.failed;
        self.blocks += other.blocks;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Count a failure: a statement's, or one a final audit found.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// The per-round and per-chunk figures of one client's loop (call it
    /// before merging clients: a chunk must not straddle two of them).
    pub fn steady(&self) -> Steady {
        let mut out = Steady {
            round_rates: self
                .rounds
                .iter()
                .map(|r| (r.end - r.start) as f64 * 1e9 / r.wall_ns as f64)
                .collect(),
            ..Steady::default()
        };
        // up to a hundred chunks, each of whole rounds and at least
        // MIN_CHUNK_SAMPLES statements
        let per_round = (self.lat_ns.len() / self.rounds.len().max(1)).max(1);
        let per_chunk = (self.rounds.len() / 100)
            .max(MIN_CHUNK_SAMPLES.div_ceil(per_round))
            .max(1);
        // (a run shorter than one chunk is one chunk; a trailing partial
        // chunk is dropped)
        let per_chunk = per_chunk.min(self.rounds.len().max(1));
        for chunk in self.rounds.chunks_exact(per_chunk) {
            let (start, end) = (chunk[0].start, chunk[chunk.len() - 1].end);
            let mut v = self.lat_ns[start..end].to_vec();
            v.sort_unstable();
            out.p50_us.push(percentile(&v, 0.50) as f64 / 1e3);
            out.p95_us.push(percentile(&v, 0.95) as f64 / 1e3);
            out.p99_us.push(percentile(&v, 0.99) as f64 / 1e3);
        }
        out
    }

    /// Median latency in microseconds of one class (0 when it never ran).
    pub fn class_p50_us(&self, class: usize) -> f64 {
        let mut v: Vec<u64> = self
            .lat_ns
            .iter()
            .zip(&self.class)
            .filter(|(_, &c)| c as usize == class)
            .map(|(&l, _)| l)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        percentile(&v, 0.5) as f64 / 1e3
    }
}

/// Run `gen`'s statements against `target` one at a time, waiting for each
/// reply (a closed loop), checking every reply against the oracle.
pub fn drive(gen: &mut dyn Generator, target: &mut Target, budget: Budget) -> Samples {
    let mut out = Samples::default();
    let per_round = gen.blocks_per_round();
    let t0 = Instant::now();
    let (mut round_start, mut round_t0) = (0, t0);
    loop {
        for stmt in gen.next_block() {
            let t = Instant::now();
            let res = target(&stmt);
            out.lat_ns.push(t.elapsed().as_nanos() as u64);
            out.class.push(stmt.class as u8);
            match res {
                Ok(reply) if stmt.check(&reply) => {}
                Ok(reply) => out.fail(format!(
                    "oracle mismatch on {:?}: expected {:?}, got {:?}",
                    stmt.call,
                    brief(&format!("{:?}", stmt.expect)),
                    brief(&format!("{reply:?}"))
                )),
                Err(e) => out.fail(format!("{:?} failed: {e}", stmt.call)),
            }
        }
        out.blocks += 1;
        let round_over = out.blocks % per_round == 0;
        if round_over {
            let now = Instant::now();
            out.rounds.push(Round {
                start: round_start,
                end: out.lat_ns.len(),
                wall_ns: (now - round_t0).as_nanos() as u64,
            });
            (round_start, round_t0) = (out.lat_ns.len(), now);
        }
        let done = match budget {
            Budget::Seconds(s) => round_over && t0.elapsed().as_secs_f64() >= s,
            Budget::Blocks(n) => out.blocks >= n,
        };
        if done {
            return out;
        }
    }
}

fn brief(s: &str) -> String {
    if s.len() <= 300 {
        s.to_string()
    } else {
        format!("{}…", s.chars().take(300).collect::<String>())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Start `VmHWM` again from the current resident set, so each set-up's peak
/// is its own. Where the kernel refuses, the readings are the running
/// maximum instead, which the median over set-ups still summarizes.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The statement this span belongs to (spans of one statement share
    /// it across replay levels).
    pub stmt: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `-1` for a root.
    pub parent: i64,
}

/// The in-memory span log of a traced pass; written out once, at exit.
pub struct Spans {
    t0: Instant,
    pub rows: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            t0: Instant::now(),
            rows: Vec::new(),
        }
    }
}

impl Spans {
    /// Time `f` as a span and return its result and the span's index.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        stmt: u32,
        parent: i64,
        f: impl FnOnce() -> T,
    ) -> (T, i64) {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.rows.push(Span {
            name,
            stmt,
            start_ns: start,
            end_ns: end,
            parent,
        });
        (out, self.rows.len() as i64 - 1)
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, stmt: u32, parent: i64) -> i64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.rows.push(Span {
            name,
            stmt,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.rows.len() as i64 - 1
    }

    pub fn close(&mut self, id: i64) {
        self.rows[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Add a span measured elsewhere (the counting Vfs times its own
    /// calls), ending now.
    pub fn add_measured(&mut self, name: &'static str, stmt: u32, parent: i64, dur_ns: u64) {
        let end = self.t0.elapsed().as_nanos() as u64;
        self.rows.push(Span {
            name,
            stmt,
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent,
        });
    }

    fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .rows
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Median duration in microseconds of the spans called `name`
    /// (0 when there are none).
    pub fn p50_us(&self, name: &str) -> f64 {
        let v = self.durations(name);
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.5) as f64 / 1e3
        }
    }

    /// Total time in seconds inside the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.rows.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"stmt\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.stmt, s.start_ns, s.end_ns, s.parent
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_summarize() {
        let mut spans = Spans::default();
        let root = spans.open("stmt", 0, -1);
        let (v, child) = spans.record("parse", 0, root, || 7);
        spans.close(root);
        assert_eq!(v, 7);
        assert_eq!(spans.rows[child as usize].parent, root);
        let (r, c) = (&spans.rows[root as usize], &spans.rows[child as usize]);
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(spans.p50_us("absent"), 0.0);
        assert!(spans.total_s("stmt") >= spans.total_s("parse"));
    }

    #[test]
    fn class_medians_ignore_other_classes() {
        let s = Samples {
            lat_ns: vec![1000, 9000, 3000, 5000],
            class: vec![0, 1, 0, 0],
            ..Samples::default()
        };
        assert_eq!(s.class_p50_us(0), 3.0);
        assert_eq!(s.class_p50_us(1), 9.0);
        assert_eq!(s.class_p50_us(2), 0.0);
    }

    #[test]
    fn steady_figures_come_from_rounds_and_chunks() {
        // 20 rounds of 40 statements, 1 ms each; round r's latencies are
        // (r+1) us .. (r+1) us + 39 ns
        let mut s = Samples::default();
        for r in 0..20u64 {
            s.lat_ns.extend((0..40).map(|i| 1000 * (r + 1) + i));
            s.class.extend([0; 40]);
            s.rounds.push(Round {
                start: 40 * r as usize,
                end: 40 * r as usize + 40,
                wall_ns: 1_000_000,
            });
        }
        let st = s.steady();
        assert_eq!(st.round_rates, vec![40_000.0; 20]);
        assert_eq!(st.rate(), 40_000.0);
        // a round already holds MIN_CHUNK_SAMPLES, so each is a chunk
        assert_eq!(st.p50_us.len(), 20);
        assert_eq!((st.p50_us[0], st.p95_us[19]), (1.019, 20.037));
        // first decile of 20 chunk values: the second smallest
        assert_eq!(st.latencies_us().0, 2.019);
        // half as many statements per round: chunks pair rounds up
        let mut thin = s.clone();
        for r in &mut thin.rounds {
            r.end = r.start + 20;
        }
        thin.lat_ns.truncate(20 * 20);
        for (i, r) in thin.rounds.iter_mut().enumerate() {
            (r.start, r.end) = (20 * i, 20 * i + 20);
        }
        assert_eq!(thin.steady().p50_us.len(), 10);
        // a run shorter than one chunk is one chunk
        thin.rounds.truncate(1);
        assert_eq!(thin.steady().p50_us.len(), 1);
        // merging keeps the second client's rounds pointing at its samples
        let mut both = s.clone();
        both.merge(s);
        assert_eq!(both.rounds[20].start, 800);
        assert_eq!(both.attempted(), 1600);
    }
}
