//! The recycler: a cache of materialized intermediates (§6.1).
//!
//! "The operator-at-a-time paradigm with full materialization of all
//! intermediates pursued in MonetDB provides a hook for easier materialized
//! view capturing. The results of all relational operators can be
//! maintained in a cache, which is also aware of their dependencies. Then,
//! traditional cache replacement policies can be applied to avoid double
//! work, cherry picking the cache for previously derived results."
//!
//! Two halves, one module. The [`Recycler`] is the cache: entries keyed by
//! an instruction's *provenance signature*, each remembering which base
//! columns it (transitively) depends on, so updates invalidate exactly the
//! affected intermediates. Range selections additionally support
//! *subsumption*: a query `σ[5,10](c)` can be computed from a cached
//! `σ[0,20](c)` by refining the smaller intermediate instead of rescanning
//! the base column.
//!
//! [`run_recycling`] is the scheduler that fills and reads it: like
//! `mammoth-parallel`, a scheduler over `mammoth_mal::frame` that adds no
//! execution semantics. It steps a compiled MAL plan in program order and,
//! before each step, looks the instruction's result slots up under their
//! signature ([`signature`] — the key's only producer); what a step
//! computes is admitted. The plans worth running through it are *unfused*
//! ones (`compile_select` + `default_pipeline()`): the candidate lists and
//! fetched columns between a filter and its aggregate, which
//! `fuse_pipeline` removes, are exactly what the next statement reuses. No
//! SQL session and no daemon links this crate; whoever drives it calls
//! [`Recycler::invalidate`] after a write.

#![deny(unsafe_code)]

use mammoth_mal::{
    check_props_enabled, Arg, ExecStats, Frame, Instr, MalValue, OpCode, Program, StepCtx,
};
use mammoth_storage::{Bat, Catalog};
use mammoth_types::{EventKind, ProfiledRun, Result, TraceEvent, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Replacement policies for a full cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Evict the least recently used entry.
    Lru,
    /// Evict the entry with the lowest (saved cost × hits) per byte — the
    /// recycler paper's "benefit" policy.
    BenefitPerByte,
}

/// One cached intermediate.
#[derive(Debug, Clone)]
struct Entry {
    bat: Arc<Bat>,
    bytes: usize,
    /// Base columns this result transitively depends on.
    depends_on: Vec<String>,
    /// What it cost to compute (ns), i.e. what a hit saves.
    cost_ns: u64,
    hits: u64,
    last_used: u64,
}

/// A cached range selection over a base column, kept separately so covering
/// queries can find it.
#[derive(Debug, Clone)]
struct RangeEntry {
    lo: Option<i64>,
    hi: Option<i64>,
    sig: String,
}

/// Counters for the E13 experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecyclerStats {
    pub lookups: u64,
    pub exact_hits: u64,
    pub subsumption_hits: u64,
    pub admissions: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub resident_bytes: usize,
}

/// The intermediate-result cache.
#[derive(Debug)]
pub struct Recycler {
    entries: HashMap<String, Entry>,
    /// column id -> cached ranges over it
    ranges: HashMap<String, Vec<RangeEntry>>,
    capacity_bytes: usize,
    policy: EvictPolicy,
    /// Results cheaper than this (ns) are not worth caching (admission
    /// policy; keeps zero-copy binds from thrashing the budget).
    min_cost_ns: u64,
    clock: u64,
    stats: RecyclerStats,
    /// When on, cache decisions additionally emit [`TraceEvent`]s (drained
    /// by [`Recycler::take_events`]). Off by default: non-profiled paths
    /// pay nothing and nothing accumulates unbounded.
    tracing: bool,
    events: Vec<TraceEvent>,
}

impl Recycler {
    pub fn new(capacity_bytes: usize, policy: EvictPolicy) -> Recycler {
        Recycler {
            entries: HashMap::new(),
            ranges: HashMap::new(),
            capacity_bytes,
            policy,
            min_cost_ns: 0,
            clock: 0,
            stats: RecyclerStats::default(),
            tracing: false,
            events: Vec::new(),
        }
    }

    /// Toggle cache-decision tracing.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.events.clear();
        }
    }

    /// Drain the events recorded since the last call (empty unless
    /// [`Recycler::set_tracing`] enabled tracing).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    fn trace(&mut self, kind: EventKind, what: &str, rows: u64, bytes: u64) {
        if self.tracing {
            self.events.push(TraceEvent {
                kind,
                op: what.to_string(),
                rows_out: rows,
                bytes_out: bytes,
                recycled: kind == EventKind::RecyclerHit,
                ..TraceEvent::default()
            });
        }
    }

    /// Only admit results that cost at least `ns` to compute.
    pub fn with_min_cost_ns(mut self, ns: u64) -> Recycler {
        self.min_cost_ns = ns;
        self
    }

    pub fn stats(&self) -> &RecyclerStats {
        &self.stats
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact-match lookup by instruction signature.
    pub fn lookup(&mut self, sig: &str) -> Option<Arc<Bat>> {
        self.clock += 1;
        self.stats.lookups += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(sig) {
            e.hits += 1;
            e.last_used = clock;
            self.stats.exact_hits += 1;
            let (bat, rows, bytes) = (Arc::clone(&e.bat), e.bat.len() as u64, e.bytes as u64);
            self.trace(EventKind::RecyclerHit, sig, rows, bytes);
            Some(bat)
        } else {
            None
        }
    }

    /// Admit a computed intermediate.
    ///
    /// `depends_on` lists the base columns (e.g. `"lineitem.qty"`) the
    /// result was derived from; `cost_ns` is what computing it cost.
    pub fn admit(
        &mut self,
        sig: impl Into<String>,
        bat: impl Into<Arc<Bat>>,
        depends_on: Vec<String>,
        cost_ns: u64,
    ) {
        let sig = sig.into();
        if cost_ns < self.min_cost_ns {
            return; // too cheap to be worth the budget
        }
        let bat: Arc<Bat> = bat.into();
        let bytes = bat.tail().byte_size().max(1);
        if bytes > self.capacity_bytes {
            return; // larger than the whole cache: never admit
        }
        self.clock += 1;
        while self.resident() + bytes > self.capacity_bytes {
            if !self.evict_one() {
                return;
            }
        }
        self.stats.admissions += 1;
        self.stats.resident_bytes = self.resident() + bytes;
        self.trace(
            EventKind::RecyclerAdmit,
            &sig,
            bat.len() as u64,
            bytes as u64,
        );
        self.entries.insert(
            sig,
            Entry {
                bat,
                bytes,
                depends_on,
                cost_ns,
                hits: 0,
                last_used: self.clock,
            },
        );
    }

    /// Admit a *range selection* `σ[lo,hi](column)` so later covering
    /// queries can subsume it. Bounds are inclusive; `None` = unbounded.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_range(
        &mut self,
        column: &str,
        lo: Option<i64>,
        hi: Option<i64>,
        sig: impl Into<String>,
        bat: impl Into<Arc<Bat>>,
        depends_on: Vec<String>,
        cost_ns: u64,
    ) {
        let sig = sig.into();
        self.admit(sig.clone(), bat, depends_on, cost_ns);
        if self.entries.contains_key(&sig) {
            self.ranges
                .entry(column.to_string())
                .or_default()
                .push(RangeEntry { lo, hi, sig });
        }
    }

    /// Find the smallest cached range over `column` that covers `[lo, hi]`.
    /// Returns the covering intermediate; the caller refines it instead of
    /// scanning the base column.
    pub fn lookup_covering(
        &mut self,
        column: &str,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Option<Arc<Bat>> {
        self.clock += 1;
        self.stats.lookups += 1;
        let covers = |e: &RangeEntry| -> bool {
            let lo_ok = match (e.lo, lo) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => a <= b,
            };
            let hi_ok = match (e.hi, hi) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => a >= b,
            };
            lo_ok && hi_ok
        };
        let list = self.ranges.get(column)?;
        let mut best: Option<(&RangeEntry, usize)> = None;
        for e in list {
            if !covers(e) {
                continue;
            }
            let size = self.entries.get(&e.sig)?.bytes;
            if best.is_none() || size < best.unwrap().1 {
                best = Some((e, size));
            }
        }
        let sig = best?.0.sig.clone();
        let clock = self.clock;
        let e = self.entries.get_mut(&sig)?;
        e.hits += 1;
        e.last_used = clock;
        self.stats.subsumption_hits += 1;
        Some(Arc::clone(&e.bat))
    }

    /// Drop every intermediate that depends on `column` (called by DML).
    pub fn invalidate(&mut self, column: &str) {
        let before = self.entries.len();
        self.entries
            .retain(|_, e| !e.depends_on.iter().any(|d| d == column));
        let sigs: std::collections::HashSet<String> = self.entries.keys().cloned().collect();
        for list in self.ranges.values_mut() {
            list.retain(|r| sigs.contains(&r.sig));
        }
        self.ranges.retain(|_, l| !l.is_empty());
        let dropped = before - self.entries.len();
        self.stats.invalidations += dropped as u64;
        self.stats.resident_bytes = self.resident();
        self.trace(EventKind::RecyclerInvalidate, column, dropped as u64, 0);
    }

    /// Wipe everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ranges.clear();
        self.stats.resident_bytes = 0;
    }

    fn resident(&self) -> usize {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn evict_one(&mut self) -> bool {
        let victim = match self.policy {
            EvictPolicy::Lru => self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone()),
            EvictPolicy::BenefitPerByte => self
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    let ba = (a.cost_ns.saturating_mul(a.hits + 1)) as f64 / a.bytes as f64;
                    let bb = (b.cost_ns.saturating_mul(b.hits + 1)) as f64 / b.bytes as f64;
                    ba.total_cmp(&bb)
                })
                .map(|(k, _)| k.clone()),
        };
        let Some(k) = victim else {
            return false;
        };
        if let Some(e) = self.entries.get(&k) {
            let (rows, bytes) = (e.bat.len() as u64, e.bytes as u64);
            self.trace(EventKind::RecyclerEvict, &k, rows, bytes);
        }
        self.entries.remove(&k);
        for list in self.ranges.values_mut() {
            list.retain(|r| r.sig != k);
        }
        self.stats.evictions += 1;
        true
    }
}

/// Run `prog` in program order, answering every instruction the
/// `recycler` has seen before — same opcode over the same provenance —
/// from its cache, and admitting what had to be computed. Returns the
/// `io.result` values and the run's counters.
pub fn run_recycling(
    catalog: &Catalog,
    prog: &Program,
    recycler: &mut Recycler,
) -> Result<(Vec<MalValue>, ExecStats)> {
    let frame = run(catalog, prog, recycler, false)?;
    Ok((frame.outputs, frame.stats))
}

/// [`run_recycling`] with the profiler on: one [`TraceEvent`] per executed
/// or recycled instruction (hits carry `recycled`), then the cache's own
/// decisions during the run (`recycler.hit` / `.admit` / `.evict`), under
/// the engine label `serial+recycler`.
pub fn run_recycling_profiled(
    catalog: &Catalog,
    prog: &Program,
    recycler: &mut Recycler,
) -> Result<(Vec<MalValue>, ProfiledRun)> {
    recycler.set_tracing(true);
    let frame = run(catalog, prog, recycler, true);
    let decisions = recycler.take_events();
    recycler.set_tracing(false);
    let mut frame = frame?;
    frame.events.extend(decisions);
    let run = frame.stats.fold_into("serial+recycler", frame.events);
    Ok((frame.outputs, run))
}

fn run(
    catalog: &Catalog,
    prog: &Program,
    recycler: &mut Recycler,
    profiled: bool,
) -> Result<Frame> {
    let ctx = StepCtx::new(catalog, prog, check_props_enabled(), profiled)?;
    let mut frame = Frame::new(1);
    frame.reset(prog.nvars());
    // per variable: the signature of the value it holds (`None` when its
    // provenance is unknown) and the base columns that value derives from
    let mut sigs: Vec<Option<String>> = vec![None; prog.nvars()];
    let mut deps: Vec<Vec<String>> = vec![Vec::new(); prog.nvars()];

    for (idx, instr) in prog.instrs.iter().enumerate() {
        if frame.marker(instr)? {
            continue;
        }
        let args = frame.args(instr)?;
        let sig = signature(instr, &sigs);
        let columns = base_columns(instr, &deps);
        let start = Instant::now();
        // every slot is looked up, hit or miss, so the cache's own counters
        // see each one; only a hit on all of them answers the instruction
        let hits = sig.as_deref().and_then(|sig| {
            let slots: Vec<Option<MalValue>> = (0..instr.results.len())
                .map(|slot| recycler.lookup(&slot_sig(sig, slot)).map(MalValue::Bat))
                .collect();
            slots.into_iter().collect::<Option<Vec<MalValue>>>()
        });
        let done = match hits {
            Some(hits) => ctx.finish(0, idx, &args, start, hits, true)?,
            None => {
                let done = ctx.step(0, idx, &args)?;
                for (slot, val) in done.results.iter().enumerate() {
                    if let (Some(sig), MalValue::Bat(b)) = (&sig, val) {
                        let (key, bat) = (slot_sig(sig, slot), Arc::clone(b));
                        recycler.admit(key, bat, columns.clone(), done.cost_ns);
                    }
                }
                done
            }
        };
        for (slot, &rv) in instr.results.iter().enumerate() {
            sigs[rv] = sig.as_deref().map(|s| slot_sig(s, slot));
            deps[rv] = columns.clone();
        }
        frame.commit(instr, done);
    }
    frame.stats.elapsed_ns = ctx.elapsed_ns();
    Ok(frame)
}

/// The provenance signature of what `instr` (not a marker) computes: its
/// opcode over the signatures of its inputs — the text of the whole
/// expression tree down to the `sql.bind`s. `None` when any input's
/// provenance is unknown. The opcode goes in as its derived `Debug`
/// rendering, which holds every field an opcode has (`algebra.select`'s
/// bound inclusivity, a pipeline's whole spec), so two different
/// computations cannot share a key by omission.
fn signature(instr: &Instr, sigs: &[Option<String>]) -> Option<String> {
    let args = instr.args.iter().map(|a| match a {
        Arg::Const(c) => Some(format!("{c:?}")),
        Arg::Var(v) => sigs.get(*v)?.clone(),
        // parameter slots have no provenance — never recycle them
        Arg::Param(_) => None,
    });
    let args: Option<Vec<String>> = args.collect();
    Some(format!("{:?}({})", instr.op, args?.join(",")))
}

/// The key of one result slot of the instruction signed `sig`.
fn slot_sig(sig: &str, slot: usize) -> String {
    format!("{sig}#{slot}")
}

/// The base columns (`table.column`) `instr`'s results derive from: the
/// one a `sql.bind` names, plus those of every variable it reads. These are
/// the names [`Recycler::invalidate`] takes.
fn base_columns(instr: &Instr, deps: &[Vec<String>]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    if let (OpCode::Bind, [Arg::Const(Value::Str(t)), Arg::Const(Value::Str(c)), ..]) =
        (&instr.op, instr.args.as_slice())
    {
        out.push(format!("{t}.{c}"));
    }
    for a in &instr.args {
        if let Arg::Var(v) = a {
            for d in &deps[*v] {
                if !out.contains(d) {
                    out.push(d.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bat(n: usize) -> Bat {
        Bat::from_vec((0..n as i64).collect::<Vec<_>>())
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru);
        assert!(r.lookup("select(t.a, 5)").is_none());
        r.admit("select(t.a, 5)", bat(10), vec!["t.a".into()], 1000);
        let hit = r.lookup("select(t.a, 5)").unwrap();
        assert_eq!(hit.len(), 10);
        assert_eq!(r.stats().exact_hits, 1);
        assert_eq!(r.stats().lookups, 2);
    }

    #[test]
    fn capacity_forces_eviction_lru() {
        // each bat(128) is 1 KiB of i64
        let mut r = Recycler::new(3 * 1024, EvictPolicy::Lru);
        r.admit("a", bat(128), vec![], 1);
        r.admit("b", bat(128), vec![], 1);
        r.admit("c", bat(128), vec![], 1);
        // touch a and c so b is LRU
        r.lookup("a");
        r.lookup("c");
        r.admit("d", bat(128), vec![], 1);
        assert!(r.lookup("b").is_none(), "LRU victim");
        assert!(r.lookup("a").is_some());
        assert!(r.lookup("d").is_some());
        assert_eq!(r.stats().evictions, 1);
    }

    #[test]
    fn benefit_policy_keeps_expensive_entries() {
        let mut r = Recycler::new(2 * 1024, EvictPolicy::BenefitPerByte);
        r.admit("cheap", bat(128), vec![], 10);
        r.admit("costly", bat(128), vec![], 1_000_000);
        r.admit("new", bat(128), vec![], 500);
        assert!(r.lookup("cheap").is_none(), "low benefit evicted first");
        assert!(r.lookup("costly").is_some());
    }

    #[test]
    fn min_cost_admission_policy() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru).with_min_cost_ns(1000);
        r.admit("cheap", bat(8), vec![], 10);
        assert!(r.lookup("cheap").is_none());
        r.admit("worth_it", bat(8), vec![], 5000);
        assert!(r.lookup("worth_it").is_some());
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let mut r = Recycler::new(64, EvictPolicy::Lru);
        r.admit("huge", bat(1000), vec![], 1);
        assert!(r.lookup("huge").is_none());
        assert_eq!(r.stats().admissions, 0);
    }

    #[test]
    fn invalidation_follows_dependencies() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru);
        r.admit("q1", bat(8), vec!["t.a".into()], 1);
        r.admit("q2", bat(8), vec!["t.b".into()], 1);
        r.admit("q3", bat(8), vec!["t.a".into(), "t.b".into()], 1);
        r.invalidate("t.a");
        assert!(r.lookup("q1").is_none());
        assert!(r.lookup("q2").is_some());
        assert!(r.lookup("q3").is_none());
        assert_eq!(r.stats().invalidations, 2);
    }

    #[test]
    fn subsumption_finds_smallest_cover() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru);
        r.admit_range(
            "t.a",
            Some(0),
            Some(100),
            "sig_wide",
            bat(100),
            vec!["t.a".into()],
            1,
        );
        r.admit_range(
            "t.a",
            Some(0),
            Some(20),
            "sig_narrow",
            bat(20),
            vec!["t.a".into()],
            1,
        );
        // covered by both; the narrow one is preferred
        let hit = r.lookup_covering("t.a", Some(5), Some(10)).unwrap();
        assert_eq!(hit.len(), 20);
        assert_eq!(r.stats().subsumption_hits, 1);
        // not covered
        assert!(r.lookup_covering("t.a", Some(5), Some(500)).is_none());
        assert!(r.lookup_covering("t.a", None, Some(10)).is_none());
        // unbounded cache entry covers unbounded query
        r.admit_range(
            "t.a",
            None,
            None,
            "sig_all",
            bat(200),
            vec!["t.a".into()],
            1,
        );
        assert!(r.lookup_covering("t.a", None, Some(10)).is_some());
    }

    #[test]
    fn subsumption_respects_invalidation() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru);
        r.admit_range(
            "t.a",
            Some(0),
            Some(100),
            "s",
            bat(100),
            vec!["t.a".into()],
            1,
        );
        r.invalidate("t.a");
        assert!(r.lookup_covering("t.a", Some(1), Some(2)).is_none());
    }

    #[test]
    fn tracing_emits_cache_events_only_when_enabled() {
        use mammoth_types::EventKind;
        let mut r = Recycler::new(1024, EvictPolicy::Lru);
        r.admit("quiet", bat(8), vec![], 1);
        r.lookup("quiet");
        assert!(r.take_events().is_empty(), "tracing off by default");

        r.set_tracing(true);
        r.admit("a", bat(64), vec!["t.a".into()], 1); // 512 B
        r.admit("b", bat(64), vec!["t.a".into()], 1); // forces evictions
        r.lookup("b");
        r.invalidate("t.a");
        let kinds: Vec<EventKind> = r.take_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::RecyclerAdmit));
        assert!(kinds.contains(&EventKind::RecyclerEvict));
        assert!(kinds.contains(&EventKind::RecyclerHit));
        assert!(kinds.contains(&EventKind::RecyclerInvalidate));
        assert!(r.take_events().is_empty(), "drained");
    }

    fn people() -> Catalog {
        use mammoth_storage::Table;
        use mammoth_types::{ColumnDef, LogicalType, TableSchema};
        let schema = TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32),
            ],
        );
        let mut t = Table::new(schema).unwrap();
        for (n, a) in [
            ("John Wayne", 1907),
            ("Roger Moore", 1927),
            ("Bob Fosse", 1927),
            ("Will Smith", 1968),
        ] {
            t.insert_row(&[Value::Str(n.into()), Value::I32(a)])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.create_table(t).unwrap();
        cat
    }

    fn bind(p: &mut Program, table: &str, column: &str) -> usize {
        let name = |s: &str| Arg::Const(Value::Str(s.into()));
        p.push(OpCode::Bind, vec![name(table), name(column)])[0]
    }

    /// Figure 1's query as a MAL program: select(age, 1927), fetch names.
    fn figure1_program() -> Program {
        use mammoth_algebra::CmpOp;
        let mut p = Program::new();
        let age = bind(&mut p, "people", "age");
        let cands = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(age), Arg::Const(Value::I32(1927))],
        )[0];
        let name = bind(&mut p, "people", "name");
        let out = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(name)])[0];
        p.push_result(&[out]);
        p
    }

    #[test]
    fn scheduler_avoids_double_work() {
        let cat = people();
        let prog = figure1_program();
        let mut rec = Recycler::new(1 << 20, EvictPolicy::Lru);
        let (_, cold) = run_recycling(&cat, &prog, &mut rec).unwrap();
        assert_eq!((cold.executed, cold.recycled), (4, 0));
        let (out, warm) = run_recycling(&cat, &prog, &mut rec).unwrap();
        assert_eq!(
            (warm.executed, warm.recycled),
            (0, 4),
            "whole plan recycled"
        );
        assert_eq!(out[0].as_bat().unwrap().len(), 2);
        // invalidation kills dependent entries: the name bind survives,
        // the age bind, the select and the projection recompute
        rec.invalidate("people.age");
        let (_, after) = run_recycling(&cat, &prog, &mut rec).unwrap();
        assert_eq!((after.executed, after.recycled), (3, 1));
    }

    #[test]
    fn signatures_spell_out_the_whole_opcode_and_stop_at_unknowns() {
        let mut p = Program::new();
        let a = bind(&mut p, "t", "a");
        let bounds = || {
            vec![
                Arg::Var(a),
                Arg::Const(Value::I64(2)),
                Arg::Const(Value::I64(4)),
            ]
        };
        let range = |lo_incl, hi_incl| OpCode::RangeSelect { lo_incl, hi_incl };
        p.push(range(true, true), bounds());
        p.push(range(true, false), bounds());
        p.push(
            OpCode::Slice,
            vec![Arg::Var(a), Arg::Param(0), Arg::Param(1)],
        );
        p.push_result(&[a]);
        let sigs = vec![signature(&p.instrs[0], &[]).map(|s| slot_sig(&s, 0))];
        assert!(sigs[0].as_deref().unwrap().ends_with("#0"), "{sigs:?}");
        let closed = signature(&p.instrs[1], &sigs).unwrap();
        let half_open = signature(&p.instrs[2], &sigs).unwrap();
        assert_ne!(closed, half_open, "same name, same arguments");
        // a parameter slot, an input of unknown provenance
        assert_eq!(signature(&p.instrs[3], &sigs), None);
        assert_eq!(signature(&p.instrs[1], &[None]), None);
        // the rendering docs/MAL.md quotes
        let fig = figure1_program();
        let age = signature(&fig.instrs[0], &[]).map(|s| slot_sig(&s, 0));
        assert_eq!(
            signature(&fig.instrs[1], &[age]).unwrap(),
            r#"ThetaSelect(Eq)(Bind(Str("people"),Str("age"))#0,I32(1927))"#
        );
        assert_eq!(base_columns(&p.instrs[0], &[]), ["t.a"]);
        assert_eq!(base_columns(&p.instrs[1], &[vec!["t.a".into()]]), ["t.a"]);
    }

    #[test]
    fn clear_resets() {
        let mut r = Recycler::new(1 << 20, EvictPolicy::Lru);
        r.admit("x", bat(4), vec![], 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.stats().resident_bytes, 0);
    }
}
