//! The MAL interpreter: §3.1's third tier.
//!
//! Executes a [`Program`] against a [`Catalog`] by calling the BAT Algebra
//! operator library, materializing every intermediate (operator-at-a-time).
//! With a [`Recycler`] attached, each pure instruction's result is memoized
//! under its *provenance signature* — the canonical text of the whole
//! expression tree that produced it — so repeated (sub)queries cherry-pick
//! previous work instead of recomputing it (§6.1).

use crate::program::{Arg, Instr, MalValue, OpCode, Program, VarId};
use mammoth_algebra as alg;
use mammoth_recycler::Recycler;
use mammoth_storage::{Bat, Catalog, TailHeap};
use mammoth_types::{Error, Oid, ProfiledRun, Result, TraceEvent, Value};
use std::sync::Arc;
use std::time::Instant;

/// Counters from one program execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions actually executed (excluding recycled ones).
    pub executed: u64,
    /// Instructions answered from the recycler.
    pub recycled: u64,
    /// Wall time of the whole run in nanoseconds.
    pub elapsed_ns: u64,
    /// Maximum number of BAT-valued variables live at any point of the run
    /// (the operator-at-a-time peak-memory proxy).
    pub peak_live_bats: u64,
    /// BAT slots released before the end of the program, by `language.pass`
    /// instructions or by liveness-driven eager release.
    pub released_early: u64,
}

impl ExecStats {
    /// Fold the serial counters into the engine-neutral [`ProfiledRun`],
    /// attaching the per-instruction `events` timeline. The serial engine
    /// is single-threaded, so `threads` and `max_inflight` are both 1.
    pub fn fold_into(&self, engine: &str, events: Vec<TraceEvent>) -> ProfiledRun {
        ProfiledRun {
            engine: engine.to_string(),
            threads: 1,
            executed: self.executed,
            recycled: self.recycled,
            released_early: self.released_early,
            peak_live_bats: self.peak_live_bats,
            max_inflight: 1,
            elapsed_ns: self.elapsed_ns,
            events,
        }
    }
}

/// The interpreter. Holds the catalog immutably; queries never mutate.
pub struct Interpreter<'a> {
    catalog: &'a Catalog,
    recycler: Option<&'a mut Recycler>,
    stats: ExecStats,
    eager_release: bool,
    profiled: bool,
    check_props: bool,
    events: Vec<TraceEvent>,
}

impl<'a> Interpreter<'a> {
    pub fn new(catalog: &'a Catalog) -> Interpreter<'a> {
        Interpreter {
            catalog,
            recycler: None,
            stats: ExecStats::default(),
            eager_release: false,
            profiled: false,
            check_props: crate::analysis::check_props_enabled(),
            events: Vec::new(),
        }
    }

    /// Attach a recycler: pure instruction results will be memoized.
    pub fn with_recycler(catalog: &'a Catalog, recycler: &'a mut Recycler) -> Interpreter<'a> {
        Interpreter {
            catalog,
            recycler: Some(recycler),
            stats: ExecStats::default(),
            eager_release: false,
            profiled: false,
            check_props: crate::analysis::check_props_enabled(),
            events: Vec::new(),
        }
    }

    /// Cross-check every materialized BAT (executed *and* recycled) against
    /// the properties the abstract interpretation inferred for its variable;
    /// a violation aborts the run with an internal error naming the
    /// instruction. Defaults to the `MAMMOTH_CHECK_PROPS` environment
    /// variable; this builder pins it explicitly (tests use it to avoid
    /// process-global environment races).
    pub fn check_props(mut self, on: bool) -> Interpreter<'a> {
        self.check_props = on;
        self
    }

    /// Record one [`TraceEvent`] per executed (or recycled) instruction:
    /// opcode, rendered args, wall time, input/result BAT rows and heap
    /// bytes. `io.result` and `language.pass` are bookkeeping, not work, so
    /// they get no event — `events.len() == executed + recycled` holds.
    pub fn profiled(mut self, on: bool) -> Interpreter<'a> {
        self.profiled = on;
        self
    }

    /// Drop intermediate BATs at their last use, guided by
    /// [`crate::analysis::liveness`]. Lowers `peak_live_bats` on bushy
    /// plans without changing results. (The recycler keeps its own
    /// references; eager release shrinks the variable table only.)
    pub fn eager_release(mut self, on: bool) -> Interpreter<'a> {
        self.eager_release = on;
        self
    }

    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Drain the profiler events recorded so far (empty unless
    /// [`Interpreter::profiled`] was enabled).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// The stats and events folded into the engine-neutral profile.
    pub fn profiled_run(&mut self, engine: &str) -> ProfiledRun {
        let events = self.take_events();
        self.stats.fold_into(engine, events)
    }

    /// Run a program; returns the values marked by `io.result`.
    pub fn run(&mut self, prog: &Program) -> Result<Vec<MalValue>> {
        let t0 = Instant::now();
        let mut vars: Vec<Option<MalValue>> = vec![None; prog.nvars()];
        // provenance signatures and column dependencies exist to key the
        // recycler; without one attached nothing is built or kept
        let recycling = self.recycler.is_some();
        let tracked = if recycling { prog.nvars() } else { 0 };
        let mut sigs: Vec<Option<String>> = vec![None; tracked];
        let mut deps: Vec<Vec<String>> = vec![Vec::new(); tracked];
        let mut outputs = Vec::new();
        let liveness = self
            .eager_release
            .then(|| crate::analysis::liveness::analyze(prog));
        let analysis = match self.check_props {
            false => None,
            true => Some(
                crate::analysis::analyze_props(prog, self.catalog).map_err(|e| {
                    Error::Internal(format!("MAMMOTH_CHECK_PROPS: unconfirmable claim: {e}"))
                })?,
            ),
        };
        let mut live_bats: u64 = 0;
        let mut peak_live: u64 = 0;

        for (idx, instr) in prog.instrs.iter().enumerate() {
            'exec: {
                if instr.op == OpCode::Result {
                    for a in &instr.args {
                        outputs.push(self.arg_value(a, &vars)?);
                    }
                    break 'exec;
                }
                if instr.op == OpCode::Free {
                    if let Some(Arg::Var(v)) = instr.args.first() {
                        if clear_slot(&mut vars[*v], &mut live_bats) {
                            self.stats.released_early += 1;
                        }
                    }
                    break 'exec;
                }
                // provenance signature of this instruction
                let (sig, instr_deps) = match recycling {
                    true => (self.instr_sig(instr, &sigs), self.instr_deps(instr, &deps)),
                    false => (None, Vec::new()),
                };

                // recycler lookup: all result slots must hit
                if let (Some(sig), Some(r)) = (&sig, self.recycler.as_deref_mut()) {
                    let lk_start = self.profiled.then(Instant::now);
                    let hits: Vec<Option<Arc<Bat>>> = (0..instr.op.result_arity())
                        .map(|slot| r.lookup(&slot_sig(sig, slot)))
                        .collect();
                    if hits.iter().all(|h| h.is_some()) && !hits.is_empty() {
                        let rows_in = self.profiled.then(|| bat_rows_in(instr, &vars));
                        let mut rows_out = 0u64;
                        let mut bytes_out = 0u64;
                        for (rv, h) in instr.results.iter().zip(hits) {
                            let b = h.unwrap();
                            if self.profiled {
                                rows_out += b.len() as u64;
                                bytes_out += b.tail().byte_size() as u64;
                            }
                            set_slot(
                                &mut vars[*rv],
                                MalValue::Bat(b),
                                &mut live_bats,
                                &mut peak_live,
                            );
                        }
                        for rv in &instr.results {
                            sigs[*rv] = Some(slot_sig(sig, position_of(instr, *rv)));
                            deps[*rv] = instr_deps.clone();
                        }
                        self.stats.recycled += 1;
                        if let Some(lk_start) = lk_start {
                            self.events.push(TraceEvent {
                                instr: idx as i64,
                                op: instr.op.name(),
                                args: instr.render_args(),
                                start_ns: lk_start.duration_since(t0).as_nanos() as u64,
                                dur_ns: lk_start.elapsed().as_nanos() as u64,
                                rows_in: rows_in.unwrap_or(0),
                                rows_out,
                                bytes_out,
                                recycled: true,
                                ..TraceEvent::default()
                            });
                        }
                        break 'exec;
                    }
                }

                let rows_in = self.profiled.then(|| bat_rows_in(instr, &vars));
                let start = Instant::now();
                let results = self.execute(instr, &vars)?;
                let cost_ns = start.elapsed().as_nanos() as u64;
                self.stats.executed += 1;
                if let Some(rows_in) = rows_in {
                    let (rows_out, bytes_out) = bat_rows_bytes(&results);
                    self.events.push(TraceEvent {
                        instr: idx as i64,
                        op: instr.op.name(),
                        args: instr.render_args(),
                        start_ns: start.duration_since(t0).as_nanos() as u64,
                        dur_ns: cost_ns,
                        rows_in,
                        rows_out,
                        bytes_out,
                        ..TraceEvent::default()
                    });
                }

                debug_assert_eq!(results.len(), instr.results.len());
                for (slot, (rv, val)) in instr.results.iter().zip(results).enumerate() {
                    // admit BAT results to the recycler
                    if let (Some(sig), Some(r), MalValue::Bat(b)) =
                        (&sig, self.recycler.as_deref_mut(), &val)
                    {
                        if instr.op.is_pure() {
                            r.admit(
                                slot_sig(sig, slot),
                                Arc::clone(b),
                                instr_deps.clone(),
                                cost_ns,
                            );
                        }
                    }
                    if recycling {
                        sigs[*rv] = sig.as_deref().map(|s| slot_sig(s, slot));
                        deps[*rv] = instr_deps.clone();
                    }
                    set_slot(&mut vars[*rv], val, &mut live_bats, &mut peak_live);
                }
            }
            // property checker: every BAT this instruction materialized (or
            // recycled) must satisfy the statically inferred properties
            if let Some(an) = &analysis {
                for &rv in &instr.results {
                    if let (Some(p), Some(MalValue::Bat(b))) = (an.props_of(rv), &vars[rv]) {
                        if let Err(msg) = crate::analysis::check_bat(p, b) {
                            return Err(Error::Internal(format!(
                                "MAMMOTH_CHECK_PROPS: instr {idx} ({}) result x{rv}: {msg}",
                                instr.op.name()
                            )));
                        }
                    }
                }
            }
            // liveness-driven eager release: drop every operand whose last
            // use was this instruction (outputs were cloned above, so
            // releasing at io.result is safe too)
            if let Some(lv) = &liveness {
                for &v in &lv.dies_at[idx] {
                    if clear_slot(&mut vars[v], &mut live_bats) {
                        self.stats.released_early += 1;
                    }
                }
            }
        }
        self.stats.peak_live_bats = self.stats.peak_live_bats.max(peak_live);
        self.stats.elapsed_ns += t0.elapsed().as_nanos() as u64;
        Ok(outputs)
    }

    fn arg_value(&self, a: &Arg, vars: &[Option<MalValue>]) -> Result<MalValue> {
        match a {
            Arg::Const(c) => Ok(MalValue::Scalar(c.clone())),
            Arg::Var(v) => vars
                .get(*v)
                .and_then(|x| x.clone())
                .ok_or_else(|| Error::Internal(format!("use of unbound variable x{v}"))),
            Arg::Param(n) => Err(Error::Internal(format!(
                "use of unbound parameter ?{n}: plan executed without EXECUTE bindings"
            ))),
        }
    }

    /// Provenance signature (None when any input's provenance is unknown).
    fn instr_sig(&self, instr: &Instr, sigs: &[Option<String>]) -> Option<String> {
        if !instr.op.is_pure() {
            return None;
        }
        let mut s = instr.op.name();
        s.push('(');
        for (k, a) in instr.args.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            match a {
                Arg::Const(c) => s.push_str(&format!("{c:?}")),
                Arg::Var(v) => s.push_str(sigs.get(*v)?.as_deref()?),
                // parameter slots have no provenance — never recycle them
                Arg::Param(_) => return None,
            }
        }
        s.push(')');
        Some(s)
    }

    fn instr_deps(&self, instr: &Instr, deps: &[Vec<String>]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        if let OpCode::Bind = instr.op {
            if let (Some(Arg::Const(Value::Str(t))), Some(Arg::Const(Value::Str(c)))) =
                (instr.args.first(), instr.args.get(1))
            {
                out.push(format!("{t}.{c}"));
            }
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

    fn execute(&self, instr: &Instr, vars: &[Option<MalValue>]) -> Result<Vec<MalValue>> {
        let args: Vec<MalValue> = instr
            .args
            .iter()
            .map(|a| self.arg_value(a, vars))
            .collect::<Result<_>>()?;
        execute_instr(self.catalog, instr, &args)
    }
}

/// An executor of verified MAL plans. The serial [`Interpreter`] and the
/// dataflow scheduler in `mammoth-parallel` both fit behind this trait, so
/// the SQL session can swap engines without knowing either.
pub trait PlanExecutor: Send + Sync {
    /// Run a program; returns the values marked by `io.result`.
    fn run_plan(&self, catalog: &Catalog, prog: &Program) -> Result<Vec<MalValue>>;
    /// A short engine name for diagnostics.
    fn engine_name(&self) -> &'static str;
    /// Run a program with per-instruction profiling. The default executes
    /// unprofiled and returns an empty profile; engines with a real
    /// profiler (the dataflow scheduler) override this.
    fn run_plan_profiled(
        &self,
        catalog: &Catalog,
        prog: &Program,
    ) -> Result<(Vec<MalValue>, ProfiledRun)> {
        let vals = self.run_plan(catalog, prog)?;
        Ok((vals, ProfiledRun::new(self.engine_name(), 1)))
    }
}

/// Sum of input BAT rows over an instruction's variable arguments.
fn bat_rows_in(instr: &Instr, vars: &[Option<MalValue>]) -> u64 {
    instr
        .args
        .iter()
        .filter_map(|a| match a {
            Arg::Var(v) => vars
                .get(*v)
                .and_then(|x| x.as_ref())
                .and_then(|m| m.as_bat())
                .map(|b| b.len() as u64),
            Arg::Const(_) | Arg::Param(_) => None,
        })
        .sum()
}

/// `(rows, heap bytes)` summed over the BAT-valued entries of `vals`.
pub fn bat_rows_bytes(vals: &[MalValue]) -> (u64, u64) {
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for v in vals {
        if let MalValue::Bat(b) = v {
            rows += b.len() as u64;
            bytes += b.tail().byte_size() as u64;
        }
    }
    (rows, bytes)
}

fn instr_bat(args: &[MalValue], k: usize) -> Result<Arc<Bat>> {
    match &args[k] {
        MalValue::Bat(b) => Ok(Arc::clone(b)),
        MalValue::Scalar(s) => Err(Error::TypeMismatch {
            expected: "bat".into(),
            found: format!("{s:?}"),
        }),
    }
}

fn instr_const(args: &[MalValue], k: usize) -> Result<Value> {
    match &args[k] {
        MalValue::Scalar(v) => Ok(v.clone()),
        MalValue::Bat(_) => Err(Error::TypeMismatch {
            expected: "scalar".into(),
            found: "bat".into(),
        }),
    }
}

/// Split a selection's resolved arguments after the input column into the
/// optional candidate list and its `nbounds` predicate constants.
fn select_operands<'a>(
    instr: &Instr,
    args: &'a [MalValue],
    nbounds: usize,
) -> Result<(Option<Arc<Bat>>, &'a [MalValue])> {
    match args.len().checked_sub(1 + nbounds) {
        Some(0) => Ok((None, &args[1..])),
        Some(1) => Ok((Some(instr_bat(args, 1)?), &args[2..])),
        _ => Err(Error::Internal(format!(
            "{} takes {} or {} arguments, got {}",
            instr.op.name(),
            1 + nbounds,
            2 + nbounds,
            args.len()
        ))),
    }
}

/// Execute one pure instruction given its resolved argument values (one
/// entry per `instr.args`, constants resolved to scalars). This is the
/// single point where MAL opcodes meet the BAT Algebra; the serial
/// interpreter and the parallel dataflow workers share it, so both engines
/// compute bit-identical results by construction.
pub fn execute_instr(catalog: &Catalog, instr: &Instr, args: &[MalValue]) -> Result<Vec<MalValue>> {
    let bat = |b: Bat| MalValue::Bat(Arc::new(b));
    Ok(match &instr.op {
        OpCode::Bind => {
            let t = instr_const(args, 0)?;
            let c = instr_const(args, 1)?;
            let (Value::Str(t), Value::Str(c)) = (t, c) else {
                return Err(Error::Bind("sql.bind expects string constants".into()));
            };
            let col = catalog.table(&t)?.column_by_name(&c)?;
            // zero-copy when the column has no pending deltas
            vec![MalValue::Bat(col.materialize_shared())]
        }
        OpCode::ThetaSelect(op) => {
            let b = instr_bat(args, 0)?;
            let (cand, bounds) = select_operands(instr, args, 1)?;
            let c = instr_const(bounds, 0)?;
            vec![bat(match cand {
                None => alg::select_cmp(&b, *op, &c)?,
                Some(cand) => alg::select_cmp_cand(&b, &cand, *op, &c)?,
            })]
        }
        OpCode::RangeSelect { lo_incl, hi_incl } => {
            let b = instr_bat(args, 0)?;
            let (cand, bounds) = select_operands(instr, args, 2)?;
            // a nil bound is open
            let lo = instr_const(bounds, 0)?;
            let hi = instr_const(bounds, 1)?;
            let lo = (!lo.is_null()).then_some(&lo);
            let hi = (!hi.is_null()).then_some(&hi);
            vec![bat(match cand {
                None => alg::select_range(&b, lo, hi, *lo_incl, *hi_incl)?,
                Some(cand) => alg::select_range_cand(&b, &cand, lo, hi, *lo_incl, *hi_incl)?,
            })]
        }
        OpCode::Projection => {
            let cands = instr_bat(args, 0)?;
            let b = instr_bat(args, 1)?;
            vec![bat(alg::fetch_join(&cands, &b)?)]
        }
        OpCode::Join => {
            let l = instr_bat(args, 0)?;
            let r = instr_bat(args, 1)?;
            let ji = alg::hash_join(&l, &r)?;
            vec![
                bat(Bat::dense(0, TailHeap::from_vec(ji.left))),
                bat(Bat::dense(0, TailHeap::from_vec(ji.right))),
            ]
        }
        OpCode::Group => {
            let b = instr_bat(args, 0)?;
            let (gids, _n, extents) = alg::group_by(&b)?;
            let ext: Vec<Oid> = extents.iter().map(|&p| p as Oid).collect();
            vec![bat(gids), bat(Bat::dense(0, TailHeap::from_vec(ext)))]
        }
        OpCode::GroupRefine => {
            let gids = instr_bat(args, 0)?;
            let b = instr_bat(args, 1)?;
            let (gids2, _n, extents) = alg::group_refine(&gids, &b)?;
            let ext: Vec<Oid> = extents.iter().map(|&p| p as Oid).collect();
            vec![bat(gids2), bat(Bat::dense(0, TailHeap::from_vec(ext)))]
        }
        OpCode::Aggr(kind) => {
            let b = instr_bat(args, 0)?;
            vec![MalValue::Scalar(alg::aggregate_scalar(*kind, &b)?)]
        }
        OpCode::AggrGrouped(kind) => {
            let b = instr_bat(args, 0)?;
            let gids = instr_bat(args, 1)?;
            let ext = instr_bat(args, 2)?;
            vec![bat(alg::grouped_aggregate(*kind, &b, &gids, ext.len())?)]
        }
        OpCode::Calc(op) => {
            let a = instr_bat(args, 0)?;
            match &args[1] {
                MalValue::Bat(b2) => vec![bat(alg::arith_bat(*op, &a, b2)?)],
                MalValue::Scalar(c) => vec![bat(alg::arith_const(*op, &a, c)?)],
            }
        }
        OpCode::Sort { desc } => {
            let b = instr_bat(args, 0)?;
            let (sorted, order) = alg::sort_bat_dir(&b, *desc)?;
            vec![bat(sorted), bat(order)]
        }
        OpCode::FirstN { desc } => {
            let b = instr_bat(args, 0)?;
            let n = instr_const(args, 1)?.as_i64().unwrap_or(i64::MAX).max(0) as usize;
            let (sorted, order) = alg::firstn(&b, n, *desc)?;
            vec![bat(sorted), bat(order)]
        }
        OpCode::Slice => {
            let b = instr_bat(args, 0)?;
            let lo = instr_const(args, 1)?.as_i64().unwrap_or(0).max(0) as usize;
            let hi = instr_const(args, 2)?.as_i64().unwrap_or(i64::MAX).max(0) as usize;
            let hi = hi.min(b.len());
            let lo = lo.min(hi);
            vec![bat(b.slice(lo, hi)?)]
        }
        OpCode::PartSlice => {
            let b = instr_bat(args, 0)?;
            let i = instr_const(args, 1)?.as_i64().unwrap_or(0);
            let k = instr_const(args, 2)?.as_i64().unwrap_or(1);
            if k < 1 || i < 0 || i >= k {
                return Err(Error::Internal(format!(
                    "algebra.slice: fragment {i} of {k} is out of range"
                )));
            }
            let (i, k) = (i as usize, k as usize);
            let lo = i * b.len() / k;
            let hi = (i + 1) * b.len() / k;
            vec![bat(b.slice(lo, hi)?)]
        }
        OpCode::Pack => {
            let bats: Vec<Arc<Bat>> = (0..args.len())
                .map(|k| instr_bat(args, k))
                .collect::<Result<_>>()?;
            let refs: Vec<&Bat> = bats.iter().map(|b| b.as_ref()).collect();
            vec![bat(alg::pack(&refs)?)]
        }
        OpCode::PackSum => {
            let parts: Vec<Value> = (0..args.len())
                .map(|k| instr_const(args, k))
                .collect::<Result<_>>()?;
            vec![MalValue::Scalar(alg::packsum(&parts)?)]
        }
        OpCode::Count => {
            let b = instr_bat(args, 0)?;
            vec![MalValue::Scalar(Value::I64(b.len() as i64))]
        }
        OpCode::Mirror => {
            let b = instr_bat(args, 0)?;
            vec![bat(b.mirror())]
        }
        OpCode::SetProps => {
            let b = instr_bat(args, 0)?;
            let claims = match instr_const(args, 1)? {
                Value::Str(s) => crate::analysis::props::parse_claims(&s).ok_or_else(|| {
                    Error::Internal(format!("bat.setprops: malformed claim '{s}'"))
                })?,
                v => {
                    return Err(Error::Internal(format!(
                        "bat.setprops expects a string claim, got {v}"
                    )))
                }
            };
            let have = b.props();
            let implied = (!claims.sorted || have.sorted)
                && (!claims.revsorted || have.revsorted)
                && (!claims.key || have.key)
                && (!claims.nonil || have.nonil);
            if implied {
                // already tagged: pass the Arc through, O(1)
                vec![MalValue::Bat(b)]
            } else {
                // tag a copy — sound because the checked pipeline only
                // emits claims the property analysis proved
                let mut nb = (*b).clone();
                let mut props = nb.props().clone();
                props.sorted |= claims.sorted;
                props.revsorted |= claims.revsorted;
                props.key |= claims.key;
                props.nonil |= claims.nonil;
                nb.set_props(props);
                vec![bat(nb)]
            }
        }
        OpCode::Result | OpCode::Free => unreachable!("handled by the scheduler"),
    })
}

fn slot_sig(sig: &str, slot: usize) -> String {
    format!("{sig}#{slot}")
}

/// Bind a variable slot, keeping the live-BAT counters current.
fn set_slot(slot: &mut Option<MalValue>, val: MalValue, live: &mut u64, peak: &mut u64) {
    if matches!(slot, Some(MalValue::Bat(_))) {
        *live -= 1;
    }
    if matches!(val, MalValue::Bat(_)) {
        *live += 1;
        *peak = (*peak).max(*live);
    }
    *slot = Some(val);
}

/// Clear a variable slot; returns whether a BAT was released.
fn clear_slot(slot: &mut Option<MalValue>, live: &mut u64) -> bool {
    let was_bat = matches!(slot, Some(MalValue::Bat(_)));
    if was_bat {
        *live -= 1;
    }
    *slot = None;
    was_bat
}

fn position_of(instr: &Instr, var: VarId) -> usize {
    instr
        .results
        .iter()
        .position(|&r| r == var)
        .expect("var is a result of this instruction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_algebra::{AggKind, CmpOp};
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, LogicalType, TableSchema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut t = Table::new(TableSchema::new(
            "people",
            vec![
                ColumnDef::new("name", LogicalType::Str),
                ColumnDef::new("age", LogicalType::I32),
            ],
        ))
        .unwrap();
        for (n, a) in [
            ("John Wayne", 1907),
            ("Roger Moore", 1927),
            ("Bob Fosse", 1927),
            ("Will Smith", 1968),
        ] {
            t.insert_row(&[Value::Str(n.into()), Value::I32(a)])
                .unwrap();
        }
        cat.create_table(t).unwrap();
        cat
    }

    /// Figure 1's query as a MAL program: select(age, 1927), fetch names.
    fn figure1_program() -> Program {
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let cands = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(age), Arg::Const(Value::I32(1927))],
        )[0];
        let name = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("name".into())),
            ],
        )[0];
        let out = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(name)])[0];
        p.push_result(&[out]);
        p
    }

    #[test]
    fn figure1_end_to_end() {
        let cat = catalog();
        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&figure1_program()).unwrap();
        assert_eq!(out.len(), 1);
        let b = out[0].as_bat().unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.value_at(0), Value::Str("Roger Moore".into()));
        assert_eq!(b.value_at(1), Value::Str("Bob Fosse".into()));
        assert_eq!(interp.stats().executed, 4);
    }

    #[test]
    fn recycler_avoids_double_work() {
        let cat = catalog();
        let mut rec = Recycler::new(1 << 20, mammoth_recycler::EvictPolicy::Lru);
        {
            let mut i1 = Interpreter::with_recycler(&cat, &mut rec);
            i1.run(&figure1_program()).unwrap();
            assert_eq!(i1.stats().recycled, 0);
        }
        {
            let mut i2 = Interpreter::with_recycler(&cat, &mut rec);
            let out = i2.run(&figure1_program()).unwrap();
            assert_eq!(i2.stats().recycled, 4, "whole plan recycled");
            assert_eq!(i2.stats().executed, 0);
            assert_eq!(out[0].as_bat().unwrap().len(), 2);
        }
        // invalidation kills dependent entries
        rec.invalidate("people.age");
        {
            let mut i3 = Interpreter::with_recycler(&cat, &mut rec);
            i3.run(&figure1_program()).unwrap();
            // name-bind survives; age-bind/select/projection recompute
            assert_eq!(i3.stats().recycled, 1);
            assert_eq!(i3.stats().executed, 3);
        }
    }

    #[test]
    fn grouped_aggregation_program() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let g = p.push(OpCode::Group, vec![Arg::Var(age)]);
        let cnt = p.push(
            OpCode::AggrGrouped(AggKind::Count),
            vec![Arg::Var(age), Arg::Var(g[0]), Arg::Var(g[1])],
        )[0];
        let keys = p.push(OpCode::Projection, vec![Arg::Var(g[1]), Arg::Var(age)])[0];
        p.push_result(&[keys, cnt]);

        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&p).unwrap();
        let keys = out[0].as_bat().unwrap();
        let counts = out[1].as_bat().unwrap();
        assert_eq!(keys.tail_slice::<i32>().unwrap(), &[1907, 1927, 1968]);
        assert_eq!(counts.tail_slice::<i64>().unwrap(), &[1, 2, 1]);
    }

    #[test]
    fn scalar_aggregates_and_calc() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let doubled = p.push(
            OpCode::Calc(mammoth_algebra::ArithOp::Mul),
            vec![Arg::Var(age), Arg::Const(Value::I32(2))],
        )[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(doubled)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(age)])[0];
        p.push_result(&[s, n]);
        let mut interp = Interpreter::new(&cat);
        let out = interp.run(&p).unwrap();
        assert_eq!(
            out[0].as_scalar().unwrap(),
            &Value::I64(2 * (1907 + 1927 + 1927 + 1968))
        );
        assert_eq!(out[1].as_scalar().unwrap(), &Value::I64(4));
    }

    /// A two-join plan whose base and index BATs all stay live to the end
    /// without eager release.
    fn multi_join_program() -> Program {
        let mut p = Program::new();
        let age1 = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let age2 = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let j1 = p.push(OpCode::Join, vec![Arg::Var(age1), Arg::Var(age2)]);
        let f1 = p.push(OpCode::Projection, vec![Arg::Var(j1[0]), Arg::Var(age1)])[0];
        let j2 = p.push(OpCode::Join, vec![Arg::Var(f1), Arg::Var(age2)]);
        let f2 = p.push(OpCode::Projection, vec![Arg::Var(j2[0]), Arg::Var(f1)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f2)])[0];
        p.push_result(&[s]);
        p
    }

    #[test]
    fn eager_release_lowers_peak_live_bats() {
        let cat = catalog();
        let prog = multi_join_program();

        let mut plain = Interpreter::new(&cat);
        let out_plain = plain.run(&prog).unwrap();
        // every BAT intermediate stays live: 2 binds + 2 per join + 2
        // projections = 8
        assert_eq!(plain.stats().peak_live_bats, 8);
        assert_eq!(plain.stats().released_early, 0);

        let mut eager = Interpreter::new(&cat).eager_release(true);
        let out_eager = eager.run(&prog).unwrap();
        assert!(
            eager.stats().peak_live_bats < plain.stats().peak_live_bats,
            "eager release should shrink the live set: {} vs {}",
            eager.stats().peak_live_bats,
            plain.stats().peak_live_bats
        );
        assert!(eager.stats().released_early > 0);
        // results are identical
        assert_eq!(
            out_plain[0].as_scalar().unwrap(),
            out_eager[0].as_scalar().unwrap()
        );
    }

    #[test]
    fn language_pass_releases_and_interops_with_gc_pass() {
        use crate::optimizer::{GarbageCollect, OptimizerPass};
        let cat = catalog();
        let prog = multi_join_program();
        let gc = GarbageCollect.run(prog.clone());

        let mut plain = Interpreter::new(&cat);
        let out = plain.run(&prog).unwrap();
        let mut gcd = Interpreter::new(&cat);
        let out_gc = gcd.run(&gc).unwrap();
        assert!(gcd.stats().released_early > 0);
        assert!(gcd.stats().peak_live_bats < plain.stats().peak_live_bats);
        assert_eq!(out[0].as_scalar().unwrap(), out_gc[0].as_scalar().unwrap());
    }

    #[test]
    fn errors_are_propagated() {
        let cat = catalog();
        let mut p = Program::new();
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("nonexistent".into())),
                Arg::Const(Value::Str("x".into())),
            ],
        );
        let mut interp = Interpreter::new(&cat);
        assert!(interp.run(&p).is_err());

        // unbound variable
        let mut p = Program::new();
        let ghost = p.var();
        p.push(OpCode::Count, vec![Arg::Var(ghost)]);
        assert!(Interpreter::new(&cat).run(&p).is_err());
    }

    #[test]
    fn sort_and_slice() {
        let cat = catalog();
        let mut p = Program::new();
        let age = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("people".into())),
                Arg::Const(Value::Str("age".into())),
            ],
        )[0];
        let s = p.push(OpCode::Sort { desc: false }, vec![Arg::Var(age)]);
        let top2 = p.push(
            OpCode::Slice,
            vec![
                Arg::Var(s[0]),
                Arg::Const(Value::I64(0)),
                Arg::Const(Value::I64(2)),
            ],
        )[0];
        p.push_result(&[top2]);
        let out = Interpreter::new(&cat).run(&p).unwrap();
        assert_eq!(
            out[0].as_bat().unwrap().tail_slice::<i32>().unwrap(),
            &[1907, 1927]
        );
    }
}
