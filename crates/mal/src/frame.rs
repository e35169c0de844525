//! The execution core both schedulers run on.
//!
//! Running a plan is two things: *what one instruction does* and *which
//! instruction goes next*. The first half lives here, once:
//!
//! * a [`Frame`] — the variable slots of one run, `Arg` → value
//!   resolution, the live / peak / released accounting, and the two
//!   bookkeeping instructions (`io.result` copies values out,
//!   `language.pass` releases a slot);
//! * a [`StepCtx::step`] — one instruction over its resolved arguments:
//!   [`execute_instr`], then the `MAMMOTH_CHECK_PROPS` cross-check, then
//!   the optional [`TraceEvent`];
//! * [`ExecStats`] — the one counters shape, folded into a
//!   [`ProfiledRun`] in one place.
//!
//! The second half is all a scheduler is. The serial
//! [`Interpreter`](crate::Interpreter) steps in program order;
//! `mammoth-parallel` steps whatever its ready queue yields, holding the
//! frame under a mutex and calling `step` outside it; `mammoth-recycler`
//! steps in program order but first asks its cache, and hands a hit to
//! [`StepCtx::finish`] instead. Slots are released by `language.pass`
//! markers only — the `garbage_collect` pass decides where, no scheduler
//! second-guesses.

use crate::analysis::{analyze_props, check_bat, Analysis};
use crate::interp::execute_instr;
use crate::program::{Arg, Instr, MalValue, OpCode, Program, VarId};
use mammoth_storage::Catalog;
use mammoth_types::{Error, ProfiledRun, Result, TraceEvent};
use std::time::Instant;

/// Counters from one plan execution, whichever scheduler drove it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads the scheduler ran with (1 for the serial engine).
    pub threads: usize,
    /// Instructions executed (excluding recycled ones and the `io.result` /
    /// `language.pass` markers).
    pub executed: u64,
    /// Instructions answered from the recycler.
    pub recycled: u64,
    /// BAT slots released by `language.pass` markers.
    pub released_early: u64,
    /// `language.pass` on an empty slot — always 0 for verified plans; the
    /// stress suite asserts it stays that way.
    pub double_releases: u64,
    /// Peak number of BAT-valued variables live at once (the
    /// operator-at-a-time peak-memory proxy).
    pub peak_live_bats: u64,
    /// Peak number of instructions in flight at once (the achieved
    /// instruction-level parallelism; 1 for the serial engine).
    pub max_inflight: u64,
    /// Wall time of the whole run in nanoseconds.
    pub elapsed_ns: u64,
}

impl ExecStats {
    /// Fold the counters into the engine-neutral [`ProfiledRun`], attaching
    /// the per-instruction `events` timeline.
    pub fn fold_into(&self, engine: &str, events: Vec<TraceEvent>) -> ProfiledRun {
        ProfiledRun {
            engine: engine.to_string(),
            threads: self.threads,
            executed: self.executed,
            recycled: self.recycled,
            released_early: self.released_early,
            peak_live_bats: self.peak_live_bats,
            max_inflight: self.max_inflight,
            elapsed_ns: self.elapsed_ns,
            events,
        }
    }
}

/// The mutable half of a run: variable slots, `io.result` outputs,
/// counters and the profiler timeline.
#[derive(Default)]
pub struct Frame {
    vars: Vec<Option<MalValue>>,
    live_bats: u64,
    /// The values marked by `io.result`, in argument order.
    pub outputs: Vec<MalValue>,
    pub stats: ExecStats,
    /// One event per committed step of a profiled run.
    pub events: Vec<TraceEvent>,
}

impl Frame {
    /// An empty frame for a scheduler with `threads` workers;
    /// [`Frame::reset`] sizes it for a program.
    pub fn new(threads: usize) -> Frame {
        Frame {
            stats: ExecStats {
                threads,
                // one step at a time unless a scheduler overlaps them
                max_inflight: 1,
                ..ExecStats::default()
            },
            ..Frame::default()
        }
    }

    /// Start a run over `nvars` empty slots. Counters and events carry
    /// over: they describe everything this frame has run.
    pub fn reset(&mut self, nvars: usize) {
        self.vars.clear();
        self.vars.resize(nvars, None);
        self.live_bats = 0;
        self.outputs.clear();
    }

    fn resolve(&self, a: &Arg) -> Result<MalValue> {
        match a {
            Arg::Const(c) => Ok(MalValue::Scalar(c.clone())),
            Arg::Var(v) => self
                .vars
                .get(*v)
                .and_then(|x| x.clone())
                .ok_or_else(|| Error::Internal(format!("use of unbound variable x{v}"))),
            Arg::Param(n) => Err(Error::Internal(format!(
                "use of unbound parameter ?{n}: plan executed without EXECUTE bindings"
            ))),
        }
    }

    /// The argument values of `instr`, constants resolved to scalars.
    /// Cloning a [`MalValue`] is O(1), so a scheduler can do this under a
    /// lock and step outside it.
    pub fn args(&self, instr: &Instr) -> Result<Vec<MalValue>> {
        instr.args.iter().map(|a| self.resolve(a)).collect()
    }

    /// Handle `instr` if it is bookkeeping rather than work: `io.result`
    /// copies its (already computed) arguments to the outputs,
    /// `language.pass` releases its slot. Returns whether it was.
    pub fn marker(&mut self, instr: &Instr) -> Result<bool> {
        match instr.op {
            OpCode::Result => {
                for a in &instr.args {
                    let v = self.resolve(a)?;
                    self.outputs.push(v);
                }
            }
            OpCode::Free => {
                if let Some(Arg::Var(v)) = instr.args.first() {
                    match self.vars[*v].take() {
                        Some(MalValue::Bat(_)) => {
                            self.live_bats -= 1;
                            self.stats.released_early += 1;
                        }
                        Some(MalValue::Scalar(_)) => {}
                        None => self.stats.double_releases += 1,
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Bind what a step produced to `instr`'s result slots and count it.
    pub fn commit(&mut self, instr: &Instr, done: Stepped) {
        match done.recycled {
            true => self.stats.recycled += 1,
            false => self.stats.executed += 1,
        }
        self.events.extend(done.event);
        debug_assert_eq!(done.results.len(), instr.results.len());
        for (&rv, val) in instr.results.iter().zip(done.results) {
            self.set(rv, val);
        }
    }

    fn set(&mut self, v: VarId, val: MalValue) {
        if matches!(self.vars[v], Some(MalValue::Bat(_))) {
            self.live_bats -= 1;
        }
        if matches!(val, MalValue::Bat(_)) {
            self.live_bats += 1;
            self.stats.peak_live_bats = self.stats.peak_live_bats.max(self.live_bats);
        }
        self.vars[v] = Some(val);
    }
}

/// What one step produced, ready for [`Frame::commit`].
pub struct Stepped {
    /// One value per result variable of the instruction.
    pub results: Vec<MalValue>,
    /// Wall time of the step in nanoseconds.
    pub cost_ns: u64,
    recycled: bool,
    event: Option<TraceEvent>,
}

/// The immutable half of a run — what every step needs and no step
/// changes — so any number of workers can step through one `&StepCtx`.
pub struct StepCtx<'a> {
    catalog: &'a Catalog,
    prog: &'a Program,
    analysis: Option<Analysis>,
    profiled: bool,
    t0: Instant,
}

impl<'a> StepCtx<'a> {
    /// Start the clock on a run of `prog`. With `check_props`, every BAT a
    /// step materializes is cross-checked against the properties the
    /// abstract interpretation inferred for its variable; with `profiled`,
    /// every step yields a [`TraceEvent`].
    pub fn new(
        catalog: &'a Catalog,
        prog: &'a Program,
        check_props: bool,
        profiled: bool,
    ) -> Result<StepCtx<'a>> {
        let analysis = match check_props {
            false => None,
            true => Some(analyze_props(prog, catalog).map_err(|e| {
                Error::Internal(format!("MAMMOTH_CHECK_PROPS: unconfirmable claim: {e}"))
            })?),
        };
        Ok(StepCtx {
            catalog,
            prog,
            analysis,
            profiled,
            t0: Instant::now(),
        })
    }

    /// Nanoseconds since the run started.
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Execute instruction `idx` on `worker` over its resolved `args`.
    pub fn step(&self, worker: usize, idx: usize, args: &[MalValue]) -> Result<Stepped> {
        let start = Instant::now();
        let results = execute_instr(self.catalog, &self.prog.instrs[idx], args)?;
        self.finish(worker, idx, args, start, results, false)
    }

    /// The tail every result set goes through, computed or `recycled`: the
    /// property check, the step's cost since `start`, and its event.
    pub fn finish(
        &self,
        worker: usize,
        idx: usize,
        args: &[MalValue],
        start: Instant,
        results: Vec<MalValue>,
        recycled: bool,
    ) -> Result<Stepped> {
        let instr = &self.prog.instrs[idx];
        let cost_ns = start.elapsed().as_nanos() as u64;
        if let Some(an) = &self.analysis {
            for (rv, val) in instr.results.iter().zip(&results) {
                if let (Some(p), MalValue::Bat(b)) = (an.props_of(*rv), val) {
                    check_bat(p, b).map_err(|msg| {
                        Error::Internal(format!(
                            "MAMMOTH_CHECK_PROPS: instr {idx} ({}) result x{rv}: {msg}",
                            instr.op.name()
                        ))
                    })?;
                }
            }
        }
        let event = self.profiled.then(|| {
            let (mut rows_in, (mut rows_out, bytes_out)) =
                (rows_bytes(args).0, rows_bytes(&results));
            // a pipeline's columns are one table's rows, scanned once, not
            // a table each, and its results are one sink's rows: a row of
            // scalars, or as many as each of its BATs holds
            if let OpCode::Pipeline(spec) = &instr.op {
                let rows = |v: Option<&MalValue>| match v {
                    Some(MalValue::Bat(b)) => Some(b.len() as u64),
                    _ => None,
                };
                rows_in = rows(spec.filters.first().and_then(|f| args.get(f.col))).unwrap_or(0);
                rows_out = rows(results.first()).unwrap_or(1);
            }
            TraceEvent {
                instr: idx as i64,
                op: instr.op.name(),
                args: instr.render_args(),
                worker,
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                dur_ns: cost_ns,
                rows_in,
                rows_out,
                bytes_out,
                recycled,
                ..TraceEvent::default()
            }
        });
        Ok(Stepped {
            results,
            cost_ns,
            recycled,
            event,
        })
    }
}

/// `(rows, heap bytes)` summed over the BAT-valued entries of `vals`.
fn rows_bytes(vals: &[MalValue]) -> (u64, u64) {
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
