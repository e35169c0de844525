//! The session plan cache: compiled, verified, optimized MAL programs
//! keyed by the statement's canonical text — its `Display`, whose names the
//! parser has already folded.
//!
//! A cache entry is sound only while the optimizer's premises hold: every
//! rewrite the pipeline applied was proven against the column properties
//! ([`mammoth_mal::analysis::Props`]) in force at compile time. The entry
//! therefore carries a snapshot of the properties of every column the
//! plan binds; lookup re-derives the live properties and compares. DML
//! that changes a premise (a new max, sortedness lost) silently misses —
//! the statement recompiles and the entry is replaced. DDL and recovery
//! clear the cache wholesale.
//!
//! A hit costs what the plan is made of, not what the catalog holds: the
//! premises re-checked are the plan's own bound columns, the entry is
//! handed out as an [`Arc`], and [`bind_program`] makes the one copy of
//! the program the executor then owns.
//!
//! Parameterized plans carry [`Arg::Param`] slots. [`bind_program`]
//! substitutes EXECUTE's argument values as MAL constants — a pure
//! program→program map, no recompile, no re-verify (the verifier already
//! typed each slot as a scalar of statically unknown type, which a
//! constant always satisfies).

use mammoth_mal::{Arg, Program, Props};
use mammoth_types::{Error, Result, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled statement ready to execute (after parameter binding).
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The optimized program, possibly carrying `?N` parameter slots.
    pub prog: Program,
    /// Output column names (the `io.result` projection labels).
    pub names: Vec<String>,
    /// Number of `?N` slots the program expects.
    pub nparams: usize,
    /// Column-property premises the optimizer relied on:
    /// `(table, column) -> Props` snapshot at compile time.
    pub premises: Vec<((String, String), Props)>,
    /// Estimated output rows at compile time (for EXPLAIN/telemetry).
    pub est_rows: Option<u64>,
}

/// Compiled-plan cache with hit/compile counters.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<String, Arc<CachedPlan>>,
    hits: u64,
    compiles: u64,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look up by canonical text, verifying the premises still hold.
    /// `live` yields the current properties of a (table, column) pair —
    /// `None` means the column no longer exists (always a miss).
    pub fn lookup(
        &mut self,
        key: &str,
        mut live: impl FnMut(&str, &str) -> Option<Props>,
    ) -> Option<Arc<CachedPlan>> {
        let entry = self.map.get(key)?;
        let holds = |((t, c), premise): &((String, String), Props)| {
            live(t, c).is_some_and(|now| now == *premise)
        };
        if !entry.premises.iter().all(holds) {
            // premise drifted: the optimized program may no longer be
            // sound — drop the entry, caller recompiles
            self.map.remove(key);
            return None;
        }
        self.hits += 1;
        Some(entry.clone())
    }

    /// Insert (or replace) an entry, counting a compile; returns it as
    /// later hits will see it.
    pub fn insert(&mut self, key: String, plan: CachedPlan) -> Arc<CachedPlan> {
        self.compiles += 1;
        let plan = Arc::new(plan);
        self.map.insert(key, plan.clone());
        plan
    }

    /// Drop every entry (DDL, recovery).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn compiles(&self) -> u64 {
        self.compiles
    }
}

/// The (table, column) pairs a program binds — the premise set a cache
/// entry must re-check. Derived from `sql.bind` instructions, whose two
/// arguments are string constants.
pub fn referenced_columns(prog: &Program) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (t, c) in prog.bound_columns() {
        let pair = (t.to_string(), c.to_string());
        if !out.contains(&pair) {
            out.push(pair);
        }
    }
    out
}

/// Substitute EXECUTE's argument values for the program's `?N` slots,
/// producing a constant-only program ready for the interpreter. Errors
/// if a slot index is out of range for `args`.
pub fn bind_program(prog: &Program, args: &[Value]) -> Result<Program> {
    let mut out = prog.clone();
    for instr in &mut out.instrs {
        for arg in &mut instr.args {
            if let Arg::Param(n) = arg {
                let v = args.get(*n).ok_or_else(|| {
                    Error::Bind(format!(
                        "EXECUTE supplies {} argument(s) but the plan uses ?{n}",
                        args.len()
                    ))
                })?;
                *arg = Arg::Const(v.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_algebra::CmpOp;
    use mammoth_mal::OpCode;

    fn sample_prog() -> Program {
        let mut p = Program::new();
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(b), Arg::Param(0)],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(s), Arg::Var(b)])[0];
        p.push(OpCode::Result, vec![Arg::Var(f)]);
        p
    }

    #[test]
    fn referenced_columns_finds_binds_once() {
        let p = sample_prog();
        assert_eq!(
            referenced_columns(&p),
            vec![("t".to_string(), "a".to_string())]
        );
    }

    #[test]
    fn bind_program_substitutes_params() {
        let p = sample_prog();
        let bound = bind_program(&p, &[Value::I64(42)]).unwrap();
        assert!(bound
            .instrs
            .iter()
            .all(|i| i.args.iter().all(|a| !matches!(a, Arg::Param(_)))));
        assert!(bound.instrs.iter().any(|i| i
            .args
            .iter()
            .any(|a| matches!(a, Arg::Const(Value::I64(42))))));
        // arity mismatch is a bind error
        assert!(bind_program(&p, &[]).is_err());
    }

    #[test]
    fn cache_premise_mismatch_misses_and_evicts() {
        let mut cache = PlanCache::new();
        let premise = Props {
            card_hi: Some(10),
            ..Props::top()
        };
        cache.insert(
            "k".into(),
            CachedPlan {
                prog: sample_prog(),
                names: vec!["a".into()],
                nparams: 1,
                premises: vec![(("t".into(), "a".into()), premise.clone())],
                est_rows: None,
            },
        );
        assert_eq!(cache.compiles(), 1);
        // matching premises: hit
        assert!(cache.lookup("k", |_, _| Some(premise.clone())).is_some());
        assert_eq!(cache.hits(), 1);
        // drifted premises: miss AND evict
        let drifted = Props {
            card_hi: Some(99),
            ..premise.clone()
        };
        assert!(cache.lookup("k", |_, _| Some(drifted.clone())).is_none());
        assert!(cache.map.is_empty(), "stale entry must be evicted");
        // unknown key: plain miss
        assert!(cache.lookup("nope", |_, _| None).is_none());
    }
}
