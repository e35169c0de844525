//! Last-use (liveness) analysis over MAL programs.
//!
//! MAL plans are straight-line SSA, so liveness needs no fixpoint: a single
//! backward scan finds each variable's last use. The interpreter uses the
//! result to drop `Arc<Bat>` intermediates as soon as they are dead
//! (shrinking peak memory on bushy plans), and the `garbage_collect`
//! optimizer pass materializes the same information as explicit
//! `language.pass` instructions.

use crate::program::{Arg, Program, VarId};

/// Per-variable and per-instruction lifetime facts for one [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Per variable: the index of the last instruction that reads it
    /// (`None` for variables never read).
    pub(crate) last_use: Vec<Option<usize>>,
    /// Per instruction: variables whose lifetime ends once it has executed
    /// — arguments read for the last time, plus results never read at all.
    pub(crate) dies_at: Vec<Vec<VarId>>,
    /// Per instruction: number of variables still live after it executes.
    pub(crate) live_after: Vec<usize>,
    /// Maximum number of simultaneously live variables at any point
    /// (counted after an instruction binds its results, before its dead
    /// operands are released).
    pub peak_live: usize,
}

/// Compute lifetimes with a single backward scan plus a forward replay.
pub fn analyze(prog: &Program) -> Liveness {
    let n = prog.nvars();
    let mut last_use: Vec<Option<usize>> = vec![None; n];
    for (idx, instr) in prog.instrs.iter().enumerate().rev() {
        for a in &instr.args {
            if let Arg::Var(v) = a {
                if *v < n && last_use[*v].is_none() {
                    last_use[*v] = Some(idx);
                }
            }
        }
    }

    let mut dies_at: Vec<Vec<VarId>> = vec![Vec::new(); prog.instrs.len()];
    for (idx, instr) in prog.instrs.iter().enumerate() {
        for &r in &instr.results {
            if r < n && last_use[r].is_none() {
                // defined but never read: dies the moment it is bound
                dies_at[idx].push(r);
            }
        }
        for a in &instr.args {
            if let Arg::Var(v) = a {
                if *v < n && last_use[*v] == Some(idx) && !dies_at[idx].contains(v) {
                    dies_at[idx].push(*v);
                }
            }
        }
    }

    // forward replay for the live-set profile
    let mut live = 0usize;
    let mut peak = 0usize;
    let mut live_after = Vec::with_capacity(prog.instrs.len());
    for (idx, instr) in prog.instrs.iter().enumerate() {
        live += instr.results.len();
        peak = peak.max(live);
        // note: a `language.pass` argument is by construction at its last
        // use here, so dies_at already accounts for the release
        live = live.saturating_sub(dies_at[idx].len());
        live_after.push(live);
    }

    Liveness {
        last_use,
        dies_at,
        live_after,
        peak_live: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Arg, OpCode, Program};
    use mammoth_algebra::CmpOp;
    use mammoth_types::Value;

    fn sample() -> (Program, Vec<VarId>) {
        let mut p = Program::new();
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(b), Arg::Const(Value::I32(0))],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        p.push_result(&[f]);
        (p, vec![b, c, f])
    }

    #[test]
    fn last_use_and_death_sites() {
        let (p, vars) = sample();
        let lv = analyze(&p);
        let [b, c, f] = vars[..] else { panic!() };
        assert_eq!(lv.last_use[b], Some(2)); // projection reads the base bat
        assert_eq!(lv.last_use[c], Some(2));
        assert_eq!(lv.last_use[f], Some(3)); // io.result
        assert_eq!(lv.dies_at[2], vec![c, b]);
        assert_eq!(lv.dies_at[3], vec![f]);
        assert!(lv.dies_at[0].is_empty() && lv.dies_at[1].is_empty());
    }

    #[test]
    fn unused_result_dies_at_definition() {
        let mut p = Program::new();
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let rs = p.push(OpCode::Sort { desc: false }, vec![Arg::Var(b)]);
        p.push_result(&[rs[0]]);
        let lv = analyze(&p);
        assert_eq!(lv.last_use[rs[1]], None);
        assert!(lv.dies_at[1].contains(&rs[1]));
    }

    #[test]
    fn live_profile_peaks_mid_plan() {
        let (p, _) = sample();
        let lv = analyze(&p);
        // bind:1 → select:2 → projection peaks at 3, then b and c die → 1
        assert_eq!(lv.live_after, vec![1, 2, 1, 0]);
        assert_eq!(lv.peak_live, 3);
    }
}
