//! Every decided claim of every experiment, pinned at `Scale::Quick`.
//!
//! Each experiment runs once at its quick size. Every claim it decides by
//! a predicate (`Basis::Exact` or `Basis::Simulated`) must come out as
//! pinned here: held, unless [`FAILED`] lists it with the EXPERIMENTS.md
//! finding that records the failure. A claim that stops holding fails this
//! test, and so does a pinned failure that starts to hold: its pin and its
//! finding are then out of date. A pinned failure also pins the data points
//! its experiment reports, the numbers its predicate read, exactly: a fault
//! that makes it fail for another reason fails this test too. Wall-clock
//! claims are decided by no predicate; an experiment only has to state at
//! least one claim.

use mammoth_bench::{all_experiments, Basis, Scale};

/// The decided claims that fail at quick size: (experiment, the claim's
/// sentence, the EXPERIMENTS.md finding recording it, the experiment's data
/// points as `name: params`).
const FAILED: &[(&str, &str, &str, &[&str])] = &[(
    "e02",
    "once 2^B exceeds the TLB entries and cache lines, several passes cluster more cheaply than one",
    "E02 finding: one pass stays cheapest at 6 bits in simulation",
    &[
        "simulated_cluster: bits=6 passes=1 cycles=187066",
        "simulated_cluster: bits=6 passes=2 cycles=198235",
        "simulated_cluster: bits=6 passes=3 cycles=210535",
        "simulated_cluster: bits=10 passes=1 cycles=211420",
        "simulated_cluster: bits=10 passes=2 cycles=198448",
        "simulated_cluster: bits=10 passes=3 cycles=210529",
        "simulated_cluster: bits=14 passes=1 cycles=219358",
        "simulated_cluster: bits=14 passes=2 cycles=198493",
        "simulated_cluster: bits=14 passes=3 cycles=210559",
    ],
)];

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

fn check(id: &str) {
    let (_, _, run) = all_experiments()
        .into_iter()
        .find(|(e, _, _)| *e == id)
        .expect("a listed experiment");
    let report = run(Scale::Quick);
    assert!(!report.claims.is_empty(), "{id} states no claim");
    for claim in &report.claims {
        let held = match claim.basis {
            Basis::Exact(held) | Basis::Simulated(held) => held,
            Basis::WallClock => continue,
        };
        let pinned_failed = FAILED
            .iter()
            .any(|&(e, sentence, _, _)| e == id && sentence == claim.sentence);
        assert_eq!(
            held,
            !pinned_failed,
            "{id}: \"{}\" is {}\n{report}",
            claim.sentence,
            claim.verdict()
        );
    }
    for &(_, sentence, finding, points) in FAILED.iter().filter(|(e, ..)| *e == id) {
        assert!(
            report.claims.iter().any(|c| c.sentence == sentence),
            "{id} no longer states the pinned failure \"{sentence}\""
        );
        assert!(
            EXPERIMENTS_MD.contains(finding),
            "EXPERIMENTS.md has no entry \"{finding}\""
        );
        let reported: Vec<String> = report
            .metrics
            .iter()
            .map(|m| {
                let params: Vec<String> =
                    m.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{}: {}", m.name, params.join(" "))
            })
            .collect();
        assert_eq!(
            reported, points,
            "{id}: the pinned failure's numbers moved\n{report}"
        );
    }
}

/// One test per experiment, so that the harness runs them side by side.
macro_rules! pinned {
    ($($id:ident),*) => {
        $(
            #[test]
            fn $id() {
                check(stringify!($id));
            }
        )*

        #[test]
        fn every_experiment_is_pinned() {
            let ids: Vec<&str> = all_experiments().iter().map(|(id, _, _)| *id).collect();
            assert_eq!(ids, [$(stringify!($id)),*]);
        }
    };
}

pinned!(
    e01, e02, e03, e04, e05, e06, e07, e08, e09, e10, e11, e12, e13, e14, e15, e16, e17, e18, e20,
    e22, e23, e25
);
