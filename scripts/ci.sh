#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the full test suite, and the malcheck
# plan corpus. Run from the repository root; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
echo "==> rustdoc -D warnings: no broken or private doc link"
RUSTDOCFLAGS='-D warnings' cargo doc -q --offline --no-deps --workspace --exclude proptest

echo "==> unsafe gate: the dispatch call in mammoth-algebra, and nothing else"
# The workspace is safe Rust but for one call: the one into the
# `target_feature` instantiation of a multiversioned kernel
# (crates/algebra/src/multiversion.rs; policy in DESIGN.md). The keyword in
# code position anywhere else, or twice there, fails the build.
unsafe_use='\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)'
dispatch=crates/algebra/src/multiversion.rs
stray=$(grep -rnE --include='*.rs' "$unsafe_use" crates/*/src src | grep -v "^$dispatch:" || true)
[ -z "$stray" ] || { echo "unsafe outside $dispatch:"; echo "$stray"; exit 1; }
[ "$(grep -cE "$unsafe_use" "$dispatch")" -eq 1 ] \
    || { echo "$dispatch must hold exactly one unsafe block"; exit 1; }

echo "==> pass-order gate: no optimizer pipeline is assembled outside crates/mal"
# The pass order is written once (crates/mal/src/optimizer.rs, `passes`);
# a session picks one of the public views of it and builds none of its own.
stray=$(grep -rn --include='*.rs' 'Pipeline::new()' crates/*/src | grep -v '^crates/mal/' || true)
[ -z "$stray" ] || { echo "a pass list hand-built beside mammoth-mal's:"; echo "$stray"; exit 1; }

echo "==> one byte codec: disk and wire bytes are read and written in mammoth_types::codec"
# A value, a type tag or a bounds-checked reader written out a second time
# is a format that can drift from the one replicas and clients decode.
codec=crates/types/src/codec.rs
stray=$(grep -rnE --include='*.rs' 'struct Reader\b|fn (put_value|get_value|ty_tag|tag_ty)\b' \
    crates/*/src | grep -v "^$codec:" || true)
[ -z "$stray" ] || { echo "a byte codec beside $codec:"; echo "$stray"; exit 1; }

echo "==> one statement generator: the differential tiers draw from tests/support/gen.rs"
# A tier that writes its own workload generator covers what its author
# thought of; a production added to the shared one reaches every tier.
stray=$(grep -nE 'fn gen_query|fn random_where|fn random_plan|struct Workload|fn workload\(' \
    tests/*.rs || true)
[ -z "$stray" ] || { echo "a generator beside tests/support/gen.rs:"; echo "$stray"; exit 1; }

echo "==> one fold: a name is folded where it enters and compared byte for byte after"
# SQL parser, listener, catalog, MAL parser (DESIGN.md's sql row); keyword, type, CLI matches
entry='crates/(sql/src/(lexer|parser)|storage/src/catalog|types/src/(schema|value)|server/src/(listener|bin/cli)|mal/src/parser)\.rs:'
stray=$(grep -rnE --include='*.rs' '(to_|make_)(ascii_)?lowercase|eq_ignore_ascii_case' crates/*/src \
    | grep -vE "^$entry" || true)
[ -z "$stray" ] || { echo "a name folded past its entry point:"; echo "$stray"; exit 1; }

echo "==> docs name no missing file"
# A crates/ examples/ scripts/ tests/ path or glob in the docs must exist; `{a,b}/tests/` is no path.
stray=$(grep -ohP '(?<!}/)\b(crates|examples|scripts|tests)/[A-Za-z0-9_.*/-]*[A-Za-z0-9_*]' README.md \
    DESIGN.md EXPERIMENTS.md docs/*.md | sort -u | while read -r p; do compgen -G "$p" >/dev/null || echo "$p"; done)
[ -z "$stray" ] || { echo "docs name files that do not exist:"; echo "$stray"; exit 1; }

echo "==> serving gate: mammoth-server links no evidence crate"
# What reproduces a paper claim but serves no request (DESIGN.md's "serves /
# evidence" column) stays out of the daemons.
evidence='recycler|cracking|bufferpool|volcano|cache|compression|xpath|stream|workload|bench|index'
linked=$(cargo tree --offline -p mammoth-server -e normal --prefix none \
    | grep -E "^mammoth-($evidence) " | sort -u || true)
[ -z "$linked" ] || { echo "mammoth-server links evidence crates:"; echo "$linked"; exit 1; }

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
# The root package's tests/ are the integration tiers; the crate-level suites
# and the daemon binaries' own tests (crates/{server,replica,shard}/tests/daemon.rs)
# only run with --workspace.
cargo test -q --offline --workspace
# The compile and write paths' allocation budgets (tests/compile_budget.rs,
# tests/write_budget.rs) again in release, which verifies a plan once on exit
# and drops the write path's debug re-validation. Counts, not timings.
cargo test -q --offline --release --test compile_budget --test write_budget
# the AVX2 select kernel is only vectorized in an optimized build: check it there
cargo test -q --offline --release -p mammoth-algebra select::tests::dispatch

echo "==> benchmark package: every workload at --quick sizes against its oracle"
# benchmark/ is its own workspace, so the root test run never builds it; a
# changed public signature in crates/* would otherwise break it unseen
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> crash matrix: kill-point sweep under seeded workloads"
for seed in 1 2 3 4; do
    echo "    MAMMOTH_FAULT_SEED=$seed"
    MAMMOTH_FAULT_SEED=$seed cargo test -q --test durability
done

echo "==> engines agree under the MAMMOTH_THREADS matrix"
for threads in 1 4; do
    echo "    MAMMOTH_THREADS=$threads"
    MAMMOTH_THREADS=$threads cargo test -q --test engines_agree
done

echo "==> trace matrix: profiled test runs must emit a validating trace"
trace_file=$(mktemp -u /tmp/mammoth_trace.XXXXXX.jsonl)
MAMMOTH_TRACE=$trace_file cargo test -q --test sql_end_to_end
MAMMOTH_TRACE=$trace_file MAMMOTH_THREADS=2 cargo test -q --test engines_agree
MAMMOTH_TRACE=$trace_file cargo test -q --test durability
cargo run -q -p mammoth-types --bin tracecheck -- "$trace_file"
rm -f "$trace_file"

echo "==> chaos matrix: seeded network-fault schedules over the cluster tier"
for seed in 1 2 3 4; do
    echo "    MAMMOTH_NET_FAULT_SEED=$seed"
    MAMMOTH_NET_FAULT_SEED=$seed cargo test -q --test chaos
done

echo "==> malcheck: well-formed plans must verify (profiler must not interfere)"
good=$(ls examples/plans/*.mal | grep -v '/bad_')
# shellcheck disable=SC2086
MAMMOTH_TRACE=/dev/null cargo run -q -p mammoth-mal --bin malcheck -- $good

echo "==> malcheck: malformed plans must be rejected"
cargo run -q -p mammoth-mal --bin malcheck -- --expect-error examples/plans/bad_*.mal

echo "==> props: inferred properties match the golden snapshot (BLESS=1 re-blesses)"
props_golden=tests/golden/malcheck_props.golden
# shellcheck disable=SC2086
props_out=$(cargo run -q -p mammoth-mal --bin malcheck -- --props --no-pipeline $good \
    | grep -E '^==|^   props')
if [ "${BLESS:-0}" = "1" ]; then
    printf '%s\n' "$props_out" > "$props_golden"
    echo "    blessed $props_golden"
else
    diff -u "$props_golden" <(printf '%s\n' "$props_out") \
        || { echo "props: snapshot drifted (re-bless with BLESS=1 scripts/ci.sh)"; exit 1; }
fi

echo "==> props: runtime checker finds zero violations across engines"
# the SQL, durable and DML tiers run checked too: they bind columns with deletes
# pending, after recovery and across folds, which props_soundness alone missed
MAMMOTH_CHECK_PROPS=1 cargo test -q --test props_soundness --test sql_end_to_end \
    --test durability --test dml_model --test optimizer_equivalence
MAMMOTH_CHECK_PROPS=1 cargo test -q -p mammoth-sql durable
# and the engine differential under its thread matrix: what a fused pipeline
# binds, per statement and per mitosis fragment, holds its inferred properties
for threads in 1 4; do
    echo "    MAMMOTH_CHECK_PROPS=1 MAMMOTH_THREADS=$threads"
    MAMMOTH_CHECK_PROPS=1 MAMMOTH_THREADS=$threads cargo test -q --test engines_agree
done

echo "==> ci: all gates passed"
