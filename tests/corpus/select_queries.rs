// The SELECT corpus of `tests/optimizer_equivalence.rs`, shared (by
// `include!`) with the optimizer differential in `crates/mal`, which runs
// the same statements through the passes and their retained predecessors.
const QUERIES: &[&str] = &[
    "SELECT a FROM t WHERE a > 50",
    "SELECT a, b FROM t WHERE a >= 10 AND a <= 60 AND b > 0",
    "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s ORDER BY s",
    "SELECT COUNT(*), MIN(b), MAX(b), AVG(a) FROM t WHERE s <> 'val_0'",
    "SELECT a FROM t WHERE a BETWEEN 20 AND 30 ORDER BY a DESC LIMIT 7",
    "SELECT t.s, u.w FROM t JOIN u ON t.a = u.a WHERE b > 0 ORDER BY s LIMIT 50",
    "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b LIMIT 5",
    "SELECT s FROM t WHERE s = 'val_3' AND a < 90",
    // candidate-threaded shapes: several predicates on one column (a fused
    // range plus a leftover), across columns, over a joined side, and top-N
    "SELECT a, b FROM t WHERE a > 10 AND a < 90 AND a <> 50",
    "SELECT COUNT(*), SUM(b) FROM t WHERE a BETWEEN 20 AND 70 AND b < 10 AND s <> 'val_1'",
    "SELECT a FROM t WHERE a > 95 AND a >= 96 AND a < 3",
    "SELECT t.s, u.w FROM t JOIN u ON t.a = u.a WHERE u.w >= 2 AND u.w < 8 AND t.b > 0 ORDER BY s LIMIT 20",
    "SELECT a, b FROM t WHERE b >= -10 AND b < 10 ORDER BY a DESC LIMIT 9",
    "SELECT b, s FROM t WHERE a >= 40 ORDER BY b LIMIT 3000",
];
