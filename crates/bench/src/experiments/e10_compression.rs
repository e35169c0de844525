//! E10 — Light-weight compression (§5, \[44\]).
//!
//! "Vectorized ultra-fast compression methods that decompress values in
//! less than 5 CPU cycles per tuple." For every scheme × data shape:
//! compression ratio and decode throughput. On a ~3 GHz machine, 5
//! cycles/value ≈ 600 M values/s; the light-weight schemes should be in
//! that ballpark, unlike heavyweight general-purpose compression.

use crate::table::TextTable;
use crate::{timed, Report, Scale};
use mammoth_compression::{compress, compressed_size, decompress, pick_scheme, Scheme};
use mammoth_workload::{clustered_i64, quasi_sorted_i64, sorted_i64, uniform_i64, zipf_i64};

const PICKER: &str =
    "for each data shape the scheme picker chooses the scheme with the best compression ratio";
const DECODE: &str = "light-weight schemes decompress in under 5 CPU cycles per value";

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 16, 1 << 22);
    let datasets: Vec<(&str, Vec<i64>)> = vec![
        ("sorted (dense)", sorted_i64(n, 0, 3, 1)),
        ("quasi-sorted", quasi_sorted_i64(n, 0.001, 2)),
        ("zipf (skewed)", zipf_i64(n, 1 << 20, 1.1, 3)),
        ("uniform narrow", uniform_i64(n, 0, 100_000, 4)),
        ("clustered runs", clustered_i64(n, 64, 5)),
    ];
    let schemes = [Scheme::Rle, Scheme::Dict, Scheme::Pfor, Scheme::PforDelta];

    let mut out = String::new();
    out.push_str(&format!(
        "E10  Compression: ratio and decode throughput over {n} i64 values\n\n"
    ));
    let mut picks_best = true;

    for (dname, data) in &datasets {
        let mut t = TextTable::new(vec![
            "scheme",
            "ratio",
            "decode Mval/s",
            "approx cycles/val @3GHz",
        ]);
        let picked = pick_scheme(data);
        let (mut smallest, mut picked_bytes) = (usize::MAX, 0);
        for &s in &schemes {
            let enc = compress(data, s);
            let bytes = compressed_size(&enc);
            smallest = smallest.min(bytes);
            if s == picked {
                picked_bytes = bytes;
            }
            let ratio = (data.len() * 8) as f64 / bytes.max(1) as f64;
            // decode repeatedly for a stable measurement
            let reps = (4usize)
                .max(1 << 22 >> (n.trailing_zeros().min(22)))
                .min(16);
            let (decoded, secs) = timed(|| {
                let mut last = Vec::new();
                for _ in 0..reps {
                    last = decompress(&enc);
                }
                last
            });
            assert_eq!(&decoded, data, "{dname}/{s:?} roundtrip");
            let per_val = secs / (reps * n) as f64;
            t.row(vec![
                s.name().to_string(),
                format!("{ratio:.1}x"),
                format!("{:.0}", 1.0 / per_val / 1e6),
                format!("{:.1}", per_val * 3.0e9),
            ]);
        }
        picks_best &= picked_bytes == smallest;
        out.push_str(&format!(
            "data: {dname}  (picker chooses: {})\n",
            picked.name()
        ));
        out.push_str(&t.render());
        out.push('\n');
    }
    Report::new(out)
        .exact("§5 [44]", PICKER, picks_best)
        .wall_clock("§5 [44]", DECODE)
}
