//! The experiment harness binary.
//!
//! ```text
//! cargo run -p mammoth-bench --release --bin exp -- list
//! cargo run -p mammoth-bench --release --bin exp -- e03 e07
//! cargo run -p mammoth-bench --release --bin exp -- all
//! cargo run -p mammoth-bench --release --bin exp -- --quick all
//! cargo run -p mammoth-bench --release --bin exp -- --json e22 > BENCH_E22.json
//! ```
//!
//! Every experiment prints the table recorded in EXPERIMENTS.md. With
//! `--json`, the human-readable tables go to stderr and stdout carries one
//! JSON document: per experiment the id, wall clock, and the data points
//! it recorded (name, params, wall-clock, simulated cache misses).

use mammoth_bench::{all_experiments, json_escape, take_metrics, Scale};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json = false;
    args.retain(|a| match a.as_str() {
        "--quick" => {
            scale = Scale::Quick;
            false
        }
        "--json" => {
            json = true;
            false
        }
        _ => true,
    });
    let experiments = all_experiments();

    if args.is_empty() || args[0] == "list" {
        println!("usage: exp [--quick] [--json] <id...|all>\n\nexperiments:");
        for (id, desc, _) in &experiments {
            println!("  {id}  {desc}");
        }
        return;
    }

    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments.iter().map(|(id, _, _)| *id).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let mut unknown = Vec::new();
    let mut json_blocks: Vec<String> = Vec::new();
    for want in &selected {
        match experiments.iter().find(|(id, _, _)| id == want) {
            None => unknown.push(want.to_string()),
            Some((id, desc, run)) => {
                let t0 = std::time::Instant::now();
                let report = run(scale);
                let elapsed = t0.elapsed();
                if json {
                    eprintln!("{report}");
                    let metrics: Vec<String> = take_metrics().iter().map(|m| m.to_json()).collect();
                    json_blocks.push(format!(
                        "    {{\"id\": \"{}\", \"description\": \"{}\", \
                         \"wall_clock_s\": {:.3}, \"metrics\": [\n      {}\n    ]}}",
                        json_escape(id),
                        json_escape(desc),
                        elapsed.as_secs_f64(),
                        metrics.join(",\n      ")
                    ));
                } else {
                    println!("{}", "=".repeat(78));
                    println!("{report}");
                    println!("[{id} took {elapsed:.1?}]\n");
                    take_metrics(); // drop; only --json consumes them
                }
            }
        }
    }
    if json {
        let scale_name = match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        println!(
            "{{\n  \"scale\": \"{scale_name}\",\n  \"experiments\": [\n{}\n  ]\n}}",
            json_blocks.join(",\n")
        );
    }
    if !unknown.is_empty() {
        eprintln!("unknown experiments: {unknown:?} (try `exp list`)");
        std::process::exit(1);
    }
}
