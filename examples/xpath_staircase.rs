//! The XML front-end and the staircase join (§3.2).
//!
//! Encodes a synthetic XML document into `<pre,post>` BATs, evaluates XPath
//! location paths, and compares the staircase join against the naive region
//! join — same answers, very different work.
//!
//! Run with: `cargo run --release --example xpath_staircase`

use mammoth::Database;
use mammoth_xpath::encode::synthetic_tree;
use mammoth_xpath::{descendants_naive, descendants_staircase, eval_path, Doc};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ~100k-node synthetic document (the XMark substitute)
    let tree = synthetic_tree(10, 3, 8, 2024);
    let doc = Doc::encode(&tree);
    println!(
        "document: {} nodes, {} distinct tags, depth ≤ 10\n",
        doc.len(),
        doc.tag_names.len()
    );

    // XPath evaluation over the region encoding
    for path in ["/root/t1", "//t1", "//t1//t2", "/root/*/t3"] {
        let t0 = Instant::now();
        let hits = eval_path(&doc, path)?;
        println!(
            "{path:<14} -> {:>7} nodes  in {:.2?}",
            hits.len(),
            t0.elapsed()
        );
    }

    // staircase vs naive on a large context
    let context = doc.nodes_with_tag("t1");
    println!("\ndescendant axis from {} context nodes:", context.len());
    let t0 = Instant::now();
    let fast = descendants_staircase(&doc, &context);
    let t_fast = t0.elapsed();
    let t0 = Instant::now();
    let naive = descendants_naive(&doc, &context);
    let t_naive = t0.elapsed();
    assert_eq!(fast, naive);
    println!(
        "  staircase join : {t_fast:>10.2?}  ({} results)",
        fast.len()
    );
    println!("  naive region   : {t_naive:>10.2?}  (same results)");

    // the same encoding is a relational table: SQL over XML
    let mut db = Database::new();
    let small = synthetic_tree(5, 3, 4, 7);
    db.register_xml("doc", &small)?;
    println!("\nSQL over the encoded document (tag histogram):");
    let out = db.execute("SELECT tag, COUNT(*) FROM doc GROUP BY tag ORDER BY tag")?;
    println!("{}", out.to_text());
    Ok(())
}
