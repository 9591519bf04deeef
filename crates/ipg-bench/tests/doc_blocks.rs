//! README.md, EXPERIMENTS.md and DESIGN.md quote `results/BENCH_sim.json`
//! only inside generated blocks. Re-rendering the blocks from the
//! committed JSON must reproduce the docs byte for byte, so a quoted
//! number cannot drift from the file it comes from.

use ipg_bench::{bench_sim, workspace_root};

#[test]
fn generated_doc_blocks_match_committed_bench_sim_json() {
    let bench = bench_sim::load().unwrap_or_else(|e| panic!("{e}"));
    let mut docs = String::new();
    for name in bench_sim::DOC_FILES {
        let doc = std::fs::read_to_string(workspace_root().join(name))
            .unwrap_or_else(|e| panic!("read {name}: {e}"));
        let rendered = bench_sim::render(&doc, &bench).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some((no, (have, want))) = doc
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (have, want))| have != want)
        {
            panic!(
                "{name}:{}: generated block is stale\n  committed: {have}\n  rendered:  {want}\n\
                 regenerate with `{}`",
                no + 1,
                bench_sim::RENDER_COMMAND
            );
        }
        assert_eq!(
            doc.lines().count(),
            rendered.lines().count(),
            "{name}: generated block is stale; regenerate with `{}`",
            bench_sim::RENDER_COMMAND
        );
        docs.push_str(&doc);
    }
    for record in ["table_vs_codec", "memory_split"] {
        assert!(
            docs.contains(&format!("<!-- generated: BENCH_sim {record} -->")),
            "no doc renders the `{record}` record of BENCH_sim.json"
        );
    }
}
