//! `results/BENCH_sim.json`: the record `sim_bench` writes, and the doc
//! blocks rendered from it. The docs quote the benchmark only between
//! `<!-- generated: BENCH_sim <record> -->` and `<!-- /generated -->`;
//! [`render`] rewrites that text from the JSON (`bench_report
//! --render-docs`), and the `doc_blocks` test fails when re-rendering
//! changes any of it, so a quoted number cannot drift from the file.

use crate::results_dir;
use serde::{Deserialize, Serialize};

/// The docs that may hold generated blocks, relative to the workspace root.
pub const DOC_FILES: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

/// The command that regenerates the blocks.
pub const RENDER_COMMAND: &str = "cargo run -p ipg-bench --bin bench_report -- --render-docs";

const OPEN: &str = "<!-- generated: BENCH_sim ";
const CLOSE: &str = "<!-- /generated -->";

/// Median and quartiles of one backend's samples (nearest rank).
#[derive(Serialize, Deserialize, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    /// Summarize `samples` (at least one).
    pub fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let rank = |q: usize| s[(q * (s.len() - 1) + 2) / 4];
        Spread {
            median: rank(2),
            q1: rank(1),
            q3: rank(3),
        }
    }
}

/// One routing backend's timings over its fresh-process samples.
#[derive(Serialize, Deserialize)]
pub struct BackendTiming {
    pub build_secs: Spread,
    pub run_secs: Spread,
    /// Simulated cycles per second of the median run (steady state).
    pub cycles_per_sec: f64,
    /// Simulated cycles per second including the median router build —
    /// what `ipg simulate` delivers.
    pub end_to_end_cycles_per_sec: f64,
}

/// The all-pairs table vs the codec router on the same schedule.
#[derive(Serialize, Deserialize)]
pub struct TableVsCodec {
    pub network: String,
    pub nodes: usize,
    pub cycles: u32,
    pub injection_rate: f64,
    /// Fresh child processes per backend, run as alternating pairs.
    pub samples: usize,
    pub delivered: u64,
    /// Every child of both backends delivered `delivered` packets.
    pub delivered_match: bool,
    pub table: BackendTiming,
    pub codec: BackendTiming,
    /// Median table build + run over median codec build + run.
    pub speedup_end_to_end: f64,
    /// Median table run over median codec run.
    pub speedup_steady_state: f64,
}

/// Peak memory of a distributed and an in-process run of one network,
/// each in its own fresh process.
#[derive(Serialize, Deserialize)]
pub struct MemorySplit {
    pub network: String,
    pub nodes: usize,
    pub cycles: u32,
    pub injection_rate: f64,
    pub workers: u32,
    pub delivered: u64,
    /// The distributed and the in-process run delivered the same count.
    pub delivered_match: bool,
    pub dist_run_secs: f64,
    pub inproc_run_secs: f64,
    /// `VmHWM` of the process that ran `run_dist`: the coordinator peak.
    pub coordinator_rss_kb: u64,
    /// `VmHWM` of the process that ran the in-process engine.
    pub single_process_rss_kb: u64,
    /// Each worker's `VmHWM`: a shard range and a codec router, never
    /// the graph.
    pub worker_rss_kb: Vec<u64>,
}

/// The whole of `results/BENCH_sim.json`.
#[derive(Serialize, Deserialize)]
pub struct SimBench {
    pub bench: String,
    pub ipg_threads: usize,
    pub table_vs_codec: TableVsCodec,
    pub memory_split: MemorySplit,
}

/// Read the committed `results/BENCH_sim.json`.
pub fn load() -> Result<SimBench, String> {
    let path = results_dir().join("BENCH_sim.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn spread_ms(s: &Spread) -> String {
    let [m, q1, q3] = [s.median, s.q1, s.q3].map(|x| x * 1e3);
    format!("{m:.1} ({q1:.1}–{q3:.1})")
}

fn gib(kb: u64) -> String {
    format!("{:.2} GiB", kb as f64 / (1024.0 * 1024.0))
}

/// The body of block `name`, ending in a newline.
pub fn render_block(name: &str, b: &SimBench) -> Result<String, String> {
    let threads = b.ipg_threads;
    match name {
        "table_vs_codec" => {
            let TableVsCodec {
                network,
                nodes,
                cycles,
                injection_rate: rate,
                samples,
                delivered,
                table,
                codec,
                speedup_end_to_end: end_to_end,
                speedup_steady_state: steady,
                ..
            } = &b.table_vs_codec;
            let row = |label: &str, x: &BackendTiming| {
                let (build, run) = (spread_ms(&x.build_secs), spread_ms(&x.run_secs));
                let (cps, e2e) = (x.cycles_per_sec, x.end_to_end_cycles_per_sec);
                format!("| {label} | {build} | {run} | {cps:.0} | {e2e:.0} |\n")
            };
            let (table, codec) = (row("all-pairs table", table), row("codec", codec));
            Ok(format!(
                "| backend | router build, ms: median (quartiles) | run, ms: median (quartiles) \
                 | cycles/s | end-to-end cycles/s |\n|---|---|---|---|---|\n{table}{codec}\n\
                 {network}, {nodes} nodes, {cycles} cycles at rate {rate}; {samples} \
                 fresh-process samples per backend at `ipg_threads` {threads}, every one \
                 delivering {delivered} packets. End-to-end speedup **{end_to_end:.2}×**, \
                 steady-state **{steady:.2}×**.\n"
            ))
        }
        "memory_split" => {
            let MemorySplit {
                network,
                nodes,
                cycles,
                injection_rate: rate,
                workers,
                delivered,
                coordinator_rss_kb,
                single_process_rss_kb,
                worker_rss_kb,
                ..
            } = &b.memory_split;
            let [single, coordinator] = [*single_process_rss_kb, *coordinator_rss_kb].map(gib);
            let worker = gib(worker_rss_kb.iter().copied().max().unwrap_or(0));
            Ok(format!(
                "| process (fresh, one per row) | peak RSS (`VmHWM`) |\n|---|---|\n\
                 | in-process engine | {single} |\n\
                 | `run_dist` coordinator, {workers} workers | {coordinator} |\n\
                 | largest of the {workers} workers | {worker} |\n\n\
                 {network}, {nodes} nodes, {cycles} cycles at rate {rate}; both runs \
                 delivered {delivered} packets.\n"
            ))
        }
        other => Err(format!("unknown generated block `{other}`")),
    }
}

/// Re-render every generated block of `doc` from `b`; text outside the
/// blocks is kept byte for byte.
pub fn render(doc: &str, b: &SimBench) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut lines = doc.split_inclusive('\n').enumerate();
    while let Some((no, line)) = lines.next() {
        out.push_str(line);
        let Some(name) = line.trim().strip_prefix(OPEN) else {
            continue;
        };
        let name = name
            .strip_suffix("-->")
            .ok_or_else(|| format!("line {}: unclosed block marker", no + 1))?;
        out.push_str(&render_block(name.trim(), b).map_err(|e| format!("line {}: {e}", no + 1))?);
        let close = lines
            .find(|(_, l)| l.trim() == CLOSE)
            .ok_or_else(|| format!("line {}: block has no `{CLOSE}`", no + 1))?;
        out.push_str(close.1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_nearest_rank_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let one = Spread::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn render_rejects_malformed_blocks() {
        let b = load().expect("committed BENCH_sim.json parses");
        let unknown = "x\n<!-- generated: BENCH_sim nope -->\n<!-- /generated -->\n";
        assert!(render(unknown, &b).unwrap_err().contains("line 2"));
        let open = "<!-- generated: BENCH_sim memory_split -->\nstale\n";
        assert!(render(open, &b)
            .unwrap_err()
            .contains("no `<!-- /generated -->`"));
        let plain = "no blocks here\n";
        assert_eq!(render(plain, &b).unwrap(), plain);
    }
}
