//! Shared reporting for the figure binaries: every bin writes its result
//! series as pretty JSON under `results/` *and* a JSON-lines
//! observability manifest (`results/<name>.manifest.jsonl`) recording
//! the config, git revision, span timings and the final metric dump.
//!
//! Usage pattern (see `src/bin/sim_latency.rs`):
//!
//! ```ignore
//! let rep = report::start("sim_latency", &[("seed", 7u64.into())]);
//! let _span = rep.obs().span("hypercube Q12");
//! let table = RoutingTable::new_instrumented(&g, rep.obs());
//! let mut sim = Simulator::with_router(table, &g, |u| class[u as usize], &cfg);
//! let out = sim.run_traced(&cfg, rep.obs(), 0, None).0;
//! rep.json("sim_latency", &rows);
//! rep.finish();
//! ```

use crate::{results_dir, write_json};
use ipg_obs::{MetaVal, Obs};
use serde::Serialize;

/// Handle pairing a result-JSON name with an open manifest.
pub struct Report {
    name: String,
    obs: Obs,
}

/// Open `results/<name>.manifest.jsonl` and stamp the `meta` record
/// (tool name, git describe, timestamp, config key/values, and the pool's
/// resolved worker count as `ipg_threads`). If the manifest cannot be
/// created the report degrades to a disabled `Obs` rather than failing
/// the experiment.
pub fn start(name: &str, config: &[(&str, MetaVal)]) -> Report {
    let path = results_dir().join(format!("{name}.manifest.jsonl"));
    let obs = match Obs::to_file(&path) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!(
                "note: manifest {} unavailable ({e}); continuing without",
                path.display()
            );
            Obs::disabled()
        }
    };
    let mut full: Vec<(&str, MetaVal)> = config.to_vec();
    full.push((
        "ipg_threads",
        MetaVal::from(rayon::current_num_threads() as u64),
    ));
    obs.emit_meta(name, &full);
    // Reset the pool accounting so the first `scaling` phase is attributed
    // from the start of this run.
    let _ = rayon::pool::take_stats();
    Report {
        name: name.to_string(),
        obs,
    }
}

impl Report {
    /// The observability handle to thread through `*_instrumented` runs.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Serialize a result series to `results/<name>.json` (the name is
    /// explicit because some bins emit several series).
    pub fn json<T: Serialize>(&self, name: &str, value: &T) {
        write_json(name, value);
    }

    /// Close an execution phase: emit a `scaling` record carrying the
    /// pool's busy/wall accounting (and hence achieved speedup) since the
    /// previous `scaling` call or report start, and return the stats for
    /// table printing. Wall-clock family — never in the metric dump.
    pub fn scaling(&self, phase: &str) -> rayon::pool::PoolStats {
        let st = rayon::pool::take_stats();
        self.obs.emit_scaling(
            phase,
            rayon::current_num_threads(),
            st.busy_secs(),
            st.wall_secs(),
        );
        st
    }

    /// Close the manifest: append the final `metrics` record (all
    /// counters, gauges and histogram summaries) and flush.
    pub fn finish(self) {
        self.obs.finish();
        eprintln!(
            "wrote {}",
            results_dir()
                .join(format!("{}.manifest.jsonl", self.name))
                .display()
        );
    }
}
