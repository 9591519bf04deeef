//! Observability must not perturb, and must not be perturbed by, the
//! simulation: the metric dump is a pure function of the computation.
//!
//! The `ipg-obs` contract splits manifest records into two families:
//! `window` and `metrics` records carry only computation-derived values
//! (counters, gauges, histogram summaries) in sorted name order, while
//! wall-clock time is confined to `meta`, `span` and `rate` records.
//! Hence two runs with the same `SimConfig.seed` must produce
//! byte-identical metric dumps — and runs with and without observability
//! attached must report identical simulation results.

use ipg_core::graph::Csr;
use ipg_networks::classic;
use ipg_obs::Obs;
use ipg_sim::engine::{run_uniform, SimConfig, SimResult, Simulator};
use ipg_sim::RoutingTable;

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        injection_rate: 0.08,
        warmup_cycles: 200,
        measure_cycles: 500,
        drain_cycles: 400,
        seed,
        ..SimConfig::default()
    }
}

/// A simulator whose routing-table build records into `obs` as well.
fn observed_sim<'g>(g: &'g Csr, cfg: &SimConfig, obs: &Obs) -> Simulator<'g> {
    Simulator::with_router(RoutingTable::new_instrumented(g, obs), g, |_| 0, cfg)
}

/// One instrumented run: returns (SimResult, final metric dump, the
/// deterministic record lines of the manifest).
fn run_once(seed: u64) -> (SimResult, String, String) {
    let g = classic::hypercube(6);
    let (obs, mem) = Obs::in_memory();
    let result = observed_sim(&g, &cfg(seed), &obs)
        .run_traced(&cfg(seed), &obs, 100, None)
        .0;
    let metrics = obs.metrics_json();
    obs.finish();
    let deterministic: Vec<String> = mem
        .contents()
        .lines()
        .filter(|l| ipg_obs::is_deterministic_record(l))
        .map(str::to_string)
        .collect();
    assert!(
        !deterministic.is_empty(),
        "expected window snapshots and a final metrics record"
    );
    (result, metrics, deterministic.join("\n"))
}

#[test]
fn same_seed_gives_byte_identical_metric_dumps() {
    let (r1, m1, lines1) = run_once(42);
    let (r2, m2, lines2) = run_once(42);
    assert_eq!(r1, r2, "simulation results must match");
    assert_eq!(m1, m2, "metric dumps must be byte-identical");
    assert_eq!(
        lines1, lines2,
        "window/metrics records must be byte-identical"
    );
    assert!(!m1.is_empty());
}

#[test]
fn different_seed_changes_the_metric_dump() {
    let (_, m1, _) = run_once(42);
    let (_, m2, _) = run_once(43);
    assert_ne!(m1, m2, "different traffic must show up in the metrics");
}

#[test]
fn observability_does_not_change_results() {
    let g = classic::hypercube(6);
    let plain = run_uniform(&g, &cfg(7));
    let (obs, _mem) = Obs::in_memory();
    let watched = observed_sim(&g, &cfg(7), &obs)
        .run_traced(&cfg(7), &obs, 50, None)
        .0;
    assert_eq!(plain, watched, "attaching obs must not perturb the run");
}

#[test]
fn tracing_does_not_change_results_or_deterministic_records() {
    // The flight recorder must be invisible to both the simulation and
    // the deterministic manifest families: results, the metric dump,
    // and window records are byte-identical with tracing on and off.
    use ipg_obs::TraceConfig;
    let g = classic::hypercube(6);
    let run = |trace: Option<&TraceConfig>| {
        let (obs, mem) = Obs::in_memory();
        let mut sim = observed_sim(&g, &cfg(7), &obs);
        let (result, trace_out) = sim.run_traced(&cfg(7), &obs, 100, trace);
        let metrics = obs.metrics_json();
        obs.finish();
        let deterministic: Vec<String> = mem
            .contents()
            .lines()
            .filter(|l| ipg_obs::is_deterministic_record(l))
            .map(str::to_string)
            .collect();
        (result, metrics, deterministic.join("\n"), trace_out)
    };
    let tc = TraceConfig::with_interval(64);
    let (r_off, m_off, d_off, t_off) = run(None);
    let (r_on, m_on, d_on, t_on) = run(Some(&tc));
    assert!(t_off.is_none());
    assert_eq!(r_off, r_on, "tracing must not change results");
    assert_eq!(m_off, m_on, "tracing must not change the metric dump");
    assert_eq!(d_off, d_on, "tracing must not change window records");
    assert!(!t_on.unwrap().events.is_empty());
}

#[test]
fn accounting_invariant_holds() {
    // a ring saturates easily: 32 nodes at 0.5 inj/node/cycle with avg
    // distance 8 offer ~2 pkts/cycle/link against capacity 1, so the
    // short drain is guaranteed to leave a backlog
    let g = classic::ring(32);
    let heavy = SimConfig {
        injection_rate: 0.5,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 50,
        ..cfg(3)
    };
    let r = run_uniform(&g, &heavy);
    assert_eq!(
        r.injected,
        r.delivered + r.in_flight_at_end,
        "every tagged packet is delivered or still buffered"
    );
    assert!(r.in_flight_at_end > 0, "short drain must leave a backlog");
    assert!(
        r.unmeasured_delivered > 0,
        "warmup traffic drains unmeasured"
    );
}
