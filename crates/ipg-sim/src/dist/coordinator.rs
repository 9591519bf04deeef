//! Coordinator half of the multi-process simulation.
//!
//! [`run_dist`] forks `workers` OS processes (re-executing the host
//! binary in its hidden worker mode), hands each a contiguous range of
//! the deterministic shard layout over a private socket pair, and
//! drives the lock-step cycle protocol: read every worker's
//! [`OutboxFrame`] in worker order, split cross-worker messages into
//! origin-ordered `pre`/`post` streams per destination, send every
//! [`ArrivalsFrame`], repeat. Because shard boundaries, merge order,
//! and wheel geometry are all pure functions of the node count — never
//! of the worker count — delivered counts, manifests, and traces are
//! byte-identical to the in-process engine for every worker count.
//! Workers run the engine's own cycle driver and derive their shard
//! geometry; the coordinator ships only each worker's shard range and
//! link arrays, and shares the engine's metric registration
//! (`EngineObs::attach`) and warmup/measure/drain spans with the
//! in-process run.
//!
//! All socket traffic goes through [`super::frame`]; this file does no
//! raw I/O (lint DET008). Timeouts use [`Duration`] only — wall-clock
//! reads live behind `Obs` spans like everywhere else in the engine.

use std::collections::BTreeMap;
use std::process::Child;
use std::time::Duration;

use ipg_core::error::{IpgError, Result};
use ipg_core::graph::Csr;
use ipg_obs::{HistSnapshot, MetricSnapshot, Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};

use crate::engine::{
    phase_span, shard_layout, shard_link_arrays, shard_span, window_end, EngineObs, RunTotals,
    SimConfig, SimResult,
};
use crate::fault::FaultPlan;

use super::frame::{
    ArrivalsFrame, FinalFrame, FrameIo, OutboxFrame, ReadyFrame, SetupFrame, ShardLinksFrame,
    SnapshotFrame,
};

/// How to run a distributed simulation.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Requested worker processes (clamped to the shard count).
    pub workers: u32,
    /// Argv of the worker subcommand, e.g. `[current_exe, "worker"]`.
    /// The worker process must call [`super::worker_main`].
    pub worker_argv: Vec<String>,
    /// Network spec shipped to workers so they can rebuild the router.
    pub netspec: String,
    /// Metric window size in cycles (0 = no windows), matching the
    /// `window` argument of the in-process `run_traced`.
    pub window: u32,
    /// Flight-recorder config, or `None` for no tracing.
    pub trace: Option<TraceConfig>,
    /// Heartbeat: a worker that sends nothing for this long is treated
    /// as dead and the run fails with a contextual error, never a hang.
    pub read_timeout: Duration,
}

impl Default for DistConfig {
    fn default() -> DistConfig {
        DistConfig {
            workers: 1,
            worker_argv: Vec::new(),
            netspec: String::new(),
            window: 0,
            trace: None,
            read_timeout: Duration::from_secs(120),
        }
    }
}

/// Per-worker accounting from a finished distributed run.
#[derive(Clone, Debug)]
pub struct DistWorkerStats {
    /// Worker index.
    pub worker: u32,
    /// Number of shards the worker owned.
    pub shards: u32,
    /// Worker process peak RSS in KiB (`VmHWM`).
    pub rss_kb: u64,
    /// Frames the worker sent + received.
    pub frames: u64,
    /// Bytes the worker sent + received.
    pub frame_bytes: u64,
}

/// Everything a distributed run produces.
#[derive(Debug)]
pub struct DistRun {
    /// The merged simulation result — byte-identical to in-process.
    pub result: SimResult,
    /// The merged flight-recorder trace, when tracing was requested.
    pub trace: Option<Trace>,
    /// Per-worker transport and memory stats, in worker order.
    pub workers: Vec<DistWorkerStats>,
}

/// Child-process fleet with kill-on-drop semantics: any early return
/// (frame error, timeout, protocol violation) reaps every worker
/// instead of leaking orphans that hold the sockets open.
struct Fleet {
    children: Vec<Child>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Fold one worker's cumulative metric snapshot into the coordinator
/// registry as a delta against that worker's previous snapshot:
/// counters delta-add, gauges max-fold, histograms bucket-delta-merge.
fn absorb_worker_metrics(
    obs: &Obs,
    prev: &mut BTreeMap<String, MetricSnapshot>,
    metrics: Vec<(String, MetricSnapshot)>,
) {
    let empty_hist = HistSnapshot::default();
    for (name, snap) in metrics {
        match &snap {
            MetricSnapshot::Counter(cur) => {
                let before = match prev.get(&name) {
                    Some(MetricSnapshot::Counter(p)) => *p,
                    _ => 0,
                };
                obs.counter(&name).add(cur.saturating_sub(before));
            }
            MetricSnapshot::Gauge(cur) => {
                obs.gauge(&name).record_max(*cur);
            }
            MetricSnapshot::Hist(cur) => {
                let before = match prev.get(&name) {
                    Some(MetricSnapshot::Hist(p)) => p,
                    _ => &empty_hist,
                };
                obs.histogram(&name).merge_delta(before, cur);
            }
        }
        prev.insert(name, snap);
    }
}

/// Run one simulation across `dc.workers` OS processes. Semantically
/// identical to `Simulator::with_router(...).run_traced(...)` — same
/// results, same manifest records, same trace — with per-worker memory
/// bounded by its shard range instead of the whole network.
pub fn run_dist(
    g: &Csr,
    module: impl Fn(u32) -> u32,
    cfg: &SimConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
    dc: &DistConfig,
) -> Result<DistRun> {
    let n = g.node_count();
    let (shard_count, shard_size) = shard_layout(n);
    let wcount = (dc.workers.max(1) as usize).min(shard_count);
    if dc.worker_argv.is_empty() {
        return Err(IpgError::Dist {
            worker: u32::MAX,
            cycle: u64::MAX,
            detail: "DistConfig.worker_argv is empty — no worker command to spawn".to_string(),
        });
    }

    let run_span = obs.span("run");
    let track = obs.enabled();

    // Contiguous shard ranges, sized as evenly as possible.
    let per = shard_count / wcount;
    let rem = shard_count % wcount;
    let range_of = |w: usize| -> (u32, u32) {
        let lo = w * per + w.min(rem);
        let hi = lo + per + usize::from(w < rem);
        (lo as u32, hi as u32)
    };
    let mut worker_of_shard = vec![0usize; shard_count];
    for w in 0..wcount {
        let (lo, hi) = range_of(w);
        for s in lo..hi {
            worker_of_shard[s as usize] = w;
        }
    }

    // Spawn the fleet and ship Setup + per-shard links.
    let mut ios: Vec<FrameIo> = Vec::with_capacity(wcount);
    let mut fleet = Fleet {
        children: Vec::with_capacity(wcount),
    };
    let faults: Vec<crate::fault::FaultEvent> =
        plan.map(|p| p.events().to_vec()).unwrap_or_default();
    for w in 0..wcount {
        let (io, child) = FrameIo::spawn_worker_process(&dc.worker_argv, w as u32)?;
        io.set_exchange_deadline(Some(dc.read_timeout))?;
        fleet.children.push(child);
        ios.push(io);
    }
    for (w, io) in ios.iter_mut().enumerate() {
        let (lo, hi) = range_of(w);
        io.frame_send(&SetupFrame {
            worker: w as u32,
            n: n as u32,
            shard_lo: lo,
            shard_hi: hi,
            window: dc.window,
            track,
            faulted: plan.is_some(),
            trace: dc
                .trace
                .as_ref()
                .map(|tc| (tc.interval, tc.capacity as u64)),
            netspec: dc.netspec.clone(),
            cfg: cfg.clone(),
            faults: faults.clone(),
        })?;
        for si in lo..hi {
            let (base, node_count) = shard_span(n as u32, shard_size, si);
            let (link_of, to, off_module) = shard_link_arrays(g, &module, base, node_count);
            io.frame_send(&ShardLinksFrame {
                shard: si,
                link_of,
                to,
                off_module,
            })?;
        }
    }
    for (w, io) in ios.iter_mut().enumerate() {
        let ready: ReadyFrame = io.frame_recv()?;
        if ready.worker != w as u32 {
            return Err(io.fault(format!(
                "worker {w} reported ready as worker {}",
                ready.worker
            )));
        }
    }

    // Register the engine metrics the in-process run registers at run
    // start, so the registry's name set never depends on snapshot
    // timing. Values arrive as worker deltas.
    EngineObs::attach(obs);
    let mut prev_metrics: Vec<BTreeMap<String, MetricSnapshot>> =
        (0..wcount).map(|_| BTreeMap::new()).collect();

    let mut engine_tracer = dc
        .trace
        .as_ref()
        .map(|tc| ShardTracer::new(ENGINE_TRACK, tc));
    let mut arrivals: Vec<ArrivalsFrame> = (0..wcount)
        .map(|_| ArrivalsFrame {
            cycle: 0,
            pre: Vec::new(),
            post: Vec::new(),
        })
        .collect();

    let total_cycles = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
    let mut span = Some(obs.span("warmup"));
    for cycle in 0..total_cycles {
        phase_span(obs, cfg, cycle, &mut span);
        // Read every worker's outbox in worker order; split each
        // message by destination worker, preserving origin-shard order
        // within the `pre` (origins below dest) and `post` (origins
        // above dest) streams.
        let mut moved = 0u32;
        for (w, io) in ios.iter_mut().enumerate() {
            io.note_cycle(u64::from(cycle));
            let ob: OutboxFrame = io.recv_at(u64::from(cycle))?;
            moved += ob.launched_total;
            for msg in ob.msgs {
                let shard = (msg.to / shard_size) as usize;
                let Some(&dw) = worker_of_shard.get(shard) else {
                    return Err(io.fault(format!(
                        "outbox message for node {} maps to shard {shard}, beyond shard count {shard_count}",
                        msg.to
                    )));
                };
                if dw == w {
                    return Err(io.fault(format!(
                        "worker {w} shipped a message for its own shard {shard}"
                    )));
                }
                if dw < w {
                    arrivals[dw].post.push(msg);
                } else {
                    arrivals[dw].pre.push(msg);
                }
            }
        }
        if let Some(t) = engine_tracer.as_mut() {
            if t.sampled(u64::from(cycle)) {
                t.merge(u64::from(cycle), moved);
            }
        }
        for (w, arr) in arrivals.iter_mut().enumerate() {
            arr.cycle = cycle;
            ios[w].frame_send(arr)?;
            arr.pre.clear();
            arr.post.clear();
        }
        if let Some(at) = window_end(dc.window, cycle).filter(|_| track) {
            for w in 0..wcount {
                let snap: SnapshotFrame = ios[w].recv_at(at)?;
                absorb_worker_metrics(obs, &mut prev_metrics[w], snap.metrics);
            }
            obs.emit_window(at);
        }
    }
    drop(span);

    // Final frames, in worker order: totals, metrics, trace events.
    let mut totals = RunTotals::default();
    let mut stats = Vec::with_capacity(wcount);
    let mut worker_events = Vec::new();
    let mut worker_dropped = 0u64;
    for (w, io) in ios.iter_mut().enumerate() {
        io.note_cycle(u64::from(total_cycles));
        let fin: FinalFrame = io.frame_recv()?;
        totals.absorb(&fin.totals);
        absorb_worker_metrics(obs, &mut prev_metrics[w], fin.metrics);
        worker_events.extend(fin.trace_events);
        worker_dropped += fin.trace_dropped;
        obs.emit_dist(w as u32, fin.rss_kb, fin.frames, fin.frame_bytes);
        let (lo, hi) = range_of(w);
        stats.push(DistWorkerStats {
            worker: w as u32,
            shards: hi - lo,
            rss_kb: fin.rss_kb,
            frames: fin.frames,
            frame_bytes: fin.frame_bytes,
        });
    }
    drop(run_span);

    // Workers exit after their final frame; reap them and surface any
    // abnormal exit even though the protocol completed.
    for (w, child) in fleet.children.iter_mut().enumerate() {
        let status = child.wait().map_err(|e| IpgError::Dist {
            worker: w as u32,
            cycle: u64::from(total_cycles),
            detail: format!("failed to reap worker: {e}"),
        })?;
        if !status.success() {
            return Err(IpgError::Dist {
                worker: w as u32,
                cycle: u64::from(total_cycles),
                detail: format!("worker exited abnormally after completing the run: {status}"),
            });
        }
    }

    // Rebuild the merged trace: worker events are already sorted by
    // cycle with per-cycle shard order; a stable sort over the
    // concatenation (workers in order, then the engine track) restores
    // exactly the in-process collect order.
    let trace = match (dc.trace.as_ref(), engine_tracer) {
        (Some(tc), Some(eng)) => {
            let eng_trace = Trace::collect(tc.interval.max(1), Vec::new(), eng);
            let mut events = worker_events;
            events.extend(eng_trace.events);
            events.sort_by_key(|e| e.cycle);
            Some(Trace {
                shards: shard_count as u16,
                interval: tc.interval.max(1),
                dropped: worker_dropped + eng_trace.dropped,
                events,
            })
        }
        _ => None,
    };

    Ok(DistRun {
        result: totals.into_sim_result(n as u64, cfg.measure_cycles, total_cycles),
        trace,
        workers: stats,
    })
}
