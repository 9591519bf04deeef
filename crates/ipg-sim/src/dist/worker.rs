//! Worker process half of the multi-process simulation.
//!
//! A worker owns a contiguous range of the deterministic shard layout
//! and runs the exact in-process cycle — parallel phase A, merge,
//! parallel phase B — on its local shards. Departures bound for other
//! workers' shards leave as an [`OutboxFrame`]; the coordinator's
//! [`ArrivalsFrame`] comes back split into `pre` (from lower-id
//! workers) and `post` (from higher-id workers) so local departures
//! can be interleaved at exactly the position the in-process global
//! shard-order merge gives them. Every byte crossing the process
//! boundary goes through [`super::frame`] — this file performs no raw
//! I/O (lint DET008).

use ipg_core::error::{IpgError, Result};
use ipg_core::fault::FaultView;
use ipg_obs::{NullRecorder, Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};

use crate::engine::{cycle_params, fold_link_telemetry, DeliveryObs, Links, Msg, RunTotals, Shard};
use crate::fault::FaultPlan;
use crate::router::Router;

use super::frame::{
    ArrivalsFrame, FinalFrame, FrameIo, OutboxFrame, ReadyFrame, SetupFrame, ShardLinksFrame,
    SnapshotFrame,
};

/// What the host binary needs to know to rebuild the router inside a
/// worker process. Codec-eligible, fault-free networks can skip
/// materializing the full graph — that is the distributed memory win.
#[derive(Clone, Debug)]
pub struct WorkerSetup {
    /// Network spec string, verbatim from the coordinator.
    pub netspec: String,
    /// Global node count (for validating the rebuilt router).
    pub nodes: u32,
    /// A fault plan is installed; the router must be detour-capable.
    pub faulted: bool,
}

/// Test hook: `IPG_DIST_TEST_EXIT=worker:cycle` makes that worker exit
/// with an error at that cycle, for coordinator-robustness tests.
fn planned_test_exit() -> Option<(u32, u32)> {
    let s = std::env::var("IPG_DIST_TEST_EXIT").ok()?;
    let (w, c) = s.split_once(':')?;
    Some((w.parse().ok()?, c.parse().ok()?))
}

/// Entry point for the hidden `worker` mode of a host binary: adopt
/// the coordinator channel from stdin, rebuild the router via
/// `build_router`, run the sharded cycle loop, and ship a final frame.
/// `rss_probe` reports this process's peak RSS in KiB (the host binary
/// reads `/proc/self/status`; ipg-sim itself does no file I/O).
pub fn worker_main(
    build_router: impl FnOnce(&WorkerSetup) -> std::result::Result<Box<dyn Router>, String>,
    rss_probe: impl Fn() -> u64,
) -> Result<()> {
    let mut io = FrameIo::worker_channel()?;
    let setup: SetupFrame = io.frame_recv()?;
    io.tag_worker(setup.worker);

    let ws = WorkerSetup {
        netspec: setup.netspec.clone(),
        nodes: setup.n,
        faulted: setup.faulted,
    };
    let router = build_router(&ws).map_err(|e| io.fault(format!("router build failed: {e}")))?;
    if router.node_count() != setup.n as usize {
        return Err(io.fault(format!(
            "rebuilt router covers {} nodes, run has {}",
            router.node_count(),
            setup.n
        )));
    }

    // Local shards, assembled from shipped link arrays (never a CSR).
    let local_shards = (setup.shard_hi - setup.shard_lo) as usize;
    let mut shards = Vec::with_capacity(local_shards);
    for si in setup.shard_lo..setup.shard_hi {
        let sl: ShardLinksFrame = io.frame_recv()?;
        if sl.shard != si {
            return Err(io.fault(format!(
                "expected links for shard {si}, coordinator sent shard {}",
                sl.shard
            )));
        }
        shards.push(Shard::assemble(
            sl.base,
            sl.node_count,
            sl.link_of,
            Links::from_arrays(sl.to, sl.interval),
        ));
    }

    let plan = setup
        .faulted
        .then(|| FaultPlan::from_parts(setup.n, setup.faults.clone()));

    // Local observability: a real registry (snapshots ship to the
    // coordinator) but a null sink — the coordinator owns the manifest.
    let obs = if setup.track {
        Obs::with_recorder(Box::new(NullRecorder))
    } else {
        Obs::disabled()
    };
    let c_injected = obs.counter("engine.injected_tagged");
    let c_injected_all = obs.counter("engine.injected_total");
    let c_dropped = obs.counter("engine.dropped_unreachable");
    let dobs = DeliveryObs::attach(&obs);

    // Workers always run the sparse kernel; the dense oracle is an
    // in-process test switch (`Simulator::set_dense`).
    let pr = cycle_params(setup.n, &setup.cfg, setup.max_interval, false);
    let trace_cfg = setup.trace.map(|(interval, capacity)| TraceConfig {
        interval,
        capacity: capacity as usize,
    });
    for (idx, sh) in shards.iter_mut().enumerate() {
        sh.prepare_run(
            setup.cfg.seed,
            pr.wheel_len,
            setup.track,
            setup.track_links,
            plan.as_ref(),
            trace_cfg.as_ref(),
            (setup.shard_lo + idx as u32) as u16,
        );
    }

    io.frame_send(&ReadyFrame {
        worker: setup.worker,
    })?;

    // The full-network fault view: faults anywhere can matter locally
    // (a router detour target, a dead destination node).
    let mut view = FaultView::new(setup.n as usize);
    let mut fault_cursor = 0usize;
    let kill_at = planned_test_exit();

    let mut out_frame = OutboxFrame {
        cycle: 0,
        launched_total: 0,
        msgs: Vec::new(),
    };
    let mut local_pending: Vec<Msg> = Vec::new();
    let router_ref: &dyn Router = router.as_ref();

    for cycle in 0..pr.total_cycles {
        io.note_cycle(u64::from(cycle));
        if kill_at == Some((setup.worker, cycle)) {
            return Err(IpgError::Dist {
                worker: setup.worker,
                cycle: u64::from(cycle),
                detail: "test-injected worker exit (IPG_DIST_TEST_EXIT)".to_string(),
            });
        }
        if let Some(p) = plan.as_ref() {
            p.apply_due(&mut fault_cursor, cycle, &mut view);
        }
        let fv: Option<&FaultView> = plan.as_ref().map(|_| &view);

        // Phase A on local shards, exactly the in-process parallel call.
        rayon::slice::par_for_each_mut(&mut shards, |_, sh| {
            sh.phase_a(
                cycle,
                &pr,
                router_ref,
                fv,
                &c_injected,
                &c_injected_all,
                &c_dropped,
            );
        });

        // Split departures: remote ones ship, local ones are held in
        // shard order so absorption can reproduce the global merge.
        out_frame.cycle = cycle;
        out_frame.msgs.clear();
        local_pending.clear();
        let mut launched = 0u32;
        for sh in &mut shards {
            launched += sh.outbox.len() as u32;
            for &msg in sh.outbox.iter() {
                let dest_shard = msg.to / setup.shard_size;
                if (setup.shard_lo..setup.shard_hi).contains(&dest_shard) {
                    local_pending.push(msg);
                } else {
                    out_frame.msgs.push(msg);
                }
            }
            sh.outbox.clear();
        }
        out_frame.launched_total = launched;
        io.frame_send(&out_frame)?;

        // Absorb arrivals in global shard order: messages from workers
        // below us, then our own, then workers above us — each stream
        // already ordered by origin shard.
        let arrivals: ArrivalsFrame = io.frame_recv()?;
        if arrivals.cycle != cycle {
            return Err(io.fault(format!(
                "arrivals for cycle {} while executing cycle {cycle}",
                arrivals.cycle
            )));
        }
        for msg in arrivals
            .pre
            .iter()
            .chain(&local_pending)
            .chain(&arrivals.post)
        {
            let dest_shard = msg.to / setup.shard_size;
            let Some(sh) = shards.get_mut(dest_shard.wrapping_sub(setup.shard_lo) as usize) else {
                return Err(io.fault(format!(
                    "arrival for node {} lands in shard {dest_shard}, outside [{}, {})",
                    msg.to, setup.shard_lo, setup.shard_hi
                )));
            };
            sh.wheel_push(*msg);
        }

        // Phase B at the next cycle boundary's wheel slot.
        let slot = ((cycle + 1) % pr.wheel_len) as usize;
        rayon::slice::par_for_each_mut(&mut shards, |_, sh| {
            sh.phase_b(cycle, slot, &pr, router_ref, fv, &dobs, &c_dropped);
        });

        if setup.track && setup.window > 0 && (cycle + 1) % setup.window == 0 {
            io.frame_send(&SnapshotFrame {
                cycle: u64::from(cycle) + 1,
                metrics: obs.snapshot_metrics(),
            })?;
        }
    }

    // Totals are partial here — packets cross worker boundaries, so
    // conservation only holds after the coordinator absorbs everyone.
    let totals = RunTotals::fold_shards(&shards);
    if setup.track {
        fold_link_telemetry(&shards, &obs, &totals, pr.total_cycles);
    }

    let (trace_events, trace_dropped) = match trace_cfg.as_ref() {
        Some(tc) => {
            let tracers: Vec<ShardTracer> =
                shards.iter_mut().filter_map(|s| s.tracer.take()).collect();
            // A blank engine-track tracer: the coordinator owns the real
            // merge track. Collect sorts local events exactly as the
            // in-process drain would within this worker's shard range.
            let t = Trace::collect(
                tc.interval.max(1),
                tracers,
                ShardTracer::new(ENGINE_TRACK, tc),
            );
            (t.events, t.dropped)
        }
        None => (Vec::new(), 0),
    };

    io.note_cycle(u64::from(pr.total_cycles));
    let fin = FinalFrame {
        totals,
        metrics: obs.snapshot_metrics(),
        trace_events,
        trace_dropped,
        rss_kb: rss_probe(),
        frames: io.sent_frames + io.recv_frames,
        frame_bytes: io.sent_bytes + io.recv_bytes,
    };
    io.frame_send(&fin)?;
    Ok(())
}
