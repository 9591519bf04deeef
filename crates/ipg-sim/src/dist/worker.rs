//! Worker process half of the multi-process simulation.
//!
//! A worker drives its contiguous range `[shard_lo, shard_hi)` of the
//! deterministic shard layout with the engine's cycle driver
//! (`engine::ShardRange`) and adds only the frame exchange between the
//! merge's two halves: departures for other workers' shards leave as an
//! [`OutboxFrame`]; the coordinator's [`ArrivalsFrame`] comes back split
//! into `pre` (from lower-id workers) and `post` (from higher-id ones),
//! which the merge places around the local outboxes exactly where the
//! in-process global shard-order merge puts them.
//!
//! Shard geometry is derived from the node count, and every shipped
//! field the engine indexes with is checked first: a forged frame fails
//! with an error naming the field and the worker, never a panic. Every
//! byte crossing the process boundary goes through [`super::frame`] —
//! this file performs no raw I/O (lint DET008).

use std::borrow::Cow;

use ipg_core::error::{IpgError, Result};
use ipg_obs::{NullRecorder, Obs, ShardTracer, Trace, TraceConfig, ENGINE_TRACK};

use crate::engine::{
    cycle_params, link_speeds, shard_layout, shard_span, window_end, Shard, ShardRange, SimConfig,
    Switching, Traffic,
};
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

/// Check one shard's shipped link arrays against what
/// `Shard::assemble` and the cycle loop index with; names the first
/// offending field.
fn check_links(sl: &ShardLinksFrame, node_count: u32, n: u32) -> Option<&'static str> {
    let (link_of, links) = (&sl.link_of, sl.to.len());
    if link_of.len() != node_count as usize + 1 {
        Some("links.link_of: not one offset per node plus one")
    } else if link_of[0] != 0
        || link_of.windows(2).any(|w| w[0] > w[1])
        || link_of[node_count as usize] as usize != links
    {
        Some("links.link_of: not monotone from 0 to the link count")
    } else if sl.off_module.len() != links {
        Some("links.off_module: not one per entry of links.to")
    } else if sl.to.iter().any(|&v| v >= n) {
        Some("links.to: names a node outside the network")
    } else {
        None
    }
}

/// Check the injection rate and the traffic pattern of `c` against what
/// the injection schedule and the destination draw accept for an
/// `n`-node run; names the first offending field.
fn check_traffic(c: &SimConfig, n: u32) -> Option<String> {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    let rate = c.injection_rate;
    match c.traffic {
        _ if !unit(rate) => Some(format!("setup.cfg.injection_rate {rate} is not in [0, 1]")),
        Traffic::Hotspot { fraction, .. } if !unit(fraction) => Some(format!(
            "setup.cfg.traffic.fraction {fraction} is not in [0, 1]"
        )),
        Traffic::Hotspot { target, .. } if target >= n => Some(format!(
            "setup.cfg.traffic.target {target} names a node outside the {n}-node network"
        )),
        Traffic::BitComplement if !n.is_power_of_two() => Some(format!(
            "setup.cfg.traffic: bit-complement needs a power-of-two node count, not {n}"
        )),
        Traffic::Transpose if !n.is_power_of_two() || n.trailing_zeros() % 2 != 0 => Some(format!(
            "setup.cfg.traffic: transpose needs a power-of-two node count with an even \
             bit width, not {n}"
        )),
        _ => None,
    }
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
    serve(FrameIo::worker_channel()?, build_router, rss_probe)
}

/// The worker side of the protocol over an adopted channel.
fn serve(
    mut io: FrameIo,
    build_router: impl FnOnce(&WorkerSetup) -> std::result::Result<Box<dyn Router>, String>,
    rss_probe: impl Fn() -> u64,
) -> Result<()> {
    let setup: SetupFrame = io.frame_recv()?;
    io.tag_worker(setup.worker);
    let (lo, hi) = (setup.shard_lo, setup.shard_hi);
    let (shard_count, shard_size) = shard_layout(setup.n as usize);
    if lo >= hi || hi as usize > shard_count {
        return Err(io.fault(format!(
            "setup.shard_lo/shard_hi [{lo}, {hi}) is not a non-empty range of the \
             {shard_count} shards of {} nodes",
            setup.n
        )));
    }
    // The coordinator builds every link from `cfg`, so the slower link
    // class bounds them all. `cycle_params` sizes the wheel, the
    // cut-through tail and the run from these in u32, and a latency
    // adds the tail to at most the run's length.
    let c = &setup.cfg;
    let speed = link_speeds(c);
    let max_interval = speed[0].max(speed[1]);
    let flits = c.message_length.max(1);
    let (advance, tail) = match c.switching {
        Switching::StoreForward => (max_interval.checked_mul(flits), Some(0)),
        Switching::CutThrough => (
            Some(max_interval),
            (flits - 1).checked_mul(c.on_module_interval),
        ),
    };
    if advance.and_then(|w| w.checked_add(1)).is_none() {
        return Err(io.fault("setup.cfg: arrival wheel size overflows u32".to_string()));
    }
    let cycles = c.warmup_cycles.checked_add(c.measure_cycles);
    let Some(cycles) = cycles.and_then(|m| m.checked_add(c.drain_cycles)) else {
        return Err(io.fault("setup.cfg: cycle count overflows u32".to_string()));
    };
    if tail.and_then(|t| t.checked_add(cycles)).is_none() {
        return Err(io.fault("setup.cfg: cut-through latency overflows u32".to_string()));
    }
    if let Some(why) = check_traffic(c, setup.n) {
        return Err(io.fault(why));
    }

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

    // Local shards, assembled from shipped link arrays (never a CSR), so
    // they own their rows.
    let mut shards: Vec<Shard<'static>> = Vec::with_capacity((hi - lo) as usize);
    for si in lo..hi {
        let sl: ShardLinksFrame = io.frame_recv()?;
        if sl.shard != si {
            return Err(io.fault(format!(
                "expected links for shard {si}, coordinator sent shard {}",
                sl.shard
            )));
        }
        let (base, node_count) = shard_span(setup.n, shard_size, si);
        if let Some(why) = check_links(&sl, node_count, setup.n) {
            return Err(io.fault(format!("shard {si} of {} nodes: {why}", setup.n)));
        }
        shards.push(Shard::assemble(
            base,
            node_count,
            Cow::Owned(sl.link_of),
            Cow::Owned(sl.to),
            sl.off_module.into_iter().collect(),
            speed,
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
    let trace_cfg = setup.trace.map(|(interval, capacity)| TraceConfig {
        interval,
        capacity: capacity as usize,
    });
    let pr = cycle_params(setup.n, &setup.cfg, max_interval);
    let mut range = ShardRange::prepare(
        &mut shards,
        lo,
        pr,
        router.as_ref(),
        plan.as_ref(),
        &obs,
        trace_cfg.as_ref(),
    );

    io.frame_send(&ReadyFrame {
        worker: setup.worker,
    })?;

    let kill_at = planned_test_exit();
    let mut out_frame = OutboxFrame {
        cycle: 0,
        launched_total: 0,
        msgs: Vec::new(),
    };
    for cycle in 0..pr.total_cycles {
        io.note_cycle(u64::from(cycle));
        if kill_at == Some((setup.worker, cycle)) {
            return Err(IpgError::Dist {
                worker: setup.worker,
                cycle: u64::from(cycle),
                detail: "test-injected worker exit (IPG_DIST_TEST_EXIT)".to_string(),
            });
        }
        range.phase_a(cycle);

        out_frame.cycle = cycle;
        out_frame.msgs.clear();
        out_frame.launched_total = range.phase_split(&mut out_frame.msgs);
        io.frame_send(&out_frame)?;

        let arrivals: ArrivalsFrame = io.recv_at(u64::from(cycle))?;
        // The merge and phase B index wheels, shards and nodes with these.
        for m in arrivals.pre.iter().chain(&arrivals.post) {
            let field = if m.to >= setup.n || !(lo..hi).contains(&(m.to / shard_size)) {
                "to"
            } else if m.dst >= setup.n {
                "dst"
            } else if m.slot >= pr.wheel_len {
                "slot"
            } else {
                continue;
            };
            return Err(io.fault(format!(
                "arrivals.{field} out of range in {m:?} (shards [{lo}, {hi}) of a {}-node \
                 network, {}-slot wheel)",
                setup.n, pr.wheel_len
            )));
        }
        range.phase_merge(&arrivals.pre, &arrivals.post);
        range.phase_b(cycle);

        if let Some(at) = window_end(setup.window, cycle).filter(|_| setup.track) {
            io.frame_send(&SnapshotFrame {
                cycle: at,
                metrics: obs.snapshot_metrics(),
            })?;
        }
    }

    // Totals are partial here — packets cross worker boundaries, so
    // conservation only holds after the coordinator absorbs everyone.
    let (totals, tracers) = range.finish(&obs);
    // A blank engine-track tracer: the coordinator owns the real merge
    // track. Collect sorts local events exactly as the in-process drain
    // would within this worker's shard range.
    let (trace_events, trace_dropped) = trace_cfg.as_ref().map_or((Vec::new(), 0), |tc| {
        let blank = ShardTracer::new(ENGINE_TRACK, tc);
        let t = Trace::collect(tc.interval.max(1), tracers, blank);
        (t.events, t.dropped)
    });

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{shard_link_arrays, Msg};
    use crate::table::RoutingTable;
    use ipg_core::graph::Csr;
    use ipg_networks::classic;

    /// 514 nodes: 4 shards of 129, the last one 127 nodes short of a
    /// full shard, so node ids past `n` still map into the layout.
    fn ring() -> Csr {
        classic::ring(514)
    }

    /// Worker 1 owning shards `[2, 4)` of a three-cycle run.
    fn setup() -> SetupFrame {
        SetupFrame {
            worker: 1,
            n: 514,
            shard_lo: 2,
            shard_hi: 4,
            window: 0,
            track: false,
            faulted: false,
            trace: None,
            netspec: "ring:514".to_string(),
            cfg: SimConfig {
                injection_rate: 0.5,
                warmup_cycles: 0,
                measure_cycles: 3,
                drain_cycles: 0,
                ..SimConfig::default()
            },
            faults: Vec::new(),
        }
    }

    fn links(g: &Csr, si: u32) -> ShardLinksFrame {
        let (base, node_count) = shard_span(514, 129, si);
        let (link_of, to, off_module) = shard_link_arrays(g, |_| 0, base, node_count);
        ShardLinksFrame {
            shard: si,
            link_of,
            to,
            off_module,
        }
    }

    /// Run [`serve`] on a thread against a scripted coordinator that
    /// sends `setup` and `shard_links`, each payload edited by `forge`
    /// behind a valid checksum, then answers cycle 0's outbox with `pre`
    /// as arrivals and every later cycle with none, each arrivals frame
    /// stamped `skew` cycles late.
    fn drive(
        setup: &SetupFrame,
        shard_links: &[ShardLinksFrame],
        forge: fn(&mut [u8]),
        pre: Vec<Msg>,
        skew: u32,
    ) -> Result<()> {
        let g = ring();
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let (mut coord, worker) = (FrameIo::over(ours, 1), FrameIo::over(theirs, u32::MAX));
        std::thread::scope(|s| {
            let run = s.spawn(|| {
                let build =
                    |_: &WorkerSetup| Ok(Box::new(RoutingTable::new(&g)) as Box<dyn Router>);
                serve(worker, build, || 0)
            });
            // Sends fail once the worker has rejected a frame and hung
            // up; the worker's own error is the result under test.
            let _ = coord.frame_send(setup);
            for sl in shard_links {
                let _ = coord.frame_send_forged(sl, forge);
            }
            if coord.frame_recv::<ReadyFrame>().is_ok() {
                let mut pre = Some(pre);
                for cycle in 0..3 {
                    if coord.frame_recv::<OutboxFrame>().is_err() {
                        break;
                    }
                    let arrivals = ArrivalsFrame {
                        cycle: cycle + skew,
                        pre: pre.take().unwrap_or_default(),
                        post: Vec::new(),
                    };
                    let _ = coord.frame_send(&arrivals);
                }
                let _ = coord.frame_recv::<FinalFrame>();
            }
            drop(coord);
            run.join().expect("worker must not panic")
        })
    }

    #[test]
    fn forged_frames_fail_with_the_field_and_the_worker() {
        let g = ring();
        let good_links = [links(&g, 2), links(&g, 3)];
        let arrival = Msg {
            to: 300,
            dst: 301,
            born: 0,
            tagged: false,
            slot: 1,
        };
        drive(&setup(), &good_links, |_| {}, vec![arrival], 0).expect("well-formed frames run");

        let mut cases: Vec<(&str, SetupFrame, Vec<ShardLinksFrame>, Vec<Msg>)> = Vec::new();
        for (lo, hi) in [(3, 2), (2, 2), (2, 5)] {
            let s = SetupFrame {
                shard_lo: lo,
                shard_hi: hi,
                ..setup()
            };
            cases.push((
                "setup.shard_lo/shard_hi",
                s,
                good_links.to_vec(),
                Vec::new(),
            ));
        }
        for forge in [
            |c: &mut SimConfig| c.off_module_interval = u32::MAX,
            |c: &mut SimConfig| c.drain_cycles = u32::MAX,
            |c: &mut SimConfig| {
                c.switching = Switching::CutThrough;
                c.message_length = u32::MAX;
            },
        ] {
            let mut s = setup();
            forge(&mut s.cfg);
            cases.push(("setup.cfg", s, good_links.to_vec(), Vec::new()));
        }
        // Rates and patterns the injection draw or `pick_destination`
        // would take wrongly or panic on.
        let hotspot = |fraction, target| Traffic::Hotspot { fraction, target };
        for (field, rate, traffic) in [
            ("setup.cfg.injection_rate", f64::NAN, Traffic::Uniform),
            ("setup.cfg.injection_rate", -0.1, Traffic::Uniform),
            ("setup.cfg.injection_rate", 1.5, Traffic::Uniform),
            ("setup.cfg.traffic.fraction", 0.5, hotspot(f64::NAN, 7)),
            ("setup.cfg.traffic.fraction", 0.5, hotspot(1.5, 7)),
            ("setup.cfg.traffic.target", 0.5, hotspot(0.5, 514)),
            ("setup.cfg.traffic", 0.5, Traffic::BitComplement),
            ("setup.cfg.traffic", 0.5, Traffic::Transpose),
        ] {
            let mut s = setup();
            s.cfg.injection_rate = rate;
            s.cfg.traffic = traffic;
            cases.push((field, s, good_links.to_vec(), Vec::new()));
        }
        // 512 = 2^9: a power of two, but an odd bit width.
        let mut s = SetupFrame { n: 512, ..setup() };
        s.cfg.traffic = Traffic::Transpose;
        cases.push(("setup.cfg.traffic", s, good_links.to_vec(), Vec::new()));
        let forge = |field: &'static str, f: fn(&mut ShardLinksFrame)| {
            let mut ls = good_links.to_vec();
            f(&mut ls[1]);
            (field, setup(), ls, Vec::new())
        };
        cases.push(forge("links.link_of", |l| {
            l.link_of.pop();
        }));
        cases.push(forge("links.link_of", |l| l.link_of.swap(1, 2)));
        cases.push(forge("links.link_of", |l| {
            *l.link_of.last_mut().unwrap() -= 1
        }));
        cases.push(forge("links.link_of", |l| l.link_of[0] = 1));
        cases.push(forge("links.off_module", |l| {
            l.off_module.pop();
        }));
        cases.push(forge("links.to", |l| l.to[3] = 514));
        for (field, m) in [
            ("arrivals.to", Msg { to: 5, ..arrival }),
            ("arrivals.to", Msg { to: 515, ..arrival }),
            (
                "arrivals.dst",
                Msg {
                    dst: 514,
                    ..arrival
                },
            ),
            ("arrivals.slot", Msg { slot: 2, ..arrival }),
        ] {
            cases.push((field, setup(), good_links.to_vec(), vec![m]));
        }
        for (field, s, ls, pre) in cases {
            let err = drive(&s, &ls, |_| {}, pre, 0).expect_err(field).to_string();
            assert!(
                err.contains(field) && err.contains("worker 1"),
                "{field}: unexpected error: {err}"
            );
        }
        // A flag byte that is neither 0 nor 1 (the last payload byte is
        // the last link's off-module flag), behind a valid checksum.
        let forge_flag: fn(&mut [u8]) = |payload| *payload.last_mut().unwrap() = 2;
        let err = drive(&setup(), &good_links, forge_flag, Vec::new(), 0)
            .expect_err("links.off_module")
            .to_string();
        assert!(
            err.contains("invalid flag byte 2 for links.off_module") && err.contains("worker 1"),
            "unexpected error: {err}"
        );
        // Well-formed arrivals, stamped for the wrong cycle.
        let field = "Arrivals frame stamped for cycle 1, expected cycle 0";
        let err = drive(&setup(), &good_links, |_| {}, Vec::new(), 1)
            .expect_err(field)
            .to_string();
        assert!(
            err.contains(field) && err.contains("worker 1, cycle 0"),
            "unexpected error: {err}"
        );
    }
}
