//! Wire codec for the multi-process simulation: length-prefixed,
//! versioned, checksummed frames over a Unix socket pair.
//!
//! This is the **only** module in the distributed engine that touches
//! bytes or sockets (enforced by the DET008 lint on `coordinator.rs`
//! and `worker.rs`): the coordinator and worker speak exclusively in
//! typed frames via [`FrameIo::frame_send`] / [`FrameIo::frame_recv`].
//! The codec is dependency-free — hand-rolled little-endian encoding,
//! no serde — so the wire format is a closed artifact documented in
//! DESIGN.md §15 and cannot drift with a library upgrade.
//!
//! Frame layout:
//!
//! ```text
//! +---------+---------+------+-------+----------+---------+----------+
//! | "IPG"   | version | kind | flags | len (LE) | payload | checksum |
//! | 3 bytes | 1 byte  | 1 B  | 1 B   | u32      | len B   | u64 LE   |
//! +---------+---------+------+-------+----------+---------+----------+
//! ```
//!
//! The checksum is FNV-1a 64 over `kind .. payload` (header bytes 4..10
//! plus the payload). Decoding is total: truncated input, oversized
//! length prefixes, checksum mismatches, version skew, and malformed
//! payloads all surface as [`IpgError::Dist`] — never a panic.

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ipg_core::error::{IpgError, Result};
use ipg_obs::trace::TraceEvent;
use ipg_obs::{HistSnapshot, MetricSnapshot};

use crate::engine::{Msg, RunTotals, SimConfig, Switching, Traffic};
use crate::fault::{FaultEvent, FaultKind};

/// Wire magic: the first three header bytes.
const WIRE_MAGIC: [u8; 3] = *b"IPG";
/// Wire format version; bumped on any layout change.
pub(crate) const WIRE_VERSION: u8 = 3;
/// Header size: magic(3) + version(1) + kind(1) + flags(1) + len(4).
const HEADER_LEN: usize = 10;
/// Refuse frames claiming more than 1 GiB of payload.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// FNV-1a 64, chained so the header slice and payload can be folded
/// without concatenation.
fn fnv1a_chain(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append-only little-endian encode buffer for one frame payload.
pub(crate) struct WireBuf {
    bytes: Vec<u8>,
}

impl WireBuf {
    fn with_header(kind: u8) -> WireBuf {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(kind);
        bytes.push(0); // flags, reserved
        bytes.extend_from_slice(&0u32.to_le_bytes()); // len, patched later
        WireBuf { bytes }
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    pub(crate) fn put_u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Patch the length field and append the checksum; returns the
    /// finished frame bytes.
    fn seal(mut self) -> Vec<u8> {
        let len = (self.bytes.len() - HEADER_LEN) as u32;
        self.bytes[6..10].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a_chain(FNV_OFFSET, &self.bytes[4..]);
        self.bytes.extend_from_slice(&sum.to_le_bytes());
        self.bytes
    }
}

/// Bounds-checked little-endian decode cursor over one frame payload.
/// Every accessor returns `Err` on underrun; nothing panics.
pub(crate) struct WireCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    fn over(bytes: &'a [u8]) -> WireCursor<'a> {
        WireCursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn advance(&mut self, n: usize, what: &str) -> std::result::Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload underrun reading {what}: need {n} bytes, {} left",
                self.remaining()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn take_u8(&mut self, what: &str) -> std::result::Result<u8, String> {
        Ok(self.advance(1, what)?[0])
    }

    pub(crate) fn take_u16(&mut self, what: &str) -> std::result::Result<u16, String> {
        let s = self.advance(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    pub(crate) fn take_u32(&mut self, what: &str) -> std::result::Result<u32, String> {
        let s = self.advance(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn take_u64(&mut self, what: &str) -> std::result::Result<u64, String> {
        let s = self.advance(8, what)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    pub(crate) fn take_f64(&mut self, what: &str) -> std::result::Result<f64, String> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// A flag byte: exactly 0 or 1. Anything else is a forged or
    /// misaligned frame, never a silent `true`.
    pub(crate) fn take_bool(&mut self, what: &str) -> std::result::Result<bool, String> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!(
                "invalid flag byte {v} for {what} (expected 0 or 1)"
            )),
        }
    }

    /// Element count prefix, validated against the bytes actually left:
    /// a frame cannot hold more than `remaining / elem_size` elements,
    /// so a forged count can never drive allocation past the payload.
    pub(crate) fn take_count(
        &mut self,
        elem_size: usize,
        what: &str,
    ) -> std::result::Result<usize, String> {
        let count = self.take_u32(what)? as usize;
        if count.saturating_mul(elem_size) > self.remaining() {
            return Err(format!(
                "count overrun reading {what}: {count} elements of {elem_size}+ bytes, {} left",
                self.remaining()
            ));
        }
        Ok(count)
    }

    pub(crate) fn take_str(&mut self, what: &str) -> std::result::Result<String, String> {
        let len = self.take_count(1, what)?;
        let raw = self.advance(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    pub(crate) fn take_u32_vec(&mut self, what: &str) -> std::result::Result<Vec<u32>, String> {
        let count = self.take_count(4, what)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.take_u32(what)?);
        }
        Ok(out)
    }

    fn finish(&self, kind_name: &str) -> std::result::Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after {kind_name} payload",
                self.remaining()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame trait + shared sub-codecs
// ---------------------------------------------------------------------------

/// A typed frame: a kind byte plus a total (panic-free) body codec.
pub(crate) trait DistFrame: Sized {
    const KIND: u8;
    const NAME: &'static str;
    fn put_body(&self, b: &mut WireBuf);
    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String>;
}

/// Serialize a frame to its complete wire bytes (header + payload +
/// checksum).
pub(crate) fn frame_to_bytes<F: DistFrame>(f: &F) -> Vec<u8> {
    let mut b = WireBuf::with_header(F::KIND);
    f.put_body(&mut b);
    b.seal()
}

/// Validate a complete header; returns `(kind, payload_len)`.
fn header_fields(h: &[u8; HEADER_LEN]) -> std::result::Result<(u8, u32), String> {
    if h[0..3] != WIRE_MAGIC {
        return Err(format!(
            "bad frame magic {:02x}{:02x}{:02x} (expected \"IPG\")",
            h[0], h[1], h[2]
        ));
    }
    if h[3] != WIRE_VERSION {
        return Err(format!(
            "wire version mismatch: peer speaks v{}, this binary v{WIRE_VERSION}",
            h[3]
        ));
    }
    let len = u32::from_le_bytes([h[6], h[7], h[8], h[9]]);
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ));
    }
    Ok((h[4], len))
}

/// Verify the checksum trailing `body` and decode the payload as `F`.
/// `body` is payload + 8 checksum bytes; `hdr_tail` is header bytes
/// 4..10 (kind, flags, len), which the checksum covers.
fn body_to_frame<F: DistFrame>(
    kind: u8,
    hdr_tail: &[u8],
    body: &[u8],
) -> std::result::Result<F, String> {
    if body.len() < 8 {
        return Err("frame truncated before checksum".to_string());
    }
    let (payload, sum_bytes) = body.split_at(body.len() - 8);
    let want = u64::from_le_bytes([
        sum_bytes[0],
        sum_bytes[1],
        sum_bytes[2],
        sum_bytes[3],
        sum_bytes[4],
        sum_bytes[5],
        sum_bytes[6],
        sum_bytes[7],
    ]);
    let got = fnv1a_chain(fnv1a_chain(FNV_OFFSET, hdr_tail), payload);
    if got != want {
        return Err(format!(
            "checksum mismatch on {} frame: computed {got:#018x}, frame says {want:#018x}",
            F::NAME
        ));
    }
    if kind != F::KIND {
        return Err(format!(
            "expected {} frame (kind {}), peer sent kind {kind}",
            F::NAME,
            F::KIND
        ));
    }
    let mut c = WireCursor::over(payload);
    let f = F::take_body(&mut c)?;
    c.finish(F::NAME)?;
    Ok(f)
}

/// Decode a frame from complete wire bytes. The streaming recv path
/// reads header and body separately; this whole-buffer entry exists
/// for the adversarial codec tests.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn frame_from_bytes<F: DistFrame>(bytes: &[u8]) -> std::result::Result<F, String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "frame truncated inside header: {} of {HEADER_LEN} bytes",
            bytes.len()
        ));
    }
    let mut h = [0u8; HEADER_LEN];
    h.copy_from_slice(&bytes[..HEADER_LEN]);
    let (kind, len) = header_fields(&h)?;
    let body = &bytes[HEADER_LEN..];
    if body.len() != len as usize + 8 {
        return Err(format!(
            "frame body is {} bytes, header promised {} payload + 8 checksum",
            body.len(),
            len
        ));
    }
    body_to_frame::<F>(kind, &h[4..], body)
}

fn put_msg(b: &mut WireBuf, m: &Msg) {
    b.put_u32(m.to);
    b.put_u32(m.dst);
    b.put_u32(m.born);
    b.put_bool(m.tagged);
    b.put_u32(m.slot);
}

const MSG_WIRE_LEN: usize = 17;

fn take_msg(c: &mut WireCursor<'_>) -> std::result::Result<Msg, String> {
    Ok(Msg {
        to: c.take_u32("msg.to")?,
        dst: c.take_u32("msg.dst")?,
        born: c.take_u32("msg.born")?,
        tagged: c.take_bool("msg.tagged")?,
        slot: c.take_u32("msg.slot")?,
    })
}

fn put_msgs(b: &mut WireBuf, msgs: &[Msg]) {
    b.put_u32(msgs.len() as u32);
    for m in msgs {
        put_msg(b, m);
    }
}

fn take_msgs(c: &mut WireCursor<'_>) -> std::result::Result<Vec<Msg>, String> {
    let count = c.take_count(MSG_WIRE_LEN, "msgs")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(take_msg(c)?);
    }
    Ok(out)
}

fn put_sim_config(b: &mut WireBuf, cfg: &SimConfig) {
    b.put_f64(cfg.injection_rate);
    b.put_u32(cfg.warmup_cycles);
    b.put_u32(cfg.measure_cycles);
    b.put_u32(cfg.drain_cycles);
    b.put_u32(cfg.on_module_interval);
    b.put_u32(cfg.off_module_interval);
    b.put_u64(cfg.seed);
    b.put_u32(cfg.message_length);
    b.put_u8(match cfg.switching {
        Switching::StoreForward => 0,
        Switching::CutThrough => 1,
    });
    let (traffic, fraction, target) = match cfg.traffic {
        Traffic::Uniform => (0u8, 0.0, 0),
        Traffic::BitComplement => (1, 0.0, 0),
        Traffic::Transpose => (2, 0.0, 0),
        Traffic::Hotspot { fraction, target } => (3, fraction, target),
    };
    b.put_u8(traffic);
    b.put_f64(fraction);
    b.put_u32(target);
}

fn take_sim_config(c: &mut WireCursor<'_>) -> std::result::Result<SimConfig, String> {
    let injection_rate = c.take_f64("cfg.injection_rate")?;
    let warmup_cycles = c.take_u32("cfg.warmup_cycles")?;
    let measure_cycles = c.take_u32("cfg.measure_cycles")?;
    let drain_cycles = c.take_u32("cfg.drain_cycles")?;
    let on_module_interval = c.take_u32("cfg.on_module_interval")?;
    let off_module_interval = c.take_u32("cfg.off_module_interval")?;
    let seed = c.take_u64("cfg.seed")?;
    let message_length = c.take_u32("cfg.message_length")?;
    let switching = match c.take_u8("cfg.switching")? {
        0 => Switching::StoreForward,
        1 => Switching::CutThrough,
        t => return Err(format!("unknown switching tag {t}")),
    };
    let tag = c.take_u8("cfg.traffic")?;
    let fraction = c.take_f64("cfg.traffic.fraction")?;
    let target = c.take_u32("cfg.traffic.target")?;
    let traffic = match tag {
        0 => Traffic::Uniform,
        1 => Traffic::BitComplement,
        2 => Traffic::Transpose,
        3 => Traffic::Hotspot { fraction, target },
        t => return Err(format!("unknown traffic tag {t}")),
    };
    Ok(SimConfig {
        injection_rate,
        warmup_cycles,
        measure_cycles,
        drain_cycles,
        on_module_interval,
        off_module_interval,
        seed,
        message_length,
        switching,
        traffic,
    })
}

fn put_fault_events(b: &mut WireBuf, events: &[FaultEvent]) {
    b.put_u32(events.len() as u32);
    for ev in events {
        b.put_u32(ev.cycle);
        match ev.kind {
            FaultKind::Link(u, v) => {
                b.put_u8(0);
                b.put_u32(u);
                b.put_u32(v);
            }
            FaultKind::Node(v) => {
                b.put_u8(1);
                b.put_u32(v);
                b.put_u32(0);
            }
        }
    }
}

fn take_fault_events(c: &mut WireCursor<'_>) -> std::result::Result<Vec<FaultEvent>, String> {
    let count = c.take_count(13, "faults")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let cycle = c.take_u32("fault.cycle")?;
        let tag = c.take_u8("fault.kind")?;
        let a = c.take_u32("fault.a")?;
        let b = c.take_u32("fault.b")?;
        let kind = match tag {
            0 => FaultKind::Link(a, b),
            1 => FaultKind::Node(a),
            t => return Err(format!("unknown fault kind tag {t}")),
        };
        out.push(FaultEvent { cycle, kind });
    }
    Ok(out)
}

fn put_metric_snapshots(b: &mut WireBuf, metrics: &[(String, MetricSnapshot)]) {
    b.put_u32(metrics.len() as u32);
    for (name, snap) in metrics {
        b.put_str(name);
        match snap {
            MetricSnapshot::Counter(v) => {
                b.put_u8(0);
                b.put_u64(*v);
            }
            MetricSnapshot::Gauge(v) => {
                b.put_u8(1);
                b.put_u64(*v);
            }
            MetricSnapshot::Hist(h) => {
                b.put_u8(2);
                b.put_u32(h.buckets.len() as u32);
                for &(i, v) in &h.buckets {
                    b.put_u32(i);
                    b.put_u64(v);
                }
                b.put_u64(h.count);
                b.put_u64(h.sum);
                b.put_u64(h.min);
                b.put_u64(h.max);
            }
        }
    }
}

fn take_metric_snapshots(
    c: &mut WireCursor<'_>,
) -> std::result::Result<Vec<(String, MetricSnapshot)>, String> {
    let count = c.take_count(10, "metrics")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = c.take_str("metric name")?;
        let snap = match c.take_u8("metric tag")? {
            0 => MetricSnapshot::Counter(c.take_u64("counter")?),
            1 => MetricSnapshot::Gauge(c.take_u64("gauge")?),
            2 => {
                let nb = c.take_count(12, "hist buckets")?;
                let mut buckets = Vec::with_capacity(nb);
                for _ in 0..nb {
                    let i = c.take_u32("bucket index")?;
                    let v = c.take_u64("bucket value")?;
                    buckets.push((i, v));
                }
                MetricSnapshot::Hist(HistSnapshot {
                    buckets,
                    count: c.take_u64("hist.count")?,
                    sum: c.take_u64("hist.sum")?,
                    min: c.take_u64("hist.min")?,
                    max: c.take_u64("hist.max")?,
                })
            }
            t => return Err(format!("unknown metric tag {t}")),
        };
        out.push((name, snap));
    }
    Ok(out)
}

fn put_trace_events(b: &mut WireBuf, events: &[TraceEvent]) {
    b.put_u32(events.len() as u32);
    for ev in events {
        b.put_u32(ev.cycle);
        b.put_u16(ev.kind);
        b.put_u16(ev.shard);
        b.put_u32(ev.a);
        b.put_u32(ev.b);
        b.put_u64(ev.value);
    }
}

fn take_trace_events(c: &mut WireCursor<'_>) -> std::result::Result<Vec<TraceEvent>, String> {
    let count = c.take_count(24, "trace events")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(TraceEvent {
            cycle: c.take_u32("event.cycle")?,
            kind: c.take_u16("event.kind")?,
            shard: c.take_u16("event.shard")?,
            a: c.take_u32("event.a")?,
            b: c.take_u32("event.b")?,
            value: c.take_u64("event.value")?,
        });
    }
    Ok(out)
}

fn put_run_totals(b: &mut WireBuf, t: &RunTotals) {
    b.put_u64(t.injected);
    b.put_u64(t.delivered);
    b.put_u64(t.unmeasured);
    b.put_u64(t.dropped);
    b.put_u64(t.latency_sum);
    b.put_u32(t.max_latency);
    b.put_u64(t.in_flight);
}

fn take_run_totals(c: &mut WireCursor<'_>) -> std::result::Result<RunTotals, String> {
    Ok(RunTotals {
        injected: c.take_u64("totals.injected")?,
        delivered: c.take_u64("totals.delivered")?,
        unmeasured: c.take_u64("totals.unmeasured")?,
        dropped: c.take_u64("totals.dropped")?,
        latency_sum: c.take_u64("totals.latency_sum")?,
        max_latency: c.take_u32("totals.max_latency")?,
        in_flight: c.take_u64("totals.in_flight")?,
    })
}

// ---------------------------------------------------------------------------
// The seven frame types
// ---------------------------------------------------------------------------

/// Coordinator → worker, once: the complete run description. The
/// worker derives the shard geometry from `n` (`engine::shard_layout`).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SetupFrame {
    pub(crate) worker: u32,
    pub(crate) n: u32,
    /// Global index of the first shard this worker owns.
    pub(crate) shard_lo: u32,
    /// One past the last owned shard.
    pub(crate) shard_hi: u32,
    /// Window size for metric snapshots (0 = none).
    pub(crate) window: u32,
    pub(crate) track: bool,
    /// A fault plan is installed (possibly with zero events) — this
    /// changes engine behavior independent of the event list.
    pub(crate) faulted: bool,
    /// Trace sampling `(interval, ring_capacity)` when tracing.
    pub(crate) trace: Option<(u32, u64)>,
    /// Network spec the worker rebuilds its router from.
    pub(crate) netspec: String,
    pub(crate) cfg: SimConfig,
    pub(crate) faults: Vec<FaultEvent>,
}

impl DistFrame for SetupFrame {
    const KIND: u8 = 1;
    const NAME: &'static str = "Setup";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u32(self.worker);
        b.put_u32(self.n);
        b.put_u32(self.shard_lo);
        b.put_u32(self.shard_hi);
        b.put_u32(self.window);
        b.put_bool(self.track);
        b.put_bool(self.faulted);
        match self.trace {
            Some((interval, capacity)) => {
                b.put_bool(true);
                b.put_u32(interval);
                b.put_u64(capacity);
            }
            None => {
                b.put_bool(false);
                b.put_u32(0);
                b.put_u64(0);
            }
        }
        b.put_str(&self.netspec);
        put_sim_config(b, &self.cfg);
        put_fault_events(b, &self.faults);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        let worker = c.take_u32("setup.worker")?;
        let n = c.take_u32("setup.n")?;
        let shard_lo = c.take_u32("setup.shard_lo")?;
        let shard_hi = c.take_u32("setup.shard_hi")?;
        let window = c.take_u32("setup.window")?;
        let track = c.take_bool("setup.track")?;
        let faulted = c.take_bool("setup.faulted")?;
        let has_trace = c.take_bool("setup.trace")?;
        let interval = c.take_u32("setup.trace.interval")?;
        let capacity = c.take_u64("setup.trace.capacity")?;
        let trace = has_trace.then_some((interval, capacity));
        let netspec = c.take_str("setup.netspec")?;
        let cfg = take_sim_config(c)?;
        let faults = take_fault_events(c)?;
        Ok(SetupFrame {
            worker,
            n,
            shard_lo,
            shard_hi,
            window,
            track,
            faulted,
            trace,
            netspec,
            cfg,
            faults,
        })
    }
}

/// Coordinator → worker, once per owned shard: the flattened link
/// arrays, so the worker never materializes the full graph. The shard's
/// node range follows from the layout the worker derives from Setup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ShardLinksFrame {
    pub(crate) shard: u32,
    pub(crate) link_of: Vec<u32>,
    pub(crate) to: Vec<u32>,
    pub(crate) interval: Vec<u32>,
}

impl DistFrame for ShardLinksFrame {
    const KIND: u8 = 2;
    const NAME: &'static str = "ShardLinks";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u32(self.shard);
        b.put_u32_slice(&self.link_of);
        b.put_u32_slice(&self.to);
        b.put_u32_slice(&self.interval);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(ShardLinksFrame {
            shard: c.take_u32("links.shard")?,
            link_of: c.take_u32_vec("links.link_of")?,
            to: c.take_u32_vec("links.to")?,
            interval: c.take_u32_vec("links.interval")?,
        })
    }
}

/// Worker → coordinator, once: router and shards are built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReadyFrame {
    pub(crate) worker: u32,
}

impl DistFrame for ReadyFrame {
    const KIND: u8 = 3;
    const NAME: &'static str = "Ready";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u32(self.worker);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(ReadyFrame {
            worker: c.take_u32("ready.worker")?,
        })
    }
}

/// Worker → coordinator, every cycle: departures bound for other
/// workers' shards, plus the total outbox volume (including messages
/// that stayed local) for the merge-track trace gauge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct OutboxFrame {
    pub(crate) cycle: u32,
    pub(crate) launched_total: u32,
    pub(crate) msgs: Vec<Msg>,
}

impl DistFrame for OutboxFrame {
    const KIND: u8 = 4;
    const NAME: &'static str = "Outbox";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u32(self.cycle);
        b.put_u32(self.launched_total);
        put_msgs(b, &self.msgs);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(OutboxFrame {
            cycle: c.take_u32("outbox.cycle")?,
            launched_total: c.take_u32("outbox.launched_total")?,
            msgs: take_msgs(c)?,
        })
    }
}

/// Coordinator → worker, every cycle: cross-worker arrivals split by
/// origin — `pre` from workers with smaller ids, `post` from larger —
/// so the worker can interleave its local departures at exactly the
/// position the in-process global shard-order merge would have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ArrivalsFrame {
    pub(crate) cycle: u32,
    pub(crate) pre: Vec<Msg>,
    pub(crate) post: Vec<Msg>,
}

impl DistFrame for ArrivalsFrame {
    const KIND: u8 = 5;
    const NAME: &'static str = "Arrivals";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u32(self.cycle);
        put_msgs(b, &self.pre);
        put_msgs(b, &self.post);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(ArrivalsFrame {
            cycle: c.take_u32("arrivals.cycle")?,
            pre: take_msgs(c)?,
            post: take_msgs(c)?,
        })
    }
}

/// Worker → coordinator at window boundaries: cumulative metric values
/// the coordinator folds as deltas into its own registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SnapshotFrame {
    pub(crate) cycle: u64,
    pub(crate) metrics: Vec<(String, MetricSnapshot)>,
}

impl DistFrame for SnapshotFrame {
    const KIND: u8 = 6;
    const NAME: &'static str = "Snapshot";

    fn put_body(&self, b: &mut WireBuf) {
        b.put_u64(self.cycle);
        put_metric_snapshots(b, &self.metrics);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(SnapshotFrame {
            cycle: c.take_u64("snapshot.cycle")?,
            metrics: take_metric_snapshots(c)?,
        })
    }
}

/// Worker → coordinator, once after the cycle loop: run totals, final
/// metric snapshot, drained trace events, and per-worker gauges.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FinalFrame {
    pub(crate) totals: RunTotals,
    pub(crate) metrics: Vec<(String, MetricSnapshot)>,
    pub(crate) trace_events: Vec<TraceEvent>,
    pub(crate) trace_dropped: u64,
    /// Worker peak RSS in KiB (`VmHWM`), probed by the host binary.
    pub(crate) rss_kb: u64,
    /// Frames sent + received by the worker before this one.
    pub(crate) frames: u64,
    /// Bytes sent + received by the worker before this frame.
    pub(crate) frame_bytes: u64,
}

impl DistFrame for FinalFrame {
    const KIND: u8 = 7;
    const NAME: &'static str = "Final";

    fn put_body(&self, b: &mut WireBuf) {
        put_run_totals(b, &self.totals);
        put_metric_snapshots(b, &self.metrics);
        put_trace_events(b, &self.trace_events);
        b.put_u64(self.trace_dropped);
        b.put_u64(self.rss_kb);
        b.put_u64(self.frames);
        b.put_u64(self.frame_bytes);
    }

    fn take_body(c: &mut WireCursor<'_>) -> std::result::Result<Self, String> {
        Ok(FinalFrame {
            totals: take_run_totals(c)?,
            metrics: take_metric_snapshots(c)?,
            trace_events: take_trace_events(c)?,
            trace_dropped: c.take_u64("final.trace_dropped")?,
            rss_kb: c.take_u64("final.rss_kb")?,
            frames: c.take_u64("final.frames")?,
            frame_bytes: c.take_u64("final.frame_bytes")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Framed transport
// ---------------------------------------------------------------------------

/// One end of a coordinator↔worker channel: a Unix stream plus frame
/// accounting and error context (worker id, cycle, last good frame).
pub(crate) struct FrameIo {
    stream: UnixStream,
    worker: u32,
    cycle: u64,
    last: &'static str,
    pub(crate) sent_frames: u64,
    pub(crate) sent_bytes: u64,
    pub(crate) recv_frames: u64,
    pub(crate) recv_bytes: u64,
}

impl FrameIo {
    pub(crate) fn over(stream: UnixStream, worker: u32) -> FrameIo {
        FrameIo {
            stream,
            worker,
            cycle: u64::MAX,
            last: "none",
            sent_frames: 0,
            sent_bytes: 0,
            recv_frames: 0,
            recv_bytes: 0,
        }
    }

    /// Coordinator side: a connected socket pair, one end wrapped for
    /// talking to `worker`, the other to become the worker's stdin.
    pub(crate) fn coordinator_channel(worker: u32) -> Result<(FrameIo, OwnedFd)> {
        let (ours, theirs) = UnixStream::pair().map_err(|e| IpgError::Dist {
            worker,
            cycle: u64::MAX,
            detail: format!("socketpair failed: {e}"),
        })?;
        Ok((FrameIo::over(ours, worker), OwnedFd::from(theirs)))
    }

    /// Worker side: adopt the socket the coordinator installed as our
    /// stdin. The worker id is stamped in after the Setup frame names it.
    pub(crate) fn worker_channel() -> Result<FrameIo> {
        use std::os::fd::AsFd;
        let fd = std::io::stdin()
            .as_fd()
            .try_clone_to_owned()
            .map_err(|e| IpgError::Dist {
                worker: u32::MAX,
                cycle: u64::MAX,
                detail: format!("cannot adopt stdin as the frame channel: {e}"),
            })?;
        Ok(FrameIo::over(UnixStream::from(fd), u32::MAX))
    }

    /// Spawn one worker process with its end of a fresh socket pair
    /// installed as stdin (the coordinator never touches file
    /// descriptors directly — lint DET008). stdout is discarded so a
    /// worker can never corrupt the coordinator's stdout; stderr is
    /// inherited for crash visibility.
    pub(crate) fn spawn_worker_process(argv: &[String], worker: u32) -> Result<(FrameIo, Child)> {
        let (io, child_fd) = FrameIo::coordinator_channel(worker)?;
        let child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::from(child_fd))
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| IpgError::Dist {
                worker,
                cycle: u64::MAX,
                detail: format!("failed to spawn worker `{}`: {e}", argv[0]),
            })?;
        Ok((io, child))
    }

    /// Attribute subsequent errors to `worker` (worker side, post-Setup).
    pub(crate) fn tag_worker(&mut self, worker: u32) {
        self.worker = worker;
    }

    /// Stamp the simulation cycle onto subsequent error context.
    pub(crate) fn note_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Heartbeat deadline for blocking transfers: a peer that neither
    /// sends nor drains anything for this long is treated as dead
    /// instead of hanging the run.
    pub(crate) fn set_exchange_deadline(&self, deadline: Option<Duration>) -> Result<()> {
        self.stream
            .set_read_timeout(deadline)
            .and_then(|()| self.stream.set_write_timeout(deadline))
            .map_err(|e| self.fault(format!("cannot set exchange deadline: {e}")))
    }

    /// An [`IpgError::Dist`] stamped with this channel's context.
    pub(crate) fn fault(&self, detail: String) -> IpgError {
        IpgError::Dist {
            worker: self.worker,
            cycle: self.cycle,
            detail: format!("{detail} (last good frame: {})", self.last),
        }
    }

    fn io_fault(&self, doing: &str, frame: &str, e: &std::io::Error) -> IpgError {
        use std::io::ErrorKind;
        let what = match e.kind() {
            ErrorKind::UnexpectedEof => "peer closed the channel (worker exited?)".to_string(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                "exchange deadline exceeded (peer hung?)".to_string()
            }
            ErrorKind::BrokenPipe => "broken pipe (worker exited?)".to_string(),
            _ => format!("I/O error: {e}"),
        };
        self.fault(format!("{what} while {doing} {frame} frame"))
    }

    /// Send one typed frame (blocking until the peer's socket buffer
    /// accepts it — safe under the lock-step protocol, which never has
    /// both sides writing at once).
    pub(crate) fn frame_send<F: DistFrame>(&mut self, f: &F) -> Result<()> {
        use std::io::Write;
        let bytes = frame_to_bytes(f);
        self.stream
            .write_all(&bytes)
            .map_err(|e| self.io_fault("sending", F::NAME, &e))?;
        self.sent_frames += 1;
        self.sent_bytes += bytes.len() as u64;
        self.last = F::NAME;
        Ok(())
    }

    /// Receive the next frame, which the lock-step protocol says must
    /// be an `F`. Header, length, checksum, version, and kind are all
    /// validated before the body decoder runs.
    pub(crate) fn frame_recv<F: DistFrame>(&mut self) -> Result<F> {
        use std::io::Read;
        let mut h = [0u8; HEADER_LEN];
        self.stream
            .read_exact(&mut h)
            .map_err(|e| self.io_fault("awaiting", F::NAME, &e))?;
        let (kind, len) = header_fields(&h).map_err(|d| self.fault(d))?;
        let mut body = vec![0u8; len as usize + 8];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| self.io_fault("reading body of", F::NAME, &e))?;
        let f = body_to_frame::<F>(kind, &h[4..], &body).map_err(|d| self.fault(d))?;
        self.recv_frames += 1;
        self.recv_bytes += (HEADER_LEN + body.len()) as u64;
        self.last = F::NAME;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_setup() -> SetupFrame {
        SetupFrame {
            worker: 2,
            n: 4096,
            shard_lo: 16,
            shard_hi: 24,
            window: 500,
            track: true,
            faulted: true,
            trace: Some((64, 16384)),
            netspec: "ring-cn:l=3,nucleus=Q3".to_string(),
            cfg: SimConfig {
                injection_rate: 0.031_25,
                switching: Switching::CutThrough,
                traffic: Traffic::Hotspot {
                    fraction: 0.1,
                    target: 7,
                },
                ..SimConfig::default()
            },
            faults: vec![
                FaultEvent {
                    cycle: 600,
                    kind: FaultKind::Link(0, 1),
                },
                FaultEvent {
                    cycle: 1200,
                    kind: FaultKind::Node(5),
                },
            ],
        }
    }

    fn sample_final() -> FinalFrame {
        FinalFrame {
            totals: RunTotals {
                injected: 1000,
                delivered: 900,
                unmeasured: 40,
                dropped: 10,
                latency_sum: 12345,
                max_latency: 99,
                in_flight: 90,
            },
            metrics: vec![
                ("a.counter".to_string(), MetricSnapshot::Counter(42)),
                ("b.gauge".to_string(), MetricSnapshot::Gauge(7)),
                (
                    "c.hist".to_string(),
                    MetricSnapshot::Hist(HistSnapshot {
                        buckets: vec![(0, 3), (5, 9)],
                        count: 12,
                        sum: 47,
                        min: 0,
                        max: 31,
                    }),
                ),
            ],
            trace_events: vec![TraceEvent {
                cycle: 64,
                kind: 1,
                shard: 3,
                a: 10,
                b: 20,
                value: 30,
            }],
            trace_dropped: 2,
            rss_kb: 10240,
            frames: 123,
            frame_bytes: 45678,
        }
    }

    #[test]
    fn roundtrip_every_frame_kind() {
        let setup = sample_setup();
        assert_eq!(
            frame_from_bytes::<SetupFrame>(&frame_to_bytes(&setup)).unwrap(),
            setup
        );
        let links = ShardLinksFrame {
            shard: 5,
            link_of: vec![0, 2, 4],
            to: vec![1, 2, 3, 4],
            interval: vec![1, 1, 3, 3],
        };
        assert_eq!(
            frame_from_bytes::<ShardLinksFrame>(&frame_to_bytes(&links)).unwrap(),
            links
        );
        let ready = ReadyFrame { worker: 3 };
        assert_eq!(
            frame_from_bytes::<ReadyFrame>(&frame_to_bytes(&ready)).unwrap(),
            ready
        );
        let outbox = OutboxFrame {
            cycle: 17,
            launched_total: 9,
            msgs: vec![Msg {
                to: 1,
                dst: 2,
                born: 3,
                tagged: true,
                slot: 4,
            }],
        };
        assert_eq!(
            frame_from_bytes::<OutboxFrame>(&frame_to_bytes(&outbox)).unwrap(),
            outbox
        );
        let arrivals = ArrivalsFrame {
            cycle: 17,
            pre: outbox.msgs.clone(),
            post: vec![],
        };
        assert_eq!(
            frame_from_bytes::<ArrivalsFrame>(&frame_to_bytes(&arrivals)).unwrap(),
            arrivals
        );
        let snap = SnapshotFrame {
            cycle: 500,
            metrics: sample_final().metrics,
        };
        assert_eq!(
            frame_from_bytes::<SnapshotFrame>(&frame_to_bytes(&snap)).unwrap(),
            snap
        );
        let fin = sample_final();
        assert_eq!(
            frame_from_bytes::<FinalFrame>(&frame_to_bytes(&fin)).unwrap(),
            fin
        );
    }

    #[test]
    fn truncated_frames_error_out() {
        let bytes = frame_to_bytes(&sample_setup());
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            assert!(
                frame_from_bytes::<SetupFrame>(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = frame_to_bytes(&ReadyFrame { worker: 0 });
        bytes[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = frame_from_bytes::<ReadyFrame>(&bytes).unwrap_err();
        assert!(err.contains("cap"), "unexpected error: {err}");
    }

    #[test]
    fn forged_element_count_is_rejected_before_allocation() {
        // A ShardLinks frame whose vec count claims ~4 billion entries
        // inside a tiny payload must fail on the count check.
        let links = ShardLinksFrame {
            shard: 0,
            link_of: vec![0, 1],
            to: vec![1],
            interval: vec![1],
        };
        let mut bytes = frame_to_bytes(&links);
        // link_of count lives right after the leading shard u32.
        let off = HEADER_LEN + 4;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = frame_from_bytes::<ShardLinksFrame>(&bytes).unwrap_err();
        assert!(err.contains("checksum") || err.contains("overrun"));
    }

    #[test]
    fn checksum_flip_is_detected() {
        let mut bytes = frame_to_bytes(&ReadyFrame { worker: 1 });
        let mid = HEADER_LEN; // first payload byte
        bytes[mid] ^= 0x40;
        let err = frame_from_bytes::<ReadyFrame>(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    #[test]
    fn version_and_magic_skew_are_rejected() {
        let good = frame_to_bytes(&ReadyFrame { worker: 1 });
        let mut wrong_version = good.clone();
        wrong_version[3] = WIRE_VERSION + 1;
        let err = frame_from_bytes::<ReadyFrame>(&wrong_version).unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");
        let mut wrong_magic = good;
        wrong_magic[0] = b'X';
        let err = frame_from_bytes::<ReadyFrame>(&wrong_magic).unwrap_err();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let bytes = frame_to_bytes(&ReadyFrame { worker: 1 });
        let err = frame_from_bytes::<OutboxFrame>(&bytes).unwrap_err();
        assert!(err.contains("kind"), "unexpected error: {err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Re-seal a Ready frame with one extra payload byte: checksum
        // valid, body decoder must flag the leftover.
        let mut b = WireBuf::with_header(ReadyFrame::KIND);
        ReadyFrame { worker: 1 }.put_body(&mut b);
        b.put_u8(0xEE);
        let bytes = b.seal();
        let err = frame_from_bytes::<ReadyFrame>(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "unexpected error: {err}");
    }

    #[test]
    fn invalid_utf8_netspec_is_rejected() {
        let mut b = WireBuf::with_header(SetupFrame::KIND);
        sample_setup().put_body(&mut b);
        // Corrupt a byte inside the netspec string ("ring-cn..." starts
        // after the fixed-size fields; find it by searching).
        let pos = b
            .bytes
            .windows(4)
            .position(|w| w == b"ring")
            .expect("netspec bytes present");
        b.bytes[pos] = 0xFF;
        let bytes = b.seal();
        let err = frame_from_bytes::<SetupFrame>(&bytes).unwrap_err();
        assert!(err.contains("UTF-8"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_enum_tags_are_rejected() {
        // Fault kind tag 9 is not a thing.
        let mut b = WireBuf::with_header(SetupFrame::KIND);
        let mut s = sample_setup();
        s.faults.truncate(1);
        s.put_body(&mut b);
        let last13 = b.bytes.len() - 13;
        b.bytes[last13 + 4] = 9; // the kind tag of the single fault event
        let bytes = b.seal();
        let err = frame_from_bytes::<SetupFrame>(&bytes).unwrap_err();
        assert!(err.contains("fault kind"), "unexpected error: {err}");

        // A flag byte is a two-value tag: 2..=255 behind a valid
        // checksum must not decode as `true`, and the error names the
        // field. `track` follows Setup's five leading u32 fields.
        let mut b = WireBuf::with_header(SetupFrame::KIND);
        sample_setup().put_body(&mut b);
        let track_at = HEADER_LEN + 20;
        assert_eq!(b.bytes[track_at], 1);
        for forged in [2u8, 0x7F, 0xFF] {
            let mut f = WireBuf {
                bytes: b.bytes.clone(),
            };
            f.bytes[track_at] = forged;
            let err = frame_from_bytes::<SetupFrame>(&f.seal()).unwrap_err();
            assert!(
                err.contains("setup.track") && err.contains(&forged.to_string()),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn frame_io_roundtrip_over_socketpair() {
        let (mut a, fd) = FrameIo::coordinator_channel(0).unwrap();
        let mut b = FrameIo::over(UnixStream::from(fd), 0);
        let out = OutboxFrame {
            cycle: 3,
            launched_total: 2,
            msgs: vec![Msg {
                to: 9,
                dst: 10,
                born: 1,
                tagged: false,
                slot: 2,
            }],
        };
        a.frame_send(&out).unwrap();
        let got: OutboxFrame = b.frame_recv().unwrap();
        assert_eq!(got, out);
        assert_eq!(a.sent_frames, 1);
        assert_eq!(b.recv_frames, 1);
        assert_eq!(a.sent_bytes, b.recv_bytes);
    }

    #[test]
    fn closed_channel_yields_contextual_error() {
        let (mut a, fd) = FrameIo::coordinator_channel(3).unwrap();
        a.note_cycle(41);
        drop(UnixStream::from(fd));
        let err = a.frame_recv::<OutboxFrame>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("worker 3"), "missing worker id: {msg}");
        assert!(msg.contains("cycle 41"), "missing cycle: {msg}");
        assert!(msg.contains("closed"), "missing close context: {msg}");
    }

    #[test]
    fn deadline_turns_silence_into_an_error() {
        let (mut a, fd) = FrameIo::coordinator_channel(1).unwrap();
        // Keep the peer end open but silent.
        let _peer = UnixStream::from(fd);
        a.set_exchange_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        let err = a.frame_recv::<ReadyFrame>().unwrap_err();
        assert!(
            err.to_string().contains("deadline"),
            "unexpected error: {err}"
        );
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        (
            (0u32..u32::MAX, 0u32..u32::MAX),
            (0u32..u32::MAX, 0u32..2),
            0u32..u32::MAX,
        )
            .prop_map(|((to, dst), (born, tagged), slot)| Msg {
                to,
                dst,
                born,
                tagged: tagged == 1,
                slot,
            })
    }

    proptest! {
        #[test]
        fn prop_outbox_roundtrip(cycle in 0u32..u32::MAX, launched in 0u32..u32::MAX,
                                 msgs in proptest::collection::vec(arb_msg(), 0..64)) {
            let f = OutboxFrame { cycle, launched_total: launched, msgs };
            prop_assert_eq!(frame_from_bytes::<OutboxFrame>(&frame_to_bytes(&f)).unwrap(), f);
        }

        #[test]
        fn prop_shard_links_roundtrip(shard in 0u32..u32::MAX,
                                      to in proptest::collection::vec(0u32..u32::MAX, 0..128)) {
            let interval: Vec<u32> = to.iter().map(|v| v % 7 + 1).collect();
            let f = ShardLinksFrame {
                shard,
                link_of: vec![0, to.len() as u32],
                to, interval,
            };
            prop_assert_eq!(frame_from_bytes::<ShardLinksFrame>(&frame_to_bytes(&f)).unwrap(), f);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(
            words in proptest::collection::vec(0u32..256, 0..256),
        ) {
            // Any byte soup must be rejected or decoded, never panic.
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let _ = frame_from_bytes::<SetupFrame>(&bytes);
            let _ = frame_from_bytes::<OutboxFrame>(&bytes);
            let _ = frame_from_bytes::<FinalFrame>(&bytes);
        }

        #[test]
        fn prop_corrupted_valid_frame_never_decodes_silently(
            flip in 0usize..64, bit in 0u8..8,
        ) {
            let f = OutboxFrame {
                cycle: 5, launched_total: 1,
                msgs: vec![Msg { to: 1, dst: 2, born: 3, tagged: true, slot: 4 }],
            };
            let mut bytes = frame_to_bytes(&f);
            let i = flip % bytes.len();
            bytes[i] ^= 1 << bit;
            // Every byte is covered: magic/version by the header check,
            // kind/flags/len/payload by the checksum, the checksum
            // trailer by itself. A single-bit flip can never decode.
            prop_assert!(frame_from_bytes::<OutboxFrame>(&bytes).is_err());
        }
    }
}
