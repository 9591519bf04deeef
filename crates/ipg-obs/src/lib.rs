//! Lightweight observability for the IP-graph reproduction.
//!
//! Everything in this crate is built around one rule: **the disabled
//! path is a no-op**. An [`Obs`] handle constructed with
//! [`Obs::disabled`] carries no allocation and every operation on it —
//! counter increments, histogram observations, span timers — reduces to
//! a single branch on a `None`. Paper-number-producing code can
//! therefore be instrumented unconditionally without perturbing results
//! or timings when observability is off.
//!
//! When enabled, an [`Obs`] owns:
//!
//! * a registry of named [`Counter`]s, high-water [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s (HDR-style octave buckets, ≤12.5 %
//!   relative error, exact below 64) with p50/p95/p99 readout;
//! * a hierarchical [`Span`] timer stack (`engine/run/warmup`), each
//!   span emitting a wall-clock record when dropped;
//! * a [`Recorder`] sink that serializes everything as JSON lines — a
//!   *run manifest*: one `meta` record (tool name, config, `git
//!   describe`, timestamp), interleaved `span` and `window` records,
//!   and a final `metrics` record.
//!
//! Determinism contract: [`Obs::metrics_json`] (and the `metrics` /
//! `window` records) contain only data derived from the instrumented
//! computation — never wall-clock time — and iterate metrics in sorted
//! name order. Two runs with the same seed produce byte-identical
//! metric dumps; only `meta` and `span` records may differ.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod hist;
mod json;
pub mod probe;
mod recorder;
pub mod trace;

pub use hist::{HistSnapshot, Histogram};
pub use probe::ObsBuildProbe;
pub use recorder::{JsonlRecorder, MemRecorder, NullRecorder, Recorder};
pub use trace::{ShardTracer, Trace, TraceConfig, TraceSummary, ENGINE_TRACK};

/// A named monotone counter. No-op when obtained from a disabled [`Obs`].
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A named gauge tracking the **high-water mark** of recorded values.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Raise the gauge to `v` if `v` exceeds the current high-water mark.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current high-water mark (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Scalar values accepted in a `meta` record's config map.
#[derive(Clone, Debug)]
pub enum MetaVal {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for MetaVal {
    fn from(s: &str) -> Self {
        MetaVal::Str(s.to_string())
    }
}
impl From<String> for MetaVal {
    fn from(s: String) -> Self {
        MetaVal::Str(s)
    }
}
impl From<u64> for MetaVal {
    fn from(v: u64) -> Self {
        MetaVal::U64(v)
    }
}
impl From<usize> for MetaVal {
    fn from(v: usize) -> Self {
        MetaVal::U64(v as u64)
    }
}
impl From<i64> for MetaVal {
    fn from(v: i64) -> Self {
        MetaVal::I64(v)
    }
}
impl From<f64> for MetaVal {
    fn from(v: f64) -> Self {
        MetaVal::F64(v)
    }
}
impl From<bool> for MetaVal {
    fn from(v: bool) -> Self {
        MetaVal::Bool(v)
    }
}

impl MetaVal {
    fn to_json(&self) -> String {
        match self {
            MetaVal::Str(s) => json::quote(s),
            MetaVal::U64(v) => v.to_string(),
            MetaVal::I64(v) => v.to_string(),
            MetaVal::F64(v) => json::float(*v),
            MetaVal::Bool(v) => v.to_string(),
        }
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Histogram),
}

/// One metric's cumulative value as captured by [`Obs::snapshot_metrics`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// Monotone counter value.
    Counter(u64),
    /// High-water gauge value.
    Gauge(u64),
    /// Full histogram state.
    Hist(HistSnapshot),
}

struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    span_stack: Mutex<Vec<String>>,
    sink: Mutex<Box<dyn Recorder>>,
    t0: Instant,
}

/// Handle to an observability session (cheaply cloneable).
///
/// Construct with [`Obs::disabled`] (free no-op), [`Obs::to_file`]
/// (JSON-lines manifest on disk), [`Obs::in_memory`] (testing), or
/// [`Obs::with_recorder`] (custom sink such as [`NullRecorder`]).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// The no-op handle: every operation is a branch-and-return.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// Record to a JSON-lines manifest file at `path` (created or
    /// truncated).
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Obs> {
        Ok(Obs::with_recorder(Box::new(JsonlRecorder::create(path)?)))
    }

    /// Record into an in-memory buffer; returns the handle and the
    /// buffer to inspect after [`Obs::finish`].
    pub fn in_memory() -> (Obs, MemRecorder) {
        let mem = MemRecorder::new();
        (Obs::with_recorder(Box::new(mem.clone())), mem)
    }

    /// Record through an arbitrary [`Recorder`].
    pub fn with_recorder(sink: Box<dyn Recorder>) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                span_stack: Mutex::new(Vec::new()),
                sink: Mutex::new(sink),
                t0: Instant::now(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut m = inner.metrics.lock().unwrap();
        let cell = match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        };
        Counter(Some(cell))
    }

    /// Get or create the named high-water gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let mut m = inner.metrics.lock().unwrap();
        let cell = match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        };
        Gauge(Some(cell))
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let mut m = inner.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::active()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Open a wall-clock span; the returned guard emits a `span` record
    /// (with the `/`-joined hierarchical path) when dropped.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                obs: Obs::disabled(),
                start: None,
            };
        };
        inner.span_stack.lock().unwrap().push(name.to_string());
        Span {
            obs: self.clone(),
            start: Some(Instant::now()),
        }
    }

    /// Emit the `meta` record: tool name, config key/value pairs, `git
    /// describe` of the working tree, and a unix timestamp.
    pub fn emit_meta(&self, tool: &str, config: &[(&str, MetaVal)]) {
        let Some(inner) = &self.inner else { return };
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"record\":\"meta\",\"tool\":{},\"git\":{},\"unix_ts\":{},\"config\":{{",
            json::quote(tool),
            match git_describe() {
                Some(d) => json::quote(&d),
                None => "null".to_string(),
            },
            unix_ts(),
        );
        for (i, (k, v)) in config.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{}:{}", json::quote(k), v.to_json());
        }
        line.push_str("}}");
        inner.sink.lock().unwrap().record(&line);
    }

    /// Emit a `rate` record: a wall-clock-derived throughput figure
    /// (e.g. nodes generated per second). Rates live beside `span`
    /// records in the nondeterministic family — they never appear in
    /// the metrics dump.
    pub fn emit_rate(&self, name: &str, count: u64, secs: f64) {
        let Some(inner) = &self.inner else { return };
        let per_sec = if secs > 0.0 { count as f64 / secs } else { 0.0 };
        let line = format!(
            "{{\"record\":\"rate\",\"name\":{},\"count\":{count},\"secs\":{},\"per_sec\":{}}}",
            json::quote(name),
            json::float(secs),
            json::float(per_sec),
        );
        inner.sink.lock().unwrap().record(&line);
    }

    /// Emit a `scaling` record: the worker count and achieved busy/wall
    /// parallelism of one named execution phase. Like `rate`, scaling
    /// records are wall-clock-derived and live in the nondeterministic
    /// family — they never appear in the metrics dump, so metric dumps
    /// stay byte-identical across `IPG_THREADS` settings.
    pub fn emit_scaling(&self, phase: &str, workers: usize, busy_secs: f64, wall_secs: f64) {
        let Some(inner) = &self.inner else { return };
        let speedup = if wall_secs > 0.0 {
            busy_secs / wall_secs
        } else {
            1.0
        };
        let line = format!(
            "{{\"record\":\"scaling\",\"phase\":{},\"workers\":{workers},\"busy_secs\":{},\"wall_secs\":{},\"speedup\":{}}}",
            json::quote(phase),
            json::float(busy_secs),
            json::float(wall_secs),
            json::float(speedup),
        );
        inner.sink.lock().unwrap().record(&line);
    }

    /// Emit a `dist` record: per-worker resource figures from a
    /// multi-process simulation run (peak RSS, frame traffic). Like
    /// `span`/`rate`/`scaling`, dist records are host-dependent and
    /// live in the nondeterministic family — they never appear in
    /// `window`/`metrics` records or trace files, so those stay
    /// byte-identical across worker counts.
    pub fn emit_dist(&self, worker: u32, rss_kb: u64, frames: u64, frame_bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let line = format!(
            "{{\"record\":\"dist\",\"worker\":{worker},\"rss_kb\":{rss_kb},\"frames\":{frames},\"frame_bytes\":{frame_bytes}}}",
        );
        inner.sink.lock().unwrap().record(&line);
    }

    /// Cumulative capture of every registered metric, for cross-process
    /// aggregation: the distributed worker ships these at window
    /// boundaries and the coordinator folds per-worker deltas into its
    /// own registry (counters delta-added, gauges max-folded,
    /// histograms via [`Histogram::merge_delta`]). Names come back in
    /// sorted (registry) order.
    pub fn snapshot_metrics(&self) -> Vec<(String, MetricSnapshot)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let m = inner.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => MetricSnapshot::Hist(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect()
    }

    /// Emit a `window` record: a deterministic snapshot of all metrics
    /// at a given progress point (e.g. a simulator cycle).
    pub fn emit_window(&self, cycle: u64) {
        let Some(inner) = &self.inner else { return };
        let mut line = String::new();
        let _ = write!(line, "{{\"record\":\"window\",\"cycle\":{cycle},");
        Self::write_metrics_body(&inner.metrics.lock().unwrap(), &mut line);
        line.push('}');
        inner.sink.lock().unwrap().record(&line);
    }

    /// The deterministic metric dump: sorted names, no wall-clock data.
    /// This is the exact body of the final `metrics` record.
    pub fn metrics_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut body = String::new();
        Self::write_metrics_body(&inner.metrics.lock().unwrap(), &mut body);
        body
    }

    fn write_metrics_body(metrics: &BTreeMap<String, Metric>, out: &mut String) {
        let section = |out: &mut String, name: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            let _ = write!(out, "{}:{{", json::quote(name));
        };
        let mut first = true;

        section(out, "counters", &mut first);
        let mut inner_first = true;
        for (name, m) in metrics {
            if let Metric::Counter(c) = m {
                if !inner_first {
                    out.push(',');
                }
                inner_first = false;
                let _ = write!(out, "{}:{}", json::quote(name), c.load(Ordering::Relaxed));
            }
        }
        out.push('}');

        section(out, "gauges", &mut first);
        let mut inner_first = true;
        for (name, m) in metrics {
            if let Metric::Gauge(g) = m {
                if !inner_first {
                    out.push(',');
                }
                inner_first = false;
                let _ = write!(out, "{}:{}", json::quote(name), g.load(Ordering::Relaxed));
            }
        }
        out.push('}');

        section(out, "histograms", &mut first);
        let mut inner_first = true;
        for (name, m) in metrics {
            if let Metric::Histogram(h) = m {
                if !inner_first {
                    out.push(',');
                }
                inner_first = false;
                let _ = write!(out, "{}:{}", json::quote(name), h.summary_json());
            }
        }
        out.push('}');
    }

    /// Emit the final `metrics` record and flush the sink. Idempotent in
    /// effect but intended to be called once, at the end of a run.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        let mut line = String::from("{\"record\":\"metrics\",");
        Self::write_metrics_body(&inner.metrics.lock().unwrap(), &mut line);
        line.push('}');
        let mut sink = inner.sink.lock().unwrap();
        sink.record(&line);
        sink.flush();
    }
}

/// RAII wall-clock timer returned by [`Obs::span`]. Dropping it emits a
/// `span` record with the hierarchical path and elapsed seconds.
pub struct Span {
    obs: Obs,
    start: Option<Instant>,
}

impl Span {
    /// Seconds elapsed since the span opened (`None` when disabled).
    ///
    /// This is the sanctioned way for instrumented code to derive
    /// wall-clock rates (`Obs::emit_rate`) without reading the clock
    /// itself: all `Instant` access stays inside `ipg-obs`, which the
    /// DET003 lint (`ipg-analyze`) enforces workspace-wide.
    pub fn elapsed_secs(&self) -> Option<f64> {
        self.start.map(|s| s.elapsed().as_secs_f64())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (&self.obs.inner, self.start) else {
            return;
        };
        let path = {
            let mut stack = inner.span_stack.lock().unwrap();
            let path = stack.join("/");
            stack.pop();
            path
        };
        let line = format!(
            "{{\"record\":\"span\",\"path\":{},\"secs\":{},\"at_secs\":{}}}",
            json::quote(&path),
            json::float(start.elapsed().as_secs_f64()),
            json::float(inner.t0.elapsed().as_secs_f64()),
        );
        inner.sink.lock().unwrap().record(&line);
    }
}

/// Is `line` a manifest record of the deterministic family (`window` or
/// `metrics`)? Those carry only computation-derived values and must be
/// byte-identical across runs of the same seed; every other family
/// (`meta`, `span`, `rate`, `scaling`, `dist`) may carry wall-clock or
/// host data.
pub fn is_deterministic_record(line: &str) -> bool {
    line.starts_with("{\"record\":\"window\"") || line.starts_with("{\"record\":\"metrics\"")
}

/// `git describe --always --dirty` of the current working tree, if git
/// and a repository are available.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn unix_ts() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_noop() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let c = obs.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = obs.gauge("y");
        g.record_max(9);
        assert_eq!(g.get(), 0);
        obs.histogram("z").observe(3);
        let _span = obs.span("nothing");
        obs.emit_meta("tool", &[("k", MetaVal::from(1u64))]);
        obs.emit_window(10);
        obs.finish();
        assert_eq!(obs.metrics_json(), "");
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let (obs, _mem) = Obs::in_memory();
        let c = obs.counter("packets");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        // same name returns the same cell
        assert_eq!(obs.counter("packets").get(), 4);
        let g = obs.gauge("depth");
        g.record_max(7);
        g.record_max(2);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn metrics_dump_is_sorted_and_deterministic() {
        let run = || {
            let (obs, _mem) = Obs::in_memory();
            obs.counter("b_ctr").add(2);
            obs.counter("a_ctr").add(1);
            obs.gauge("depth").record_max(5);
            let h = obs.histogram("lat");
            for v in [1, 2, 3, 100] {
                h.observe(v);
            }
            obs.metrics_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let ia = a.find("a_ctr").unwrap();
        let ib = a.find("b_ctr").unwrap();
        assert!(ia < ib, "sorted name order");
        assert!(a.contains("\"counters\""));
        assert!(a.contains("\"gauges\""));
        assert!(a.contains("\"histograms\""));
    }

    #[test]
    fn span_records_hierarchical_paths() {
        let (obs, mem) = Obs::in_memory();
        {
            let _outer = obs.span("run");
            {
                let _inner = obs.span("warmup");
            }
        }
        obs.finish();
        let text = mem.contents();
        assert!(text.contains("\"path\":\"run/warmup\""), "{text}");
        assert!(text.contains("\"path\":\"run\""));
        // inner span line appears before outer (dropped first)
        let i_inner = text.find("run/warmup").unwrap();
        let i_outer = text.rfind("\"path\":\"run\"").unwrap();
        assert!(i_inner < i_outer);
    }

    #[test]
    fn manifest_lines_are_json_shaped() {
        let (obs, mem) = Obs::in_memory();
        obs.emit_meta(
            "test_tool",
            &[
                ("seed", MetaVal::from(42u64)),
                ("rate", MetaVal::from(0.25)),
                ("name", MetaVal::from("q\"6\"")),
            ],
        );
        obs.counter("n").add(1);
        obs.emit_window(500);
        obs.finish();
        let text = mem.contents();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"record\":\"meta\""));
        assert!(text.contains("\"record\":\"window\""));
        assert!(text.contains("\"record\":\"metrics\""));
        assert!(text.contains("\"cycle\":500"));
        assert!(text.contains("\\\"6\\\"")); // escaped quote in config
    }

    #[test]
    fn scaling_records_are_nondeterministic_family_only() {
        let (obs, mem) = Obs::in_memory();
        obs.counter("n").add(1);
        obs.emit_scaling("diameter", 4, 2.0, 0.5);
        obs.emit_scaling("zero_wall", 2, 0.0, 0.0);
        obs.finish();
        let text = mem.contents();
        assert!(text.contains("\"record\":\"scaling\""));
        assert!(text.contains("\"phase\":\"diameter\""));
        assert!(text.contains("\"workers\":4"));
        assert!(text.contains("\"speedup\":4"));
        // zero wall time degrades to speedup 1, not NaN/inf
        assert!(text.contains("\"speedup\":1"));
        // the deterministic dump is untouched by scaling records
        assert!(!obs.metrics_json().contains("scaling"));
        let disabled = Obs::disabled();
        disabled.emit_scaling("noop", 8, 1.0, 1.0); // must not panic
    }

    #[test]
    fn null_recorder_swallows_everything() {
        let obs = Obs::with_recorder(Box::new(NullRecorder));
        obs.counter("n").add(1);
        obs.finish();
        // still functional as a metrics registry
        assert!(obs.metrics_json().contains("\"n\":1"));
    }
}
