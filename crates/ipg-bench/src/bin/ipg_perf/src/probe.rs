//! Outside-in probes: a counting router wrapper, the CPU clock every
//! measured duration is read from, a wall clock built on `ipg_obs` spans
//! (for the sampling budget and window marks), a recorder that
//! timestamps `window` records, and procfs memory readings. Nothing here
//! reads the wall clock directly, so the DET003 rule (wall clock only
//! inside ipg-obs) holds for this crate.

use std::ffi::{c_int, c_long};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ipg_core::fault::FaultView;
use ipg_core::Result;
use ipg_obs::{NullRecorder, Obs, Recorder, Span};
use ipg_sim::Router;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ipg_perf reads CPU time through the 64-bit Linux `getrusage` layout");

/// A wall clock: spans of a `NullRecorder`-backed `Obs`.
pub struct Clock(Obs);

impl Clock {
    pub fn new() -> Clock {
        Clock(Obs::with_recorder(Box::new(NullRecorder)))
    }

    /// Start a stopwatch.
    pub fn start(&self) -> Span {
        self.0.span("ipg_perf")
    }
}

/// Seconds since `span` opened.
pub fn secs(span: &Span) -> f64 {
    span.elapsed_secs()
        .expect("clock spans come from an enabled Obs")
}

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of 64-bit Linux: the two CPU times, then fourteen
/// `long` counters this crate does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// User + system CPU seconds of `who`, to the microsecond.
fn rusage_secs(who: c_int) -> f64 {
    let zero = || Timeval { sec: 0, usec: 0 };
    let mut r = Rusage {
        utime: zero(),
        stime: zero(),
        counters: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the layout the
    // 64-bit Linux C library declares (checked by the `compile_error!`
    // above), and `getrusage` writes only into it.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let t = |v: &Timeval| v.sec as f64 + v.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// CPU seconds used so far by this process (every thread) and by the
/// children it has waited for, which include the distributed workers
/// once `run_dist` has reaped them. Unlike wall time this leaves out
/// time the CPU spent on other processes or, in a virtual machine whose
/// kernel accounts steal time, on other guests.
pub fn cpu_secs() -> f64 {
    rusage_secs(RUSAGE_SELF) + rusage_secs(RUSAGE_CHILDREN)
}

/// Run `f` and return its result with the CPU seconds it took.
pub fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_secs();
    let out = f();
    (out, cpu_secs() - t0)
}

/// Steps of the reference kernel in one [`step_ns`] reading (~30 ms).
const REFERENCE_STEPS: u64 = 10_000_000;

/// CPU nanoseconds per reference-kernel step at the nominal core speed
/// that sample times are rescaled to: about what the 2-vCPU host of the
/// README's sizing table reads. Its value only sets the scale of the
/// reported times; changing it would make old reports incomparable.
pub const NOMINAL_STEP_NS: f64 = 3.0;

/// The reference kernel: a dependent xorshift–multiply chain that
/// touches no memory, so its speed follows the core's clock rate and
/// nothing else.
fn reference_kernel(steps: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    x
}

/// CPU nanoseconds one step of the reference kernel takes now.
pub fn step_ns() -> f64 {
    let (_, t) = timed_kernel(REFERENCE_STEPS);
    t * 1e9 / REFERENCE_STEPS as f64
}

/// Run the reference kernel for `steps` steps under [`cpu_time`]; the
/// `black_box` around the result keeps the work inside the timed call.
fn timed_kernel(steps: u64) -> (u64, f64) {
    cpu_time(|| std::hint::black_box(reference_kernel(std::hint::black_box(steps))))
}

/// One logged routing query: at `u`, heading for `d`, the router said
/// `hop` (`u32::MAX` for "no usable hop").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    pub u: u32,
    pub d: u32,
    pub hop: u32,
}

/// Next-hop query count and a log of the first `capacity` queries. The
/// simulators own their router, so the wrapper shares this through an
/// `Arc` with whoever reads it after the run.
pub struct RouteLog {
    calls: AtomicU64,
    ud: Vec<AtomicU64>,
    hop: Vec<AtomicU32>,
}

impl RouteLog {
    pub fn new(capacity: usize) -> Arc<RouteLog> {
        Arc::new(RouteLog {
            calls: AtomicU64::new(0),
            ud: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            hop: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    /// Next-hop queries answered so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The logged queries, in the order they were asked.
    pub fn log(&self) -> Vec<Hop> {
        let n = (self.calls() as usize).min(self.ud.len());
        (0..n)
            .map(|i| {
                let ud = self.ud[i].load(Ordering::Relaxed);
                Hop {
                    u: (ud >> 32) as u32,
                    d: ud as u32,
                    hop: self.hop[i].load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    #[inline]
    fn note(&self, u: u32, d: u32, hop: Option<u32>) -> Option<u32> {
        let i = self.calls.fetch_add(1, Ordering::Relaxed) as usize;
        if i < self.ud.len() {
            self.ud[i].store(u64::from(u) << 32 | u64::from(d), Ordering::Relaxed);
            self.hop[i].store(hop.unwrap_or(u32::MAX), Ordering::Relaxed);
        }
        hop
    }
}

/// Transparent router wrapper: forwards every [`Router`] method to the
/// inner router and notes each next-hop query in a [`RouteLog`].
/// Forwarding `next_hop_faulted` explicitly matters: the trait's default
/// would route through `next_hop` and silently drop the fault view.
pub struct CountingRouter<R> {
    inner: R,
    log: Arc<RouteLog>,
}

impl<R: Router> CountingRouter<R> {
    pub fn new(inner: R, log: Arc<RouteLog>) -> Self {
        CountingRouter { inner, log }
    }
}

impl<R: Router> Router for CountingRouter<R> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    #[inline]
    fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
        self.log.note(u, d, self.inner.next_hop(u, d))
    }

    fn path(&self, u: u32, d: u32) -> Result<Vec<u32>> {
        self.inner.path(u, d)
    }

    #[inline]
    fn next_hop_faulted(&self, u: u32, d: u32, view: &FaultView) -> Option<u32> {
        self.log.note(u, d, self.inner.next_hop_faulted(u, d, view))
    }

    fn path_faulted(&self, u: u32, d: u32, view: &FaultView) -> Result<Vec<u32>> {
        self.inner.path_faulted(u, d, view)
    }
}

/// Manifest sink that keeps only the wall-clock time at which each
/// `window` record arrived, measured from the recorder's creation.
pub struct WindowClock {
    span: Span,
    marks: Arc<Mutex<Vec<f64>>>,
}

impl WindowClock {
    /// A recorder starting now, and the shared list of its marks.
    pub fn start() -> (WindowClock, Arc<Mutex<Vec<f64>>>) {
        let marks = Arc::new(Mutex::new(Vec::new()));
        let rec = WindowClock {
            span: Clock::new().start(),
            marks: Arc::clone(&marks),
        };
        (rec, marks)
    }
}

impl Recorder for WindowClock {
    fn record(&mut self, line: &str) {
        if line.starts_with("{\"record\":\"window\"") {
            let t = secs(&self.span);
            self.marks
                .lock()
                .expect("window marks are only pushed here")
                .push(t);
        }
    }

    fn flush(&mut self) {}
}

/// Durations between consecutive marks, the first measured from 0.
pub fn window_durations(marks: &[f64]) -> Vec<f64> {
    let mut prev = 0.0;
    marks
        .iter()
        .map(|&t| {
            let d = t - prev;
            prev = t;
            d
        })
        .collect()
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`); 0 where procfs
/// is unavailable.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in KiB.
pub fn vm_hwm_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set of this process in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-node ring: the next hop toward `d` is the clockwise
    /// neighbour; under faults it is `None`.
    struct Ring;

    impl Router for Ring {
        fn node_count(&self) -> usize {
            4
        }
        fn next_hop(&self, u: u32, d: u32) -> Option<u32> {
            (u != d).then_some((u + 1) % 4)
        }
        fn next_hop_faulted(&self, _: u32, _: u32, _: &FaultView) -> Option<u32> {
            None
        }
    }

    #[test]
    fn counting_router_forwards_both_hop_methods_and_logs() {
        let log = RouteLog::new(2);
        let r = CountingRouter::new(Ring, Arc::clone(&log));
        assert_eq!(r.next_hop(0, 2), Some(1));
        // the fault-aware answer must come from the inner override, not
        // the trait default that would fall back to `next_hop`
        assert_eq!(r.next_hop_faulted(1, 2, &FaultView::new(4)), None);
        assert_eq!(r.next_hop(2, 3), Some(3));
        assert_eq!(log.calls(), 3);
        assert_eq!(
            log.log(),
            vec![
                Hop { u: 0, d: 2, hop: 1 },
                Hop {
                    u: 1,
                    d: 2,
                    hop: u32::MAX
                },
            ]
        );
        // path is forwarded, not re-derived through the counter
        assert_eq!(r.path(0, 3).expect("ring path"), vec![0, 1, 2, 3]);
        assert_eq!(log.calls(), 3);
    }

    #[test]
    fn cpu_clock_counts_busy_work() {
        let (x, t) = cpu_time(|| {
            (0..20_000_000u64).fold(0u64, |a, i| std::hint::black_box(a ^ i.wrapping_mul(31)))
        });
        std::hint::black_box(x);
        assert!(t > 0.0 && t < 10.0, "{t} CPU seconds");
    }

    #[test]
    fn reference_kernel_time_grows_with_its_steps() {
        let (_, short) = timed_kernel(2_000_000);
        let (_, long) = timed_kernel(20_000_000);
        assert!(
            long > 3.0 * short,
            "{short} s for 2M steps, {long} s for 20M"
        );
        let ns = step_ns();
        assert!(ns > 0.0 && ns < 100.0, "{ns} ns per step");
    }

    #[test]
    fn window_durations_are_consecutive_differences() {
        assert_eq!(window_durations(&[0.5, 1.5, 1.75]), vec![0.5, 1.0, 0.25]);
        assert!(window_durations(&[]).is_empty());
    }

    #[test]
    fn window_clock_keeps_only_window_records() {
        let (mut rec, marks) = WindowClock::start();
        rec.record("{\"record\":\"span\",\"path\":\"run\"}");
        rec.record("{\"record\":\"window\",\"cycle\":1}");
        rec.record("{\"record\":\"window\",\"cycle\":2}");
        let m = marks.lock().expect("test lock").clone();
        assert_eq!(m.len(), 2);
        assert!(m[0] <= m[1]);
    }
}
