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
//! Every payload type implements [`Wire`] once: structs and frames by
//! listing their fields in wire order (`wire_struct!`,
//! `wire_frame!`), which derives both the encoder and the decoder
//! (and the decoder's error paths) from that one list; the four enums
//! by one hand-written impl each.
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
//! The checksum ([`checksum_chain`]) covers `kind .. payload` (header
//! bytes 4..10 plus the payload) and reads the payload eight bytes per
//! step. Fixed-width slices (`Vec<u32>`, `Vec<bool>`, …) are encoded
//! and decoded in one bulk pass ([`Wire::put_all`], [`Wire::take_all`])
//! with the same bytes as an element-by-element loop. Decoding is
//! total: truncated input, oversized length prefixes, checksum
//! mismatches, version skew, and malformed payloads all surface as
//! [`IpgError::Dist`] — never a panic.

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
pub(crate) const WIRE_VERSION: u8 = 5;
/// Header size: magic(3) + version(1) + kind(1) + flags(1) + len(4).
const HEADER_LEN: usize = 10;
/// Refuse frames claiming more than 1 GiB of payload.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_0000_01b3;

/// The word step's multiplier: odd (so multiplying is invertible mod
/// 2^64) and dense (2^64 / golden ratio), so every input bit reaches
/// many state bits.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// The word step's rotation, which brings the high bits the multiply
/// just mixed back down to the low bits the next word lands on.
const WORD_ROT: u32 = 23;

/// The frame checksum, chained so the header tail and the payload can
/// be folded without concatenation (both ends make the same two calls,
/// so the word boundaries agree). Starting from `h`, each little-endian
/// 8-byte word `w` of `bytes` steps `h = (h.rotate_left(WORD_ROT) ^ w)
/// · WORD_MUL`, and the 0–7 tail bytes take the FNV-1a step
/// `h = (h ^ b) · FNV_PRIME`. One step per word instead of per byte
/// makes the serial chain about eight times shorter.
///
/// Every step is a bijection of the state for a fixed input, and of
/// the input for a fixed state: rotation and XOR are invertible, and
/// both multipliers are odd. Two inputs of equal length that differ
/// only in one aligned word (or one tail byte) therefore reach
/// different states at that step and stay different through every
/// later step, so a frame with one changed word, and a fortiori one
/// flipped bit, never verifies. Random changes spread over several
/// words go unnoticed with probability about 2^-64.
fn checksum_chain(mut h: u64, bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        let mut le = [0u8; 8];
        le.copy_from_slice(w);
        h = (h.rotate_left(WORD_ROT) ^ u64::from_le_bytes(le)).wrapping_mul(WORD_MUL);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A decode result: the error is a message that [`FrameIo`] stamps
/// with its worker, cycle and last good frame.
type Decoded<T> = std::result::Result<T, String>;

// ---------------------------------------------------------------------------
// Encode buffer and decode cursor
// ---------------------------------------------------------------------------

/// Append-only little-endian encode buffer for one frame.
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

    /// Patch the length field and append the checksum; returns the
    /// finished frame bytes.
    fn seal(mut self) -> Vec<u8> {
        let len = (self.bytes.len() - HEADER_LEN) as u32;
        self.bytes[6..10].copy_from_slice(&len.to_le_bytes());
        let (header, payload) = self.bytes.split_at(HEADER_LEN);
        let sum = checksum_chain(checksum_chain(FNV_OFFSET, &header[4..]), payload);
        self.bytes.extend_from_slice(&sum.to_le_bytes());
        self.bytes
    }
}

/// Bounds-checked decode cursor over one frame payload. Every accessor
/// returns `Err` on underrun; nothing panics.
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

    fn advance(&mut self, n: usize, what: &str) -> Decoded<&'a [u8]> {
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

    fn array<const N: usize>(&mut self, what: &str) -> Decoded<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.advance(N, what)?);
        Ok(out)
    }

    /// Element count prefix, validated against the bytes actually left:
    /// a frame cannot hold more than `remaining / min_len` elements, so
    /// a forged count can never drive allocation past the payload.
    fn take_count(&mut self, min_len: usize, what: &'static str) -> Decoded<usize> {
        let count = u32::take(self, what)? as usize;
        if count.saturating_mul(min_len) > self.remaining() {
            return Err(format!(
                "count overrun reading {what}: {count} elements of {min_len}+ bytes, {} left",
                self.remaining()
            ));
        }
        Ok(count)
    }

    fn finish(&self, kind_name: &str) -> Decoded<()> {
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
// The Wire trait and its layouts
// ---------------------------------------------------------------------------

/// A type with one fixed wire layout. `take` is total: `path` names
/// the field being decoded (`"setup.track"`) in every error it returns.
pub(crate) trait Wire: Sized {
    /// The fewest bytes any value encodes to, so an element count can
    /// be checked against the payload before anything is allocated.
    const MIN_LEN: usize;
    fn put(&self, b: &mut WireBuf);
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self>;

    /// Encode `vals` back to back, no count prefix: the same bytes as
    /// `put` on each in turn. Fixed-width types write them in one pass.
    fn put_all(vals: &[Self], b: &mut WireBuf) {
        for v in vals {
            v.put(b);
        }
    }

    /// Decode `count` values written by [`Wire::put_all`]. `count` has
    /// already been checked against the payload (`take_count`), so the
    /// allocation is bounded by the frame.
    fn take_all(c: &mut WireCursor<'_>, count: usize, path: &'static str) -> Decoded<Vec<Self>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::take(c, path)?);
        }
        Ok(out)
    }
}

/// Fixed-width integers, little-endian. A slice is one resize and one
/// pass over `W`-byte chunks each way.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, b: &mut WireBuf) {
                b.bytes.extend_from_slice(&self.to_le_bytes());
            }
            fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
                Ok(<$t>::from_le_bytes(c.array(path)?))
            }
            fn put_all(vals: &[Self], b: &mut WireBuf) {
                const W: usize = std::mem::size_of::<$t>();
                let start = b.bytes.len();
                b.bytes.resize(start + vals.len() * W, 0);
                for (dst, v) in b.bytes[start..].chunks_exact_mut(W).zip(vals) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn take_all(
                c: &mut WireCursor<'_>,
                count: usize,
                path: &'static str,
            ) -> Decoded<Vec<Self>> {
                const W: usize = std::mem::size_of::<$t>();
                let raw = c.advance(count.saturating_mul(W), path)?;
                Ok(raw
                    .chunks_exact(W)
                    .map(|ch| {
                        let mut le = [0u8; W];
                        le.copy_from_slice(ch);
                        <$t>::from_le_bytes(le)
                    })
                    .collect())
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64);

impl Wire for f64 {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        self.to_bits().put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        Ok(f64::from_bits(u64::take(c, path)?))
    }
}

/// A flag byte: exactly 0 or 1. Anything else is a forged or misaligned
/// frame, never a silent `true`. A slice is one scan for the first
/// byte above 1, then one pass.
impl Wire for bool {
    const MIN_LEN: usize = u8::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        u8::from(*self).put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        match u8::take(c, path)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(invalid_flag(v, path)),
        }
    }
    fn put_all(vals: &[Self], b: &mut WireBuf) {
        b.bytes.extend(vals.iter().map(|&v| u8::from(v)));
    }
    fn take_all(c: &mut WireCursor<'_>, count: usize, path: &'static str) -> Decoded<Vec<Self>> {
        let raw = c.advance(count, path)?;
        if let Some(&v) = raw.iter().find(|&&v| v > 1) {
            return Err(invalid_flag(v, path));
        }
        Ok(raw.iter().map(|&v| v == 1).collect())
    }
}

/// The error for flag byte `v` at `path`, from one value or a slice.
fn invalid_flag(v: u8, path: &str) -> String {
    format!("invalid flag byte {v} for {path} (expected 0 or 1)")
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        (self.len() as u32).put(b);
        b.bytes.extend_from_slice(self.as_bytes());
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        let len = c.take_count(1, path)?;
        let raw = c.advance(len, path)?;
        String::from_utf8(raw.to_vec()).map_err(|_| format!("{path} is not valid UTF-8"))
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        (self.len() as u32).put(b);
        T::put_all(self, b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        let count = c.take_count(T::MIN_LEN, path)?;
        T::take_all(c, count, path)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        self.0.put(b);
        self.1.put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        Ok((A::take(c, path)?, B::take(c, path)?))
    }
}

/// An always-present flag, then the value (`T::default()` for `None`),
/// so the encoded length does not depend on the variant.
impl<T: Wire + Default> Wire for Option<T> {
    const MIN_LEN: usize = bool::MIN_LEN + T::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        self.is_some().put(b);
        match self {
            Some(v) => v.put(b),
            None => T::default().put(b),
        }
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        let some = bool::take(c, path)?;
        let v = T::take(c, path)?;
        Ok(some.then_some(v))
    }
}

/// Implements [`Wire`] for a struct as its listed fields in wire order.
/// Decode errors name the field as `"<prefix>.<field>"`; the struct
/// literal makes the compiler reject a list that misses a field.
macro_rules! wire_struct {
    ($ty:ident, $prefix:literal { $($field:ident: $fty:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as Wire>::MIN_LEN)*;
            fn put(&self, b: &mut WireBuf) {
                $(<$fty as Wire>::put(&self.$field, b);)*
            }
            fn take(c: &mut WireCursor<'_>, _path: &'static str) -> Decoded<Self> {
                Ok($ty {
                    $($field: <$fty as Wire>::take(c, concat!($prefix, ".", stringify!($field)))?,)*
                })
            }
        }
    };
}

wire_struct!(Msg, "msg" { to: u32, dst: u32, born: u32, tagged: bool, slot: u32 });

wire_struct!(SimConfig, "cfg" {
    injection_rate: f64,
    warmup_cycles: u32,
    measure_cycles: u32,
    drain_cycles: u32,
    on_module_interval: u32,
    off_module_interval: u32,
    seed: u64,
    message_length: u32,
    switching: Switching,
    traffic: Traffic,
});

wire_struct!(FaultEvent, "fault" { cycle: u32, kind: FaultKind });

wire_struct!(HistSnapshot, "hist" {
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
});

wire_struct!(TraceEvent, "event" {
    cycle: u32,
    kind: u16,
    shard: u16,
    a: u32,
    b: u32,
    value: u64,
});

wire_struct!(RunTotals, "totals" {
    injected: u64,
    delivered: u64,
    unmeasured: u64,
    dropped: u64,
    latency_sum: u64,
    max_latency: u32,
    in_flight: u64,
});

/// A `u8` tag: 0 store-and-forward, 1 cut-through.
impl Wire for Switching {
    const MIN_LEN: usize = u8::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        let tag: u8 = match self {
            Switching::StoreForward => 0,
            Switching::CutThrough => 1,
        };
        tag.put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        match u8::take(c, path)? {
            0 => Ok(Switching::StoreForward),
            1 => Ok(Switching::CutThrough),
            t => Err(format!("unknown switching tag {t} in {path}")),
        }
    }
}

/// A `u8` tag (uniform, bit-complement, transpose, hotspot), then the
/// hotspot's fraction and target, zero for the other patterns.
impl Wire for Traffic {
    const MIN_LEN: usize = <(u8, (f64, u32))>::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        let wire: (u8, (f64, u32)) = match *self {
            Traffic::Uniform => (0, (0.0, 0)),
            Traffic::BitComplement => (1, (0.0, 0)),
            Traffic::Transpose => (2, (0.0, 0)),
            Traffic::Hotspot { fraction, target } => (3, (fraction, target)),
        };
        wire.put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        match <(u8, (f64, u32))>::take(c, path)? {
            (0, _) => Ok(Traffic::Uniform),
            (1, _) => Ok(Traffic::BitComplement),
            (2, _) => Ok(Traffic::Transpose),
            (3, (fraction, target)) => Ok(Traffic::Hotspot { fraction, target }),
            (t, _) => Err(format!("unknown traffic tag {t} in {path}")),
        }
    }
}

/// A `u8` tag (0 link, 1 node), then two node ids, the second zero for
/// a node kill.
impl Wire for FaultKind {
    const MIN_LEN: usize = <(u8, (u32, u32))>::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        let wire: (u8, (u32, u32)) = match *self {
            FaultKind::Link(u, v) => (0, (u, v)),
            FaultKind::Node(v) => (1, (v, 0)),
        };
        wire.put(b);
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        match <(u8, (u32, u32))>::take(c, path)? {
            (0, (u, v)) => Ok(FaultKind::Link(u, v)),
            (1, (v, _)) => Ok(FaultKind::Node(v)),
            (t, _) => Err(format!("unknown fault kind tag {t} in {path}")),
        }
    }
}

/// A `u8` tag (0 counter, 1 gauge, 2 histogram), then the value: a
/// `u64` for counters and gauges, a [`HistSnapshot`] for histograms.
impl Wire for MetricSnapshot {
    const MIN_LEN: usize = u8::MIN_LEN + u64::MIN_LEN;
    fn put(&self, b: &mut WireBuf) {
        match self {
            MetricSnapshot::Counter(v) => (0u8, *v).put(b),
            MetricSnapshot::Gauge(v) => (1u8, *v).put(b),
            MetricSnapshot::Hist(h) => {
                2u8.put(b);
                h.put(b);
            }
        }
    }
    fn take(c: &mut WireCursor<'_>, path: &'static str) -> Decoded<Self> {
        match u8::take(c, path)? {
            0 => Ok(MetricSnapshot::Counter(u64::take(c, path)?)),
            1 => Ok(MetricSnapshot::Gauge(u64::take(c, path)?)),
            2 => Ok(MetricSnapshot::Hist(HistSnapshot::take(c, path)?)),
            t => Err(format!("unknown metric tag {t} in {path}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// A typed frame: a kind byte and name on top of its [`Wire`] layout.
pub(crate) trait DistFrame: Wire {
    const KIND: u8;
    const NAME: &'static str;

    /// Encode this frame as a whole payload.
    fn put_body(&self, b: &mut WireBuf) {
        self.put(b);
    }

    /// Decode a whole payload: the frame, then no trailing bytes.
    fn take_body(c: &mut WireCursor<'_>) -> Decoded<Self> {
        let f = Self::take(c, Self::NAME)?;
        c.finish(Self::NAME)?;
        Ok(f)
    }
}

/// A per-cycle frame: it carries the cycle (or window boundary) it was
/// sent for, which [`FrameIo::recv_at`] holds to the receiver's own.
pub(crate) trait Stamped: DistFrame {
    fn stamp(&self) -> u64;
}

/// Declares a frame once: the struct, its [`Wire`] layout (the fields
/// in the order written, see `wire_struct!`), its kind byte and name,
/// and, when marked `stamped`, its `cycle` field as the [`Stamped`]
/// stamp.
macro_rules! wire_frame {
    (
        $(#[$attr:meta])*
        struct $name:ident = $kind:literal, $frame:literal, $prefix:literal $(, $stamped:ident)? {
            $($(#[$fattr:meta])* $field:ident: $fty:ty,)*
        }
    ) => {
        $(#[$attr])*
        pub(crate) struct $name {
            $($(#[$fattr])* pub(crate) $field: $fty,)*
        }

        wire_struct!($name, $prefix { $($field: $fty),* });

        impl DistFrame for $name {
            const KIND: u8 = $kind;
            const NAME: &'static str = $frame;
        }

        $(wire_frame!(@$stamped $name);)?
    };
    (@stamped $name:ident) => {
        impl Stamped for $name {
            fn stamp(&self) -> u64 {
                u64::from(self.cycle)
            }
        }
    };
}

/// Serialize a frame to its complete wire bytes (header + payload +
/// checksum).
pub(crate) fn frame_to_bytes<F: DistFrame>(f: &F) -> Vec<u8> {
    let mut b = WireBuf::with_header(F::KIND);
    f.put_body(&mut b);
    b.seal()
}

/// Validate a complete header; returns `(kind, payload_len)`.
fn header_fields(h: &[u8; HEADER_LEN]) -> Decoded<(u8, u32)> {
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
fn body_to_frame<F: DistFrame>(kind: u8, hdr_tail: &[u8], body: &[u8]) -> Decoded<F> {
    if body.len() < 8 {
        return Err("frame truncated before checksum".to_string());
    }
    let (payload, sum_bytes) = body.split_at(body.len() - 8);
    let want = u64::take(&mut WireCursor::over(sum_bytes), "checksum")?;
    let got = checksum_chain(checksum_chain(FNV_OFFSET, hdr_tail), payload);
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
    F::take_body(&mut WireCursor::over(payload))
}

/// Decode a frame from complete wire bytes. The streaming recv path
/// reads header and body separately; this whole-buffer entry exists
/// for the adversarial codec tests.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn frame_from_bytes<F: DistFrame>(bytes: &[u8]) -> Decoded<F> {
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

wire_frame! {
    /// Coordinator → worker, once: the complete run description. The
    /// worker derives the shard geometry from `n` (`engine::shard_layout`).
    #[derive(Clone, Debug, PartialEq)]
    struct SetupFrame = 1, "Setup", "setup" {
        worker: u32,
        n: u32,
        /// Global index of the first shard this worker owns.
        shard_lo: u32,
        /// One past the last owned shard.
        shard_hi: u32,
        /// Window size for metric snapshots (0 = none).
        window: u32,
        track: bool,
        /// A fault plan is installed (possibly with zero events) — this
        /// changes engine behavior independent of the event list.
        faulted: bool,
        /// Trace sampling `(interval, ring_capacity)` when tracing.
        trace: Option<(u32, u64)>,
        /// Network spec the worker rebuilds its router from.
        netspec: String,
        cfg: SimConfig,
        faults: Vec<FaultEvent>,
    }
}

wire_frame! {
    /// Coordinator → worker, once per owned shard: the flattened link
    /// arrays, so the worker never materializes the full graph. The
    /// shard's node range follows from the layout the worker derives
    /// from Setup; each link's service interval follows from its
    /// off-module flag and Setup's config.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct ShardLinksFrame = 2, "ShardLinks", "links" {
        shard: u32,
        link_of: Vec<u32>,
        to: Vec<u32>,
        off_module: Vec<bool>,
    }
}

wire_frame! {
    /// Worker → coordinator, once: router and shards are built.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct ReadyFrame = 3, "Ready", "ready" {
        worker: u32,
    }
}

wire_frame! {
    /// Worker → coordinator, every cycle: departures bound for other
    /// workers' shards, plus the total outbox volume (including messages
    /// that stayed local) for the merge-track trace gauge.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct OutboxFrame = 4, "Outbox", "outbox", stamped {
        cycle: u32,
        launched_total: u32,
        msgs: Vec<Msg>,
    }
}

wire_frame! {
    /// Coordinator → worker, every cycle: cross-worker arrivals split by
    /// origin — `pre` from workers with smaller ids, `post` from larger —
    /// so the worker can interleave its local departures at exactly the
    /// position the in-process global shard-order merge would have.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct ArrivalsFrame = 5, "Arrivals", "arrivals", stamped {
        cycle: u32,
        pre: Vec<Msg>,
        post: Vec<Msg>,
    }
}

wire_frame! {
    /// Worker → coordinator at window boundaries: cumulative metric
    /// values the coordinator folds as deltas into its own registry.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct SnapshotFrame = 6, "Snapshot", "snapshot", stamped {
        cycle: u64,
        metrics: Vec<(String, MetricSnapshot)>,
    }
}

wire_frame! {
    /// Worker → coordinator, once after the cycle loop: run totals, final
    /// metric snapshot, drained trace events, and per-worker gauges.
    #[derive(Clone, Debug, PartialEq)]
    struct FinalFrame = 7, "Final", "final" {
        totals: RunTotals,
        metrics: Vec<(String, MetricSnapshot)>,
        trace_events: Vec<TraceEvent>,
        trace_dropped: u64,
        /// Worker peak RSS in KiB (`VmHWM`), probed by the host binary.
        rss_kb: u64,
        /// Frames sent + received by the worker before this one.
        frames: u64,
        /// Bytes sent + received by the worker before this frame.
        frame_bytes: u64,
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

    /// Receive a per-cycle frame that must be stamped `stamp`. A frame
    /// for any other cycle is a protocol fault naming the frame kind and
    /// both cycles; it does not count as the last good frame.
    pub(crate) fn recv_at<F: Stamped>(&mut self, stamp: u64) -> Result<F> {
        let last = self.last;
        let f: F = self.frame_recv()?;
        if f.stamp() != stamp {
            self.last = last;
            return Err(self.fault(format!(
                "{} frame stamped for cycle {}, expected cycle {stamp}",
                F::NAME,
                f.stamp()
            )));
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl WireBuf {
        /// Append one raw byte past a frame's declared layout.
        fn put_u8(&mut self, v: u8) {
            self.bytes.push(v);
        }
    }

    impl FrameIo {
        /// Send `f` with its payload bytes edited by `forge` and sealed
        /// again: a forged frame behind a valid checksum.
        pub(crate) fn frame_send_forged<F: DistFrame>(
            &mut self,
            f: &F,
            forge: impl FnOnce(&mut [u8]),
        ) -> Result<()> {
            use std::io::Write;
            let mut b = WireBuf::with_header(F::KIND);
            f.put_body(&mut b);
            forge(&mut b.bytes[HEADER_LEN..]);
            self.stream
                .write_all(&b.seal())
                .map_err(|e| self.io_fault("sending", F::NAME, &e))
        }
    }

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
            off_module: vec![false, false, true, true],
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

    /// The wire bytes of one sample frame per kind, pinned by digest
    /// (the frame checksum over the whole frame): a layout change that
    /// still roundtrips (two fields swapped on both sides, a tag
    /// renumbered) fails here until `WIRE_VERSION` is bumped and the
    /// digests are re-recorded.
    #[test]
    fn wire_bytes_are_pinned() {
        let msg = Msg {
            to: 1,
            dst: 2,
            born: 3,
            tagged: true,
            slot: 4,
        };
        let digest = |bytes: Vec<u8>| checksum_chain(FNV_OFFSET, &bytes);
        let got = [
            digest(frame_to_bytes(&sample_setup())),
            digest(frame_to_bytes(&ShardLinksFrame {
                shard: 5,
                link_of: vec![0, 2, 4],
                to: vec![1, 2, 3, 4],
                off_module: vec![false, false, true, true],
            })),
            digest(frame_to_bytes(&ReadyFrame { worker: 3 })),
            digest(frame_to_bytes(&OutboxFrame {
                cycle: 17,
                launched_total: 9,
                msgs: vec![msg],
            })),
            digest(frame_to_bytes(&ArrivalsFrame {
                cycle: 17,
                pre: vec![msg],
                post: vec![Msg {
                    tagged: false,
                    ..msg
                }],
            })),
            digest(frame_to_bytes(&SnapshotFrame {
                cycle: 500,
                metrics: sample_final().metrics,
            })),
            digest(frame_to_bytes(&sample_final())),
        ];
        assert_eq!(WIRE_VERSION, 5);
        let want: [u64; 7] = [
            0x73fc_ff73_e78c_f9cb, // Setup
            0x1eb3_a017_0ede_4916, // ShardLinks
            0xb7e7_e0b0_5674_dfe5, // Ready
            0x36c3_6b8e_1094_3f1a, // Outbox
            0x11f7_88bf_3713_54c4, // Arrivals
            0x8b8d_e95b_bb6e_b357, // Snapshot
            0x1b39_c707_8aaf_b58e, // Final
        ];
        assert_eq!(got, want, "{got:#018x?}");
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
            off_module: vec![false],
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

    /// `put_all` writes the bytes of a `put` loop, and `take_all`
    /// returns what a `take` loop returns, leaving the cursor where the
    /// loop leaves it.
    fn assert_bulk_matches_elements<T: Wire + PartialEq + std::fmt::Debug>(vals: &[T]) {
        let mut bulk = WireBuf { bytes: Vec::new() };
        T::put_all(vals, &mut bulk);
        let mut each = WireBuf { bytes: Vec::new() };
        for v in vals {
            v.put(&mut each);
        }
        assert_eq!(bulk.bytes, each.bytes);
        // One byte past the slice that neither side may consume.
        bulk.bytes.push(0xA5);
        let mut c = WireCursor::over(&bulk.bytes);
        assert_eq!(T::take_all(&mut c, vals.len(), "bulk").as_deref(), Ok(vals));
        assert_eq!(c.remaining(), 1);
        assert_eq!(take_each::<T>(&bulk.bytes, vals.len()).as_deref(), Ok(vals));
    }

    /// What a `take` loop decodes from `bytes`, or its first error.
    fn take_each<T: Wire>(bytes: &[u8], count: usize) -> Decoded<Vec<T>> {
        let mut c = WireCursor::over(bytes);
        (0..count).map(|_| T::take(&mut c, "bulk")).collect()
    }

    /// `bytes` (a sealed `F`) decodes, and no corruption of it does:
    /// the bit `bit` of byte `at` flipped, or `delta` XORed into the
    /// 8-byte window at `at` and into the aligned payload word at `at`.
    /// Every byte is covered: magic/version by the header check,
    /// kind/flags/len/payload by the checksum, the checksum trailer by
    /// itself. A flipped bit or a changed aligned word changes one step
    /// of the checksum's bijective chain and can never decode; an
    /// unaligned window gets through with probability about 2^-64.
    fn assert_corruption_fails<F: DistFrame>(bytes: &[u8], at: usize, bit: u8, delta: u64) {
        let decodes = |b: &[u8]| frame_from_bytes::<F>(b).is_ok();
        assert!(decodes(bytes));
        let len = bytes.len();
        let mut flipped = bytes.to_vec();
        flipped[at % len] ^= 1 << bit;
        assert!(
            !decodes(&flipped),
            "bit {bit} of byte {} of {len}",
            at % len
        );
        let words = (len - HEADER_LEN - 8) / 8;
        for start in [at % (len - 7), HEADER_LEN + 8 * (at % words)] {
            let mut x = bytes.to_vec();
            for (b, d) in x[start..start + 8].iter_mut().zip(delta.to_le_bytes()) {
                *b ^= d;
            }
            assert!(!decodes(&x), "XOR {delta:#x} at byte {start} of {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_bulk_slices_match_the_element_loop(
            words in proptest::collection::vec(0u64..u64::MAX, 0..96),
            at in (0usize..1 << 16, 0usize..1 << 16),
            forged in 2u16..256,
        ) {
            assert_bulk_matches_elements(&words.iter().map(|&w| w as u8).collect::<Vec<_>>());
            assert_bulk_matches_elements(&words.iter().map(|&w| w as u16).collect::<Vec<_>>());
            assert_bulk_matches_elements(&words.iter().map(|&w| w as u32).collect::<Vec<_>>());
            assert_bulk_matches_elements(&words);
            assert_bulk_matches_elements(&words.iter().map(|&w| w & 1 == 1).collect::<Vec<_>>());
            // Two forged flag bytes: both decoders report the first.
            if !words.is_empty() {
                let mut flags: Vec<u8> = words.iter().map(|&w| (w & 1) as u8).collect();
                let n = flags.len();
                flags[at.0 % n] = forged as u8;
                flags[at.1 % n] = (257 - forged) as u8;
                let bulk = bool::take_all(&mut WireCursor::over(&flags), n, "bulk");
                prop_assert!(bulk.is_err());
                prop_assert_eq!(bulk, take_each::<bool>(&flags, n));
            }
        }

        #[test]
        fn prop_outbox_roundtrip(cycle in 0u32..u32::MAX, launched in 0u32..u32::MAX,
                                 msgs in proptest::collection::vec(arb_msg(), 0..64)) {
            let f = OutboxFrame { cycle, launched_total: launched, msgs };
            prop_assert_eq!(frame_from_bytes::<OutboxFrame>(&frame_to_bytes(&f)).unwrap(), f);
        }

        #[test]
        fn prop_shard_links_roundtrip(shard in 0u32..u32::MAX,
                                      to in proptest::collection::vec(0u32..u32::MAX, 0..128)) {
            let off_module: Vec<bool> = to.iter().map(|v| v % 3 == 0).collect();
            let f = ShardLinksFrame {
                shard,
                link_of: vec![0, to.len() as u32],
                to, off_module,
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
            at in 0usize..1 << 16, bit in 0u8..8, delta in 1u64..u64::MAX,
            to in proptest::collection::vec(0u32..u32::MAX, 96..160),
        ) {
            // A 43-byte Outbox frame and a ShardLinks frame of 646-1045
            // bytes, whose payload spans dozens of checksum words.
            let outbox = frame_to_bytes(&OutboxFrame {
                cycle: 5, launched_total: 1,
                msgs: vec![Msg { to: 1, dst: 2, born: 3, tagged: true, slot: 4 }],
            });
            let links = frame_to_bytes(&ShardLinksFrame {
                shard: 9,
                link_of: (0..=to.len() as u32 / 3).map(|v| 3 * v).collect(),
                off_module: to.iter().map(|v| v & 1 == 1).collect(),
                to,
            });
            assert_corruption_fails::<OutboxFrame>(&outbox, at, bit, delta);
            assert_corruption_fails::<ShardLinksFrame>(&links, at, bit, delta);
        }
    }
}
