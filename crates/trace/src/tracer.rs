//! The [`Tracer`]: a cheaply cloneable recording handle shared by every
//! pipeline component.
//!
//! The simulator is single-threaded, so the handle is `Rc<RefCell<..>>`;
//! cloning it hands the same underlying recorder to the caches, the
//! translator, and the machine. The clock owner (the machine) stamps the
//! shared `now` each step; emitters never need to know the cycle.
//!
//! A machine constructed *without* a tracer pays exactly one branch per
//! emit site — no event is constructed, no clock is stamped.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use crate::event::{TraceEvent, TraceRecord, Track};
use crate::span::{SpanGuard, SpanId, SpanRecord};

/// Default ring-buffer capacity (records).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Recorder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records; the oldest records are dropped
    /// (and counted) once full.
    pub capacity: usize,
    /// Record per-instruction retire events in the ring buffer. Off by
    /// default — they are high-volume.
    pub instructions: bool,
    /// Record per-instruction translation-progress events in the ring
    /// buffer. On by default (translation windows are short).
    pub progress: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_CAPACITY,
            instructions: false,
            progress: true,
        }
    }
}

struct Inner {
    config: TraceConfig,
    now: u64,
    seq: u64,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    /// Wall-clock reference point for span wall deltas.
    epoch: Instant,
    /// Append-only span list; a [`SpanId`] indexes into it.
    spans: Vec<SpanRecord>,
    /// Shared begin/end ordering counter for spans.
    span_order: u64,
    /// Open-span count per track (indexed `tid - 1`), for nesting depth.
    open_depth: [u32; 4],
}

/// The shared tracing handle. Clone freely — all clones record into the
/// same buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Tracer")
            .field("now", &inner.now)
            .field("recorded", &inner.seq)
            .field("buffered", &inner.ring.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer with the default configuration.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_config(TraceConfig::default())
    }

    /// Creates a tracer with an explicit configuration.
    #[must_use]
    pub fn with_config(config: TraceConfig) -> Tracer {
        Tracer {
            inner: Rc::new(RefCell::new(Inner {
                config,
                now: 0,
                seq: 0,
                ring: VecDeque::with_capacity(config.capacity.min(4096)),
                dropped: 0,
                epoch: Instant::now(),
                spans: Vec::new(),
                span_order: 0,
                open_depth: [0; 4],
            })),
        }
    }

    /// Stamps the shared clock; subsequent emissions carry this cycle.
    /// Called by whoever owns machine time (the simulator's step loop).
    pub fn set_now(&self, cycle: u64) {
        self.inner.borrow_mut().now = cycle;
    }

    /// The current clock stamp.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.inner.borrow().now
    }

    /// Records one event at the current clock. It enters the ring buffer
    /// unless its kind is gated off by the [`TraceConfig`]; either way it
    /// takes a sequence number.
    pub fn emit(&self, event: TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.now;
        // Ring-buffer admission (high-volume kinds are gated).
        let admit = match &event {
            TraceEvent::InstrRetired { .. } => inner.config.instructions,
            TraceEvent::TranslationProgress { .. } => inner.config.progress,
            _ => true,
        };
        let seq = inner.seq;
        inner.seq += 1;
        if admit {
            if inner.ring.len() == inner.config.capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(TraceRecord {
                seq,
                cycle: now,
                event,
            });
        }
    }

    /// Snapshot of the buffered records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.borrow().ring.iter().cloned().collect()
    }

    /// Records currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().ring.is_empty()
    }

    /// Records dropped from the ring buffer (capacity pressure).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Total events emitted (buffered or not).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.inner.borrow().seq
    }

    /// The recorder configuration.
    #[must_use]
    pub fn config(&self) -> TraceConfig {
        self.inner.borrow().config
    }

    /// Opens a span named `name` on `track` at the current clock,
    /// recording both the cycle and the wall-clock instant. Returns a
    /// handle for [`Tracer::span_end`].
    pub fn span_begin(&self, track: Track, name: &str) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() as u64;
        let order = inner.span_order;
        inner.span_order += 1;
        let slot = track.tid() as usize - 1;
        let depth = inner.open_depth[slot];
        inner.open_depth[slot] += 1;
        let record = SpanRecord {
            id,
            name: name.to_string(),
            track,
            depth,
            begin_order: order,
            end_order: None,
            begin_cycle: inner.now,
            end_cycle: None,
            begin_wall_ns: wall_ns(inner.epoch),
            end_wall_ns: None,
        };
        inner.spans.push(record);
        SpanId(id)
    }

    /// Closes the span at the current clock. Idempotent: ending an
    /// already-closed span (or an unknown id) does nothing, so the RAII
    /// guard composes with manual ends.
    pub fn span_end(&self, id: SpanId) {
        let mut inner = self.inner.borrow_mut();
        let order = inner.span_order;
        let now = inner.now;
        let wall = wall_ns(inner.epoch);
        let Some(span) = inner.spans.get_mut(id.index()) else {
            return;
        };
        if span.end_order.is_some() {
            return;
        }
        span.end_order = Some(order);
        span.end_cycle = Some(now);
        span.end_wall_ns = Some(wall);
        let slot = span.track.tid() as usize - 1;
        inner.span_order += 1;
        inner.open_depth[slot] = inner.open_depth[slot].saturating_sub(1);
    }

    /// Opens a span and returns an RAII guard that closes it on drop.
    #[must_use]
    pub fn span(&self, track: Track, name: &str) -> SpanGuard {
        SpanGuard::new(self.clone(), self.span_begin(track, name))
    }

    /// Snapshot of every span recorded so far (open ones included), in
    /// begin order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.clone()
    }

    /// How many spans are currently open across all tracks.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.inner
            .borrow()
            .open_depth
            .iter()
            .map(|&d| d as usize)
            .sum()
    }
}

/// Nanoseconds elapsed since `epoch`, saturating at `u64::MAX`.
fn wall_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_stamps_and_sequences() {
        let t = Tracer::new();
        t.set_now(10);
        t.emit(TraceEvent::McacheMiss { func_pc: 5 });
        t.set_now(99);
        t.emit(TraceEvent::McacheInsert {
            func_pc: 5,
            uops: 7,
        });
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].seq, r[0].cycle), (0, 10));
        assert_eq!((r[1].seq, r[1].cycle), (1, 99));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::with_config(TraceConfig {
            capacity: 4,
            ..TraceConfig::default()
        });
        for pc in 0..10u32 {
            t.emit(TraceEvent::McacheMiss { func_pc: pc });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.emitted(), 10);
        // The survivors are the newest records.
        assert_eq!(t.records()[0].seq, 6);
    }

    #[test]
    fn instruction_events_gated_but_tallied() {
        let t = Tracer::new();
        t.emit(TraceEvent::InstrRetired {
            pc: 0,
            vector: false,
        });
        assert!(t.is_empty());
        assert_eq!(
            t.emitted(),
            1,
            "a gated event still takes a sequence number"
        );

        let t = Tracer::with_config(TraceConfig {
            instructions: true,
            ..TraceConfig::default()
        });
        t.emit(TraceEvent::InstrRetired {
            pc: 0,
            vector: true,
        });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clones_share_the_recorder() {
        let a = Tracer::new();
        let b = a.clone();
        a.set_now(5);
        b.emit(TraceEvent::McacheHit { func_pc: 2 });
        assert_eq!(a.len(), 1);
        assert_eq!(a.records()[0].cycle, 5);
    }
}
