//! The flight recorder: always-on, bounded, per-shard black-box telemetry
//! for long-lived services.
//!
//! A [`FlightRecorder`] holds one bounded ring of [`FlightRecord`]s per
//! shard. The hot path ([`FlightRecorder::record`]) never blocks: each
//! ring sits behind a `try_lock`, so a writer that collides with a
//! concurrent drain (or another writer on the same shard) drops the event
//! and bumps a `contended` counter instead of waiting — recording is
//! strictly best-effort and strictly bounded. Overflow inside a ring
//! drops the *oldest* record, black-box style: the buffer always holds
//! the most recent window of activity, which is exactly what an incident
//! dump wants.
//!
//! Every record is stamped with a globally ordered sequence number, a
//! wall-clock offset from recorder creation, the shard that served it,
//! and the request's causality context (id, op, translation-cache
//! generation). [`drain`](FlightRecorder::drain) empties every ring in
//! ascending shard order and restores the global order by seq — the
//! deterministic merge the `flight-v1` dump format requires.
//!
//! Serialization goes through [`crate::json`] (compact): a dump is one
//! `flight-v1` header line plus one JSON object per event, and a
//! folded-stacks sidecar (`service;op;stage count` lines) for flamegraph
//! tooling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Schema tag of a dump's header line.
pub const FLIGHT_SCHEMA: &str = "flight-v1";

/// Default per-shard ring capacity (records, not bytes).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The request-lifecycle stages a service records, in lifecycle order.
/// `Probe` is the translation-cache lookup; `Translate` and `Execute`
/// only appear on a miss (a hit skips straight to `Respond`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightStage {
    /// A request line arrived on a connection.
    Accept,
    /// The line parsed (or failed to parse) into a request.
    Parse,
    /// The program resolved from the build cache (compiled or hit).
    Build,
    /// Translation-cache lookup; `detail` says `hit` or `miss`.
    Probe,
    /// Computing the response on a miss — the service-level translation.
    Translate,
    /// The simulation/execution finished; `cycles` is its cost.
    Execute,
    /// The response body is final; `ok`/`detail` carry the outcome.
    Respond,
    /// A worker panic was contained; `detail` is the payload text.
    Panic,
}

impl FlightStage {
    /// Stable lowercase wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlightStage::Accept => "accept",
            FlightStage::Parse => "parse",
            FlightStage::Build => "build",
            FlightStage::Probe => "probe",
            FlightStage::Translate => "translate",
            FlightStage::Execute => "execute",
            FlightStage::Respond => "respond",
            FlightStage::Panic => "panic",
        }
    }
}

/// One request-lifecycle event, before the recorder stamps it.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Request id as text (empty when the request carried none).
    pub id: String,
    /// Operation name (`run`, `translate`, … or `invalid`).
    pub op: String,
    /// Lifecycle stage.
    pub stage: FlightStage,
    /// Whether the stage succeeded (parse errors, error responses, panics
    /// record `false`).
    pub ok: bool,
    /// Stage-specific detail: `hit`/`miss` for probes, the error kind for
    /// failed responds, the panic payload, the backend for executes.
    pub detail: String,
    /// Simulated cycles attributable to the stage (0 when inapplicable).
    pub cycles: u64,
    /// Translation-cache generation (monotonic insert count) observed at
    /// the stage — the causality stamp linking an event to the cache
    /// state it saw.
    pub generation: u64,
}

impl FlightEvent {
    /// A minimal event: everything defaulted except id, op, and stage.
    #[must_use]
    pub fn new(id: &str, op: &str, stage: FlightStage) -> FlightEvent {
        FlightEvent {
            id: id.to_string(),
            op: op.to_string(),
            stage,
            ok: true,
            detail: String::new(),
            cycles: 0,
            generation: 0,
        }
    }

    /// Sets the success flag.
    #[must_use]
    pub fn ok(mut self, ok: bool) -> FlightEvent {
        self.ok = ok;
        self
    }

    /// Sets the detail text.
    #[must_use]
    pub fn detail(mut self, detail: &str) -> FlightEvent {
        self.detail = detail.to_string();
        self
    }

    /// Sets the cycle cost.
    #[must_use]
    pub fn cycles(mut self, cycles: u64) -> FlightEvent {
        self.cycles = cycles;
        self
    }

    /// Sets the cache-generation stamp.
    #[must_use]
    pub fn generation(mut self, generation: u64) -> FlightEvent {
        self.generation = generation;
        self
    }
}

/// A stamped event as stored in a ring: the recorder adds the global
/// sequence number, the wall-clock offset, and the shard.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Global sequence number (total order across all shards).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub wall_us: u64,
    /// Shard that recorded the event.
    pub shard: u32,
    /// The event itself.
    pub event: FlightEvent,
}

struct Ring {
    buf: VecDeque<FlightRecord>,
    dropped: u64,
}

/// Per-shard bounded rings with non-blocking writers — see the module
/// docs for the full contract.
pub struct FlightRecorder {
    backend: String,
    capacity: usize,
    rings: Vec<Mutex<Ring>>,
    seq: AtomicU64,
    events: AtomicU64,
    dropped: AtomicU64,
    contended: AtomicU64,
    started: Instant,
}

impl FlightRecorder {
    /// Creates a recorder with `shards` rings of `capacity` records each.
    /// `backend` is stamped into dump headers. A zero capacity disables
    /// recording entirely (every record is counted as dropped) — the
    /// overhead-measurement escape hatch.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, backend: &str) -> FlightRecorder {
        let shards = shards.max(1);
        FlightRecorder {
            backend: backend.to_string(),
            capacity,
            rings: (0..shards)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(capacity.min(1024)),
                        dropped: 0,
                    })
                })
                .collect(),
            seq: AtomicU64::new(0),
            events: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Number of shard rings.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Per-shard ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (dropped ones included).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Records dropped: ring overflow plus zero-capacity discards.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events discarded because the writer refused to wait for a busy
    /// ring lock — the price of a never-blocking hot path.
    #[must_use]
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Records one event into `shard`'s ring (shards out of range wrap).
    /// Never blocks: a busy ring drops the event and counts it under
    /// [`contended`](FlightRecorder::contended); a full ring drops its
    /// oldest record. Returns the event's global sequence number.
    pub fn record(&self, shard: usize, event: FlightEvent) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return seq;
        }
        let shard = shard % self.rings.len();
        let record = FlightRecord {
            seq,
            wall_us: self.started.elapsed().as_micros() as u64,
            shard: shard as u32,
            event,
        };
        match self.rings[shard].try_lock() {
            Ok(mut ring) => {
                if ring.buf.len() >= self.capacity {
                    ring.buf.pop_front();
                    ring.dropped += 1;
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                ring.buf.push_back(record);
            }
            Err(_) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }

    /// Empties every ring — ascending shard order, then global seq order —
    /// and returns the merged records. The rings keep recording while a
    /// drain is in flight (writers that collide with the drain drop their
    /// event rather than wait).
    #[must_use]
    pub fn drain(&self) -> Vec<FlightRecord> {
        let mut out = Vec::new();
        for ring in &self.rings {
            let mut ring = ring.lock().expect("flight ring poisoned");
            out.extend(ring.buf.drain(..));
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Renders a full `flight-v1` dump: the header line followed by one
    /// JSON object per drained record, newline-terminated.
    #[must_use]
    pub fn dump(&self, reason: &str, records: &[FlightRecord]) -> String {
        let header = Json::obj([
            ("schema", FLIGHT_SCHEMA.into()),
            ("reason", reason.into()),
            ("backend", (&self.backend).into()),
            ("shards", self.rings.len().into()),
            ("capacity", self.capacity.into()),
            ("events", self.events().into()),
            ("dropped", self.dropped().into()),
            ("contended", self.contended().into()),
        ]);
        let mut out = String::with_capacity(64 + records.len() * 128);
        out.push_str(&header.write());
        out.push('\n');
        for r in records {
            out.push_str(&record_line(r));
            out.push('\n');
        }
        out
    }
}

/// One `flight-v1` event line (no trailing newline).
#[must_use]
pub fn record_line(r: &FlightRecord) -> String {
    Json::obj([
        ("seq", r.seq.into()),
        ("wall_us", r.wall_us.into()),
        ("shard", r.shard.into()),
        ("id", (&r.event.id).into()),
        ("op", (&r.event.op).into()),
        ("stage", r.event.stage.name().into()),
        ("ok", r.event.ok.into()),
        ("detail", (&r.event.detail).into()),
        ("cycles", r.event.cycles.into()),
        ("gen", r.event.generation.into()),
    ])
    .write()
}

/// Folds drained records into flamegraph input: one line per distinct
/// `service;op;stage` path with the event count as its weight, sorted by
/// path — the sidecar every dump ships next to its JSONL.
#[must_use]
pub fn folded_events(service: &str, records: &[FlightRecord]) -> String {
    let mut tally: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for r in records {
        let path = format!("{service};{};{}", r.event.op, r.event.stage.name());
        *tally.entry(path).or_insert(0) += 1;
    }
    let mut out = String::new();
    for (path, count) in tally {
        out.push_str(&format!("{path} {count}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: &str, stage: FlightStage) -> FlightEvent {
        FlightEvent::new(id, "run", stage)
    }

    #[test]
    fn overflow_drops_oldest_keeps_newest() {
        let rec = FlightRecorder::new(1, 3, "interp");
        for i in 0..5 {
            rec.record(0, ev(&format!("r{i}"), FlightStage::Accept));
        }
        let drained = rec.drain();
        assert_eq!(drained.len(), 3, "ring holds exactly its capacity");
        let ids: Vec<&str> = drained.iter().map(|r| r.event.id.as_str()).collect();
        assert_eq!(ids, ["r2", "r3", "r4"], "oldest two dropped");
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.events(), 5);
    }

    #[test]
    fn writer_never_blocks_on_a_held_ring() {
        let rec = FlightRecorder::new(1, 8, "interp");
        rec.record(0, ev("before", FlightStage::Accept));
        {
            // Simulate a drain in flight: hold the ring lock and record.
            let _held = rec.rings[0].lock().unwrap();
            let start = Instant::now();
            rec.record(0, ev("during", FlightStage::Accept));
            assert!(
                start.elapsed() < std::time::Duration::from_millis(50),
                "record must not wait for the lock"
            );
        }
        rec.record(0, ev("after", FlightStage::Accept));
        assert_eq!(rec.contended(), 1, "the contended write was dropped");
        let ids: Vec<String> = rec.drain().into_iter().map(|r| r.event.id).collect();
        assert_eq!(ids, ["before", "after"]);
    }

    #[test]
    fn drain_merges_shards_in_global_seq_order() {
        let rec = FlightRecorder::new(3, 16, "interp");
        // Interleave shards; seq is global, so drain must restore order.
        rec.record(2, ev("a", FlightStage::Accept));
        rec.record(0, ev("b", FlightStage::Parse));
        rec.record(1, ev("c", FlightStage::Respond));
        rec.record(2, ev("d", FlightStage::Respond));
        let drained = rec.drain();
        let seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        let shards: Vec<u32> = drained.iter().map(|r| r.shard).collect();
        assert_eq!(shards, [2, 0, 1, 2]);
        assert!(rec.drain().is_empty(), "drain empties the rings");
    }

    #[test]
    fn zero_capacity_discards_everything() {
        let rec = FlightRecorder::new(2, 0, "interp");
        rec.record(0, ev("x", FlightStage::Accept));
        assert_eq!(rec.events(), 1);
        assert_eq!(rec.dropped(), 1);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn dump_is_parseable_flight_v1_lines() {
        let rec = FlightRecorder::new(2, 8, "superblock");
        rec.record(0, ev("r0", FlightStage::Accept));
        rec.record(
            1,
            ev("r\"1\"", FlightStage::Respond)
                .ok(false)
                .detail("budget-exceeded")
                .cycles(42)
                .generation(7),
        );
        let records = rec.drain();
        let dump = rec.dump("worker-panic", &records);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"flight-v1\""));
        assert!(lines[0].contains("\"reason\":\"worker-panic\""));
        assert!(lines[0].contains("\"backend\":\"superblock\""));
        assert!(lines[1].contains("\"stage\":\"accept\""));
        assert!(lines[2].contains("\"detail\":\"budget-exceeded\""));
        assert!(lines[2].contains("\"cycles\":42"));
        assert!(lines[2].contains("\"gen\":7"));
        assert!(lines[2].contains("\\\"1\\\""), "ids are JSON-escaped");
    }

    #[test]
    fn folded_events_tally_paths() {
        let rec = FlightRecorder::new(1, 8, "interp");
        rec.record(0, ev("a", FlightStage::Accept));
        rec.record(0, ev("a", FlightStage::Respond));
        rec.record(0, ev("b", FlightStage::Accept));
        let folded = folded_events("serve", &rec.drain());
        assert_eq!(folded, "serve;run;accept 2\nserve;run;respond 1\n");
    }
}
