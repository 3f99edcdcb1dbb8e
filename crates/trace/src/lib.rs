//! Tracing for the Liquid SIMD pipeline.
//!
//! The simulator's correctness story (and the paper's argument) is built on
//! *dynamic* events: the post-retirement translator shadowing a retired
//! stream, translations committing or aborting, microcode-cache residency
//! changing, early calls of a loop still running scalar while translation
//! races them. This crate gives every component a shared, dependency-free
//! way to record those moments:
//!
//! * [`TraceEvent`] — the event schema, from instruction retire to
//!   interrupt injection, each tagged with a subsystem [`Track`].
//! * [`Tracer`] — a cheaply cloneable handle over a bounded ring-buffer
//!   recorder. A machine built *without* a tracer pays only a branch per
//!   emit site. The tracer records; it counts nothing. A run's counts are
//!   its `RunReport::counters()`.
//! * [`Metrics`] — named counters and fixed-bucket [`Histogram`]s that
//!   merge across registries; the serve daemon keeps one per shard.
//! * [`span`] — named durations with per-track nesting and both sim-cycle
//!   and wall-clock deltas ([`Tracer::span_begin`]/[`Tracer::span_end`] or
//!   the RAII [`Tracer::span`]), aggregated by name for profile reports.
//! * [`export`] — JSON-lines, Chrome trace-event format (one track per
//!   subsystem, loadable in Perfetto / `chrome://tracing`), folded stacks
//!   and a span table; `liquid-simd profile` prints the table and writes
//!   either trace format.
//! * [`flight`] — the always-on service flight recorder: per-shard
//!   bounded rings of request-lifecycle events with a never-blocking
//!   hot path, drained into `flight-v1` JSONL black-box dumps.
//! * [`json`] — the workspace's one JSON value/parser/writer: insertion
//!   order and raw number text survive a round trip, two fixed layouts
//!   (compact and rows), one string escaper, and a nesting cap.
//!
//! ```
//! use liquid_simd_trace::{CallMode, TraceEvent, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.set_now(120);
//! tracer.emit(TraceEvent::CallEnter { target: 8, mode: CallMode::Scalar });
//! tracer.emit(TraceEvent::TranslationBegin { func_pc: 8 });
//! tracer.set_now(450);
//! tracer.emit(TraceEvent::TranslationCommit {
//!     func_pc: 8,
//!     uops: 9,
//!     dynamic_instrs: 130,
//! });
//! let commits = tracer
//!     .records()
//!     .iter()
//!     .filter(|r| r.event.kind() == "translation-commit")
//!     .count();
//! assert_eq!(commits, 1);
//! print!("{}", liquid_simd_trace::export::json_lines(&tracer.records()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use event::{CacheKind, CallMode, TraceEvent, TraceRecord, Track};
pub use flight::{
    FlightEvent, FlightRecord, FlightRecorder, FlightStage, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA,
};
pub use json::Json;
pub use metrics::{nearest_rank, pow2_bounds, Histogram, Metrics};
pub use span::{SpanAgg, SpanGuard, SpanId, SpanRecord};
pub use tracer::{TraceConfig, Tracer, DEFAULT_CAPACITY};
