//! Performance history and regression gating for the Liquid SIMD repo.
//!
//! The paper's whole pipeline is deterministic by construction: the same
//! program on the same [`liquid_simd_sim::MachineConfig`] retires the same
//! instructions in the same cycles, every run, on every host. That makes
//! simulated cycle counts a *regression contract*, not a measurement — any
//! drift is a code change, never noise. This crate turns that property
//! into infrastructure:
//!
//! * [`store`] — an append-only `bench/history.jsonl`: every `liquid-simd
//!   bench` run appends one [`record`]-built `perfhist-v1` line keyed by
//!   git commit, timestamp, host fingerprint, and machine-config hash.
//!   Loading preserves unknown fields and future schemas byte-for-byte.
//! * [`counters`] — suite-wide sums of each run's
//!   [`RunReport::counters`](liquid_simd_sim::RunReport::counters) (the
//!   flat, dotted-name `counters` object of a record: translator phase
//!   occupancy and abort tallies, mcache hit/miss/eviction/conflict
//!   counts, SIMD lane utilization, microcode-buffer high-water), and the
//!   labelled ledger snapshots `diff` compares.
//! * [`sentinel`] — the regression gate. Deterministic `sim_cycles` are
//!   compared *exactly* against a comparable baseline record (same
//!   backend, config hash, suite, and widths) and any drift — regression
//!   or improvement — fails, because an unexplained cycle change means the
//!   simulator changed.
//! * [`dashboard`] — a single self-contained HTML report (inline SVG and
//!   CSS, no JavaScript, no external fetches): cycle-trend sparklines,
//!   width-speedup bars in the paper's Figure 6 shape, counter deltas,
//!   and a flamegraph folded from the tracer's span records.
//!
//! Records hold no host-time measurements: two runs of the same code
//! differ only in `timestamp`, and host time belongs to perfbench. The
//! `wall_s`, `sim_cycles_per_sec`, `wall`, `latency` and `throughput_rps`
//! fields of older records are ignored by every reader.
//!
//! Records are [`Json`] values from `liquid_simd_trace::json`, which
//! preserves key order and raw number text so that append → load →
//! re-serialize is the identity function.

#![warn(missing_docs)]

pub mod counters;
pub mod dashboard;
pub mod record;
pub mod sentinel;
pub mod store;

pub use liquid_simd_trace::json::Json;
pub use record::{FamilyRow, RecordMeta, WorkloadRow, GEN_SCHEMA, SCHEMA, SERVE_SCHEMA};
pub use sentinel::{cross_check, SentinelOptions, Verdict};
