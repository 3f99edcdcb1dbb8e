//! `liquid-simd serve` — a batched, sharded simulation service.
//!
//! The paper's pitch is that one Liquid binary serves many SIMD targets
//! because translation is cheap and cacheable; this crate serves that
//! translation over the wire. A long-lived daemon accepts line-delimited
//! JSON requests (`translate` / `run` / `explain` / `conform`, the
//! `serve-v1` protocol in [`proto`]) on a plain [`std::net::TcpListener`]
//! and streams back one response line per request — `std` only, no new
//! dependencies, no `unsafe`.
//!
//! The moving parts:
//!
//! * [`ops`] — executes one request and renders its output **byte-identical
//!   to the one-shot CLI** (the CLI calls the same renderers), so a serve
//!   response can be diffed against `liquid-simd run`/`translate`/`explain`
//!   output directly.
//! * [`cache`] — the cross-request build cache (workload name → compiled
//!   Liquid program) and the global microcode/translation cache keyed by
//!   `(program hash, width, MachineConfig hash, request params)`: a repeat
//!   translation costs a map lookup, the service-level analogue of the
//!   paper's microcode cache making repeat region entries free.
//! * [`server`] — sharded dispatch. N worker shards each own a request
//!   queue; a request is assigned to shard `program_hash % shards`, so the
//!   response stream is byte-identical regardless of shard count. Requests
//!   carry per-request cycle/abort budgets; exceeding one yields a graceful
//!   `serve-err-v1` response, never a worker death (worker panics are
//!   caught and answered the same way).
//! * [`record`] — per-batch `perfhist-serve-v1` telemetry records
//!   (request and cache counts, and the order-independent determinism
//!   hashes the sentinel gates on), appended
//!   to the same history file the bench records live in.
//! * [`inspect`] — the `metrics-v1` live-introspection snapshot behind the
//!   `inspect` op (unified counters, power-of-two histograms, cache and
//!   flight-recorder state) and the scrubber that makes snapshots
//!   byte-comparable across shard counts.
//! * [`loadgen`] — the `bench --serve` load generator: N clients × M
//!   requests from a seeded template mix, run once at `--shards 1` and once
//!   at the requested shard count, hard-failing on any cross-shard
//!   nondeterminism or a cache hit rate below the floor — plus an optional
//!   recorder-off pass that must answer byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod inspect;
pub mod loadgen;
pub mod ops;
pub mod proto;
pub mod record;
pub mod server;

pub use server::{spawn, ServeOptions, ServeSummary, ServerHandle};

/// FNV-1a over a byte string — the same hash family
/// [`MachineConfig::fingerprint`](liquid_simd::MachineConfig::fingerprint)
/// uses, applied to program bytes, canonical request keys, and response
/// bodies. Deterministic across hosts and runs, which is what the serve
/// determinism hashes require.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"liquid"), fnv1a(b"liquid"));
        assert_ne!(fnv1a(b"liquid"), fnv1a(b"liquie"));
    }
}
