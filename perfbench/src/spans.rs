//! Layer spans recorded from the benchmark's side of each call into a
//! crate's public functions.
//!
//! A span's *self* time is its thread-CPU duration minus the part its
//! child spans cover, so self times never double-count and their sum
//! plus the unattributed remainder is the traced pass's CPU time. A
//! disabled tracer runs the same closures and reads no clock.

use std::collections::BTreeMap;

use crate::clock::thread_cpu_ns;

/// Per-layer self times and counters of one traced pass.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing (the end-to-end passes).
    #[must_use]
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer (the traced pass).
    #[must_use]
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Whether spans and counters are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span charged to `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.open.push(0);
        let start = thread_cpu_ns();
        let out = f(self);
        let total = thread_cpu_ns().saturating_sub(start);
        let children = self.open.pop().expect("span stack underflow");
        *self.self_ns.entry(layer).or_insert(0) += total.saturating_sub(children);
        if let Some(parent) = self.open.last_mut() {
            *parent += total;
        }
        out
    }

    /// Adds `n` to the counter `name` (recorded only when enabled).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Self seconds charged to `layer`.
    #[must_use]
    pub fn self_s(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Sum of every layer's self seconds.
    #[must_use]
    pub fn total_self_s(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 * 1e-9
    }

    /// The counter `name` (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Adds the standard simulation counters of one run report.
    pub fn count_report(&mut self, r: &liquid_simd::RunReport) {
        self.count("sim.retired", r.retired);
        self.count("sim.cycles", r.cycles);
        self.count("translator.attempts", r.translator.attempts);
        self.count("translator.successes", r.translator.successes);
        self.count("translator.aborts", r.translator.aborted());
        self.count("mcache.hits", r.mcache.hits);
        self.count(
            "mcache.misses",
            r.mcache
                .lookups
                .saturating_sub(r.mcache.hits + r.mcache.pending),
        );
        self.count("mcache.evictions", r.mcache.evictions);
        self.count("blocks.fallback_translator", r.blocks.fallback_translator);
        self.count("blocks.fallback_control", r.blocks.fallback_control);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_mul(31) ^ i))
    }

    #[test]
    fn self_times_exclude_children_and_sum_to_the_outer_span() {
        let mut t = Tracer::on();
        let before = thread_cpu_ns();
        t.span("outer", |t| {
            burn(2_000_000);
            t.span("inner", |_| burn(4_000_000));
        });
        let wall_cpu = (thread_cpu_ns() - before) as f64 * 1e-9;
        assert!(t.self_s("inner") > 0.0 && t.self_s("outer") > 0.0);
        assert!(t.self_s("inner") > t.self_s("outer"));
        assert!(t.total_self_s() <= wall_cpu);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("outer", |t| {
            t.count("n", 3);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.total_self_s(), 0.0);
        assert_eq!(t.counter("n"), 0);
    }
}
