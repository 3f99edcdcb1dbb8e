//! Timing-only set-associative cache with true-LRU replacement.
//!
//! Every access is O(1): a line → way residency index finds a resident
//! line, and each set keeps its ways on a doubly linked recency list, so
//! a hit moves its way to the MRU end and a miss fills the way at the LRU
//! end without scanning the set.

use std::fmt;

use liquid_simd_trace::{CacheKind, TraceEvent, Tracer};

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Extra cycles charged on a miss (fill latency from the next level).
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// The ARM-926EJ-S configuration used throughout the paper's evaluation:
    /// 16 KB, 64-way set-associative, 32-byte lines (§5).
    #[must_use]
    pub fn arm926_16k() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 64,
            line_bytes: 32,
            miss_penalty: 30,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not power-of-two
    /// shaped.
    #[must_use]
    pub fn sets(&self) -> u32 {
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(lines % self.ways, 0, "ways must divide line count");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::arm926_16k()
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses(),
            self.miss_rate() * 100.0
        )
    }
}

/// Marks an empty [`Residency`] entry.
const EMPTY: u32 = u32::MAX;

/// Line-number → way-slot index over every resident line: open addressing
/// with linear probing and backward-shift deletion, sized at construction
/// to at most half full, so lookups are O(1) and nothing allocates after
/// [`Cache::new`].
#[derive(Clone, Debug)]
struct Residency {
    /// `(line, slot)` pairs; `slot == EMPTY` marks a free entry.
    table: Vec<(u32, u32)>,
    shift: u32,
}

impl Residency {
    fn new(lines: u32) -> Residency {
        let size = (2 * lines).next_power_of_two().max(2);
        Residency {
            table: vec![(0, EMPTY); size as usize],
            shift: 32 - size.trailing_zeros(),
        }
    }

    /// Fibonacci hash of `line` to its home entry.
    fn home(&self, line: u32) -> usize {
        (line.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    fn next(&self, i: usize) -> usize {
        (i + 1) & (self.table.len() - 1)
    }

    /// The table position holding `line`, or the free entry that ends its
    /// probe run.
    fn position(&self, line: u32) -> usize {
        let mut i = self.home(line);
        while self.table[i].1 != EMPTY && self.table[i].0 != line {
            i = self.next(i);
        }
        i
    }

    fn find(&self, line: u32) -> Option<u32> {
        let (_, slot) = self.table[self.position(line)];
        (slot != EMPTY).then_some(slot)
    }

    /// Records `line` (not already present) as held by `slot`.
    fn insert(&mut self, line: u32, slot: u32) {
        let i = self.position(line);
        self.table[i] = (line, slot);
    }

    /// Removes `line` (present), shifting later entries of its probe run
    /// back so no lookup ever stops early.
    fn remove(&mut self, line: u32) {
        let mut hole = self.position(line);
        let mut i = hole;
        loop {
            i = self.next(i);
            let (l, slot) = self.table[i];
            if slot == EMPTY {
                break;
            }
            // The entry at `i` may fill the hole unless its home lies
            // cyclically within (hole, i].
            let home = self.home(l);
            let stays = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !stays {
                self.table[hole] = (l, slot);
                hole = i;
            }
        }
        self.table[hole].1 = EMPTY;
    }

    fn clear(&mut self) {
        self.table.fill((0, EMPTY));
    }
}

/// Ends a recency list: no newer (or no older) way.
const NIL: u32 = u32::MAX;

/// A set-associative cache timing model.
///
/// [`Cache::access`] classifies an access as hit or miss, updates residency
/// and LRU state, and returns the hit flag; the caller charges
/// [`CacheConfig::miss_penalty`] for misses.
///
/// Every access is O(1). The last line touched is memoised, and every
/// other resident line is found through a line → way index. Each set keeps
/// its ways on a doubly linked recency list: a hit moves its way to the MRU
/// end, and a miss fills the way at the LRU end. Invalid ways sit at the
/// LRU end in way order, so a set fills its first invalid way first.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    set_mask: u32,
    line_shift: u32,
    /// Line number held by each way (`set * ways + way`); `None` marks an
    /// invalid way.
    lines: Vec<Option<u32>>,
    /// Recency links of each way slot: the next more recently used way of
    /// its set, and the next less recently used one (`NIL` past an end).
    newer: Vec<u32>,
    older: Vec<u32>,
    /// Most and least recently used way slot of each set.
    mru: Vec<u32>,
    lru: Vec<u32>,
    residency: Residency,
    /// Line of the most recent access (the MRU way of its set), if still
    /// resident.
    last: Option<u32>,
    stats: CacheStats,
    /// Optional event recorder; set with [`Cache::attach_tracer`]. Without
    /// it, the access path pays one branch.
    tracer: Option<(Tracer, CacheKind)>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        let slots = sets * config.ways;
        let mut cache = Cache {
            config,
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            lines: vec![None; slots as usize],
            newer: vec![NIL; slots as usize],
            older: vec![NIL; slots as usize],
            mru: vec![NIL; sets as usize],
            lru: vec![NIL; sets as usize],
            residency: Residency::new(slots),
            last: None,
            stats: CacheStats::default(),
            tracer: None,
        };
        cache.order_ways();
        cache
    }

    /// Attaches a tracer; every miss then emits a
    /// [`TraceEvent::CacheMiss`] tagged with `kind`.
    pub fn attach_tracer(&mut self, tracer: Tracer, kind: CacheKind) {
        self.tracer = Some((tracer, kind));
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (residency is kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Moves way `slot` of `set` to the MRU end of the set's recency list.
    fn make_mru(&mut self, set: usize, slot: u32) {
        let mru = self.mru[set];
        if mru == slot {
            return;
        }
        // Unlink: `slot` is not the MRU way, so a newer way exists.
        let (newer, older) = (self.newer[slot as usize], self.older[slot as usize]);
        self.older[newer as usize] = older;
        if older == NIL {
            self.lru[set] = newer;
        } else {
            self.newer[older as usize] = newer;
        }
        self.newer[mru as usize] = slot;
        self.older[slot as usize] = mru;
        self.newer[slot as usize] = NIL;
        self.mru[set] = slot;
    }

    /// Accesses one byte address; returns `true` on a hit. Both reads and
    /// writes allocate (write-allocate, which is what the timing model of a
    /// write-back cache needs).
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if self.last == Some(line) {
            // Already the MRU way of its set.
            self.stats.hits += 1;
            return true;
        }
        self.access_other(line, addr)
    }

    /// [`Cache::access`] of a line other than the last one accessed.
    fn access_other(&mut self, line: u32, addr: u32) -> bool {
        self.last = Some(line);
        let set = (line & self.set_mask) as usize;
        if let Some(slot) = self.residency.find(line) {
            self.make_mru(set, slot);
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill the LRU way, which is the first invalid way if any.
        if let Some((tracer, kind)) = &self.tracer {
            tracer.emit(TraceEvent::CacheMiss { cache: *kind, addr });
        }
        let victim = self.lru[set];
        if let Some(old) = self.lines[victim as usize].replace(line) {
            self.residency.remove(old);
        }
        self.residency.insert(line, victim);
        self.make_mru(set, victim);
        false
    }

    /// Accesses a byte *range* (e.g. a `W`-element vector load): touches
    /// every line the range covers and returns the number of lines that
    /// missed. Vector memory operations use this — a 16-element `f32` vector
    /// spans two or three 32-byte lines.
    pub fn access_range(&mut self, addr: u32, len: u32) -> u32 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line << self.line_shift) {
                misses += 1;
            }
        }
        misses
    }

    /// Whether an address is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, addr: u32) -> bool {
        self.residency.find(addr >> self.line_shift).is_some()
    }

    /// Invalidates everything (e.g. on simulated context switch).
    pub fn flush(&mut self) {
        self.lines.fill(None);
        self.residency.clear();
        self.last = None;
        self.order_ways();
    }

    /// Links every set's ways in way order, from way 0 (LRU) to its last
    /// way (MRU): the recency lists of an all-invalid cache, whose fills
    /// then take the invalid ways first to last.
    fn order_ways(&mut self) {
        let ways = self.config.ways;
        for set in 0..self.mru.len() {
            let base = set as u32 * ways;
            for way in 0..ways {
                let slot = (base + way) as usize;
                self.older[slot] = if way == 0 { NIL } else { base + way - 1 };
                self.newer[slot] = if way + 1 == ways { NIL } else { base + way + 1 };
            }
            self.lru[set] = base;
            self.mru[set] = base + ways - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 10,
        })
    }

    /// The linear-scan true-LRU model the indexed [`Cache`] replaced, kept
    /// as the reference it must match access for access.
    struct Reference {
        config: CacheConfig,
        sets: u32,
        /// `(tag, valid, last_use)` per way.
        ways: Vec<(u32, bool, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Reference {
            let sets = config.sets();
            Reference {
                config,
                sets,
                ways: vec![(0, false, 0); (sets * config.ways) as usize],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_range(&self, addr: u32) -> (std::ops::Range<usize>, u32) {
            let line = addr / self.config.line_bytes;
            let start = ((line % self.sets) * self.config.ways) as usize;
            (start..start + self.config.ways as usize, line / self.sets)
        }

        fn access(&mut self, addr: u32) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let (range, tag) = self.set_range(addr);
            let ways = &mut self.ways[range];
            if let Some(way) = ways.iter_mut().find(|w| w.1 && w.0 == tag) {
                way.2 = self.tick;
                self.stats.hits += 1;
                return true;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.1 { w.2 } else { 0 })
                .unwrap();
            *victim = (tag, true, self.tick);
            false
        }

        fn access_range(&mut self, addr: u32, len: u32) -> u32 {
            if len == 0 {
                return 0;
            }
            let line = self.config.line_bytes;
            (addr / line..=(addr + len - 1) / line)
                .filter(|l| !self.access(l * line))
                .count() as u32
        }

        fn probe(&self, addr: u32) -> bool {
            let (range, tag) = self.set_range(addr);
            self.ways[range].iter().any(|w| w.1 && w.0 == tag)
        }

        fn flush(&mut self) {
            for w in &mut self.ways {
                w.1 = false;
            }
        }
    }

    /// Drives the reference and the indexed cache with one seeded stream of
    /// accesses, line-crossing ranges, probes and flushes, and checks every
    /// result and the final stats agree.
    fn differential(config: CacheConfig, seed: u64, ops: usize) {
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut cache, mut reference) = (Cache::new(config), Reference::new(config));
        // Four times the capacity, so sets overflow and LRU victims matter.
        let span = 4 * config.size_bytes;
        let mut cursor = 0u32;
        for op in 0..ops {
            let r = next();
            // Half the addresses walk a cursor (locality, repeated lines),
            // half are uniform over the span.
            let addr = if r & 1 == 0 {
                cursor = (cursor + (r >> 8) as u32 % 24) % span;
                cursor
            } else {
                (r >> 8) as u32 % span
            };
            match (r >> 40) % 100 {
                0 => {
                    cache.flush();
                    reference.flush();
                }
                1..=15 => assert_eq!(cache.probe(addr), reference.probe(addr), "op {op}"),
                16..=35 => {
                    let len = (r >> 48) as u32 % (3 * config.line_bytes);
                    assert_eq!(
                        cache.access_range(addr, len),
                        reference.access_range(addr, len),
                        "op {op}: range {addr:#x}+{len}"
                    );
                }
                _ => assert_eq!(cache.access(addr), reference.access(addr), "op {op}"),
            }
        }
        assert_eq!(cache.stats(), reference.stats);
        assert!(cache.stats().hits > 0 && cache.stats().misses() > 0);
    }

    #[test]
    fn indexed_cache_matches_linear_scan_reference() {
        for seed in [1, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF] {
            differential(*tiny().config(), seed, 20_000);
            differential(CacheConfig::arm926_16k(), seed, 200_000);
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::arm926_16k().sets(), 8);
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x00));
        assert!(c.access(0x04)); // same line
        assert!(c.access(0x0F));
        assert!(!c.access(0x10)); // next line, different set
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 2 == 0): addresses 0x00, 0x20, 0x40.
        assert!(!c.access(0x00));
        assert!(!c.access(0x20));
        assert!(c.access(0x00)); // touch: 0x20 is now LRU
        assert!(!c.access(0x40)); // evicts 0x20
        assert!(c.access(0x00));
        assert!(!c.access(0x20)); // was evicted
    }

    #[test]
    fn range_access_counts_lines() {
        let mut c = tiny();
        assert_eq!(c.access_range(0x08, 16), 2); // spans lines 0 and 1
        assert_eq!(c.access_range(0x08, 16), 0); // both resident now
        assert_eq!(c.access_range(0x00, 1), 0);
        assert_eq!(c.access_range(0x00, 0), 0);
    }

    #[test]
    fn probe_and_flush() {
        let mut c = tiny();
        c.access(0x00);
        assert!(c.probe(0x0C));
        c.flush();
        assert!(!c.probe(0x0C));
    }

    #[test]
    fn working_set_behaviour_matches_capacity() {
        // A working set larger than capacity never stops missing under LRU
        // with a cyclic scan (the 179.art scenario in miniature).
        let mut c = tiny();
        let lines = 8u32; // 128 bytes > 64-byte capacity
        let mut misses = 0;
        for round in 0..4 {
            for i in 0..lines {
                if !c.access(i * 16) {
                    misses += 1;
                }
            }
            if round > 0 {
                // Steady state: every access misses (cyclic scan + LRU).
            }
        }
        assert_eq!(misses, 32);

        // A working set that fits stops missing after the first pass.
        let mut c = tiny();
        let mut misses = 0;
        for _ in 0..4 {
            for i in 0..4u32 {
                if !c.access(i * 16) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 4);
    }
}
