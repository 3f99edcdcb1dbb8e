//! The microcode cache (paper §4.1 / Figure 1): translated SIMD loops,
//! indexed by the outlined function's entry PC, with LRU replacement.
//!
//! The paper sizes it at 8 entries × 64 instructions (2 KB) and shows this
//! captures the hot-loop working set of every benchmark.

use std::collections::BTreeMap;

use liquid_simd_isa::Inst;

use crate::meta::InstMeta;

/// Microcode-cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McacheStats {
    /// Lookups performed (one per call of a candidate function).
    pub lookups: u64,
    /// Lookups that found valid, ready microcode.
    pub hits: u64,
    /// Lookups that found an entry still being "written" (translation
    /// latency not yet elapsed).
    pub pending: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by capacity.
    pub evictions: u64,
    /// Tag-conflict replacements: inserts that found microcode already
    /// resident for the same function and overwrote it in place (a retry
    /// after an external abort, or a retranslation at a new width).
    pub conflicts: u64,
}

/// Per-function microcode-cache statistics. Keyed by the function's entry
/// PC and kept *across* evictions, so a thrashing entry's history survives
/// its residency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McacheEntryStats {
    /// Lookups that found this function's microcode ready.
    pub hits: u64,
    /// Lookups for this function that found nothing resident.
    pub misses: u64,
    /// Lookups that found this function's entry still being written.
    pub pending: u64,
    /// Times this function's microcode was inserted (reinserts included).
    pub inserts: u64,
    /// Times this function was evicted by capacity.
    pub evictions: u64,
    /// Times a fresh insert for this function found its old microcode still
    /// resident and replaced it in place (tag conflict).
    pub conflicts: u64,
    /// Entry PC of the function whose insert evicted this one, once per
    /// eviction, in order — the evictor identity.
    pub evicted_by: Vec<u32>,
    /// Microcode length of the most recent insert.
    pub uops: usize,
}

#[derive(Clone, Debug)]
struct Entry {
    func_pc: u32,
    code: Vec<Inst>,
    /// Predecoded static metadata, parallel to `code` (the simulator's
    /// fast path; computed once at insert, never per retire).
    meta: Vec<InstMeta>,
    valid_at: u64,
    last_use: u64,
    /// Monotonic code generation: bumped on every insert, including
    /// in-place overwrites, so anything derived from this entry's code
    /// (lowered superblocks) can detect that the code changed underneath
    /// it. Two entries never share a generation.
    gen: u64,
}

/// Result of a microcode-cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// No entry for this function.
    Miss,
    /// An entry exists but its translation latency has not elapsed.
    Pending,
    /// Ready microcode (index into the cache; fetch with [`Mcache::code`]).
    Hit(usize),
}

/// The microcode cache.
#[derive(Clone, Debug)]
pub struct Mcache {
    entries: Vec<Entry>,
    capacity: usize,
    max_uops: usize,
    tick: u64,
    stats: McacheStats,
    per_entry: BTreeMap<u32, McacheEntryStats>,
    /// Generation source for [`Entry::gen`].
    next_gen: u64,
    /// Invalidation epoch: bumped whenever resident code changes or
    /// disappears (insert, overwrite, eviction, flush). Derived structures
    /// (the superblock backend's block cache) compare this against the
    /// epoch they last synchronised at and re-validate on any change.
    epoch: u64,
}

impl Mcache {
    /// Creates an empty cache of `capacity` entries of `max_uops`
    /// instructions each.
    #[must_use]
    pub fn new(capacity: usize, max_uops: usize) -> Mcache {
        Mcache {
            entries: Vec::with_capacity(capacity),
            capacity,
            max_uops,
            tick: 0,
            stats: McacheStats::default(),
            per_entry: BTreeMap::new(),
            next_gen: 0,
            epoch: 0,
        }
    }

    /// The invalidation epoch: changes exactly when resident code changes
    /// (insert, in-place overwrite, eviction, or flush). Lookups never move
    /// it.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The code generation of entry `idx` (from [`Lookup::Hit`]). Each
    /// insert — including an in-place overwrite of the same function —
    /// gets a fresh generation, so `(func_pc, gen)` uniquely names one
    /// immutable code image for the cache's whole lifetime.
    #[must_use]
    pub fn gen(&self, idx: usize) -> u64 {
        self.entries[idx].gen
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> McacheStats {
        self.stats
    }

    /// Per-function statistics, keyed by entry PC. Entries persist across
    /// evictions and flushes.
    #[must_use]
    pub fn entry_stats(&self) -> &BTreeMap<u32, McacheEntryStats> {
        &self.per_entry
    }

    /// Storage size in bytes (entries × instructions × 4), the paper's
    /// "2 KB SRAM" figure at the default 8 × 64 geometry.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.capacity * self.max_uops * 4
    }

    /// Looks up microcode for a function entry at the current cycle.
    pub fn lookup(&mut self, func_pc: u32, now: u64) -> Lookup {
        self.stats.lookups += 1;
        self.tick += 1;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.func_pc == func_pc {
                if e.valid_at <= now {
                    e.last_use = self.tick;
                    self.stats.hits += 1;
                    self.per_entry.entry(func_pc).or_default().hits += 1;
                    return Lookup::Hit(i);
                }
                self.stats.pending += 1;
                self.per_entry.entry(func_pc).or_default().pending += 1;
                return Lookup::Pending;
            }
        }
        self.per_entry.entry(func_pc).or_default().misses += 1;
        Lookup::Miss
    }

    /// The microcode of entry `idx` (from [`Lookup::Hit`]).
    #[must_use]
    pub fn code(&self, idx: usize) -> &[Inst] {
        &self.entries[idx].code
    }

    /// The function entry PC of entry `idx` (from [`Lookup::Hit`]).
    #[must_use]
    pub fn func_pc(&self, idx: usize) -> u32 {
        self.entries[idx].func_pc
    }

    /// The predecoded metadata of entry `idx`, parallel to
    /// [`Mcache::code`].
    #[must_use]
    pub fn meta(&self, idx: usize) -> &[InstMeta] {
        &self.entries[idx].meta
    }

    /// Inserts translated microcode with its predecoded metadata, evicting
    /// the LRU entry if full; returns the evicted function's entry PC, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the per-entry capacity (the translator's
    /// buffer enforces the same limit, so this indicates a logic error) or
    /// if `meta` is not parallel to `code`.
    pub fn insert(
        &mut self,
        func_pc: u32,
        code: Vec<Inst>,
        meta: Vec<InstMeta>,
        valid_at: u64,
    ) -> Option<u32> {
        assert!(
            code.len() <= self.max_uops,
            "microcode of {} uops exceeds entry capacity {}",
            code.len(),
            self.max_uops
        );
        assert_eq!(code.len(), meta.len(), "metadata must be parallel to code");
        self.tick += 1;
        self.stats.inserts += 1;
        self.epoch += 1;
        self.next_gen += 1;
        let gen = self.next_gen;
        {
            let es = self.per_entry.entry(func_pc).or_default();
            es.inserts += 1;
            es.uops = code.len();
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.func_pc == func_pc) {
            self.stats.conflicts += 1;
            self.per_entry.entry(func_pc).or_default().conflicts += 1;
            e.code = code;
            e.meta = meta;
            e.valid_at = valid_at;
            e.last_use = self.tick;
            e.gen = gen;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            let victim = self.entries.swap_remove(lru).func_pc;
            self.stats.evictions += 1;
            let vs = self.per_entry.entry(victim).or_default();
            vs.evictions += 1;
            vs.evicted_by.push(func_pc);
            evicted = Some(victim);
        }
        self.entries.push(Entry {
            func_pc,
            code,
            meta,
            valid_at,
            last_use: self.tick,
            gen,
        });
        evicted
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Invalidates everything (context switch); returns how many entries
    /// were resident.
    pub fn flush(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        if n > 0 {
            self.epoch += 1;
        }
        n
    }

    /// Snapshots the resident microcode: `(function pc, code)` pairs. Used
    /// to model a machine with *built-in* ISA support (paper Figure 6
    /// callout): harvest after one run, preload into a fresh machine.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, Vec<Inst>)> {
        self.entries
            .iter()
            .map(|e| (e.func_pc, e.code.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use crate::meta::meta_of_code;
    use liquid_simd_isa::ScalarInst;

    fn code(n: usize) -> Vec<Inst> {
        vec![Inst::S(ScalarInst::Nop); n]
    }

    fn meta(code: &[Inst]) -> Vec<InstMeta> {
        meta_of_code(code, &LatencyModel::default(), 8)
    }

    /// The generation of the resident entry for `func_pc`, if any.
    fn resident_gen(mc: &Mcache, func_pc: u32) -> Option<u64> {
        (0..mc.len())
            .find(|&idx| mc.func_pc(idx) == func_pc)
            .map(|idx| mc.gen(idx))
    }

    fn insert(mc: &mut Mcache, pc: u32, code: Vec<Inst>, valid_at: u64) -> Option<u32> {
        let m = meta(&code);
        mc.insert(pc, code, m, valid_at)
    }

    #[test]
    fn pending_until_valid_at() {
        let mut mc = Mcache::new(2, 64);
        insert(&mut mc, 10, code(3), 100);
        assert_eq!(mc.lookup(10, 50), Lookup::Pending);
        assert_eq!(mc.lookup(10, 100), Lookup::Hit(0));
        assert_eq!(mc.code(0).len(), 3);
        assert_eq!(mc.stats().pending, 1);
        assert_eq!(mc.stats().hits, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut mc = Mcache::new(2, 64);
        insert(&mut mc, 1, code(1), 0);
        insert(&mut mc, 2, code(1), 0);
        assert_eq!(mc.lookup(1, 10), Lookup::Hit(0)); // touch 1
        insert(&mut mc, 3, code(1), 0); // evicts 2
        assert_eq!(mc.lookup(2, 10), Lookup::Miss);
        assert!(matches!(mc.lookup(1, 10), Lookup::Hit(_)));
        assert!(matches!(mc.lookup(3, 10), Lookup::Hit(_)));
        assert_eq!(mc.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut mc = Mcache::new(2, 64);
        insert(&mut mc, 1, code(1), 0);
        insert(&mut mc, 1, code(5), 7);
        assert_eq!(mc.len(), 1);
        assert_eq!(mc.lookup(1, 3), Lookup::Pending);
        let Lookup::Hit(i) = mc.lookup(1, 7) else {
            panic!("expected hit")
        };
        assert_eq!(mc.code(i).len(), 5);
        assert_eq!(mc.stats().conflicts, 1);
        assert_eq!(mc.entry_stats()[&1].conflicts, 1);
    }

    #[test]
    fn paper_geometry_is_2kb() {
        let mc = Mcache::new(8, 64);
        assert_eq!(mc.storage_bytes(), 2048);
    }

    #[test]
    #[should_panic(expected = "exceeds entry capacity")]
    fn oversized_microcode_panics() {
        let mut mc = Mcache::new(1, 4);
        insert(&mut mc, 1, code(5), 0);
    }

    #[test]
    fn generations_and_epoch_track_every_code_change() {
        let mut mc = Mcache::new(2, 64);
        assert_eq!(mc.epoch(), 0);
        insert(&mut mc, 1, code(1), 0);
        let e1 = mc.epoch();
        assert!(e1 > 0);
        let g1 = resident_gen(&mc, 1).unwrap();
        // In-place overwrite must change the generation AND the epoch.
        insert(&mut mc, 1, code(2), 0);
        let g2 = resident_gen(&mc, 1).unwrap();
        assert_ne!(g1, g2);
        assert!(mc.epoch() > e1);
        // A lookup moves neither.
        let before = mc.epoch();
        let Lookup::Hit(idx) = mc.lookup(1, 10) else {
            panic!("expected hit")
        };
        assert_eq!(mc.epoch(), before);
        assert_eq!(mc.gen(idx), g2);
        // Eviction bumps the epoch and clears the victim's residency.
        // Inserts tick the LRU clock too, so 1 (last touched by the lookup
        // above, before 2's insert) is the LRU victim.
        insert(&mut mc, 2, code(1), 0);
        insert(&mut mc, 3, code(1), 0); // capacity 2: evicts LRU (1)
        assert!(mc.epoch() > before);
        assert_eq!(resident_gen(&mc, 1), None);
        // Distinct entries never share a generation.
        assert_ne!(resident_gen(&mc, 2), resident_gen(&mc, 3));
        // Flush bumps the epoch once more.
        let before = mc.epoch();
        mc.flush();
        assert!(mc.epoch() > before);
        assert_eq!(resident_gen(&mc, 2), None);
    }

    #[test]
    fn per_entry_stats_survive_eviction_and_name_the_evictor() {
        let mut mc = Mcache::new(1, 64);
        assert_eq!(mc.lookup(1, 0), Lookup::Miss);
        insert(&mut mc, 1, code(3), 0);
        assert!(matches!(mc.lookup(1, 10), Lookup::Hit(_)));
        insert(&mut mc, 2, code(2), 0); // evicts 1
        assert_eq!(mc.lookup(1, 20), Lookup::Miss);
        let one = &mc.entry_stats()[&1];
        assert_eq!((one.hits, one.misses, one.inserts), (1, 2, 1));
        assert_eq!(one.evictions, 1);
        assert_eq!(one.evicted_by, vec![2]);
        assert_eq!(one.uops, 3);
        let two = &mc.entry_stats()[&2];
        assert_eq!((two.inserts, two.evictions, two.uops), (1, 0, 2));
    }
}
