//! The serving caches: compiled programs and finished translations,
//! shared across every request the daemon will ever see.
//!
//! Two layers, by analogy with the paper's hardware:
//!
//! * [`BuildCache`] is the *front end* — workload name (or inline-source
//!   hash) → compiled Liquid program plus its content hash. Compiling a
//!   workload is the expensive per-program step, done once per daemon
//!   lifetime.
//! * [`TranslationCache`] is the service-level *microcode cache* — the
//!   canonical request key (program hash, width, `MachineConfig` hash,
//!   request params; see [`crate::proto::canonical_key`]) → the finished
//!   response body and, for `translate` requests, the translated microcode
//!   itself. A repeat translation costs one map lookup, the way a repeat
//!   region entry costs one CAM hit in hardware.
//!
//! Correctness under concurrency is free because entries are *derived
//! deterministically from their key*: two workers that race on the same
//! miss compute byte-identical entries, so whichever insert wins is
//! indistinguishable. The caches count nothing themselves: the daemon
//! tallies each request's hit or miss where it answers the request (see
//! `record::Tally`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use liquid_simd_isa::{object, Inst, Program};

use crate::fnv1a;
use crate::ops::OpOutput;

/// A compiled program plus its identity hash (FNV-1a over the object-file
/// bytes for workloads, over the source text for inline programs).
#[derive(Debug)]
pub struct ProgramEntry {
    /// The compiled program.
    pub program: Program,
    /// Content hash — the shard-assignment and cache-key ingredient.
    pub hash: u64,
    /// Canonical display name (workload name as defined by the suite).
    pub name: String,
}

/// Cross-request compiled-program cache.
#[derive(Default)]
pub struct BuildCache {
    entries: Mutex<HashMap<String, Arc<ProgramEntry>>>,
}

impl BuildCache {
    /// Returns the cached build of `workload` (case-insensitive name),
    /// compiling it on first use. Racing callers may both compile; the
    /// first insert wins and the builds are identical.
    ///
    /// # Errors
    ///
    /// Returns the resolver/compiler message for unknown names or broken
    /// builds.
    pub fn workload(&self, name: &str) -> Result<Arc<ProgramEntry>, String> {
        let key = format!("workload:{}", name.to_ascii_lowercase());
        if let Some(hit) = self.entries.lock().expect("build cache poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let w = crate::ops::resolve_workload(name)?;
        let canonical = w.name.clone();
        let b = liquid_simd::build_liquid(&w).map_err(|e| format!("{canonical}: {e}"))?;
        let bytes = object::write(&b.program).map_err(|e| e.to_string())?;
        let entry = Arc::new(ProgramEntry {
            program: b.program,
            hash: fnv1a(&bytes),
            name: canonical,
        });
        let mut map = self.entries.lock().expect("build cache poisoned");
        Ok(Arc::clone(map.entry(key).or_insert(entry)))
    }

    /// Returns the cached assembly of inline `source`, assembling on first
    /// use. The identity hash is over the source text, so repeat inline
    /// submissions of the same program hit without re-assembling.
    ///
    /// # Errors
    ///
    /// Returns the assembler's message.
    pub fn inline(&self, source: &str, name: Option<&str>) -> Result<Arc<ProgramEntry>, String> {
        let hash = fnv1a(source.as_bytes());
        let key = format!("inline:{hash:016x}");
        if let Some(hit) = self.entries.lock().expect("build cache poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let program = crate::ops::assemble_inline(source)?;
        let entry = Arc::new(ProgramEntry {
            program,
            hash,
            name: name.unwrap_or("<inline>").to_string(),
        });
        let mut map = self.entries.lock().expect("build cache poisoned");
        Ok(Arc::clone(map.entry(key).or_insert(entry)))
    }

    /// Number of cached builds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("build cache poisoned").len()
    }

    /// Whether no builds are cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One finished translation/response, keyed by its canonical request key.
#[derive(Debug)]
pub struct CacheEntry {
    /// The id-less response body (see [`crate::proto::with_id`]).
    pub output: OpOutput,
    /// For `translate` requests: the translated microcode blocks, exactly
    /// as [`Machine::microcode_snapshot`](liquid_simd::Machine) returned
    /// them — the cached microcode a future execution layer could preload.
    pub microcode: Vec<(u32, Vec<Inst>)>,
}

/// The map plus its FIFO insertion order — one lock covers both so an
/// eviction can never orphan an order entry.
#[derive(Default)]
struct TranslationInner {
    map: HashMap<String, Arc<CacheEntry>>,
    order: VecDeque<String>,
}

/// The global cross-request translation cache with a monotonic
/// generation stamp (insert count) — the service-level analogue of the
/// simulator's mcache generation, used by the flight recorder to tie each
/// event to the cache state it saw.
#[derive(Default)]
pub struct TranslationCache {
    inner: Mutex<TranslationInner>,
    generation: AtomicU64,
    capacity: AtomicU64,
}

impl TranslationCache {
    /// Creates a cache bounded to `capacity` entries (`0` = unbounded).
    /// When full, an insert evicts the oldest-inserted entry (FIFO) —
    /// responses stay byte-identical because an evicted entry simply
    /// recomputes to the same bytes on its next miss.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> TranslationCache {
        let cache = TranslationCache::default();
        cache.capacity.store(capacity as u64, Ordering::Relaxed);
        cache
    }

    /// The configured entry bound (`0` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Monotonic insert count — every insert bumps it, so an event
    /// stamped with a generation happened-after exactly that many
    /// inserts.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Live entries.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.inner.lock().expect("cache poisoned").map.len() as u64
    }

    /// Looks up `key` without computing.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let inner = self.inner.lock().expect("cache poisoned");
        inner.map.get(key).map(Arc::clone)
    }

    /// Inserts a computed entry (first insert wins under a race),
    /// evicting FIFO when over capacity. Returns the entry that is now
    /// cached, whether *this* call's entry won the insert, and how many
    /// entries this call evicted.
    pub fn insert(&self, key: &str, entry: CacheEntry) -> (Arc<CacheEntry>, bool, u64) {
        let capacity = self.capacity();
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(existing) = inner.map.get(key) {
            return (Arc::clone(existing), false, 0);
        }
        let mut evicted = 0u64;
        if capacity > 0 {
            while inner.map.len() as u64 >= capacity {
                let Some(oldest) = inner.order.pop_front() else {
                    break;
                };
                if inner.map.remove(&oldest).is_some() {
                    evicted += 1;
                }
            }
        }
        let arc = Arc::new(entry);
        inner.map.insert(key.to_string(), Arc::clone(&arc));
        inner.order.push_back(key.to_string());
        self.generation.fetch_add(1, Ordering::Relaxed);
        (arc, true, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cache_hits_by_name_case_insensitively() {
        let cache = BuildCache::default();
        let a = cache.workload("fir").unwrap();
        let b = cache.workload("FIR").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one compile, shared entry");
        assert_eq!(cache.len(), 1);
        assert!(cache.workload("no-such-workload").is_err());
    }

    #[test]
    fn inline_cache_keys_by_source_hash() {
        let cache = BuildCache::default();
        let src = ".text\nmain:\n    halt\n";
        let a = cache.inline(src, None).unwrap();
        let b = cache.inline(src, None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name, "<inline>");
        assert_eq!(a.hash, crate::fnv1a(src.as_bytes()));
    }

    fn entry(cycles: u64) -> CacheEntry {
        CacheEntry {
            output: OpOutput {
                body: "{}".to_string(),
                ok: true,
                cycles,
                kind: String::new(),
                counters: std::collections::BTreeMap::new(),
            },
            microcode: Vec::new(),
        }
    }

    #[test]
    fn translation_cache_counts_hits_and_shares_entries() {
        let cache = TranslationCache::default();
        assert!(cache.lookup("k").is_none(), "a cold lookup misses");
        let (a, inserted, evicted) = cache.insert("k", entry(5));
        assert_eq!((inserted, evicted), (true, 0));
        let b = cache.lookup("k").expect("a warm lookup hits");
        assert!(Arc::ptr_eq(&a, &b));
        // A racing worker's identical entry loses the insert and gets the
        // cached one back.
        let (c, inserted, _) = cache.insert("k", entry(5));
        assert!(!inserted);
        assert!(Arc::ptr_eq(&a, &c));
        cache.insert("k2", entry(5));
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.generation(), 2, "one bump per winning insert");
    }

    #[test]
    fn bounded_cache_evicts_fifo_and_counts() {
        let cache = TranslationCache::with_capacity(2);
        let evicted: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|k| cache.insert(k, entry(0)).2)
            .collect();
        assert_eq!(evicted, [0, 0, 1], "the third insert evicts one entry");
        assert_eq!(cache.entries(), 2, "capacity bound holds");
        assert_eq!(cache.generation(), 3);
        // "a" was inserted first, so it was the FIFO victim.
        assert!(cache.lookup("a").is_none());
        assert!(cache.lookup("c").is_some());
    }
}
