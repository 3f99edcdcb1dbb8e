//! Machine configuration.

use liquid_simd_mem::CacheConfig;
use liquid_simd_trace::Tracer;

/// Functional-unit and structural latencies, in cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Simple integer ALU result latency.
    pub int_alu: u32,
    /// Integer multiply result latency.
    pub int_mul: u32,
    /// FP add/sub/min/max result latency.
    pub fp_alu: u32,
    /// FP multiply result latency.
    pub fp_mul: u32,
    /// FP divide result latency.
    pub fp_div: u32,
    /// Load-to-use latency on a D-cache hit.
    pub load: u32,
    /// Pipeline refill cycles charged for every taken branch (the
    /// ARM-926EJ-S has no branch predictor).
    pub branch_taken: u32,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            int_alu: 1,
            int_mul: 3,
            fp_alu: 3,
            fp_mul: 4,
            fp_div: 15,
            load: 1,
            branch_taken: 2,
        }
    }
}

/// Dynamic-translation behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationConfig {
    /// Whether the dynamic translator is present.
    pub enabled: bool,
    /// Hardware translation throughput: cycles charged per observed scalar
    /// instruction before the microcode-cache entry becomes usable. The
    /// paper assumes 1 and shows "tens of cycles" would also be fine
    /// (Table 6 discussion) — sweepable for the latency ablation.
    pub cycles_per_instr: u64,
    /// Software-JIT mode: translation work *stalls the pipeline* (a JIT
    /// shares the CPU, §2) instead of running off the critical path.
    pub jit: bool,
    /// Cycles per observed instruction in JIT mode.
    pub jit_cycles_per_instr: u64,
    /// Also attempt translation of plain `bl` calls (no `bl.v` marker) —
    /// the false-positive-tolerant mode of §3.5.
    pub translate_plain_bl: bool,
    /// Hardware register-state value-field width (forwarded to the
    /// translator; see `TranslatorConfig::value_bits`).
    pub value_bits: u32,
    /// Enforce the value-field width (hardware) or not (JIT).
    pub hw_value_limit: bool,
}

impl Default for TranslationConfig {
    fn default() -> TranslationConfig {
        TranslationConfig {
            enabled: true,
            cycles_per_instr: 1,
            jit: false,
            jit_cycles_per_instr: 40,
            translate_plain_bl: false,
            value_bits: 12,
            hw_value_limit: true,
        }
    }
}

/// Which execution engine drives the machine's fetch/issue/exec/retire
/// loop. Backends are *implementation strategies*, not architecture: every
/// backend must produce bit-identical architectural state, reports, and
/// cycle counts (the conformance oracle and the perf sentinel's
/// cross-backend gate both enforce this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The reference interpreter: one `Machine::step` per instruction.
    #[default]
    Interp,
    /// The superblock engine: straight-line instruction runs are pre-lowered
    /// once into threaded-code blocks and replayed from a block cache.
    Superblock,
}

impl BackendKind {
    /// Stable lowercase name (CLI flag values, perfhist record field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Superblock => "superblock",
        }
    }

    /// Parses a CLI flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "interp" | "interpreter" => Some(BackendKind::Interp),
            "superblock" | "sb" => Some(BackendKind::Superblock),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full machine configuration.
///
/// Equality compares the architectural parameters only; the attached
/// [`MachineConfig::tracer`] is an observer and never affects behaviour,
/// so two configs that differ only in tracing compare equal. The same goes
/// for [`MachineConfig::backend`]: it selects an execution strategy that is
/// required to be observationally identical, so it participates in neither
/// equality nor [`MachineConfig::fingerprint`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// SIMD accelerator width in lanes; `0` means no accelerator (vector
    /// instructions fault, translation is pointless).
    pub lanes: usize,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Latencies.
    pub lat: LatencyModel,
    /// Microcode cache entries (8 in the paper).
    pub mcache_entries: usize,
    /// Microcode cache entry capacity in instructions (64 in the paper).
    pub mcache_uops: usize,
    /// Translation behaviour.
    pub translation: TranslationConfig,
    /// Zeroed bytes mapped after the program's data image.
    pub mem_headroom: usize,
    /// Simulation safety stop.
    pub max_cycles: u64,
    /// Raise an external translator abort every this many retired
    /// instructions (simulated interrupts; `0` disables).
    pub interrupt_every: u64,
    /// Raise an external translator abort when the retired-instruction
    /// count reaches each listed value exactly — deterministic abort-point
    /// injection for the conformance sweep (empty disables). Unlike
    /// [`MachineConfig::interrupt_every`] this targets *one* retire index,
    /// so a sweep can pre-empt a translation at every point of its window.
    pub interrupt_at: Vec<u64>,
    /// Optional event recorder threaded through every component. `None`
    /// (the default) costs one branch per emit site and changes no
    /// simulated timing.
    pub tracer: Option<Tracer>,
    /// Execution engine. Like the tracer, this is excluded from equality
    /// and the fingerprint: backends must be observationally identical.
    pub backend: BackendKind,
}

impl PartialEq for MachineConfig {
    fn eq(&self, other: &MachineConfig) -> bool {
        self.lanes == other.lanes
            && self.icache == other.icache
            && self.dcache == other.dcache
            && self.lat == other.lat
            && self.mcache_entries == other.mcache_entries
            && self.mcache_uops == other.mcache_uops
            && self.translation == other.translation
            && self.mem_headroom == other.mem_headroom
            && self.max_cycles == other.max_cycles
            && self.interrupt_every == other.interrupt_every
            && self.interrupt_at == other.interrupt_at
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            lanes: 8,
            icache: CacheConfig::arm926_16k(),
            dcache: CacheConfig::arm926_16k(),
            lat: LatencyModel::default(),
            mcache_entries: 8,
            mcache_uops: 64,
            translation: TranslationConfig::default(),
            mem_headroom: 4096,
            max_cycles: 10_000_000_000,
            interrupt_every: 0,
            interrupt_at: Vec::new(),
            tracer: None,
            backend: BackendKind::default(),
        }
    }
}

impl MachineConfig {
    /// The paper's baseline: an ARM-926EJ-S with no SIMD accelerator and no
    /// translator (Figure 6's denominator).
    #[must_use]
    pub fn scalar_only() -> MachineConfig {
        MachineConfig {
            lanes: 0,
            translation: TranslationConfig {
                enabled: false,
                ..TranslationConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    /// A Liquid SIMD machine with a `lanes`-wide accelerator and the
    /// hardware dynamic translator.
    #[must_use]
    pub fn liquid(lanes: usize) -> MachineConfig {
        MachineConfig {
            lanes,
            ..MachineConfig::default()
        }
    }

    /// A machine with a `lanes`-wide accelerator executing *native* SIMD
    /// binaries (no translation needed) — the Figure 6 callout comparator.
    #[must_use]
    pub fn native(lanes: usize) -> MachineConfig {
        MachineConfig {
            lanes,
            translation: TranslationConfig {
                enabled: false,
                ..TranslationConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    /// Attaches a tracer (builder style): the machine and every component
    /// under it will record dynamic events into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> MachineConfig {
        self.tracer = Some(tracer);
        self
    }

    /// Selects the execution backend (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> MachineConfig {
        self.backend = backend;
        self
    }

    /// A stable FNV-1a hash of the architectural parameters — everything
    /// [`PartialEq`] compares, nothing it ignores (the tracer). Two configs
    /// compare equal iff they fingerprint equal, so performance-history
    /// records keyed by this hash are only ever compared like-for-like.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.lanes as u64);
        for c in [&self.icache, &self.dcache] {
            mix(u64::from(c.size_bytes));
            mix(u64::from(c.ways));
            mix(u64::from(c.line_bytes));
            mix(u64::from(c.miss_penalty));
        }
        for l in [
            self.lat.int_alu,
            self.lat.int_mul,
            self.lat.fp_alu,
            self.lat.fp_mul,
            self.lat.fp_div,
            self.lat.load,
            self.lat.branch_taken,
        ] {
            mix(u64::from(l));
        }
        mix(self.mcache_entries as u64);
        mix(self.mcache_uops as u64);
        mix(u64::from(self.translation.enabled));
        mix(self.translation.cycles_per_instr);
        mix(u64::from(self.translation.jit));
        mix(self.translation.jit_cycles_per_instr);
        mix(u64::from(self.translation.translate_plain_bl));
        mix(u64::from(self.translation.value_bits));
        mix(u64::from(self.translation.hw_value_limit));
        mix(self.mem_headroom as u64);
        mix(self.max_cycles);
        mix(self.interrupt_every);
        mix(self.interrupt_at.len() as u64);
        for &at in &self.interrupt_at {
            mix(at);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let s = MachineConfig::scalar_only();
        assert_eq!(s.lanes, 0);
        assert!(!s.translation.enabled);
        let l = MachineConfig::liquid(16);
        assert_eq!(l.lanes, 16);
        assert!(l.translation.enabled);
        let n = MachineConfig::native(4);
        assert!(!n.translation.enabled);
        assert_eq!(n.mcache_entries, 8);
    }

    #[test]
    fn fingerprint_tracks_architectural_equality() {
        let a = MachineConfig::liquid(8);
        let b = MachineConfig::liquid(8).with_tracer(Tracer::default());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = MachineConfig::liquid(16);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = MachineConfig::liquid(8);
        d.translation.cycles_per_instr = 2;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn backend_is_observer_like_not_architectural() {
        let a = MachineConfig::liquid(8);
        let b = MachineConfig::liquid(8).with_backend(BackendKind::Superblock);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(BackendKind::parse("interp"), Some(BackendKind::Interp));
        assert_eq!(BackendKind::parse("sb"), Some(BackendKind::Superblock));
        assert_eq!(BackendKind::parse("jet"), None);
        assert_eq!(BackendKind::Superblock.name(), "superblock");
    }
}
