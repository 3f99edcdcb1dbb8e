//! The differential oracle: every case runs through every pipeline and
//! the results are compared.
//!
//! For a **legal** case the oracle closes the paper's conformance
//! triangle: the gold evaluator and every run of core's
//! [`check_units`] list — the plain scalar binary, the untranslated
//! Liquid binary, and at every supported width the dynamically translated
//! Liquid binary, the same binary with built-in ISA support and the
//! native SIMD binary — must agree. On top of the per-array gold check,
//! the final memory image and the driver's live-out registers (`r0`,
//! `r1`, `r14`) of every translated run are diffed byte-for-byte against
//! the untranslated scalar run — the transparency contract of §3:
//! translation must be observationally invisible. (A sole exception: an
//! `f32` *reduction* cell is compared with the verifier's relative
//! tolerance, because vector reduction reassociates — exactly as the
//! paper's SIMD hardware does.)
//!
//! For an **illegal** case the oracle asserts the translator *never*
//! commits microcode (zero successes at every width), aborts at least
//! once with its idiom's tag, and that execution stays bit-identical to
//! a translator-less scalar machine — abort, never mistranslate.

use liquid_simd::{
    check_units, f32_close, simulate, verify_against_gold, BackendKind, Binary, BuildCache,
    Machine, MachineConfig, RunReport, SimError, Unit,
};
use liquid_simd_isa::{asm, ElemType, Inst, Program, SUPPORTED_WIDTHS};
use liquid_simd_kernelgen::emit_region;
use liquid_simd_mem::Memory;

use crate::gen::{CaseSpec, IllegalSpec, LegalSpec};

/// `true` if the run's translator stats record an external abort with the
/// injection machinery's `"injected-abort"` cause. External aborts all
/// share the `external` statistics tag, so the cause string in the
/// provenance records is what distinguishes an injected abort from, say,
/// a periodic interrupt.
#[must_use]
pub fn saw_injected_abort(report: &RunReport) -> bool {
    use liquid_simd::translator::AbortReason;
    report.translator.abort_records.iter().any(|r| {
        matches!(
            r.reason,
            AbortReason::External {
                what: "injected-abort"
            }
        )
    })
}

/// Registers the driver owns at `halt`: the scratch index (`r0`), the rep
/// counter (`r1`), and the link register (`r14`). Registers written inside
/// an outlined body are dead after the call and are *not* architectural
/// outputs — translated microcode only maintains the induction variable
/// (the paper's rule 10), so only driver-owned registers are comparable.
pub const LIVE_OUT_REGS: [usize; 3] = [0, 1, 14];

/// The verdict on one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Case name.
    pub name: String,
    /// `"legal"` or `"illegal"`.
    pub kind: &'static str,
    /// Case family: `"legal"` for random legal cases, the idiom
    /// keyword (`strided`, `gather`, …) for illegal cases, or the
    /// kernelgen family name for generated variants.
    pub family: String,
    /// Whether every check passed.
    pub passed: bool,
    /// Legal: at least one width actually committed a translation.
    /// Illegal: every width aborted without committing.
    pub translated: bool,
    /// Every distinct translator abort tag observed across all widths
    /// (sorted). Feeds the `abort_coverage` report section.
    pub abort_tags: Vec<String>,
    /// First failing check, empty when passed.
    pub detail: String,
}

fn fail(name: &str, kind: &'static str, detail: String) -> CaseOutcome {
    CaseOutcome {
        name: name.to_string(),
        kind,
        family: String::new(),
        passed: false,
        translated: false,
        abort_tags: Vec::new(),
        detail,
    }
}

/// [`simulate`] on the interpreter: the reference run every other
/// pipeline and the superblock backend are diffed against. Reference runs
/// never take the default backend (the superblock), or the backend column
/// would compare the superblock with itself.
///
/// # Errors
///
/// Returns [`SimError`] for simulation faults.
pub fn run_reference<'p>(
    program: &'p Program,
    config: MachineConfig,
    microcode: &[(u32, Vec<Inst>)],
) -> Result<(RunReport, Machine<'p>), SimError> {
    simulate(program, config.with_backend(BackendKind::Interp), microcode)
}

/// Byte-for-byte memory diff, with an allowance list of `(addr, len)`
/// ranges holding `f32` cells that may differ within tolerance (reduction
/// outputs). Returns the first difference as text.
fn diff_memory(a: &Memory, b: &Memory, rtol_ranges: &[(u32, u32)]) -> Option<String> {
    let base = a.base();
    let len = a.size().min(b.size());
    let abytes = a.slice(base, len).ok()?;
    let bbytes = b.slice(base, len).ok()?;
    let mut i = 0;
    while i < len {
        if abytes[i] != bbytes[i] {
            let addr = base + i as u32;
            if let Some(&(start, _)) = rtol_ranges
                .iter()
                .find(|&&(start, rlen)| addr >= start && addr < start + rlen)
            {
                // Compare the whole aligned f32 cell with tolerance.
                let off = (start - base) as usize;
                let fa = f32::from_bits(u32::from_le_bytes(
                    abytes[off..off + 4].try_into().expect("4-byte cell"),
                ));
                let fb = f32::from_bits(u32::from_le_bytes(
                    bbytes[off..off + 4].try_into().expect("4-byte cell"),
                ));
                if f32_close(fa, fb) {
                    i = off + 4;
                    continue;
                }
                return Some(format!(
                    "f32 cell at {addr:#010x} differs beyond tolerance: {fa} vs {fb}"
                ));
            }
            return Some(format!(
                "memory byte at {addr:#010x} differs: {:#04x} vs {:#04x}",
                abytes[i], bbytes[i]
            ));
        }
        i += 1;
    }
    None
}

/// Re-runs `program` with the same configuration and resident
/// `microcode` on the superblock backend and requires bit-exact agreement
/// with the interpreter run that produced `interp`: the simulated cycle
/// count, the translator's statistics (every abort with its cause), the
/// final memory image, and the full register file. Pre-lowered
/// dispatch is an implementation detail of the simulator — any observable
/// difference is a backend bug, so there is no tolerance here (not even
/// the f32-reduction allowance; identical configs must reassociate
/// identically).
fn diff_backend(
    what: &str,
    program: &Program,
    config: MachineConfig,
    microcode: &[(u32, Vec<Inst>)],
    interp: (&RunReport, &Machine),
) -> Option<String> {
    let sb = config.with_backend(BackendKind::Superblock);
    let (report, m) = match simulate(program, sb, microcode) {
        Ok(v) => v,
        Err(e) => return Some(format!("{what} superblock run: {e}")),
    };
    if report.cycles != interp.0.cycles {
        return Some(format!(
            "{what}: superblock simulated {} cycles, interpreter {}",
            report.cycles, interp.0.cycles
        ));
    }
    if report.translator != interp.0.translator {
        return Some(format!(
            "{what}: superblock translator stats differ from the interpreter's"
        ));
    }
    if let Some(d) = diff_memory(interp.1.memory(), m.memory(), &[]) {
        return Some(format!("{what} superblock vs interpreter: {d}"));
    }
    let (regs, interp_regs) = (m.regs().r, interp.1.regs().r);
    if regs != interp_regs {
        let r = (0..16).find(|&r| regs[r] != interp_regs[r]).unwrap_or(0);
        return Some(format!(
            "{what} superblock vs interpreter: r{r} differs ({:#x} vs {:#x})",
            regs[r], interp_regs[r]
        ));
    }
    None
}

fn diff_live_outs(a: &[u32; 16], b: &[u32; 16]) -> Option<String> {
    LIVE_OUT_REGS.iter().find_map(|&r| {
        (a[r] != b[r]).then(|| format!("live-out r{r} differs: {:#x} vs {:#x}", a[r], b[r]))
    })
}

/// Checks one legal case. Returns a failing outcome instead of panicking,
/// so a fuzz sweep reports every broken case.
#[must_use]
pub fn check_legal(spec: &LegalSpec) -> CaseOutcome {
    let name = spec.name.clone();
    let w = match spec.to_workload() {
        Ok(w) => w,
        Err(e) => return fail(&name, "legal", format!("spec does not build: {e}")),
    };
    let f32_racc_rtol = spec.elem == ElemType::F32 && spec.reduce.is_some();
    let mut outcome = check_workload(&name, &w, f32_racc_rtol, spec.inject_last);
    outcome.family = "legal".to_string();
    outcome
}

/// The full legal-side differential check for any workload — the
/// conformance triangle (gold and every unit of [`check_units`], each a
/// reference run checked against gold) plus backend and live-out diffing.
/// Builds and gold come from a one-workload [`BuildCache`]. This is the
/// oracle core shared by random legal cases and by generated kernelgen
/// variants.
///
/// `f32_racc_rtol` widens the comparison of the `racc` reduction cell
/// to the verifier's f32 tolerance (vector reductions reassociate).
#[must_use]
pub fn check_workload(
    name: &str,
    w: &liquid_simd::Workload,
    f32_racc_rtol: bool,
    inject_last: bool,
) -> CaseOutcome {
    let kind = "legal";
    let cache = BuildCache::new(std::slice::from_ref(w));
    let gold_env = match cache.gold(0) {
        Ok(env) => env,
        Err(e) => return fail(name, kind, format!("gold evaluation failed: {e}")),
    };
    let liquid = match cache.build(0, Binary::Liquid) {
        Ok(b) => b,
        Err(e) => return fail(name, kind, format!("liquid build: {e}")),
    };

    // Reduction cells of f32 kernels legitimately differ between scalar
    // and vector order; everything else must be byte-identical.
    let rtol_ranges: Vec<(u32, u32)> = if f32_racc_rtol {
        liquid
            .program
            .symbol_by_name("racc")
            .map(|(_, sym)| (sym.addr, sym.size))
            .into_iter()
            .collect()
    } else {
        Vec::new()
    };

    // The untranslated liquid run's memory and registers, which every
    // translated run must reproduce, and the microcode of the last
    // translated run, which the resident run at its width preloads.
    let mut scalar: Option<(Memory, [u32; 16])> = None;
    let mut microcode = Vec::new();
    let mut translated = false;
    let mut abort_tags: Vec<String> = Vec::new();
    for unit in check_units() {
        let (label, config) = (unit.to_string(), unit.config());
        let build = match cache.build(0, unit.binary) {
            Ok(b) => b,
            Err(e) => return fail(name, kind, format!("{label} build: {e}")),
        };
        let program = &build.program;
        let preload: &[_] = if unit.binary == Binary::Resident {
            &microcode
        } else {
            &[]
        };
        let (report, m) = match run_reference(program, config.clone(), preload) {
            Ok(v) => v,
            Err(e) => return fail(name, kind, format!("{label} run: {e}")),
        };
        if let Err(e) = verify_against_gold(&label, program, m.memory(), &gold_env) {
            return fail(name, kind, format!("{label} vs gold: {e}"));
        }
        if let Some(d) = diff_backend(&label, program, config.clone(), preload, (&report, &m)) {
            return fail(name, kind, d);
        }
        translated |= report.translator.successes > 0;
        for tag in report.translator.aborts.keys() {
            if !abort_tags.iter().any(|t| t == tag) {
                abort_tags.push((*tag).to_string());
            }
        }
        match (unit.binary, config.lanes, &scalar) {
            (Binary::Liquid, 0, _) => scalar = Some((m.memory().clone(), m.regs().r)),
            (Binary::Liquid | Binary::Resident, _, Some((mem, regs))) => {
                let diff = diff_memory(mem, m.memory(), &rtol_ranges)
                    .or_else(|| diff_live_outs(regs, &m.regs().r));
                if let Some(d) = diff {
                    return fail(name, kind, format!("{label} vs untranslated: {d}"));
                }
            }
            _ => {}
        }
        if unit.binary == Binary::Liquid {
            microcode = m.microcode_snapshot();
        }
    }

    if inject_last {
        if let Some(detail) = check_inject_last(&liquid.program, &gold_env) {
            return fail(name, kind, detail);
        }
    }

    abort_tags.sort_unstable();
    CaseOutcome {
        name: name.to_string(),
        kind,
        family: String::new(),
        passed: true,
        translated,
        abort_tags,
        detail: String::new(),
    }
}

/// The abort-at-last-instruction regression check: inject an external
/// abort exactly at the final retired instruction of the first translation
/// window and require a gold-correct run with the abort accounted.
fn check_inject_last(program: &Program, gold_env: &liquid_simd::DataEnv) -> Option<String> {
    let clean = match run_reference(program, MachineConfig::liquid(8), &[]) {
        Ok((report, _)) => report,
        Err(e) => return Some(format!("inject-last clean run: {e}")),
    };
    let Some(window) = clean.windows.iter().find(|w| w.completed) else {
        return Some("inject-last case never completed a translation window".to_string());
    };
    let mut cfg = MachineConfig::liquid(8);
    cfg.interrupt_at = vec![window.end_retired];
    let (report, m) = match run_reference(program, cfg.clone(), &[]) {
        Ok(v) => v,
        Err(e) => return Some(format!("inject-last run: {e}")),
    };
    if !saw_injected_abort(&report) {
        return Some(format!(
            "inject-last at retire {} raised no injected abort: {:?}",
            window.end_retired, report.translator.aborts
        ));
    }
    if let Err(e) = verify_against_gold("inject-last", program, m.memory(), gold_env) {
        return Some(format!("inject-last vs gold: {e}"));
    }

    // The same injection on the superblock backend: interrupt injection
    // single-steps, so the backend must reach the interpreter's
    // gold-correct scalar recovery, injected abort included —
    // bit-identically.
    diff_backend("inject-last", program, cfg, &[], (&report, &m))
}

/// Checks one illegal case: must abort with its idiom's tag at some
/// width, commit nothing anywhere, and stay bit-identical to the
/// translator-less machine.
#[must_use]
pub fn check_illegal(spec: &IllegalSpec) -> CaseOutcome {
    let mut outcome = match emit_region(spec.idiom, spec.trip, spec.data_seed) {
        Ok((src, tag)) => check_untranslatable(&spec.name, &src, tag),
        Err(e) => fail(
            &spec.name,
            "illegal",
            format!("illegal case does not emit: {e}"),
        ),
    };
    outcome.family = spec.idiom.keyword().to_string();
    outcome
}

/// The abort-never-mistranslate check for any assembly region — the
/// oracle core shared by illegal conform cases and by generated
/// untranslatable kernelgen variants. The region must abort with
/// `expected_tag` at some width, commit nothing anywhere, and stay
/// bit-identical to the translator-less machine.
#[must_use]
pub fn check_untranslatable(name: &str, src: &str, expected_tag: &str) -> CaseOutcome {
    let kind = "illegal";
    let program = match asm::assemble(src) {
        Ok(p) => p,
        Err(e) => return fail(name, kind, format!("illegal case does not assemble: {e}")),
    };
    let reference = match run_reference(&program, MachineConfig::scalar_only(), &[]) {
        Ok((report, m)) => {
            if !report.halted {
                return fail(name, kind, "reference run did not halt".to_string());
            }
            m
        }
        Err(e) => return fail(name, kind, format!("reference run failed: {e}")),
    };
    let (ref_mem, ref_regs) = (reference.memory(), reference.regs().r);

    let mut tags: Vec<String> = Vec::new();
    for &width in &SUPPORTED_WIDTHS {
        let config = MachineConfig::liquid(width);
        let label = Unit::new(Binary::Liquid, &config).to_string();
        let (report, m) = match run_reference(&program, config.clone(), &[]) {
            Ok(v) => v,
            Err(e) => return fail(name, kind, format!("{label} run failed: {e}")),
        };
        if report.translator.successes > 0 {
            return fail(
                name,
                kind,
                format!(
                    "MISTRANSLATION: illegal region committed microcode at width {width} \
                     (expected abort `{expected_tag}`)"
                ),
            );
        }
        if report.translator.aborted() == 0 {
            return fail(
                name,
                kind,
                format!("{label} neither translated nor aborted"),
            );
        }
        for tag in report.translator.aborts.keys() {
            if !tags.iter().any(|t| t == tag) {
                tags.push((*tag).to_string());
            }
        }
        // Translation is observational: an aborted region must leave
        // execution bit-identical to the translator-less machine.
        if let Some(d) = diff_memory(ref_mem, m.memory(), &[]) {
            return fail(name, kind, format!("{label} vs scalar-only: {d}"));
        }
        let regs = m.regs().r;
        if regs != ref_regs {
            let r = (0..16).find(|&r| regs[r] != ref_regs[r]).unwrap_or(0);
            return fail(
                name,
                kind,
                format!(
                    "{label} vs scalar-only: r{r} differs ({:#x} vs {:#x})",
                    regs[r], ref_regs[r]
                ),
            );
        }
        // Aborting regions exercise the backend's fallback paths; the
        // superblock run must still be bit-identical to the interpreter.
        if let Some(d) = diff_backend(&label, &program, config, &[], (&report, &m)) {
            return fail(name, kind, d);
        }
    }

    if !tags.iter().any(|t| t == expected_tag) {
        return fail(
            name,
            kind,
            format!("expected abort tag `{expected_tag}` at some width, saw {tags:?}"),
        );
    }

    tags.sort_unstable();
    CaseOutcome {
        name: name.to_string(),
        kind,
        family: String::new(),
        passed: true,
        translated: true,
        abort_tags: tags,
        detail: String::new(),
    }
}

/// Checks any case.
#[must_use]
pub fn check_case(spec: &CaseSpec) -> CaseOutcome {
    match spec {
        CaseSpec::Legal(s) => check_legal(s),
        CaseSpec::Illegal(s) => check_illegal(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{coverage_specs, generate_case};

    #[test]
    fn reference_runs_use_the_interpreter() {
        // The superblock is the default backend; the backend column only
        // cross-checks it if the reference it is diffed against is not.
        assert_eq!(MachineConfig::liquid(8).backend, BackendKind::Superblock);
        let program = asm::assemble(".text\nmain:\n    mov r0, #1\n    halt\n").unwrap();
        let (report, m) = run_reference(&program, MachineConfig::liquid(8), &[]).unwrap();
        assert_eq!(report.backend, BackendKind::Interp);
        assert_eq!(m.regs().r[0], 1);
    }

    #[test]
    fn a_handful_of_generated_cases_pass() {
        for i in 0..6 {
            let spec = generate_case(0xC0FFEE, i);
            let outcome = check_case(&spec);
            assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
        }
    }

    #[test]
    fn every_illegal_family_aborts_and_matches_scalar() {
        for canonical in coverage_specs() {
            let spec = IllegalSpec {
                name: format!("unit_{}", canonical.idiom.keyword()),
                data_seed: 42,
                ..canonical
            };
            let tag = spec.idiom.expected_abort().unwrap();
            let outcome = check_illegal(&spec);
            assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
            assert!(
                outcome.abort_tags.iter().any(|t| t == tag),
                "{}: tags {:?} missing {}",
                outcome.name,
                outcome.abort_tags,
                tag
            );
        }
    }

    #[test]
    fn memory_diff_reports_and_tolerates() {
        let mut a = Memory::new(0x100, 16);
        let mut b = Memory::new(0x100, 16);
        assert!(diff_memory(&a, &b, &[]).is_none());
        a.write_f32(0x104, 1.0000).unwrap();
        b.write_f32(0x104, 1.0001).unwrap();
        assert!(diff_memory(&a, &b, &[]).is_some());
        assert!(diff_memory(&a, &b, &[(0x104, 4)]).is_none());
        b.write_f32(0x104, 2.0).unwrap();
        assert!(diff_memory(&a, &b, &[(0x104, 4)]).is_some());
    }
}
