//! The differential oracle: every case runs through every pipeline and
//! the results are compared.
//!
//! For a **legal** case the oracle closes the paper's conformance
//! triangle: the gold evaluator, the plain scalar binary, the untranslated
//! Liquid binary, the dynamically translated Liquid binary at every
//! supported width, and the native SIMD binary at every width must agree.
//! On top of the per-array gold check, the final memory image and the
//! driver's live-out registers (`r0`, `r1`, `r14`) of the translated run
//! are diffed byte-for-byte against the untranslated scalar run — the
//! transparency contract of §3: translation must be observationally
//! invisible. (A sole exception: an `f32` *reduction* cell is compared
//! with the verifier's relative tolerance, because vector reduction
//! reassociates — exactly as the paper's SIMD hardware does.)
//!
//! For an **illegal** case the oracle asserts the translator *never*
//! commits microcode (zero successes at every width), aborts at least
//! once with the family's tag, and that execution stays bit-identical to
//! a translator-less scalar machine — abort, never mistranslate.

use liquid_simd::{
    build_liquid, build_native, build_plain, gold, verify_against_gold, BackendKind, Machine,
    MachineConfig, RunReport, SimError, F32_RTOL,
};
use liquid_simd_isa::{asm, ElemType, Program, SUPPORTED_WIDTHS};
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
    /// Case family: `"legal"` for random legal cases, the illegal
    /// family keyword (`strided`, `cam-miss`, …) for illegal cases,
    /// or the kernelgen family name for generated variants.
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

/// Runs a program and also captures final memory and the scalar register
/// file (the facade's `run` drops the machine, losing the registers).
///
/// # Errors
///
/// Returns [`SimError`] for simulation faults.
pub fn run_full(
    program: &Program,
    config: MachineConfig,
) -> Result<(RunReport, Memory, [u32; 16]), SimError> {
    let mut m = Machine::new(program, config);
    let report = m.run()?;
    let regs = m.regs().r;
    Ok((report, m.memory().clone(), regs))
}

/// [`run_full`] on the interpreter: the reference run every other
/// pipeline and the superblock backend are diffed against. Reference runs
/// never take the default backend (the superblock), or the backend column
/// would compare the superblock with itself.
///
/// # Errors
///
/// Returns [`SimError`] for simulation faults.
pub fn run_reference(
    program: &Program,
    config: MachineConfig,
) -> Result<(RunReport, Memory, [u32; 16]), SimError> {
    run_full(program, config.with_backend(BackendKind::Interp))
}

fn f32_close(a: f32, b: f32) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= F32_RTOL * scale
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

/// Re-runs `program` with the same configuration on the superblock
/// backend and requires bit-exact agreement with the interpreter run that
/// produced `interp`: the simulated cycle count, the final memory image,
/// and the full register file. Pre-lowered dispatch is an implementation
/// detail of the simulator — any observable difference is a backend bug,
/// so there is no tolerance here (not even the f32-reduction allowance;
/// identical configs must reassociate identically).
fn diff_backend(
    what: &str,
    program: &Program,
    config: MachineConfig,
    interp: (&RunReport, &Memory, &[u32; 16]),
) -> Option<String> {
    let sb = config.with_backend(BackendKind::Superblock);
    let (report, mem, regs) = match run_full(program, sb) {
        Ok(v) => v,
        Err(e) => return Some(format!("{what} superblock run: {e}")),
    };
    if report.cycles != interp.0.cycles {
        return Some(format!(
            "{what}: superblock simulated {} cycles, interpreter {}",
            report.cycles, interp.0.cycles
        ));
    }
    if let Some(d) = diff_memory(interp.1, &mem, &[]) {
        return Some(format!("{what} superblock vs interpreter: {d}"));
    }
    if &regs != interp.2 {
        let r = (0..16).find(|&r| regs[r] != interp.2[r]).unwrap_or(0);
        return Some(format!(
            "{what} superblock vs interpreter: r{r} differs ({:#x} vs {:#x})",
            regs[r], interp.2[r]
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
/// conformance triangle (gold / plain / liquid scalar / translated at
/// every width / native) plus backend and live-out diffing. This is
/// the oracle core shared by random legal cases and by generated
/// kernelgen variants.
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
    let gold_env = match gold::run_gold(w) {
        Ok(env) => env,
        Err(e) => return fail(name, kind, format!("gold evaluation failed: {e}")),
    };

    macro_rules! try_or_fail {
        ($expr:expr, $what:literal) => {
            match $expr {
                Ok(v) => v,
                Err(e) => return fail(name, kind, format!(concat!($what, ": {}"), e)),
            }
        };
    }

    let plain = try_or_fail!(build_plain(w), "plain build");
    let (plain_report, mem, plain_regs) = try_or_fail!(
        run_reference(&plain.program, MachineConfig::scalar_only()),
        "plain run"
    );
    try_or_fail!(
        verify_against_gold("plain/scalar", &plain.program, &mem, &gold_env),
        "plain vs gold"
    );
    if let Some(d) = diff_backend(
        "plain/scalar",
        &plain.program,
        MachineConfig::scalar_only(),
        (&plain_report, &mem, &plain_regs),
    ) {
        return fail(name, kind, d);
    }

    let liquid = try_or_fail!(build_liquid(w), "liquid build");
    let (scalar_report, scalar_mem, scalar_regs) = try_or_fail!(
        run_reference(&liquid.program, MachineConfig::scalar_only()),
        "liquid scalar run"
    );
    try_or_fail!(
        verify_against_gold("liquid/scalar", &liquid.program, &scalar_mem, &gold_env),
        "liquid scalar vs gold"
    );
    if let Some(d) = diff_backend(
        "liquid/scalar",
        &liquid.program,
        MachineConfig::scalar_only(),
        (&scalar_report, &scalar_mem, &scalar_regs),
    ) {
        return fail(name, kind, d);
    }

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

    let mut translated = false;
    let mut abort_tags: Vec<String> = Vec::new();
    for &width in &SUPPORTED_WIDTHS {
        let (report, t_mem, t_regs) = try_or_fail!(
            run_reference(&liquid.program, MachineConfig::liquid(width)),
            "liquid translated run"
        );
        translated |= report.translator.successes > 0;
        for tag in report.translator.aborts.keys() {
            if !abort_tags.iter().any(|t| t == tag) {
                abort_tags.push((*tag).to_string());
            }
        }
        try_or_fail!(
            verify_against_gold(
                &format!("liquid/translated@{width}"),
                &liquid.program,
                &t_mem,
                &gold_env
            ),
            "translated vs gold"
        );
        if let Some(d) = diff_memory(&scalar_mem, &t_mem, &rtol_ranges) {
            return fail(name, kind, format!("translated@{width} vs scalar: {d}"));
        }
        if let Some(d) = diff_live_outs(&scalar_regs, &t_regs) {
            return fail(name, kind, format!("translated@{width} vs scalar: {d}"));
        }
        if let Some(d) = diff_backend(
            &format!("liquid/translated@{width}"),
            &liquid.program,
            MachineConfig::liquid(width),
            (&report, &t_mem, &t_regs),
        ) {
            return fail(name, kind, d);
        }

        let native = try_or_fail!(build_native(w, width), "native build");
        let (_, n_mem, _) = try_or_fail!(
            run_reference(&native.program, MachineConfig::native(width)),
            "native run"
        );
        try_or_fail!(
            verify_against_gold(
                &format!("native@{width}"),
                &native.program,
                &n_mem,
                &gold_env
            ),
            "native vs gold"
        );
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
    let clean = match run_reference(program, MachineConfig::liquid(8)) {
        Ok((report, _, _)) => report,
        Err(e) => return Some(format!("inject-last clean run: {e}")),
    };
    let Some(window) = clean.windows.iter().find(|w| w.completed) else {
        return Some("inject-last case never completed a translation window".to_string());
    };
    let mut cfg = MachineConfig::liquid(8).with_backend(BackendKind::Interp);
    cfg.interrupt_at = vec![window.end_retired];
    let mut m = Machine::new(program, cfg);
    let report = match m.run() {
        Ok(r) => r,
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
    // gold-correct scalar recovery — bit-identically.
    let mut sb_cfg = MachineConfig::liquid(8).with_backend(BackendKind::Superblock);
    sb_cfg.interrupt_at = vec![window.end_retired];
    let mut sb = Machine::new(program, sb_cfg);
    let sb_report = match sb.run() {
        Ok(r) => r,
        Err(e) => return Some(format!("inject-last superblock run: {e}")),
    };
    if !saw_injected_abort(&sb_report) {
        return Some(format!(
            "inject-last superblock at retire {} raised no injected abort: {:?}",
            window.end_retired, sb_report.translator.aborts
        ));
    }
    if sb_report.cycles != report.cycles {
        return Some(format!(
            "inject-last: superblock simulated {} cycles, interpreter {}",
            sb_report.cycles, report.cycles
        ));
    }
    if let Some(d) = diff_memory(m.memory(), sb.memory(), &[]) {
        return Some(format!("inject-last superblock vs interpreter: {d}"));
    }
    if sb.regs().r != m.regs().r {
        return Some("inject-last superblock vs interpreter: register file differs".to_string());
    }
    None
}

/// Checks one illegal case: must abort with the family's tag at some
/// width, commit nothing anywhere, and stay bit-identical to the
/// translator-less machine.
#[must_use]
pub fn check_illegal(spec: &IllegalSpec) -> CaseOutcome {
    let src = spec.to_asm();
    let mut outcome = check_untranslatable(&spec.name, &src, spec.kind.expected_tag());
    outcome.family = spec.kind.family().to_string();
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
    let (ref_mem, ref_regs) = match run_reference(&program, MachineConfig::scalar_only()) {
        Ok((report, mem, regs)) => {
            if !report.halted {
                return fail(name, kind, "reference run did not halt".to_string());
            }
            (mem, regs)
        }
        Err(e) => return fail(name, kind, format!("reference run failed: {e}")),
    };

    let mut tags: Vec<String> = Vec::new();
    for &width in &SUPPORTED_WIDTHS {
        let (report, mem, regs) = match run_reference(&program, MachineConfig::liquid(width)) {
            Ok(v) => v,
            Err(e) => return fail(name, kind, format!("liquid@{width} run failed: {e}")),
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
                format!("liquid@{width} neither translated nor aborted"),
            );
        }
        for tag in report.translator.aborts.keys() {
            if !tags.iter().any(|t| t == tag) {
                tags.push((*tag).to_string());
            }
        }
        // Translation is observational: an aborted region must leave
        // execution bit-identical to the translator-less machine.
        if let Some(d) = diff_memory(&ref_mem, &mem, &[]) {
            return fail(name, kind, format!("liquid@{width} vs scalar-only: {d}"));
        }
        if regs != ref_regs {
            let r = (0..16).find(|&r| regs[r] != ref_regs[r]).unwrap_or(0);
            return fail(
                name,
                kind,
                format!(
                    "liquid@{width} vs scalar-only: r{r} differs ({:#x} vs {:#x})",
                    regs[r], ref_regs[r]
                ),
            );
        }
        // Aborting regions exercise the backend's fallback paths; the
        // superblock run must still be bit-identical to the interpreter.
        if let Some(d) = diff_backend(
            &format!("illegal liquid@{width}"),
            &program,
            MachineConfig::liquid(width),
            (&report, &mem, &regs),
        ) {
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
    use crate::gen::{generate_case, IllegalKind};

    #[test]
    fn reference_runs_use_the_interpreter() {
        // The superblock is the default backend; the backend column only
        // cross-checks it if the reference it is diffed against is not.
        assert_eq!(MachineConfig::liquid(8).backend, BackendKind::Superblock);
        let program = asm::assemble(".text\nmain:\n    mov r0, #1\n    halt\n").unwrap();
        let (report, _, regs) = run_reference(&program, MachineConfig::liquid(8)).unwrap();
        assert_eq!(report.backend, BackendKind::Interp);
        assert_eq!(regs[0], 1);
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
        for kind in IllegalKind::all_canonical() {
            let spec = IllegalSpec {
                name: format!("unit_{}", kind.family()),
                kind,
                data_seed: 42,
            };
            let outcome = check_illegal(&spec);
            assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
            assert!(
                outcome
                    .abort_tags
                    .iter()
                    .any(|t| t == spec.kind.expected_tag()),
                "{}: tags {:?} missing {}",
                outcome.name,
                outcome.abort_tags,
                spec.kind.expected_tag()
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
