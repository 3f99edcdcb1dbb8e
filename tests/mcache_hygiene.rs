//! Microcode-cache hygiene across external aborts.
//!
//! The paper's Figure 5 pipeline only commits a translation to the
//! microcode cache when the *whole* region has been observed; an abort —
//! interrupt, context switch — at any earlier point must leave the cache
//! untouched. These tests pin that contract end to end: an abort injected
//! mid-translation leaves no entry for the region, a later call to the
//! same region re-translates cleanly, and the results stay gold-correct
//! throughout.

use liquid_simd_repro::conform::gen::LegalSpec;
use liquid_simd_repro::conform::oracle::saw_injected_abort;
use liquid_simd_repro::facade::{build_liquid, gold, verify_against_gold, Machine, MachineConfig};

/// The sweep-sat workload with two driver reps: the region is called
/// twice, so an abort on the first call leaves a second call to observe
/// the retry.
fn two_rep_workload() -> liquid_simd_repro::facade::Workload {
    let spec = LegalSpec {
        reps: 2,
        ..LegalSpec::sweep_sat()
    };
    spec.to_workload().expect("sweep spec builds")
}

#[test]
fn external_abort_leaves_no_partial_entry_and_retry_translates() {
    let w = two_rep_workload();
    let gold_env = gold::run_gold(&w).expect("gold");
    let build = build_liquid(&w).expect("build");

    // Clean run: learn the first translation window.
    let mut clean = Machine::new(&build.program, MachineConfig::liquid(8));
    let clean_report = clean.run().expect("clean run");
    let window = clean_report
        .windows
        .iter()
        .find(|win| win.completed)
        .expect("the region translates cleanly");
    assert!(window.end_retired > window.begin_retired + 1);

    // Abort mid-window (injection at begin_retired is a no-op: translation
    // begins in the control-flow phase *after* that step's injection
    // point, so the first effective index is begin_retired + 1).
    let mid = (window.begin_retired + 1 + window.end_retired) / 2;
    let mut cfg = MachineConfig::liquid(8);
    cfg.interrupt_at = vec![mid];
    let mut m = Machine::new(&build.program, cfg);
    let report = m.run().expect("injected run");

    assert!(
        saw_injected_abort(&report),
        "the injection must surface as an external abort: {:?}",
        report.translator.aborts
    );
    // First attempt aborted, second call re-translated from scratch.
    assert_eq!(report.translator.attempts, 2, "abort then retry");
    assert_eq!(report.translator.successes, 1, "only the retry commits");
    assert_eq!(
        report.mcache.inserts, 1,
        "exactly one cache insert: no partial entry was ever committed"
    );

    // The window log mirrors the story: one aborted window, one completed.
    assert_eq!(report.windows.len(), 2);
    assert!(!report.windows[0].completed);
    assert_eq!(report.windows[0].end_retired, mid);
    assert!(report.windows[1].completed);

    // And the cache now holds the retry's (complete) entry for the region.
    let entries: Vec<u32> = m.microcode_snapshot().iter().map(|(pc, _)| *pc).collect();
    assert_eq!(entries, vec![window.func_pc]);

    verify_against_gold("post-abort", &build.program, m.memory(), &gold_env)
        .expect("scalar fallback plus retry must stay gold-correct");
}

#[test]
fn single_rep_abort_leaves_the_cache_empty() {
    // With one rep there is no second call: after the abort the cache must
    // hold nothing at all for the region.
    let spec = LegalSpec::sweep_sat();
    let w = spec.to_workload().expect("builds");
    let gold_env = gold::run_gold(&w).expect("gold");
    let build = build_liquid(&w).expect("build");

    let mut clean = Machine::new(&build.program, MachineConfig::liquid(8));
    let clean_report = clean.run().expect("clean run");
    let window = clean_report
        .windows
        .iter()
        .find(|win| win.completed)
        .expect("translates cleanly");

    let mid = (window.begin_retired + 1 + window.end_retired) / 2;
    let mut cfg = MachineConfig::liquid(8);
    cfg.interrupt_at = vec![mid];
    let mut m = Machine::new(&build.program, cfg);
    let report = m.run().expect("injected run");

    assert!(saw_injected_abort(&report));
    assert_eq!(report.translator.successes, 0);
    assert_eq!(report.mcache.inserts, 0, "no partial entry");
    assert!(m.microcode_snapshot().is_empty());
    verify_against_gold("aborted", &build.program, m.memory(), &gold_env)
        .expect("scalar fallback must stay gold-correct");
}

#[test]
fn superblock_blocks_are_invalidated_by_evictions_under_tag_pressure() {
    // The superblock hygiene case: `f0` runs hot (its microcode gets
    // lowered into blocks), a sweep of eight other functions then evicts
    // `f0`'s entry under genuine tag pressure (nine entries, the paper's
    // 8-entry geometry), and `f0` retranslates on its next call. The
    // eviction and the overwrite each bump the mcache epoch, which must
    // drop every lowered block keyed on the dead generations — a stale
    // block would replay the evicted microcode. The whole run is diffed
    // byte-for-byte against the interpreter.
    use liquid_simd_repro::facade::BackendKind;
    use liquid_simd_repro::isa::asm;

    let mut data = String::from(".data\n");
    let mut text = String::from(
        ".text\nmain:\n    mov r5, #0\nphase1:\n    bl.v f0\n    add r5, r5, #1\n\
         \x20   cmp r5, #6\n    blt phase1\n",
    );
    for i in 1..9 {
        text.push_str(&format!("    bl.v f{i}\n"));
    }
    text.push_str(
        "    mov r5, #0\nphase3:\n    bl.v f0\n    add r5, r5, #1\n    cmp r5, #4\n\
         \x20   blt phase3\n    halt\n",
    );
    for i in 0..9 {
        let vals: Vec<String> = (0..16).map(|x| (x * 5 + i * 7).to_string()).collect();
        data.push_str(&format!(
            ".i32 A{i}: {}\n.zero B{i}: 16 x 4\n",
            vals.join(", ")
        ));
        text.push_str(&format!(
            "\nf{i}:\n    mov r0, #0\nt{i}:\n    ldw r2, [A{i} + r0]\n    add r2, r2, #{}\n\
             \x20   stw [B{i} + r0], r2\n    add r0, r0, #1\n    cmp r0, #16\n    blt t{i}\n    ret\n",
            i + 1
        ));
    }
    let program = asm::assemble(&format!("{data}\n{text}")).expect("assembles");

    let mut interp = Machine::new(
        &program,
        MachineConfig::liquid(8).with_backend(BackendKind::Interp),
    );
    let interp_report = interp.run().expect("interp run");
    let mut sb = Machine::new(
        &program,
        MachineConfig::liquid(8).with_backend(BackendKind::Superblock),
    );
    let sb_report = sb.run().expect("superblock run");

    // The story happened, identically on both backends: nine functions
    // translated, f0 evicted by the sweep and translated a second time.
    assert_eq!(interp_report.translator.successes, 10, "9 + f0's retry");
    assert!(interp_report.mcache.evictions > 0, "no tag pressure");
    assert_eq!(interp_report.mcache, sb_report.mcache);
    assert_eq!(
        interp_report.translator.successes,
        sb_report.translator.successes
    );

    // The hygiene contract: f0's microcode ran hot enough to be lowered,
    // and the eviction dropped those blocks instead of replaying them.
    assert!(sb_report.blocks.lowered > 0, "nothing was lowered");
    assert!(
        sb_report.blocks.invalidations > 0,
        "evictions must invalidate dependent lowered blocks: {:?}",
        sb_report.blocks
    );

    // Byte-for-byte: cycles, registers, the whole memory image.
    assert_eq!(interp_report.cycles, sb_report.cycles);
    assert_eq!(interp.regs().r, sb.regs().r);
    let (base, len) = (interp.memory().base(), interp.memory().size());
    assert_eq!(
        interp.memory().slice(base, len).ok(),
        sb.memory().slice(base, len).ok(),
        "memory images diverged"
    );
}

#[test]
fn every_injection_index_is_clean_on_the_sweep_workloads() {
    // The full exhaustive sweep (every retire index of every window) on
    // both standard workloads — the in-tree version of `liquid-simd
    // conform`'s abort_sweep section.
    for outcome in liquid_simd_repro::conform::abort::run_standard_sweeps(8) {
        assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
        assert!(outcome.points > 0, "{} swept nothing", outcome.name);
    }
}
