//! The built-in-ISA warm pass stops early: `Machine::harvest_microcode`
//! returns once the resident microcode can no longer change. Its snapshot
//! must equal the one a full run leaves at halt, entry for entry and in
//! order, and `run_pretranslated` must then be exactly a resident run
//! preloaded from the full run's snapshot. Checked at every supported
//! width on both backends for the smoke workloads (every suite workload
//! with `--features fuzz`), and on small programs for each way the
//! stopping condition is reached or missed.

use liquid_simd_repro::facade::{
    build_liquid, run_pretranslated, simulate, BackendKind, Machine, MachineConfig,
};
use liquid_simd_repro::isa::asm::assemble;
use liquid_simd_repro::isa::{Program, SUPPORTED_WIDTHS};
use liquid_simd_repro::workloads;

const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Superblock];

/// Checks the harvest against a full run on `config` and returns the
/// machine the harvest left, so callers can see where it stopped.
fn check<'p>(what: &str, program: &'p Program, config: &MachineConfig) -> Machine<'p> {
    let (_, full) = simulate(program, config.clone(), &[]).expect("full run");
    let expected = full.microcode_snapshot();
    let mut early = Machine::new(program, config.clone());
    let harvested = early.harvest_microcode().expect("harvest");
    assert_eq!(harvested, expected, "{what}: harvested microcode");

    let built_in = run_pretranslated(program, config.clone()).expect("pretranslated run");
    let (report, resident) = simulate(program, config.clone(), &expected).expect("resident run");
    assert_eq!(
        format!("{:?}", built_in.report),
        format!("{report:?}"),
        "{what}: pretranslated report"
    );
    let (base, len) = (built_in.memory.base(), built_in.memory.size());
    assert_eq!(
        built_in.memory.slice(base, len).ok(),
        resident.memory().slice(base, len).ok(),
        "{what}: pretranslated memory"
    );
    early
}

#[test]
fn suite_harvests_equal_full_runs_at_every_width_on_both_backends() {
    let suite = if cfg!(feature = "fuzz") {
        workloads::all()
    } else {
        workloads::smoke()
    };
    for w in suite {
        let build = build_liquid(&w).expect("liquid build");
        for lanes in SUPPORTED_WIDTHS {
            for backend in BACKENDS {
                let what = format!("{}@{lanes} {}", w.name, backend.name());
                let config = MachineConfig::liquid(lanes).with_backend(backend);
                check(&what, &build.program, &config);
            }
        }
    }
}

/// `scale` and `double` are translatable; `r7` is set just before `halt`,
/// so it reads 1 only on a machine that ran to the end. `EXTRA` is spliced
/// in after the loop and `BODY` into the loop.
fn program(body: &str, extra: &str) -> Program {
    let src = format!(
        r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r6, #9
    mov r5, #0
again:
{body}
    add r5, r5, #1
    cmp r5, #6
    blt again
{extra}
    mov r7, #1
    halt
scale:
    mov r0, #0
scale_top:
    ldw r1, [A + r0]
    add r1, r1, r1
    stw [B + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt scale_top
    ret
double:
    mov r0, #0
double_top:
    ldw r1, [B + r0]
    add r1, r1, #3
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt double_top
    ret
nested:
    mov r13, r14
    mov r0, #0
nested_top:
    bl helper
    add r0, r0, #1
    cmp r0, #4
    blt nested_top
    mov r14, r13
    ret
helper:
    ret
"
    );
    assemble(&src).unwrap_or_else(|e| panic!("assembles: {e}"))
}

fn stopped_early(m: &Machine<'_>) -> bool {
    m.regs().r[7] == 0
}

#[test]
fn a_settled_program_stops_before_halt() {
    let p = program("    bl.v scale\n    bl.v double", "");
    for backend in BACKENDS {
        let m = check(
            "settled",
            &p,
            &MachineConfig::liquid(8).with_backend(backend),
        );
        assert!(stopped_early(&m), "{}: ran to halt", backend.name());
        assert_eq!(m.microcode_snapshot().len(), 2);
    }
}

#[test]
fn plain_bl_targets_are_candidates_under_translate_plain_bl() {
    // `bl scale` first runs in the fourth rep: a harvest that missed the
    // plain `bl` target would stop in the first, with `double` alone
    // resident. `helper`, a plain `bl` target inside `nested`, fails
    // translation like `nested` does.
    let p = program(
        "    bl.v double\n    bl.v nested\n    cmp r5, #3\n    blt late\n    bl scale\nlate:",
        "",
    );
    for backend in BACKENDS {
        let mut config = MachineConfig::liquid(8).with_backend(backend);
        config.translation.translate_plain_bl = true;
        let m = check("plain bl", &p, &config);
        assert!(stopped_early(&m), "{}: ran to halt", backend.name());
        assert_eq!(m.microcode_snapshot().len(), 2);
    }
}

#[test]
fn a_candidate_never_called_runs_to_halt() {
    // r5 is 6 after the loop, so the branch skips the `bl.v double`.
    let p = program(
        "    bl.v scale",
        "    cmp r5, #100\n    blt skip\n    bl.v double\nskip:",
    );
    for backend in BACKENDS {
        let m = check(
            "never called",
            &p,
            &MachineConfig::liquid(8).with_backend(backend),
        );
        assert!(!stopped_early(&m), "{}: stopped early", backend.name());
    }
}

#[test]
fn a_permanent_abort_settles_through_the_failed_set() {
    let p = program("    bl.v scale\n    bl.v nested", "");
    for backend in BACKENDS {
        let config = MachineConfig::liquid(8).with_backend(backend);
        let (report, _) = simulate(&p, config.clone(), &[]).unwrap();
        assert!(report.translator.aborted() > 0, "nested call must abort");
        let m = check("permanent abort", &p, &config);
        assert!(stopped_early(&m), "{}: ran to halt", backend.name());
        assert_eq!(m.microcode_snapshot().len(), 1);
    }
}

#[test]
fn more_candidates_than_entries_run_to_halt() {
    let p = program("    bl.v scale\n    bl.v double", "");
    for backend in BACKENDS {
        let mut config = MachineConfig::liquid(8).with_backend(backend);
        config.mcache_entries = 1;
        let m = check("one entry", &p, &config);
        assert!(!stopped_early(&m), "{}: stopped early", backend.name());
    }
}

#[test]
fn no_translation_harvests_nothing_at_once() {
    let p = program("    bl.v scale\n    bl.v double", "");
    for backend in BACKENDS {
        for config in [MachineConfig::native(8), MachineConfig::liquid(0)] {
            let config = config.with_backend(backend);
            let m = check("no translation", &p, &config);
            assert!(m.microcode_snapshot().is_empty());
            assert_eq!(m.regs().r[6], 0, "{}: executed", backend.name());
        }
    }
}

#[test]
fn interrupted_windows_retry_and_still_match() {
    let p = program("    bl.v scale\n    bl.v double", "");
    let mut retried = false;
    for every in [7, 150, 250, 400] {
        for backend in BACKENDS {
            let mut config = MachineConfig::liquid(8).with_backend(backend);
            config.interrupt_every = every;
            let (report, _) = simulate(&p, config.clone(), &[]).unwrap();
            retried |=
                report.windows.iter().any(|w| !w.completed) && report.translator.successes > 0;
            check(&format!("interrupt every {every}"), &p, &config);
        }
    }
    assert!(
        retried,
        "no interrupt period aborted a window that later retried"
    );
}
