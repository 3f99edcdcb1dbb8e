//! One digest over the microcode every translation leaves resident, so a
//! refactor of the simulator's translator tap (the values and branch
//! directions it feeds the translator) can prove it moved no microcode.
//!
//! It covers:
//! - `microcode_snapshot()` after a run of every suite workload's liquid
//!   build at 2, 4, 8 and 16 lanes;
//! - the same after a run of every translatable `workloads::generated()`
//!   variant at 8 lanes.
//!
//! A change that is meant to move a translation updates the pinned
//! digest in the same commit and says why.

use liquid_simd_repro::compiler::Workload;
use liquid_simd_repro::facade::{build_liquid, simulate, MachineConfig};
use liquid_simd_repro::isa::SUPPORTED_WIDTHS;
use liquid_simd_repro::serve::fnv1a;
use liquid_simd_repro::workloads;

const PINNED: u64 = 0xfe6a_e41c_9882_fad1;

fn push_microcode(text: &mut String, w: &Workload, lanes: usize) {
    let build = build_liquid(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let (_, machine) = simulate(&build.program, MachineConfig::liquid(lanes), &[])
        .unwrap_or_else(|e| panic!("{}@{lanes}: {e}", w.name));
    text.push_str(&format!("{}@{lanes}\n", w.name));
    for (pc, code) in machine.microcode_snapshot() {
        text.push_str(&format!("entry @{pc}\n"));
        for inst in code {
            text.push_str(&format!("    {inst}\n"));
        }
    }
}

fn microcode_text() -> String {
    let mut text = String::new();
    for w in workloads::all() {
        for lanes in SUPPORTED_WIDTHS {
            push_microcode(&mut text, &w, lanes);
        }
    }
    for w in workloads::generated() {
        push_microcode(&mut text, &w, 8);
    }
    text
}

#[test]
fn resident_microcode_matches_the_pinned_digest() {
    let digest = fnv1a(microcode_text().as_bytes());
    assert_eq!(
        digest, PINNED,
        "resident microcode changed: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
