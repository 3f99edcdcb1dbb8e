//! One digest over every surface that names a run's counters, so a
//! refactor of where those counters are built can prove it moved no name
//! and no value.
//!
//! It covers:
//! - `RunReport::counters` (the `counters` object of a `perfhist-v1`
//!   record and of a serve `OpOutput`) of every suite workload: the plain
//!   scalar baseline and the liquid build at 8 lanes, on both backends;
//! - `explain_json` for `fir` and `fft`, on both backends;
//! - the `ledger_snapshot` JSON of `fir@w8`.
//!
//! A change that is meant to move a counter updates the pinned digest in
//! the same commit and says why.

use std::collections::BTreeMap;

use liquid_simd_repro::facade::{self as liquid, diagnose, ExplainOptions, MachineConfig};
use liquid_simd_repro::perfhist::counters;
use liquid_simd_repro::serve::fnv1a;
use liquid_simd_repro::sim::BackendKind;
use liquid_simd_repro::trace::Json;

const PINNED: u64 = 0x883a_8cd5_a0ec_481c;

const BACKENDS: [BackendKind; 2] = [BackendKind::Interp, BackendKind::Superblock];

fn counters_json(c: &BTreeMap<String, u64>) -> String {
    Json::obj(c.iter().map(|(k, &v)| (k.as_str(), v.into()))).write()
}

fn counter_text() -> String {
    let mut text = String::new();
    let workloads = liquid_simd_repro::workloads::all();
    for w in &workloads {
        let plain = liquid_simd_repro::compiler::build_plain(w).expect("plain build");
        let built = liquid::build_liquid(w).expect("liquid build");
        for backend in BACKENDS {
            for (label, program, config) in [
                ("scalar", &plain.program, MachineConfig::scalar_only()),
                ("w8", &built.program, MachineConfig::liquid(8)),
            ] {
                let report = liquid::run(program, config.with_backend(backend))
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name))
                    .report;
                text.push_str(&format!("{} {label} {backend}\n", w.name));
                text.push_str(&counters_json(&report.counters()));
                text.push('\n');
            }
        }
    }
    for name in ["fir", "fft"] {
        let w = workloads
            .iter()
            .find(|w| w.name.eq_ignore_ascii_case(name))
            .expect("workload");
        let program = liquid::build_liquid(w).expect("liquid build").program;
        for backend in BACKENDS {
            let opts = ExplainOptions {
                backend,
                ..ExplainOptions::default()
            };
            let report = liquid::explain(&program, &w.name, &opts).expect("explain runs");
            text.push_str(&diagnose::explain_json(&report));
        }
    }
    let fir = workloads
        .iter()
        .find(|w| w.name.eq_ignore_ascii_case("fir"))
        .expect("fir");
    let program = liquid::build_liquid(fir).expect("liquid build").program;
    let report = liquid::run(&program, MachineConfig::liquid(8))
        .expect("fir runs")
        .report;
    let names = liquid::ledger_region_labels(&program, &report.ledger);
    text.push_str(&counters::ledger_snapshot("fir@w8", &report, &names).to_json());
    text
}

#[test]
fn counter_surfaces_match_the_pinned_digest() {
    let digest = fnv1a(counter_text().as_bytes());
    assert_eq!(
        digest, PINNED,
        "counter surfaces changed: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
