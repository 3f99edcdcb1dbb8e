//! Workspace-level integration tests for the kernelgen subsystem: the
//! seeded `bench/families/` corpus must expand deterministically at any
//! parallelism, every expanded variant must pass the conformance
//! oracle, the corpus run must witness every reachable abort tag, and
//! the generated workload frontier `workloads::generated()` must be the
//! corpus's translatable cut exactly.

use liquid_simd_repro::conform::families::{check_corpus, check_variants};
use liquid_simd_repro::kernelgen::{corpus_specs, expand_corpus, Payload, Variant};
use liquid_simd_repro::workloads;

/// The smoke cut `bench --families --smoke` benches: short trips, shallow
/// unrolls.
fn smoke(variants: &[Variant]) -> Vec<Variant> {
    variants
        .iter()
        .filter(|v| v.trip <= 64 && v.unroll <= 2)
        .cloned()
        .collect()
}

#[test]
fn corpus_expansion_is_deterministic_and_exceeds_the_floor() {
    let a = expand_corpus().unwrap();
    let b = expand_corpus().unwrap();
    assert!(a.len() >= 100, "corpus yields {} variants", a.len());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.family, y.family);
        assert_eq!(
            (x.trip, x.unroll, x.data_seed),
            (y.trip, y.unroll, y.data_seed)
        );
        match (&x.payload, &y.payload) {
            (Payload::Asm { src: s1, .. }, Payload::Asm { src: s2, .. }) => assert_eq!(s1, s2),
            (Payload::Kernel(w1), Payload::Kernel(w2)) => {
                assert_eq!(w1.name, w2.name);
                assert_eq!(w1.data, w2.data, "{}: expanded data differs", x.name);
            }
            _ => panic!("payload kind mismatch for {}", x.name),
        }
    }
}

#[test]
fn corpus_specs_survive_print_parse_round_trip() {
    for spec in corpus_specs().unwrap() {
        let text = liquid_simd_repro::kernelgen::print(&spec);
        let back = liquid_simd_repro::kernelgen::parse(&spec.family, &text).unwrap();
        assert_eq!(back, spec, "{}: print→parse identity", spec.family);
    }
}

#[test]
fn oracle_outcomes_are_identical_at_any_jobs() {
    // The smoke cut keeps two full oracle sweeps affordable; `gen
    // --check` and CI run the whole corpus.
    let variants = smoke(&expand_corpus().unwrap());
    assert!(variants.len() >= 40, "smoke cut: {}", variants.len());
    let render = |outcomes: &[liquid_simd_repro::conform::oracle::CaseOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .map(|o| {
                format!(
                    "{} {} {} {} {:?}",
                    o.name, o.family, o.passed, o.translated, o.abort_tags
                )
            })
            .collect()
    };
    let serial = render(&check_variants(&variants, 1));
    let parallel = render(&check_variants(&variants, 4));
    assert_eq!(serial, parallel, "oracle outcomes depend on --jobs");
}

#[test]
fn full_corpus_passes_the_oracle_with_no_uncovered_abort_tags() {
    let (outcomes, coverage) = check_corpus(4);
    for o in &outcomes {
        assert!(o.passed, "{}: {}", o.name, o.detail);
    }
    assert!(
        coverage.uncovered.is_empty(),
        "abort tags with no corpus witness: {:?}",
        coverage.uncovered
    );
    // Exactly two tags are accounted for without a witness: `external`
    // (reachable only through abort injection, which `gen --check` does
    // not sweep) and `iteration-mismatch` (pinned unreachable).
    let mut exempt: Vec<&str> = coverage.exempt.iter().map(|(t, _)| t.as_str()).collect();
    exempt.sort_unstable();
    assert_eq!(exempt, ["external", "iteration-mismatch"]);
    // Untranslatable variants hit exactly their pinned tag.
    let by_name: std::collections::BTreeMap<
        &str,
        &liquid_simd_repro::conform::oracle::CaseOutcome,
    > = outcomes.iter().map(|o| (o.name.as_str(), o)).collect();
    for v in &expand_corpus().unwrap() {
        if let Payload::Asm { expected_tag, .. } = &v.payload {
            let o = by_name[v.name.as_str()];
            assert!(
                o.abort_tags.iter().any(|t| t == expected_tag),
                "{}: expected tag {expected_tag}, saw {:?}",
                v.name,
                o.abort_tags
            );
        }
    }
}

#[test]
fn generated_frontier_is_exactly_the_translatable_cut() {
    let variants = expand_corpus().unwrap();
    let kernel_names: Vec<&str> = variants
        .iter()
        .filter(|v| matches!(v.payload, Payload::Kernel(_)))
        .map(|v| v.name.as_str())
        .collect();
    let generated = workloads::generated();
    assert_eq!(
        generated
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>(),
        kernel_names,
        "workloads::generated() must mirror the corpus kernel set in order"
    );
}
