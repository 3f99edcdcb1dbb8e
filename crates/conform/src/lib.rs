//! Generative differential conformance for the Liquid SIMD pipeline.
//!
//! The paper's contract is stark: a Liquid binary must behave *identically*
//! on every machine — scalar-only, or any accelerator width, interrupted
//! at any instant — and an untranslatable region must abort, never
//! mistranslate. This crate stress-tests that contract generatively:
//!
//! 1. **Generate** ([`gen`]): a seeded stream of random-but-valid
//!    vectorizable kernels (saturating idioms, reductions, butterfly
//!    permutations, constant patterns, fission-forcing shapes) plus a
//!    deliberate population of *illegal* regions: `kernelgen`'s
//!    untranslatable idioms (one per translator abort rule) with their
//!    parameters drawn at random.
//! 2. **Check** ([`oracle`]): each case runs through every pipeline — gold
//!    evaluator, plain scalar, Liquid untranslated, Liquid translated at
//!    every supported width, native SIMD — and final memory plus live-out
//!    registers are diffed byte-for-byte.
//! 3. **Sweep** ([`abort`]): external aborts are injected at *every*
//!    retired-instruction index of a translating region, asserting the
//!    scalar fallback stays gold-correct and the microcode cache holds no
//!    partial entry.
//! 4. **Shrink** ([`shrink`]) and **persist** ([`corpus`]): failing cases
//!    are minimised and written as `.case` files that replay as permanent
//!    regression tests.
//!
//! The whole run is deterministic: the same seed produces byte-identical
//! reports at any `--jobs`, because the report orders by case index and
//! contains no timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abort;
pub mod corpus;
pub mod families;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::collections::BTreeMap;

use liquid_simd::run_tasks;
use liquid_simd::trace::Json;
use liquid_simd::translator::ABORT_TAGS;

use abort::SweepOutcome;
use gen::CaseSpec;
use oracle::CaseOutcome;

/// Options for one conformance run.
#[derive(Clone, Debug)]
pub struct ConformOptions {
    /// Master seed; every case derives a decorrelated stream from it.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: u64,
    /// Worker threads (`1` = serial; never affects results).
    pub jobs: usize,
    /// Shrink failing legal cases before reporting (slower on failure,
    /// minimal repros in the report).
    pub shrink: bool,
}

impl Default for ConformOptions {
    fn default() -> ConformOptions {
        ConformOptions {
            seed: 0xC0FFEE,
            cases: 200,
            jobs: 1,
            shrink: true,
        }
    }
}

/// A failing case, minimised and serialised for the corpus.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The (possibly shrunk) failing spec.
    pub case: CaseSpec,
    /// The oracle's verdict on the *shrunk* spec.
    pub outcome: CaseOutcome,
    /// `conform-case-v1` text, ready to drop into `tests/corpus/`.
    pub corpus_text: String,
}

/// Which abort paths the run exercised, tallied per case family
/// (satellite of the kernelgen work: the report now *proves* which
/// [`AbortReason`](liquid_simd::translator::AbortReason) variants have
/// a living witness).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCoverage {
    /// `family → (tag → times observed)`, ordered by family name.
    pub by_family: BTreeMap<String, BTreeMap<String, u64>>,
    /// Translator abort tags no case observed and no exemption covers.
    /// Non-empty means the suite has a blind spot.
    pub uncovered: Vec<String>,
    /// Tags deliberately not expected from generated cases, with the
    /// reason each is still accounted for.
    pub exempt: Vec<(String, String)>,
}

/// Tallies abort coverage over a set of case outcomes. `swept` says
/// whether abort-injection sweeps ran alongside these cases: the
/// `external` tag is only reachable through injection, so it is
/// credited to the sweeps when they ran and listed exempt when not.
#[must_use]
pub fn abort_coverage(cases: &[CaseOutcome], swept: bool) -> AbortCoverage {
    let mut by_family: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for c in cases {
        if c.family.is_empty() {
            continue;
        }
        let tags = by_family.entry(c.family.clone()).or_default();
        for t in &c.abort_tags {
            *tags.entry(t.clone()).or_insert(0) += 1;
        }
    }

    let mut exempt = vec![(
        "iteration-mismatch".to_string(),
        "in-order retirement replays iteration one exactly; the divergence path is pinned \
         unreachable by a translator unit test"
            .to_string(),
    )];
    if swept {
        by_family
            .entry("abort-sweep".to_string())
            .or_default()
            .insert("external".to_string(), 1);
    } else {
        exempt.push((
            "external".to_string(),
            "only reachable through abort injection; exercised by the sweep phase, which \
             this run does not include"
                .to_string(),
        ));
    }

    let uncovered = ABORT_TAGS
        .iter()
        .filter(|tag| {
            !by_family.values().any(|tags| tags.contains_key(**tag))
                && !exempt.iter().any(|(t, _)| t == *tag)
        })
        .map(|t| (*t).to_string())
        .collect();

    AbortCoverage {
        by_family,
        uncovered,
        exempt,
    }
}

/// The result of one conformance run.
#[derive(Clone, Debug)]
pub struct ConformReport {
    /// Seed the run used.
    pub seed: u64,
    /// Per-case verdicts, in case-index order: the seeded random cases
    /// first, then one deterministic `cov_*` witness per untranslatable
    /// idiom.
    pub cases: Vec<CaseOutcome>,
    /// Minimised failures (empty on a clean run).
    pub failures: Vec<Failure>,
    /// Abort-injection sweep results for the standard workloads.
    pub sweeps: Vec<SweepOutcome>,
    /// Which abort tags the run exercised, per family.
    pub coverage: AbortCoverage,
}

impl ConformReport {
    /// `true` when every case and every sweep passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed) && self.sweeps.iter().all(|s| s.passed)
    }

    /// Counts `(passed, failed)` cases.
    #[must_use]
    pub fn tally(&self) -> (u64, u64) {
        let passed = self.cases.iter().filter(|c| c.passed).count() as u64;
        (passed, self.cases.len() as u64 - passed)
    }
}

/// Runs the full conformance suite: generated cases through the oracle
/// (in parallel, deterministically), failing legal cases shrunk, plus the
/// standard abort-injection sweeps.
#[must_use]
pub fn run_conform(opts: &ConformOptions) -> ConformReport {
    // The seeded random stream, then one deterministic witness per
    // untranslatable idiom so the coverage section never depends on what
    // the random mix happened to draw.
    let mut specs: Vec<CaseSpec> = (0..opts.cases)
        .map(|i| gen::generate_case(opts.seed, i))
        .collect();
    specs.extend(gen::coverage_specs().into_iter().map(CaseSpec::Illegal));

    // Case checking is embarrassingly parallel, and each task is
    // infallible — a failing case is data, not an error — so the scheduler
    // can never reorder or drop results.
    let cases: Vec<CaseOutcome> = run_tasks(opts.jobs, specs.len(), |i| {
        Ok::<_, std::convert::Infallible>(oracle::check_case(&specs[i]))
    })
    .unwrap_or_else(|e| match e {});

    // Shrinking re-runs the oracle many times per failure; keep it serial
    // (failures are rare) and ordered (determinism).
    let failures: Vec<Failure> = cases
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.passed)
        .map(|(i, _)| {
            let spec = specs[i].clone();
            let (case, outcome) = match spec {
                CaseSpec::Legal(l) if opts.shrink => {
                    let small = shrink::shrink_legal(&l, &|s| !oracle::check_legal(s).passed);
                    let outcome = oracle::check_legal(&small);
                    (CaseSpec::Legal(small), outcome)
                }
                other => {
                    let outcome = oracle::check_case(&other);
                    (other, outcome)
                }
            };
            let corpus_text = corpus::to_text(&case);
            Failure {
                case,
                outcome,
                corpus_text,
            }
        })
        .collect();

    let sweeps = abort::run_standard_sweeps(8);
    let coverage = abort_coverage(&cases, true);

    ConformReport {
        seed: opts.seed,
        cases,
        failures,
        sweeps,
        coverage,
    }
}

/// Renders the report as `conform-v1` JSON. Deliberately free of timing,
/// job counts, and machine details: the same seed must produce
/// byte-identical output on any host at any parallelism.
#[must_use]
pub fn report_to_json(report: &ConformReport) -> String {
    let (passed, failed) = report.tally();
    let translated = report.cases.iter().filter(|c| c.translated).count();
    let cases = report.cases.iter().map(|c| {
        Json::obj([
            ("name", (&c.name).into()),
            ("kind", c.kind.into()),
            ("family", (&c.family).into()),
            ("passed", c.passed.into()),
            ("translated", c.translated.into()),
            ("detail", (&c.detail).into()),
        ])
    });
    let failures = report.failures.iter().map(|f| {
        Json::obj([
            ("name", (&f.outcome.name).into()),
            ("detail", (&f.outcome.detail).into()),
            ("corpus", (&f.corpus_text).into()),
        ])
    });
    let sweeps = report.sweeps.iter().map(|sw| {
        Json::obj([
            ("name", (&sw.name).into()),
            ("lanes", sw.lanes.into()),
            ("points", sw.points.into()),
            ("passed", sw.passed.into()),
            ("detail", (&sw.detail).into()),
        ])
    });
    Json::obj([
        ("schema", "conform-v1".into()),
        ("seed", report.seed.into()),
        ("cases", report.cases.len().into()),
        ("widths", Json::arr([2u64, 4, 8, 16])),
        (
            "summary",
            Json::obj([
                ("passed", passed.into()),
                ("failed", failed.into()),
                ("translated", translated.into()),
                ("ok", report.passed().into()),
            ]),
        ),
        ("case_results", Json::arr(cases)),
        ("failures", Json::arr(failures)),
        ("abort_sweep", Json::arr(sweeps)),
        ("abort_coverage", coverage_json(&report.coverage)),
    ])
    .write_rows()
}

/// An [`AbortCoverage`] as the `abort_coverage` JSON member (shared
/// between `conform --json` and `gen --check --json`).
#[must_use]
pub fn coverage_json(cov: &AbortCoverage) -> Json {
    let by_family = cov.by_family.iter().map(|(family, tags)| {
        let tags = tags.iter().map(|(t, &n)| (t.clone(), n.into()));
        (family.clone(), Json::obj(tags))
    });
    let exempt = cov
        .exempt
        .iter()
        .map(|(tag, why)| Json::obj([("tag", tag.into()), ("why", why.into())]));
    Json::obj([
        ("by_family", Json::obj(by_family)),
        ("uncovered", Json::arr(&cov.uncovered)),
        ("exempt", Json::arr(exempt)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts(jobs: usize) -> ConformOptions {
        ConformOptions {
            seed: 0xC0FFEE,
            cases: 8,
            jobs,
            shrink: true,
        }
    }

    /// A small run, and the `conform --seed 0xC0FFEE --cases 200` run at
    /// the CLI's defaults: no failures, and the same JSON at any `--jobs`.
    #[test]
    fn small_run_passes_and_is_deterministic_across_jobs() {
        for (cases, jobs) in [(8, 4), (200, 2)] {
            let opts = |jobs| ConformOptions {
                cases,
                ..small_opts(jobs)
            };
            let serial = run_conform(&opts(1));
            assert!(serial.passed(), "{cases} cases: {:?}", serial.failures);
            let parallel = run_conform(&opts(jobs));
            assert_eq!(
                report_to_json(&serial),
                report_to_json(&parallel),
                "{cases} cases: JSON must be byte-identical at --jobs 1 and {jobs}"
            );
        }
    }

    #[test]
    fn report_json_shape() {
        let report = run_conform(&ConformOptions {
            cases: 3,
            ..small_opts(2)
        });
        let json = report_to_json(&report);
        assert!(json.contains("\"schema\": \"conform-v1\""));
        assert!(json.contains("\"abort_sweep\""));
        assert!(json.contains("sweep_sat"));
        assert!(json.contains("sweep_red"));
        assert!(json.contains("\"abort_coverage\""));
        // No timing anywhere: reruns must be byte-identical.
        assert!(!json.contains("seconds") && !json.contains("jobs"));
    }

    #[test]
    fn every_run_covers_every_reachable_abort_tag() {
        // Even a tiny run appends the per-family coverage witnesses, so
        // the uncovered list is empty for any seed and case count.
        let report = run_conform(&small_opts(2));
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(
            report.coverage.uncovered,
            Vec::<String>::new(),
            "coverage: {:?}",
            report.coverage.by_family
        );
        // 13 untranslatable idioms + the sweep credit, at minimum
        // (legal cases may add a "legal" family when any width aborts).
        assert!(report.coverage.by_family.len() >= 13);
        let exempt: Vec<&str> = report
            .coverage
            .exempt
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        assert_eq!(exempt, ["iteration-mismatch"]);
    }
}
