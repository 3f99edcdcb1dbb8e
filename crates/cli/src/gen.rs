//! `gen`: list, expand, emit or conformance-check the declarative kernel
//! generator's corpus (`bench/families/*.kernel`, kernel-v1 format).

use std::fs;

use liquid_simd_conform::oracle::CaseOutcome;
use liquid_simd_conform::AbortCoverage;
use liquid_simd_kernelgen::{Payload, Variant};
use liquid_simd_trace::Json;

use crate::args::{flag, opt, Args, Command, JOBS};

#[rustfmt::skip]
pub static GEN: Command = Command {
    usage: "gen",
    about: "the generated kernel corpus: names, expansion manifest or one program",
    opts: &[
        flag("--list", "one variant name per line (the default)"),
        flag("--expand", "the deterministic expansion manifest"),
        opt("--emit", "VARIANT", "print the variant's program"),
        flag("--smoke", "only variants with trip <= 64 and unroll <= 2"),
        opt("--out", "FILE", "write the list or manifest to FILE"),
    ],
    run: cmd_gen,
};

#[rustfmt::skip]
pub static GEN_CHECK: Command = Command {
    usage: "gen --check",
    about: "every variant through the conform oracle; gates on abort coverage",
    opts: &[
        JOBS,
        flag("--json", "emit the gen-check-v1 document instead of text"),
        opt("--out", "FILE", "also write the gen-check-v1 document to FILE"),
    ],
    run: cmd_gen_check,
};

/// Expands the embedded kernelgen corpus, with the `--smoke` filter (the
/// CI-sized cut: short trips, shallow unrolls) applied when asked.
pub fn variants(smoke: bool) -> Result<Vec<Variant>, String> {
    let all = liquid_simd_kernelgen::expand_corpus().map_err(|e| format!("gen: corpus: {e}"))?;
    Ok(all
        .into_iter()
        .filter(|v| !smoke || (v.trip <= 64 && v.unroll <= 2))
        .collect())
}

/// One manifest line per variant: everything the expansion determined,
/// nothing the clock or host did — two runs must produce byte-identical
/// manifests (`tests/kernelgen_families.rs` pins the expansion).
fn manifest(variants: &[Variant]) -> String {
    let mut out = String::new();
    for v in variants {
        let kind = match &v.payload {
            Payload::Kernel(_) => "kernel".to_string(),
            Payload::Asm { expected_tag, .. } => format!("abort:{expected_tag}"),
        };
        out.push_str(&format!(
            "{}\t{}\ttrip={}\tunroll={}\tseed={:#018x}\t{}\n",
            v.name, v.family, v.trip, v.unroll, v.data_seed, kind
        ));
    }
    out
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let variants = variants(args.flag("--smoke"))?;
    if let Some(wanted) = args.value("--emit") {
        let v = variants
            .iter()
            .find(|v| v.name == wanted)
            .ok_or_else(|| format!("gen: no variant named `{wanted}` (try `gen --list`)"))?;
        match &v.payload {
            Payload::Kernel(w) => {
                let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", v.name))?;
                print!("{}", b.program.disassemble());
            }
            Payload::Asm { src, expected_tag } => {
                println!("# untranslatable idiom — expected abort tag: {expected_tag}");
                print!("{src}");
            }
        }
        return Ok(());
    }
    let text = if args.flag("--expand") {
        manifest(&variants)
    } else {
        variants.iter().map(|v| format!("{}\n", v.name)).collect()
    };
    match args.value("--out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{path}: {} variants written", variants.len());
        }
        None => print!("{text}"),
    }
    let families: std::collections::BTreeSet<&str> =
        variants.iter().map(|v| v.family.as_str()).collect();
    eprintln!(
        "gen: {} variants from {} families",
        variants.len(),
        families.len()
    );
    Ok(())
}

/// The `gen-check-v1` document: the oracle tally, every failure and the
/// abort coverage. `summary.ok` is the gate: no failure and no uncovered
/// abort tag.
pub fn gen_check_json(outcomes: &[CaseOutcome], coverage: &AbortCoverage) -> String {
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    let failures = outcomes
        .iter()
        .filter(|o| !o.passed)
        .map(|f| Json::obj([("name", (&f.name).into()), ("detail", (&f.detail).into())]));
    Json::obj([
        ("schema", "gen-check-v1".into()),
        ("variants", outcomes.len().into()),
        (
            "summary",
            Json::obj([
                ("passed", (outcomes.len() - failed).into()),
                ("failed", failed.into()),
                ("ok", (failed == 0 && coverage.uncovered.is_empty()).into()),
            ]),
        ),
        ("failures", Json::arr(failures)),
        (
            "abort_coverage",
            liquid_simd_conform::coverage_json(coverage),
        ),
    ])
    .write_rows()
}

/// `gen --check`: every corpus variant through the conform oracle, plus
/// the abort-coverage gate (no reachable tag may go unexercised).
fn cmd_gen_check(args: &Args) -> Result<(), String> {
    let (outcomes, coverage) = liquid_simd_conform::families::check_corpus(args.jobs()?);
    let json = gen_check_json(&outcomes, &coverage);
    let fails: Vec<&CaseOutcome> = outcomes.iter().filter(|o| !o.passed).collect();
    let failed = fails.len();

    if let Some(path) = args.value("--out") {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if args.flag("--json") {
        print!("{json}");
    } else {
        println!(
            "gen --check: {} variants — {} passed, {failed} failed",
            outcomes.len(),
            outcomes.len() - failed
        );
        for f in &fails {
            println!("FAIL {}: {}", f.name, f.detail);
        }
        println!(
            "abort coverage: {} families, {} uncovered tag(s){}",
            coverage.by_family.len(),
            coverage.uncovered.len(),
            if coverage.uncovered.is_empty() {
                String::new()
            } else {
                format!(" — {}", coverage.uncovered.join(", "))
            }
        );
        for (tag, why) in &coverage.exempt {
            println!("  exempt {tag}: {why}");
        }
    }
    if failed > 0 {
        return Err("gen --check: oracle failures".into());
    }
    if !coverage.uncovered.is_empty() {
        return Err(format!(
            "gen --check: abort tags with no witness: {}",
            coverage.uncovered.join(", ")
        ));
    }
    Ok(())
}
