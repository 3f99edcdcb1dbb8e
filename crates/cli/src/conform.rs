//! `conform`: generative differential conformance over every pipeline
//! at every width, plus the abort-injection sweep.

use std::fs;

use liquid_simd_kernelgen::format::parse_u64;

use crate::args::{flag, opt, Args, Command, JOBS};

#[rustfmt::skip]
pub static CONFORM: Command = Command {
    usage: "conform",
    about: "random legal and illegal loops through every pipeline, plus abort sweeps",
    opts: &[
        opt("--seed", "S", "generator seed, decimal or 0x-hex (default 0xC0FFEE)"),
        opt("--cases", "N", "random cases (default 200)"),
        JOBS,
        flag("--json", "emit the conform-v1 document instead of text"),
        opt("--out", "FILE", "also write the conform-v1 document to FILE"),
        opt("--corpus-dir", "DIR", "where minimized failures go (default tests/corpus)"),
        flag("--no-shrink", "report raw failing specs without minimizing"),
    ],
    run: cmd_conform,
};

fn cmd_conform(args: &Args) -> Result<(), String> {
    let seed = match args.value("--seed") {
        None => 0xC0FFEE,
        Some(v) => parse_u64(v).ok_or_else(|| format!("bad --seed `{v}`"))?,
    };
    let opts = liquid_simd_conform::ConformOptions {
        seed,
        cases: args.parse_or("--cases", 200, "an integer", |_| true)?,
        jobs: args.jobs()?,
        shrink: !args.flag("--no-shrink"),
    };
    let report = liquid_simd_conform::run_conform(&opts);

    let json = liquid_simd_conform::report_to_json(&report);
    if let Some(path) = args.value("--out") {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if args.flag("--json") {
        print!("{json}");
    } else {
        let (passed, failed) = report.tally();
        let translated = report.cases.iter().filter(|c| c.translated).count();
        println!(
            "conform: seed {seed:#x}, {} cases — {passed} passed, {failed} failed \
             ({translated} exercised the translator)",
            report.cases.len()
        );
        for sw in &report.sweeps {
            println!(
                "abort sweep `{}` @ {} lanes: {} injection points — {}",
                sw.name,
                sw.lanes,
                sw.points,
                if sw.passed { "all clean" } else { &sw.detail }
            );
        }
        for f in &report.failures {
            println!("FAIL {}: {}", f.outcome.name, f.outcome.detail);
        }
    }

    // Persist minimized failures so they can be promoted to regression
    // cases (and uploaded as CI artifacts).
    if !report.failures.is_empty() {
        let dir = args.value_or("--corpus-dir", "tests/corpus");
        for f in &report.failures {
            let path = liquid_simd_conform::corpus::save(std::path::Path::new(dir), &f.case)
                .map_err(|e| e.to_string())?;
            eprintln!("minimized failing case written to {}", path.display());
        }
    }
    if !report.passed() {
        return Err("conformance run failed".into());
    }
    Ok(())
}
