//! Request execution and output rendering — the single source of truth
//! shared by the serve workers and the one-shot CLI.
//!
//! Byte-identity is the serving contract: a `serve-v1` response's `output`
//! field must equal what `liquid-simd run`/`translate`/`explain` prints
//! for the same program and parameters. Instead of testing two renderers
//! against each other, there is one — the CLI calls [`report_text`],
//! [`run_summary`], and [`translate_text`] to produce its stdout, and the
//! serve workers call [`execute`], which calls the same functions. The
//! identity holds by construction.

use liquid_simd::{BackendKind, Machine, MachineConfig, RunReport, SimError};
use liquid_simd_isa::{asm, Program};

use crate::proto::{self, Mode, Op, Request};

/// Builds the [`MachineConfig`] for a mode/width/jit triple exactly as the
/// CLI's flag parsing does (`--lanes 0` → scalar-only, `--native`,
/// `--jit`).
#[must_use]
pub fn machine_config(mode: Mode, lanes: usize, jit: bool) -> MachineConfig {
    let mut cfg = match mode {
        Mode::Scalar => MachineConfig::scalar_only(),
        Mode::Native => MachineConfig::native(lanes),
        Mode::Liquid => MachineConfig::liquid(lanes),
    };
    if jit {
        cfg.translation.jit = true;
        cfg.translation.hw_value_limit = false;
    }
    cfg
}

/// Resolves a benchmark workload by case-insensitive name, returning the
/// canonical [`Workload`](liquid_simd::Workload).
///
/// # Errors
///
/// Names the available workloads when `input` matches none of them.
pub fn resolve_workload(input: &str) -> Result<liquid_simd::Workload, String> {
    let wanted = input.to_ascii_lowercase();
    for w in liquid_simd_workloads::all() {
        if w.name.to_ascii_lowercase() == wanted {
            return Ok(w);
        }
    }
    let names: Vec<String> = liquid_simd_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .collect();
    Err(format!(
        "`{input}` is not a workload (workloads: {})",
        names.join(", ")
    ))
}

/// The CLI `run --report` statistics block, one line per subsystem.
#[must_use]
pub fn report_text(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("cycles            {}\n", report.cycles));
    out.push_str(&format!(
        "instructions      {} ({} scalar, {} vector)\n",
        report.retired, report.scalar_retired, report.vector_retired
    ));
    out.push_str(&format!("icache            {}\n", report.icache));
    out.push_str(&format!("dcache            {}\n", report.dcache));
    out.push_str(&format!("translator        {}\n", report.translator));
    out.push_str(&format!(
        "microcode cache   {} lookups, {} hits, {} pending, {} inserts, {} evictions, \
         {} conflicts\n",
        report.mcache.lookups,
        report.mcache.hits,
        report.mcache.pending,
        report.mcache.inserts,
        report.mcache.evictions,
        report.mcache.conflicts
    ));
    for (pc, len) in &report.translations {
        out.push_str(&format!(
            "translated        @{pc}: {len} microcode instructions\n"
        ));
    }
    out
}

/// The CLI `run` one-line summary.
#[must_use]
pub fn run_summary(report: &RunReport) -> String {
    format!(
        "halted after {} cycles ({} instructions)\n",
        report.cycles, report.retired
    )
}

/// Runs `program` once on a liquid machine and renders every translated
/// microcode block — the CLI `translate` output. Returns the rendered text
/// and the run's report.
///
/// # Errors
///
/// Propagates the simulation fault, if any.
pub fn translate_text(program: &Program, lanes: usize) -> Result<(String, RunReport), SimError> {
    translate_text_with(program, lanes, BackendKind::Interp)
}

/// [`translate_text`] on a chosen execution backend (identical output by
/// the backend contract; only throughput differs).
///
/// # Errors
///
/// Propagates the simulation fault, if any.
pub fn translate_text_with(
    program: &Program,
    lanes: usize,
    backend: BackendKind,
) -> Result<(String, RunReport), SimError> {
    // Every run records the cycle ledger (DESIGN.md §16 gives its measured
    // cost); its category totals surface in the shard's merged
    // `sim.ledger.*` counters (scrub-stable at any shard count, since
    // counters sum).
    let mut machine = Machine::new(program, MachineConfig::liquid(lanes).with_backend(backend));
    let report = machine.run()?;
    let micro = machine.microcode_snapshot();
    let mut out = String::new();
    if micro.is_empty() {
        out.push_str(&format!("no loops translated ({})\n", report.translator));
        return Ok((out, report));
    }
    for (pc, code) in micro {
        let name = program
            .label_at(pc)
            .map_or_else(|| format!("@{pc}"), str::to_string);
        out.push_str(&format!(
            "── {name} → {} microcode instructions at {lanes} lanes ──\n",
            code.len()
        ));
        out.push_str(&asm::disassemble_microcode(&code, program));
    }
    if report.translator.aborted() > 0 {
        out.push_str(&format!("aborts: {:?}\n", report.translator.aborts));
    }
    Ok((out, report))
}

/// The result of executing one request: the id-less response body (the
/// cacheable artifact), whether it was a success, and the simulated cycles
/// the operation cost (0 for errors and non-simulating ops).
#[derive(Clone, Debug)]
pub struct OpOutput {
    /// Full response JSON **without** the request id (see
    /// [`proto::with_id`]).
    pub body: String,
    /// Whether this is a `serve-v1` (vs `serve-err-v1`) body.
    pub ok: bool,
    /// Simulated cycles attributable to the request.
    pub cycles: u64,
    /// The `serve-err-v1` kind for errors (empty for successes) — the
    /// flight recorder and burst detector read it without re-parsing the
    /// body.
    pub kind: String,
    /// The run's [`RunReport::counters`] (`cycles`, `translator.*`,
    /// `mcache.*`, `blocks.*`, …) — a pure function of the request, so
    /// shard workers can merge it into per-shard registries without
    /// breaking cross-shard determinism. Empty for errors and for ops
    /// that aggregate many runs (`explain`, `conform`).
    pub counters: std::collections::BTreeMap<String, u64>,
}

impl OpOutput {
    fn from_report(body: String, report: &RunReport) -> OpOutput {
        OpOutput {
            body,
            ok: true,
            cycles: report.cycles,
            kind: String::new(),
            counters: report.counters(),
        }
    }

    fn ok_plain(body: String) -> OpOutput {
        OpOutput {
            body,
            ok: true,
            cycles: 0,
            kind: String::new(),
            counters: std::collections::BTreeMap::new(),
        }
    }

    fn err(op: Op, kind: &str, msg: &str) -> OpOutput {
        OpOutput {
            body: proto::err_body(Some(op), kind, msg),
            ok: false,
            cycles: 0,
            kind: kind.to_string(),
            counters: std::collections::BTreeMap::new(),
        }
    }
}

/// Maps a simulation error to a `serve-err-v1` body, distinguishing a
/// cycle-budget rejection (the request asked for a ceiling and hit it)
/// from an organic fault.
fn sim_error_output(op: Op, budget: Option<u64>, e: &SimError) -> OpOutput {
    if let (Some(b), SimError::Fault { what, .. }) = (budget, e) {
        if what.starts_with("cycle limit") {
            return OpOutput::err(op, "budget-exceeded", &format!("cycle budget {b} exceeded"));
        }
    }
    OpOutput::err(op, "sim-error", &e.to_string())
}

/// Executes one deterministic request against an already-resolved program.
/// Never panics outward on bad input: every failure mode renders as a
/// `serve-err-v1` body. `display_name` is the name the output text uses
/// (the canonical workload name, or the inline program's `name` field).
#[must_use]
pub fn execute(req: &Request, program: &Program, display_name: &str) -> OpOutput {
    execute_with_backend(req, program, display_name, BackendKind::Interp)
}

/// [`execute`] on a chosen execution backend — the daemon-wide setting
/// (`serve --backend`). Simulation results are identical across backends
/// (the backend contract), so `run`/`translate` responses are
/// byte-identical too; `explain --json` responses name the backend and
/// carry its block-cache telemetry, so they are identical only between
/// daemons running the same backend.
#[must_use]
pub fn execute_with_backend(
    req: &Request,
    program: &Program,
    display_name: &str,
    backend: BackendKind,
) -> OpOutput {
    if req.inject_panic {
        // Test-only fault injection (`serve --inject-faults`): die inside
        // the worker exactly as an organic bug would, so the panic
        // containment + flight-dump path is exercised end to end.
        panic!("injected worker panic (inject:\"panic\")");
    }
    match req.op {
        Op::Translate => match translate_text_with(program, req.lanes, backend) {
            Ok((text, report)) => OpOutput::from_report(
                proto::ok_body(
                    Op::Translate,
                    vec![
                        ("name", display_name.into()),
                        ("output", text.into()),
                        ("cycles", report.cycles.into()),
                        ("regions", report.translations.len().into()),
                        ("aborted", report.translator.aborted().into()),
                    ],
                ),
                &report,
            ),
            Err(e) => sim_error_output(Op::Translate, req.budget_cycles, &e),
        },
        Op::Run => {
            let mut cfg = machine_config(req.mode, req.lanes, req.jit).with_backend(backend);
            if let Some(b) = req.budget_cycles {
                cfg.max_cycles = cfg.max_cycles.min(b);
            }
            match liquid_simd::simulate(program, cfg, &[]) {
                Ok((report, _)) => {
                    if let Some(b) = req.budget_aborts {
                        if report.translator.aborted() > b {
                            return OpOutput::err(
                                Op::Run,
                                "abort-budget-exceeded",
                                &format!(
                                    "abort budget {b} exceeded ({} aborts)",
                                    report.translator.aborted()
                                ),
                            );
                        }
                    }
                    let text = if req.report {
                        report_text(&report)
                    } else {
                        run_summary(&report)
                    };
                    OpOutput::from_report(
                        proto::ok_body(
                            Op::Run,
                            vec![
                                ("name", display_name.into()),
                                ("output", text.into()),
                                ("cycles", report.cycles.into()),
                                ("retired", report.retired.into()),
                            ],
                        ),
                        &report,
                    )
                }
                Err(e) => sim_error_output(Op::Run, req.budget_cycles, &e),
            }
        }
        Op::Explain => {
            let opts = liquid_simd::ExplainOptions {
                widths: req.widths.clone(),
                interrupt_every: 0,
                all_calls: false,
                backend,
            };
            match liquid_simd::explain(program, display_name, &opts) {
                Ok(report) => {
                    let text = if req.json {
                        liquid_simd::diagnose::explain_json(&report)
                    } else {
                        liquid_simd::diagnose::render_explain(&report)
                    };
                    OpOutput::ok_plain(proto::ok_body(
                        Op::Explain,
                        vec![("name", display_name.into()), ("output", text.into())],
                    ))
                }
                Err(e) => OpOutput::err(Op::Explain, "sim-error", &e.to_string()),
            }
        }
        Op::Conform => {
            let opts = liquid_simd_conform::ConformOptions {
                seed: req.seed,
                cases: req.cases,
                jobs: 1,
                shrink: true,
            };
            let report = liquid_simd_conform::run_conform(&opts);
            let (passed, failed) = report.tally();
            OpOutput {
                body: proto::ok_body(
                    Op::Conform,
                    vec![
                        (
                            "output",
                            liquid_simd_conform::report_to_json(&report).into(),
                        ),
                        ("cases", report.cases.len().into()),
                        ("passed", passed.into()),
                        ("failed", failed.into()),
                    ],
                ),
                ok: report.passed(),
                cycles: 0,
                kind: String::new(),
                counters: std::collections::BTreeMap::new(),
            }
        }
        // Stats, inspect, dump, and shutdown are answered by the server
        // front-end, never dispatched to a shard.
        Op::Stats | Op::Inspect | Op::Dump | Op::Shutdown => {
            OpOutput::err(req.op, "bad-request", "not a shard op")
        }
    }
}

/// Assembles an inline program from request text.
///
/// # Errors
///
/// Returns the assembler's message for the caller to wrap as
/// `bad-request`.
pub fn assemble_inline(source: &str) -> Result<Program, String> {
    asm::assemble(source).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use liquid_simd_trace::Json;

    fn fir_program() -> (Program, String) {
        let w = resolve_workload("fir").expect("fir workload exists");
        let name = w.name.clone();
        let b = liquid_simd::build_liquid(&w).expect("fir builds");
        (b.program, name)
    }

    #[test]
    fn machine_config_matches_cli_triage() {
        assert_eq!(machine_config(Mode::Scalar, 0, false).lanes, 0);
        assert!(!machine_config(Mode::Native, 8, false).translation.enabled);
        let jit = machine_config(Mode::Liquid, 8, true);
        assert!(jit.translation.jit && !jit.translation.hw_value_limit);
        assert_eq!(
            machine_config(Mode::Liquid, 8, false).fingerprint(),
            MachineConfig::liquid(8).fingerprint()
        );
    }

    #[test]
    fn run_and_translate_render_like_the_cli() {
        let (program, name) = fir_program();
        let req = parse_request(r#"{"op":"run","workload":"fir"}"#).unwrap();
        let out = execute(&req, &program, &name);
        assert!(out.ok);
        let doc = Json::parse(&out.body).unwrap();
        let text = doc.get("output").and_then(Json::as_str).unwrap();
        assert!(text.starts_with("halted after ") && text.ends_with(" instructions)\n"));
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(out.cycles));

        let req = parse_request(r#"{"op":"translate","workload":"fir","width":8}"#).unwrap();
        let out = execute(&req, &program, &name);
        assert!(out.ok);
        let doc = Json::parse(&out.body).unwrap();
        let text = doc.get("output").and_then(Json::as_str).unwrap();
        let (direct, _) = translate_text(&program, 8).unwrap();
        assert_eq!(text, direct, "serve output == renderer output");
        assert!(text.contains("microcode instructions at 8 lanes"));
    }

    #[test]
    fn report_text_lists_every_subsystem() {
        let (program, name) = fir_program();
        let req = parse_request(r#"{"op":"run","workload":"fir","report":true}"#).unwrap();
        let out = execute(&req, &program, &name);
        let doc = Json::parse(&out.body).unwrap();
        let text = doc.get("output").and_then(Json::as_str).unwrap();
        for needle in [
            "cycles",
            "icache",
            "dcache",
            "translator",
            "microcode cache",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn cycle_budget_rejects_gracefully() {
        let (program, name) = fir_program();
        let req = parse_request(r#"{"op":"run","workload":"fir","budget_cycles":10}"#).unwrap();
        let out = execute(&req, &program, &name);
        assert!(!out.ok);
        let doc = Json::parse(&out.body).unwrap();
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("budget-exceeded")
        );
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("serve-err-v1")
        );

        let req =
            parse_request(r#"{"op":"run","workload":"fir","budget_aborts":0,"width":2}"#).unwrap();
        let out = execute(&req, &program, &name);
        let doc = Json::parse(&out.body).unwrap();
        // fir at width 2 may or may not abort; either a clean pass or the
        // abort-budget rejection is acceptable, never a panic.
        if !out.ok {
            assert_eq!(
                doc.get("kind").and_then(Json::as_str),
                Some("abort-budget-exceeded")
            );
        }
    }

    #[test]
    fn explain_json_matches_direct_call() {
        let (program, name) = fir_program();
        let req = parse_request(r#"{"op":"explain","workload":"fir","widths":[2,8]}"#).unwrap();
        let out = execute(&req, &program, &name);
        assert!(out.ok);
        let doc = Json::parse(&out.body).unwrap();
        let text = doc.get("output").and_then(Json::as_str).unwrap();
        let opts = liquid_simd::ExplainOptions {
            widths: vec![2, 8],
            interrupt_every: 0,
            all_calls: false,
            // `execute` simulates on the interpreter, and explain output
            // names its backend.
            backend: BackendKind::Interp,
        };
        let direct = liquid_simd::diagnose::explain_json(
            &liquid_simd::explain(&program, &name, &opts).unwrap(),
        );
        assert_eq!(text, direct);
    }

    #[test]
    fn inline_program_assembles_or_reports() {
        assert!(assemble_inline("definitely not asm ???").is_err());
    }
}
