//! `liquid-simd` — command-line driver for the Liquid SIMD toolchain.
//!
//! Every command declares its positionals and options in one
//! [`args::Command`] table beside its code; [`args::parse`] checks each
//! invocation against that table, and `liquid-simd help` renders the
//! tables as the help text.

mod args;
mod bench;
mod conform;
mod daemon;
mod diagnose;
mod gen;
mod history;
mod run;
mod tables;

use std::process::ExitCode;

use args::{Args, Command};

/// Every command table, in help order. A command with modes (`bench`,
/// `gen`) has one table per mode.
static COMMANDS: &[&Command] = &[
    &run::ASM,
    &run::DISASM,
    &run::RUN,
    &run::TRANSLATE,
    &run::TRACE,
    &diagnose::EXPLAIN,
    &diagnose::PROFILE,
    &diagnose::DIFF,
    &tables::TABLES,
    &bench::BENCH,
    &bench::BENCH_SERVE,
    &bench::BENCH_FAMILIES,
    &gen::GEN,
    &gen::GEN_CHECK,
    &daemon::SERVE,
    &daemon::INSPECT,
    &daemon::TOP,
    &history::SENTINEL,
    &history::DASHBOARD,
    &conform::CONFORM,
    &HELP,
];

#[rustfmt::skip]
static HELP: Command = Command {
    usage: "help",
    about: "print this help (also --help, -h)",
    opts: &[],
    run: cmd_help,
};

fn cmd_help(_: &Args) -> Result<(), String> {
    print!("{}", args::usage(COMMANDS));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("liquid-simd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli(argv: &[String]) -> Result<(), String> {
    let args = args::parse(COMMANDS, argv)?;
    (args.command().run)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_perfhist as perfhist;
    use liquid_simd_trace::Json;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_string()).collect()
    }

    fn parse_err(words: &[&str]) -> String {
        let v = argv(words);
        match args::parse(COMMANDS, &v) {
            Ok(_) => panic!("`{}` parsed", words.join(" ")),
            Err(e) => e,
        }
    }

    /// A scratch directory for one test, emptied first.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A two-instruction assembly program in `dir`.
    fn tiny_program(dir: &std::path::Path) -> String {
        let path = dir.join("t.s");
        std::fs::write(&path, ".text\nmain:\n    mov r0, #1\n    halt\n").unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn lanes_parsing() {
        let lanes = |v: &str| {
            let a = argv(&["run", "p.s", "--lanes", v]);
            args::parse(COMMANDS, &a).unwrap().lanes()
        };
        assert_eq!(lanes("8").unwrap(), 8);
        assert_eq!(lanes("0").unwrap(), 0);
        assert!(lanes("3").is_err());
        assert!(lanes("32").is_err());
        assert!(lanes("x").is_err());
        let a = argv(&["run", "p.s"]);
        assert_eq!(args::parse(COMMANDS, &a).unwrap().lanes().unwrap(), 8);
    }

    #[test]
    fn jobs_parsing() {
        let jobs = |v: &str| {
            let a = argv(&["tables", "--jobs", v]);
            args::parse(COMMANDS, &a).unwrap().jobs()
        };
        assert_eq!(jobs("4").unwrap(), 4);
        assert!(jobs("0").is_err());
        assert!(jobs("x").is_err());
        let a = argv(&["tables"]);
        assert!(args::parse(COMMANDS, &a).unwrap().jobs().unwrap() >= 1);
    }

    #[test]
    fn width_anomaly_detection_flags_slower_wider_widths() {
        let row = |name: &str, by_width: &[(usize, u64)]| perfhist::WorkloadRow {
            name: name.to_string(),
            baseline_cycles: 1_000,
            sim_cycles: by_width.last().map_or(0, |&(_, c)| c),
            cycles_by_width: by_width.to_vec(),
            ledger: None,
        };
        // The motivating case: 179.art costs more cycles at width 16 than 8.
        let rows = vec![
            row(
                "179.art",
                &[(2, 3_000_000), (8, 2_380_481), (16, 2_482_896)],
            ),
            row("fir", &[(2, 300), (8, 200), (16, 100)]),
        ];
        let found = bench::width_anomalies(&rows);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].row, found[0].pair), (0, 1));
        let message = &found[0].message;
        assert!(message.contains("179.art"));
        assert!(message.contains("width 16"));
        assert!(message.contains("2482896"));
        assert!(bench::width_anomalies(&[]).is_empty());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&argv(&["frobnicate"])).is_err());
        assert!(run_cli(&[]).is_err());
    }

    /// The acceptance-criteria exit-code contract: `sentinel` succeeds on a
    /// clean history and errors (→ process exit 1) the moment a record's
    /// deterministic `sim_cycles` drifts from the baseline.
    #[test]
    fn sentinel_exit_code_tracks_cycle_drift() {
        let dir = scratch("sentinel");
        let path = dir.join("history.jsonl");
        let rec = |cycles: u64| {
            Json::parse(&format!(
                r#"{{"schema":"perfhist-v1","commit":"c","timestamp":1,"host":"h","config_hash":"cafe","smoke":true,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"8":{cycles}}}}}],"counters":{{}}}}"#
            ))
            .unwrap()
        };
        perfhist::store::append(&path, &rec(250)).unwrap();
        perfhist::store::append(&path, &rec(250)).unwrap();
        let hist = path.to_str().unwrap();
        let args = argv(&["sentinel", "--history", hist, "--json"]);
        assert!(run_cli(&args).is_ok(), "identical cycles pass");
        perfhist::store::append(&path, &rec(251)).unwrap();
        assert!(run_cli(&args).is_err(), "perturbed cycles fail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_and_top_poll_a_live_daemon() {
        use liquid_simd_serve as serve;
        let handle = serve::spawn(serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            history: None,
            ..serve::ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        // Push one real request through so the histograms have samples.
        let resp =
            daemon::serve_request(&addr, r#"{"op":"run","workload":"fir","id":"t1"}"#).unwrap();
        assert_eq!(
            resp.get("schema").and_then(Json::as_str),
            Some("serve-v1"),
            "{}",
            resp.write()
        );
        let inspect = |extra: &[&str]| {
            let mut v = argv(&["inspect", "--addr", &addr]);
            v.extend(argv(extra));
            run_cli(&v)
        };
        assert!(inspect(&[]).is_ok(), "human inspect");
        assert!(inspect(&["--raw"]).is_ok(), "raw inspect");
        assert!(inspect(&["--scrub"]).is_ok(), "scrubbed inspect");
        assert!(
            run_cli(&argv(&["top", "--addr", &addr, "--once"])).is_ok(),
            "top --once"
        );
        // The frame itself carries the live numbers `top` renders.
        let metrics = daemon::fetch_metrics(&addr).unwrap();
        let mut frame = String::new();
        daemon::render_metrics_frame(&mut frame, &addr, &metrics, Some(12.5), false);
        assert!(frame.contains("throughput 12.5 req/s"), "{frame}");
        assert!(frame.contains("latency    p50 <="), "{frame}");
        assert!(frame.contains("aborts"), "{frame}");
        handle.shutdown();
        handle.join().unwrap();
    }

    /// `bench`'s determinism contract on a one-workload suite: the
    /// snapshot is the same bytes at any `--jobs`, and the superblock
    /// backend's workload rows equal the interpreter's cycle for cycle.
    #[test]
    fn bench_snapshot_is_identical_across_jobs_and_backends() {
        use liquid_simd::BackendKind;
        let workloads: Vec<_> = liquid_simd_workloads::all()
            .into_iter()
            .filter(|w| w.name == "MPEG2 Dec.")
            .collect();
        assert_eq!(workloads.len(), 1);
        let doc = |jobs, backend| {
            bench::measure_suite(&workloads, &[2, 8], jobs, backend, false, true)
                .unwrap()
                .doc
        };
        let interp = doc(1, BackendKind::Interp);
        assert_eq!(interp, doc(2, BackendKind::Interp), "--jobs 1 vs --jobs 2");
        let superblock = doc(1, BackendKind::Superblock);
        let rows = |doc: &str| Json::parse(doc).unwrap().get("workloads").cloned().unwrap();
        assert_eq!(rows(&interp).as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(
            rows(&interp),
            rows(&superblock),
            "interp vs superblock rows"
        );
    }

    /// The history record `bench --smoke --backend B [--ledger]` appends.
    /// It comes from the rows [`bench::measure_suite`] records; its Figure 6
    /// gate, which adds nothing to the record, is
    /// `bench_snapshot_is_identical_across_jobs_and_backends`'s to run.
    fn smoke_record(backend: liquid_simd::BackendKind, ledger: bool) -> Json {
        let (workloads, widths) = bench::suite(true);
        let run = bench::measure_rows(&workloads, &widths, backend, ledger, true).unwrap();
        run.record(&bench::record_meta(&widths, true, backend))
    }

    /// The committed-baseline cycle gate: a fresh smoke measurement
    /// appended to the committed `bench/history.jsonl` must match its
    /// interpreter smoke baseline cycle for cycle, and a superblock record
    /// must match the interpreter's.
    #[test]
    fn fresh_smoke_records_pass_the_committed_history_gate() {
        use liquid_simd::BackendKind::{Interp, Superblock};
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/history.jsonl");
        let mut history = perfhist::store::load(std::path::Path::new(committed)).unwrap();
        history.push(smoke_record(Interp, false));
        let v = perfhist::sentinel::check(&history, &perfhist::SentinelOptions::default());
        assert!(!v.failed, "sentinel: {}", v.json.write());
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(3)
        );

        history.push(smoke_record(Superblock, false));
        let v = perfhist::cross_check(&history);
        assert!(!v.failed, "sentinel --cross-backend: {}", v.json.write());
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(3)
        );
    }

    /// `diff --history` over two `bench --smoke --ledger` records of the
    /// same code: every delta is zero, and the report is the same bytes
    /// on two runs.
    #[test]
    fn diff_history_of_the_same_code_is_zero_and_stable() {
        let dir = scratch("diff-history");
        let history = dir.join("history.jsonl");
        let record = smoke_record(liquid_simd::BackendKind::Interp, true);
        perfhist::store::append(&history, &record).unwrap();
        perfhist::store::append(&history, &record).unwrap();
        let diff = |name: &str| {
            let out = dir.join(name);
            let (h, o) = (history.to_str().unwrap(), out.to_str().unwrap());
            run_cli(&argv(&["diff", "--history", h, "--json", "--out", o])).unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let first = diff("a.json");
        assert_eq!(first, diff("b.json"), "diff --history is not deterministic");
        let doc = Json::parse(&first).unwrap();
        assert_eq!(doc.get("total_delta").and_then(Json::as_u64), Some(0));
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(rows("regions").len(), 3, "one region per smoke workload");
        assert!(!rows("categories").is_empty(), "ledger categories missing");
        for key in ["categories", "regions", "counters"] {
            for row in rows(key) {
                assert_eq!(
                    row.get("delta").and_then(Json::as_u64),
                    Some(0),
                    "{key}: {}",
                    row.write()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `bench --families --smoke` holds no host facts, so two runs write
    /// the same snapshot bytes.
    #[test]
    fn bench_families_snapshot_is_identical_run_to_run() {
        let dir = scratch("families");
        let snapshot = |name: &str| {
            let out = dir.join(name);
            let o = out.to_str().unwrap();
            run_cli(&argv(&[
                "bench",
                "--families",
                "--smoke",
                "--no-history",
                "--out",
                o,
            ]))
            .unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let first = snapshot("a.json");
        assert!(first.contains("liquid-simd-bench-families-v1"), "{first}");
        assert_eq!(first, snapshot("b.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn asm_output_option_before_the_input() {
        let dir = scratch("asm");
        let input = tiny_program(&dir);
        let out = dir.join("t2.lsim");
        let out = out.to_str().unwrap();
        run_cli(&argv(&["asm", "-o", out, &input])).unwrap();
        assert!(std::path::Path::new(out).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_lanes_before_the_input() {
        let dir = scratch("run");
        let input = tiny_program(&dir);
        run_cli(&argv(&["run", "--lanes", "4", &input])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_widths_before_the_workload() {
        run_cli(&argv(&["explain", "--widths", "2,4", "fir"])).unwrap();
    }

    #[test]
    fn profile_lanes_before_the_workload() {
        run_cli(&argv(&["profile", "--lanes", "4", "fir"])).unwrap();
    }

    #[test]
    fn tables_rejects_a_misspelled_option() {
        let e = parse_err(&["tables", "--jbos", "2", "--smoke"]);
        assert!(e.contains("unknown option `--jbos`"), "{e}");
        assert!(e.contains("usage: tables [--jobs N] [--smoke]"), "{e}");
    }

    #[test]
    fn explain_rejects_a_misspelled_option() {
        let e = parse_err(&["explain", "fir", "--jsn"]);
        assert!(e.contains("unknown option `--jsn`"), "{e}");
        assert!(e.contains("usage: explain <prog|workload>"), "{e}");
    }

    #[test]
    fn each_bench_mode_rejects_the_other_modes_options() {
        let e = parse_err(&["bench", "--families", "--ledger"]);
        assert!(e.contains("unknown option `--ledger`"), "{e}");
        assert!(e.contains("usage: bench --families"), "{e}");
        let e = parse_err(&["bench", "--serve", "--jobs", "2"]);
        assert!(e.contains("unknown option `--jobs`"), "{e}");
        assert!(e.contains("usage: bench --serve"), "{e}");
        let e = parse_err(&["bench", "--clients", "2"]);
        assert!(e.contains("unknown option `--clients`"), "{e}");
        assert!(e.contains("usage: bench [--jobs N]"), "{e}");
    }

    /// Every option of every command, with a value where it takes one:
    /// dropping an option from a table fails here.
    #[test]
    fn every_documented_option_still_parses() {
        let accepted: &[&[&str]] = &[
            &["asm", "t.s", "-o", "t.lsim"],
            &["disasm", "t.lsim"],
            &[
                "run",
                "t.s",
                "--lanes",
                "4",
                "--backend",
                "interp",
                "--native",
                "--jit",
                "--report",
                "--trace",
                "--trace-out",
                "t.json",
            ],
            &["translate", "t.s", "--lanes", "4"],
            &[
                "trace",
                "t.s",
                "--lanes",
                "4",
                "--backend",
                "interp",
                "--native",
                "--jit",
                "--out",
                "t.json",
                "--instructions",
            ],
            &[
                "explain",
                "fir",
                "--widths",
                "2,4",
                "--backend",
                "interp",
                "--json",
                "--interrupt-every",
                "100",
                "--all-calls",
            ],
            &[
                "profile",
                "fir",
                "--lanes",
                "8",
                "--json",
                "--top",
                "5",
                "--trace-out",
                "t.json",
            ],
            &[
                "diff",
                "a@w8",
                "b@w16",
                "--backend",
                "interp",
                "--json",
                "--out",
                "d.json",
                "--history",
                "h.jsonl",
            ],
            &["tables", "--jobs", "2", "--smoke"],
            &[
                "bench",
                "--jobs",
                "2",
                "--smoke",
                "--backend",
                "interp",
                "--ledger",
                "--out",
                "b.json",
                "--history",
                "h.jsonl",
                "--no-history",
            ],
            &[
                "bench",
                "--serve",
                "--smoke",
                "--backend",
                "interp",
                "--clients",
                "2",
                "--requests",
                "3",
                "--shards",
                "2",
                "--measure-recorder",
                "--history",
                "h.jsonl",
                "--no-history",
            ],
            &[
                "bench",
                "--families",
                "--smoke",
                "--backend",
                "interp",
                "--out",
                "b.json",
                "--history",
                "h.jsonl",
                "--no-history",
            ],
            &[
                "gen", "--list", "--expand", "--emit", "v", "--smoke", "--out", "m.txt",
            ],
            &["gen", "--check", "--jobs", "2", "--json", "--out", "c.json"],
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--backend",
                "interp",
                "--history",
                "h.jsonl",
                "--no-history",
                "--history-every",
                "8",
                "--flight-capacity",
                "0",
                "--flight-dir",
                "f",
                "--burst-threshold",
                "4",
                "--cache-cap",
                "16",
                "--inject-faults",
            ],
            &["inspect", "--addr", "127.0.0.1:7070", "--raw", "--scrub"],
            &[
                "top",
                "--addr",
                "127.0.0.1:7070",
                "--interval",
                "0.5",
                "--count",
                "2",
                "--once",
            ],
            &[
                "sentinel",
                "--baseline",
                "abc",
                "--json",
                "--history",
                "h.jsonl",
                "--cross-backend",
            ],
            &[
                "dashboard",
                "--out",
                "r.html",
                "--history",
                "h.jsonl",
                "--flame",
                "fir",
                "--flight-dir",
                "f",
                "--snapshot",
                "s.json",
            ],
            &[
                "conform",
                "--seed",
                "0xC0FFEE",
                "--cases",
                "20",
                "--jobs",
                "2",
                "--json",
                "--out",
                "c.json",
                "--corpus-dir",
                "d",
                "--no-shrink",
            ],
            &["help"],
            &["--help"],
            &["-h"],
        ];
        for words in accepted {
            let v = argv(words);
            if let Err(e) = args::parse(COMMANDS, &v) {
                panic!("`{}` does not parse: {e}", words.join(" "));
            }
        }
    }

    /// Every `liquid-simd` invocation in the CI workflow and the README
    /// still parses. Nothing runs: continuation lines are joined, `$w`
    /// becomes a workload name, and each command is cut at the first
    /// pipe, redirection, background `&` or comment.
    #[test]
    fn ci_and_readme_invocations_parse() {
        const CLI: &str = "target/release/liquid-simd ";
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for file in [".github/workflows/ci.yml", "README.md"] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            let joined = text.replace("\\\n", " ");
            let mut checked = 0;
            for line in joined.lines() {
                let Some((_, rest)) = line.split_once(CLI) else {
                    continue;
                };
                let rest = rest.replace("\"$w\"", "fir").replace("$w", "fir");
                let cmd = rest.split(['|', '>', '&', '#']).next().unwrap_or_default();
                let words: Vec<String> = cmd
                    .split_whitespace()
                    .map(|w| w.trim_matches(|c| c == '"' || c == '\'').to_string())
                    .collect();
                if let Err(e) = args::parse(COMMANDS, &words) {
                    panic!("{file}: `liquid-simd {}` does not parse: {e}", cmd.trim());
                }
                checked += 1;
            }
            assert!(checked > 0, "{file}: no `liquid-simd` invocation");
            assert_eq!(
                checked,
                text.matches(CLI).count(),
                "{file}: an invocation shares its line with another and was not parsed"
            );
        }
    }

    /// `tables --smoke` prints all nine artifacts, the same bytes at any
    /// `--jobs`, and Table 2's 8-wide row is the one EXPERIMENTS.md
    /// records.
    #[test]
    fn tables_smoke_prints_nine_artifacts_identically_at_any_jobs() {
        let (workloads, widths) = bench::suite(true);
        // The two renders run side by side: each takes 10-20 s in a debug
        // build, much of it the callout's 3,000 FIR calls.
        let (serial, parallel) = std::thread::scope(|s| {
            let parallel = s.spawn(|| tables::render(&workloads, &widths, 2));
            let serial = tables::render(&workloads, &widths, 1);
            (serial.unwrap(), parallel.join().unwrap().unwrap())
        });
        assert_eq!(serial, parallel);
        for heading in [
            "Table 2:",
            "Table 5:",
            "Table 6:",
            "Figure 6:",
            "Figure 6 callout (FIR, 3000 calls)",
            "Code size:",
            "Microcode cache working set",
            "Ablation A1:",
            "Ablation A2:",
        ] {
            assert!(serial.contains(heading), "missing {heading}\n{serial}");
        }
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
                .unwrap();
        let row = doc
            .lines()
            .find(|l| l.starts_with("  8      16 "))
            .expect("EXPERIMENTS.md has Table 2's 8-wide row");
        let words: Vec<&str> = row.split_whitespace().collect();
        assert_eq!((words[1], words[2], words[4]), ("16", "1.51", "173732"));
        assert!(
            serial.lines().any(|l| l.trim_end() == row.trim_end()),
            "Table 2's 8-wide row differs from EXPERIMENTS.md's `{row}`\n{serial}"
        );
    }

    #[test]
    fn gen_check_json_carries_the_gate_fields() {
        use liquid_simd_conform::oracle::CaseOutcome;
        let outcome = |name: &str, passed: bool| CaseOutcome {
            name: name.to_string(),
            kind: "legal",
            family: "f".to_string(),
            passed,
            translated: passed,
            abort_tags: Vec::new(),
            detail: if passed {
                String::new()
            } else {
                "boom".to_string()
            },
        };
        let mut coverage = liquid_simd_conform::abort_coverage(&[], false);
        assert!(!coverage.uncovered.is_empty());
        let doc = |outcomes: &[CaseOutcome], coverage: &liquid_simd_conform::AbortCoverage| {
            Json::parse(&gen::gen_check_json(outcomes, coverage)).unwrap()
        };
        let at = |d: &Json, k: &str| d.get("summary").and_then(|s| s.get(k)).cloned();

        let failing = doc(&[outcome("a", true), outcome("b", false)], &coverage);
        assert_eq!(
            failing.get("schema").and_then(Json::as_str),
            Some("gen-check-v1")
        );
        assert_eq!(failing.get("variants").and_then(Json::as_u64), Some(2));
        assert_eq!(at(&failing, "failed").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(at(&failing, "ok"), Some(Json::Bool(false)));
        let cov = failing.get("abort_coverage").unwrap();
        let uncovered: Vec<&str> = cov
            .get("uncovered")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(uncovered, coverage.uncovered);
        let mut exempt: Vec<&str> = cov
            .get("exempt")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("tag").and_then(Json::as_str))
            .collect();
        exempt.sort_unstable();
        assert_eq!(exempt, ["external", "iteration-mismatch"]);

        // With every case passing, only uncovered tags still fail the gate.
        let passing = [outcome("a", true)];
        assert_eq!(at(&doc(&passing, &coverage), "ok"), Some(Json::Bool(false)));
        coverage.uncovered.clear();
        let clean = doc(&passing, &coverage);
        assert_eq!(at(&clean, "ok"), Some(Json::Bool(true)));
        assert_eq!(at(&clean, "failed").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn help_renders_every_command_table() {
        let text = args::usage(COMMANDS);
        for c in COMMANDS {
            assert!(text.contains(c.about), "{} missing from help", c.usage);
            for o in c.opts {
                assert!(text.contains(o.help), "{} {} undocumented", c.usage, o.name);
            }
        }
        assert!(text.contains("gen [--list] [--expand] [--emit VARIANT] [--smoke]"));
    }
}
