//! `liquid-simd` — command-line driver for the Liquid SIMD toolchain.
//!
//! ```text
//! liquid-simd asm input.s -o program.lsim     assemble to an object file
//! liquid-simd disasm program.lsim             disassemble an object file
//! liquid-simd run program.{s,lsim} [FLAGS]    simulate to halt
//!     --lanes N        SIMD accelerator width (default 8; 0 = scalar only)
//!     --backend B      execution backend: interp (default) or superblock
//!                      (pre-lowered straight-line blocks, same cycles)
//!     --native         no dynamic translation (vector binaries)
//!     --jit            software-JIT translation (stalls the CPU)
//!     --report         print cache/translator statistics
//!     --trace          record dynamic events; print the trace summary
//!     --trace-out F    also write the event stream (.json → Chrome trace
//!                      for Perfetto/chrome://tracing, else JSON-lines)
//! liquid-simd translate program.{s,lsim} [--lanes N]
//!                      run once and print each translated microcode block
//! liquid-simd trace program.{s,lsim} [--lanes N] [--out trace.json]
//!                      traced run; write Chrome trace + print summary
//! liquid-simd explain program.{s,lsim}|workload [--widths 2,4] [--json]
//!                      per-region translation verdicts: translated (uops)
//!                      or aborted with full provenance, at every width
//!     --interrupt-every N   inject an external interrupt every N cycles
//!     --all-calls           also attempt plain `bl` (no `bl.v`) calls
//! liquid-simd profile program.{s,lsim}|workload [--lanes N] [--json]
//!                      cycle breakdown: phases, spans, hottest call
//!                      targets, per-entry microcode-cache statistics
//!     --top N          rows per table (default 10)
//!     --trace-out F    also write the Chrome trace with nested spans
//! liquid-simd diff [<A> <B>] [--backend B] [--json] [--out F]
//!                      explain a performance delta from the cycle ledger.
//!                      Each side is `<prog|workload>@wN` (simulated now)
//!                      or a history file (its newest
//!                      perfhist-v1 record); with no sides, the last two
//!                      perfhist-v1 records of --history are compared.
//!                      Prints ranked per-category and per-region
//!                      attribution with counter deltas as corroborating
//!                      evidence, plus a narrative line per contributor
//!     --history F      history file for the no-side form (default
//!                      bench/history.jsonl)
//!     --json           emit the `diff-v1` JSON document instead of text
//!     --out F          write the report to F instead of stdout
//! liquid-simd tables [--jobs N] [--smoke]
//!                      regenerate the paper's tables/figures in parallel
//! liquid-simd bench [--jobs N] [--smoke] [--progress] [--out BENCH_sim.json]
//!                      benchmark of the simulator: scalar baseline plus
//!                      liquid cycles at every width per workload, counter
//!                      telemetry, and the parallel sweep; writes a JSON
//!                      snapshot AND appends one perfhist-v1 record to the
//!                      append-only history
//!     --backend B      run every simulation on this backend; recorded in
//!                      the snapshot and the perfhist-v1 record
//!     --ledger         embed each workload's compact ledger snapshot at
//!                      the headline width in the perfhist-v1 record (every
//!                      run records the ledger; its `ledger.*` counters are
//!                      always in the record)
//!     --history F      history file (default bench/history.jsonl)
//!     --no-history     skip the history append
//!     --serve          load-test the serve daemon instead: N clients × M
//!                      pipelined requests, run at 1 shard and again at
//!                      --shards K, hard-failing on any byte difference
//!                      between the passes or a translation-cache hit
//!                      rate below 90%; appends perfhist-serve-v1 records
//!     --clients N      concurrent client connections (default 4)
//!     --requests N     requests per client (default auto-sized)
//!     --shards N       shard count of the sharded pass (default 8)
//!     --measure-recorder   third pass with the flight recorder disabled;
//!                      prints the wall-clock overhead delta and records
//!                      it in the BENCH_sim.json `notes` field
//!     --families       benchmark the generated kernel families instead of
//!                      the fixed suite: every corpus variant at every
//!                      width, summarised per family as a speedup
//!                      distribution (p10/p50/p90) with abort-reason
//!                      tallies and width anomalies; the snapshot has no
//!                      wall-clock fields, so two runs are byte-identical,
//!                      and one perfhist-gen-v1 record goes to the history
//!                      (--smoke keeps variants with trip <= 64, unroll <= 2)
//! liquid-simd gen [--list|--expand|--emit VARIANT|--check]
//!                      the declarative kernel-generator corpus
//!                      (bench/families/*.kernel, kernel-v1 format)
//!     --list           one variant name per line (the default)
//!     --expand         the deterministic expansion manifest: name, family,
//!                      trip, unroll, data seed, payload kind per line —
//!                      byte-identical across runs and hosts, CI `cmp`s two
//!     --emit VARIANT   print the variant's program: scalarized+outlined
//!                      assembly for kernels, raw assembly for the
//!                      deliberately untranslatable idioms
//!     --check          run every variant through the conform oracle
//!                      (translatable: full differential check at every
//!                      width; untranslatable: abort-never-mistranslate
//!                      with the expected tag) and gate on abort coverage
//!                      [--jobs N] [--json] [--out FILE]
//! liquid-simd serve [--addr A] [--shards N]
//!                      batched simulation daemon: line-delimited JSON
//!                      requests (translate|run|explain|conform|stats|
//!                      inspect|dump|shutdown) over TCP, answered in
//!                      request order per connection; repeat requests are
//!                      served from a cross-request translation cache and
//!                      responses are byte-identical at every shard count
//!     --addr A         bind address (default 127.0.0.1:7070)
//!     --shards N       worker shards (default min(cores, 8))
//!     --backend B      backend the daemon simulates with (responses are
//!                      byte-identical either way)
//!     --history F      perfhist-serve-v1 batch telemetry (default
//!                      bench/history.jsonl; --no-history to disable)
//!     --history-every N   flush a batch record every N requests
//!                      (default 64; a final record flushes at shutdown)
//!     --flight-capacity N   per-shard flight-recorder ring capacity
//!                      (default 4096; 0 disables the recorder)
//!     --flight-dir D   where black-box dumps go (worker panic,
//!                      budget-exceeded bursts, or the `dump` op); no
//!                      dumps are written without it
//!     --burst-threshold N   consecutive budget-exceeded errors that
//!                      trigger an automatic dump (default 8)
//!     --cache-cap N    translation-cache entry cap (default 0 =
//!                      unbounded; bounded caches evict LRU)
//!     --inject-faults  honor the test-only `inject:"panic"` request
//!                      field (crash drills; off by default)
//! liquid-simd inspect [--addr A] [--raw] [--scrub]
//!                      one `metrics-v1` snapshot from a live daemon:
//!                      counters, pow2 latency/cycle histograms, cache
//!                      occupancy, flight-ring health — rendered as text
//!                      (--raw: the JSON line; --scrub: schedule-scrubbed
//!                      JSON for byte-comparing daemons)
//! liquid-simd top [--addr A] [--interval S] [--count N] [--once]
//!                      live terminal view over `inspect`: throughput,
//!                      p50/p95/p99 latency, cache hit rate, abort
//!                      tallies; plain ANSI, redrawn every --interval
//!                      seconds (default 2; --once prints a single frame
//!                      with no escape codes)
//! liquid-simd sentinel [--baseline REF] [--json]
//!                      regression gate over the history: deterministic
//!                      sim_cycles must match the baseline record exactly
//!                      (any drift fails, improvements included);
//!                      wall-clock throughput only warns (median/MAD band);
//!                      baselines pair only within the same backend
//!     --history F      history file (default bench/history.jsonl)
//!     --window N       baseline window size (default 5)
//!     --noise-frac X   wall-clock warn fraction (default 0.15)
//!     --cross-backend  instead gate that the newest interp and superblock
//!                      records (same commit/config) report identical
//!                      deterministic sim cycles at every width
//! liquid-simd dashboard [--out report.html]
//!                      render the history as one self-contained HTML file
//!                      (inline SVG/CSS, no JavaScript, no external
//!                      fetches): cycle-trend sparklines, width-speedup
//!                      bars, counter deltas, and a flamegraph
//!     --history F      history file (default bench/history.jsonl)
//!     --flame W        workload profiled for the flamegraph (default fir)
//!     --flight-dir D   fold any flight-v1 dumps in D into the report
//!                      (stage tallies + failing-request lifecycle)
//!     --snapshot F     embed a `metrics-v1` snapshot (an `inspect`
//!                      response line) as live tiles + histogram charts
//! liquid-simd conform [--seed S] [--cases N] [--jobs N] [--json]
//!                      generative differential conformance: random legal
//!                      and illegal loops through every pipeline at every
//!                      width, plus the abort-injection sweep; failing
//!                      cases are shrunk and written to the corpus dir
//!     --out FILE       write the conform-v1 JSON report to FILE
//!     --corpus-dir D   where minimized failures go (default tests/corpus)
//!     --no-shrink      report raw failing specs without minimizing
//! ```

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use liquid_simd::{experiments, Machine, MachineConfig, RunReport};
use liquid_simd_isa::{asm, object, Program};
use liquid_simd_perfhist as perfhist;
use liquid_simd_serve as serve;
use liquid_simd_trace::{export, Histogram, Json, TraceConfig, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("liquid-simd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "asm" => cmd_asm(rest),
        "disasm" => cmd_disasm(rest),
        "run" => cmd_run(rest),
        "translate" => cmd_translate(rest),
        "trace" => cmd_trace(rest),
        "explain" => cmd_explain(rest),
        "profile" => cmd_profile(rest),
        "diff" => cmd_diff(rest),
        "tables" => cmd_tables(rest),
        "bench" => cmd_bench(rest),
        "gen" => cmd_gen(rest),
        "serve" => cmd_serve(rest),
        "inspect" => cmd_inspect(rest),
        "top" => cmd_top(rest),
        "sentinel" => cmd_sentinel(rest),
        "dashboard" => cmd_dashboard(rest),
        "conform" => cmd_conform(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: liquid-simd <asm|disasm|run|translate|trace|explain|profile|diff|tables|bench|gen|serve|inspect|top|sentinel|dashboard|conform|help> [args]\n\
     \n\
     asm <input.s> -o <out.lsim>\n\
     disasm <prog.lsim>\n\
     run <prog.s|prog.lsim> [--lanes N] [--backend interp|superblock]\n\
         [--native] [--jit] [--report] [--trace] [--trace-out FILE]\n\
     translate <prog.s|prog.lsim> [--lanes N]\n\
     trace <prog.s|prog.lsim> [--lanes N] [--backend B] [--native] [--jit]\n\
         [--out trace.json] [--instructions]\n\
     explain <prog|workload> [--widths 2,4,8,16] [--backend B] [--json]\n\
         [--interrupt-every N] [--all-calls]\n\
     profile <prog|workload> [--lanes N] [--json] [--top N]\n\
         [--trace-out trace.json]\n\
     diff [<A@wN|FILE> <B@wN|FILE>] [--backend B] [--json] [--out FILE]\n\
         [--history bench/history.jsonl]\n\
     tables [--jobs N] [--smoke]\n\
     bench [--jobs N] [--smoke] [--backend B] [--ledger] [--progress]\n\
         [--out BENCH_sim.json] [--history bench/history.jsonl]\n\
         [--no-history] [--serve [--clients N] [--requests N] [--shards N]\n\
         [--measure-recorder]] [--families]\n\
     gen [--list] [--expand] [--emit VARIANT] [--check [--jobs N] [--json]]\n\
         [--out FILE]\n\
     serve [--addr 127.0.0.1:7070] [--shards N] [--backend B]\n\
         [--history FILE] [--no-history] [--history-every N]\n\
         [--flight-capacity N] [--flight-dir DIR] [--burst-threshold N]\n\
         [--cache-cap N] [--inject-faults]\n\
     inspect [--addr 127.0.0.1:7070] [--raw] [--scrub]\n\
     top [--addr 127.0.0.1:7070] [--interval SECS] [--count N] [--once]\n\
     sentinel [--baseline REF] [--json] [--history FILE]\n\
         [--window N] [--noise-frac X] [--cross-backend]\n\
     dashboard [--out report.html] [--history FILE] [--flame WORKLOAD]\n\
         [--flight-dir DIR] [--snapshot FILE]\n\
     conform [--seed S] [--cases N] [--jobs N] [--json] [--out FILE]\n\
         [--corpus-dir DIR] [--no-shrink]"
        .to_string()
}

/// Loads a program from either assembly text or an object file, by
/// extension (falling back to content sniffing).
fn load_program(path: &str) -> Result<Program, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let looks_binary = bytes.starts_with(object::MAGIC);
    if path.ends_with(".lsim") || looks_binary {
        object::read(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        asm::assemble(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args
                .get(i + 1)
                .map(|s| Some(s.as_str()))
                .ok_or_else(|| format!("{name} needs a value"));
        }
    }
    Ok(None)
}

/// `--backend interp|superblock` — which execution backend simulates the
/// program. Both retire bit-identical architectural state and cycle
/// counts; superblock pre-lowers straight-line runs for throughput.
fn parse_backend(args: &[String]) -> Result<liquid_simd::BackendKind, String> {
    match option_value(args, "--backend")? {
        None => Ok(liquid_simd::BackendKind::default()),
        Some(v) => liquid_simd::BackendKind::parse(v)
            .ok_or_else(|| format!("bad --backend `{v}` (interp or superblock)")),
    }
}

fn parse_lanes(args: &[String]) -> Result<usize, String> {
    match option_value(args, "--lanes")? {
        None => Ok(8),
        Some(v) => {
            let lanes: usize = v.parse().map_err(|_| format!("bad --lanes `{v}`"))?;
            if lanes != 0 && !((2..=16).contains(&lanes) && lanes.is_power_of_two()) {
                return Err("--lanes must be 0 (scalar) or a power of two in 2..=16".into());
            }
            Ok(lanes)
        }
    }
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("asm: missing input file")?;
    let output = option_value(args, "-o")?
        .map(str::to_string)
        .unwrap_or_else(|| input.strip_suffix(".s").unwrap_or(input).to_string() + ".lsim");
    let text = fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let program = asm::assemble(&text).map_err(|e| format!("{input}: {e}"))?;
    let bytes = object::write(&program).map_err(|e| e.to_string())?;
    fs::write(&output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{output}: {} instructions ({} bytes code, {} bytes data, {} symbols)",
        program.code.len(),
        program.code_bytes(),
        program.data_bytes(),
        program.symbols.len()
    );
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("disasm: missing input file")?;
    let program = load_program(input)?;
    print!("{}", program.disassemble());
    Ok(())
}

/// Maps the CLI's `--lanes 0` / `--native` / `--jit` flag triage onto the
/// shared renderer's [`machine_config`](serve::ops::machine_config), so
/// one-shot runs and the serve daemon configure machines identically.
fn config_from(args: &[String]) -> Result<MachineConfig, String> {
    let lanes = parse_lanes(args)?;
    let mode = if lanes == 0 {
        serve::proto::Mode::Scalar
    } else if flag(args, "--native") {
        serve::proto::Mode::Native
    } else {
        serve::proto::Mode::Liquid
    };
    Ok(serve::ops::machine_config(mode, lanes, flag(args, "--jit"))
        .with_backend(parse_backend(args)?))
}

fn print_report(report: &RunReport) {
    print!("{}", serve::ops::report_text(report));
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("run: missing input file")?;
    let program = load_program(input)?;
    let mut cfg = config_from(args)?;
    let trace_out = option_value(args, "--trace-out")?.map(str::to_string);
    let tracing = flag(args, "--trace") || trace_out.is_some();
    let tracer = tracing.then(Tracer::new);
    if let Some(t) = &tracer {
        cfg = cfg.with_tracer(t.clone());
    }
    let mut machine = Machine::new(&program, cfg);
    let report = machine.run().map_err(|e| e.to_string())?;
    if flag(args, "--report") {
        print_report(&report);
    } else {
        print!("{}", serve::ops::run_summary(&report));
    }
    if let Some(t) = &tracer {
        if let Some(path) = &trace_out {
            write_trace(t, path)?;
        }
        print!("{}", export::summary(t));
    }
    Ok(())
}

/// Writes the recorded event stream: Chrome trace-event JSON for `.json`
/// paths (loadable in Perfetto / chrome://tracing), JSON-lines otherwise.
fn write_trace(tracer: &Tracer, path: &str) -> Result<(), String> {
    let records = tracer.records();
    let text = if path.ends_with(".json") {
        export::chrome_trace(&records)
    } else {
        export::json_lines(&records)
    };
    fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} events written{}",
        records.len(),
        if tracer.dropped() > 0 {
            format!(" ({} dropped by ring capacity)", tracer.dropped())
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("trace: missing input file")?;
    let program = load_program(input)?;
    let tracer = Tracer::with_config(TraceConfig {
        instructions: flag(args, "--instructions"),
        ..TraceConfig::default()
    });
    let cfg = config_from(args)?.with_tracer(tracer.clone());
    let mut machine = Machine::new(&program, cfg);
    machine.run().map_err(|e| e.to_string())?;
    let out = option_value(args, "--out")?.unwrap_or("trace.json");
    write_trace(&tracer, out)?;
    print!("{}", export::summary(&tracer));
    Ok(())
}

fn cmd_translate(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("translate: missing input file")?;
    let program = load_program(input)?;
    let lanes = parse_lanes(args)?;
    if lanes < 2 {
        return Err("translate: --lanes must be >= 2".into());
    }
    let (text, _) = serve::ops::translate_text(&program, lanes).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

/// Resolves an input that is either a program file (by path) or a
/// benchmark workload name (case-insensitive match against the suite, in
/// which case the Liquid build's program is used). Returns the program and
/// a display name.
fn resolve_program(input: &str) -> Result<(Program, String), String> {
    if std::path::Path::new(input).exists() {
        return Ok((load_program(input)?, input.to_string()));
    }
    let wanted = input.to_ascii_lowercase();
    for w in liquid_simd_workloads::all() {
        if w.name.to_ascii_lowercase() == wanted {
            let b = liquid_simd::build_liquid(&w).map_err(|e| format!("{}: {e}", w.name))?;
            return Ok((b.program, w.name));
        }
    }
    let names: Vec<String> = liquid_simd_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .collect();
    Err(format!(
        "`{input}` is neither a file nor a workload (workloads: {})",
        names.join(", ")
    ))
}

fn parse_widths(args: &[String]) -> Result<Vec<usize>, String> {
    let Some(list) = option_value(args, "--widths")? else {
        return Ok(experiments::paper_widths());
    };
    let mut widths = Vec::new();
    for part in list.split(',') {
        let w: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad width `{part}` in --widths"))?;
        if !((2..=16).contains(&w) && w.is_power_of_two()) {
            return Err(format!(
                "--widths entries must be powers of two in 2..=16, got {w}"
            ));
        }
        widths.push(w);
    }
    if widths.is_empty() {
        return Err("--widths needs at least one width".into());
    }
    Ok(widths)
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("explain: missing program file or workload name")?;
    let (program, name) = resolve_program(input)?;
    let interrupt_every = match option_value(args, "--interrupt-every")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --interrupt-every `{v}`"))?,
    };
    let opts = liquid_simd::ExplainOptions {
        widths: parse_widths(args)?,
        interrupt_every,
        all_calls: flag(args, "--all-calls"),
        backend: parse_backend(args)?,
    };
    let report = liquid_simd::explain(&program, &name, &opts).map_err(|e| e.to_string())?;
    if flag(args, "--json") {
        print!("{}", liquid_simd::diagnose::explain_json(&report));
    } else {
        print!("{}", liquid_simd::diagnose::render_explain(&report));
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let input = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or("profile: missing program file or workload name")?;
    let (program, name) = resolve_program(input)?;
    let lanes = parse_lanes(args)?;
    let top = match option_value(args, "--top")? {
        None => 10,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --top `{v}` (need an integer >= 1)")),
        },
    };
    let report = liquid_simd::profile(&program, &name, lanes).map_err(|e| e.to_string())?;
    if let Some(path) = option_value(args, "--trace-out")? {
        let text = export::chrome_trace_with_spans(&report.records, &report.spans);
        fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "{path}: {} events, {} spans written",
            report.records.len(),
            report.spans.len()
        );
    }
    if flag(args, "--json") {
        print!("{}", liquid_simd::diagnose::profile_json(&report, top));
    } else {
        print!("{}", liquid_simd::diagnose::render_profile(&report, top));
    }
    Ok(())
}

fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match option_value(args, "--jobs")? {
        None => Ok(liquid_simd::default_jobs()),
        Some(v) => match v.parse::<usize>() {
            Ok(j) if j >= 1 => Ok(j),
            _ => Err(format!("bad --jobs `{v}` (need an integer >= 1)")),
        },
    }
}

/// The workload set and width sweep a `tables`/`bench` invocation uses:
/// all fifteen benchmarks over the paper's widths, or the three-benchmark
/// smoke subset over two widths with `--smoke` (CI-sized).
fn bench_suite(args: &[String]) -> (Vec<liquid_simd::Workload>, Vec<usize>) {
    if flag(args, "--smoke") {
        (liquid_simd_workloads::smoke(), vec![2, 8])
    } else {
        (liquid_simd_workloads::all(), experiments::paper_widths())
    }
}

fn cmd_tables(args: &[String]) -> Result<(), String> {
    let jobs = parse_jobs(args)?;
    let (workloads, widths) = bench_suite(args);
    let err = |e: liquid_simd::VerifyError| e.to_string();

    println!("── Table 5: outlined-function sizes (functions, mean, max) ──");
    for row in experiments::table5_jobs(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Table 6: first-call gaps (<150, <300, >=300, mean) ──");
    for row in experiments::table6_jobs(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Figure 6: speedup at widths {widths:?} (liquid | built-in | native) ──");
    for row in experiments::figure6_jobs(&workloads, &widths, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Code size (plain, liquid, overhead, extra data) ──");
    for row in experiments::code_size_jobs(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    println!("\n── Microcode cache at 8x64 (loops, max uops, evictions, microcode calls) ──");
    for row in experiments::mcache_jobs(&workloads, jobs).map_err(err)? {
        println!("{row}");
    }
    Ok(())
}

/// Renders experiment rows to the exact text a user would see, so serial
/// and parallel sweeps can be compared byte for byte.
fn render_rows<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

/// Flags workloads where a wider SIMD width simulated **more** cycles than
/// the next narrower one. Legal (strip-mining remainders, width-dependent
/// abort fallbacks) but always worth a human look — e.g. `179.art` at
/// width 16 costing more cycles than at width 8.
fn width_anomalies(rows: &[perfhist::WorkloadRow]) -> Vec<String> {
    let mut out = Vec::new();
    for row in rows {
        for pair in row.cycles_by_width.windows(2) {
            let ((narrow, narrow_cycles), (wide, wide_cycles)) = (pair[0], pair[1]);
            if wide > narrow && wide_cycles > narrow_cycles {
                out.push(format!(
                    "{}: width {wide} took {wide_cycles} cycles, more than width \
                     {narrow}'s {narrow_cycles}",
                    row.name
                ));
            }
        }
    }
    out
}

/// The structured `width_anomalies` entries of the bench snapshot: each
/// inversion diffs the ledger snapshots of its two widths (`snaps`,
/// parallel to each row's `cycles_by_width`), and the entry carries the
/// top-3 attribution buckets of the delta plus the dominant cost category
/// — a machine-checked explanation, not just a flag.
fn width_anomaly_entries(
    rows: &[perfhist::WorkloadRow],
    snaps: &[Vec<liquid_simd::ledger::Snapshot>],
) -> Vec<Json> {
    let mut out = Vec::new();
    for (row, snaps) in rows.iter().zip(snaps) {
        for (pair, snap) in row.cycles_by_width.windows(2).zip(snaps.windows(2)) {
            let ((narrow, narrow_cycles), (wide, wide_cycles)) = (pair[0], pair[1]);
            if !(wide > narrow && wide_cycles > narrow_cycles) {
                continue;
            }
            let d = liquid_simd::ledger::diff::diff(&snap[0], &snap[1]);
            let buckets = d
                .categories
                .iter()
                .filter(|c| c.delta != 0)
                .take(3)
                .map(|c| {
                    Json::obj([
                        ("category", (&c.name).into()),
                        ("narrow_cycles", c.a_cycles.into()),
                        ("wide_cycles", c.b_cycles.into()),
                        ("delta", c.delta.into()),
                    ])
                });
            out.push(Json::obj([
                ("workload", (&row.name).into()),
                ("narrow_width", narrow.into()),
                ("narrow_cycles", narrow_cycles.into()),
                ("wide_width", wide.into()),
                ("wide_cycles", wide_cycles.into()),
                ("dominant_category", d.dominant_category.as_deref().into()),
                ("top_buckets", Json::arr(buckets)),
                (
                    "message",
                    format!(
                        "{}: width {wide} took {wide_cycles} cycles, more than width \
                         {narrow}'s {narrow_cycles}",
                        row.name
                    )
                    .into(),
                ),
            ]));
        }
    }
    out
}

/// Positional (non-flag) arguments, skipping the values of value-taking
/// flags.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a.as_str());
    }
    out
}

/// One side of a `diff`: `<prog|workload>@wN` simulates now and rolls the
/// run's ledger into a counter-corroborated snapshot; anything else must be
/// a history file, whose newest perfhist-v1 record is rolled into one.
fn diff_snapshot(
    spec: &str,
    backend: liquid_simd::BackendKind,
) -> Result<liquid_simd::ledger::Snapshot, String> {
    if let Some((base, width)) = spec.rsplit_once("@w") {
        if let Ok(w) = width.parse::<usize>() {
            if !((2..=16).contains(&w) && w.is_power_of_two()) {
                return Err(format!("bad width in `{spec}` (powers of two in 2..=16)"));
            }
            let (program, name) = resolve_program(base)?;
            let label = format!("{name}@w{w}");
            let cfg = MachineConfig::liquid(w).with_backend(backend);
            let out = liquid_simd::run(&program, cfg).map_err(|e| format!("{label}: {e}"))?;
            let names = liquid_simd::ledger_region_labels(&program, &out.report.ledger);
            return Ok(perfhist::counters::ledger_snapshot(
                &label,
                &out.report,
                &names,
            ));
        }
    }
    let path = std::path::Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "`{spec}` is neither `<prog|workload>@wN` nor a history file"
        ));
    }
    let records = perfhist::store::load(path)?;
    let rec = records
        .iter()
        .rev()
        .find(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
        .ok_or_else(|| format!("{spec}: no perfhist-v1 record"))?;
    Ok(record_snapshot(rec, spec))
}

/// Rolls one perfhist-v1 record into a diff-able snapshot: `ledger.*`
/// counters become the category totals, per-workload rows become the
/// regions (with the per-category split when the record was written under
/// `bench --ledger`), and every other deterministic counter rides along as
/// corroborating evidence.
fn record_snapshot(rec: &Json, label: &str) -> liquid_simd::ledger::Snapshot {
    use liquid_simd::ledger::{RegionSnap, Snapshot};
    let commit = rec.get("commit").and_then(Json::as_str).unwrap_or("?");
    let backend = rec.get("backend").and_then(Json::as_str).unwrap_or("?");
    let mut snap = Snapshot {
        label: format!("{label} ({commit}, {backend})"),
        ..Snapshot::default()
    };
    if let Some(pairs) = rec.get("counters").and_then(Json::as_obj) {
        for (k, v) in pairs {
            let Some(v) = v.as_u64() else { continue };
            if let Some(rest) = k.strip_prefix("ledger.") {
                if let Some(cat) = rest.strip_suffix(".cycles") {
                    snap.categories.entry(cat.to_string()).or_default().cycles = v;
                } else if let Some(cat) = rest.strip_suffix(".events") {
                    snap.categories.entry(cat.to_string()).or_default().events = v;
                }
            } else if !k.starts_with("backend.") {
                snap.counters.insert(k.clone(), v);
            }
        }
    }
    if let Some(rows) = rec.get("workloads").and_then(Json::as_arr) {
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let cycles = row.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0);
            snap.total_cycles += cycles;
            let mut r = RegionSnap {
                cycles,
                ..RegionSnap::default()
            };
            if let Some(cats) = row
                .get("ledger")
                .and_then(|l| l.get("categories"))
                .and_then(Json::as_obj)
            {
                for (cat, b) in cats {
                    r.by_category.insert(
                        cat.clone(),
                        b.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                    );
                }
            }
            snap.regions.insert(name, r);
        }
    }
    snap
}

/// `liquid-simd diff`: explain a performance delta from the cycle ledger.
fn cmd_diff(args: &[String]) -> Result<(), String> {
    let backend = parse_backend(args)?;
    let json = flag(args, "--json");
    let out_path = option_value(args, "--out")?;
    let sides = positionals(args, &["--backend", "--history", "--out"]);
    let (a, b) = match sides.len() {
        // No sides: the last two perfhist-v1 records of the history —
        // "what changed since the previous bench run?"
        0 => {
            let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
            let records = perfhist::store::load(std::path::Path::new(history_path))?;
            let mut v1: Vec<&Json> = records
                .iter()
                .filter(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
                .collect();
            if v1.len() < 2 {
                return Err(format!(
                    "{history_path}: need at least two perfhist-v1 records to diff \
                     (found {})",
                    v1.len()
                ));
            }
            let newest = v1.pop().expect("len checked");
            let previous = v1.pop().expect("len checked");
            (
                record_snapshot(previous, "history[-2]"),
                record_snapshot(newest, "history[-1]"),
            )
        }
        2 => (
            diff_snapshot(sides[0], backend)?,
            diff_snapshot(sides[1], backend)?,
        ),
        n => {
            return Err(format!(
                "diff takes zero or two sides, got {n}\n{}",
                usage()
            ))
        }
    };
    let d = liquid_simd::ledger::diff::diff(&a, &b);
    let rendered = if json {
        liquid_simd::ledger::diff::render_json(&d)
    } else {
        liquid_simd::ledger::diff::render_text(&d)
    };
    match out_path {
        Some(p) => {
            fs::write(p, &rendered).map_err(|e| format!("{p}: {e}"))?;
            println!("{p}: written");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    if flag(args, "--serve") {
        return cmd_bench_serve(args);
    }
    if flag(args, "--families") {
        return cmd_bench_families(args);
    }
    let jobs = parse_jobs(args)?;
    let (workloads, widths) = bench_suite(args);
    let smoke = flag(args, "--smoke");
    let embed_ledger = flag(args, "--ledger");
    let backend = parse_backend(args)?;
    let out_path = option_value(args, "--out")?.unwrap_or("BENCH_sim.json");
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    let err = |e: liquid_simd::VerifyError| e.to_string();
    // The headline width: the paper's 8-lane configuration when swept,
    // else the widest width in the sweep.
    let headline = if widths.contains(&8) {
        8
    } else {
        *widths.last().ok_or("bench: empty width sweep")?
    };

    // Per-workload measurements, all deterministic except wall clock: the
    // scalar baseline (speedup denominator), liquid cycles at every swept
    // width, wall-clock throughput of the headline run (the
    // predecoded-metadata fast path is what that number measures), and the
    // headline run's counter-telemetry snapshot.
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    let mut width_snaps = Vec::new();
    let mut counters = std::collections::BTreeMap::new();
    for w in &workloads {
        let plain = liquid_simd::build_plain(w).map_err(|e| format!("{}: {e}", w.name))?;
        let base = liquid_simd::run(
            &plain.program,
            MachineConfig::scalar_only().with_backend(backend),
        )
        .map_err(|e| e.to_string())?;
        let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", w.name))?;
        let mut row = perfhist::WorkloadRow {
            name: w.name.clone(),
            baseline_cycles: base.report.cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
            wall_s: 0.0,
            cycles_per_sec: 0.0,
        };
        let mut snaps = Vec::new();
        for &width in &widths {
            let t0 = Instant::now();
            let out = liquid_simd::run(
                &b.program,
                MachineConfig::liquid(width).with_backend(backend),
            )
            .map_err(|e| e.to_string())?;
            if width == headline {
                row.wall_s = t0.elapsed().as_secs_f64();
                row.sim_cycles = out.report.cycles;
                row.cycles_per_sec = out.report.cycles as f64 / row.wall_s.max(1e-9);
                perfhist::counters::merge(
                    &mut counters,
                    &perfhist::counters::snapshot(&out.report),
                );
            }
            let names = liquid_simd::ledger_region_labels(&b.program, &out.report.ledger);
            let label = format!("{}@w{width}", w.name);
            let snap = perfhist::counters::ledger_snapshot(&label, &out.report, &names);
            // Embedded snapshots make a record about four times larger,
            // so only `--ledger` asks for them.
            if embed_ledger && width == headline {
                row.ledger = Some(snap.json());
            }
            snaps.push(snap);
            row.cycles_by_width.push((width, out.report.cycles));
        }
        width_snaps.push(snaps);
        println!(
            "{:<14} {:>12} cycles @ {headline} lanes  ({:>9} scalar, {:.2}x)  \
             {:>8.3} ms  {:>12.0} sim-cycles/s",
            w.name,
            row.sim_cycles,
            row.baseline_cycles,
            row.baseline_cycles as f64 / row.sim_cycles.max(1) as f64,
            row.wall_s * 1e3,
            row.cycles_per_sec
        );
        rows.push(row);
    }

    // A wider machine that loses to a narrower one is surprising enough to
    // say out loud, not leave buried in the JSON snapshot.
    let anomalies = width_anomalies(&rows);
    for a in &anomalies {
        println!("warning: width anomaly — {a}");
    }
    // The snapshot gets the structured form: each inversion's ledger diff
    // names where the extra cycles went instead of just flagging that they
    // exist.
    let anomaly_entries = width_anomaly_entries(&rows, &width_snaps);

    // The Figure 6 sweep, serial then parallel: wall-clock speedup plus a
    // byte-identity check on the rendered rows (determinism gate). Per-task
    // timings go into the report so a disappointing speedup is diagnosable
    // (the 2024-era anomaly was a speedup of 0.992 with no way to tell
    // whether scheduling, build memoization, or one slow unit was at
    // fault).
    let n_units = workloads.len() * (1 + widths.len() * 3);
    let progress = |t: &liquid_simd::TaskTiming| {
        if flag(args, "--progress") {
            eprintln!(
                "  [worker {}] unit {}/{} done in {:.1} ms",
                t.worker,
                t.index + 1,
                n_units,
                t.wall_s * 1e3
            );
        }
    };
    let t0 = Instant::now();
    let (serial, _) = experiments::figure6_timed(&workloads, &widths, 1, &progress).map_err(err)?;
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (parallel, timings) =
        experiments::figure6_timed(&workloads, &widths, jobs, &progress).map_err(err)?;
    let parallel_s = t0.elapsed().as_secs_f64();
    let deterministic = render_rows(&serial) == render_rows(&parallel);
    let speedup = serial_s / parallel_s.max(1e-9);
    println!(
        "figure6 sweep: serial {serial_s:.3}s, parallel ({jobs} jobs) {parallel_s:.3}s, \
         {speedup:.2}x, {}",
        if deterministic {
            "byte-identical"
        } else {
            "NONDETERMINISTIC"
        }
    );
    // Busy seconds per worker: imbalance here (one worker owning most of
    // the wall time) explains a poor speedup.
    let n_workers = timings.iter().map(|t| t.worker + 1).max().unwrap_or(1);
    let mut worker_busy_s = vec![0.0f64; n_workers];
    for t in &timings {
        worker_busy_s[t.worker] += t.wall_s;
    }
    let speedup_warning = jobs > 1 && speedup < 1.05;
    if speedup_warning {
        println!(
            "warning: parallel sweep speedup {speedup:.3}x < 1.05x at {jobs} jobs — see the \
             per-task wall times in the report (worker busy seconds: {})",
            worker_busy_s
                .iter()
                .enumerate()
                .map(|(w, s)| format!("w{w}={s:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    let workload_rows = rows.iter().map(|row| {
        let by_width = row
            .cycles_by_width
            .iter()
            .map(|(w, c)| (w.to_string(), (*c).into()));
        Json::obj([
            ("name", (&row.name).into()),
            ("baseline_cycles", row.baseline_cycles.into()),
            ("sim_cycles", row.sim_cycles.into()),
            ("cycles_by_width", Json::obj(by_width)),
            ("wall_s", Json::fixed(row.wall_s, 6)),
            ("sim_cycles_per_sec", Json::fixed(row.cycles_per_sec, 0)),
        ])
    });
    let workers = worker_busy_s
        .iter()
        .enumerate()
        .map(|(w, &s)| Json::obj([("worker", w.into()), ("busy_s", Json::fixed(s, 6))]));
    let tasks = timings.iter().map(|t| {
        Json::obj([
            ("index", t.index.into()),
            ("worker", t.worker.into()),
            ("start_s", Json::fixed(t.start_s, 6)),
            ("wall_s", Json::fixed(t.wall_s, 6)),
        ])
    });
    let json = Json::obj([
        ("schema", "liquid-simd-bench-v1".into()),
        ("backend", backend.to_string().into()),
        ("jobs", jobs.into()),
        ("smoke", smoke.into()),
        ("widths", Json::arr(widths.iter().copied())),
        ("workloads", Json::arr(workload_rows)),
        ("width_anomalies", Json::Arr(anomaly_entries)),
        (
            "figure6_sweep",
            Json::obj([
                ("serial_s", Json::fixed(serial_s, 6)),
                ("parallel_s", Json::fixed(parallel_s, 6)),
                ("speedup", Json::fixed(speedup, 3)),
                ("deterministic", deterministic.into()),
                ("speedup_warning", speedup_warning.into()),
            ]),
        ),
        ("figure6_workers", Json::arr(workers)),
        ("figure6_tasks", Json::arr(tasks)),
    ])
    .write_rows();
    fs::write(out_path, json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{out_path}: written");

    // Append one perfhist-v1 record to the history. The record carries no
    // `jobs` field and isolates every wall-clock measurement, so two runs
    // of the same code differ only in scrubbable fields regardless of
    // parallelism (the determinism contract the sentinel gates on).
    if !flag(args, "--no-history") {
        let meta = perfhist::RecordMeta {
            commit: perfhist::record::git_commit(std::path::Path::new(".")),
            timestamp: perfhist::record::unix_now(),
            host: perfhist::record::host_fingerprint(),
            config_hash: format!("{:016x}", MachineConfig::liquid(headline).fingerprint()),
            smoke,
            widths: widths.clone(),
            backend: backend.name().to_string(),
        };
        let wall_extras = vec![
            ("figure6_serial_s".to_string(), serial_s),
            ("figure6_parallel_s".to_string(), parallel_s),
            ("figure6_speedup".to_string(), speedup),
        ];
        let record = perfhist::record::build(&meta, &rows, &counters, &wall_extras);
        perfhist::store::append(std::path::Path::new(history_path), &record)?;
        println!(
            "{history_path}: appended perfhist-v1 record for {}",
            meta.commit
        );
    }

    if !deterministic {
        return Err("parallel figure6 sweep diverged from the serial sweep".into());
    }
    Ok(())
}

/// Expands the embedded kernelgen corpus, with the `--smoke` filter (the
/// CI-sized cut: short trips, shallow unrolls) applied when asked.
fn gen_variants(smoke: bool) -> Result<Vec<liquid_simd_kernelgen::Variant>, String> {
    let all = liquid_simd_kernelgen::expand_corpus().map_err(|e| format!("gen: corpus: {e}"))?;
    Ok(all
        .into_iter()
        .filter(|v| !smoke || (v.trip <= 64 && v.unroll <= 2))
        .collect())
}

/// One manifest line per variant: everything the expansion determined,
/// nothing the clock or host did — two runs must produce byte-identical
/// manifests (the CI `cmp` gate on expansion determinism).
fn gen_manifest(variants: &[liquid_simd_kernelgen::Variant]) -> String {
    use liquid_simd_kernelgen::Payload;
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

/// `liquid-simd gen`: list, expand, emit, or conformance-check the
/// generated kernel families.
fn cmd_gen(args: &[String]) -> Result<(), String> {
    use liquid_simd_kernelgen::Payload;
    if flag(args, "--check") {
        return cmd_gen_check(args);
    }
    let variants = gen_variants(flag(args, "--smoke"))?;
    if let Some(wanted) = option_value(args, "--emit")? {
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
    let text = if flag(args, "--expand") {
        gen_manifest(&variants)
    } else {
        // --list (the default): names only.
        variants.iter().map(|v| format!("{}\n", v.name)).collect()
    };
    match option_value(args, "--out")? {
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

/// `gen --check`: every corpus variant through the conform oracle, plus
/// the abort-coverage gate (no reachable tag may go unexercised).
fn cmd_gen_check(args: &[String]) -> Result<(), String> {
    let jobs = parse_jobs(args)?;
    let (outcomes, coverage) = liquid_simd_conform::families::check_corpus(jobs);
    let passed = outcomes.iter().filter(|o| o.passed).count();
    let failed = outcomes.len() - passed;

    let fails: Vec<&liquid_simd_conform::oracle::CaseOutcome> =
        outcomes.iter().filter(|o| !o.passed).collect();
    let failures = fails
        .iter()
        .map(|f| Json::obj([("name", (&f.name).into()), ("detail", (&f.detail).into())]));
    let json = Json::obj([
        ("schema", "gen-check-v1".into()),
        ("variants", outcomes.len().into()),
        (
            "summary",
            Json::obj([
                ("passed", passed.into()),
                ("failed", failed.into()),
                ("ok", (failed == 0 && coverage.uncovered.is_empty()).into()),
            ]),
        ),
        ("failures", Json::arr(failures)),
        (
            "abort_coverage",
            liquid_simd_conform::coverage_json(&coverage),
        ),
    ])
    .write_rows();

    if let Some(path) = option_value(args, "--out")? {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if flag(args, "--json") {
        print!("{json}");
    } else {
        println!(
            "gen --check: {} variants — {passed} passed, {failed} failed",
            outcomes.len()
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

/// `bench --families`: benchmark the generated corpus instead of the
/// fixed fifteen. Every deterministic number (cycles, speedup
/// percentiles, abort tallies, width anomalies) goes into the snapshot;
/// wall-clock stays on stdout only, so the snapshot file is
/// byte-identical run to run — `cmp` of two runs is the CI determinism
/// gate.
fn cmd_bench_families(args: &[String]) -> Result<(), String> {
    use liquid_simd_kernelgen::Payload;
    let smoke = flag(args, "--smoke");
    let backend = parse_backend(args)?;
    let widths = if smoke {
        vec![2, 8]
    } else {
        experiments::paper_widths()
    };
    let headline = if widths.contains(&8) {
        8
    } else {
        *widths.last().unwrap()
    };
    let out_path = option_value(args, "--out")?.unwrap_or("BENCH_sim.json");
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    let variants = gen_variants(smoke)?;
    let t0 = Instant::now();

    struct FamAcc {
        variants: u64,
        speedups: Vec<f64>,
        aborts: std::collections::BTreeMap<String, u64>,
    }
    let mut fams: std::collections::BTreeMap<String, FamAcc> = std::collections::BTreeMap::new();
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    for v in &variants {
        let acc = fams.entry(v.family.clone()).or_insert_with(|| FamAcc {
            variants: 0,
            speedups: Vec::new(),
            aborts: std::collections::BTreeMap::new(),
        });
        acc.variants += 1;
        // Kernels get the full scalar-baseline + per-width sweep; the
        // untranslatable assembly idioms run per width only for their
        // abort tallies (their speedup is 1 by construction — they
        // always fall back to the scalar loop).
        let (program, baseline_cycles) = match &v.payload {
            Payload::Kernel(w) => {
                let plain = liquid_simd::build_plain(w).map_err(|e| format!("{}: {e}", v.name))?;
                let base = liquid_simd::run(
                    &plain.program,
                    MachineConfig::scalar_only().with_backend(backend),
                )
                .map_err(|e| e.to_string())?;
                let b = liquid_simd::build_liquid(w).map_err(|e| format!("{}: {e}", v.name))?;
                (b.program, base.report.cycles)
            }
            Payload::Asm { src, .. } => {
                let program = asm::assemble(src).map_err(|e| format!("{}: {e}", v.name))?;
                (program, 0)
            }
        };
        let mut row = perfhist::WorkloadRow {
            name: v.name.clone(),
            baseline_cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
            wall_s: 0.0,
            cycles_per_sec: 0.0,
        };
        for &width in &widths {
            let out =
                liquid_simd::run(&program, MachineConfig::liquid(width).with_backend(backend))
                    .map_err(|e| format!("{}@{width}: {e}", v.name))?;
            if width == headline {
                row.sim_cycles = out.report.cycles;
            }
            row.cycles_by_width.push((width, out.report.cycles));
            for (tag, &n) in &out.report.translator.aborts {
                *acc.aborts.entry((*tag).to_string()).or_insert(0) += n;
            }
        }
        if baseline_cycles > 0 {
            acc.speedups
                .push(baseline_cycles as f64 / row.sim_cycles.max(1) as f64);
            // Width anomalies only make sense where widths change the
            // cycle count; always-aborting variants run scalar at every
            // width.
            rows.push(row);
        }
    }

    let mut fam_rows: Vec<perfhist::FamilyRow> = Vec::new();
    for (family, acc) in &mut fams {
        acc.speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
        fam_rows.push(perfhist::FamilyRow {
            family: family.clone(),
            variants: acc.variants,
            speedup_p10: liquid_simd_trace::nearest_rank(&acc.speedups, 10.0),
            speedup_p50: liquid_simd_trace::nearest_rank(&acc.speedups, 50.0),
            speedup_p90: liquid_simd_trace::nearest_rank(&acc.speedups, 90.0),
            aborts: acc.aborts.iter().map(|(t, &n)| (t.clone(), n)).collect(),
        });
    }
    for f in &fam_rows {
        let aborts = f
            .aborts
            .iter()
            .map(|(t, n)| format!("{t}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<16} {:>3} variants  speedup p10 {:>5.2}x  p50 {:>5.2}x  p90 {:>5.2}x  {}",
            f.family,
            f.variants,
            f.speedup_p10,
            f.speedup_p50,
            f.speedup_p90,
            if aborts.is_empty() { "-" } else { &aborts }
        );
    }
    let anomalies = width_anomalies(&rows);
    for a in &anomalies {
        println!("warning: width anomaly — {a}");
    }

    // The snapshot: schema'd, sorted, and free of wall-clock and host
    // facts — rerunning must reproduce it byte for byte.
    let families = fam_rows.iter().map(|f| {
        let aborts = f.aborts.iter().map(|(t, n)| (t.clone(), (*n).into()));
        Json::obj([
            ("family", (&f.family).into()),
            ("variants", f.variants.into()),
            ("speedup_p10", Json::fixed(f.speedup_p10, 4)),
            ("speedup_p50", Json::fixed(f.speedup_p50, 4)),
            ("speedup_p90", Json::fixed(f.speedup_p90, 4)),
            ("aborts", Json::obj(aborts)),
        ])
    });
    let json = Json::obj([
        ("schema", "liquid-simd-bench-families-v1".into()),
        ("backend", backend.to_string().into()),
        ("smoke", smoke.into()),
        ("widths", Json::arr(widths.iter().copied())),
        ("variants", variants.len().into()),
        ("families", Json::arr(families)),
        ("width_anomalies", Json::arr(&anomalies)),
    ])
    .write_rows();
    fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{out_path}: written ({} variants, {} families, {:.3}s)",
        variants.len(),
        fam_rows.len(),
        t0.elapsed().as_secs_f64()
    );

    if !flag(args, "--no-history") {
        let meta = perfhist::RecordMeta {
            commit: perfhist::record::git_commit(std::path::Path::new(".")),
            timestamp: perfhist::record::unix_now(),
            host: perfhist::record::host_fingerprint(),
            config_hash: format!("{:016x}", MachineConfig::liquid(headline).fingerprint()),
            smoke,
            widths: widths.clone(),
            backend: backend.name().to_string(),
        };
        let wall = vec![("families_total_s".to_string(), t0.elapsed().as_secs_f64())];
        let record = perfhist::record::build_gen(&meta, &fam_rows, &wall);
        perfhist::store::append(std::path::Path::new(history_path), &record)?;
        println!(
            "{history_path}: appended perfhist-gen-v1 record for {}",
            meta.commit
        );
    }
    Ok(())
}

fn parse_count(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match option_value(args, name)? {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad {name} `{v}` (need an integer >= 1)")),
        },
    }
}

/// `bench --serve`: the daemon load generator. Two passes over the same
/// request multiset — one shard, then `--shards` — diffed byte for byte,
/// with the translation-cache hit rate gated at 90%.
fn cmd_bench_serve(args: &[String]) -> Result<(), String> {
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    let opts = serve::loadgen::LoadOptions {
        smoke: flag(args, "--smoke"),
        backend: parse_backend(args)?,
        clients: parse_count(args, "--clients", 4)?,
        requests_per_client: match option_value(args, "--requests")? {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad --requests `{v}` (need an integer)"))?,
        },
        shards: parse_count(args, "--shards", 8)?,
        min_hit_rate: 0.9,
        history: (!flag(args, "--no-history")).then(|| std::path::PathBuf::from(history_path)),
        seed: 0xC0FFEE,
        measure_recorder: flag(args, "--measure-recorder"),
    };
    let report = serve::loadgen::run(&opts)?;
    println!(
        "bench --serve: {} requests × 2 passes ({} clients) — byte-identical at 1 and {} shards",
        report.requests,
        opts.clients.max(1),
        report.shards
    );
    println!(
        "translation cache: {:.1}% hit rate (gate 90.0%), {} hits / {} misses in the sharded pass",
        report.hit_rate * 100.0,
        report.sharded.cache_hits,
        report.sharded.cache_misses
    );
    println!(
        "determinism: requests {:016x}, responses {:016x}, {} sim-cycles total \
         ({} error responses, identical in both passes)",
        report.sharded.determinism.0,
        report.sharded.determinism.1,
        report.sharded.determinism.2,
        report.errors
    );
    if let Some(history) = &opts.history {
        println!(
            "{}: appended {} perfhist-serve-v1 records",
            history.display(),
            report.single.records_appended + report.sharded.records_appended
        );
    }
    if let Some((on_s, off_s)) = report.recorder_walls_s {
        let frac = report.recorder_overhead_frac().unwrap_or(0.0);
        println!(
            "flight recorder overhead: {:+.1}% wall ({on_s:.3}s on vs {off_s:.3}s off, \
             sharded pass; responses byte-identical with the recorder off)",
            frac * 100.0
        );
        let note = format!(
            "flight recorder overhead {:+.1}% wall ({:.3}s on vs {:.3}s off, {} requests, \
             {} shards, backend {})",
            frac * 100.0,
            on_s,
            off_s,
            report.requests,
            report.shards,
            opts.backend.name()
        );
        let out = option_value(args, "--out")?.unwrap_or("BENCH_sim.json");
        record_bench_note(out, &note)?;
        println!("{out}: recorder-overhead note recorded");
    }
    Ok(())
}

/// Records one line in the bench snapshot's `notes` array (replacing any
/// previous notes) and rewrites the snapshot in its rows layout; a missing
/// snapshot gets a minimal one.
fn record_bench_note(path: &str, note: &str) -> Result<(), String> {
    let mut doc = match fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(_) => Json::obj([("schema", "liquid-simd-bench-v1".into())]),
    };
    if doc.as_obj().is_none() {
        return Err(format!("{path}: the bench snapshot is not a JSON object"));
    }
    doc.set("notes", Json::arr([note]));
    fs::write(path, doc.write_rows()).map_err(|e| format!("{path}: {e}"))
}

/// `liquid-simd serve`: bind the daemon and block until a `shutdown`
/// request (or a bind/accept failure) stops it.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = option_value(args, "--addr")?.unwrap_or("127.0.0.1:7070");
    let shards = parse_count(args, "--shards", liquid_simd::default_jobs().clamp(1, 8))?;
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    let flight_capacity = match option_value(args, "--flight-capacity")? {
        None => liquid_simd_trace::DEFAULT_FLIGHT_CAPACITY,
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --flight-capacity `{v}` (need an integer; 0 disables)"))?,
    };
    let cache_capacity = match option_value(args, "--cache-cap")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --cache-cap `{v}` (need an integer; 0 = unbounded)"))?,
    };
    let opts = serve::ServeOptions {
        addr: addr.to_string(),
        shards,
        history: (!flag(args, "--no-history")).then(|| std::path::PathBuf::from(history_path)),
        history_every: parse_count(args, "--history-every", 64)?,
        backend: parse_backend(args)?,
        flight_capacity,
        flight_dir: option_value(args, "--flight-dir")?.map(std::path::PathBuf::from),
        inject_faults: flag(args, "--inject-faults"),
        burst_threshold: parse_count(args, "--burst-threshold", 8)? as u64,
        cache_capacity,
    };
    if opts.inject_faults {
        eprintln!("liquid-simd serve: --inject-faults is on (test-only crash drills enabled)");
    }
    let handle = serve::spawn(opts)?;
    println!(
        "liquid-simd serve: listening on {} ({shards} shards) — line-delimited JSON, \
         {} to stop",
        handle.addr,
        Json::obj([("op", "shutdown".into())]).write()
    );
    let summary = handle.join()?;
    println!(
        "liquid-simd serve: {} requests ({} errors), cache {} hits / {} misses, \
         {} history records, {} flight dumps",
        summary.requests,
        summary.errors,
        summary.cache_hits,
        summary.cache_misses,
        summary.records_appended,
        summary.dumps
    );
    Ok(())
}

/// Sends one line-JSON request to a running daemon and parses the single
/// response line. `inspect` and `top` are pure observers, so a blocking
/// round-trip per poll is plenty.
fn serve_request(addr: &str, line: &str) -> Result<Json, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("connect {addr}: {e} (is `liquid-simd serve` running?)"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("{addr}: send: {e}"))?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| format!("{addr}: recv: {e}"))?;
    if resp.trim().is_empty() {
        return Err(format!(
            "{addr}: daemon closed the connection without answering"
        ));
    }
    Json::parse(resp.trim_end()).map_err(|e| format!("{addr}: bad response: {e}"))
}

/// Fetches one `metrics-v1` document from a daemon's `inspect` op.
fn fetch_metrics(addr: &str) -> Result<Json, String> {
    let resp = serve_request(addr, &Json::obj([("op", "inspect".into())]).write())?;
    match resp.get("metrics") {
        Some(m) => Ok(m.clone()),
        None => Err(format!(
            "{addr}: unexpected inspect response: {}",
            resp.write()
        )),
    }
}

/// Walks a dotted path through nested JSON objects; absent → 0.
fn path_u64(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

fn path_f64(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// One text frame over a `metrics-v1` document — shared by `inspect`
/// (one shot, with the full counter table) and `top` (redrawn per poll,
/// with a throughput line computed from the previous poll).
fn render_metrics_frame(
    out: &mut String,
    addr: &str,
    m: &Json,
    throughput: Option<f64>,
    counters_table: bool,
) {
    use std::fmt::Write;
    let backend = m.get("backend").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "liquid-simd @ {addr} — backend {backend}, {} shards, up {:.1}s",
        path_u64(m, &["shards"]),
        path_u64(m, &["uptime_us"]) as f64 / 1e6
    );
    let by_op = m
        .get("requests")
        .and_then(|r| r.get("by_op"))
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = write!(
        out,
        "requests   {} total ({} errors)",
        path_u64(m, &["requests", "total"]),
        path_u64(m, &["requests", "errors"])
    );
    if let Some(rps) = throughput {
        let _ = write!(out, "   throughput {rps:.1} req/s");
    }
    out.push('\n');
    if !by_op.is_empty() {
        let _ = writeln!(out, "ops        {by_op}");
    }
    for (label, name, unit) in [
        ("latency", "wall.latency_us", "us"),
        ("cycles", "request.cycles", ""),
    ] {
        let Some(h) = m
            .get("histograms")
            .and_then(|hs| hs.get(name))
            .and_then(Histogram::from_json)
        else {
            continue;
        };
        let _ = writeln!(
            out,
            "{label:<10} p50 <={}{unit}  p95 <={}{unit}  p99 <={}{unit}  max {}{unit}  \
             ({} samples)",
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max(),
            h.count()
        );
    }
    let cap = path_u64(m, &["cache", "translations", "capacity"]);
    let _ = writeln!(
        out,
        "cache      {:.1}% hit rate ({} hits / {} misses), {} entries{}, generation {}, \
         {} evictions, {} cached builds",
        path_f64(m, &["cache", "translations", "hit_rate"]) * 100.0,
        path_u64(m, &["cache", "translations", "hits"]),
        path_u64(m, &["cache", "translations", "misses"]),
        path_u64(m, &["cache", "translations", "entries"]),
        if cap == 0 {
            " (unbounded)".to_string()
        } else {
            format!(" (cap {cap})")
        },
        path_u64(m, &["cache", "translations", "generation"]),
        path_u64(m, &["cache", "translations", "evictions"]),
        path_u64(m, &["cache", "builds"])
    );
    let _ = writeln!(
        out,
        "flight     {} events (cap {}), {} dropped, {} contended",
        path_u64(m, &["flight", "events"]),
        path_u64(m, &["flight", "capacity"]),
        path_u64(m, &["flight", "dropped"]),
        path_u64(m, &["flight", "contended"])
    );
    // Abort-reason tallies straight from the merged shard counters
    // (`sim.translator.abort.<reason>`), the live view of why regions
    // fell back to scalar execution.
    let aborts = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("sim.translator.abort.")
                        .map(|tag| format!("{tag}={}", v.as_u64().unwrap_or(0)))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "aborts     {}",
        if aborts.is_empty() { "none" } else { &aborts }
    );
    // Per-backend cycle split from the merged shard counters
    // (`sim.backend.<name>.cycles` / `.runs`): which execution backend did
    // the simulated work, and how much of it.
    let mut backends: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    if let Some(pairs) = m.get("counters").and_then(Json::as_obj) {
        for (k, v) in pairs {
            let Some(rest) = k.strip_prefix("sim.backend.") else {
                continue;
            };
            let v = v.as_u64().unwrap_or(0);
            if let Some(name) = rest.strip_suffix(".cycles") {
                backends.entry(name.to_string()).or_default().0 = v;
            } else if let Some(name) = rest.strip_suffix(".runs") {
                backends.entry(name.to_string()).or_default().1 = v;
            }
        }
    }
    let split = backends
        .iter()
        .map(|(name, &(cycles, runs))| format!("{name} {cycles} cycles / {runs} runs"))
        .collect::<Vec<_>>()
        .join("   ");
    let _ = writeln!(
        out,
        "backends   {}",
        if split.is_empty() { "none" } else { &split }
    );
    // Merged ledger category cycles (`sim.ledger.<category>.cycles`) —
    // the serve-side view of the cycle ledger, scrub-stable at any shard
    // count because the shards sum.
    let ledger = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("sim.ledger.")
                        .and_then(|rest| rest.strip_suffix(".cycles"))
                        .filter(|_| v.as_u64().unwrap_or(0) > 0)
                        .map(|cat| format!("{cat}={}", v.as_u64().unwrap_or(0)))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "ledger     {}",
        if ledger.is_empty() { "none" } else { &ledger }
    );
    if counters_table {
        if let Some(pairs) = m.get("counters").and_then(Json::as_obj) {
            let table: std::collections::BTreeMap<String, u64> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
                .collect();
            out.push_str("counters\n");
            out.push_str(&liquid_simd::render_counter_table(&table));
        }
    }
}

/// `liquid-simd inspect`: one `metrics-v1` snapshot, rendered for humans
/// (or raw/scrubbed JSON for scripts and byte-comparisons).
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let addr = option_value(args, "--addr")?.unwrap_or("127.0.0.1:7070");
    let metrics = fetch_metrics(addr)?;
    if flag(args, "--raw") {
        println!("{}", metrics.write());
        return Ok(());
    }
    if flag(args, "--scrub") {
        println!("{}", serve::inspect::scrub(&metrics).write());
        return Ok(());
    }
    let mut frame = String::new();
    render_metrics_frame(&mut frame, addr, &metrics, None, true);
    print!("{frame}");
    Ok(())
}

/// `liquid-simd top`: poll `inspect` and redraw a plain-ANSI terminal
/// frame — throughput from the delta between polls, p50/p95/p99, cache
/// hit rate, abort tallies.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let addr = option_value(args, "--addr")?.unwrap_or("127.0.0.1:7070");
    let interval = match option_value(args, "--interval")? {
        None => 2.0,
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s > 0.0 => s,
            _ => return Err(format!("bad --interval `{v}` (need seconds > 0)")),
        },
    };
    let once = flag(args, "--once");
    let frames = if once {
        1
    } else {
        match option_value(args, "--count")? {
            None => 0, // poll until the daemon goes away (or ctrl-c)
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad --count `{v}` (need an integer >= 1)")),
            },
        }
    };
    let mut prev: Option<(Instant, u64)> = None;
    let mut drawn = 0usize;
    loop {
        let metrics = fetch_metrics(addr)?;
        let now = Instant::now();
        let total = path_u64(&metrics, &["requests", "total"]);
        let throughput = prev.map(|(t0, n0)| {
            let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
            total.saturating_sub(n0) as f64 / dt
        });
        prev = Some((now, total));
        let mut frame = String::new();
        render_metrics_frame(&mut frame, addr, &metrics, throughput, false);
        if once {
            // A single frame with no escape codes: pipeline-friendly.
            print!("{frame}");
        } else {
            // Home + clear-to-end keeps the redraw flicker-free on any
            // ANSI terminal; no raw mode, no external TUI machinery.
            print!("\x1b[H\x1b[2J{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        drawn += 1;
        if frames != 0 && drawn >= frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn cmd_sentinel(args: &[String]) -> Result<(), String> {
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    if flag(args, "--cross-backend") {
        return cmd_sentinel_cross(args, history_path);
    }
    let mut opts = perfhist::SentinelOptions {
        baseline_commit: option_value(args, "--baseline")?.map(str::to_string),
        ..perfhist::SentinelOptions::default()
    };
    if let Some(v) = option_value(args, "--window")? {
        opts.window = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --window `{v}` (need an integer >= 1)")),
        };
    }
    if let Some(v) = option_value(args, "--noise-frac")? {
        opts.noise_frac = match v.parse::<f64>() {
            Ok(f) if f > 0.0 => f,
            _ => return Err(format!("bad --noise-frac `{v}` (need a fraction > 0)")),
        };
    }
    let history = perfhist::store::load(std::path::Path::new(history_path))?;
    let verdict = perfhist::sentinel::check(&history, &opts);
    if flag(args, "--json") {
        println!("{}", verdict.json.write());
    } else {
        render_verdict(&verdict.json);
    }
    if verdict.failed {
        let status = verdict
            .json
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("fail");
        return Err(match status {
            "no-history" => {
                "sentinel: no history — run `liquid-simd bench` to seed bench/history.jsonl"
                    .to_string()
            }
            "no-baseline" => "sentinel: no comparable baseline record (config hash, width \
                 sweep, or smoke set changed) — re-seed bench/history.jsonl to acknowledge \
                 the change"
                .to_string(),
            _ => "sentinel: deterministic results drifted from the baseline (bench cycle \
                 counts or serve determinism hashes)"
                .to_string(),
        });
    }
    Ok(())
}

/// `sentinel --cross-backend`: assert the newest interp and superblock
/// bench records (same commit, same config) agree on every deterministic
/// cycle count. The regular sentinel pairs baselines *within* a backend;
/// this is the *between*-backend equality gate.
fn cmd_sentinel_cross(args: &[String], history_path: &str) -> Result<(), String> {
    let history = perfhist::store::load(std::path::Path::new(history_path))?;
    let verdict = perfhist::cross_check(&history);
    if flag(args, "--json") {
        println!("{}", verdict.json.write());
    } else {
        let get_str = |k: &str| verdict.json.get(k).and_then(Json::as_str).unwrap_or("?");
        println!(
            "sentinel --cross-backend: {} (interp {}, superblock {}, {} workloads checked)",
            get_str("status"),
            get_str("interp_commit"),
            get_str("superblock_commit"),
            verdict
                .json
                .get("workloads_checked")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );
        for d in verdict
            .json
            .get("cycle_drift")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            println!(
                "  DRIFT {} {}: interp {} vs superblock {}",
                d.get("workload").and_then(Json::as_str).unwrap_or("?"),
                d.get("metric").and_then(Json::as_str).unwrap_or("?"),
                d.get("interp").map_or_else(|| "?".to_string(), Json::write),
                d.get("superblock")
                    .map_or_else(|| "?".to_string(), Json::write),
            );
        }
    }
    if verdict.failed {
        return Err(
            match verdict
                .json
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("fail")
            {
                "no-pair" => "sentinel --cross-backend: need one bench record from each backend — \
                 run `liquid-simd bench` and `liquid-simd bench --backend superblock`"
                    .to_string(),
                "incomparable" => "sentinel --cross-backend: the newest interp and superblock \
                 records are from different commits or configs — re-run both benches on the \
                 same tree"
                    .to_string(),
                _ => "sentinel --cross-backend: superblock sim cycles diverged from the \
                 interpreter (the backends must be bit-exact)"
                    .to_string(),
            },
        );
    }
    Ok(())
}

/// Human rendering of a `sentinel-v1` verdict document.
fn render_verdict(v: &Json) {
    let get_str = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?");
    let get_arr = |k: &str| {
        v.get(k)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    println!(
        "sentinel: {} (commit {}, baseline {}, window {}, {} workloads checked)",
        get_str("status"),
        get_str("commit"),
        get_str("baseline_commit"),
        v.get("baseline_window").and_then(Json::as_u64).unwrap_or(0),
        v.get("workloads_checked")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );
    for d in get_arr("cycle_drift") {
        println!(
            "  DRIFT {} {}: {} -> {}",
            d.get("workload").and_then(Json::as_str).unwrap_or("?"),
            d.get("metric").and_then(Json::as_str).unwrap_or("?"),
            d.get("baseline").and_then(Json::as_u64).unwrap_or(0),
            d.get("current").and_then(Json::as_u64).unwrap_or(0),
        );
    }
    for w in get_arr("wall_warnings") {
        println!(
            "  warn {}: {:.0} sim-cycles/s vs median {:.0} (MAD {:.0}) — wall clock only, not gated",
            w.get("workload").and_then(Json::as_str).unwrap_or("?"),
            w.get("current").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("median").and_then(Json::as_f64).unwrap_or(0.0),
            w.get("mad").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    let deltas = get_arr("counter_deltas");
    if !deltas.is_empty() {
        println!(
            "  {} counter(s) changed vs baseline (informational):",
            deltas.len()
        );
        for d in deltas.iter().take(10) {
            println!(
                "    {} {} -> {}",
                d.get("counter").and_then(Json::as_str).unwrap_or("?"),
                d.get("baseline").and_then(Json::as_u64).unwrap_or(0),
                d.get("current").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        if deltas.len() > 10 {
            println!("    … and {} more", deltas.len() - 10);
        }
    }
    if let Some(serve) = v.get("serve") {
        println!(
            "  serve: {} ({} serve records, requests {})",
            serve.get("status").and_then(Json::as_str).unwrap_or("?"),
            serve.get("records").and_then(Json::as_u64).unwrap_or(0),
            serve
                .get("requests_hash")
                .and_then(Json::as_str)
                .unwrap_or("-"),
        );
        for d in serve
            .get("drift")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
        {
            println!(
                "  SERVE DRIFT {}: {} -> {}",
                d.get("metric").and_then(Json::as_str).unwrap_or("?"),
                d.get("baseline")
                    .map_or_else(|| "?".to_string(), Json::write),
                d.get("current")
                    .map_or_else(|| "?".to_string(), Json::write),
            );
        }
    }
}

fn cmd_dashboard(args: &[String]) -> Result<(), String> {
    let history_path = option_value(args, "--history")?.unwrap_or("bench/history.jsonl");
    let out = option_value(args, "--out")?.unwrap_or("report.html");
    let flame_workload = option_value(args, "--flame")?.unwrap_or("fir");
    let history = if std::path::Path::new(history_path).exists() {
        perfhist::store::load(std::path::Path::new(history_path))?
    } else {
        Vec::new()
    };
    // A traced run of one workload supplies the flamegraph: its span
    // records fold into `track;parent;child self_cycles` stacks.
    let (program, name) = resolve_program(flame_workload)?;
    let prof = liquid_simd::profile(&program, &name, 8).map_err(|e| e.to_string())?;
    let folded = export::folded_stacks(&prof.spans);
    // Optional observability panels: every flight-v1 dump under
    // --flight-dir (sorted by file name, i.e. dump order) and one
    // metrics-v1 snapshot file (an `inspect` response line works as-is).
    let mut dumps: Vec<(String, String)> = Vec::new();
    if let Some(dir) = option_value(args, "--flight-dir")? {
        let entries = fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if !file.ends_with(".jsonl") {
                continue;
            }
            let text = fs::read_to_string(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
            dumps.push((file, text));
        }
        dumps.sort();
    }
    let snapshot = match option_value(args, "--snapshot")? {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let html = perfhist::dashboard::render_extended(&history, &folded, &dumps, snapshot.as_ref());
    fs::write(out, &html).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{out}: written ({} history records, {} flame frames from {name}, {} flight dumps, \
         {} bytes, self-contained)",
        history.len(),
        folded.lines().count(),
        dumps.len(),
        html.len()
    );
    Ok(())
}

fn cmd_conform(args: &[String]) -> Result<(), String> {
    let seed = match option_value(args, "--seed")? {
        None => 0xC0FFEE,
        Some(v) => {
            let parsed = if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.map_err(|_| format!("bad --seed `{v}`"))?
        }
    };
    let cases = match option_value(args, "--cases")? {
        None => 200,
        Some(v) => v.parse().map_err(|_| format!("bad --cases `{v}`"))?,
    };
    let opts = liquid_simd_conform::ConformOptions {
        seed,
        cases,
        jobs: parse_jobs(args)?,
        shrink: !flag(args, "--no-shrink"),
    };
    let report = liquid_simd_conform::run_conform(&opts);

    let json = liquid_simd_conform::report_to_json(&report);
    if let Some(path) = option_value(args, "--out")? {
        fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{path}: written");
    }
    if flag(args, "--json") {
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
        let dir = option_value(args, "--corpus-dir")?.unwrap_or("tests/corpus");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_parsing() {
        let a = |s: &str| vec!["--lanes".to_string(), s.to_string()];
        assert_eq!(parse_lanes(&a("8")).unwrap(), 8);
        assert_eq!(parse_lanes(&a("0")).unwrap(), 0);
        assert_eq!(parse_lanes(&[]).unwrap(), 8);
        assert!(parse_lanes(&a("3")).is_err());
        assert!(parse_lanes(&a("32")).is_err());
        assert!(parse_lanes(&a("x")).is_err());
    }

    #[test]
    fn jobs_parsing() {
        let a = |s: &str| vec!["--jobs".to_string(), s.to_string()];
        assert_eq!(parse_jobs(&a("4")).unwrap(), 4);
        assert!(parse_jobs(&a("0")).is_err());
        assert!(parse_jobs(&a("x")).is_err());
        assert!(parse_jobs(&[]).unwrap() >= 1);
    }

    #[test]
    fn width_anomaly_detection_flags_slower_wider_widths() {
        let row = |name: &str, by_width: &[(usize, u64)]| perfhist::WorkloadRow {
            name: name.to_string(),
            baseline_cycles: 1_000,
            sim_cycles: by_width.last().map_or(0, |&(_, c)| c),
            cycles_by_width: by_width.to_vec(),
            wall_s: 0.0,
            cycles_per_sec: 0.0,
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
        let warnings = width_anomalies(&rows);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("179.art"));
        assert!(warnings[0].contains("width 16"));
        assert!(warnings[0].contains("2482896"));
        assert!(width_anomalies(&[]).is_empty());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(&["frobnicate".to_string()]).is_err());
        assert!(run_cli(&[]).is_err());
    }

    /// The acceptance-criteria exit-code contract: `sentinel` succeeds on a
    /// clean history and errors (→ process exit 1) the moment a record's
    /// deterministic `sim_cycles` drifts from the baseline.
    #[test]
    fn sentinel_exit_code_tracks_cycle_drift() {
        let dir = std::env::temp_dir().join(format!("cli-sentinel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = |cycles: u64| {
            Json::parse(&format!(
                r#"{{"schema":"perfhist-v1","commit":"c","timestamp":1,"host":"h","config_hash":"cafe","smoke":true,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"8":{cycles}}},"wall_s":0.5,"sim_cycles_per_sec":100.0}}],"counters":{{}},"wall":{{}}}}"#
            ))
            .unwrap()
        };
        perfhist::store::append(&path, &rec(250)).unwrap();
        perfhist::store::append(&path, &rec(250)).unwrap();
        let hist = path.to_str().unwrap().to_string();
        let args = |h: &str| {
            vec![
                "sentinel".to_string(),
                "--history".to_string(),
                h.to_string(),
                "--json".to_string(),
            ]
        };
        assert!(run_cli(&args(&hist)).is_ok(), "identical cycles pass");
        perfhist::store::append(&path, &rec(251)).unwrap();
        assert!(run_cli(&args(&hist)).is_err(), "perturbed cycles fail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inspect_and_top_poll_a_live_daemon() {
        let handle = serve::spawn(serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            history: None,
            ..serve::ServeOptions::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        // Push one real request through so the histograms have samples.
        let resp = serve_request(&addr, r#"{"op":"run","workload":"fir","id":"t1"}"#).unwrap();
        assert_eq!(
            resp.get("schema").and_then(Json::as_str),
            Some("serve-v1"),
            "{}",
            resp.write()
        );
        let args = |extra: &[&str]| {
            let mut v = vec![
                "inspect".to_string(),
                "--addr".to_string(),
                addr.to_string(),
            ];
            v.extend(extra.iter().map(|s| (*s).to_string()));
            v
        };
        assert!(run_cli(&args(&[])).is_ok(), "human inspect");
        assert!(run_cli(&args(&["--raw"])).is_ok(), "raw inspect");
        assert!(run_cli(&args(&["--scrub"])).is_ok(), "scrubbed inspect");
        let top = vec![
            "top".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--once".to_string(),
        ];
        assert!(run_cli(&top).is_ok(), "top --once");
        // The frame itself carries the live numbers `top` renders.
        let metrics = fetch_metrics(&addr).unwrap();
        let mut frame = String::new();
        render_metrics_frame(&mut frame, &addr, &metrics, Some(12.5), false);
        assert!(frame.contains("throughput 12.5 req/s"), "{frame}");
        assert!(frame.contains("latency    p50 <="), "{frame}");
        assert!(frame.contains("aborts"), "{frame}");
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn bench_notes_splice_keeps_the_snapshot_valid() {
        let dir = std::env::temp_dir().join(format!("cli-bench-note-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sim.json");
        let p = path.to_str().unwrap();
        std::fs::write(
            &path,
            "{\n  \"schema\": \"liquid-simd-bench-v1\",\n  \"jobs\": 4,\n  \"workloads\": [\n  ]\n}\n",
        )
        .unwrap();
        record_bench_note(p, "overhead +1.0% wall").unwrap();
        // Replacing an existing note must not duplicate the key.
        record_bench_note(p, "overhead +2.0% wall").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let notes = doc.get("notes").and_then(Json::as_arr).unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].as_str(), Some("overhead +2.0% wall"));
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(4));
        // A missing snapshot gets a minimal, parseable one.
        let fresh = dir.join("fresh.json");
        record_bench_note(fresh.to_str().unwrap(), "n").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        assert!(doc.get("notes").is_some());
        // And re-noting the minimal file stays valid (no trailing comma).
        record_bench_note(fresh.to_str().unwrap(), "n2").unwrap();
        Json::parse(&std::fs::read_to_string(&fresh).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
