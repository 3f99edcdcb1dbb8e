//! `asm`, `disasm`, `run`, `translate` and `trace`: one program file
//! through the assembler, the simulator or the translator.

use std::fs;

use liquid_simd::{Machine, MachineConfig};
use liquid_simd_isa::{asm, object, Program};
use liquid_simd_serve as serve;
use liquid_simd_trace::{export, TraceConfig, Tracer};

use crate::args::{flag, opt, Args, Command, Opt, BACKEND};

const LANES: Opt = opt("--lanes", "N", "SIMD width (default 8; 0 = scalar only)");
const NATIVE: Opt = flag("--native", "no dynamic translation (vector binaries)");
const JIT: Opt = flag("--jit", "software-JIT translation (stalls the CPU)");

#[rustfmt::skip]
pub static ASM: Command = Command {
    usage: "asm <input.s>",
    about: "assemble to an object file",
    opts: &[opt("-o", "FILE", "output (default: the input, .s -> .lsim)")],
    run: cmd_asm,
};

#[rustfmt::skip]
pub static DISASM: Command = Command {
    usage: "disasm <prog.lsim>",
    about: "disassemble an object file",
    opts: &[],
    run: cmd_disasm,
};

#[rustfmt::skip]
pub static RUN: Command = Command {
    usage: "run <prog.s|prog.lsim>",
    about: "simulate to halt",
    opts: &[
        LANES,
        BACKEND,
        NATIVE,
        JIT,
        flag("--report", "print cache/translator statistics"),
        flag("--trace", "record dynamic events; print the trace summary"),
        opt("--trace-out", "FILE", "also write the events (.json: Chrome trace)"),
    ],
    run: cmd_run,
};

#[rustfmt::skip]
pub static TRANSLATE: Command = Command {
    usage: "translate <prog.s|prog.lsim>",
    about: "run once and print each translated microcode block",
    opts: &[opt("--lanes", "N", "SIMD width, >= 2 (default 8)")],
    run: cmd_translate,
};

#[rustfmt::skip]
pub static TRACE: Command = Command {
    usage: "trace <prog.s|prog.lsim>",
    about: "traced run: write the event stream and print its summary",
    opts: &[
        LANES,
        BACKEND,
        NATIVE,
        JIT,
        opt("--out", "FILE", "events (default trace.json; .json: Chrome trace)"),
        flag("--instructions", "also record every retired instruction"),
    ],
    run: cmd_trace,
};

/// Loads a program from either assembly text or an object file, by
/// extension (falling back to content sniffing).
pub fn load_program(path: &str) -> Result<Program, String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let looks_binary = bytes.starts_with(object::MAGIC);
    if path.ends_with(".lsim") || looks_binary {
        object::read(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        asm::assemble(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Resolves an input that is either a program file (by path) or a
/// benchmark workload name (case-insensitive match against the suite, in
/// which case the Liquid build's program is used). Returns the program and
/// a display name.
pub fn resolve_program(input: &str) -> Result<(Program, String), String> {
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

fn cmd_asm(args: &Args) -> Result<(), String> {
    let input = args.input();
    let output = args.value("-o").map_or_else(
        || input.strip_suffix(".s").unwrap_or(input).to_string() + ".lsim",
        str::to_string,
    );
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

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let program = load_program(args.input())?;
    print!("{}", program.disassemble());
    Ok(())
}

/// Maps the CLI's `--lanes 0` / `--native` / `--jit` flag triage onto the
/// shared renderer's [`machine_config`](serve::ops::machine_config), so
/// one-shot runs and the serve daemon configure machines identically.
fn config_from(args: &Args) -> Result<MachineConfig, String> {
    let lanes = args.lanes()?;
    let mode = if lanes == 0 {
        serve::proto::Mode::Scalar
    } else if args.flag("--native") {
        serve::proto::Mode::Native
    } else {
        serve::proto::Mode::Liquid
    };
    Ok(serve::ops::machine_config(mode, lanes, args.flag("--jit")).with_backend(args.backend()?))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let program = load_program(args.input())?;
    let mut cfg = config_from(args)?;
    let trace_out = args.value("--trace-out");
    let tracing = args.flag("--trace") || trace_out.is_some();
    let tracer = tracing.then(Tracer::new);
    if let Some(t) = &tracer {
        cfg = cfg.with_tracer(t.clone());
    }
    let mut machine = Machine::new(&program, cfg);
    let report = machine.run().map_err(|e| e.to_string())?;
    if args.flag("--report") {
        print!("{}", serve::ops::report_text(&report));
    } else {
        print!("{}", serve::ops::run_summary(&report));
    }
    if let Some(t) = &tracer {
        if let Some(path) = trace_out {
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

fn cmd_trace(args: &Args) -> Result<(), String> {
    let program = load_program(args.input())?;
    let tracer = Tracer::with_config(TraceConfig {
        instructions: args.flag("--instructions"),
        ..TraceConfig::default()
    });
    let cfg = config_from(args)?.with_tracer(tracer.clone());
    let mut machine = Machine::new(&program, cfg);
    machine.run().map_err(|e| e.to_string())?;
    write_trace(&tracer, args.value_or("--out", "trace.json"))?;
    print!("{}", export::summary(&tracer));
    Ok(())
}

fn cmd_translate(args: &Args) -> Result<(), String> {
    let program = load_program(args.input())?;
    let lanes = args.lanes()?;
    if lanes < 2 {
        return Err("translate: --lanes must be >= 2".into());
    }
    let (text, _) = serve::ops::translate_text(&program, lanes).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}
