//! `tables`: every table and figure of the paper's evaluation, in the
//! block format EXPERIMENTS.md embeds — Table 2, Tables 5 and 6, Figure 6
//! and its FIR callout, code size, the microcode-cache working set and
//! ablations A1 and A2.

use std::fmt::Write as _;

use liquid_simd::experiments::{
    self, CodeSizeRow, Figure6Row, JitAblationRow, LatencyAblationRow, McacheRow, Table5Row,
    Table6Row,
};
use liquid_simd::translator::area::{estimate, TranslatorGeometry};

use crate::args::{flag, Args, Command, JOBS};

#[rustfmt::skip]
pub static TABLES: Command = Command {
    usage: "tables",
    about: "every paper table and figure (the same bytes at any --jobs)",
    opts: &[JOBS, flag("--smoke", "3 workloads at widths 2,8 (CI-sized)")],
    run: cmd_tables,
};

/// Translation costs (cycles per observed instruction) of ablation A1.
const LATENCY_COSTS: [u64; 4] = [1, 10, 40, 100];
/// Software-JIT cost (cycles per observed instruction) of ablation A2.
const JIT_COST: u64 = 40;
/// FIR calls in the Figure 6 callout: enough to amortise the first,
/// scalar call the way the paper's full-length runs did.
const CALLOUT_REPS: u32 = 3000;

fn cmd_tables(args: &Args) -> Result<(), String> {
    let (workloads, widths) = crate::bench::suite(args.flag("--smoke"));
    print!("{}", render(&workloads, &widths, args.jobs()?)?);
    Ok(())
}

/// Renders all nine artifacts, each block followed by a blank line.
/// Every simulation is deterministic, so the text is the same bytes at
/// any `jobs`.
///
/// # Errors
///
/// Fails when a workload does not compile or simulate.
pub fn render(
    workloads: &[liquid_simd::Workload],
    widths: &[usize],
    jobs: usize,
) -> Result<String, String> {
    let err = |e: liquid_simd::VerifyError| e.to_string();
    let blocks = [
        render_table2(),
        render_table5(&experiments::table5_jobs(workloads, jobs).map_err(err)?),
        render_table6(&experiments::table6_jobs(workloads, jobs).map_err(err)?),
        render_figure6(
            &experiments::figure6_jobs(workloads, widths, jobs).map_err(err)?,
            widths,
        ),
        render_callout(jobs)?,
        render_code_size(&experiments::code_size_jobs(workloads, jobs).map_err(err)?),
        render_mcache(&experiments::mcache_jobs(workloads, jobs).map_err(err)?),
        render_latency(
            &experiments::ablation_latency_jobs(workloads, &LATENCY_COSTS, jobs).map_err(err)?,
        ),
        render_jit(&experiments::ablation_jit_jobs(workloads, JIT_COST, jobs).map_err(err)?),
    ];
    Ok(blocks.iter().map(|b| format!("{b}\n")).collect())
}

/// A block: its heading lines, then one indented line per row.
fn block<T: std::fmt::Display>(heading: &str, rows: impl IntoIterator<Item = T>) -> String {
    let mut out = heading.to_string();
    for r in rows {
        writeln!(out, "  {r}").expect("writing to a String");
    }
    out
}

/// Table 2: the dynamic translator's synthesis estimate at every width.
fn render_table2() -> String {
    let rows = experiments::paper_widths().into_iter().map(|lanes| {
        let e = estimate(&TranslatorGeometry::with_lanes(lanes));
        format!(
            "{:<6} {:<10} {:<10.2} {:<10.0} {:<9.0} {:<7.3} {:<9.0} {:<8.0}",
            lanes,
            e.critical_path_gates,
            e.delay_ns(),
            e.fmax_mhz(),
            e.total_cells(),
            e.area_mm2(),
            e.regstate_cells,
            e.buffer_cells,
        )
    });
    let mut out = block(
        "Table 2: dynamic translator synthesis (area/delay model; see DESIGN.md)\n  \
         width  crit.path  delay(ns)  fmax(MHz)  cells     mm^2    regstate  buffer\n",
        rows,
    );
    out.push_str("  paper (8-wide): 16 gates, 1.51 ns, 174,117 cells, < 0.2 mm^2\n");
    out
}

fn render_table5(rows: &[Table5Row]) -> String {
    block(
        "Table 5: scalar instructions in outlined functions\n  \
         benchmark       fns     mean   max\n",
        rows,
    )
}

fn render_table6(rows: &[Table6Row]) -> String {
    block(
        "Table 6: cycles between first two consecutive calls to outlined loops\n  \
         benchmark      <150  <300  >=300       mean\n",
        rows,
    )
}

fn render_figure6(rows: &[Figure6Row], widths: &[usize]) -> String {
    let at = widths
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("/");
    let mut out = block(
        &format!(
            "Figure 6: speedup vs scalar baseline\n  {:<15}{:<27}| {:<26}| native @{at}\n",
            "benchmark",
            format!("liquid @{at}"),
            format!("built-in ISA @{at}"),
        ),
        rows,
    );
    let worst = rows.iter().map(|r| r.overhead(8)).fold(f64::MIN, f64::max);
    writeln!(
        out,
        "  worst built-in-vs-liquid speedup difference at 8 lanes: {worst:.3}"
    )
    .expect("writing to a String");
    out
}

/// The Figure 6 callout: FIR's liquid-vs-built-in speedup difference at
/// [`CALLOUT_REPS`] calls (paper: worst case about 0.001).
fn render_callout(jobs: usize) -> Result<String, String> {
    let mut w = liquid_simd_workloads::fir();
    w.reps = CALLOUT_REPS;
    let c = experiments::overhead_callout(&w, jobs).map_err(|e| e.to_string())?;
    Ok(format!(
        "Figure 6 callout (FIR, {} calls): liquid {:.4}x, built-in {:.4}x, difference {:.4}\n",
        w.reps,
        c.liquid_speedup,
        c.builtin_speedup,
        c.difference()
    ))
}

fn render_code_size(rows: &[CodeSizeRow]) -> String {
    block(
        "Code size: plain vs Liquid binaries. These binaries are the hot\n\
         loops only; the paper's <1% is vs whole applications, shown in the\n\
         last column against a 256 KiB application text.\n  \
         benchmark        plain   liquid  ovhd      +data   vs-app\n",
        rows.iter()
            .map(|r| format!("{r} {:>8.3}%", r.overhead_vs_app(256 * 1024) * 100.0)),
    )
}

fn render_mcache(rows: &[McacheRow]) -> String {
    block(
        "Microcode cache working set at the paper's 8x64 geometry (2 KB)\n  \
         benchmark      loops  uops  evict  mcode%\n",
        rows,
    )
}

fn render_latency(rows: &[LatencyAblationRow]) -> String {
    let costs: String = LATENCY_COSTS
        .iter()
        .map(|c| format!(" cost={c:<10}"))
        .collect();
    block(
        &format!(
            "Ablation A1: cycles at increasing translation cost (cycles/observed instr)\n  \
             benchmark     {costs}\n"
        ),
        rows.iter().map(|r| {
            let cycles: String = LATENCY_COSTS
                .iter()
                .map(|c| format!(" {:<15}", r.cycles_by_cost[c]))
                .collect();
            format!("{:<14}{cycles}", r.benchmark)
        }),
    )
}

fn render_jit(rows: &[JitAblationRow]) -> String {
    block(
        "Ablation A2: hardware translator vs software JIT (stalls the CPU)\n  \
         benchmark      hw-cycles      jit-cycles     jit/hw\n",
        rows.iter().map(|r| {
            let ratio = r.jit_cycles as f64 / r.hw_cycles as f64;
            format!(
                "{:<14} {:<14} {:<14} {ratio:.3}",
                r.benchmark, r.hw_cycles, r.jit_cycles
            )
        }),
    )
}
