//! `bench`, in its three modes: the fixed suite (plain), the generated
//! kernel families (`--families`) and the serve daemon load generator
//! (`--serve`). Each mode has its own option table.

use std::collections::BTreeMap;
use std::fs;

use liquid_simd::ledger::Snapshot;
use liquid_simd::{experiments, BackendKind, Binary, BuildCache, MachineConfig};
use liquid_simd_isa::asm;
use liquid_simd_perfhist as perfhist;
use liquid_simd_serve as serve;
use liquid_simd_trace::Json;

use crate::args::{flag, opt, Args, Command, Opt, BACKEND, DEFAULT_HISTORY, HISTORY, JOBS};

/// Where each mode writes its snapshot unless `--out` says otherwise. A
/// plain `bench --families` must not replace the committed Figure 6
/// snapshot, so the two differ.
const SUITE_SNAPSHOT: &str = "BENCH_sim.json";
const FAMILIES_SNAPSHOT: &str = "BENCH_families.json";
const OUT: Opt = opt("--out", "FILE", "snapshot path (default BENCH_sim.json)");
const FAMILIES_OUT: Opt = opt(
    "--out",
    "FILE",
    "snapshot path (default BENCH_families.json)",
);
const NO_HISTORY: Opt = flag("--no-history", "skip the history append");

#[rustfmt::skip]
pub static BENCH: Command = Command {
    usage: "bench",
    about: "simulated cycles per workload and width; snapshot + perfhist-v1 record",
    opts: &[
        JOBS,
        flag("--smoke", "3 workloads at widths 2 and 8 (CI-sized)"),
        BACKEND,
        OUT,
        HISTORY,
        NO_HISTORY,
    ],
    run: cmd_bench,
};

#[rustfmt::skip]
pub static BENCH_SERVE: Command = Command {
    usage: "bench --serve",
    about: "load-test the daemon at 1 and N shards: identical bytes, >= 90% cache hits",
    opts: &[
        flag("--smoke", "requests over the 3 smoke workloads (CI-sized)"),
        opt("--backend", "B", "backend the daemon simulates with (default interp)"),
        opt("--clients", "N", "concurrent client connections (default 4)"),
        opt("--requests", "N", "requests per client (default auto-sized)"),
        opt("--shards", "N", "shards of the sharded pass (default 8)"),
        flag("--measure-recorder", "third pass with the flight recorder off"),
        HISTORY,
        NO_HISTORY,
    ],
    run: cmd_bench_serve,
};

#[rustfmt::skip]
pub static BENCH_FAMILIES: Command = Command {
    usage: "bench --families",
    about: "every generated kernel at every width: speedup p10/p50/p90 per family",
    opts: &[
        flag("--smoke", "variants with trip <= 64, unroll <= 2; widths 2 and 8"),
        BACKEND,
        FAMILIES_OUT,
        HISTORY,
        NO_HISTORY,
    ],
    run: cmd_bench_families,
};

/// The workload set and width sweep a `tables`/`bench` invocation uses:
/// all fifteen benchmarks over the paper's widths, or the three-benchmark
/// smoke subset over two widths with `--smoke` (CI-sized).
pub fn suite(smoke: bool) -> (Vec<liquid_simd::Workload>, Vec<usize>) {
    let workloads = if smoke {
        liquid_simd_workloads::smoke()
    } else {
        liquid_simd_workloads::all()
    };
    (workloads, sweep_widths(smoke))
}

fn sweep_widths(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![2, 8]
    } else {
        experiments::paper_widths()
    }
}

/// The headline width of a sweep: the paper's 8-lane configuration when
/// swept, else the widest width swept.
fn headline_width(widths: &[usize]) -> usize {
    if widths.contains(&8) {
        8
    } else {
        widths.last().copied().unwrap_or(8)
    }
}

/// The metadata every bench history record carries.
pub fn record_meta(widths: &[usize], smoke: bool, backend: BackendKind) -> perfhist::RecordMeta {
    perfhist::RecordMeta {
        commit: perfhist::record::git_commit(std::path::Path::new(".")),
        timestamp: perfhist::record::unix_now(),
        host: perfhist::record::host_fingerprint(),
        config_hash: format!(
            "{:016x}",
            MachineConfig::liquid(headline_width(widths)).fingerprint()
        ),
        smoke,
        widths: widths.to_vec(),
        backend: backend.name().to_string(),
    }
}

/// A workload where a wider SIMD width simulated **more** cycles than
/// the next narrower one: `rows[row]`, between its widths `pair` and
/// `pair + 1`.
pub struct WidthAnomaly {
    pub row: usize,
    pub pair: usize,
    pub message: String,
}

/// Flags every width inversion. Legal but always worth a human look —
/// e.g. `179.art` at width 16 costing more cycles than at width 8: the
/// wider translation's microcode is still pending when one more call
/// arrives, so that call runs the scalar body (ROADMAP item 8).
pub fn width_anomalies(rows: &[perfhist::WorkloadRow]) -> Vec<WidthAnomaly> {
    let mut out = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        for (pi, pair) in row.cycles_by_width.windows(2).enumerate() {
            let ((narrow, narrow_cycles), (wide, wide_cycles)) = (pair[0], pair[1]);
            if wide > narrow && wide_cycles > narrow_cycles {
                out.push(WidthAnomaly {
                    row: ri,
                    pair: pi,
                    message: format!(
                        "{}: width {wide} took {wide_cycles} cycles, more than width \
                         {narrow}'s {narrow_cycles}",
                        row.name
                    ),
                });
            }
        }
    }
    out
}

/// The structured snapshot entry of one anomaly: it diffs the ledger
/// snapshots of its two widths (`snaps`, parallel to the row's
/// `cycles_by_width`) and carries the top-3 attribution buckets of the
/// delta plus the dominant cost category — a machine-checked
/// explanation, not just a flag.
fn anomaly_entry(a: &WidthAnomaly, row: &perfhist::WorkloadRow, snaps: &[Snapshot]) -> Json {
    let ((narrow, narrow_cycles), (wide, wide_cycles)) =
        (row.cycles_by_width[a.pair], row.cycles_by_width[a.pair + 1]);
    let d = liquid_simd::ledger::diff::diff(&snaps[a.pair], &snaps[a.pair + 1]);
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
    Json::obj([
        ("workload", (&row.name).into()),
        ("narrow_width", narrow.into()),
        ("narrow_cycles", narrow_cycles.into()),
        ("wide_width", wide.into()),
        ("wide_cycles", wide_cycles.into()),
        ("dominant_category", d.dominant_category.as_deref().into()),
        ("top_buckets", Json::arr(buckets)),
        ("message", (&a.message).into()),
    ])
}

/// A wider machine that loses to a narrower one is surprising enough to
/// say out loud, not leave buried in the JSON snapshot.
fn warn_anomalies(anomalies: &[WidthAnomaly]) {
    for a in anomalies {
        println!("warning: width anomaly — {}", a.message);
    }
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let jobs = args.jobs()?;
    let smoke = args.flag("--smoke");
    let (workloads, widths) = suite(smoke);
    let backend = args.backend()?;
    let out_path = args.value_or("--out", SUITE_SNAPSHOT);
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let bench = measure_suite(&workloads, &widths, jobs, backend, smoke)?;
    fs::write(out_path, &bench.doc).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{out_path}: written");

    // Append one perfhist-v1 record to the history. Like the snapshot, the
    // record holds only simulated results, so two runs of the same code
    // differ in nothing but `timestamp`, whatever `--jobs` was.
    if !args.flag("--no-history") {
        let meta = record_meta(&widths, smoke, backend);
        perfhist::store::append(std::path::Path::new(history_path), &bench.record(&meta))?;
        println!(
            "{history_path}: appended perfhist-v1 record for {}",
            meta.commit
        );
    }
    Ok(())
}

/// One `bench` measurement: the `liquid-simd-bench-v1` document and the
/// rows and merged counters its perfhist-v1 record is built from.
pub struct BenchRun {
    pub doc: String,
    rows: Vec<perfhist::WorkloadRow>,
    counters: BTreeMap<String, u64>,
}

impl BenchRun {
    /// The `perfhist-v1` record `bench` appends to the history.
    pub fn record(&self, meta: &perfhist::RecordMeta) -> Json {
        perfhist::record::build(meta, &self.rows, &self.counters)
    }
}

/// Measures `workloads` over `widths` on `backend` and prints one line
/// per workload, then gates the Figure 6 sweep: serial and over `jobs`
/// workers, its rows must be identical. Everything measured is simulated,
/// so the document and the printed lines are the same bytes on every run,
/// whatever `jobs` is.
///
/// # Errors
///
/// Fails on a compile or simulation error, and when the Figure 6 sweep
/// over `jobs` workers differs from the serial sweep.
pub fn measure_suite(
    workloads: &[liquid_simd::Workload],
    widths: &[usize],
    jobs: usize,
    backend: BackendKind,
    smoke: bool,
) -> Result<BenchRun, String> {
    // The serial sweep's cache also serves the per-workload rows; the
    // parallel sweep shares its builds and gold but simulates every run
    // again, so the gate compares two independent computations.
    let err = |e: liquid_simd::VerifyError| e.to_string();
    let cache = BuildCache::new(workloads);
    let serial = experiments::figure6_jobs(&cache, widths, 1, backend).map_err(err)?;
    let run = measure_rows(&cache, widths, backend, smoke)?;
    let fresh = cache.fresh_runs();
    let parallel = experiments::figure6_jobs(&fresh, widths, jobs, backend).map_err(err)?;
    if serial != parallel {
        return Err("parallel figure6 sweep diverged from the serial sweep".into());
    }
    println!("figure6 sweep: parallel rows byte-identical to the serial sweep");
    Ok(run)
}

/// [`measure_suite`] without the Figure 6 gate: the per-workload rows,
/// the merged counters and the snapshot document, over `cache`'s
/// workloads at `widths`. Its runs are the sweep's baseline and liquid
/// units, so on a cache the sweep has filled it simulates nothing.
///
/// # Errors
///
/// Fails on a compile or simulation error.
pub fn measure_rows(
    cache: &BuildCache,
    widths: &[usize],
    backend: BackendKind,
    smoke: bool,
) -> Result<BenchRun, String> {
    let headline = headline_width(widths);

    // Per-workload measurements: the scalar baseline (speedup
    // denominator), liquid cycles at every swept width, and the headline
    // run's counter-telemetry snapshot.
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    let mut width_snaps = Vec::new();
    let mut counters = BTreeMap::new();
    for (wi, w) in cache.workloads().iter().enumerate() {
        let err = |e: liquid_simd::VerifyError| format!("{}: {e}", w.name);
        let baseline = experiments::figure6_baseline(backend);
        let baseline = cache.run(wi, baseline).map_err(err)?;
        let program = &cache.build(wi, Binary::Liquid).map_err(err)?.program;
        let mut row = perfhist::WorkloadRow {
            name: w.name.clone(),
            baseline_cycles: baseline.report.cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
        };
        let mut snaps = Vec::new();
        for &width in widths {
            let [liquid, ..] = experiments::figure6_width_units(width, backend);
            let out = cache.run(wi, liquid).map_err(err)?;
            let names = liquid_simd::ledger_region_labels(program, &out.report.ledger);
            if width == headline {
                row.sim_cycles = out.report.cycles;
                perfhist::counters::merge(&mut counters, &out.report.counters());
                row.ledger = Some(Snapshot::from_ledger(&w.name, &out.report.ledger, &names));
            }
            let label = format!("{}@w{width}", w.name);
            let snap = perfhist::counters::ledger_snapshot(&label, &out.report, &names);
            snaps.push(snap);
            row.cycles_by_width.push((width, out.report.cycles));
        }
        width_snaps.push(snaps);
        println!(
            "{:<14} {:>12} cycles @ {headline} lanes  ({:>9} scalar, {:.2}x)",
            w.name,
            row.sim_cycles,
            row.baseline_cycles,
            row.baseline_cycles as f64 / row.sim_cycles.max(1) as f64,
        );
        rows.push(row);
    }

    // The snapshot gets the structured form of each warning: its ledger
    // diff names where the extra cycles went.
    let anomalies = width_anomalies(&rows);
    warn_anomalies(&anomalies);
    let anomaly_entries = anomalies
        .iter()
        .map(|a| anomaly_entry(a, &rows[a.row], &width_snaps[a.row]));

    let workload_rows = rows.iter().map(perfhist::WorkloadRow::cycles_json);
    let doc = Json::obj([
        ("schema", "liquid-simd-bench-v1".into()),
        ("backend", backend.to_string().into()),
        ("smoke", smoke.into()),
        ("widths", Json::arr(widths.iter().copied())),
        ("workloads", Json::arr(workload_rows)),
        ("width_anomalies", Json::arr(anomaly_entries)),
    ])
    .write_rows();
    Ok(BenchRun {
        doc,
        rows,
        counters,
    })
}

/// `bench --families`: benchmark the generated corpus instead of the
/// fixed fifteen. Every deterministic number (cycles, speedup
/// percentiles, abort tallies, width anomalies) goes into the snapshot,
/// and nothing else does, so the snapshot file is byte-identical run to
/// run (the tier-1 test `bench_families_snapshot_is_identical_run_to_run`).
fn cmd_bench_families(args: &Args) -> Result<(), String> {
    use liquid_simd_kernelgen::Payload;
    let smoke = args.flag("--smoke");
    let backend = args.backend()?;
    let widths = sweep_widths(smoke);
    let headline = headline_width(&widths);
    let out_path = args.value_or("--out", FAMILIES_SNAPSHOT);
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let variants = crate::gen::variants(smoke)?;

    /// How a variant runs: a kernel through the run memo, an abort
    /// witness (assembly, no workload) directly.
    enum Runs<'w> {
        Memo(BuildCache<'w>),
        Direct(liquid_simd_isa::Program),
    }
    #[derive(Default)]
    struct FamAcc {
        variants: u64,
        speedups: Vec<f64>,
        aborts: BTreeMap<String, u64>,
    }
    let mut fams: BTreeMap<String, FamAcc> = BTreeMap::new();
    let mut rows: Vec<perfhist::WorkloadRow> = Vec::new();
    for v in &variants {
        let acc = fams.entry(v.family.clone()).or_default();
        acc.variants += 1;
        // Kernels get the full scalar-baseline + per-width sweep through
        // the run memo, so every run is gold-checked; the untranslatable
        // assembly idioms have no workload (and no gold) and run per width
        // only for their abort tallies (their speedup is 1 by construction
        // — they always fall back to the scalar loop).
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", v.name);
        let runs = match &v.payload {
            Payload::Kernel(w) => Runs::Memo(BuildCache::new(std::slice::from_ref(&**w))),
            Payload::Asm { src, .. } => Runs::Direct(asm::assemble(src).map_err(|e| err(&e))?),
        };
        let baseline_cycles = match &runs {
            Runs::Memo(cache) => {
                let base = cache.run(0, experiments::figure6_baseline(backend));
                base.map_err(|e| err(&e))?.report.cycles
            }
            Runs::Direct(_) => 0,
        };
        let mut row = perfhist::WorkloadRow {
            name: v.name.clone(),
            baseline_cycles,
            sim_cycles: 0,
            cycles_by_width: Vec::new(),
            ledger: None,
        };
        for &width in &widths {
            let at = |e: &dyn std::fmt::Display| format!("{}@{width}: {e}", v.name);
            let (memo, direct);
            let report = match &runs {
                Runs::Memo(cache) => {
                    let [liquid, ..] = experiments::figure6_width_units(width, backend);
                    memo = cache.run(0, liquid).map_err(|e| at(&e))?;
                    &memo.report
                }
                Runs::Direct(program) => {
                    let cfg = MachineConfig::liquid(width).with_backend(backend);
                    (direct, _) = liquid_simd::simulate(program, cfg, &[]).map_err(|e| at(&e))?;
                    &direct
                }
            };
            if width == headline {
                row.sim_cycles = report.cycles;
            }
            row.cycles_by_width.push((width, report.cycles));
            for (tag, &n) in &report.translator.aborts {
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
        acc.speedups.sort_by(f64::total_cmp);
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
    warn_anomalies(&anomalies);

    // The snapshot: schema'd, sorted, and free of host facts — rerunning
    // must reproduce it byte for byte.
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
        (
            "width_anomalies",
            Json::arr(anomalies.iter().map(|a| &a.message)),
        ),
    ])
    .write_rows();
    fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{out_path}: written ({} variants, {} families)",
        variants.len(),
        fam_rows.len()
    );

    if !args.flag("--no-history") {
        let meta = record_meta(&widths, smoke, backend);
        let record = perfhist::record::build_gen(&meta, &fam_rows);
        perfhist::store::append(std::path::Path::new(history_path), &record)?;
        println!(
            "{history_path}: appended perfhist-gen-v1 record for {}",
            meta.commit
        );
    }
    Ok(())
}

/// `bench --serve`: the daemon load generator. Two passes over the same
/// request multiset — one shard, then `--shards` — diffed byte for byte,
/// with the translation-cache hit rate gated at 90%.
fn cmd_bench_serve(args: &Args) -> Result<(), String> {
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let defaults = serve::loadgen::LoadOptions::default();
    let opts = serve::loadgen::LoadOptions {
        smoke: args.flag("--smoke"),
        backend: args.backend_or(defaults.backend)?,
        clients: args.count("--clients", defaults.clients, 1)?,
        requests_per_client: args.count("--requests", defaults.requests_per_client, 0)?,
        shards: args.count("--shards", defaults.shards, 1)?,
        history: (!args.flag("--no-history")).then(|| std::path::PathBuf::from(history_path)),
        measure_recorder: args.flag("--measure-recorder"),
        ..defaults
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
    if opts.measure_recorder {
        println!(
            "flight recorder off: responses and determinism hashes byte-identical \
             (third pass at {} shards)",
            report.shards
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_suite_snapshots_default_to_different_files() {
        assert_ne!(SUITE_SNAPSHOT, FAMILIES_SNAPSHOT);
        let out_help = |c: &Command| {
            c.opts
                .iter()
                .find(|o| o.name == "--out")
                .expect("--out")
                .help
        };
        assert!(out_help(&BENCH).contains(SUITE_SNAPSHOT));
        assert!(out_help(&BENCH_FAMILIES).contains(FAMILIES_SNAPSHOT));
        assert!(!out_help(&BENCH_FAMILIES).contains(SUITE_SNAPSHOT));
    }
}
