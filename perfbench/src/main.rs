//! Host-time benchmark of the Liquid SIMD reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure6|families|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! layer-attributed traced passes and prints every per-layer metric. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Metric definitions per workload are in `perfbench/README.md`.

mod batch;
mod clock;
mod families;
mod figure6;
mod serve;
mod spans;
mod stats;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;

use liquid_simd_perfhist::Json;
use liquid_simd_workloads::util::XorShift64;

use crate::stats::Tally;

/// Named metric values, in output order.
pub type Metrics = Vec<(&'static str, f64)>;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("sim_minstr_per_cpu_s", "Minstr/s"),
    ("speedup_geomean_w8", "x"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer self times charged by spans (`--trace 1`).
pub const TIMED_LAYERS: &[&str] = &[
    "sim.new_s",
    "sim.scalar_s",
    "sim.liquid_s",
    "sim.native_s",
    "sim.pretranslated_s",
    "sim.pretranslated_warm_s",
    "compiler.build_s",
    "compiler.gold_s",
    "kernelgen.expand_s",
    "isa.assemble_s",
    "verify.self_s",
    "serve.parse_s",
    "serve.build_s",
    "serve.probe_s",
    "serve.execute_s",
    "serve.insert_s",
    "serve.respond_s",
];

/// Per-layer counters (`--trace 1`).
pub const COUNTED_LAYERS: &[&str] = &[
    "compiler.builds",
    "translator.attempts",
    "translator.successes",
    "translator.aborts",
    "mcache.hits",
    "mcache.misses",
    "mcache.evictions",
    "blocks.fallback_translator",
    "blocks.fallback_control",
    "sim.retired",
    "sim.cycles",
    "verify.checks",
];

/// Per-layer metrics measured outside spans, with their units.
const OTHER_LAYERS: &[(&str, &str)] = &[
    ("serve.transport_ms", "ms"),
    ("serve.hit_frac", "frac"),
    ("harness.traced_cpu_s", "s"),
    ("harness.unattributed_s", "s"),
    ("harness.trace_overhead_frac", "frac"),
    ("harness.wall_s", "s"),
    ("harness.sched_wait_s", "s"),
    ("harness.yardstick_s", "s"),
];

/// Every per-layer metric with its unit, in output order.
fn per_layer() -> Vec<(&'static str, &'static str)> {
    TIMED_LAYERS
        .iter()
        .map(|&n| (n, "s"))
        .chain(COUNTED_LAYERS.iter().map(|&n| (n, "count")))
        .chain(OTHER_LAYERS.iter().copied())
        .collect()
}

/// `0..n` in a `seed`-determined order (Fisher–Yates on the suite RNG).
#[must_use]
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = XorShift64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                map.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("figure6", trace) => {
            let pins = std::fs::read_to_string("BENCH_sim.json")
                .map_err(|e| format!("BENCH_sim.json (run from the repository root): {e}"))?;
            let b = figure6::Figure6::new(seed, figure6::parse_pins(&pins)?);
            if trace {
                batch::run_traced(&b, seconds)
            } else {
                batch::run_e2e(&b, seconds)
            }
        }
        ("families", trace) => {
            let b = families::Families::new(seed)?;
            if trace {
                batch::run_traced(&b, seconds)
            } else {
                batch::run_e2e(&b, seconds)
            }
        }
        ("serve", trace) => serve::run(seed, seconds, trace),
        (other, _) => Err(format!(
            "unknown workload `{other}` (figure6, families or serve)"
        )),
    }
}

/// Renders the result line: every metric of `table`, in table order.
fn result_line(table: &[(&'static str, &'static str)], metrics: &Metrics, tally: Tally) -> String {
    let values: BTreeMap<&str, f64> = metrics.iter().copied().collect();
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            let entry = Json::Obj(vec![
                ("value".to_string(), Json::f64(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted".to_string(), Json::u64(tally.attempted)),
        ("failed".to_string(), Json::u64(tally.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .write()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            let table = if args.trace {
                per_layer()
            } else {
                END_TO_END.to_vec()
            };
            for (name, value) in &metrics {
                if !value.is_finite() {
                    eprintln!("perfbench: metric {name} is not finite");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", result_line(&table, &metrics, tally));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(50, 7));
        assert_ne!(a, shuffled(50, 8));
    }

    #[test]
    fn args_need_every_flag() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.workload == "serve");
        assert!(parse_args(&argv("--workload serve --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 2")).is_err());
    }

    #[test]
    fn result_line_fills_every_table_metric() {
        let line = result_line(
            &[("cpu_s", "s"), ("ok_frac", "frac")],
            &vec![("cpu_s", 1.25)],
            Tally {
                attempted: 4,
                failed: 0,
            },
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("cpu_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert!(m.get("ok_frac").is_some());
    }
}
