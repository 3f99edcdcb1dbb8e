//! `figure6`: the paper's Figure 6 sweep — every workload, a scalar
//! baseline plus liquid, pretranslated and native units at each paper
//! width — on the interpreter and one thread, as `tables` and `bench`
//! run it through `experiments::figure6_jobs`.
//!
//! The untraced job issues the same per-unit facade calls as
//! `figure6_jobs` (`liquid_simd::run` / `run_pretranslated` on the same
//! builds and configurations); it makes them itself because the sweep
//! discards the run reports whose retired-instruction counts
//! `sim_minstr_per_cpu_s` needs. The traced job splits each call into
//! `Machine::new` and `Machine::run` (and the pretranslated unit into its
//! warm and resident passes); the run protocol cross-checks its cycles
//! against the untraced job's, so the two cannot drift apart silently.

use std::collections::BTreeMap;

use liquid_simd::experiments::paper_widths;
use liquid_simd::mem::Memory;
use liquid_simd::{
    build_liquid, build_native, build_plain, gold, verify_against_gold, Build, DataEnv, Machine,
    MachineConfig, RunReport, Workload,
};
use liquid_simd_perfhist::Json;

use crate::batch::{simulate, Batch, JobOut};
use crate::spans::Tracer;

/// Which simulation a unit runs, in `figure6_timed`'s per-width order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Baseline,
    Liquid,
    Pretranslated,
    Native,
}

#[derive(Clone, Copy, Debug)]
struct Unit {
    workload: usize,
    kind: Kind,
    width: usize,
}

/// `figure6_timed`'s unit layout: per workload, the baseline, then
/// (liquid, pretranslated, native) per width.
fn units(workloads: usize, widths: &[usize]) -> Vec<Unit> {
    let mut out = Vec::new();
    for workload in 0..workloads {
        out.push(Unit {
            workload,
            kind: Kind::Baseline,
            width: 0,
        });
        for &width in widths {
            for kind in [Kind::Liquid, Kind::Pretranslated, Kind::Native] {
                out.push(Unit {
                    workload,
                    kind,
                    width,
                });
            }
        }
    }
    out
}

/// The cycles `BENCH_sim.json` pins for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Pin {
    baseline: u64,
    liquid: BTreeMap<usize, u64>,
}

/// Reads the pinned baseline and per-width liquid cycles of every
/// workload from a `liquid-simd-bench-v1` document.
///
/// # Errors
///
/// Returns a message for a malformed document.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, Pin>, String> {
    let doc = Json::parse(text)?;
    let rows = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCH_sim.json: no `workloads` array")?;
    let mut pins = BTreeMap::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("pin without name")?;
        let baseline = row
            .get("baseline_cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: no baseline_cycles"))?;
        let mut liquid = BTreeMap::new();
        for (w, c) in row
            .get("cycles_by_width")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no cycles_by_width"))?
        {
            let width = w.parse().map_err(|_| format!("{name}: bad width `{w}`"))?;
            liquid.insert(
                width,
                c.as_u64().ok_or_else(|| format!("{name}: bad cycles"))?,
            );
        }
        pins.insert(name.to_string(), Pin { baseline, liquid });
    }
    Ok(pins)
}

/// Whether a unit's cycles agree with the pins (units the pins do not
/// cover — pretranslated and native — agree vacuously).
fn matches_pin(pin: Option<&Pin>, unit: &Unit, cycles: u64) -> bool {
    match (unit.kind, pin) {
        (Kind::Baseline, Some(p)) => p.baseline == cycles,
        (Kind::Liquid, Some(p)) => p.liquid.get(&unit.width) == Some(&cycles),
        (Kind::Pretranslated | Kind::Native, _) => true,
        (_, None) => false,
    }
}

/// The figure6 workload.
pub struct Figure6 {
    pins: BTreeMap<String, Pin>,
    order: Vec<usize>,
    widths: Vec<usize>,
}

/// Builds and gold environments of every workload: the job's inputs.
pub struct Inputs {
    workloads: Vec<Workload>,
    plain: Vec<Build>,
    liquid: Vec<Build>,
    /// `native[workload][width index]`.
    native: Vec<Vec<Build>>,
    gold: Vec<DataEnv>,
}

impl Figure6 {
    /// The sweep over `workloads::all()` at the paper widths, with units
    /// run in a `seed`-shuffled order and checked against `pins`.
    #[must_use]
    pub fn new(seed: u64, pins: BTreeMap<String, Pin>) -> Figure6 {
        let widths = paper_widths();
        let n = units(liquid_simd_workloads::all().len(), &widths).len();
        Figure6 {
            pins,
            order: crate::shuffled(n, seed),
            widths,
        }
    }

    fn program<'a>(&self, inputs: &'a Inputs, u: &Unit) -> &'a Build {
        let w = u.workload;
        match u.kind {
            Kind::Baseline => &inputs.plain[w],
            Kind::Liquid | Kind::Pretranslated => &inputs.liquid[w],
            Kind::Native => {
                let wi = self.widths.iter().position(|&x| x == u.width);
                &inputs.native[w][wi.expect("unit widths come from self.widths")]
            }
        }
    }
}

fn config(u: &Unit) -> MachineConfig {
    match u.kind {
        Kind::Baseline => MachineConfig::scalar_only(),
        Kind::Liquid | Kind::Pretranslated => MachineConfig::liquid(u.width),
        Kind::Native => MachineConfig::native(u.width),
    }
}

/// Runs one unit: [`simulate`], except that the pretranslated unit goes
/// through `liquid_simd::run_pretranslated` untraced and, traced, is
/// split into its warm pass (which repeats the liquid unit) and its
/// resident pass with the harvested microcode preloaded.
fn run_unit(tr: &mut Tracer, u: &Unit, build: &Build) -> Result<(RunReport, Memory), String> {
    let (prog, cfg) = (&build.program, config(u));
    let layer = match u.kind {
        Kind::Baseline => "sim.scalar_s",
        Kind::Liquid => "sim.liquid_s",
        Kind::Native => "sim.native_s",
        Kind::Pretranslated if !tr.enabled() => {
            let out = liquid_simd::run_pretranslated(prog, cfg).map_err(|e| e.to_string())?;
            return Ok((out.report, out.memory));
        }
        Kind::Pretranslated => {
            return tr.span("sim.pretranslated_s", |tr| {
                let microcode = tr.span("sim.pretranslated_warm_s", |tr| {
                    let mut warm = tr.span("sim.new_s", |_| Machine::new(prog, cfg.clone()));
                    warm.run().map(|_| warm.microcode_snapshot())
                });
                let microcode = microcode.map_err(|e| e.to_string())?;
                let mut m = tr.span("sim.new_s", |_| Machine::new(prog, cfg));
                m.preload_microcode(&microcode);
                let report = m.run().map_err(|e| e.to_string())?;
                Ok((report, m.memory().clone()))
            });
        }
    };
    simulate(tr, layer, prog, cfg)
}

impl Batch for Figure6 {
    type Inputs = Inputs;

    fn setup(&self, tr: &mut Tracer) -> Result<Inputs, String> {
        let workloads = liquid_simd_workloads::all();
        let build = |tr: &mut Tracer, f: &dyn Fn() -> Result<Build, liquid_simd::CompileError>| {
            tr.count("compiler.builds", 1);
            tr.span("compiler.build_s", |_| f())
                .map_err(|e| e.to_string())
        };
        let (mut plain, mut liquid, mut native, mut golds) = (vec![], vec![], vec![], vec![]);
        for w in &workloads {
            plain.push(build(tr, &|| build_plain(w))?);
            liquid.push(build(tr, &|| build_liquid(w))?);
            let mut per_width = Vec::new();
            for &width in &self.widths {
                per_width.push(build(tr, &|| build_native(w, width))?);
            }
            native.push(per_width);
            golds.push(
                tr.span("compiler.gold_s", |_| gold::run_gold(w))
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(Inputs {
            workloads,
            plain,
            liquid,
            native,
            gold: golds,
        })
    }

    fn warm_up(&self, inputs: &Inputs) -> Result<(), String> {
        // The first workload's units: touches every simulation path.
        let per = 1 + 3 * self.widths.len();
        for u in &units(inputs.workloads.len(), &self.widths)[..per] {
            run_unit(&mut Tracer::off(), u, self.program(inputs, u))?;
        }
        Ok(())
    }

    fn job(&self, inputs: &Inputs, tr: &mut Tracer) -> Result<JobOut, String> {
        let all = units(inputs.workloads.len(), &self.widths);
        let mut out = JobOut::with_slots(all.len());
        for &i in &self.order {
            let u = &all[i];
            let build = self.program(inputs, u);
            let (report, memory) = out.op(u.kind == Kind::Liquid, || run_unit(tr, u, build))?;
            let w = &inputs.workloads[u.workload];
            let verified = tr.span("verify.self_s", |_| {
                verify_against_gold(&w.name, &build.program, &memory, &inputs.gold[u.workload])
            });
            tr.count("verify.checks", 1);
            tr.count_report(&report);
            let pinned = matches_pin(self.pins.get(&w.name), u, report.cycles);
            out.tally.check(verified.is_ok() && pinned, || {
                format!(
                    "{} {:?}@{}: gold {:?}, {} cycles vs pin {:?}",
                    w.name,
                    u.kind,
                    u.width,
                    verified.as_ref().err(),
                    report.cycles,
                    self.pins.get(&w.name)
                )
            });
            out.retired += report.retired;
            out.cycles[i] = report.cycles;
        }
        let per = 1 + 3 * self.widths.len();
        let w8 = self
            .widths
            .iter()
            .position(|&w| w == 8)
            .ok_or("no width 8")?;
        out.speedups_w8 = out
            .cycles
            .chunks(per)
            .map(|c| c[0] as f64 / c[1 + 3 * w8] as f64)
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    const DOC: &str = r#"{"schema": "liquid-simd-bench-v1", "workloads": [
        {"name": "FIR", "baseline_cycles": 100, "sim_cycles": 20,
         "cycles_by_width": {"2": 60, "8": 20}}]}"#;

    #[test]
    fn pins_parse_from_a_bench_document() {
        let pins = parse_pins(DOC).unwrap();
        let fir = &pins["FIR"];
        assert_eq!(fir.baseline, 100);
        assert_eq!(fir.liquid[&8], 20);
    }

    #[test]
    fn unit_layout_matches_figure6_timed() {
        let u = units(2, &[2, 8]);
        assert_eq!(u.len(), 2 * 7);
        assert_eq!(u[0].kind, Kind::Baseline);
        assert_eq!((u[4].kind, u[4].width), (Kind::Liquid, 8));
        assert_eq!((u[6].kind, u[6].workload), (Kind::Native, 0));
        assert_eq!(u[7].workload, 1);
    }

    #[test]
    fn a_wrong_pin_lowers_ok_frac() {
        let mut pins = parse_pins(DOC).unwrap();
        let liquid8 = Unit {
            workload: 0,
            kind: Kind::Liquid,
            width: 8,
        };
        let mut tally = Tally::default();
        tally.check(matches_pin(pins.get("FIR"), &liquid8, 20), String::new);
        assert_eq!(tally.ok_frac(), 1.0);
        pins.get_mut("FIR").unwrap().liquid.insert(8, 21);
        tally.check(matches_pin(pins.get("FIR"), &liquid8, 20), || {
            "deliberately wrong pin".to_string()
        });
        assert_eq!(tally.ok_frac(), 0.5);
        assert!(!matches_pin(None, &liquid8, 20));
    }
}
