//! `families`: the kernelgen corpus (translatable kernels plus
//! abort-witness loops) on the superblock backend and one thread, as
//! `bench --families --backend superblock` runs it: a scalar baseline and
//! liquid runs at every paper width per kernel, liquid runs per width for
//! each witness. Every kernel run is checked against gold; every witness
//! run must abort with its family's tag and commit no microcode.
//!
//! Many tiny programs make per-run fixed costs (`Machine::new`,
//! translation windows, abort replay) a large share of this workload.

use liquid_simd::experiments::paper_widths;
use liquid_simd::mem::Memory;
use liquid_simd::{
    build_liquid, build_plain, gold, verify_against_gold, BackendKind, DataEnv, MachineConfig,
    RunReport,
};
use liquid_simd_isa::{asm, Program};
use liquid_simd_kernelgen::Payload;

use crate::batch::{simulate, Batch, JobOut};
use crate::spans::Tracer;

/// One expanded variant, compiled.
enum Case {
    Kernel {
        plain: Program,
        liquid: Program,
        gold: DataEnv,
    },
    Witness {
        program: Program,
        tag: &'static str,
    },
}

/// The families workload.
pub struct Families {
    order: Vec<usize>,
    widths: Vec<usize>,
}

/// Every variant's name and compiled case: the job's inputs.
pub struct Inputs {
    cases: Vec<(String, Case)>,
}

impl Families {
    /// The corpus with variants run in a `seed`-shuffled order.
    ///
    /// # Errors
    ///
    /// Returns a message if the embedded corpus does not expand.
    pub fn new(seed: u64) -> Result<Families, String> {
        let n = liquid_simd_kernelgen::expand_corpus()?.len();
        Ok(Families {
            order: crate::shuffled(n, seed),
            widths: paper_widths(),
        })
    }
}

/// [`simulate`] on the superblock backend.
fn superblock(
    tr: &mut Tracer,
    layer: &'static str,
    prog: &Program,
    cfg: MachineConfig,
) -> Result<(RunReport, Memory), String> {
    simulate(tr, layer, prog, cfg.with_backend(BackendKind::Superblock))
}

impl Batch for Families {
    type Inputs = Inputs;

    fn setup(&self, tr: &mut Tracer) -> Result<Inputs, String> {
        let variants = tr.span("kernelgen.expand_s", |_| {
            liquid_simd_kernelgen::expand_corpus()
        })?;
        let mut cases = Vec::with_capacity(variants.len());
        for v in variants {
            let case = match v.payload {
                Payload::Kernel(w) => {
                    tr.count("compiler.builds", 2);
                    let (plain, liquid) = tr
                        .span("compiler.build_s", |_| {
                            Ok::<_, liquid_simd::CompileError>((
                                build_plain(&w)?,
                                build_liquid(&w)?,
                            ))
                        })
                        .map_err(|e| format!("{}: {e}", v.name))?;
                    let gold = tr
                        .span("compiler.gold_s", |_| gold::run_gold(&w))
                        .map_err(|e| format!("{}: {e}", v.name))?;
                    Case::Kernel {
                        plain: plain.program,
                        liquid: liquid.program,
                        gold,
                    }
                }
                Payload::Asm { src, expected_tag } => Case::Witness {
                    program: tr
                        .span("isa.assemble_s", |_| asm::assemble(&src))
                        .map_err(|e| format!("{}: {e}", v.name))?,
                    tag: expected_tag,
                },
            };
            cases.push((v.name, case));
        }
        Ok(Inputs { cases })
    }

    fn warm_up(&self, inputs: &Inputs) -> Result<(), String> {
        self.job(inputs, &mut Tracer::off()).map(|_| ())
    }

    fn job(&self, inputs: &Inputs, tr: &mut Tracer) -> Result<JobOut, String> {
        let mut out = JobOut::default();
        // Cycles land in canonical slots: per variant, baseline (kernels
        // only) then one per width.
        let mut cycles: Vec<Vec<u64>> = vec![Vec::new(); inputs.cases.len()];
        for &i in &self.order {
            let (name, case) = &inputs.cases[i];
            match case {
                Case::Kernel {
                    plain,
                    liquid,
                    gold,
                } => {
                    let check = |tr: &mut Tracer, out: &mut JobOut, prog, mem: &Memory| {
                        let verified = tr.span("verify.self_s", |_| {
                            verify_against_gold(name, prog, mem, gold)
                        });
                        tr.count("verify.checks", 1);
                        out.tally
                            .check(verified.is_ok(), || format!("{name}: {verified:?}"));
                    };
                    let (base, mem) = out.op(false, || {
                        superblock(tr, "sim.scalar_s", plain, MachineConfig::scalar_only())
                    })?;
                    check(tr, &mut out, plain, &mem);
                    tr.count_report(&base);
                    out.retired += base.retired;
                    cycles[i].push(base.cycles);
                    for &width in &self.widths {
                        let (report, mem) = out.op(true, || {
                            superblock(tr, "sim.liquid_s", liquid, MachineConfig::liquid(width))
                        })?;
                        check(tr, &mut out, liquid, &mem);
                        tr.count_report(&report);
                        out.retired += report.retired;
                        cycles[i].push(report.cycles);
                        if width == 8 {
                            out.speedups_w8
                                .push(base.cycles as f64 / report.cycles as f64);
                        }
                    }
                }
                Case::Witness { program, tag } => {
                    for &width in &self.widths {
                        let (report, _) = out.op(true, || {
                            superblock(tr, "sim.liquid_s", program, MachineConfig::liquid(width))
                        })?;
                        let t = &report.translator;
                        let aborted = t.successes == 0 && t.aborts.get(tag).is_some_and(|&n| n > 0);
                        tr.count("verify.checks", 1);
                        out.tally.check(aborted, || {
                            format!("{name}@{width}: expected abort `{tag}`, got {:?}", t.aborts)
                        });
                        tr.count_report(&report);
                        out.retired += report.retired;
                        cycles[i].push(report.cycles);
                    }
                }
            }
        }
        // Kernel speedups were pushed in shuffled order; sort so the
        // geomean's floating-point sum is seed-independent.
        out.speedups_w8.sort_by(f64::total_cmp);
        out.cycles = cycles.concat();
        Ok(out)
    }
}
