//! Simulator fuzzing: random valid programs, run on both execution
//! backends at 0, 1, 2, 8 and 16 lanes.
//!
//! Each program has a small data segment, random instructions from the
//! shared generator in `common`, extra conditional branches and calls,
//! and sometimes a return through a clobbered link register. Half of them
//! first call an outlined counted loop through `bl.v`, so translation
//! windows open and commit or abort mid-block. Calls may land in
//! preloaded microcode, which can name a symbol the program lacks. Each
//! run has a random latency model and a small cycle limit. The two
//! backends share one instruction executor and differ only in timing
//! shortcuts, so each run must end the same way on both: an equal report
//! (or an equal `SimError`), equal `ledger-v1` bytes, and equal registers
//! and memory, and the same resident microcode. A faulting run publishes
//! no report or ledger, so only its fault, registers, memory and
//! microcode are compared.
//!
//! The sweep must also reach every fault a lowered op or the run loop can
//! raise: a vector op at fewer than 2 lanes, a permute block that does not
//! fit, memory out of range, a wild return, the cycle limit, and a missing
//! symbol in preloaded microcode; and some runs must commit a
//! translation. Tier-1 runs a short fixed-seed sweep;
//! `--features fuzz` runs a long one. Every case is reproducible from its
//! printed seed and index.

mod common;

use std::collections::BTreeMap;

use common::{random_inst, random_latency_model};
use liquid_simd_isa::{
    AluOp, Base, Cond, Inst, MemWidth, Operand2, Program, Reg, ScalarInst, SymId, Symbol,
    VectorInst,
};
use liquid_simd_sim::{BackendKind, BlockStats, Machine, MachineConfig, SimError};
use liquid_simd_workloads::util::XorShift64;

const SEED: u64 = 0x51DE_F022_5EED_0001;
const CASES: u64 = if cfg!(feature = "fuzz") {
    100_000
} else {
    2_000
};
const LANES: [usize; 5] = [0, 1, 2, 8, 16];

/// Points every symbol reference of `inst` through `sym` and every branch
/// or call target into `0..code_len`.
fn fix(inst: Inst, code_len: usize, sym: impl Fn(SymId) -> SymId) -> Inst {
    let base = |b: &mut Base| {
        if let Base::Sym(s) = b {
            *s = sym(*s);
        }
    };
    match inst {
        Inst::S(mut s) => {
            match &mut s {
                ScalarInst::B { target, .. } | ScalarInst::Bl { target, .. } => {
                    *target %= code_len as u32;
                }
                ScalarInst::LdInt { base: b, .. }
                | ScalarInst::StInt { base: b, .. }
                | ScalarInst::LdF { base: b, .. }
                | ScalarInst::StF { base: b, .. } => base(b),
                _ => {}
            }
            Inst::S(s)
        }
        Inst::V(mut v) => {
            match &mut v {
                VectorInst::VLd { base: b, .. } | VectorInst::VSt { base: b, .. } => base(b),
                VectorInst::VAluConst { cnst, .. } => *cnst = sym(*cnst),
                _ => {}
            }
            Inst::V(v)
        }
    }
}

/// One random instruction that passes the ISA's own validation.
fn valid_inst(rng: &mut XorShift64) -> Inst {
    loop {
        let inst = random_inst(rng);
        if inst.validate().is_ok() {
            return inst;
        }
    }
}

/// An outlined counted loop at code index `at` over the 16 words of
/// symbol 0, in the shape the translator recognises: load, a few ALU ops
/// (mostly on the loaded value, so some translate and some abort), store,
/// increment, compare, backedge, return.
fn kernel(rng: &mut XorShift64, at: u32) -> Vec<Inst> {
    let low = |rng: &mut XorShift64| {
        if rng.range_usize(0, 4) == 0 {
            Reg::of(rng.range_usize(2, 4) as u8)
        } else {
            Reg::R1
        }
    };
    let s0 = Base::Sym(SymId::new(0));
    let mut k = vec![
        ScalarInst::MovImm {
            cond: Cond::Al,
            rd: Reg::R0,
            imm: 0,
        },
        ScalarInst::LdInt {
            width: MemWidth::W,
            signed: true,
            rd: Reg::R1,
            base: s0,
            index: Reg::R0,
        },
    ];
    for _ in 0..rng.range_usize(1, 5) {
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Eor];
        k.push(ScalarInst::Alu {
            cond: Cond::Al,
            op: rng.pick(&ops),
            rd: low(rng),
            rn: low(rng),
            op2: if rng.coin() {
                Operand2::Reg(low(rng))
            } else {
                Operand2::Imm(rng.range_usize(0, 64) as i32)
            },
        });
    }
    k.extend([
        ScalarInst::StInt {
            width: MemWidth::W,
            rs: Reg::R1,
            base: s0,
            index: Reg::R0,
        },
        ScalarInst::Alu {
            cond: Cond::Al,
            op: AluOp::Add,
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Operand2::Imm(1),
        },
        ScalarInst::Cmp {
            rn: Reg::R0,
            op2: Operand2::Imm(16),
        },
        ScalarInst::B {
            cond: Cond::Lt,
            target: at + 1,
        },
        ScalarInst::Ret,
    ]);
    k.into_iter().map(Inst::S).collect()
}

/// Draws a program and the microcode preloaded for some of its call
/// targets.
fn draw(rng: &mut XorShift64) -> (Program, Vec<(u32, Vec<Inst>)>) {
    // A data segment low in the address space, so register bases and
    // indices land inside it as often as outside it.
    let data_base = 64 * rng.range_usize(1, 8) as u32;
    let nsyms = rng.range_usize(1, 5);
    let mut data = Vec::new();
    let mut symbols = Vec::new();
    let outlined = rng.coin();
    for s in 0..nsyms {
        // The kernel's loop runs over all 16 words of symbol 0.
        let size = if outlined && s == 0 {
            64
        } else {
            rng.range_usize(2, 65)
        };
        symbols.push(Symbol {
            name: format!("s{s}"),
            addr: data_base + data.len() as u32,
            size: size as u32,
            elem_bytes: 4,
        });
        data.extend((0..size.next_multiple_of(4)).map(|_| rng.range_usize(0, 256) as u8));
    }
    let in_program = |s: SymId| SymId::new((s.index() % nsyms) as u16);

    let len = rng.range_usize(4, 40);
    let halt = rng.range_usize(0, 4) != 0;
    let mut code = Vec::with_capacity(len + 20);
    if outlined {
        // Call the kernel (placed after the body) a few times up front.
        let at = (len + usize::from(halt)) as u32;
        for _ in 0..rng.range_usize(1, 4) {
            code.push(Inst::S(ScalarInst::Bl {
                target: at,
                vectorizable: true,
            }));
        }
    }
    while code.len() < len {
        match rng.range_usize(0, 16) {
            // Branchy: conditional branches anywhere, loops included.
            0 | 1 => code.push(Inst::S(ScalarInst::B {
                cond: rng.pick(&Cond::ALL),
                target: rng.range_usize(0, len) as u32,
            })),
            2 => code.push(Inst::S(ScalarInst::Bl {
                target: rng.range_usize(0, len) as u32,
                vectorizable: rng.coin(),
            })),
            // A return through a link register the program just set.
            3 => {
                code.push(Inst::S(ScalarInst::MovImm {
                    cond: Cond::Al,
                    rd: Reg::of(14),
                    imm: rng.range_usize(0, 128) as i32 - 64,
                }));
                code.push(Inst::S(ScalarInst::Ret));
            }
            _ => code.push(fix(valid_inst(rng), len, in_program)),
        }
    }
    code.truncate(len);
    if halt {
        code.push(Inst::S(ScalarInst::Halt));
    }
    if outlined {
        code.extend(kernel(rng, code.len() as u32));
    }
    let program = Program {
        code,
        data,
        symbols,
        entry: 0,
        data_base,
        labels: vec![],
    };
    program.validate().expect("drawn programs are valid");

    // Microcode for up to two call targets: random straight-line and
    // branchy bodies ending in `ret`, some naming a symbol the program
    // lacks.
    let targets: Vec<u32> = program
        .code
        .iter()
        .filter_map(|inst| match inst {
            Inst::S(ScalarInst::Bl { target, .. }) => Some(*target),
            _ => None,
        })
        .collect();
    let mut microcode = Vec::new();
    for _ in 0..rng.range_usize(0, 3).min(targets.len()) {
        let target = rng.pick(&targets);
        let n = rng.range_usize(1, 12);
        let missing = rng.range_usize(0, 4) == 0;
        let sym = |s: SymId| {
            if missing {
                SymId::new((nsyms + s.index()) as u16)
            } else {
                in_program(s)
            }
        };
        let mut body: Vec<Inst> = (0..n).map(|_| fix(valid_inst(rng), n, sym)).collect();
        body.push(Inst::S(ScalarInst::Ret));
        microcode.push((target, body));
    }
    (program, microcode)
}

fn config(rng: &mut XorShift64, lanes: usize) -> MachineConfig {
    let mut config = MachineConfig::liquid(lanes);
    config.lat = random_latency_model(rng);
    config.max_cycles = rng.range_usize(50, 3000) as u64;
    config.mcache_entries = rng.range_usize(1, 9);
    config.translation.jit = rng.coin();
    config.translation.translate_plain_bl = rng.coin();
    if rng.range_usize(0, 8) == 0 {
        config.interrupt_every = rng.range_usize(3, 40) as u64;
    }
    config
}

/// Everything a run leaves that both backends must agree on.
struct End {
    /// The report with its backend-specific fields cleared, and its
    /// ledger's `ledger-v1` bytes; or the fault.
    result: Result<(String, String), SimError>,
    regs: String,
    memory: Vec<u8>,
    /// The microcode resident at the end.
    microcode: Vec<(u32, Vec<Inst>)>,
}

fn run(
    program: &Program,
    microcode: &[(u32, Vec<Inst>)],
    config: &MachineConfig,
    backend: BackendKind,
) -> End {
    let mut m = Machine::new(program, config.clone().with_backend(backend));
    m.preload_microcode(microcode);
    let result = m.run().map(|mut report| {
        report.backend = BackendKind::Interp;
        report.blocks = BlockStats::default();
        (format!("{report:?}"), report.ledger.to_json())
    });
    let r = m.regs();
    let memory = m.memory();
    End {
        result,
        regs: format!("{:?} {:?} {:?} {:?}", r.r, r.f, r.v, r.flags),
        memory: memory
            .slice(memory.base(), memory.size())
            .expect("whole image")
            .to_vec(),
        microcode: m.microcode_snapshot(),
    }
}

/// How a run ended, for the coverage check.
fn kind(result: &Result<(String, String), SimError>) -> &'static str {
    match result {
        Ok(_) => "halt",
        Err(SimError::Mem(_)) => "memory",
        Err(SimError::Fault { what, .. }) => [
            ("without SIMD accelerator", "no-accelerator"),
            ("permutation block", "permute"),
            ("return to wild address", "wild-return"),
            ("cycle limit", "cycle-limit"),
            ("unknown symbol", "missing-symbol"),
            ("fell off the end", "off-the-end"),
        ]
        .into_iter()
        .find(|(text, _)| what.contains(text))
        .map_or("other", |(_, kind)| kind),
    }
}

#[test]
fn random_programs_end_identically_on_both_backends() {
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = XorShift64::new(SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (program, microcode) = draw(&mut rng);
        for lanes in LANES {
            let config = config(&mut rng, lanes);
            let interp = run(&program, &microcode, &config, BackendKind::Interp);
            let superblock = run(&program, &microcode, &config, BackendKind::Superblock);
            let what = || {
                format!(
                    "seed {SEED:#x} case {case} at {lanes} lanes:\n{}",
                    program.disassemble()
                )
            };
            assert_eq!(interp.result, superblock.result, "{}", what());
            assert_eq!(interp.regs, superblock.regs, "{}", what());
            assert!(interp.memory == superblock.memory, "memory: {}", what());
            assert_eq!(interp.microcode, superblock.microcode, "{}", what());
            *seen.entry(kind(&interp.result)).or_default() += 1;
            if interp.microcode != microcode {
                *seen.entry("translated").or_default() += 1;
            }
        }
    }
    for required in [
        "halt",
        "no-accelerator",
        "permute",
        "memory",
        "wild-return",
        "cycle-limit",
        "missing-symbol",
        "translated",
    ] {
        assert!(
            seen.contains_key(required),
            "no run ended in {required}: {seen:?}"
        );
    }
}
