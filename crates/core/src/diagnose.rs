//! The explain & profile layer: turn one program's run into an actionable
//! diagnosis instead of a bare cycle count.
//!
//! Two questions dominate when a Liquid binary underperforms:
//!
//! 1. **Why didn't my loop translate?** [`explain`] runs the program at
//!    each accelerator width and reports, per outlined region, whether it
//!    translated (and into how many microcode instructions) or aborted —
//!    with the full [`AbortRecord`] provenance: the retired PC and opcode
//!    that killed it, how many dynamic instructions into the region, the
//!    register-class map and value-tracker state at that moment.
//! 2. **Where did the cycles go?** [`profile`] runs once with a
//!    [`Tracer`] attached and reports the exact cycle partition
//!    (scalar / microcode / JIT stall — the three sum to the total), the
//!    span aggregation (the `exec:*` spans tile the run, so their cycle
//!    totals also sum to the total), per-call-target attribution, and
//!    per-microcode-cache-entry statistics including evictor identity.
//!
//! Both reports render to aligned human text ([`render_explain`] /
//! [`render_profile`]) and to rows-layout JSON ([`explain_json`] /
//! [`profile_json`]) for scripting; the CLI's `explain` and `profile`
//! commands are thin wrappers over this module.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use liquid_simd_isa::{Program, SUPPORTED_WIDTHS};
use liquid_simd_ledger::{Ledger, Snapshot as LedgerSnapshot, TOP_REGION};
use liquid_simd_sim::{
    BackendKind, BlockStats, CallMode, MachineConfig, McacheEntryStats, McacheStats,
    PhaseBreakdown, SimError, TargetProfile,
};
use liquid_simd_trace::{span, Json, SpanAgg, SpanRecord, TraceRecord, Tracer};
use liquid_simd_translator::{AbortRecord, RegClass, TranslatorStats};

/// Knobs for an [`explain`] sweep.
#[derive(Clone, Debug)]
pub struct ExplainOptions {
    /// Accelerator widths to try (each is one full run). Empty falls back
    /// to the default sweep.
    pub widths: Vec<usize>,
    /// Deliver a simulated external interrupt every N cycles (0 = never) —
    /// the way to observe `external` aborts deterministically.
    pub interrupt_every: u64,
    /// Also attempt translation of plain `bl` calls (no `bl.v` marker).
    pub all_calls: bool,
    /// Execution backend for every run of the sweep. Backends are
    /// observationally identical, so this changes throughput and the
    /// `blocks` telemetry, never the verdicts.
    pub backend: BackendKind,
}

impl Default for ExplainOptions {
    fn default() -> ExplainOptions {
        ExplainOptions {
            widths: SUPPORTED_WIDTHS.to_vec(),
            interrupt_every: 0,
            all_calls: false,
            backend: BackendKind::Interp,
        }
    }
}

/// What happened to one region at one width.
#[derive(Clone, Debug)]
pub enum RegionOutcome {
    /// Microcode was produced and cached.
    Translated {
        /// Microcode length of the (last) successful translation.
        uops: usize,
    },
    /// Every translation attempt aborted; `record` is the last retained
    /// abort's full provenance.
    Aborted {
        /// Provenance of the abort.
        record: AbortRecord,
    },
    /// The region was called but translation never started (for example a
    /// plain `bl` without [`ExplainOptions::all_calls`]).
    NotAttempted,
}

/// One region's fate at one accelerator width.
#[derive(Clone, Debug)]
pub struct RegionWidth {
    /// Accelerator width of this run.
    pub width: usize,
    /// Translated / aborted-with-provenance / not attempted.
    pub outcome: RegionOutcome,
    /// Calls serviced by the scalar body in this run.
    pub scalar_calls: u64,
    /// Calls serviced by microcode in this run.
    pub micro_calls: u64,
    /// Abort tally for this region in this run, by reason tag (can be
    /// non-empty even when the outcome is `Translated`: early calls may
    /// abort before a later one succeeds).
    pub aborts: BTreeMap<&'static str, u64>,
}

/// Everything [`explain`] learned about one outlined region.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// Entry PC (code index) of the region.
    pub entry: u32,
    /// Label at the entry PC, when the program has one.
    pub label: Option<String>,
    /// Per-width fate, in sweep order.
    pub widths: Vec<RegionWidth>,
}

/// The result of an [`explain`] sweep.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Program name (file name or workload name).
    pub program: String,
    /// Widths swept.
    pub widths: Vec<usize>,
    /// Total cycles per width, parallel to `widths`.
    pub cycles: Vec<u64>,
    /// Aggregate microcode-cache statistics per width, parallel to
    /// `widths` — surfaces evictions and tag-conflict replacements.
    pub mcache: Vec<McacheStats>,
    /// Execution backend used for the sweep.
    pub backend: BackendKind,
    /// Superblock block-cache telemetry per width, parallel to `widths`
    /// (all zeros under the interpreter backend).
    pub blocks: Vec<BlockStats>,
    /// Every region that was called, translated, or aborted, by entry PC.
    pub regions: Vec<RegionReport>,
    /// Cycle-ledger snapshot per width, parallel to `widths`: category and
    /// region rollups of the exact per-cycle attribution.
    pub ledgers: Vec<LedgerSnapshot>,
}

/// Runs `program` once per width and reports every outlined region's fate:
/// translated (with microcode size) or aborted (with full provenance).
///
/// # Errors
///
/// Returns [`SimError`] if any run faults (wild memory, cycle limit).
pub fn explain(
    program: &Program,
    name: &str,
    opts: &ExplainOptions,
) -> Result<ExplainReport, SimError> {
    let widths = if opts.widths.is_empty() {
        SUPPORTED_WIDTHS.to_vec()
    } else {
        opts.widths.clone()
    };
    let mut runs = Vec::new();
    for &w in &widths {
        let mut cfg = MachineConfig::liquid(w).with_backend(opts.backend);
        cfg.interrupt_every = opts.interrupt_every;
        cfg.translation.translate_plain_bl = opts.all_calls;
        runs.push((w, crate::simulate(program, cfg, &[])?.0));
    }

    let mut entries: BTreeSet<u32> = BTreeSet::new();
    for (_, r) in &runs {
        entries.extend(r.call_targets());
        entries.extend(r.translations.iter().map(|&(pc, _)| pc));
        entries.extend(r.translator.aborts_by_region.keys().copied());
    }

    let regions = entries
        .into_iter()
        .map(|pc| RegionReport {
            entry: pc,
            label: program.label_at(pc).map(str::to_string),
            widths: runs
                .iter()
                .map(|(w, r)| {
                    let translated = r
                        .translations
                        .iter()
                        .rev()
                        .find(|&&(p, _)| p == pc)
                        .map(|&(_, uops)| uops);
                    let outcome = if let Some(uops) = translated {
                        RegionOutcome::Translated { uops }
                    } else if let Some(record) = r.translator.region_aborts(pc).last() {
                        RegionOutcome::Aborted {
                            record: record.clone(),
                        }
                    } else {
                        RegionOutcome::NotAttempted
                    };
                    let calls = |mode| {
                        let to_pc = r.calls.iter().filter(|c| c.target == pc);
                        to_pc.filter(|c| c.mode == mode).count() as u64
                    };
                    RegionWidth {
                        width: *w,
                        outcome,
                        scalar_calls: calls(CallMode::Scalar),
                        micro_calls: calls(CallMode::Microcode),
                        aborts: r
                            .translator
                            .aborts_by_region
                            .get(&pc)
                            .cloned()
                            .unwrap_or_default(),
                    }
                })
                .collect(),
        })
        .collect();

    let ledgers = runs
        .iter()
        .map(|(w, r)| {
            LedgerSnapshot::from_ledger(
                &format!("{name} w{w}"),
                &r.ledger,
                &ledger_region_labels(program, &r.ledger),
            )
        })
        .collect();

    Ok(ExplainReport {
        program: name.to_string(),
        widths,
        cycles: runs.iter().map(|(_, r)| r.cycles).collect(),
        mcache: runs.iter().map(|(_, r)| r.mcache).collect(),
        backend: opts.backend,
        blocks: runs.iter().map(|(_, r)| r.blocks).collect(),
        regions,
        ledgers,
    })
}

/// Labels for every ledger region that has one in the program's symbol
/// table, so snapshots name regions `label @pc` instead of bare `@pc`.
#[must_use]
pub fn ledger_region_labels(program: &Program, ledger: &Ledger) -> BTreeMap<u32, String> {
    ledger
        .region_totals()
        .keys()
        .filter(|&&pc| pc != TOP_REGION)
        .filter_map(|&pc| program.label_at(pc).map(|l| (pc, l.to_string())))
        .collect()
}

/// The result of a [`profile`] run: where the cycles went.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Program name (file name or workload name).
    pub program: String,
    /// Accelerator width of the run (0 = scalar only).
    pub lanes: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub retired: u64,
    /// Exact cycle partition (the three fields sum to `cycles`).
    pub phases: PhaseBreakdown,
    /// Translator statistics (attempts, successes, abort tallies).
    pub translator: TranslatorStats,
    /// Aggregate microcode-cache statistics.
    pub mcache: McacheStats,
    /// Per-function microcode-cache statistics, with evictor identity.
    pub mcache_entries: BTreeMap<u32, McacheEntryStats>,
    /// Per-call-target cycle attribution `(entry, label, profile)` from
    /// [`liquid_simd_sim::RunReport::target_profiles`] (ledger self cycles),
    /// sorted by total attributed cycles, heaviest first.
    pub targets: Vec<(u32, Option<String>, TargetProfile)>,
    /// Per-span-name aggregation, heaviest first. The `exec:*` spans tile
    /// the run, so their cycle totals sum to `cycles`.
    pub span_summary: Vec<SpanAgg>,
    /// Raw span records (for Chrome-trace export).
    pub spans: Vec<SpanRecord>,
    /// Raw event records (for Chrome-trace export; ring-capacity bounded).
    pub records: Vec<TraceRecord>,
    /// Cycle-ledger snapshot of the run: category and region rollups of
    /// the exact per-cycle attribution.
    pub ledger: LedgerSnapshot,
}

/// Runs `program` once with a tracer attached and assembles the cycle
/// breakdown: phases, spans, call targets, microcode-cache entries.
///
/// # Errors
///
/// Returns [`SimError`] if the run faults.
pub fn profile(program: &Program, name: &str, lanes: usize) -> Result<ProfileReport, SimError> {
    let tracer = Tracer::new();
    let cfg = if lanes == 0 {
        MachineConfig::scalar_only()
    } else {
        MachineConfig::liquid(lanes)
    }
    .with_tracer(tracer.clone());
    let (report, _) = crate::simulate(program, cfg, &[])?;

    let mut targets: Vec<(u32, Option<String>, TargetProfile)> = report
        .target_profiles()
        .into_iter()
        .map(|(pc, t)| (pc, program.label_at(pc).map(str::to_string), t))
        .collect();
    targets.sort_by(|a, b| {
        b.2.total_cycles()
            .cmp(&a.2.total_cycles())
            .then(a.0.cmp(&b.0))
    });

    let labels = ledger_region_labels(program, &report.ledger);
    let ledger = LedgerSnapshot::from_ledger(name, &report.ledger, &labels);

    let spans = tracer.spans();
    Ok(ProfileReport {
        program: name.to_string(),
        lanes,
        cycles: report.cycles,
        retired: report.retired,
        phases: report.phases,
        translator: report.translator,
        mcache: report.mcache,
        mcache_entries: report.mcache_entries,
        targets,
        span_summary: span::aggregate(&spans),
        spans,
        records: tracer.records(),
        ledger,
    })
}

/// A register class rendered as a short stable name.
fn regclass_name(c: &RegClass) -> String {
    match c {
        RegClass::Unknown => "unknown".to_string(),
        RegClass::Const(v) => format!("const({v})"),
        RegClass::Induction => "induction".to_string(),
        RegClass::Scalar => "scalar".to_string(),
        RegClass::Vector { elem, signed, .. } => {
            format!("vector(.{elem}{})", if *signed { ",signed" } else { "" })
        }
        RegClass::AddrVector { tracker } => format!("addr-vector(t{tracker})"),
    }
}

fn regs_json(prefix: &str, regs: &[(u8, RegClass)]) -> Json {
    Json::arr(regs.iter().map(|(i, c)| {
        Json::obj([
            ("reg", format!("{prefix}{i}").into()),
            ("class", regclass_name(c).into()),
        ])
    }))
}

fn abort_json(record: &AbortRecord) -> Json {
    let trackers = record.trackers.iter().map(|t| {
        Json::obj([
            ("values", Json::arr(t.values.iter().copied())),
            ("complete", t.complete.into()),
            ("consistent", t.consistent.into()),
            ("wide", t.wide.into()),
            ("address_use", t.address_use.into()),
        ])
    });
    Json::obj([
        ("status", "aborted".into()),
        ("reason", record.reason.tag().into()),
        ("detail", record.reason.to_string().into()),
        ("pc", record.pc.into()),
        ("opcode", (&record.opcode).into()),
        ("instr_index", record.instr_index.into()),
        ("phase", record.phase.into()),
        ("loops_done", record.loops_done.into()),
        ("regs", regs_json("r", &record.regs)),
        ("fregs", regs_json("f", &record.fregs)),
        ("trackers", Json::arr(trackers)),
    ])
}

fn tally_json(tally: &BTreeMap<&'static str, u64>) -> Json {
    Json::obj(tally.iter().map(|(&t, &n)| (t, n.into())))
}

/// Renders an [`ExplainReport`] as JSON (schema `liquid-simd-explain-v2`;
/// v2 added the execution-backend name and the per-run `blocks`
/// block-cache counters).
#[must_use]
pub fn explain_json(report: &ExplainReport) -> String {
    let runs = report
        .widths
        .iter()
        .enumerate()
        .zip(report.cycles.iter().zip(&report.mcache))
        .map(|((i, &w), (&c, m))| {
            let b = report.blocks.get(i).copied().unwrap_or_default();
            let blocks = b
                .counters()
                .map(|(k, v)| (k.trim_start_matches("blocks."), v.into()));
            Json::obj([
                ("width", w.into()),
                ("cycles", c.into()),
                (
                    "mcache",
                    Json::obj([
                        ("lookups", m.lookups.into()),
                        ("hits", m.hits.into()),
                        ("pending", m.pending.into()),
                        ("inserts", m.inserts.into()),
                        ("evictions", m.evictions.into()),
                        ("conflicts", m.conflicts.into()),
                    ]),
                ),
                ("blocks", Json::obj(blocks)),
            ])
        });
    let regions = report.regions.iter().map(|region| {
        let widths = region.widths.iter().map(|rw| {
            let outcome = match &rw.outcome {
                RegionOutcome::Translated { uops } => {
                    Json::obj([("status", "translated".into()), ("uops", (*uops).into())])
                }
                RegionOutcome::Aborted { record } => abort_json(record),
                RegionOutcome::NotAttempted => Json::obj([("status", "not-attempted".into())]),
            };
            Json::obj([
                ("width", rw.width.into()),
                ("scalar_calls", rw.scalar_calls.into()),
                ("micro_calls", rw.micro_calls.into()),
                ("aborts", tally_json(&rw.aborts)),
                ("outcome", outcome),
            ])
        });
        Json::obj([
            ("entry", region.entry.into()),
            ("label", region.label.as_deref().into()),
            ("widths", Json::arr(widths)),
        ])
    });
    let mut doc = Json::obj([
        ("schema", "liquid-simd-explain-v2".into()),
        ("program", (&report.program).into()),
        ("backend", report.backend.to_string().into()),
        ("widths", Json::arr(report.widths.iter().copied())),
        ("runs", Json::arr(runs)),
    ]);
    if !report.ledgers.is_empty() {
        doc.set(
            "ledger",
            Json::arr(report.ledgers.iter().map(LedgerSnapshot::json)),
        );
    }
    doc.set("regions", Json::arr(regions));
    doc.write_rows()
}

fn region_name(entry: u32, label: Option<&str>) -> String {
    label.map_or_else(|| format!("@{entry}"), |l| format!("{l} @{entry}"))
}

/// Renders an [`ExplainReport`] as aligned human-readable text.
#[must_use]
pub fn render_explain(report: &ExplainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — explain at widths {:?}",
        report.program, report.widths
    );
    for (w, (c, m)) in report
        .widths
        .iter()
        .zip(report.cycles.iter().zip(&report.mcache))
    {
        let _ = writeln!(
            out,
            "  w{w:<2} {c} cycles — mcache {}/{} hits, {} evictions, {} conflicts",
            m.hits, m.lookups, m.evictions, m.conflicts
        );
    }
    for (w, snap) in report.widths.iter().zip(&report.ledgers) {
        let cats: Vec<String> = snap
            .categories
            .iter()
            .filter(|(_, b)| b.cycles > 0)
            .map(|(name, b)| format!("{name} {}", b.cycles))
            .collect();
        if !cats.is_empty() {
            let _ = writeln!(out, "  w{w:<2} ledger: {}", cats.join(", "));
        }
    }
    if report.regions.is_empty() {
        let _ = writeln!(out, "\nno outlined regions were called");
        return out;
    }
    for region in &report.regions {
        let _ = writeln!(
            out,
            "\nregion {}",
            region_name(region.entry, region.label.as_deref())
        );
        for rw in &region.widths {
            let calls = format!(
                "{} microcode / {} scalar calls",
                rw.micro_calls, rw.scalar_calls
            );
            match &rw.outcome {
                RegionOutcome::Translated { uops } => {
                    let _ = writeln!(out, "  w{:<2} translated: {uops} uops — {calls}", rw.width);
                    for (tag, n) in &rw.aborts {
                        let _ = writeln!(out, "       ({n} earlier abort(s): {tag})");
                    }
                }
                RegionOutcome::Aborted { record } => {
                    let _ = writeln!(
                        out,
                        "  w{:<2} ABORTED: {} — {calls}",
                        rw.width, record.reason
                    );
                    let _ = writeln!(
                        out,
                        "       at pc={} `{}` instr #{} ({} phase, {} loops done)",
                        record.pc,
                        record.opcode,
                        record.instr_index,
                        record.phase,
                        record.loops_done
                    );
                    if !record.regs.is_empty() || !record.fregs.is_empty() {
                        let classes: Vec<String> = record
                            .regs
                            .iter()
                            .map(|(i, c)| format!("r{i}={}", regclass_name(c)))
                            .chain(
                                record
                                    .fregs
                                    .iter()
                                    .map(|(i, c)| format!("f{i}={}", regclass_name(c))),
                            )
                            .collect();
                        let _ = writeln!(out, "       regs: {}", classes.join(", "));
                    }
                    for (tag, n) in &rw.aborts {
                        let _ = writeln!(out, "       tally: {tag} x{n}");
                    }
                }
                RegionOutcome::NotAttempted => {
                    let _ = writeln!(out, "  w{:<2} not attempted — {calls}", rw.width);
                }
            }
        }
    }
    out
}

/// Renders a [`ProfileReport`] as JSON (schema `liquid-simd-profile-v1`),
/// keeping the `top` heaviest targets and microcode-cache entries.
#[must_use]
pub fn profile_json(report: &ProfileReport, top: usize) -> String {
    let phases = &report.phases;
    let spans = report.span_summary.iter().map(|a| {
        Json::obj([
            ("name", (&a.name).into()),
            ("count", a.count.into()),
            ("open", a.open.into()),
            ("total_cycles", a.total_cycles.into()),
            ("mean_cycles", a.mean_cycles().into()),
            ("max_cycles", a.max_cycles.into()),
            ("total_wall_ns", a.total_wall_ns.into()),
        ])
    });
    let targets = report.targets.iter().take(top).map(|(pc, label, t)| {
        Json::obj([
            ("entry", (*pc).into()),
            ("label", label.as_deref().into()),
            ("scalar_calls", t.scalar_calls.into()),
            ("scalar_cycles", t.scalar_cycles.into()),
            ("micro_calls", t.micro_calls.into()),
            ("micro_cycles", t.micro_cycles.into()),
        ])
    });
    let m = &report.mcache;
    let entries = report.mcache_entries.iter().take(top).map(|(pc, e)| {
        Json::obj([
            ("entry", (*pc).into()),
            ("label", Json::Null),
            ("hits", e.hits.into()),
            ("misses", e.misses.into()),
            ("pending", e.pending.into()),
            ("inserts", e.inserts.into()),
            ("evictions", e.evictions.into()),
            ("evicted_by", Json::arr(e.evicted_by.iter().copied())),
            ("uops", e.uops.into()),
        ])
    });
    let tr = &report.translator;
    Json::obj([
        ("schema", "liquid-simd-profile-v1".into()),
        ("program", (&report.program).into()),
        ("lanes", report.lanes.into()),
        ("cycles", report.cycles.into()),
        ("retired", report.retired.into()),
        (
            "phases",
            Json::obj([
                ("scalar_cycles", phases.scalar_cycles.into()),
                ("micro_cycles", phases.micro_cycles.into()),
                ("jit_stall_cycles", phases.jit_stall_cycles.into()),
            ]),
        ),
        ("ledger", report.ledger.json()),
        ("spans", Json::arr(spans)),
        ("targets", Json::arr(targets)),
        (
            "mcache",
            Json::obj([
                ("lookups", m.lookups.into()),
                ("hits", m.hits.into()),
                ("pending", m.pending.into()),
                ("inserts", m.inserts.into()),
                ("evictions", m.evictions.into()),
            ]),
        ),
        ("mcache_entries", Json::arr(entries)),
        (
            "translator",
            Json::obj([
                ("attempts", tr.attempts.into()),
                ("successes", tr.successes.into()),
                ("aborted", tr.aborted().into()),
                ("aborts", tally_json(&tr.aborts)),
            ]),
        ),
    ])
    .write_rows()
}

/// Cycles covered by the run-tiling `exec:*` spans (scalar + microcode
/// execution segments). Equals [`ProfileReport::cycles`] for a halted run.
#[must_use]
pub fn exec_span_cycles(report: &ProfileReport) -> u64 {
    report
        .span_summary
        .iter()
        .filter(|a| a.name.starts_with("exec:"))
        .map(|a| a.total_cycles)
        .sum()
}

/// Renders a [`ProfileReport`] as aligned human-readable text, keeping the
/// `top` heaviest rows per table.
#[must_use]
pub fn render_profile(report: &ProfileReport, top: usize) -> String {
    let mut out = String::new();
    let lanes = if report.lanes == 0 {
        "scalar only".to_string()
    } else {
        format!("{} lanes", report.lanes)
    };
    let _ = writeln!(out, "{} — profile at {lanes}", report.program);
    let _ = writeln!(
        out,
        "cycles {} (scalar {}, microcode {}, jit stall {})   retired {}",
        report.cycles,
        report.phases.scalar_cycles,
        report.phases.micro_cycles,
        report.phases.jit_stall_cycles,
        report.retired
    );
    let _ = writeln!(out, "translator {}", report.translator);
    let cats: Vec<String> = report
        .ledger
        .categories
        .iter()
        .filter(|(_, b)| b.cycles > 0)
        .map(|(name, b)| format!("{name} {}", b.cycles))
        .collect();
    if !cats.is_empty() {
        let _ = writeln!(out, "ledger {}", cats.join(", "));
    }

    if !report.span_summary.is_empty() {
        let _ = writeln!(out, "\nspans (by total simulated cycles)");
        let _ = writeln!(
            out,
            "  {:<22} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "cycles", "mean", "max", "wall-ms"
        );
        for a in report.span_summary.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<22} {:>6} {:>10} {:>10.1} {:>10} {:>10.3}",
                a.name,
                a.count,
                a.total_cycles,
                a.mean_cycles(),
                a.max_cycles,
                a.total_wall_ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "  exec:* spans cover {} / {} cycles",
            exec_span_cycles(report),
            report.cycles
        );
    }

    if !report.targets.is_empty() {
        let _ = writeln!(out, "\nhottest call targets");
        for (pc, label, t) in report.targets.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<22} microcode {} calls / {} cycles   scalar {} calls / {} cycles",
                region_name(*pc, label.as_deref()),
                t.micro_calls,
                t.micro_cycles,
                t.scalar_calls,
                t.scalar_cycles
            );
        }
    }

    if !report.mcache_entries.is_empty() {
        let _ = writeln!(out, "\nmicrocode cache entries");
        for (pc, e) in report.mcache_entries.iter().take(top) {
            let evictors = if e.evicted_by.is_empty() {
                String::new()
            } else {
                format!(
                    "   evicted by {}",
                    e.evicted_by
                        .iter()
                        .map(|pc| region_name(*pc, report_label(report, *pc).as_deref()))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            let _ = writeln!(
                out,
                "  {:<22} hits {:<4} misses {:<4} inserts {:<3} evictions {:<3} uops {}{}",
                region_name(*pc, report_label(report, *pc).as_deref()),
                e.hits,
                e.misses,
                e.inserts,
                e.evictions,
                e.uops,
                evictors
            );
        }
    }
    out
}

/// Renders a flat dotted-name counter table (the `counters` object of a
/// `metrics-v1` snapshot or a `perfhist-v1` record) as aligned human text,
/// grouped by top-level prefix with a blank line between groups — the
/// human channel of `liquid-simd inspect`, next to `--raw` JSON.
#[must_use]
pub fn render_counter_table(counters: &std::collections::BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    if counters.is_empty() {
        out.push_str("(no counters)\n");
        return out;
    }
    let width = counters.keys().map(String::len).max().unwrap_or(0);
    let mut last_group: Option<&str> = None;
    for (name, v) in counters {
        let group = name.split('.').next().unwrap_or(name);
        if let Some(prev) = last_group {
            if prev != group {
                out.push('\n');
            }
        }
        last_group = Some(group);
        let _ = writeln!(out, "  {name:<width$}  {v}");
    }
    out
}

/// Looks up a target's label from the report's own target table (the
/// report is self-contained; no `Program` needed at render time).
fn report_label(report: &ProfileReport, pc: u32) -> Option<String> {
    report
        .targets
        .iter()
        .find(|(p, _, _)| *p == pc)
        .and_then(|(_, l, _)| l.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_isa::asm;

    const ADD_ONE: &str = r"
.data
.i32 A: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r5, #0
again:
    bl.v kernel
    add r5, r5, #1
    cmp r5, #6
    blt again
    halt
kernel:
    mov r0, #0
top:
    ldw r1, [A + r0]
    add r1, r1, #1
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
";

    /// Same driver, but the kernel hides an untranslatable opcode.
    const ILLEGAL: &str = r"
.data
.i32 A: 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r5, #0
again:
    bl.v kernel
    add r5, r5, #1
    cmp r5, #3
    blt again
    halt
kernel:
    mov r0, #0
top:
    ldw r1, [A + r0]
    bic r1, r1, #1
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #8
    blt top
    ret
";

    #[test]
    fn explain_reports_translated_region_per_width() {
        let p = asm::assemble(ADD_ONE).unwrap();
        let opts = ExplainOptions {
            widths: vec![2, 4],
            ..ExplainOptions::default()
        };
        let report = explain(&p, "add_one", &opts).unwrap();
        assert_eq!(report.widths, vec![2, 4]);
        assert_eq!(report.regions.len(), 1);
        let region = &report.regions[0];
        assert_eq!(region.label.as_deref(), Some("kernel"));
        for rw in &region.widths {
            assert!(
                matches!(rw.outcome, RegionOutcome::Translated { uops } if uops > 0),
                "width {} should translate: {:?}",
                rw.width,
                rw.outcome
            );
            assert!(rw.micro_calls > 0);
        }
        let json = explain_json(&report);
        assert!(json.contains("\"schema\": \"liquid-simd-explain-v2\""));
        assert!(json.contains("\"backend\": \"interp\""));
        assert!(json.contains("\"status\": \"translated\""));
        let human = render_explain(&report);
        assert!(human.contains("region kernel"));
        assert!(human.contains("translated:"));
    }

    #[test]
    fn explain_sweeps_identically_under_the_superblock_backend() {
        let p = asm::assemble(ADD_ONE).unwrap();
        let base = ExplainOptions {
            widths: vec![2, 4],
            ..ExplainOptions::default()
        };
        let interp = explain(&p, "add_one", &base).unwrap();
        let sb = explain(
            &p,
            "add_one",
            &ExplainOptions {
                backend: liquid_simd_sim::BackendKind::Superblock,
                ..base
            },
        )
        .unwrap();
        // The verdict surface is backend-independent…
        assert_eq!(interp.cycles, sb.cycles);
        assert_eq!(interp.regions.len(), sb.regions.len());
        // …but the superblock run carries block-cache telemetry.
        assert!(interp.blocks.iter().all(|b| *b == BlockStats::default()));
        assert!(sb.blocks.iter().any(|b| b.lowered > 0));
        let json = explain_json(&sb);
        assert!(json.contains("\"backend\": \"superblock\""));
        assert!(json.contains("\"cache_hits\""));
    }

    #[test]
    fn explain_names_abort_reason_pc_and_instruction_index() {
        let p = asm::assemble(ILLEGAL).unwrap();
        let opts = ExplainOptions {
            widths: vec![4],
            ..ExplainOptions::default()
        };
        let report = explain(&p, "illegal", &opts).unwrap();
        let rw = &report.regions[0].widths[0];
        let RegionOutcome::Aborted { record } = &rw.outcome else {
            panic!("expected abort, got {:?}", rw.outcome);
        };
        assert_eq!(record.reason.tag(), "unsupported-opcode");
        let liquid_simd_translator::AbortReason::UnsupportedOpcode { pc } = record.reason else {
            panic!("wrong reason: {:?}", record.reason);
        };
        assert!(
            p.code[pc as usize].to_string().starts_with("bic"),
            "offender at @{pc}: {}",
            p.code[pc as usize]
        );
        assert!(record.instr_index > 0);
        assert!(!record.opcode.is_empty());
        let json = explain_json(&report);
        assert!(json.contains("\"reason\": \"unsupported-opcode\""));
        assert!(json.contains(&format!("\"pc\": {}", record.pc)));
        assert!(json.contains(&format!("\"instr_index\": {}", record.instr_index)));
        let human = render_explain(&report);
        assert!(human.contains("ABORTED"));
        assert!(human.contains("instr #"));
    }

    #[test]
    fn external_abort_provenance_survives_into_explain_json() {
        let p = asm::assemble(ADD_ONE).unwrap();
        let opts = ExplainOptions {
            widths: vec![4],
            interrupt_every: 40,
            ..ExplainOptions::default()
        };
        let report = explain(&p, "interrupted", &opts).unwrap();
        let json = explain_json(&report);
        assert!(
            json.contains("\"external\""),
            "expected an external abort in: {json}"
        );
        let rw = &report.regions[0].widths[0];
        assert!(
            rw.aborts.contains_key("external"),
            "per-region tally: {:?}",
            rw.aborts
        );
    }

    #[test]
    fn profile_exec_spans_tile_the_run() {
        let p = asm::assemble(ADD_ONE).unwrap();
        let report = profile(&p, "add_one", 4).unwrap();
        assert_eq!(report.phases.total(), report.cycles);
        assert_eq!(
            exec_span_cycles(&report),
            report.cycles,
            "exec:* spans must cover every cycle: {:?}",
            report.span_summary
        );
        assert!(report.phases.micro_cycles > 0);
        assert!(!report.targets.is_empty());
        assert!(!report.mcache_entries.is_empty());
        let json = profile_json(&report, 10);
        assert!(json.contains("\"schema\": \"liquid-simd-profile-v1\""));
        let human = render_profile(&report, 10);
        assert!(human.contains("spans (by total simulated cycles)"));
        assert!(human.contains("hottest call targets"));
    }

    #[test]
    fn counter_table_aligns_and_groups_by_prefix() {
        let mut counters = std::collections::BTreeMap::new();
        counters.insert("cycles".to_string(), 1234u64);
        counters.insert("mcache.hits".to_string(), 7);
        counters.insert("mcache.lookups".to_string(), 9);
        counters.insert("translator.attempts".to_string(), 3);
        let text = render_counter_table(&counters);
        assert!(text.contains("cycles"));
        assert!(text.contains("mcache.hits"));
        // One blank line between the cycles, mcache, and translator groups.
        assert_eq!(text.matches("\n\n").count(), 2, "{text}");
        // Values aligned to one column past the longest name.
        let hit_line = text.lines().find(|l| l.contains("mcache.hits")).unwrap();
        let attempt_line = text
            .lines()
            .find(|l| l.contains("translator.attempts"))
            .unwrap();
        assert_eq!(hit_line.rfind(' '), attempt_line.rfind(' '), "{text}");
        assert_eq!(
            render_counter_table(&std::collections::BTreeMap::new()),
            "(no counters)\n"
        );
    }
}
