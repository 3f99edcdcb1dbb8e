//! Exporters: JSON-lines, Chrome trace-event format, folded stacks and a
//! span table. Both JSON forms are written compactly through
//! [`crate::json`].

use std::fmt::Write as _;

use crate::event::{TraceEvent, TraceRecord, Track};
use crate::json::Json;
use crate::span::{SpanAgg, SpanRecord};

/// The event-specific payload fields, e.g. `func_pc: 12, reason:
/// "cam-miss"`.
fn payload(event: &TraceEvent) -> Vec<(&'static str, Json)> {
    match event {
        TraceEvent::InstrRetired { pc, vector } => {
            vec![("pc", (*pc).into()), ("vector", (*vector).into())]
        }
        TraceEvent::CallEnter { target, mode } | TraceEvent::CallExit { target, mode } => {
            vec![("target", (*target).into()), ("mode", mode.as_str().into())]
        }
        TraceEvent::TranslationBegin { func_pc }
        | TraceEvent::McacheHit { func_pc }
        | TraceEvent::McacheMiss { func_pc }
        | TraceEvent::McachePending { func_pc }
        | TraceEvent::McacheEvict { func_pc } => vec![("func_pc", (*func_pc).into())],
        TraceEvent::TranslationProgress { func_pc, observed } => {
            vec![
                ("func_pc", (*func_pc).into()),
                ("observed", (*observed).into()),
            ]
        }
        TraceEvent::TranslationCommit {
            func_pc,
            uops,
            dynamic_instrs,
        } => vec![
            ("func_pc", (*func_pc).into()),
            ("uops", (*uops).into()),
            ("dynamic_instrs", (*dynamic_instrs).into()),
        ],
        TraceEvent::TranslationAbort { func_pc, reason } => {
            vec![("func_pc", (*func_pc).into()), ("reason", (*reason).into())]
        }
        TraceEvent::McacheInsert { func_pc, uops } => {
            vec![("func_pc", (*func_pc).into()), ("uops", (*uops).into())]
        }
        TraceEvent::McacheInvalidate { entries } => vec![("entries", (*entries).into())],
        TraceEvent::CacheMiss { cache, addr } => {
            vec![("cache", cache.as_str().into()), ("addr", (*addr).into())]
        }
        TraceEvent::InterruptInjected { retired } => vec![("retired", (*retired).into())],
    }
}

/// Renders records as JSON-lines: one object per line with `seq`, `cycle`,
/// `kind`, `track`, and the event's payload fields inline.
#[must_use]
pub fn json_lines(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let head = [
            ("seq", r.seq.into()),
            ("cycle", r.cycle.into()),
            ("kind", r.event.kind().into()),
            ("track", r.event.track().as_str().into()),
        ];
        out.push_str(&Json::obj(head.into_iter().chain(payload(&r.event))).write());
        out.push('\n');
    }
    out
}

/// A short human label for an event, used as the Chrome-trace `name`.
fn chrome_name(event: &TraceEvent) -> String {
    match event {
        TraceEvent::CallEnter { target, mode } | TraceEvent::CallExit { target, mode } => {
            format!("call@{target} ({})", mode.as_str())
        }
        TraceEvent::TranslationBegin { func_pc }
        | TraceEvent::TranslationProgress { func_pc, .. }
        | TraceEvent::TranslationCommit { func_pc, .. }
        | TraceEvent::TranslationAbort { func_pc, .. } => format!("translate@{func_pc}"),
        other => other.kind().to_string(),
    }
}

/// Renders records and spans in Chrome trace-event format
/// (`chrome://tracing`, Perfetto). Cycles map to microseconds one-to-one.
/// Durations are emitted as `B`/`E` pairs: call enter→exit on the
/// pipeline track and translation begin→commit/abort on the translator
/// track; everything else is an instant. Each subsystem gets its own named
/// thread track. Spans render on their track's thread, stacked by nesting
/// depth; the begin/end order counters recorded by the tracer guarantee a
/// valid chronological interleaving even when several spans share a cycle
/// stamp. Still-open spans emit their `B` only (the viewer extends them to
/// the end of the trace).
#[must_use]
pub fn chrome_trace(records: &[TraceRecord], spans: &[SpanRecord]) -> String {
    let name_arg = |name: &str| Json::obj([("name", name.into())]);
    let mut events: Vec<Json> = Vec::with_capacity(records.len() + 2 * spans.len() + 8);
    events.push(Json::obj([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 1u64.into()),
        ("tid", 0u64.into()),
        ("args", name_arg("liquid-simd")),
    ]));
    for track in Track::ALL {
        events.push(Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", track.tid().into()),
            ("args", name_arg(track.as_str())),
        ]));
    }
    for r in records {
        let ph = match &r.event {
            TraceEvent::CallEnter { .. } | TraceEvent::TranslationBegin { .. } => "B",
            TraceEvent::CallExit { .. }
            | TraceEvent::TranslationCommit { .. }
            | TraceEvent::TranslationAbort { .. } => "E",
            _ => "i",
        };
        let mut e = Json::obj([
            ("name", chrome_name(&r.event).into()),
            ("cat", r.event.kind().into()),
            ("ph", ph.into()),
        ]);
        if ph == "i" {
            e.set("s", "t".into());
        }
        e.set("ts", r.cycle.into());
        e.set("pid", 1u64.into());
        e.set("tid", r.event.track().tid().into());
        e.set("args", Json::obj(payload(&r.event)));
        events.push(e);
    }
    // Span B/E events, in the tracer's global begin/end order so pairs on
    // one thread nest correctly.
    let mut span_events: Vec<(u64, Json)> = Vec::with_capacity(2 * spans.len());
    for s in spans {
        let edge = |ph: &str, ts: u64| {
            Json::obj([
                ("name", (&s.name).into()),
                ("cat", "span".into()),
                ("ph", ph.into()),
                ("ts", ts.into()),
                ("pid", 1u64.into()),
                ("tid", s.track.tid().into()),
            ])
        };
        let mut begin = edge("B", s.begin_cycle);
        begin.set("args", Json::obj([("depth", s.depth.into())]));
        span_events.push((s.begin_order, begin));
        if let (Some(order), Some(cycle)) = (s.end_order, s.end_cycle) {
            span_events.push((order, edge("E", cycle)));
        }
    }
    span_events.sort_by_key(|(order, _)| *order);
    events.extend(span_events.into_iter().map(|(_, e)| e));
    let mut out = Json::obj([("traceEvents", Json::Arr(events))]).write();
    out.push('\n');
    out
}

/// Renders closed spans as folded stacks — the flamegraph input format:
/// one line per distinct call path, `track;outer;inner <self-cycles>`,
/// sorted by path. Self time is the span's cycles minus the cycles of its
/// *direct* children (clamped at zero); zero-self-time paths are kept so
/// every frame that appears in a deeper path also exists as a line.
/// Still-open spans are skipped — they have no cycle delta.
#[must_use]
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    // Reconstruct ancestry per track from the global begin/end ordering:
    // a span is a child of the most recent same-track span that began
    // before it and ended after it.
    let mut ordered: Vec<&SpanRecord> = spans.iter().filter(|s| s.closed()).collect();
    ordered.sort_by_key(|s| s.begin_order);
    let mut totals: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new(); // path -> (cycles, direct children cycles)
    let mut stacks: std::collections::BTreeMap<&str, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for s in ordered {
        let stack = stacks.entry(s.track.as_str()).or_default();
        while let Some(top) = stack.last() {
            if top.end_order.unwrap_or(u64::MAX) < s.begin_order {
                stack.pop();
            } else {
                break;
            }
        }
        let mut path = String::from(s.track.as_str());
        for anc in stack.iter() {
            path.push(';');
            path.push_str(&anc.name);
        }
        if let Some(parent) = stack.last() {
            let mut parent_path = String::from(s.track.as_str());
            for anc in &stack[..stack.len() - 1] {
                parent_path.push(';');
                parent_path.push_str(&anc.name);
            }
            parent_path.push(';');
            parent_path.push_str(&parent.name);
            totals.entry(parent_path).or_default().1 += s.cycles();
        }
        path.push(';');
        path.push_str(&s.name);
        totals.entry(path).or_default().0 += s.cycles();
        stack.push(s);
    }
    let mut out = String::new();
    for (path, (cycles, children)) in &totals {
        let _ = writeln!(out, "{path} {}", cycles.saturating_sub(*children));
    }
    out
}

/// Renders span aggregates ([`crate::span::aggregate`]) as a table: one row per
/// span name with call count, total/mean/max simulated cycles, and total
/// wall time, in the order given.
#[must_use]
pub fn span_summary(aggs: &[SpanAgg]) -> String {
    if aggs.is_empty() {
        return String::new();
    }
    let mut out = String::from("spans:\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>7} {:>12} {:>10} {:>10} {:>10}",
        "name", "count", "cycles", "mean", "max", "wall-ms"
    );
    for a in aggs {
        let _ = writeln!(
            out,
            "  {:<24} {:>7} {:>12} {:>10} {:>10} {:>10.3}{}",
            a.name,
            a.count,
            a.total_cycles,
            a.mean_cycles(),
            a.max_cycles,
            a.total_wall_ns as f64 / 1e6,
            if a.open > 0 {
                format!("  ({} open)", a.open)
            } else {
                String::new()
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallMode, TraceEvent};
    use crate::tracer::Tracer;

    fn sample_records() -> Vec<TraceRecord> {
        let t = Tracer::new();
        t.set_now(10);
        t.emit(TraceEvent::CallEnter {
            target: 8,
            mode: CallMode::Scalar,
        });
        t.emit(TraceEvent::TranslationBegin { func_pc: 8 });
        t.set_now(40);
        t.emit(TraceEvent::TranslationCommit {
            func_pc: 8,
            uops: 5,
            dynamic_instrs: 64,
        });
        t.set_now(41);
        t.emit(TraceEvent::CallExit {
            target: 8,
            mode: CallMode::Scalar,
        });
        t.records()
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let text = json_lines(&sample_records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"kind\":\"call-enter\""));
        assert!(lines[2].contains("\"uops\":5"));
    }

    #[test]
    fn chrome_trace_has_pairs_and_metadata() {
        let text = chrome_trace(&sample_records(), &[]);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        // Balanced B/E per track in this simple case.
        let b = text.matches("\"ph\":\"B\"").count();
        let e = text.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }

    #[test]
    fn chrome_trace_spans_nest_in_order() {
        let t = Tracer::new();
        t.set_now(10);
        let outer = t.span_begin(Track::Pipeline, "outer");
        t.set_now(20);
        let inner = t.span_begin(Track::Pipeline, "inner");
        t.set_now(30);
        t.span_end(inner);
        t.set_now(40);
        t.span_end(outer);
        let text = chrome_trace(&[], &t.spans());
        // Inner's B after outer's B, inner's E before outer's E.
        let pos = |needle: &str| text.find(needle).unwrap();
        let outer_b = pos("\"name\":\"outer\",\"cat\":\"span\",\"ph\":\"B\"");
        let inner_b = pos("\"name\":\"inner\",\"cat\":\"span\",\"ph\":\"B\"");
        let inner_e = pos("\"name\":\"inner\",\"cat\":\"span\",\"ph\":\"E\"");
        let outer_e = pos("\"name\":\"outer\",\"cat\":\"span\",\"ph\":\"E\"");
        assert!(outer_b < inner_b && inner_b < inner_e && inner_e < outer_e);
        assert_eq!(text.matches("\"cat\":\"span\"").count(), 4);
    }

    #[test]
    fn folded_stacks_computes_self_time() {
        let t = Tracer::new();
        t.set_now(0);
        let outer = t.span_begin(Track::Pipeline, "run");
        t.set_now(10);
        let inner = t.span_begin(Track::Pipeline, "exec:scalar");
        t.set_now(40);
        t.span_end(inner);
        t.set_now(50);
        let inner2 = t.span_begin(Track::Pipeline, "exec:micro");
        t.set_now(90);
        t.span_end(inner2);
        t.set_now(100);
        t.span_end(outer);
        // A sibling on another track must not nest under the pipeline.
        let tr = t.span_begin(Track::Translator, "translate@4");
        t.set_now(120);
        t.span_end(tr);
        let open = t.span_begin(Track::Pipeline, "left-open");
        let text = folded_stacks(&t.spans());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"pipeline;run 30")); // 100 - (30 + 40)
        assert!(lines.contains(&"pipeline;run;exec:scalar 30"));
        assert!(lines.contains(&"pipeline;run;exec:micro 40"));
        assert!(lines.contains(&"translator;translate@4 20"));
        assert!(!text.contains("left-open"), "open spans are skipped");
        t.span_end(open);
    }

    #[test]
    fn span_summary_aggregates_by_name() {
        let t = Tracer::new();
        for _ in 0..3 {
            let start = t.now();
            let id = t.span_begin(Track::Translator, "translate");
            t.set_now(start + 100);
            t.span_end(id);
        }
        let text = span_summary(&crate::span::aggregate(&t.spans()));
        assert!(text.starts_with("spans:"));
        assert!(text.contains("translate"));
        assert!(text.contains("300"));
        assert_eq!(span_summary(&[]), "", "no spans, no table");
    }
}
