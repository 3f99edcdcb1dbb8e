//! The self-contained HTML dashboard: one file, inline SVG, inline CSS,
//! zero JavaScript and zero external fetches — it must render from a CI
//! artifact viewer, an `mailcap` handler, or `file://` with no network.
//!
//! Sections: run header, per-workload cycle-trend sparklines across the
//! history, width-speedup bars (the paper's Figure 6 shape), counter
//! deltas vs the baseline record, and a flamegraph folded from the
//! tracer's span records. Colors are CSS custom properties with selected
//! light/dark values (`prefers-color-scheme` plus a `data-theme`
//! override); tooltips are native SVG `<title>` elements; every chart has
//! a plain-table equivalent so nothing is gated on color vision.

use std::fmt::Write as _;

use crate::record::{self, FamilyRow, WorkloadRow, GEN_SCHEMA, SERVE_SCHEMA};
use crate::sentinel::{self, SentinelOptions};
use crate::Json;

/// Ordinal blue ramp for the width series (steps 250/400/500/600 of the
/// sequential ramp — legal nearest-surface step in both modes).
const WIDTH_RAMP: [&str; 4] = ["#86b6ef", "#3987e5", "#256abf", "#184f95"];

/// Sequential blue ramp for flamegraph depth (steps 150..650).
const FLAME_RAMP: [&str; 6] = [
    "#b7d3f6", "#9ec5f4", "#6da7ec", "#5598e7", "#2a78d6", "#1c5cab",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn commas(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders the dashboard over a loaded history (oldest first) plus an
/// optional folded-stacks profile (`trace::export::folded_stacks` output).
#[must_use]
pub fn render(history: &[Json], folded: &str) -> String {
    render_extended(history, folded, &[], None)
}

/// [`render`] plus the observability panels: `flight-v1` black-box dumps
/// (each `(file name, JSONL text)`) and a live `metrics-v1` snapshot from
/// the `inspect` serve op, rendered as power-of-two histogram charts.
#[must_use]
pub fn render_extended(
    history: &[Json],
    folded: &str,
    flight_dumps: &[(String, String)],
    snapshot: Option<&Json>,
) -> String {
    let records = record::bench_records(history);
    let serve_records: Vec<&Json> = history
        .iter()
        .filter(|r| r.get("schema").and_then(Json::as_str) == Some(SERVE_SCHEMA))
        .collect();
    let gen_records: Vec<&Json> = history
        .iter()
        .filter(|r| r.get("schema").and_then(Json::as_str) == Some(GEN_SCHEMA))
        .collect();
    let mut out = String::new();
    out.push_str(HEAD);
    if let Some(newest) = records.last() {
        let rows = record::rows(newest);
        header_section(&mut out, newest, &rows, records.len());
        sparkline_section(&mut out, &records);
        figure6_section(&mut out, &rows);
        ledger_section(&mut out, &rows);
        heatmap_section(&mut out, &rows);
        counter_section(&mut out, &records);
    } else if serve_records.is_empty() {
        out.push_str("<p class=\"empty\">No perfhist-v1 records in history.</p>");
    }
    families_section(&mut out, &gen_records);
    service_section(&mut out, &serve_records);
    snapshot_section(&mut out, snapshot);
    flight_section(&mut out, flight_dumps);
    flame_section(&mut out, folded);
    out.push_str("</main></body></html>\n");
    out
}

fn header_section(out: &mut String, newest: &Json, rows: &[WorkloadRow], n_records: usize) {
    let commit = record::commit(newest);
    let host = newest.get("host").and_then(Json::as_str).unwrap_or("?");
    let ts = newest.get("timestamp").and_then(Json::as_u64).unwrap_or(0);
    let total: u64 = rows.iter().map(|r| r.sim_cycles).sum();
    let _ = write!(
        out,
        "<header><h1>Liquid SIMD performance history</h1>\
         <div class=\"hero\"><span class=\"hero-value\">{}</span>\
         <span class=\"hero-label\">simulated cycles, full suite @ 8 lanes</span></div>\
         <p class=\"meta\">commit <code>{}</code> · host {} · unix {} · {} record{}</p></header>",
        commas(total),
        esc(&commit.chars().take(12).collect::<String>()),
        esc(host),
        ts,
        n_records,
        if n_records == 1 { "" } else { "s" }
    );
}

/// Per-workload cycle trend across the newest record and the older
/// records comparable with it (the sentinel's rule, so a trend never spans
/// a backend, smoke-set or config change): 2px line, end dot with a 2px
/// surface ring, no legend (single series), native tooltips per point.
fn sparkline_section(out: &mut String, records: &[&Json]) {
    let Some(&last) = records.last() else { return };
    let history: Vec<Vec<WorkloadRow>> = records
        .iter()
        .filter(|r| sentinel::comparable(last, r))
        .map(|r| record::rows(r))
        .collect();
    let Some(newest) = history.last() else { return };
    out.push_str("<section><h2>Cycle trend per workload</h2><div class=\"sparks\">");
    let (w, h, pad) = (180.0, 44.0, 6.0);
    for row in newest {
        let series: Vec<(usize, u64)> = history
            .iter()
            .enumerate()
            .filter_map(|(i, rows)| {
                let x = rows.iter().find(|x| x.name == row.name)?;
                Some((i, x.sim_cycles))
            })
            .collect();
        if series.is_empty() {
            continue;
        }
        let lo = series.iter().map(|&(_, c)| c).min().unwrap_or(0);
        let hi = series
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(lo + 1);
        let x_of = |i: usize| {
            if series.len() == 1 {
                w / 2.0
            } else {
                pad + (w - 2.0 * pad) * i as f64 / (series.len() - 1) as f64
            }
        };
        let y_of = |c: u64| pad + (h - 2.0 * pad) * (1.0 - (c - lo) as f64 / (hi - lo) as f64);
        let pts: Vec<String> = series
            .iter()
            .enumerate()
            .map(|(i, &(_, c))| format!("{:.1},{:.1}", x_of(i), y_of(c)))
            .collect();
        let (lx, ly) = (
            x_of(series.len() - 1),
            y_of(series.last().map(|&(_, c)| c).unwrap_or(0)),
        );
        let delta = if series.len() >= 2 {
            let first = series[0].1 as i128;
            let last = series[series.len() - 1].1 as i128;
            last - first
        } else {
            0
        };
        let _ = write!(
            out,
            "<figure class=\"spark\"><figcaption>{}</figcaption>\
             <svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
              aria-label=\"{} cycle trend\">\
             <title>{}: {} → {} cycles across {} records</title>\
             <polyline points=\"{}\" fill=\"none\" stroke=\"var(--series-1)\" \
              stroke-width=\"2\" stroke-linejoin=\"round\" stroke-linecap=\"round\"/>\
             <circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"6\" fill=\"var(--surface-1)\"/>\
             <circle cx=\"{lx:.1}\" cy=\"{ly:.1}\" r=\"4\" fill=\"var(--series-1)\"/>\
             </svg><span class=\"spark-value\">{}{}</span></figure>",
            esc(&row.name),
            esc(&row.name),
            esc(&row.name),
            commas(series[0].1),
            commas(series[series.len() - 1].1),
            series.len(),
            pts.join(" "),
            commas(row.sim_cycles),
            match delta.signum() {
                1 => format!(
                    " <span class=\"delta-up\">(+{})</span>",
                    commas(delta as u64)
                ),
                -1 => format!(
                    " <span class=\"delta-down\">(−{})</span>",
                    commas((-delta) as u64)
                ),
                _ => String::new(),
            }
        );
    }
    out.push_str("</div></section>");
}

/// Stable color per ledger category (anything unknown falls back to the
/// muted gray, so category additions never break old dashboards).
fn category_color(name: &str) -> &'static str {
    match name {
        "scalar-execute" => "#8a7f6a",
        "vector-execute" => "#2a78d6",
        "translate-overhead" => "#b86f12",
        "abort-replay" => "#d03b3b",
        "mcache-probe" => "#7a5ea8",
        "mcache-miss" => "#a83e77",
        "dispatch" => "#4a9a8f",
        _ => "#898781",
    }
}

/// Per-workload stacked category bars from the ledger snapshots embedded
/// in the newest record's rows. Each bar splits the workload's
/// headline-width cycles across the ledger's cost categories, so "where
/// did the cycles go" is answerable per workload at a glance.
fn ledger_section(out: &mut String, rows: &[WorkloadRow]) {
    // (workload, total, [(category, cycles)]) for rows that carry a ledger
    // snapshot; records from before every row carried one skip the panel.
    type Bar = (String, u64, Vec<(String, u64)>);
    let mut bars: Vec<Bar> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for r in rows {
        let Some(ledger) = &r.ledger else { continue };
        let split: Vec<(String, u64)> = ledger
            .categories
            .iter()
            .filter(|(_, b)| b.cycles > 0)
            .map(|(name, b)| (name.clone(), b.cycles))
            .collect();
        if split.is_empty() {
            continue;
        }
        for (name, _) in &split {
            if !seen.contains(name) {
                seen.push(name.clone());
            }
        }
        bars.push((r.name.clone(), split.iter().map(|&(_, c)| c).sum(), split));
    }
    if bars.is_empty() {
        return;
    }
    seen.sort();
    out.push_str("<section id=\"ledger-categories\"><h2>Cycle ledger: where the cycles went</h2>");
    out.push_str("<div class=\"legend\">");
    for name in &seen {
        let _ = write!(
            out,
            "<span><span class=\"swatch\" style=\"background:{}\"></span>{}</span>",
            category_color(name),
            esc(name)
        );
    }
    out.push_str("</div><table><tbody>");
    for (name, total, split) in &bars {
        let _ = write!(
            out,
            "<tr><td>{}</td><td><div class=\"ledger-bar\" role=\"img\" \
             aria-label=\"{} category split\">",
            esc(name),
            esc(name)
        );
        for (cat, cycles) in split {
            let share = *cycles as f64 / (*total).max(1) as f64 * 100.0;
            let _ = write!(
                out,
                "<span style=\"width:{share:.2}%;background:{}\" \
                 title=\"{}: {} {} cycles ({share:.1}%)\"></span>",
                category_color(cat),
                esc(name),
                esc(cat),
                commas(*cycles)
            );
        }
        let _ = write!(
            out,
            "</div></td><td class=\"num\">{}</td></tr>",
            commas(*total)
        );
    }
    out.push_str("</tbody></table></section>");
}

/// Width-comparison heatmap: per workload, cycles at every swept width
/// relative to the workload's best width. Cells glow red as they fall
/// behind the best, so a width inversion (a wider machine losing to a
/// narrower one, e.g. `179.art` w16 vs w8) jumps out as a hot cell to the
/// right of a cool one.
fn heatmap_section(out: &mut String, rows: &[WorkloadRow]) {
    let rows: Vec<&WorkloadRow> = rows
        .iter()
        .filter(|r| r.cycles_by_width.len() >= 2)
        .collect();
    if rows.is_empty() {
        return;
    }
    let widths: Vec<usize> = {
        let mut ws: Vec<usize> = rows
            .iter()
            .flat_map(|r| r.cycles_by_width.iter().map(|&(w, _)| w))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    };
    out.push_str("<section id=\"width-heatmap\"><h2>Width-comparison heatmap</h2>");
    out.push_str(
        "<p class=\"meta\">cycles at each width relative to the workload's best width \
         (1.00× = best; hotter = further behind)</p>",
    );
    out.push_str("<table class=\"heat\"><thead><tr><th>workload</th>");
    for w in &widths {
        let _ = write!(out, "<th class=\"num\">w{w}</th>");
    }
    out.push_str("</tr></thead><tbody>");
    for row in &rows {
        let best = row
            .cycles_by_width
            .iter()
            .map(|&(_, c)| c)
            .min()
            .unwrap_or(1)
            .max(1);
        let _ = write!(out, "<tr><td>{}</td>", esc(&row.name));
        for w in &widths {
            let Some(&(_, cycles)) = row.cycles_by_width.iter().find(|&&(bw, _)| bw == *w) else {
                out.push_str("<td class=\"cell\">—</td>");
                continue;
            };
            let ratio = cycles as f64 / best as f64;
            // 1.00× is transparent; the red channel saturates by 1.5×.
            let alpha = ((ratio - 1.0) / 0.5).clamp(0.0, 1.0) * 0.55;
            let _ = write!(
                out,
                "<td class=\"cell\" style=\"background:rgba(208,59,59,{alpha:.2})\" \
                 title=\"{}: {} cycles at w{w}\">{ratio:.2}×</td>",
                esc(&row.name),
                commas(cycles)
            );
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table></section>");
}

/// Width-speedup bars, paper Figure 6 shape: grouped bars per workload,
/// one ordinal-ramp series per lane width, speedup = scalar baseline
/// cycles / liquid cycles at that width. Reference hairline at 1.0.
fn figure6_section(out: &mut String, rows: &[WorkloadRow]) {
    let rows: Vec<&WorkloadRow> = rows
        .iter()
        .filter(|r| r.baseline_cycles > 0 && !r.cycles_by_width.is_empty())
        .collect();
    if rows.is_empty() {
        return;
    }
    let widths: Vec<usize> = {
        let mut ws: Vec<usize> = rows
            .iter()
            .flat_map(|r| r.cycles_by_width.iter().map(|&(w, _)| w))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    };
    let speedup = |r: &WorkloadRow, w: usize| -> Option<f64> {
        let &(_, cycles) = r.cycles_by_width.iter().find(|&&(bw, _)| bw == w)?;
        (cycles > 0).then(|| r.baseline_cycles as f64 / cycles as f64)
    };
    let max_speedup = rows
        .iter()
        .flat_map(|r| widths.iter().filter_map(|&w| speedup(r, w)))
        .fold(1.0f64, f64::max);
    let y_top = max_speedup.ceil().max(2.0);
    // Geometry: bars 12px with a 2px surface gap, groups padded.
    let (bar_w, gap, group_pad) = (12.0, 2.0, 14.0);
    let group_w = widths.len() as f64 * (bar_w + gap) - gap + group_pad;
    let (pad_l, pad_t, plot_h, label_h) = (36.0, 8.0, 180.0, 64.0);
    let svg_w = pad_l + rows.len() as f64 * group_w + 8.0;
    let svg_h = pad_t + plot_h + label_h;
    out.push_str("<section><h2>Width speedup (Figure 6 shape)</h2>");
    // Legend: ≥2 series, so always present; swatch carries the color.
    out.push_str("<div class=\"legend\">");
    for (i, w) in widths.iter().enumerate() {
        let _ = write!(
            out,
            "<span class=\"key\"><span class=\"swatch\" style=\"background:{}\"></span>{} lanes</span>",
            WIDTH_RAMP[i.min(WIDTH_RAMP.len() - 1)],
            w
        );
    }
    out.push_str("</div>");
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {svg_w:.0} {svg_h:.0}\" width=\"{svg_w:.0}\" height=\"{svg_h:.0}\" \
         role=\"img\" aria-label=\"speedup over scalar by lane width\">"
    );
    let y_of = |s: f64| pad_t + plot_h * (1.0 - s / y_top);
    // Hairline grid + ticks at integer speedups; emphasised baseline at 1×.
    let mut tick = 0.0;
    while tick <= y_top {
        let y = y_of(tick);
        let stroke = if (tick - 1.0).abs() < 1e-9 {
            "var(--baseline)"
        } else {
            "var(--grid)"
        };
        let _ = write!(
            out,
            "<line x1=\"{pad_l:.0}\" y1=\"{y:.1}\" x2=\"{:.0}\" y2=\"{y:.1}\" \
             stroke=\"{stroke}\" stroke-width=\"1\"/>\
             <text x=\"{:.0}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{tick:.0}×</text>",
            svg_w - 4.0,
            pad_l - 6.0,
            y + 3.5
        );
        tick += 1.0;
    }
    for (gi, r) in rows.iter().enumerate() {
        let gx = pad_l + gi as f64 * group_w;
        for (wi, &w) in widths.iter().enumerate() {
            let Some(s) = speedup(r, w) else { continue };
            let x = gx + wi as f64 * (bar_w + gap);
            let y = y_of(s);
            let color = WIDTH_RAMP[wi.min(WIDTH_RAMP.len() - 1)];
            // 4px rounded data-end, square baseline: round the top only.
            let _ = write!(
                out,
                "<path d=\"M{x:.1} {:.1} V{:.1} Q{x:.1} {y:.1} {:.1} {y:.1} H{:.1} \
                 Q{:.1} {y:.1} {:.1} {:.1} V{:.1} Z\" fill=\"{color}\">\
                 <title>{} @ {w} lanes: {s:.2}× ({} / {} cycles)</title></path>",
                pad_t + plot_h,
                (y + 4.0).min(pad_t + plot_h),
                x + 4.0,
                x + bar_w - 4.0,
                x + bar_w,
                x + bar_w,
                (y + 4.0).min(pad_t + plot_h),
                pad_t + plot_h,
                esc(&r.name),
                commas(r.baseline_cycles),
                commas(
                    r.cycles_by_width
                        .iter()
                        .find(|&&(bw, _)| bw == w)
                        .map(|&(_, c)| c)
                        .unwrap_or(0)
                ),
            );
        }
        let cx = gx + (group_w - group_pad) / 2.0;
        let _ = write!(
            out,
            "<text x=\"{cx:.1}\" y=\"{:.1}\" class=\"xlabel\" \
             transform=\"rotate(-38 {cx:.1} {:.1})\" text-anchor=\"end\">{}</text>",
            pad_t + plot_h + 14.0,
            pad_t + plot_h + 14.0,
            esc(&r.name)
        );
    }
    out.push_str("</svg>");
    // Table view: the accessibility channel for the same numbers.
    out.push_str("<details><summary>Data table</summary><table><thead><tr><th>workload</th><th>scalar cycles</th>");
    for w in &widths {
        let _ = write!(out, "<th>{w} lanes</th><th>speedup</th>");
    }
    out.push_str("</tr></thead><tbody>");
    for r in &rows {
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td>",
            esc(&r.name),
            commas(r.baseline_cycles)
        );
        for &w in &widths {
            match r.cycles_by_width.iter().find(|&&(bw, _)| bw == w) {
                Some(&(_, c)) => {
                    let _ = write!(
                        out,
                        "<td class=\"num\">{}</td><td class=\"num\">{:.2}×</td>",
                        commas(c),
                        r.baseline_cycles as f64 / c.max(1) as f64
                    );
                }
                None => out.push_str("<td class=\"num\">—</td><td class=\"num\">—</td>"),
            }
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table></details></section>");
}

/// Generated families: per-family speedup distribution strips (p10–p90
/// band, p50 tick) from the newest `perfhist-gen-v1` record, plus the
/// abort-coverage matrix (family × tag counts).
fn families_section(out: &mut String, gen_records: &[&Json]) {
    let Some(newest) = gen_records.last() else {
        return;
    };
    let fams = record::families(newest);
    if fams.is_empty() {
        return;
    }
    out.push_str("<section><h2>Generated families</h2>");

    // Speedup distribution strips for the translatable families.
    let strips: Vec<&FamilyRow> = fams.iter().filter(|f| f.speedup_p90 > 0.0).collect();
    if !strips.is_empty() {
        let x_top = strips
            .iter()
            .map(|f| f.speedup_p90)
            .fold(1.0f64, f64::max)
            .ceil()
            .max(2.0);
        let (label_w, plot_w, row_h, pad_t) = (150.0, 400.0, 22.0, 8.0);
        let svg_w = label_w + plot_w + 48.0;
        let svg_h = pad_t + strips.len() as f64 * row_h + 20.0;
        let x_of = |s: f64| label_w + plot_w * s / x_top;
        let _ = write!(
            out,
            "<svg viewBox=\"0 0 {svg_w:.0} {svg_h:.0}\" width=\"{svg_w:.0}\" height=\"{svg_h:.0}\" \
             role=\"img\" aria-label=\"speedup distribution per generated family\">"
        );
        // Vertical grid at integer speedups, 1× emphasised.
        let mut tick = 1.0;
        while tick <= x_top {
            let x = x_of(tick);
            let stroke = if (tick - 1.0).abs() < 1e-9 {
                "var(--baseline)"
            } else {
                "var(--grid)"
            };
            let _ = write!(
                out,
                "<line x1=\"{x:.1}\" y1=\"{pad_t:.0}\" x2=\"{x:.1}\" y2=\"{:.1}\" \
                 stroke=\"{stroke}\" stroke-width=\"1\"/>\
                 <text x=\"{x:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">{tick:.0}×</text>",
                pad_t + strips.len() as f64 * row_h,
                pad_t + strips.len() as f64 * row_h + 12.0
            );
            tick += 1.0;
        }
        for (i, f) in strips.iter().enumerate() {
            let cy = pad_t + i as f64 * row_h + row_h / 2.0;
            let (x10, x50, x90) = (
                x_of(f.speedup_p10),
                x_of(f.speedup_p50),
                x_of(f.speedup_p90),
            );
            let _ = write!(
                out,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"xlabel\" text-anchor=\"end\">{}</text>\
                 <rect x=\"{x10:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"8\" rx=\"4\" \
                  fill=\"var(--series-1)\" opacity=\"0.45\">\
                 <title>{}: p10 {:.2}× · p50 {:.2}× · p90 {:.2}× over {} variants</title></rect>\
                 <line x1=\"{x50:.1}\" y1=\"{:.1}\" x2=\"{x50:.1}\" y2=\"{:.1}\" \
                  stroke=\"var(--series-1)\" stroke-width=\"3\"/>\
                 <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">{:.2}×</text>",
                label_w - 8.0,
                cy + 3.5,
                esc(&f.family),
                cy - 4.0,
                (x90 - x10).max(2.0),
                esc(&f.family),
                f.speedup_p10,
                f.speedup_p50,
                f.speedup_p90,
                f.variants,
                cy - 7.0,
                cy + 7.0,
                x90 + 6.0,
                cy + 3.5,
                f.speedup_p50
            );
        }
        out.push_str("</svg>");
    }

    // Abort-coverage matrix: which tags each family exercises.
    let mut tags: Vec<String> = fams
        .iter()
        .flat_map(|f| f.aborts.iter().map(|(t, _)| t.clone()))
        .collect();
    tags.sort_unstable();
    tags.dedup();
    if !tags.is_empty() {
        out.push_str(
            "<details open><summary>Abort coverage matrix</summary>\
             <table><thead><tr><th>family</th><th>variants</th>",
        );
        for t in &tags {
            let _ = write!(out, "<th>{}</th>", esc(t));
        }
        out.push_str("</tr></thead><tbody>");
        for f in &fams {
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td>",
                esc(&f.family),
                f.variants
            );
            for t in &tags {
                match f.aborts.iter().find(|(ft, _)| ft == t) {
                    Some((_, n)) => {
                        let _ = write!(out, "<td class=\"num\">{}</td>", commas(*n));
                    }
                    None => out.push_str("<td class=\"num\">·</td>"),
                }
            }
            out.push_str("</tr>");
        }
        out.push_str("</tbody></table></details>");
    }

    // The accessibility table for the strip chart.
    out.push_str(
        "<details><summary>Distribution table</summary>\
         <table><thead><tr><th>family</th><th>variants</th>\
         <th>p10</th><th>p50</th><th>p90</th></tr></thead><tbody>",
    );
    for f in &fams {
        let _ = write!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{:.2}×</td><td class=\"num\">{:.2}×</td><td class=\"num\">{:.2}×</td></tr>",
            esc(&f.family),
            f.variants,
            f.speedup_p10,
            f.speedup_p50,
            f.speedup_p90
        );
    }
    out.push_str("</tbody></table></details></section>");
}

/// Counter deltas: every counter of the newest record that differs from
/// its comparable baseline's (the sentinel's pick). The raw record
/// counters, `backend.*` and `ledger.*` included: `diff` reads the latter
/// as categories and leaves the former out.
fn counter_section(out: &mut String, records: &[&Json]) {
    let Some(i) = sentinel::baseline(records, &SentinelOptions::default()) else {
        return;
    };
    let (baseline, newest) = (records[i], records[records.len() - 1]);
    let (Some(base_c), Some(cur_c)) = (
        baseline.get("counters").and_then(Json::as_obj),
        newest.get("counters").and_then(Json::as_obj),
    ) else {
        return;
    };
    let mut rows: Vec<(String, Option<u64>, u64)> = Vec::new();
    for (name, v) in cur_c {
        let Some(cur) = v.as_u64() else { continue };
        let base = base_c
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64());
        if base != Some(cur) {
            rows.push((name.clone(), base, cur));
        }
    }
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let commit = record::commit(baseline);
    let _ = write!(
        out,
        "<section><h2>Counter deltas vs baseline record</h2>\
         <p class=\"meta\">baseline commit <code>{}</code></p><table>\
         <thead><tr><th>counter</th><th>baseline</th><th>current</th><th>Δ</th></tr></thead><tbody>",
        esc(&commit.chars().take(12).collect::<String>())
    );
    for (name, base, cur) in rows {
        let delta_cell = match base {
            Some(b) if cur > b => format!("<td class=\"num delta-up\">+{}</td>", commas(cur - b)),
            Some(b) => format!("<td class=\"num delta-down\">−{}</td>", commas(b - cur)),
            None => "<td class=\"num\">new</td>".to_string(),
        };
        let _ = write!(
            out,
            "<tr><td><code>{}</code></td><td class=\"num\">{}</td><td class=\"num\">{}</td>{}</tr>",
            esc(&name),
            base.map_or_else(|| "—".to_string(), commas),
            commas(cur),
            delta_cell
        );
    }
    out.push_str("</tbody></table></section>");
}

/// Walks a nested key path through a record.
fn jpath<'a>(r: &'a Json, path: &[&str]) -> Option<&'a Json> {
    let mut cur = r;
    for key in path {
        cur = cur.get(key)?;
    }
    Some(cur)
}

/// The service panel from `perfhist-serve-v1` records: stat tiles for the
/// newest batch (requests, errors, cache hit rate, shards) and the
/// per-record table. Host-time numbers for the daemon come from
/// perfbench's `serve` workload, not from the history.
fn service_section(out: &mut String, records: &[&Json]) {
    let Some(newest) = records.last() else { return };
    let num_u = |r: &Json, path: &[&str]| jpath(r, path).and_then(Json::as_u64).unwrap_or(0);
    let hit_rate = |r: &Json| {
        100.0
            * jpath(r, &["cache", "hit_rate"])
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
    };
    out.push_str("<section><h2>Serving (batch telemetry)</h2><div class=\"sparks\">");
    let tiles: Vec<(&str, String)> = vec![
        (
            "requests (batch)",
            commas(num_u(newest, &["batch", "requests"])),
        ),
        ("errors", commas(num_u(newest, &["batch", "errors"]))),
        ("cache hit rate", format!("{:.1}%", hit_rate(newest))),
        ("shards", commas(num_u(newest, &["shards"]))),
    ];
    for (label, value) in tiles {
        let _ = write!(
            out,
            "<figure class=\"spark\"><figcaption>{label}</figcaption>\
             <span class=\"spark-value\">{value}</span></figure>"
        );
    }
    out.push_str("</div>");
    // Table view: every record, every gated number.
    out.push_str(
        "<details><summary>Data table</summary><table><thead><tr>\
         <th>shards</th><th>requests</th><th>errors</th><th>hit rate</th>\
         <th>sim cycles</th><th>responses hash</th></tr></thead><tbody>",
    );
    for r in records {
        let _ = write!(
            out,
            "<tr><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{:.1}%</td>\
             <td class=\"num\">{}</td><td><code>{}</code></td></tr>",
            num_u(r, &["shards"]),
            commas(num_u(r, &["batch", "requests"])),
            commas(num_u(r, &["batch", "errors"])),
            hit_rate(r),
            commas(num_u(r, &["determinism", "sim_cycles_total"])),
            esc(jpath(r, &["determinism", "responses_hash"])
                .and_then(Json::as_str)
                .unwrap_or("—")),
        );
    }
    out.push_str("</tbody></table></details></section>");
}

/// Short label for a power-of-two bucket upper edge.
fn pow2_label(bound: u64) -> String {
    if bound.is_power_of_two() {
        format!("≤2^{}", bound.trailing_zeros())
    } else {
        format!("≤{}", commas(bound))
    }
}

/// One `metrics-v1` histogram as a horizontal bar chart: a bar per
/// non-empty bucket, log-free linear widths (counts, not values), native
/// tooltips with the exact bucket edge and count.
fn histogram_chart(out: &mut String, name: &str, hist: &Json) {
    let (Some(bounds), Some(counts)) = (
        hist.get("bounds").and_then(Json::as_arr),
        hist.get("counts").and_then(Json::as_arr),
    ) else {
        return;
    };
    let total = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
    if total == 0 {
        return;
    }
    let max_bound = hist.get("max").and_then(Json::as_u64).unwrap_or(0);
    let rows: Vec<(String, u64)> = counts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let n = c.as_u64()?;
            (n > 0).then(|| {
                let label = match bounds.get(i).and_then(Json::as_u64) {
                    Some(b) => pow2_label(b),
                    None => format!(
                        ">{} (max {})",
                        bounds
                            .last()
                            .and_then(Json::as_u64)
                            .map_or_else(|| "?".to_string(), commas),
                        commas(max_bound)
                    ),
                };
                (label, n)
            })
        })
        .collect();
    let peak = rows.iter().map(|&(_, n)| n).max().unwrap_or(1);
    let (bar_max, row_h, label_w) = (320.0, 16.0, 110.0);
    let svg_h = rows.len() as f64 * (row_h + 3.0);
    let _ = write!(
        out,
        "<figure class=\"spark\"><figcaption><code>{}</code> ({} samples, sum {}, max {})</figcaption>\
         <svg viewBox=\"0 0 {:.0} {svg_h:.0}\" width=\"{:.0}\" height=\"{svg_h:.0}\" role=\"img\" \
          aria-label=\"{} histogram\">",
        esc(name),
        commas(total),
        commas(hist.get("sum").and_then(Json::as_u64).unwrap_or(0)),
        commas(max_bound),
        label_w + bar_max + 60.0,
        label_w + bar_max + 60.0,
        esc(name)
    );
    for (i, (label, n)) in rows.iter().enumerate() {
        let y = i as f64 * (row_h + 3.0);
        let w = (bar_max * *n as f64 / peak as f64).max(1.0);
        let _ = write!(
            out,
            "<text x=\"{:.0}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{}</text>\
             <rect x=\"{label_w:.0}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{row_h:.0}\" rx=\"2\" \
              fill=\"var(--series-1)\"><title>{label}: {} samples</title></rect>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">{}</text>",
            label_w - 6.0,
            y + row_h - 4.0,
            esc(label),
            commas(*n),
            label_w + w + 6.0,
            y + row_h - 4.0,
            commas(*n)
        );
    }
    out.push_str("</svg></figure>");
}

/// Live-introspection panel from a `metrics-v1` snapshot (the `inspect`
/// serve op): request/cache tiles plus every histogram the registry holds.
fn snapshot_section(out: &mut String, snapshot: Option<&Json>) {
    let Some(snap) = snapshot else { return };
    let snap = if snap.get("schema").and_then(Json::as_str) == Some("metrics-v1") {
        snap
    } else if let Some(inner) = snap.get("metrics") {
        inner // a raw inspect response line: unwrap its metrics field
    } else {
        return;
    };
    let num_u = |path: &[&str]| jpath(snap, path).and_then(Json::as_u64).unwrap_or(0);
    out.push_str("<section><h2>Live snapshot (inspect)</h2><div class=\"sparks\">");
    let tiles: Vec<(&str, String)> = vec![
        (
            "backend",
            snap.get("backend")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        ),
        ("requests", commas(num_u(&["requests", "total"]))),
        ("errors", commas(num_u(&["requests", "errors"]))),
        (
            "cache entries",
            commas(num_u(&["cache", "translations", "entries"])),
        ),
        (
            "cache generation",
            commas(num_u(&["cache", "translations", "generation"])),
        ),
        (
            "evictions",
            commas(num_u(&["cache", "translations", "evictions"])),
        ),
        ("flight events", commas(num_u(&["flight", "events"]))),
        ("flight dropped", commas(num_u(&["flight", "dropped"]))),
    ];
    for (label, value) in tiles {
        let _ = write!(
            out,
            "<figure class=\"spark\"><figcaption>{label}</figcaption>\
             <span class=\"spark-value\">{}</span></figure>",
            esc(&value)
        );
    }
    out.push_str("</div><div class=\"sparks\">");
    if let Some(hists) = snap.get("histograms").and_then(Json::as_obj) {
        for (name, h) in hists {
            histogram_chart(out, name, h);
        }
    }
    out.push_str("</div></section>");
}

/// Black-box panel: one block per `flight-v1` dump — header facts plus a
/// stage tally so "where did requests die" is answerable at a glance, and
/// the last events of the failing request when the dump names a panic.
fn flight_section(out: &mut String, dumps: &[(String, String)]) {
    if dumps.is_empty() {
        return;
    }
    out.push_str("<section><h2>Flight-recorder dumps</h2>");
    for (name, text) in dumps {
        let mut lines = text.lines();
        let Some(header) = lines.next().and_then(|l| Json::parse(l).ok()) else {
            continue;
        };
        if header.get("schema").and_then(Json::as_str) != Some("flight-v1") {
            continue;
        }
        let events: Vec<Json> = lines.filter_map(|l| Json::parse(l).ok()).collect();
        let _ = write!(
            out,
            "<h3><code>{}</code></h3><p class=\"meta\">reason <b>{}</b> · backend {} · \
             {} events · {} dropped · {} contended</p>",
            esc(name),
            esc(header.get("reason").and_then(Json::as_str).unwrap_or("?")),
            esc(header.get("backend").and_then(Json::as_str).unwrap_or("?")),
            commas(header.get("events").and_then(Json::as_u64).unwrap_or(0)),
            commas(header.get("dropped").and_then(Json::as_u64).unwrap_or(0)),
            commas(header.get("contended").and_then(Json::as_u64).unwrap_or(0)),
        );
        // Stage tally across the whole ring.
        let mut stages: Vec<(String, u64)> = Vec::new();
        for e in &events {
            let stage = e.get("stage").and_then(Json::as_str).unwrap_or("?");
            match stages.iter_mut().find(|(s, _)| s == stage) {
                Some((_, n)) => *n += 1,
                None => stages.push((stage.to_string(), 1)),
            }
        }
        out.push_str("<table><thead><tr><th>stage</th><th>events</th></tr></thead><tbody>");
        for (stage, n) in &stages {
            let _ = write!(
                out,
                "<tr><td><code>{}</code></td><td class=\"num\">{}</td></tr>",
                esc(stage),
                commas(*n)
            );
        }
        out.push_str("</tbody></table>");
        // The failing request's tail: every event of the last id that
        // recorded a panic stage, in sequence order.
        if let Some(victim) = events
            .iter()
            .rev()
            .find(|e| e.get("stage").and_then(Json::as_str) == Some("panic"))
            .and_then(|e| e.get("id").and_then(Json::as_str))
        {
            let _ = write!(
                out,
                "<details open><summary>lifecycle of failing request <code>{}</code></summary>\
                 <table><thead><tr><th>seq</th><th>stage</th><th>ok</th><th>detail</th></tr></thead><tbody>",
                esc(victim)
            );
            for e in events
                .iter()
                .filter(|e| e.get("id").and_then(Json::as_str) == Some(victim))
            {
                let _ = write!(
                    out,
                    "<tr><td class=\"num\">{}</td><td><code>{}</code></td>\
                     <td>{}</td><td>{}</td></tr>",
                    e.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    esc(e.get("stage").and_then(Json::as_str).unwrap_or("?")),
                    match e.get("ok") {
                        Some(Json::Bool(false)) => "✗",
                        _ => "✓",
                    },
                    esc(e.get("detail").and_then(Json::as_str).unwrap_or("")),
                );
            }
            out.push_str("</tbody></table></details>");
        }
    }
    out.push_str("</section>");
}

/// One frame of the flamegraph tree.
struct Frame {
    name: String,
    self_cycles: u64,
    children: Vec<Frame>,
}

impl Frame {
    fn total(&self) -> u64 {
        self.self_cycles + self.children.iter().map(Frame::total).sum::<u64>()
    }

    fn insert(&mut self, path: &[&str], cycles: u64) {
        let Some((head, rest)) = path.split_first() else {
            self.self_cycles += cycles;
            return;
        };
        if let Some(c) = self.children.iter_mut().find(|c| c.name == *head) {
            c.insert(rest, cycles);
        } else {
            let mut child = Frame {
                name: (*head).to_string(),
                self_cycles: 0,
                children: Vec::new(),
            };
            child.insert(rest, cycles);
            self.children.push(child);
        }
    }
}

/// Flamegraph from folded stacks: nested rects, depth colored by the
/// sequential ramp, labels only where they fit, `<title>` everywhere.
fn flame_section(out: &mut String, folded: &str) {
    let mut root = Frame {
        name: String::new(),
        self_cycles: 0,
        children: Vec::new(),
    };
    for line in folded.lines() {
        let Some((path, n)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(cycles) = n.parse::<u64>() else {
            continue;
        };
        let frames: Vec<&str> = path.split(';').collect();
        root.insert(&frames, cycles);
    }
    let total = root.total();
    if total == 0 {
        return;
    }
    fn depth_of(f: &Frame) -> usize {
        1 + f.children.iter().map(depth_of).max().unwrap_or(0)
    }
    let depth = root.children.iter().map(depth_of).max().unwrap_or(1);
    let (svg_w, row_h) = (1080.0, 20.0);
    let svg_h = depth as f64 * (row_h + 2.0);
    out.push_str("<section><h2>Where the cycles went (flamegraph)</h2>");
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {svg_w:.0} {svg_h:.0}\" width=\"100%\" role=\"img\" \
         aria-label=\"flamegraph of simulated cycles by span\">"
    );
    // Recursive x-ordered layout; siblings sorted by total descending so
    // the big frames read left to right.
    fn draw(
        out: &mut String,
        f: &Frame,
        x: f64,
        level: usize,
        scale: f64,
        row_h: f64,
        grand_total: u64,
    ) {
        let w = f.total() as f64 * scale;
        if w < 0.5 {
            return;
        }
        let y = level as f64 * (row_h + 2.0);
        let color = FLAME_RAMP[level.min(FLAME_RAMP.len() - 1)];
        let pct = 100.0 * f.total() as f64 / grand_total as f64;
        let _ = write!(
            out,
            "<g><rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{row_h:.0}\" \
             rx=\"2\" fill=\"{color}\"/>\
             <title>{}: {} cycles ({pct:.1}%, self {})</title>",
            (w - 1.0).max(0.5),
            esc(&f.name),
            commas(f.total()),
            commas(f.self_cycles)
        );
        // ~7px per character at 12px font: label only when it fits with
        // padding, never clipped by its own mark.
        if w > 7.0 * f.name.len() as f64 + 12.0 {
            let _ = write!(
                out,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"flame-label\">{}</text>",
                x + 6.0,
                y + row_h - 6.0,
                esc(&f.name)
            );
        }
        out.push_str("</g>");
        let mut cx = x;
        let mut kids: Vec<&Frame> = f.children.iter().collect();
        kids.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
        for c in kids {
            draw(out, c, cx, level + 1, scale, row_h, grand_total);
            cx += c.total() as f64 * scale;
        }
    }
    let scale = svg_w / total as f64;
    let mut x = 0.0;
    let mut tracks: Vec<&Frame> = root.children.iter().collect();
    tracks.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name.cmp(&b.name)));
    for track in tracks {
        draw(out, track, x, 0, scale, row_h, total);
        x += track.total() as f64 * scale;
    }
    out.push_str("</svg>");
    // Table view of the folded stacks themselves.
    out.push_str(
        "<details><summary>Folded stacks</summary><table>\
         <thead><tr><th>stack</th><th>self cycles</th></tr></thead><tbody>",
    );
    for line in folded.lines() {
        if let Some((path, n)) = line.rsplit_once(' ') {
            let _ = write!(
                out,
                "<tr><td><code>{}</code></td><td class=\"num\">{}</td></tr>",
                esc(path),
                esc(n)
            );
        }
    }
    out.push_str("</tbody></table></details></section>");
}

/// Document head: title + the full style block. Light values inline, dark
/// values behind both the OS media query and a `data-theme` override.
const HEAD: &str = r##"<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Liquid SIMD performance history</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --delta-good: #006300;
  --delta-bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --delta-good: #0ca30c;
    --delta-bad: #d03b3b;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --delta-good: #0ca30c;
  --delta-bad: #d03b3b;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px;
}
main { max-width: 1160px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; color: var(--text-primary); }
.hero { margin: 12px 0 4px; }
.hero-value { font-size: 48px; font-weight: 600; }
.hero-label { margin-left: 10px; color: var(--text-secondary); font-size: 14px; }
.meta { color: var(--muted); font-size: 13px; margin: 0; }
code { font-size: 0.92em; }
section { background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 16px 18px; margin-top: 16px; }
.sparks { display: flex; flex-wrap: wrap; gap: 14px 22px; }
.spark { margin: 0; }
.spark figcaption { font-size: 12px; color: var(--text-secondary); }
.spark-value { font-size: 13px; font-weight: 600; }
.delta-up { color: var(--delta-bad); font-weight: 400; }
.delta-down { color: var(--delta-good); font-weight: 400; }
.legend { display: flex; gap: 16px; font-size: 13px; color: var(--text-secondary);
  margin-bottom: 8px; }
.swatch { display: inline-block; width: 12px; height: 12px; border-radius: 3px;
  margin-right: 5px; vertical-align: -1px; }
.tick { font-size: 11px; fill: var(--muted); }
.xlabel { font-size: 11px; fill: var(--text-secondary); }
.flame-label { font-size: 12px; fill: #0b0b0b; }
svg { display: block; max-width: 100%; }
table { border-collapse: collapse; font-size: 13px; margin-top: 8px; }
th, td { text-align: left; padding: 3px 12px 3px 0; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
details summary { cursor: pointer; color: var(--text-secondary); font-size: 13px;
  margin-top: 10px; }
.ledger-bar { display: flex; height: 14px; width: 360px; border-radius: 3px;
  overflow: hidden; background: var(--grid); }
.ledger-bar span { display: block; height: 100%; }
.heat td.cell { text-align: center; padding: 4px 10px;
  font-variant-numeric: tabular-nums; }
.empty { color: var(--muted); }
</style></head>
<body class="viz-root"><main>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Json {
        Json::parse(
            r#"{"schema":"perfhist-v1","commit":"abc123def","timestamp":1700000000,"host":"linux-x86_64-h","config_hash":"cafe","smoke":false,"widths":[2,8],"workloads":[{"name":"FIR","baseline_cycles":1000,"sim_cycles":250,"cycles_by_width":{"2":600,"8":250},"wall_s":0.5,"sim_cycles_per_sec":500.0}],"counters":{"cycles":250,"mcache.hits":7},"wall":{}}"#,
        )
        .unwrap()
    }

    #[test]
    fn dashboard_is_self_contained() {
        let mut second = sample_record();
        second.set("commit", Json::Str("def456".to_string()));
        second.set(
            "counters",
            Json::parse(r#"{"cycles":250,"mcache.hits":9}"#).unwrap(),
        );
        let history = vec![sample_record(), second];
        let folded = "pipeline;run 30\npipeline;run;exec:scalar 70\n";
        let html = render(&history, folded);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("</html>"));
        // Single file, no external fetches of any kind.
        for needle in [
            "http://", "https://", "<script", "src=", "@import", "url(", "href=",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
        // All four sections rendered.
        assert!(html.contains("Cycle trend"));
        assert!(html.contains("Figure 6"));
        assert!(html.contains("Counter deltas"));
        assert!(html.contains("flamegraph"));
        assert!(html.contains("mcache.hits"));
        // Tooltips are native <title> elements.
        assert!(html.contains("<title>FIR @ 8 lanes: 4.00×"));
        // Table views exist for the charts.
        assert!(html.matches("<details>").count() >= 2);
        // The width heatmap renders from cycles_by_width alone (no ledger
        // rows needed): the best width is the 1.00× cell.
        assert!(html.contains("id=\"width-heatmap\""));
        assert!(html.contains("1.00×"));
        // Rows without a ledger (older records) leave the category panel out.
        assert!(!html.contains("id=\"ledger-categories\""));
    }

    #[test]
    fn counter_panel_compares_the_comparable_baseline() {
        // A superblock record between two interpreter records is not the
        // newest interpreter record's baseline.
        let with = |commit: &str, backend: Option<&str>, hits: u64| {
            let mut r = sample_record();
            r.set("commit", Json::Str(commit.to_string()));
            if let Some(b) = backend {
                r.set("backend", b.into());
            }
            let counters = format!(r#"{{"cycles":250,"mcache.hits":{hits}}}"#);
            r.set("counters", Json::parse(&counters).unwrap());
            r
        };
        let history = vec![
            with("interp0", None, 7),
            with("superblock1", Some("superblock"), 100),
            with("interp2", Some("interp"), 9),
        ];
        let html = render(&history, "");
        let panel = &html[html.find("Counter deltas").expect("counter panel")..];
        assert!(
            panel.contains("baseline commit <code>interp0</code>"),
            "{panel}"
        );
        assert!(
            panel.contains("<td class=\"num delta-up\">+2</td>"),
            "{panel}"
        );
        assert!(!panel.contains(">100<"), "{panel}");
    }

    #[test]
    fn ledger_rows_render_stacked_category_bars() {
        let rec = Json::parse(
            r#"{"schema":"perfhist-v1","commit":"abc123def","timestamp":1700000000,"host":"h","config_hash":"cafe","smoke":false,"widths":[2,8],"workloads":[{"name":"FIR","baseline_cycles":1000,"sim_cycles":250,"cycles_by_width":{"2":600,"8":250},"ledger":{"total_cycles":250,"categories":{"scalar-execute":{"cycles":100,"events":10},"vector-execute":{"cycles":150,"events":5},"dispatch":{"cycles":0,"events":3}},"regions":{}},"wall_s":0.5,"sim_cycles_per_sec":500.0}],"counters":{"cycles":250},"wall":{}}"#,
        )
        .unwrap();
        let html = render(&[rec], "");
        assert!(html.contains("id=\"ledger-categories\""));
        // Both nonzero categories drawn, the zero-cycle one skipped.
        assert!(html.contains("scalar-execute"));
        assert!(html.contains("vector-execute"));
        assert!(html.contains("FIR: vector-execute 150 cycles (60.0%)"));
        assert!(!html.contains("dispatch"));
        // Still self-contained with the inline-styled panels present.
        for needle in ["<script", "src=", "href=", "url("] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
    }

    #[test]
    fn families_panel_renders_from_gen_records() {
        let gen = Json::parse(
            r#"{"schema":"perfhist-gen-v1","commit":"abc123def","timestamp":1700000200,"host":"linux-x86_64-h","config_hash":"cafe","smoke":true,"widths":[2,8],"backend":"interp","families":[{"family":"stencil3_f32","variants":12,"speedup_p10":1.5,"speedup_p50":2.25,"speedup_p90":3.0,"aborts":{"trip-not-multiple":2}},{"family":"histogram_i32","variants":3,"speedup_p10":0.0,"speedup_p50":0.0,"speedup_p90":0.0,"aborts":{"scalar-store":3}}],"wall":{"check_s":1.5}}"#,
        )
        .unwrap();
        let html = render(&[sample_record(), gen], "");
        assert!(html.contains("Generated families"));
        assert!(html.contains("stencil3_f32"));
        assert!(html.contains("Abort coverage matrix"));
        assert!(html.contains("scalar-store"));
        // The p50 tick value appears beside the strip.
        assert!(html.contains("2.25×"));
        // Untranslatable families appear in the matrix but get no strip.
        assert!(html.contains("histogram_i32"));
        for needle in [
            "http://", "https://", "<script", "src=", "@import", "url(", "href=",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
    }

    #[test]
    fn no_gen_records_no_families_panel() {
        let html = render(&[sample_record()], "");
        assert!(!html.contains("Generated families"));
    }

    fn serve_sample(resp_hash: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-serve-v1","commit":"abc123def","timestamp":1700000100,"host":"linux-x86_64-h","shards":4,"batch":{{"requests":128,"errors":2,"by_op":{{"run":64,"translate":64}}}},"cache":{{"hits":120,"misses":8,"entries":8,"hit_rate":0.9375}},"determinism":{{"requests_hash":"00000000deadbeef","responses_hash":"{resp_hash}","sim_cycles_total":123456}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn service_panel_renders_from_serve_records() {
        // The older record still carries the wall-clock fields daemons
        // used to write; the panel ignores them.
        let mut legacy = serve_sample("0000000011112222");
        legacy.set("throughput_rps", Json::f64(800.0));
        let history = vec![legacy, serve_sample("0000000033334444")];
        let html = render(&history, "");
        assert!(html.contains("Serving (batch telemetry)"));
        assert!(html.contains("93.8%"), "hit-rate tile");
        assert!(html.contains("123,456"), "sim cycles in table");
        assert!(html.contains("0000000033334444"), "responses hash in table");
        for gone in ["req/s", "latency", "throughput"] {
            assert!(!html.contains(gone), "host-time number `{gone}` rendered");
        }
        // Serve-only history must not claim the history is empty.
        assert!(!html.contains("No perfhist-v1 records"));
        for needle in [
            "http://", "https://", "<script", "src=", "@import", "url(", "href=",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
    }

    #[test]
    fn single_serve_record_skips_the_trend() {
        let history = vec![serve_sample("0000000011112222")];
        let html = render(&history, "");
        assert!(html.contains("Serving (batch telemetry)"));
        assert!(!html.contains("trend"));
    }

    #[test]
    fn flight_and_snapshot_panels_render() {
        let dump = "\
{\"schema\":\"flight-v1\",\"reason\":\"worker-panic\",\"backend\":\"interp\",\"shards\":2,\"capacity\":4096,\"events\":4,\"dropped\":0,\"contended\":0}\n\
{\"seq\":0,\"wall_us\":10,\"shard\":0,\"id\":\"boom\",\"op\":\"run\",\"stage\":\"accept\",\"ok\":true}\n\
{\"seq\":1,\"wall_us\":11,\"shard\":0,\"id\":\"boom\",\"op\":\"run\",\"stage\":\"translate\",\"ok\":true}\n\
{\"seq\":2,\"wall_us\":12,\"shard\":0,\"id\":\"boom\",\"op\":\"run\",\"stage\":\"panic\",\"ok\":false,\"detail\":\"injected\"}\n\
{\"seq\":3,\"wall_us\":13,\"shard\":1,\"id\":\"fine\",\"op\":\"run\",\"stage\":\"respond\",\"ok\":true}\n";
        let snapshot = Json::parse(
            r#"{"schema":"metrics-v1","backend":"interp","requests":{"total":9,"errors":1},
            "cache":{"translations":{"entries":3,"generation":3,"evictions":0}},
            "flight":{"events":40,"dropped":2},
            "histograms":{"request.cycles":{"bounds":[1,2,4,8],"counts":[0,3,5,1,0],"count":9,"sum":40,"max":7}}}"#,
        )
        .unwrap();
        let html = render_extended(
            &[],
            "",
            &[(
                "flight-000-worker-panic.jsonl".to_string(),
                dump.to_string(),
            )],
            Some(&snapshot),
        );
        assert!(html.contains("Flight-recorder dumps"));
        assert!(html.contains("worker-panic"));
        assert!(html.contains("lifecycle of failing request <code>boom</code>"));
        assert!(html.contains("injected"), "panic detail shown");
        assert!(html.contains("Live snapshot (inspect)"));
        assert!(html.contains("request.cycles"));
        assert!(html.contains("≤2^1"), "pow2 bucket labels");
        for needle in [
            "http://", "https://", "<script", "src=", "@import", "url(", "href=",
        ] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
    }

    #[test]
    fn snapshot_section_unwraps_a_raw_inspect_response() {
        let resp = Json::parse(
            r#"{"schema":"serve-v1","op":"inspect","ok":true,"metrics":{"schema":"metrics-v1","backend":"superblock","requests":{"total":1,"errors":0},"histograms":{}}}"#,
        )
        .unwrap();
        let html = render_extended(&[], "", &[], Some(&resp));
        assert!(html.contains("Live snapshot (inspect)"));
        assert!(html.contains("superblock"));
    }

    #[test]
    fn empty_history_still_renders() {
        let html = render(&[], "");
        assert!(html.contains("No perfhist-v1 records"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn commas_groups_thousands() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1_000), "1,000");
        assert_eq!(commas(1_234_567), "1,234,567");
    }
}
