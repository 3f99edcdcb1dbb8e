//! `diff-v1`: the ranked attribution of a cycle delta between two runs.
//!
//! [`diff`] compares two [`Snapshot`]s — two widths of one workload, two
//! history records, two backends — and explains where the cycles moved:
//! per-category, per-region, with counter deltas as corroborating
//! evidence, plus one deterministic human narrative line per top
//! contributor. Everything is integer math over ordered maps, so the same
//! pair of snapshots renders byte-identically on every run and host.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use liquid_simd_trace::json::Json;

use crate::Snapshot;

/// One category's contribution to the delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatDelta {
    /// Stable category name.
    pub name: String,
    /// Cycles in run A.
    pub a_cycles: u64,
    /// Cycles in run B.
    pub b_cycles: u64,
    /// `b - a`.
    pub delta: i64,
    /// This category's signed share of the net total delta, in permille
    /// (a category moving against the net direction gets a negative
    /// share). Zero when the totals are identical.
    pub share_permille: i64,
}

/// One region's contribution to the delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionDelta {
    /// Region display name.
    pub name: String,
    /// Cycles in run A.
    pub a_cycles: u64,
    /// Cycles in run B.
    pub b_cycles: u64,
    /// `b - a`.
    pub delta: i64,
    /// The category moving the most inside this region, if any moved.
    pub top_category: Option<String>,
}

/// One corroborating counter's movement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterDelta {
    /// Flat dotted counter name.
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
    /// `b - a`.
    pub delta: i64,
}

/// The full ranked explanation of `B - A`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diff {
    /// Label of run A.
    pub a_label: String,
    /// Label of run B.
    pub b_label: String,
    /// Total cycles of run A.
    pub a_total: u64,
    /// Total cycles of run B.
    pub b_total: u64,
    /// `b_total - a_total`.
    pub total_delta: i64,
    /// The single category that explains the largest share of the delta
    /// (None when nothing moved).
    pub dominant_category: Option<String>,
    /// Per-category deltas, largest |delta| first.
    pub categories: Vec<CatDelta>,
    /// Per-region deltas, largest |delta| first.
    pub regions: Vec<RegionDelta>,
    /// Counters that moved, largest |delta| first.
    pub counters: Vec<CounterDelta>,
    /// One deterministic human line per top contributor.
    pub narrative: Vec<String>,
}

fn sub(b: u64, a: u64) -> i64 {
    i64::try_from(b as i128 - a as i128).unwrap_or(i64::MAX)
}

/// Signed permille of `part` within `whole`, truncated (integer math, so
/// byte-stable everywhere).
fn permille(part: i64, whole: i64) -> i64 {
    if whole == 0 {
        return 0;
    }
    let p = i128::from(part) * 1000 / i128::from(whole);
    i64::try_from(p).unwrap_or(0)
}

/// `permille` of an |delta| against a base count, for percent rendering.
fn pct_str(delta: i64, base: u64) -> String {
    if base == 0 {
        return "n/a".to_string();
    }
    let pm = i128::from(delta.unsigned_abs()) * 1000 / i128::from(base);
    format!("{}.{}%", pm / 10, pm % 10)
}

fn commas(n: u64) -> String {
    let raw = n.to_string();
    let mut out = String::new();
    for (i, c) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn signed(n: i64) -> String {
    if n >= 0 {
        format!("+{}", commas(n.unsigned_abs()))
    } else {
        format!("-{}", commas(n.unsigned_abs()))
    }
}

/// Compares two snapshots and builds the ranked explanation of `b - a`.
#[must_use]
pub fn diff(a: &Snapshot, b: &Snapshot) -> Diff {
    let total_delta = sub(b.total_cycles, a.total_cycles);

    // ---- categories --------------------------------------------------------
    let mut cat_names: BTreeSet<&String> = a.categories.keys().collect();
    cat_names.extend(b.categories.keys());
    let mut categories: Vec<CatDelta> = cat_names
        .into_iter()
        .map(|name| {
            let av = a.categories.get(name).copied().unwrap_or_default();
            let bv = b.categories.get(name).copied().unwrap_or_default();
            let delta = sub(bv.cycles, av.cycles);
            CatDelta {
                name: name.clone(),
                a_cycles: av.cycles,
                b_cycles: bv.cycles,
                delta,
                share_permille: permille(delta, total_delta),
            }
        })
        .collect();
    categories.sort_by(|x, y| {
        y.delta
            .unsigned_abs()
            .cmp(&x.delta.unsigned_abs())
            .then(x.name.cmp(&y.name))
    });
    let dominant_category = categories
        .iter()
        .find(|c| c.delta != 0)
        .map(|c| c.name.clone());

    // ---- regions -----------------------------------------------------------
    let mut region_names: BTreeSet<&String> = a.regions.keys().collect();
    region_names.extend(b.regions.keys());
    let empty = crate::RegionSnap::default();
    let mut regions: Vec<RegionDelta> = region_names
        .into_iter()
        .map(|name| {
            let ar = a.regions.get(name).unwrap_or(&empty);
            let br = b.regions.get(name).unwrap_or(&empty);
            let mut cats: BTreeSet<&String> = ar.by_category.keys().collect();
            cats.extend(br.by_category.keys());
            let top_category = cats
                .into_iter()
                .map(|c| {
                    let d = sub(
                        br.by_category.get(c).copied().unwrap_or(0),
                        ar.by_category.get(c).copied().unwrap_or(0),
                    );
                    (c, d)
                })
                .filter(|&(_, d)| d != 0)
                .max_by(|x, y| {
                    x.1.unsigned_abs()
                        .cmp(&y.1.unsigned_abs())
                        .then(y.0.cmp(x.0))
                })
                .map(|(c, _)| c.clone());
            RegionDelta {
                name: name.clone(),
                a_cycles: ar.cycles,
                b_cycles: br.cycles,
                delta: sub(br.cycles, ar.cycles),
                top_category,
            }
        })
        .collect();
    regions.sort_by(|x, y| {
        y.delta
            .unsigned_abs()
            .cmp(&x.delta.unsigned_abs())
            .then(x.name.cmp(&y.name))
    });

    // ---- counters ----------------------------------------------------------
    let mut counter_names: BTreeSet<&String> = a.counters.keys().collect();
    counter_names.extend(b.counters.keys());
    let mut counters: Vec<CounterDelta> = counter_names
        .into_iter()
        .filter_map(|name| {
            let av = a.counters.get(name).copied().unwrap_or(0);
            let bv = b.counters.get(name).copied().unwrap_or(0);
            (av != bv).then(|| CounterDelta {
                name: name.clone(),
                a: av,
                b: bv,
                delta: sub(bv, av),
            })
        })
        .collect();
    counters.sort_by(|x, y| {
        y.delta
            .unsigned_abs()
            .cmp(&x.delta.unsigned_abs())
            .then(x.name.cmp(&y.name))
    });

    let narrative = narrate(a, b, total_delta, &categories, &regions, &counters);
    Diff {
        a_label: a.label.clone(),
        b_label: b.label.clone(),
        a_total: a.total_cycles,
        b_total: b.total_cycles,
        total_delta,
        dominant_category,
        categories,
        regions,
        counters,
        narrative,
    }
}

/// The per-region delta of one category, for narrative attribution.
fn region_cat_delta(a: &Snapshot, b: &Snapshot, cat: &str) -> Option<(String, i64)> {
    let mut names: BTreeSet<&String> = a.regions.keys().collect();
    names.extend(b.regions.keys());
    names
        .into_iter()
        .map(|name| {
            let av = a
                .regions
                .get(name)
                .and_then(|r| r.by_category.get(cat))
                .copied()
                .unwrap_or(0);
            let bv = b
                .regions
                .get(name)
                .and_then(|r| r.by_category.get(cat))
                .copied()
                .unwrap_or(0);
            (name.clone(), sub(bv, av))
        })
        .filter(|&(_, d)| d != 0)
        .max_by(|x, y| {
            x.1.unsigned_abs()
                .cmp(&y.1.unsigned_abs())
                .then(y.0.cmp(&x.0))
        })
}

fn narrate(
    a: &Snapshot,
    b: &Snapshot,
    total_delta: i64,
    categories: &[CatDelta],
    _regions: &[RegionDelta],
    counters: &[CounterDelta],
) -> Vec<String> {
    let mut out = Vec::new();
    if total_delta == 0 {
        out.push(format!(
            "{} and {} spend identical cycle totals ({}).",
            b.label,
            a.label,
            commas(a.total_cycles)
        ));
    } else {
        let dir = if total_delta > 0 { "more" } else { "fewer" };
        out.push(format!(
            "{} spends {} {dir} cycles than {} ({} → {}, {} change).",
            b.label,
            commas(total_delta.unsigned_abs()),
            a.label,
            commas(a.total_cycles),
            commas(b.total_cycles),
            pct_str(total_delta, a.total_cycles)
        ));
    }
    for c in categories.iter().filter(|c| c.delta != 0).take(3) {
        let mut line = format!(
            "{}: {} → {} cycles ({}, {}‰ of the net delta)",
            c.name,
            commas(c.a_cycles),
            commas(c.b_cycles),
            signed(c.delta),
            c.share_permille
        );
        if let Some((region, d)) = region_cat_delta(a, b, &c.name) {
            let _ = write!(line, " — led by {region} ({})", signed(d));
        }
        line.push('.');
        out.push(line);
    }
    // Event-only categories carry no cycles; surface the biggest event
    // movers among them as corroboration alongside the counters.
    let evidence: Vec<String> = counters
        .iter()
        .take(3)
        .map(|c| format!("{} {} → {}", c.name, commas(c.a), commas(c.b)))
        .collect();
    if !evidence.is_empty() {
        out.push(format!("corroborating counters: {}.", evidence.join(", ")));
    }
    out
}

/// Renders a [`Diff`] as the `diff-v1` JSON document (rows layout).
#[must_use]
pub fn render_json(d: &Diff) -> String {
    let side = |label: &str, total: u64| {
        Json::obj([("label", label.into()), ("total_cycles", total.into())])
    };
    let categories = d.categories.iter().map(|c| {
        Json::obj([
            ("category", (&c.name).into()),
            ("a_cycles", c.a_cycles.into()),
            ("b_cycles", c.b_cycles.into()),
            ("delta", c.delta.into()),
            ("share_permille", c.share_permille.into()),
        ])
    });
    let regions = d.regions.iter().map(|r| {
        Json::obj([
            ("region", (&r.name).into()),
            ("a_cycles", r.a_cycles.into()),
            ("b_cycles", r.b_cycles.into()),
            ("delta", r.delta.into()),
            ("top_category", r.top_category.as_deref().into()),
        ])
    });
    let counters = d.counters.iter().map(|c| {
        Json::obj([
            ("counter", (&c.name).into()),
            ("a", c.a.into()),
            ("b", c.b.into()),
            ("delta", c.delta.into()),
        ])
    });
    Json::obj([
        ("schema", "diff-v1".into()),
        ("a", side(&d.a_label, d.a_total)),
        ("b", side(&d.b_label, d.b_total)),
        ("total_delta", d.total_delta.into()),
        ("dominant_category", d.dominant_category.as_deref().into()),
        ("categories", Json::arr(categories)),
        ("regions", Json::arr(regions)),
        ("counters", Json::arr(counters)),
        ("narrative", Json::arr(&d.narrative)),
    ])
    .write_rows()
}

/// Renders a [`Diff`] as aligned human-readable text.
#[must_use]
pub fn render_text(d: &Diff) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "diff: {} vs {}", d.a_label, d.b_label);
    let _ = writeln!(
        out,
        "total cycles      {} → {}   ({})",
        commas(d.a_total),
        commas(d.b_total),
        signed(d.total_delta)
    );
    if let Some(c) = &d.dominant_category {
        let _ = writeln!(out, "dominant category {c}");
    }
    if !d.categories.is_empty() {
        let _ = writeln!(out, "\nby category ({} → {})", d.a_label, d.b_label);
        for c in &d.categories {
            let _ = writeln!(
                out,
                "  {:<20} {:>14} {:>14} {:>14}  {:>6}‰",
                c.name,
                commas(c.a_cycles),
                commas(c.b_cycles),
                signed(c.delta),
                c.share_permille
            );
        }
    }
    if !d.regions.is_empty() {
        let _ = writeln!(out, "\nby region");
        for r in d.regions.iter().take(12) {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>14} {:>14}  {}",
                r.name,
                commas(r.a_cycles),
                commas(r.b_cycles),
                signed(r.delta),
                r.top_category.as_deref().unwrap_or("-")
            );
        }
        if d.regions.len() > 12 {
            let _ = writeln!(out, "  … {} more regions", d.regions.len() - 12);
        }
    }
    if !d.counters.is_empty() {
        let _ = writeln!(out, "\ncounters that moved");
        for c in d.counters.iter().take(12) {
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:>14} {:>14}",
                c.name,
                commas(c.a),
                commas(c.b),
                signed(c.delta)
            );
        }
        if d.counters.len() > 12 {
            let _ = writeln!(out, "  … {} more counters", d.counters.len() - 12);
        }
    }
    if !d.narrative.is_empty() {
        let _ = writeln!(out, "\nnarrative");
        for l in &d.narrative {
            let _ = writeln!(out, "  {l}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bucket, RegionSnap};

    fn snap(label: &str, scalar: u64, vector: u64) -> Snapshot {
        let mut s = Snapshot {
            label: label.to_string(),
            total_cycles: scalar + vector,
            ..Snapshot::default()
        };
        s.categories.insert(
            "scalar-execute".to_string(),
            Bucket {
                cycles: scalar,
                events: scalar / 2,
            },
        );
        s.categories.insert(
            "vector-execute".to_string(),
            Bucket {
                cycles: vector,
                events: vector / 4,
            },
        );
        s.regions.insert(
            "kernel @10".to_string(),
            RegionSnap {
                cycles: vector,
                events: vector / 4,
                by_category: [("vector-execute".to_string(), vector)].into(),
            },
        );
        s.regions.insert(
            "(top-level)".to_string(),
            RegionSnap {
                cycles: scalar,
                events: scalar / 2,
                by_category: [("scalar-execute".to_string(), scalar)].into(),
            },
        );
        s.counters
            .insert("mcache.conflicts".to_string(), scalar / 100);
        s
    }

    #[test]
    fn diff_ranks_categories_and_names_dominant() {
        let a = snap("w8", 1000, 2000);
        let b = snap("w16", 1100, 3000);
        let d = diff(&a, &b);
        assert_eq!(d.total_delta, 1100);
        assert_eq!(d.dominant_category.as_deref(), Some("vector-execute"));
        assert_eq!(d.categories[0].name, "vector-execute");
        assert_eq!(d.categories[0].delta, 1000);
        assert_eq!(d.categories[0].share_permille, 909);
        assert_eq!(d.regions[0].name, "kernel @10");
        assert_eq!(d.regions[0].top_category.as_deref(), Some("vector-execute"));
        assert_eq!(d.counters[0].name, "mcache.conflicts");
        assert!(d.narrative[0].contains("w16 spends 1,100 more cycles than w8"));
    }

    #[test]
    fn diff_json_is_deterministic_and_schema_tagged() {
        let a = snap("w8", 1000, 2000);
        let b = snap("w16", 900, 1500);
        let j1 = render_json(&diff(&a, &b));
        let j2 = render_json(&diff(&a, &b));
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\n  \"schema\": \"diff-v1\",\n"));
        assert!(j1.contains("\"dominant_category\": \"vector-execute\""));
        assert!(j1.contains("\"share_permille\""));
        let text = render_text(&diff(&a, &b));
        assert!(text.contains("dominant category vector-execute"));
        assert!(text.contains("narrative"));
    }

    #[test]
    fn identical_snapshots_diff_to_zero() {
        let a = snap("x", 10, 20);
        let d = diff(&a, &a);
        assert_eq!(d.total_delta, 0);
        assert_eq!(d.dominant_category, None);
        assert!(d.counters.is_empty());
        assert!(d.narrative[0].contains("identical cycle totals"));
    }
}
