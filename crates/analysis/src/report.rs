//! Artifact generators: one function per table/figure of the paper.
//!
//! Text tables print the same rows the paper reports; figures with
//! continuous axes (CDFs, time series, scatter plots) are emitted as TSV
//! series, ready to plot, with headline statistics (regression slopes,
//! peak values) computed inline.

use crate::agg::{class_code_label, CLASS_NOT_TAMPERED, CLASS_OTHER};
use crate::fmt::{pct, pct_f, Table};
use crate::stats::{slope_through_origin, Cdf};
use crate::view::ReportView;
use std::collections::{BTreeMap, BTreeSet};
use tamper_core::{Signature, Stage};
use tamper_worldgen::{country_index, Category, TestList, TestLists, WorldSim};

/// Regions highlighted in the paper's Tables 2 and 3.
pub(crate) const FOCUS_REGIONS: [&str; 9] = ["CN", "IN", "IR", "KR", "MX", "PE", "RU", "US", "GB"];

/// Countries in Figure 6's longitudinal comparison.
pub(crate) const FIG6_COUNTRIES: [&str; 7] = ["CN", "DE", "GB", "IN", "IR", "RU", "US"];

// ---------------------------------------------------------------------------
// Table 1 + §4.1 headline statistics
// ---------------------------------------------------------------------------

/// Table 1: the signature taxonomy with observed counts, plus the §4.1
/// headline statistics (possibly-tampered rate, per-stage shares, per-stage
/// signature coverage, overall coverage).
pub fn table1(col: &ReportView) -> String {
    let mut out = String::new();
    let pt = col.possibly_tampered;
    out.push_str(&format!(
        "Connections: {}   possibly tampered: {} ({})\n\n",
        col.total,
        pt,
        pct(pt, col.total)
    ));

    let mut t = Table::new([
        "Type",
        "Signature",
        "Count",
        "% of possibly tampered",
        "Prior work",
    ]);
    for sig in Signature::ALL {
        let n = col.signature_total(sig);
        t.row([
            sig.stage().label().to_owned(),
            sig.label().to_owned(),
            n.to_string(),
            pct(n, pt),
            sig.prior_work().to_owned(),
        ]);
    }
    let other: u64 = col.country_class.iter().map(|c| c[CLASS_OTHER]).sum();
    t.row([
        "—".to_owned(),
        "(unmatched possibly tampered)".to_owned(),
        other.to_string(),
        pct(other, pt),
    ]);
    out.push_str(&t.render());

    out.push_str("\nStage breakdown of possibly tampered connections:\n");
    let mut st = Table::new([
        "Stage",
        "% of possibly tampered",
        "signature coverage within stage",
    ]);
    let labels = [
        "Mid-handshake (Post-SYN)",
        "Immediately post-handshake (Post-ACK)",
        "After first data packet (Post-PSH)",
        "After multiple data packets (Post-Data)",
        "Other sequences",
    ];
    for (i, label) in labels.iter().enumerate() {
        st.row([
            (*label).to_owned(),
            pct(col.stage_counts[i], pt),
            if i < 4 {
                pct(col.stage_matched[i], col.stage_counts[i])
            } else {
                "—".to_owned()
            },
        ]);
    }
    out.push_str(&st.render());
    let matched: u64 = col.stage_matched.iter().sum();
    out.push_str(&format!(
        "\nAll 19 signatures cover {} of possibly tampered connections.\n",
        pct(matched, pt)
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 1: per-signature country composition
// ---------------------------------------------------------------------------

/// Figure 1: for each signature, the countries contributing the most
/// matching connections (the paper's stacked columns, as top-k lists).
pub fn fig1(col: &ReportView, sim: &WorldSim, top_k: usize) -> String {
    let mut out = String::from("Figure 1 — country composition of each signature's matches\n\n");
    let world = sim.world();
    for sig in Signature::ALL {
        let total = col.signature_total(sig);
        if total == 0 {
            out.push_str(&format!("{}  (no matches)\n", sig.label()));
            continue;
        }
        let mut per_country: Vec<(u64, &str)> = col
            .country_class
            .iter()
            .enumerate()
            .map(|(c, row)| (row[sig.index()], world[c].country.code.as_str()))
            .filter(|(n, _)| *n > 0)
            .collect();
        per_country.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
        let tops: Vec<String> = per_country
            .iter()
            .take(top_k)
            .map(|(n, code)| format!("{code} {}", pct(*n, total)))
            .collect();
        out.push_str(&format!(
            "{:<34} n={:<8} {}\n",
            sig.label(),
            total,
            tops.join("  ")
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 2 and 3: evidence CDFs
// ---------------------------------------------------------------------------

fn cdf_block<T: Copy + Into<f64>>(
    title: &str,
    xs: &[f64],
    reservoirs: &[Vec<T>],
    label_of: impl Fn(usize) -> String,
) -> String {
    let mut out = format!("{title}\nclass\tn");
    for x in xs {
        out.push_str(&format!("\tF({x})"));
    }
    out.push('\n');
    for (idx, res) in reservoirs.iter().enumerate() {
        if res.is_empty() {
            continue;
        }
        let cdf = Cdf::new(res.iter().map(|v| (*v).into()));
        out.push_str(&format!("{}\t{}", label_of(idx), cdf.len()));
        for x in xs {
            out.push_str(&format!("\t{:.3}", cdf.at(*x)));
        }
        out.push('\n');
    }
    out
}

fn class_label(idx: usize) -> String {
    if idx == 19 {
        "Not Tampering".to_owned()
    } else {
        Signature::ALL[idx].label().to_owned()
    }
}

/// Figure 2: CDF of the maximum absolute IP-ID change between the RST and
/// the preceding packet, per signature, against the Not-Tampering baseline.
pub fn fig2(col: &ReportView) -> String {
    let xs = [0.0, 1.0, 10.0, 100.0, 1000.0, 10_000.0, 30_000.0, 65_535.0];
    cdf_block(
        "Figure 2 — max |ΔIP-ID| between RST and preceding packet (CDF)",
        &xs,
        &col.ipid_samples,
        class_label,
    )
}

/// Figure 3: CDF of the signed TTL change between the RST and the
/// preceding packet, per signature.
pub fn fig3(col: &ReportView) -> String {
    let xs = [
        -200.0, -100.0, -50.0, -10.0, -1.0, 0.0, 1.0, 10.0, 50.0, 100.0, 200.0,
    ];
    cdf_block(
        "Figure 3 — max TTL change between RST and preceding packet (CDF)",
        &xs,
        &col.ttl_samples,
        class_label,
    )
}

// ---------------------------------------------------------------------------
// Figure 4: signature distribution per country
// ---------------------------------------------------------------------------

/// Figure 4: per-country match percentages, countries ordered by total
/// match rate (the paper's x-axis ordering), with each country's dominant
/// signatures.
pub fn fig4(col: &ReportView, sim: &WorldSim, min_flows: u64) -> String {
    let world = sim.world();
    let mut rows: Vec<(f64, usize)> = (0..world.len())
        .filter(|&c| col.country_total(c) >= min_flows)
        .map(|c| {
            let total = col.country_total(c);
            let matched = col.country_matched(c);
            (matched as f64 / total as f64, c)
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut t = Table::new([
        "Country",
        "Flows",
        "Match any sig",
        "Not tampered",
        "Top signatures",
    ]);
    for (rate, c) in rows {
        let total = col.country_total(c);
        let mut sigs: Vec<(u64, Signature)> = Signature::ALL
            .iter()
            .map(|s| (col.country_class[c][s.index()], *s))
            .filter(|(n, _)| *n > 0)
            .collect();
        sigs.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
        let tops: Vec<String> = sigs
            .iter()
            .take(3)
            .map(|(n, s)| format!("{} {}", s.label(), pct(*n, total)))
            .collect();
        t.row([
            world[c].country.code.to_owned(),
            total.to_string(),
            pct_f(rate),
            pct(col.country_class[c][CLASS_NOT_TAMPERED], total),
            tops.join("; "),
        ]);
    }
    format!(
        "Figure 4 — % of each country's connections matching signatures\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Figure 5: per-AS match proportions
// ---------------------------------------------------------------------------

/// Figure 5: per-AS match proportion for the ASes carrying the top 80% of
/// each country's traffic — centralized countries show tight spreads,
/// decentralized ones wide spreads.
pub fn fig5(col: &ReportView, sim: &WorldSim, min_flows: u64) -> String {
    let world = sim.world();
    let mut t = Table::new([
        "Country",
        "ASes (top 80%)",
        "min",
        "median",
        "max",
        "spread",
    ]);
    for (c, spec) in world.iter().enumerate() {
        let mut ases: Vec<(u64, u64)> = col
            .as_counts
            .iter()
            .filter(|((cc, _), _)| *cc == c as u16)
            .map(|(_, &(total, matched))| (total, matched))
            .collect();
        let country_total: u64 = ases.iter().map(|(t, _)| t).sum();
        if country_total < min_flows {
            continue;
        }
        ases.sort_by_key(|(total, _)| std::cmp::Reverse(*total));
        let mut cum = 0;
        let mut props: Vec<f64> = Vec::new();
        for (total, matched) in &ases {
            if cum as f64 > 0.8 * country_total as f64 {
                break;
            }
            cum += total;
            if *total > 0 {
                props.push(*matched as f64 / *total as f64);
            }
        }
        if props.is_empty() {
            continue;
        }
        props.sort_by(|a, b| a.total_cmp(b));
        let median = props[props.len() / 2];
        let spread = props[props.len() - 1] - props[0];
        t.row([
            spec.country.code.to_owned(),
            props.len().to_string(),
            pct_f(props[0]),
            pct_f(median),
            pct_f(props[props.len() - 1]),
            pct_f(spread),
        ]);
    }
    format!(
        "Figure 5 — per-AS signature-match proportions (top-80%-of-traffic ASes)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Figures 6, 8, 9: time series
// ---------------------------------------------------------------------------

/// Figure 6: hourly percentage of connections matching Post-ACK/Post-PSH
/// signatures for the selected countries (TSV: hour, then one column per
/// country).
pub(crate) fn fig6(col: &ReportView, sim: &WorldSim, codes: &[&str]) -> String {
    let world = sim.world();
    let indices: Vec<usize> = codes
        .iter()
        .filter_map(|c| country_index(world, c).map(|i| i as usize))
        .collect();
    let mut out = String::from("Figure 6 — hourly Post-ACK/Post-PSH match % per country\nhour");
    for &i in &indices {
        out.push_str(&format!("\t{}", world[i].country.code));
    }
    out.push('\n');
    for h in 0..col.hours() {
        out.push_str(&h.to_string());
        for &i in &indices {
            let (total, matched) = col.country_hour[i][h];
            if total == 0 {
                out.push_str("\t-");
            } else {
                out.push_str(&format!("\t{:.2}", 100.0 * matched as f64 / total as f64));
            }
        }
        out.push('\n');
    }
    out
}

/// Diurnal summary used in tests and EXPERIMENTS.md: for a country, the
/// average match rate in local night hours (0–8) vs the rest of the day.
pub fn diurnal_contrast(col: &ReportView, sim: &WorldSim, code: &str) -> Option<(f64, f64)> {
    let world = sim.world();
    let ci = country_index(world, code)? as usize;
    let tz = world[ci].country.tz_offset_hours;
    let (mut night_m, mut night_t, mut day_m, mut day_t) = (0u64, 0u64, 0u64, 0u64);
    for (h, &(total, matched)) in col.country_hour[ci].iter().enumerate() {
        let local = (h as i32 + tz).rem_euclid(24);
        if (0..8).contains(&local) {
            night_m += u64::from(matched);
            night_t += u64::from(total);
        } else {
            day_m += u64::from(matched);
            day_t += u64::from(total);
        }
    }
    if night_t == 0 || day_t == 0 {
        return None;
    }
    Some((night_m as f64 / night_t as f64, day_m as f64 / day_t as f64))
}

/// Figure 9 (Appendix A): hourly percentage of connections matching each
/// signature, globally (TSV).
pub(crate) fn fig9(col: &ReportView) -> String {
    let mut out = String::from("Figure 9 — hourly match % per signature (global)\nhour");
    for sig in Signature::ALL {
        out.push_str(&format!("\t{}", sig.label()));
    }
    out.push('\n');
    for h in 0..col.hours() {
        let total = col.hour_totals[h];
        out.push_str(&h.to_string());
        for sig in Signature::ALL {
            if total == 0 {
                out.push_str("\t-");
            } else {
                out.push_str(&format!(
                    "\t{:.2}",
                    100.0 * f64::from(col.sig_hour[h][sig.index()]) / f64::from(total)
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Figure 8: the Iran case study — identical layout to Figure 9 but run on
/// an Iran-scenario collector (only IR traffic, Sept 2022 window).
pub fn fig8(col: &ReportView) -> String {
    let mut s = fig9(col);
    s = s.replacen(
        "Figure 9 — hourly match % per signature (global)",
        "Figure 8 — hourly match % per signature, Iran, Sept 13–29 2022",
        1,
    );
    s
}

// ---------------------------------------------------------------------------
// Figure 7: IPv4/IPv6 and TLS/HTTP comparisons
// ---------------------------------------------------------------------------

/// Figure 7(a): per-country Post-ACK/Post-PSH match % on IPv4 vs IPv6,
/// with the through-origin regression slope.
pub(crate) fn fig7a(col: &ReportView, sim: &WorldSim, min_flows: u64) -> String {
    let world = sim.world();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut t = Table::new(["Country", "IPv4 %", "IPv6 %"]);
    for (spec, ipver) in world.iter().zip(&col.country_ipver) {
        let [(t4, m4), (t6, m6)] = *ipver;
        if t4 < min_flows || t6 < min_flows {
            continue;
        }
        let p4 = 100.0 * m4 as f64 / t4 as f64;
        let p6 = 100.0 * m6 as f64 / t6 as f64;
        points.push((p4, p6));
        t.row([
            spec.country.code.to_owned(),
            format!("{p4:.1}"),
            format!("{p6:.1}"),
        ]);
    }
    format!(
        "Figure 7(a) — IPv4 vs IPv6 tampering %, regression slope = {:.2}\n\n{}",
        slope_through_origin(&points),
        t.render()
    )
}

/// Figure 7(b): per-country Post-PSH match % on TLS vs HTTP, with slope.
pub(crate) fn fig7b(col: &ReportView, sim: &WorldSim, min_flows: u64) -> String {
    let world = sim.world();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut t = Table::new(["Country", "TLS %", "HTTP %"]);
    for (spec, proto) in world.iter().zip(&col.country_proto) {
        let [(th, mh), (tt, mt)] = *proto;
        if th < min_flows || tt < min_flows {
            continue;
        }
        let p_http = 100.0 * mh as f64 / th as f64;
        let p_tls = 100.0 * mt as f64 / tt as f64;
        points.push((p_tls, p_http));
        t.row([
            spec.country.code.to_owned(),
            format!("{p_tls:.1}"),
            format!("{p_http:.1}"),
        ]);
    }
    format!(
        "Figure 7(b) — Post-PSH match % for TLS vs HTTP, regression slope (HTTP on TLS) = {:.2}\n\n{}",
        slope_through_origin(&points),
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Table 2: categories
// ---------------------------------------------------------------------------

struct RegionCategoryView {
    /// (category, tampered connections, tampered domains, seen domains)
    rows: Vec<(Category, u64, u64, u64)>,
    total_tampered_conns: u64,
}

fn region_categories(
    col: &ReportView,
    sim: &WorldSim,
    country: Option<u16>,
    threshold: u32,
) -> RegionCategoryView {
    let catalog = sim.catalog();
    let mut by_cat: Vec<(u64, BTreeSet<u32>, BTreeSet<u32>)> = (0..Category::ALL.len())
        .map(|_| (0, BTreeSet::new(), BTreeSet::new()))
        .collect();
    // Aggregate cells (for Global, sum the same domain across countries).
    // Ordered map: the iteration below feeds rendered rows.
    let mut agg: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for ((cc, d), cell) in &col.domain_cells {
        if let Some(c) = country {
            if *cc != c {
                continue;
            }
        }
        let e = agg.entry(*d).or_default();
        e.0 += cell.seen;
        e.1 += cell.psh_tampered;
    }
    let mut total_tampered_conns = 0;
    for (d, (seen, tampered)) in agg {
        let cat = catalog.get(d).category.index();
        if seen > 0 {
            by_cat[cat].2.insert(d);
        }
        if tampered >= threshold {
            by_cat[cat].0 += u64::from(tampered);
            by_cat[cat].1.insert(d);
            total_tampered_conns += u64::from(tampered);
        }
    }
    let rows = Category::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                *c,
                by_cat[i].0,
                by_cat[i].1.len() as u64,
                by_cat[i].2.len() as u64,
            )
        })
        .collect();
    RegionCategoryView {
        rows,
        total_tampered_conns,
    }
}

/// Table 2: the top-3 most affected categories per region with their share
/// of tampered connections and category coverage.
pub fn table2(col: &ReportView, sim: &WorldSim, threshold: u32) -> String {
    let world = sim.world();
    let mut t = Table::new([
        "Region",
        "Most affected categories",
        "% of tampered connections",
        "% of category domains tampered",
    ]);
    let mut regions: Vec<(String, Option<u16>)> = vec![("Global".to_owned(), None)];
    for code in FOCUS_REGIONS {
        if let Some(i) = country_index(world, code) {
            regions.push((code.to_owned(), Some(i)));
        }
    }
    for (name, country) in regions {
        let view = region_categories(col, sim, country, threshold);
        let mut rows = view.rows.clone();
        rows.sort_by_key(|(_, conns, _, _)| std::cmp::Reverse(*conns));
        for (cat, conns, tampered_doms, seen_doms) in rows.into_iter().take(3) {
            if conns == 0 {
                continue;
            }
            t.row([
                name.clone(),
                cat.label().to_owned(),
                pct(conns, view.total_tampered_conns),
                pct(tampered_doms, seen_doms),
            ]);
        }
    }
    format!(
        "Table 2 — Post-PSH tampering by content category (domain threshold: ≥{threshold} tampered connections)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Table 3: test-list coverage
// ---------------------------------------------------------------------------

fn observed_tampered_domains(
    col: &ReportView,
    sim: &WorldSim,
    country: Option<u16>,
    threshold: u32,
) -> Vec<String> {
    let catalog = sim.catalog();
    let mut agg: BTreeMap<u32, u32> = BTreeMap::new();
    for ((cc, d), cell) in &col.domain_cells {
        if let Some(c) = country {
            if *cc != c {
                continue;
            }
        }
        *agg.entry(*d).or_default() += cell.psh_tampered;
    }
    let mut v: Vec<String> = agg
        .into_iter()
        .filter(|(_, n)| *n >= threshold)
        .map(|(d, _)| catalog.get(d).name.clone())
        .collect();
    v.sort();
    v
}

/// Table 3: coverage of each test list over the passively observed
/// tampered domains, per region, in exact (eTLD+1) and substring modes.
pub(crate) fn table3(
    col: &ReportView,
    sim: &WorldSim,
    lists: &TestLists,
    threshold: u32,
) -> String {
    let world = sim.world();
    let mut regions: Vec<(String, Option<u16>)> = vec![("Global".to_owned(), None)];
    for code in ["CN", "IN", "IR", "KR", "MX", "PE", "RU", "US"] {
        if let Some(i) = country_index(world, code) {
            regions.push((code.to_owned(), Some(i)));
        }
    }
    let observed: Vec<Vec<String>> = regions
        .iter()
        .map(|(_, c)| observed_tampered_domains(col, sim, *c, threshold))
        .collect();

    let mut header: Vec<String> = vec!["List".to_owned(), "Entries".to_owned()];
    for ((name, _), obs) in regions.iter().zip(&observed) {
        header.push(format!("{name} (n={})", obs.len()));
    }
    let mut t = Table::new(header);

    let coverage = |pred: &dyn Fn(&str) -> bool, obs: &[String]| -> String {
        if obs.is_empty() {
            return "-".to_owned();
        }
        let hits = obs.iter().filter(|d| pred(d)).count();
        pct(hits as u64, obs.len() as u64)
    };

    for list in &lists.fixed {
        let mut row = vec![list.name.clone(), list.entries.len().to_string()];
        for obs in &observed {
            row.push(coverage(&|d| list.contains(d), obs));
        }
        t.row(row);
    }
    // Citizenlab per-country row.
    {
        let mut row = vec!["Citizenlab_country".to_owned(), "varies".to_owned()];
        for ((_, country), obs) in regions.iter().zip(&observed) {
            match country {
                Some(c) => {
                    let list = &lists.citizenlab_country[c];
                    row.push(coverage(&|d| list.contains(d), obs));
                }
                None => row.push("-".to_owned()),
            }
        }
        t.row(row);
    }
    // Unions.
    let union_pred = |names: &[&str]| {
        let members: Vec<&TestList> = lists
            .fixed
            .iter()
            .filter(|l| names.contains(&l.name.as_str()))
            .collect();
        move |d: &str| members.iter().any(|l| l.contains(d))
    };
    let cl_gf = union_pred(&[
        "Citizenlab",
        "Citizenlab_global",
        "Greatfire_all",
        "Greatfire_30d",
    ]);
    {
        let mut row = vec!["Union: Citizenlab + Greatfire".to_owned(), String::new()];
        for obs in &observed {
            row.push(coverage(&cl_gf, obs));
        }
        t.row(row);
    }
    {
        let all = |d: &str| lists.fixed.iter().any(|l| l.contains(d));
        let mut row = vec!["Union: All lists".to_owned(), String::new()];
        for obs in &observed {
            row.push(coverage(&all, obs));
        }
        t.row(row);
    }
    // Substring best-case rows.
    {
        let members: Vec<&TestList> = lists
            .fixed
            .iter()
            .filter(|l| l.name.starts_with("Citizenlab") || l.name.starts_with("Greatfire"))
            .collect();
        let pred = |d: &str| members.iter().any(|l| l.substring_match(d));
        let mut row = vec![
            "Substring: Citizenlab + Greatfire".to_owned(),
            String::new(),
        ];
        for obs in &observed {
            row.push(coverage(&pred, obs));
        }
        t.row(row);
    }
    {
        let pred = |d: &str| lists.fixed.iter().any(|l| l.substring_match(d));
        let mut row = vec!["Substring: All lists".to_owned(), String::new()];
        for obs in &observed {
            row.push(coverage(&pred, obs));
        }
        t.row(row);
    }
    format!(
        "Table 3 — test-list coverage of passively observed tampered domains (threshold ≥{threshold})\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Figure 10: signature consistency for (IP, domain) pairs
// ---------------------------------------------------------------------------

/// Figure 10 (Appendix B): for repeated (IP, domain) pairs, the transition
/// matrix from the first matched class to subsequent ones. A strong
/// diagonal means tampering is consistent.
pub fn fig10(col: &ReportView) -> String {
    let mut matrix = [[0u64; 9]; 9];
    for seq in &col.pair_codes {
        if seq.len() < 2 {
            continue;
        }
        let first = seq[0] as usize;
        for &next in &seq[1..] {
            matrix[first][next as usize] += 1;
        }
    }
    let mut header = vec!["first \\ next".to_owned()];
    for code in 0..9u8 {
        header.push(class_code_label(code).to_owned());
    }
    let mut t = Table::new(header);
    let mut diag_mass = 0u64;
    let mut total_mass = 0u64;
    for (i, row) in matrix.iter().enumerate() {
        let row_total: u64 = row.iter().sum();
        let mut cells = vec![class_code_label(i as u8).to_owned()];
        for (j, &n) in row.iter().enumerate() {
            if row_total == 0 {
                cells.push("-".to_owned());
            } else {
                cells.push(format!("{:.2}", n as f64 / row_total as f64));
            }
            if i == j {
                diag_mass += n;
            }
            total_mass += n;
        }
        t.row(cells);
    }
    format!(
        "Figure 10 — class consistency across repeated (IP, domain) pairs (diagonal mass: {})\n\n{}",
        pct(diag_mass, total_mass),
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Validation (§4.2, §4.3) and ground truth
// ---------------------------------------------------------------------------

/// The §4.1–§4.3 validation numbers plus simulation-only ground truth.
pub(crate) fn validation(col: &ReportView) -> String {
    let mut out = String::from("Validation (paper §4.1–4.3)\n\n");
    out.push_str(&format!(
        "V1 scanners: {} of ⟨SYN → RST⟩ matches carry the ZMap fingerprint (IP-ID 54321, no options)\n",
        pct(col.syn_rst_zmap, col.syn_rst_total)
    ));
    out.push_str(&format!(
        "    option-less flows: {}   TTL ≥ 200 flows: {}\n",
        pct(col.no_opt_flows, col.total),
        pct(col.high_ttl_flows, col.total)
    ));
    out.push_str(&format!(
        "V2 SYN payloads: port 80: {} of flows carry a GET in the SYN; port 443: {}\n",
        pct(col.port80_syn_payload, col.port80_flows),
        pct(col.port443_syn_payload, col.port443_flows)
    ));
    let magnet_total: u32 = {
        let mut counts: Vec<u32> = col.syn_payload_domains.values().copied().collect();
        counts.sort_unstable_by_key(|c| std::cmp::Reverse(*c));
        counts.iter().take(4).sum()
    };
    let all_payload: u32 = col.syn_payload_domains.values().sum();
    out.push_str(&format!(
        "    top-4 domains receive {} of SYN-payload requests\n",
        pct(u64::from(magnet_total), u64::from(all_payload))
    ));
    out.push_str(&format!(
        "    Post-Data matches carrying a commercial-firewall User-Agent: {}\n",
        pct(col.postdata_fw_ua, col.postdata_matches)
    ));
    out.push_str(&format!(
        "V3 baselines: min consecutive |ΔIP-ID| ≤ 1 for {} of flows; > 100 for {}\n",
        pct(col.ipid_min_le1, col.ipid_flows),
        pct(col.ipid_min_gt100, col.ipid_flows)
    ));
    out.push_str(&format!(
        "    max consecutive |ΔTTL| ≤ 1 for {} of flows\n",
        pct(col.ttl_max_le1, col.ttl_flows)
    ));
    out.push_str(&format!(
        "\nGround truth (simulation only): recall {} precision {} — the precision gap is the benign\nanomaly population (scanners, aborts, vanishing clients) the paper's signatures knowingly include.\n",
        pct_f(col.truth.recall()),
        pct_f(col.truth.precision())
    ));
    out
}

/// Assemble the complete standard-scenario report: every table and figure
/// except the Iran case study (which needs its own scenario world). This
/// is what the CLI `report` and `merge` subcommands print.
pub fn full_report(col: &ReportView, sim: &WorldSim, lists: &TestLists) -> String {
    let mut out = String::new();
    let mut push = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    push(table1(col));
    push(fig1(col, sim, 6));
    push(fig4(col, sim, 100));
    push(fig5(col, sim, 400));
    push(fig7a(col, sim, 150));
    push(fig7b(col, sim, 150));
    push(table2(col, sim, 3));
    push(table3(col, sim, lists, 3));
    push(fig2(col));
    push(fig3(col));
    push(validation(col));
    push(benign_attribution(col));
    push(fig10(col));
    push(fig6(col, sim, &FIG6_COUNTRIES));
    push(fig9(col));
    out
}

/// The anatomy of the benign population (§4.2, simulation-only): for each
/// benign client behaviour, where its flows land in the classification —
/// which signature absorbs it, or whether it stays unmatched/clean.
pub(crate) fn benign_attribution(col: &ReportView) -> String {
    let mut t = Table::new([
        "Benign behaviour",
        "n",
        "Dominant class",
        "share",
        "Not tampered",
    ]);
    for kind in tamper_worldgen::BenignKind::ALL {
        let row = &col.benign_attribution[kind.index()];
        let n: u64 = row.iter().sum();
        if n == 0 {
            continue;
        }
        let (best_idx, best_n) = row
            .iter()
            .enumerate()
            .take(20) // exclude the Not-Tampered cell from "dominant class"
            .max_by_key(|(_, v)| **v)
            .unwrap();
        let label = if best_idx < 19 {
            Signature::ALL[best_idx].label().to_owned()
        } else {
            "(possibly tampered, unmatched)".to_owned()
        };
        let (label, best_n) = if *best_n == 0 {
            ("—".to_owned(), 0)
        } else {
            (label, *best_n)
        };
        t.row([
            kind.label().to_owned(),
            n.to_string(),
            label,
            pct(best_n, n),
            pct(row[CLASS_NOT_TAMPERED], n),
        ]);
    }
    format!(
        "Benign-population anatomy (ground truth × classification)

{}",
        t.render()
    )
}

/// Percentage of possibly-tampered flows whose sequence-type stage matched
/// a signature, by stage — convenience for tests.
pub fn stage_share(col: &ReportView, stage: Stage) -> f64 {
    let idx = match stage {
        Stage::PostSyn => 0,
        Stage::PostAck => 1,
        Stage::PostPsh => 2,
        Stage::PostData => 3,
    };
    if col.possibly_tampered == 0 {
        return f64::NAN;
    }
    col.stage_counts[idx] as f64 / col.possibly_tampered as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;
    use tamper_core::ClassifierConfig;
    use tamper_worldgen::{WorldConfig, WorldSim};

    fn tiny() -> (Collector, WorldSim) {
        let sim = WorldSim::new(WorldConfig {
            sessions: 4_000,
            days: 2,
            catalog_size: 600,
            ..Default::default()
        });
        let mut col = Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            2,
            sim.config().start_unix,
        );
        sim.run(|lf| col.observe(&lf));
        (col, sim)
    }

    #[test]
    fn table1_contains_all_signatures_and_totals() {
        let (col, _) = tiny();
        let t = table1(&col.view());
        for sig in Signature::ALL {
            assert!(t.contains(sig.label()), "missing {sig}");
        }
        assert!(t.contains("possibly tampered"));
        assert!(t.contains("Mid-handshake"));
    }

    #[test]
    fn fig1_has_a_line_per_signature() {
        let (col, sim) = tiny();
        let f = fig1(&col.view(), &sim, 3);
        for sig in Signature::ALL {
            assert!(f.contains(sig.label()), "missing {sig}");
        }
    }

    #[test]
    fn fig4_sorted_descending() {
        let (col, sim) = tiny();
        let f = fig4(&col.view(), &sim, 10);
        // Parse the "Match any sig" column and check monotonicity.
        let rates: Vec<f64> = f
            .lines()
            .skip(4)
            .filter_map(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.get(2)
                    .and_then(|c| c.trim_end_matches('%').parse().ok())
            })
            .collect();
        assert!(rates.len() > 10);
        for w in rates.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "not sorted: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn cdf_figures_are_tsv_with_headers() {
        let (col, _) = tiny();
        let f2 = fig2(&col.view());
        assert!(f2.starts_with("Figure 2"));
        assert!(f2.contains("Not Tampering"));
        let f3 = fig3(&col.view());
        assert!(f3.contains("F(0)"));
    }

    #[test]
    fn fig6_has_hour_rows() {
        let (col, sim) = tiny();
        let f = fig6(&col.view(), &sim, &["CN", "US"]);
        let lines: Vec<&str> = f.lines().collect();
        assert_eq!(lines[1], "hour\tCN\tUS");
        assert_eq!(lines.len(), 2 + col.hours());
    }

    #[test]
    fn fig7_reports_slopes() {
        let (col, sim) = tiny();
        assert!(fig7a(&col.view(), &sim, 5).contains("slope"));
        assert!(fig7b(&col.view(), &sim, 5).contains("slope"));
    }

    #[test]
    fn tables_2_and_3_render() {
        let (col, sim) = tiny();
        let t2 = table2(&col.view(), &sim, 1);
        assert!(t2.contains("Global"));
        let lists = tamper_worldgen::generate_lists(&sim);
        let t3 = table3(&col.view(), &sim, &lists, 1);
        assert!(t3.contains("Tranco_1K"));
        assert!(t3.contains("Substring: All lists"));
    }

    #[test]
    fn fig10_renders() {
        let (col, _) = tiny();
        assert!(fig10(&col.view()).contains("first \\ next"));
    }

    #[test]
    fn benign_attribution_maps_kinds_to_expected_classes() {
        let (col, _) = tiny();
        let row = |k: tamper_worldgen::BenignKind| &col.benign_attribution[k.index()];
        // ZMap scanners land on ⟨SYN → RST⟩.
        let zmap = row(tamper_worldgen::BenignKind::Zmap);
        assert!(zmap[Signature::SynRst.index()] > 0);
        // Stalls complete gracefully: overwhelmingly Not Tampered.
        let stall = row(tamper_worldgen::BenignKind::StallOk);
        let n: u64 = stall.iter().sum();
        if n > 0 {
            assert!(stall[crate::agg::CLASS_NOT_TAMPERED] as f64 / n as f64 > 0.8);
        }
        let text = benign_attribution(&col.view());
        assert!(text.contains("ZMap"));
    }

    #[test]
    fn validation_mentions_all_checks() {
        let (col, _) = tiny();
        let v = validation(&col.view());
        for needle in ["V1", "V2", "V3", "ZMap", "recall"] {
            assert!(v.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn full_report_contains_every_artifact() {
        let (col, sim) = tiny();
        let lists = tamper_worldgen::generate_lists(&sim);
        let r = full_report(&col.view(), &sim, &lists);
        for needle in [
            "possibly tampered",
            "Figure 1",
            "Figure 4",
            "Figure 5",
            "Figure 7(a)",
            "Figure 7(b)",
            "Table 2",
            "Table 3",
            "Figure 2",
            "Figure 3",
            "Validation",
            "Benign-population",
            "Figure 10",
            "Figure 6",
            "Figure 9",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig9_and_fig8_share_layout() {
        let (col, _) = tiny();
        let f9 = fig9(&col.view());
        assert!(f9.contains("Figure 9"));
        let f8 = fig8(&col.view());
        assert!(f8.contains("Figure 8"));
        assert_eq!(f8.lines().count(), f9.lines().count());
    }
}
