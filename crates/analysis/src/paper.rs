//! The paper's reported numbers, as named constants — the single source
//! for calibration targets, EXPERIMENTS.md comparisons, and the
//! paper-vs-measured table printed by `examples/quickstart.rs`.
//!
//! All values are from "Global, Passive Detection of Connection Tampering"
//! (SIGCOMM 2023), §4–§5.

/// §4.1: share of all connections that are possibly tampered.
pub const POSSIBLY_TAMPERED: f64 = 0.257;

/// §4.1: stage shares of possibly-tampered connections
/// (Post-SYN, Post-ACK, Post-PSH, Post-Data, other).
pub const STAGE_SHARES: [f64; 5] = [0.432, 0.161, 0.053, 0.330, 0.023];

/// §4.1: signature coverage within each stage.
pub const STAGE_COVERAGE: [f64; 4] = [0.995, 0.987, 0.979, 0.692];

/// §4.1: overall coverage of the 19 signatures.
pub const TOTAL_COVERAGE: f64 = 0.869;

/// §5.1: Turkmenistan's share of connections matching any signature.
pub const TM_MATCH_RATE: f64 = 0.84;

/// §5.1: share of TM's tampered connections that are `⟨SYN; ACK → RST⟩`.
pub const TM_ACK_RST_SHARE: f64 = 0.664;

/// §5.1: Peru's match rate.
pub const PE_MATCH_RATE: f64 = 0.539;

/// §5.1: Mexico's match rate.
pub const MX_MATCH_RATE: f64 = 0.301;

/// §5.3: IPv4-vs-IPv6 regression slope (Figure 7a).
pub const V4_V6_SLOPE: f64 = 0.92;

/// §5.3: TLS-vs-HTTP regression slope (Figure 7b).
pub const TLS_HTTP_SLOPE: f64 = 0.3;

/// §4.2: share of `⟨SYN → RST⟩` matches attributable to ZMap.
pub const ZMAP_SHARE_OF_SYN_RST: f64 = 0.01;

/// §4.1: share of port-80 SYNs carrying an HTTP payload (2023-01-17).
pub const PORT80_SYN_PAYLOAD: f64 = 0.38;

/// §4.1: share of those payloads going to the top four domains.
pub const SYN_PAYLOAD_TOP4: f64 = 0.93;

/// §4.3: share of connections with min consecutive |ΔIP-ID| ≤ 1.
pub const IPID_MIN_LE1: f64 = 0.934;

/// §4.3: share of connections with min consecutive |ΔIP-ID| > 100.
pub const IPID_MIN_GT100: f64 = 0.042;

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub statistic: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Ratio of measured to paper value (NaN when paper value is 0).
    pub fn ratio(&self) -> f64 {
        self.measured / self.paper
    }
}

/// Compute the headline paper-vs-measured comparisons from a collector.
pub fn comparisons(col: &crate::Collector) -> Vec<Comparison> {
    let pt = col.possibly_tampered as f64 / col.total.max(1) as f64;
    let mut rows = vec![Comparison {
        statistic: "possibly tampered share",
        paper: POSSIBLY_TAMPERED,
        measured: pt,
    }];
    let stage_names = [
        "Post-SYN stage share",
        "Post-ACK stage share",
        "Post-PSH stage share",
        "Post-Data stage share",
        "other-sequence share",
    ];
    for (i, name) in stage_names.iter().enumerate() {
        rows.push(Comparison {
            statistic: name,
            paper: STAGE_SHARES[i],
            measured: col.stage_counts[i] as f64 / col.possibly_tampered.max(1) as f64,
        });
    }
    let cov_names = [
        "Post-SYN coverage",
        "Post-ACK coverage",
        "Post-PSH coverage",
        "Post-Data coverage",
    ];
    for (i, name) in cov_names.iter().enumerate() {
        rows.push(Comparison {
            statistic: name,
            paper: STAGE_COVERAGE[i],
            measured: col.stage_matched[i] as f64 / col.stage_counts[i].max(1) as f64,
        });
    }
    rows.push(Comparison {
        statistic: "overall signature coverage",
        paper: TOTAL_COVERAGE,
        measured: col.stage_matched.iter().sum::<u64>() as f64
            / col.possibly_tampered.max(1) as f64,
    });
    rows.push(Comparison {
        statistic: "min |ΔIP-ID| ≤ 1 share",
        paper: IPID_MIN_LE1,
        measured: col.ipid_min_le1 as f64 / col.ipid_flows.max(1) as f64,
    });
    rows.push(Comparison {
        statistic: "min |ΔIP-ID| > 100 share",
        paper: IPID_MIN_GT100,
        measured: col.ipid_min_gt100 as f64 / col.ipid_flows.max(1) as f64,
    });
    rows.push(Comparison {
        statistic: "top-4 share of SYN payloads",
        paper: SYN_PAYLOAD_TOP4,
        measured: {
            let mut counts: Vec<u32> = col.syn_payload_domains.values().copied().collect();
            counts.sort_unstable_by_key(|c| std::cmp::Reverse(*c));
            let top4: u32 = counts.iter().take(4).sum();
            let all: u32 = counts.iter().sum();
            f64::from(top4) / f64::from(all.max(1))
        },
    });
    rows
}

/// Render the comparison table.
pub fn comparison_table(col: &crate::Collector) -> String {
    let mut t = crate::Table::new(["Statistic", "Paper", "Measured", "Ratio"]);
    for c in comparisons(col) {
        t.row([
            c.statistic.to_owned(),
            crate::pct_f(c.paper),
            crate::pct_f(c.measured),
            format!("{:.2}", c.ratio()),
        ]);
    }
    format!("Paper vs. measured (headline statistics)\n\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamper_core::ClassifierConfig;
    use tamper_worldgen::{WorldConfig, WorldSim};

    #[test]
    fn stage_constants_sum_to_one() {
        let s: f64 = STAGE_SHARES.iter().sum();
        assert!((s - 0.999).abs() < 0.01, "sum {s}");
    }

    #[test]
    fn comparison_ratios_near_unity_on_a_real_run() {
        let sim = WorldSim::new(WorldConfig {
            sessions: 30_000,
            days: 2,
            catalog_size: 1000,
            ..Default::default()
        });
        let mut col = crate::Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            2,
            sim.config().start_unix,
        );
        sim.run(|lf| col.observe(&lf));
        let rows = comparisons(&col);
        assert!(rows.len() >= 12);
        // The headline ratios must sit in a broad unity band — this is the
        // automated "shape holds" check.
        for c in &rows {
            if c.paper >= 0.05 {
                assert!(
                    (0.5..2.0).contains(&c.ratio()),
                    "{}: paper {} measured {}",
                    c.statistic,
                    c.paper,
                    c.measured
                );
            }
        }
        let table = comparison_table(&col);
        assert!(table.contains("possibly tampered share"));
        assert!(table.contains("Ratio"));
    }
}
