//! The paper's §5.6 case study: Iranian connection tampering during the
//! September 2022 protests (Figure 8).
//!
//! Runs the scripted 17-day Iran scenario — escalating, evening-peaked
//! blocking concentrated on two mobile ISPs — and prints the per-signature
//! hourly series plus the headline observations the paper makes:
//! post-handshake timeouts exceeding 40% of connections at the peaks, and
//! the two mobile ISPs carrying the bulk of the tampering.
//!
//! ```sh
//! cargo run --release --example iran_case_study -- --sessions 120000
//! ```

use tamperscope::analysis::{pct, report, Collector};
use tamperscope::core::{ClassifierConfig, Signature};
use tamperscope::worldgen::{Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX};

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let sessions = arg("--sessions", 120_000);
    let days = 17u32;
    let sim = WorldSim::new(WorldConfig {
        sessions,
        days,
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        catalog_size: 2000,
        ..Default::default()
    });
    let mk = || {
        Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            days,
            SEP13_2022_UNIX,
        )
    };
    let col = sim.run_sharded(0, None, mk, |c, lf| c.observe(&lf), |a, b| a.merge(b));

    // Figure 8: the full hourly TSV.
    println!("{}", report::fig8(&col.view()));

    // Headline 1: peak hourly rate of post-handshake timeouts.
    let ack_none = Signature::AckNone.index();
    let mut peak = (0usize, 0.0f64);
    for (h, row) in col.sig_hour.iter().enumerate() {
        let total = col.hour_totals[h];
        if total >= 30 {
            let rate = f64::from(row[ack_none]) / f64::from(total);
            if rate > peak.1 {
                peak = (h, rate);
            }
        }
    }
    println!(
        "peak ⟨SYN; ACK → ∅⟩ hour: day {} hour {} at {:.1}% of connections",
        peak.0 / 24,
        peak.0 % 24,
        100.0 * peak.1
    );

    // Headline 2: escalation — first 2 days vs the rest.
    let split = 2 * 24;
    let early: (u64, u64) = col.sig_hour[..split]
        .iter()
        .zip(&col.hour_totals[..split])
        .fold((0, 0), |(m, t), (row, total)| {
            (m + u64::from(row[ack_none]), t + u64::from(*total))
        });
    let late: (u64, u64) = col.sig_hour[split..]
        .iter()
        .zip(&col.hour_totals[split..])
        .fold((0, 0), |(m, t), (row, total)| {
            (m + u64::from(row[ack_none]), t + u64::from(*total))
        });
    println!(
        "⟨SYN; ACK → ∅⟩: {} of connections in the first two days vs {} afterwards",
        pct(early.0, early.1),
        pct(late.0, late.1),
    );

    // Headline 3: the two mobile ISPs dominate.
    let mut per_as: Vec<(u32, u64, u64)> = col
        .as_counts
        .iter()
        .map(|((_, asn), &(total, matched))| (*asn, total, matched))
        .collect();
    per_as.sort_by_key(|(asn, _, _)| *asn);
    println!("\nper-AS match rates (AS 0 and 1 are the mobile ISPs):");
    for (asn, total, matched) in per_as {
        println!(
            "  AS{asn}: {} of {} connections matched ({})",
            matched,
            total,
            pct(matched, total)
        );
    }
}
