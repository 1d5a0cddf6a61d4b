//! The §5.6 case study as a test: the scripted Iran-2022 scenario must
//! reproduce the paper's qualitative findings — sharp escalation from the
//! protest onset, evening-hour peaks, mobile-ISP concentration, and
//! domination by post-handshake drops/RST+ACK injection and ⟨SYN → RST⟩.
//! The CLI's `iran` text at 20k sessions is pinned byte for byte in
//! `tests/fixtures/iran_20k.golden.txt` (re-bless an intentional change
//! with `UPDATE_GOLDEN=1 cargo test --test iran_scenario`).

mod common;

use common::Observed;
use std::process::Command;
use tamper_core::Signature;
use tamper_worldgen::{Scenario, WorldConfig, SEP13_2022_UNIX};

/// The Iran-only world of `sessions` sessions over the 17-day window,
/// simulated once per size for the whole binary.
fn run_iran(sessions: u64) -> &'static Observed {
    common::observed(WorldConfig {
        sessions,
        days: 17,
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        catalog_size: 800,
        ..Default::default()
    })
}

#[test]
fn blocking_escalates_after_onset() {
    let (col, _) = run_iran(60_000);
    let sig = Signature::AckNone.index();
    let day_rate = |d0: usize, d1: usize| {
        let (mut m, mut t) = (0u64, 0u64);
        for h in d0 * 24..d1 * 24 {
            m += u64::from(col.sig_hour[h][sig]);
            t += u64::from(col.hour_totals[h]);
        }
        m as f64 / t.max(1) as f64
    };
    let early = day_rate(0, 2);
    let late = day_rate(5, 17);
    assert!(
        late > 1.5 * early,
        "⟨SYN; ACK → ∅⟩ should escalate: early {early} late {late}"
    );
}

#[test]
fn evening_hours_peak() {
    let (col, sim) = run_iran(60_000);
    let tz = sim.world()[0].country.tz_offset_hours;
    let sigs = [Signature::AckNone.index(), Signature::AckRstAck.index()];
    let (mut eve_m, mut eve_t, mut day_m, mut day_t) = (0u64, 0u64, 0u64, 0u64);
    for h in 5 * 24..col.hours() {
        let local = (h as i32 + tz).rem_euclid(24);
        let m: u64 = sigs.iter().map(|&s| u64::from(col.sig_hour[h][s])).sum();
        let t = u64::from(col.hour_totals[h]);
        if (17..23).contains(&local) {
            eve_m += m;
            eve_t += t;
        } else if (6..12).contains(&local) {
            day_m += m;
            day_t += t;
        }
    }
    let eve = eve_m as f64 / eve_t.max(1) as f64;
    let morning = day_m as f64 / day_t.max(1) as f64;
    assert!(
        eve > 1.5 * morning,
        "evening {eve} should dwarf morning {morning}"
    );
}

#[test]
fn mobile_isps_carry_the_bulk() {
    let (col, _) = run_iran(60_000);
    // ASes 0 and 1 are the mobile ISPs in the scenario script.
    let mut mobile = (0u64, 0u64);
    let mut rest = (0u64, 0u64);
    for ((_, asn), &(total, matched)) in &col.as_counts {
        if *asn < 2 {
            mobile.0 += matched;
            mobile.1 += total;
        } else {
            rest.0 += matched;
            rest.1 += total;
        }
    }
    let mobile_rate = mobile.0 as f64 / mobile.1.max(1) as f64;
    let rest_rate = rest.0 as f64 / rest.1.max(1) as f64;
    assert!(
        mobile_rate > rest_rate + 0.1,
        "mobile {mobile_rate} vs rest {rest_rate}"
    );
}

#[test]
fn peak_hours_exceed_forty_percent_timeouts() {
    let (col, _) = run_iran(120_000);
    // Paper: "in certain instances, more than 40% of all connections
    // exhibited timeouts after the handshake."
    let sig = Signature::AckNone.index();
    let peak = col
        .sig_hour
        .iter()
        .zip(&col.hour_totals)
        .filter(|(_, &t)| t >= 40)
        .map(|(row, &t)| f64::from(row[sig]) / f64::from(t))
        .fold(0.0f64, f64::max);
    assert!(peak > 0.30, "peak hourly ⟨SYN; ACK → ∅⟩ rate only {peak}");
}

/// The scenario-overlay path end to end: `tamperscope iran --sessions
/// 20000` prints the committed golden at one and two threads.
#[test]
fn iran_text_matches_the_golden_at_any_thread_count() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/iran_20k.golden.txt"
    );
    let iran = |threads: u32| {
        let out = Command::new(env!("CARGO_BIN_EXE_tamperscope"))
            .args(["iran", "--sessions", "20000", "--threads"])
            .arg(threads.to_string())
            .output()
            .expect("iran");
        assert!(
            out.status.success(),
            "iran failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let t1 = iran(1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &t1).unwrap();
    }
    let golden = std::fs::read(golden_path)
        .expect("tests/fixtures/iran_20k.golden.txt missing — run with UPDATE_GOLDEN=1");
    assert!(
        t1 == golden,
        "iran bytes differ from iran_20k.golden.txt; if intentional, re-bless with UPDATE_GOLDEN=1"
    );
    assert_eq!(iran(2), t1, "iran bytes changed at 2 threads");
}

#[test]
fn syn_rst_is_among_the_risers() {
    let (col, _) = run_iran(60_000);
    let sig = Signature::SynRst.index();
    let total: u64 = col.sig_hour.iter().map(|r| u64::from(r[sig])).sum();
    let share = total as f64 / col.total as f64;
    assert!(share > 0.02, "⟨SYN → RST⟩ share {share}");
}
