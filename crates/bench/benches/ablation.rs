//! Ablation benches (DESIGN.md A1–A5): vary one collection/classification
//! design choice at a time, print the resulting headline statistics, and
//! measure the cost of each variant.
//!
//! - A1: inactivity threshold 1 s / 3 s / 10 s
//! - A2: packet window 4 / 10 / 20
//! - A3: timestamp quantization on/off
//! - A4: merged vs split RST-count signatures
//! - A5: sampling 1/1 vs 1/10
//!
//! (A2/A3/A5 change the collection pipeline, so their artifact lines are
//! produced by re-running the world with modified configs.)

use criterion::{criterion_group, Criterion};
use tamper_analysis::{pct, report, Collector};
use tamper_bench::{collector_for, emit, run_pipeline, BENCH_SESSIONS};
use tamper_core::{ClassifierConfig, Stage};
use tamper_worldgen::{WorldConfig, WorldSim};

fn world_with(sessions: u64, f: impl FnOnce(&mut WorldConfig)) -> WorldSim {
    let mut cfg = WorldConfig {
        sessions,
        days: 4,
        catalog_size: 1_500,
        ..Default::default()
    };
    f(&mut cfg);
    WorldSim::new(cfg)
}

fn run_with_classifier(sim: &WorldSim, cfg: ClassifierConfig) -> Collector {
    sim.run_sharded(
        0,
        None,
        || {
            Collector::new(
                cfg,
                sim.world().len(),
                sim.config().days,
                sim.config().start_unix,
            )
        },
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    )
}

fn headline(col: &Collector) -> String {
    format!(
        "possibly tampered {} | stages {:.1}/{:.1}/{:.1}/{:.1} | coverage {}",
        pct(col.possibly_tampered, col.total),
        100.0 * report::stage_share(&col.view(), Stage::PostSyn),
        100.0 * report::stage_share(&col.view(), Stage::PostAck),
        100.0 * report::stage_share(&col.view(), Stage::PostPsh),
        100.0 * report::stage_share(&col.view(), Stage::PostData),
        pct(col.stage_matched.iter().sum::<u64>(), col.possibly_tampered),
    )
}

fn emit_artifacts() {
    const N: u64 = 40_000;
    // A1: inactivity threshold.
    let sim = world_with(N, |_| {});
    let mut lines = String::new();
    for secs in [1u64, 3, 10] {
        let col = run_with_classifier(
            &sim,
            ClassifierConfig {
                inactivity_secs: secs,
                split_rst_counts: true,
            },
        );
        lines.push_str(&format!("threshold {secs:>2}s: {}\n", headline(&col)));
    }
    emit("Ablation A1 — inactivity threshold", &lines);

    // A2: packet window.
    let mut lines = String::new();
    for max_packets in [4usize, 10, 20] {
        let sim = world_with(N, |cfg| cfg.collector.max_packets = max_packets);
        let col = run_pipeline(&sim);
        lines.push_str(&format!(
            "window {max_packets:>2} packets: {}\n",
            headline(&col)
        ));
    }
    emit("Ablation A2 — packet window", &lines);

    // A3: quantization.
    let mut lines = String::new();
    for quantize in [true, false] {
        let sim = world_with(N, |cfg| {
            cfg.collector.quantize_timestamps = quantize;
            cfg.collector.shuffle_within_second = quantize;
        });
        let col = run_pipeline(&sim);
        lines.push_str(&format!(
            "{}: {}\n",
            if quantize {
                "1-second timestamps (paper)"
            } else {
                "exact timestamps    "
            },
            headline(&col)
        ));
    }
    emit("Ablation A3 — timestamp quantization", &lines);

    // A4: merged vs split RST counts.
    let sim = world_with(N, |_| {});
    let mut lines = String::new();
    for split in [true, false] {
        let col = run_with_classifier(
            &sim,
            ClassifierConfig {
                inactivity_secs: 3,
                split_rst_counts: split,
            },
        );
        let distinct = (0..19)
            .filter(|&i| col.country_class.iter().any(|c| c[i] > 0))
            .count();
        lines.push_str(&format!(
            "{}: {} | distinct signatures observed: {distinct}\n",
            if split {
                "split (19 signatures) "
            } else {
                "merged (13 signatures)"
            },
            headline(&col)
        ));
    }
    emit("Ablation A4 — RST-count splitting", &lines);

    // A5: sampling.
    let mut lines = String::new();
    for (denom, sessions) in [(1u64, N), (10, N * 10)] {
        let sim = world_with(sessions, |cfg| cfg.sample_denominator = denom);
        let col = run_pipeline(&sim);
        lines.push_str(&format!(
            "1-in-{denom:<3} ({} kept): {}\n",
            col.total,
            headline(&col)
        ));
    }
    emit("Ablation A5 — connection sampling", &lines);
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    let sim = world_with(BENCH_SESSIONS, |_| {});
    for secs in [1u64, 3, 10] {
        g.bench_function(&format!("a1_threshold_{secs}s"), |b| {
            b.iter(|| {
                run_with_classifier(
                    &sim,
                    ClassifierConfig {
                        inactivity_secs: secs,
                        split_rst_counts: true,
                    },
                )
                .possibly_tampered
            })
        });
    }
    let _ = collector_for(&sim);
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    emit_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
