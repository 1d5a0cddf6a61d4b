//! Shared harness for the benchmark targets: standard worlds, collectors,
//! and pre-generated flow batches, so each Criterion target measures one
//! paper artifact's regeneration cost and prints the artifact once.

use tamper_analysis::Collector;
use tamper_core::ClassifierConfig;
use tamper_worldgen::{LabeledFlow, Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX};

/// Sessions used when *emitting* an artifact (larger for fidelity).
pub const EMIT_SESSIONS: u64 = 60_000;
/// Sessions used inside the measured benchmark loop (smaller for speed).
pub const BENCH_SESSIONS: u64 = 4_000;

/// Build the standard two-week world at the given scale.
pub fn standard_world(sessions: u64) -> WorldSim {
    WorldSim::new(WorldConfig {
        sessions,
        days: 7,
        catalog_size: 2_000,
        ..Default::default()
    })
}

/// Build the Iran-protest scenario world.
pub fn iran_world(sessions: u64) -> WorldSim {
    WorldSim::new(WorldConfig {
        sessions,
        days: 17,
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        catalog_size: 1_000,
        ..Default::default()
    })
}

/// A collector sized for `sim`.
pub fn collector_for(sim: &WorldSim) -> Collector {
    Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days,
        sim.config().start_unix,
    )
}

/// Run the full generate → capture → classify → aggregate pipeline.
pub fn run_pipeline(sim: &WorldSim) -> Collector {
    sim.run_sharded(
        0,
        None,
        || collector_for(sim),
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    )
}

/// Pre-generate labeled flows (for classifier micro-benchmarks that must
/// not measure generation).
pub fn pregenerate(sessions: u64) -> Vec<LabeledFlow> {
    let sim = standard_world(sessions);
    let mut flows = Vec::with_capacity(sessions as usize);
    sim.run(|lf| flows.push(lf));
    flows
}

/// Print a banner followed by the artifact body, so `cargo bench` output
/// doubles as an experiment log.
pub fn emit(name: &str, body: &str) {
    println!("\n================ {name} ================\n{body}");
}
