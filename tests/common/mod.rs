//! Helpers shared by the integration-test binaries that include this
//! module (`mod common;`).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use tamper_analysis::Collector;
use tamper_core::ClassifierConfig;
use tamper_worldgen::{WorldConfig, WorldSim};

/// A world observed through the full pipeline: the collector and the
/// world it came from.
type Observed = (Collector, WorldSim);

/// The calibration world of `sessions` sessions (3 days, a 1,500-domain
/// catalog, default seed), observed through the full pipeline, and the
/// world itself. Each distinct size is simulated once per test binary;
/// every test asking for it, on any thread, shares that one result.
pub fn run_world(sessions: u64) -> &'static Observed {
    static WORLDS: OnceLock<Mutex<BTreeMap<u64, &'static OnceLock<Observed>>>> = OnceLock::new();
    // Only the lookup holds the map's lock; a world is built under its own
    // cell, so two sizes build in parallel and a second asker waits.
    let cell = *WORLDS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap()
        .entry(sessions)
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let sim = WorldSim::new(WorldConfig {
            sessions,
            days: 3,
            catalog_size: 1500,
            ..Default::default()
        });
        let mk = || {
            Collector::new(
                ClassifierConfig::default(),
                sim.world().len(),
                3,
                sim.config().start_unix,
            )
        };
        let col = sim.run_sharded(0, None, mk, |c, lf| c.observe(&lf), |a, b| a.merge(b));
        (col, sim)
    })
}
