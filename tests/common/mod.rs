//! Helpers shared by the integration-test binaries that include this
//! module (`mod common;`).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use tamper_analysis::Collector;
use tamper_core::ClassifierConfig;
use tamper_worldgen::{world_fingerprint, WorldConfig, WorldSim};

/// A world observed through the full pipeline: the collector and the
/// world it came from.
pub type Observed = (Collector, WorldSim);

/// What tells two observed worlds apart: the world's fingerprint, which
/// leaves out how it is collected, and the collector's settings.
type WorldKey = (u64, usize, bool, bool);

/// The world `cfg` describes, observed through the full pipeline into a
/// collector over all of its countries and days, and the world itself.
/// Each distinct world (by [`world_fingerprint`] and collector settings)
/// is simulated once per test binary; every test asking for it, on any
/// thread, shares that one result.
pub fn observed(cfg: WorldConfig) -> &'static Observed {
    static WORLDS: OnceLock<Mutex<BTreeMap<WorldKey, &'static OnceLock<Observed>>>> =
        OnceLock::new();
    let c = cfg.collector;
    let key = (
        world_fingerprint(&cfg),
        c.max_packets,
        c.quantize_timestamps,
        c.shuffle_within_second,
    );
    // Only the lookup holds the map's lock; a world is built under its own
    // cell, so two worlds build in parallel and a second asker waits.
    let cell = *WORLDS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let sim = WorldSim::new(cfg);
        let mk = || {
            Collector::new(
                ClassifierConfig::default(),
                sim.world().len(),
                sim.config().days,
                sim.config().start_unix,
            )
        };
        let col = sim.run_sharded(0, None, mk, |c, lf| c.observe(&lf), |a, b| a.merge(b));
        (col, sim)
    })
}
