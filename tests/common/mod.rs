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

/// An [`Observed`] world and, over the same flows, one collector for
/// each extra classifier configuration asked for.
pub type ObservedWith = (Observed, Vec<Collector>);

/// What tells two observed worlds apart: the world's fingerprint, which
/// leaves out how it is collected, the collector's settings, and the
/// extra classifier configurations.
type WorldKey = (u64, usize, bool, bool, String);

/// The world `cfg` describes, observed through the full pipeline into a
/// collector over all of its countries and days, and the world itself.
/// Each distinct world (by [`world_fingerprint`] and collector settings)
/// is simulated once per test binary; every test asking for it, on any
/// thread, shares that one result.
pub fn observed(cfg: WorldConfig) -> &'static Observed {
    &observed_with(cfg, &[]).0
}

/// [`observed`], plus the same flows observed under each of `variants`:
/// one simulation for every classifier configuration.
pub fn observed_with(cfg: WorldConfig, variants: &[ClassifierConfig]) -> &'static ObservedWith {
    static WORLDS: OnceLock<Mutex<BTreeMap<WorldKey, &'static OnceLock<ObservedWith>>>> =
        OnceLock::new();
    let c = cfg.collector;
    let key = (
        world_fingerprint(&cfg),
        c.max_packets,
        c.quantize_timestamps,
        c.shuffle_within_second,
        format!("{variants:?}"),
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
        let mk = |clf| {
            Collector::new(
                clf,
                sim.world().len(),
                sim.config().days,
                sim.config().start_unix,
            )
        };
        let (col, others) = sim.run_sharded(
            0,
            None,
            || {
                let others: Vec<Collector> = variants.iter().map(|&v| mk(v)).collect();
                (mk(ClassifierConfig::default()), others)
            },
            |(c, others), lf| {
                c.observe(&lf);
                others.iter_mut().for_each(|o| o.observe(&lf));
            },
            |(a, a_others), (b, b_others)| {
                a.merge(b);
                a_others
                    .iter_mut()
                    .zip(b_others)
                    .for_each(|(x, y)| x.merge(y));
            },
        );
        ((col, sim), others)
    })
}
