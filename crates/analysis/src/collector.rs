//! The streaming statistics collector: one pass over labeled flows feeds
//! every table and figure of the paper.
//!
//! The collector is a thin classification driver: it runs each flow
//! through the `tamper-core` classifier and folds the result
//! into the [`PartialAggregate`] it owns — the pure, serializable
//! aggregation layer in [`crate::agg`]. Reads pass through via `Deref`;
//! the aggregate itself can be encoded to a `.agg` file
//! ([`crate::aggfile`]) and merged across PoPs without losing
//! byte-equality with a single-machine run.

use std::ops::{Deref, DerefMut};

use tamper_core::{BatchClassifier, ClassifierConfig, FlowAnalysis, FlowView};
use tamper_worldgen::LabeledFlow;

use crate::agg::PartialAggregate;

/// The collector: a [`BatchClassifier`] driving a [`PartialAggregate`].
pub struct Collector {
    agg: PartialAggregate,
    /// The classifier this collector drives in [`Collector::observe`];
    /// carries the scratch buffers so per-flow classification stays
    /// allocation-free across the whole run.
    classifier: BatchClassifier,
}

impl Collector {
    /// Create a collector for a world of `n_countries` over `days`.
    pub fn new(cfg: ClassifierConfig, n_countries: usize, days: u32, start_unix: u64) -> Collector {
        Collector::with_salt(cfg, n_countries, days, start_unix, 0)
    }

    /// Create a collector whose aggregate carries a workload-identity
    /// salt in its config fingerprint (per-PoP runs; 0 for
    /// single-machine runs).
    pub fn with_salt(
        cfg: ClassifierConfig,
        n_countries: usize,
        days: u32,
        start_unix: u64,
        world_salt: u64,
    ) -> Collector {
        Collector {
            agg: PartialAggregate::with_salt(cfg, n_countries, days, start_unix, world_salt),
            classifier: BatchClassifier::new(cfg),
        }
    }

    /// Classify and record one flow.
    pub fn observe(&mut self, lf: &LabeledFlow) {
        let analysis = self.classifier.classify_flow(&lf.flow);
        self.agg.record(&lf.meta, &lf.flow.tuple(), &analysis);
    }

    /// Record a flow that was already classified. Kept for
    /// `benchmark/src/bin/probes.rs` until ROADMAP item 1(g); everything
    /// else calls [`PartialAggregate::record`].
    pub fn observe_analyzed(&mut self, lf: &LabeledFlow, a: &FlowAnalysis) {
        self.agg.record(&lf.meta, &lf.flow.tuple(), a);
    }

    /// Merge another collector (same configuration) into this one.
    pub fn merge(&mut self, other: Collector) {
        self.agg.merge(other.agg);
    }

    /// Borrow the aggregate this collector folds into.
    pub fn partial(&self) -> &PartialAggregate {
        &self.agg
    }

    /// Take the aggregate out of the collector.
    #[cfg(test)]
    fn into_partial(self) -> PartialAggregate {
        self.agg
    }
}

impl Deref for Collector {
    type Target = PartialAggregate;

    fn deref(&self) -> &PartialAggregate {
        &self.agg
    }
}

impl DerefMut for Collector {
    fn deref_mut(&mut self) -> &mut PartialAggregate {
        &mut self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::RESERVOIR_CAP;
    use tamper_worldgen::{WorldConfig, WorldSim};

    fn run_collect(sessions: u64) -> (Collector, WorldSim) {
        let sim = WorldSim::new(WorldConfig {
            sessions,
            catalog_size: 600,
            days: 2,
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
    fn totals_are_consistent() {
        let (col, _) = run_collect(3000);
        assert!(col.total >= 2900);
        let class_sum: u64 = col.country_class.iter().flat_map(|c| c.iter()).sum();
        assert_eq!(class_sum, col.total);
        let stage_sum: u64 = col.stage_counts.iter().sum();
        assert_eq!(stage_sum, col.possibly_tampered);
        assert!(col.possibly_tampered > 0);
        assert!(col.possibly_tampered < col.total);
    }

    #[test]
    fn merge_equals_single_pass() {
        let sim = WorldSim::new(WorldConfig {
            sessions: 2000,
            catalog_size: 600,
            days: 2,
            ..Default::default()
        });
        let mk = || {
            Collector::new(
                ClassifierConfig::default(),
                sim.world().len(),
                2,
                sim.config().start_unix,
            )
        };
        let mut serial = mk();
        sim.run(|lf| serial.observe(&lf));
        let sharded = sim.run_sharded(4, None, mk, |c, lf| c.observe(&lf), |a, b| a.merge(b));
        assert_eq!(serial.total, sharded.total);
        assert_eq!(serial.possibly_tampered, sharded.possibly_tampered);
        assert_eq!(serial.country_class, sharded.country_class);
        assert_eq!(serial.stage_counts, sharded.stage_counts);
        assert_eq!(serial.truth.true_positive, sharded.truth.true_positive);
    }

    #[test]
    fn merge_is_order_insensitive_for_reservoirs() {
        // The satellite regression for the old `append`+`truncate` merge:
        // fold the same world into 4 partials, merge them in two opposite
        // orders, and require *identical* reservoirs (and pair
        // sequences), not just identical counters.
        let sim = WorldSim::new(WorldConfig {
            sessions: 4000,
            catalog_size: 600,
            days: 2,
            ..Default::default()
        });
        let mk = || {
            Collector::new(
                ClassifierConfig::default(),
                sim.world().len(),
                2,
                sim.config().start_unix,
            )
        };
        let mut parts: Vec<Collector> = (0..4).map(|_| mk()).collect();
        let mut i = 0usize;
        sim.run(|lf| {
            parts[i % 4].observe(&lf);
            i += 1;
        });
        let partials: Vec<_> = parts.into_iter().map(|c| c.into_partial()).collect();

        let merge_in = |order: &[usize]| {
            let mut acc = mk().into_partial();
            for &j in order {
                let mut one = mk().into_partial();
                one.merge(clone_partial(&partials[j]));
                acc.merge(one);
            }
            acc
        };
        let fwd = merge_in(&[0, 1, 2, 3]);
        let rev = merge_in(&[3, 1, 0, 2]);
        assert_eq!(fwd.ipid_res, rev.ipid_res);
        assert_eq!(fwd.ttl_res, rev.ttl_res);
        assert_eq!(fwd.pair_seqs, rev.pair_seqs);
        assert_eq!(crate::aggfile::encode(&fwd), crate::aggfile::encode(&rev));
    }

    /// Partial aggregates are deliberately not `Clone` in the public API;
    /// tests rebuild one through the codec.
    fn clone_partial(agg: &PartialAggregate) -> PartialAggregate {
        crate::aggfile::decode(&crate::aggfile::encode(agg)).expect("round trip")
    }

    #[test]
    fn recall_is_high_precision_is_partial() {
        let (col, _) = run_collect(6000);
        assert!(col.truth.recall() > 0.9, "recall {}", col.truth.recall());
        // Benign anomalies mean precision must be well below 1.
        assert!(col.truth.precision() < 0.9);
        assert!(col.truth.precision() > 0.1);
    }

    #[test]
    fn reservoirs_fill_for_common_signatures() {
        let (col, _) = run_collect(6000);
        // The Not-Tampering reservoir certainly fills.
        assert!(col.ipid_res[19].len() > 0);
        assert!(col.ttl_res[19].len() > 0);
        assert!(col.ipid_res[19].len() <= RESERVOIR_CAP);
        // Baselines: the vast majority of flows have tiny min IP-ID deltas.
        assert!(col.ipid_min_le1 as f64 / col.ipid_flows as f64 > 0.85);
    }

    #[test]
    fn syn_payload_counters_track_port80() {
        let (col, _) = run_collect(6000);
        assert!(col.port80_flows > 0);
        let share = col.port80_syn_payload as f64 / col.port80_flows as f64;
        assert!(share > 0.1, "syn payload share {share}");
        assert_eq!(col.port443_syn_payload, 0);
    }

    #[test]
    fn pair_sequences_accumulate() {
        let (col, _) = run_collect(8000);
        assert!(!col.pair_seqs.is_empty());
        let repeats = col.pair_seqs.values().filter(|v| v.len() >= 2).count();
        assert!(repeats > 0, "no repeated (ip, domain) pairs observed");
    }
}
