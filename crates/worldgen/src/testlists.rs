//! Synthetic test lists with the documented biases of the real ones
//! (paper §5.5 / Table 3):
//!
//! - **Tranco / Majestic** tiers are popularity-ranked: larger tiers cover
//!   more tampered domains, but regionally blocked (globally unpopular)
//!   domains fall outside even large tiers. Majestic's link-graph ranking
//!   under-represents adult and streaming content, so it performs worse.
//! - **GreatFire** is curated around Chinese blocking and lags reality
//!   (only a sample of actually blocked domains, plus stale entries).
//! - **Citizen Lab** lists are small, hand-curated, news/social-heavy;
//!   the per-country lists are tiny.
//!
//! Sizes are scaled to the synthetic catalog (≈4,000 domains vs the
//! paper's millions); the *relative* tiering mirrors the paper's
//! 1K/10K/100K/1M structure.

#![expect(
    clippy::disallowed_types,
    reason = "the lists answer membership and any-match queries only; no iteration order reaches report bytes"
)]

use crate::domains::{Category, DomainCatalog};
use crate::driver::WorldSim;
use crate::policy::country_index;
use std::collections::{HashMap, HashSet};
use tamper_netsim::splitmix64;

/// A named test list of domain names.
#[derive(Debug, Clone)]
pub struct TestList {
    /// Paper row name (e.g. `Tranco_10K`).
    pub name: String,
    /// Member domain names.
    pub entries: HashSet<String>,
}

impl TestList {
    /// Exact eTLD+1 membership.
    pub fn contains(&self, domain: &str) -> bool {
        self.entries.contains(domain)
    }

    /// Substring matching (Table 3's best-case rows): the tampered domain
    /// matches if it contains a list entry or is contained in one — the
    /// relation over-blocking induces.
    pub fn substring_match(&self, domain: &str) -> bool {
        self.entries
            .iter()
            .any(|e| domain.contains(e.as_str()) || e.contains(domain))
    }
}

/// The complete set of synthetic lists.
pub struct TestLists {
    /// Global lists, in Table 3 row order.
    pub fixed: Vec<TestList>,
    /// Per-country Citizen Lab lists, keyed by country index.
    pub citizenlab_country: HashMap<u16, TestList>,
}

fn det01(seed: u64, a: u64, b: u64) -> f64 {
    (splitmix64(seed ^ a.rotate_left(17) ^ b.wrapping_mul(0x2545_F491_4F6C_DD1D)) % 1_000_000)
        as f64
        / 1_000_000.0
}

fn popularity_tier(
    catalog: &DomainCatalog,
    seed: u64,
    size: usize,
    rank_noise: u32,
    penalty: impl Fn(Category) -> u32,
) -> HashSet<String> {
    let mut scored: Vec<(u32, &str)> = catalog
        .iter()
        .map(|d| {
            let noise = (splitmix64(seed ^ u64::from(d.id)) % u64::from(rank_noise.max(1))) as u32;
            (d.global_rank + noise + penalty(d.category), d.name.as_str())
        })
        .collect();
    scored.sort_unstable();
    scored
        .into_iter()
        .take(size)
        .map(|(_, n)| n.to_owned())
        .collect()
}

/// Build every list for a given world.
pub fn generate_lists(sim: &WorldSim) -> TestLists {
    let catalog = sim.catalog();
    let seed = sim.config().seed ^ 0x7E57_1157;
    let n = catalog.len() as usize;
    let mut fixed = Vec::new();

    // Tranco tiers: sizes scaled as 1% / 3.75% / 15% / 60% of the catalog,
    // mirroring the paper's 1K / 10K / 100K / 1M against millions.
    for (label, frac) in [
        ("Tranco_1K", 0.008),
        ("Tranco_10K", 0.03),
        ("Tranco_100K", 0.11),
        ("Tranco_1M", 0.42),
    ] {
        fixed.push(TestList {
            name: label.to_owned(),
            entries: popularity_tier(catalog, seed ^ 0x7A, (frac * n as f64) as usize, 500, |_| 0),
        });
    }
    // Majestic tiers: link-graph ranking — noisier, and adult/streaming
    // content is systematically demoted.
    for (label, frac) in [
        ("Majestic_1K", 0.008),
        ("Majestic_10K", 0.03),
        ("Majestic_100K", 0.11),
        ("Majestic_1M", 0.42),
    ] {
        fixed.push(TestList {
            name: label.to_owned(),
            entries: popularity_tier(catalog, seed ^ 0x3B, (frac * n as f64) as usize, 900, |c| {
                match c {
                    Category::AdultThemes | Category::Streaming => 2_500,
                    Category::Advertisements => 1_200,
                    _ => 0,
                }
            }),
        });
    }

    // GreatFire: a curated sample of domains blocked in China plus stale
    // entries that are not blocked (or no longer exist).
    let world = sim.world();
    let cn = country_index(world, "CN");
    let mut greatfire_all = HashSet::new();
    if let Some(cn) = cn {
        for id in sim.blocked_domains(cn) {
            let d = catalog.get(id);
            // Curated lists record canonical domains, not every variant.
            if d.parent.is_some() {
                continue;
            }
            if det01(seed ^ 0x6F, u64::from(cn), u64::from(id)) < 0.10 {
                greatfire_all.insert(d.name.clone());
            }
        }
    }
    // Stale padding: random unblocked domains.
    for d in catalog.iter() {
        if det01(seed ^ 0x57A1E, 0, u64::from(d.id)) < 0.02 {
            greatfire_all.insert(d.name.clone());
        }
    }
    let greatfire_30d: HashSet<String> = greatfire_all
        .iter()
        .filter(|name| det01(seed ^ 0x30D, 0, splitmix64(name.len() as u64 * 131)) < 0.3)
        .cloned()
        .collect();
    fixed.push(TestList {
        name: "Greatfire_all".to_owned(),
        entries: greatfire_all,
    });
    fixed.push(TestList {
        name: "Greatfire_30d".to_owned(),
        entries: greatfire_30d,
    });

    // Citizen Lab: small, hand-curated, news/social/chat-heavy sample of
    // domains blocked *anywhere*, plus a "global" head subset and tiny
    // per-country lists.
    let mut citizenlab = HashSet::new();
    let mut citizenlab_country: HashMap<u16, TestList> = HashMap::new();
    for (ci, _) in world.iter().enumerate() {
        let ci = ci as u16;
        let mut per_country = HashSet::new();
        for id in sim.blocked_domains(ci) {
            let d = catalog.get(id);
            if d.parent.is_some() {
                continue; // canonical names only
            }
            let bias = match d.category {
                Category::News | Category::SocialMedia | Category::Chat => 3.0,
                _ => 1.0,
            };
            if det01(seed ^ 0xC17, u64::from(ci), u64::from(id)) < 0.008 * bias {
                citizenlab.insert(d.name.clone());
            }
            if det01(seed ^ 0xC0C0, u64::from(ci), u64::from(id)) < 0.015 {
                per_country.insert(d.name.clone());
            }
        }
        citizenlab_country.insert(
            ci,
            TestList {
                name: "Citizenlab_country".to_owned(),
                entries: per_country,
            },
        );
    }
    // Curated lists carry the canonical over-blocked root domain; the
    // paper's substring rows exist precisely because collateral domains
    // contain such roots.
    citizenlab.insert("wn.com".to_owned());
    let citizenlab_global: HashSet<String> = citizenlab
        .iter()
        .filter(|name| {
            catalog
                .find_by_name(name)
                .map(|id| catalog.get(id).global_rank < catalog.len() / 5)
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    fixed.push(TestList {
        name: "Citizenlab".to_owned(),
        entries: citizenlab,
    });
    fixed.push(TestList {
        name: "Citizenlab_global".to_owned(),
        entries: citizenlab_global,
    });

    TestLists {
        fixed,
        citizenlab_country,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{WorldConfig, WorldSim};

    fn small_sim() -> WorldSim {
        WorldSim::new(WorldConfig {
            sessions: 0,
            catalog_size: 1500,
            ..Default::default()
        })
    }

    #[test]
    fn tiers_are_nested_in_size() {
        let sim = small_sim();
        let lists = generate_lists(&sim);
        let get = |name: &str| lists.fixed.iter().find(|l| l.name == name).unwrap();
        assert!(get("Tranco_1K").entries.len() < get("Tranco_10K").entries.len());
        assert!(get("Tranco_10K").entries.len() < get("Tranco_100K").entries.len());
        assert!(get("Tranco_100K").entries.len() < get("Tranco_1M").entries.len());
        assert!(get("Majestic_1K").entries.len() <= get("Majestic_10K").entries.len());
    }

    #[test]
    fn greatfire_subset_relation() {
        let sim = small_sim();
        let lists = generate_lists(&sim);
        let all = lists
            .fixed
            .iter()
            .find(|l| l.name == "Greatfire_all")
            .unwrap();
        let d30 = lists
            .fixed
            .iter()
            .find(|l| l.name == "Greatfire_30d")
            .unwrap();
        assert!(d30.entries.len() <= all.entries.len());
        for e in &d30.entries {
            assert!(all.entries.contains(e));
        }
    }

    #[test]
    fn per_country_lists_exist() {
        let sim = small_sim();
        let lists = generate_lists(&sim);
        assert_eq!(lists.citizenlab_country.len(), sim.world().len());
    }

    #[test]
    fn substring_match_is_superset_of_exact() {
        let sim = small_sim();
        let lists = generate_lists(&sim);
        let tranco = &lists.fixed[3]; // Tranco_1M
        let mut exact = 0;
        let mut sub = 0;
        for d in sim.catalog().iter() {
            if tranco.contains(&d.name) {
                exact += 1;
            }
            if tranco.substring_match(&d.name) {
                sub += 1;
            }
        }
        assert!(sub >= exact);
        assert!(exact > 0);
    }

    #[test]
    fn deterministic() {
        let a = generate_lists(&small_sim());
        let b = generate_lists(&small_sim());
        for (x, y) in a.fixed.iter().zip(b.fixed.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.entries, y.entries);
        }
    }
}
