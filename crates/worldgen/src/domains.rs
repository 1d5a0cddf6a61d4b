//! The synthetic domain catalog.
//!
//! Substitutes for the CDN's real customer base plus its third-party
//! categorization vendor: every domain has a category (the Table 2
//! taxonomy), a global popularity rank (Zipf-sampled at query time), and
//! optionally a home country that concentrates its popularity regionally —
//! the property that makes curated test lists miss regional blocked
//! domains (Table 3).

use rand::rngs::StdRng;
use rand::Rng;
use tamper_netsim::{derive_rng, splitmix64};

/// Content categories, following the paper's Table 2 vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Adult content — the most-blocked category globally.
    AdultThemes,
    /// CDNs and sites serving content fetched by other applications.
    ContentServers,
    /// Product and service sites.
    Technology,
    /// Corporate sites.
    Business,
    /// Ad networks and trackers.
    Advertisements,
    /// Messaging platforms.
    Chat,
    /// Games and game services.
    Gaming,
    /// Schools, universities, MOOCs.
    Education,
    /// Authentication portals.
    LoginScreens,
    /// Hobby and interest communities.
    HobbiesInterests,
    /// News media.
    News,
    /// Social networks.
    SocialMedia,
    /// E-commerce.
    Shopping,
    /// Audio/video streaming.
    Streaming,
}

impl Category {
    /// All categories.
    pub const ALL: [Category; 14] = [
        Category::AdultThemes,
        Category::ContentServers,
        Category::Technology,
        Category::Business,
        Category::Advertisements,
        Category::Chat,
        Category::Gaming,
        Category::Education,
        Category::LoginScreens,
        Category::HobbiesInterests,
        Category::News,
        Category::SocialMedia,
        Category::Shopping,
        Category::Streaming,
    ];

    /// Display name matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Category::AdultThemes => "Adult Themes",
            Category::ContentServers => "Content Servers",
            Category::Technology => "Technology",
            Category::Business => "Business",
            Category::Advertisements => "Advertisements",
            Category::Chat => "Chat",
            Category::Gaming => "Gaming",
            Category::Education => "Education",
            Category::LoginScreens => "Login Screens",
            Category::HobbiesInterests => "Hobbies & Interests",
            Category::News => "News",
            Category::SocialMedia => "Social Media",
            Category::Shopping => "Shopping",
            Category::Streaming => "Streaming",
        }
    }

    /// Short slug used in generated domain names.
    fn slug(self) -> &'static str {
        match self {
            Category::AdultThemes => "adult",
            Category::ContentServers => "cdn",
            Category::Technology => "tech",
            Category::Business => "corp",
            Category::Advertisements => "ads",
            Category::Chat => "chat",
            Category::Gaming => "game",
            Category::Education => "edu",
            Category::LoginScreens => "login",
            Category::HobbiesInterests => "hobby",
            Category::News => "news",
            Category::SocialMedia => "social",
            Category::Shopping => "shop",
            Category::Streaming => "stream",
        }
    }

    /// Dense index.
    pub fn index(self) -> usize {
        Category::ALL.iter().position(|c| *c == self).unwrap()
    }

    /// Relative share of the catalog occupied by this category.
    fn catalog_share(self) -> f64 {
        match self {
            Category::AdultThemes => 0.08,
            Category::ContentServers => 0.10,
            Category::Technology => 0.13,
            Category::Business => 0.10,
            Category::Advertisements => 0.06,
            Category::Chat => 0.04,
            Category::Gaming => 0.05,
            Category::Education => 0.05,
            Category::LoginScreens => 0.03,
            Category::HobbiesInterests => 0.08,
            Category::News => 0.08,
            Category::SocialMedia => 0.05,
            Category::Shopping => 0.08,
            Category::Streaming => 0.05,
        }
    }
}

/// Identifier of a domain in the catalog.
pub(crate) type DomainId = u32;

/// One domain.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Catalog id.
    pub id: DomainId,
    /// Fully qualified name (eTLD+1).
    pub name: String,
    /// Content category.
    pub category: Category,
    /// Global popularity rank, 0 = most popular.
    pub global_rank: u32,
    /// Home country index for regional domains; `None` for global ones.
    pub home_country: Option<u16>,
    /// For variant domains (mirrors, regional fronts, app hosts), the
    /// canonical parent whose *name is contained in this one* — e.g.
    /// `m-news123.com` for parent `news123.com`. Curated test lists carry
    /// only canonical names, which is why the paper's substring matching
    /// recovers coverage the exact rows miss.
    pub parent: Option<DomainId>,
}

/// The catalog.
pub struct DomainCatalog {
    domains: Vec<Domain>,
}

const TLDS: [&str; 5] = ["com", "net", "org", "info", "io"];

impl DomainCatalog {
    /// Generate a catalog of `n` domains, deterministically from `seed`.
    /// `n_countries` bounds the home-country assignment; `regional_share`
    /// is the fraction of domains that are regional.
    pub(crate) fn generate(
        seed: u64,
        n: u32,
        n_countries: u16,
        regional_share: f64,
    ) -> DomainCatalog {
        let mut rng: StdRng = derive_rng(seed, 0xD0_0D);
        // Category assignment by catalog share.
        let mut domains = Vec::with_capacity(n as usize);

        // Popularity scores: regional domains are systematically less
        // popular globally (their score is floored), which is what makes
        // popularity-ranked test lists miss regionally blocked domains
        // (paper Table 3).
        let mut scores: Vec<(f64, u32)> = Vec::with_capacity(n as usize);
        let mut homes: Vec<Option<u16>> = Vec::with_capacity(n as usize);
        for id in 0..n {
            let home = if rng.gen::<f64>() < regional_share {
                Some(rng.gen_range(0..n_countries))
            } else {
                None
            };
            let u: f64 = rng.gen();
            let score = if home.is_some() { 0.35 + 0.65 * u } else { u };
            homes.push(home);
            scores.push((score, id));
        }
        scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut ranks = vec![0u32; n as usize];
        for (rank, (_, id)) in scores.iter().enumerate() {
            ranks[*id as usize] = rank as u32;
        }

        const VARIANT_PREFIXES: [&str; 4] = ["m-", "cdn-", "mirror-", "app-"];
        for id in 0..n {
            // ~15% of later domains are variants of an earlier canonical
            // domain: their name contains the parent's full name.
            let parent = if id >= 20 && splitmix64(seed ^ 0xFA111 ^ u64::from(id)) % 100 < 15 {
                Some((splitmix64(seed ^ 0x9A9 ^ u64::from(id)) % u64::from(id)) as DomainId)
            } else {
                None
            };
            let (category, name) = match parent {
                Some(p) => {
                    let parent_dom: &Domain = &domains[p as usize];
                    let prefix =
                        VARIANT_PREFIXES[(splitmix64(seed ^ (u64::from(id) * 7)) % 4) as usize];
                    (parent_dom.category, format!("{prefix}{}", parent_dom.name))
                }
                None => {
                    let category = pick_category(&mut rng);
                    let tld = TLDS
                        [(splitmix64(seed ^ (u64::from(id) * 31)) % TLDS.len() as u64) as usize];
                    // A sprinkle of names containing the substring "wn.com"
                    // to exercise over-blocking rules (paper §5.5).
                    let name = if id % 149 == 0 && tld == "com" {
                        format!("{}{}wn.com", category.slug(), id)
                    } else {
                        format!("{}{}.{}", category.slug(), id, tld)
                    };
                    (category, name)
                }
            };
            domains.push(Domain {
                id,
                name,
                category,
                global_rank: ranks[id as usize],
                home_country: homes[id as usize],
                parent,
            });
        }
        DomainCatalog { domains }
    }

    /// Look up a domain.
    pub fn get(&self, id: DomainId) -> &Domain {
        &self.domains[id as usize]
    }

    /// Catalog size.
    pub(crate) fn len(&self) -> u32 {
        self.domains.len() as u32
    }

    /// Iterate all domains.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter()
    }

    /// Resolve a name back to its id (linear; used in analysis and tests,
    /// not in the hot path).
    pub(crate) fn find_by_name(&self, name: &str) -> Option<DomainId> {
        self.domains.iter().find(|d| d.name == name).map(|d| d.id)
    }
}

fn pick_category(rng: &mut StdRng) -> Category {
    let total: f64 = Category::ALL.iter().map(|c| c.catalog_share()).sum();
    let mut u = rng.gen::<f64>() * total;
    for c in Category::ALL {
        u -= c.catalog_share();
        if u <= 0.0 {
            return c;
        }
    }
    Category::Streaming
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DomainCatalog::generate(7, 500, 10, 0.4);
        let b = DomainCatalog::generate(7, 500, 10, 0.4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.category, y.category);
            assert_eq!(x.global_rank, y.global_rank);
            assert_eq!(x.home_country, y.home_country);
        }
    }

    #[test]
    fn every_category_is_populated() {
        let cat = DomainCatalog::generate(7, 2000, 10, 0.4);
        for c in Category::ALL {
            assert!(
                cat.iter().any(|d| d.category == c),
                "category {c:?} has no domains"
            );
        }
    }

    #[test]
    fn ranks_are_a_permutation() {
        let cat = DomainCatalog::generate(7, 300, 10, 0.4);
        let mut ranks: Vec<u32> = cat.iter().map(|d| d.global_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn regional_share_respected() {
        let cat = DomainCatalog::generate(7, 4000, 10, 0.4);
        let regional = cat.iter().filter(|d| d.home_country.is_some()).count();
        let share = regional as f64 / 4000.0;
        assert!((share - 0.4).abs() < 0.05, "share {share}");
    }

    #[test]
    fn some_names_contain_overblock_substring() {
        let cat = DomainCatalog::generate(7, 4000, 10, 0.4);
        let n = cat.iter().filter(|d| d.name.contains("wn.com")).count();
        assert!(n > 0, "no over-block bait domains generated");
        assert!(n < 200);
    }

    #[test]
    fn names_are_unique() {
        let cat = DomainCatalog::generate(7, 2000, 10, 0.4);
        let mut names: Vec<&str> = cat.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        // Variant prefixing can collide only if the same parent gets the
        // same prefix twice; allow a tiny number of duplicates.
        assert!(names.len() >= before - 20);
    }

    #[test]
    fn variants_contain_parent_names() {
        let cat = DomainCatalog::generate(7, 2000, 10, 0.4);
        let variants: Vec<_> = cat.iter().filter(|d| d.parent.is_some()).collect();
        assert!(!variants.is_empty());
        for v in &variants {
            let parent = cat.get(v.parent.unwrap());
            assert!(
                v.name.contains(&parent.name),
                "{} !⊃ {}",
                v.name,
                parent.name
            );
            assert_eq!(v.category, parent.category);
        }
    }

    #[test]
    fn find_by_name_round_trips() {
        let cat = DomainCatalog::generate(7, 100, 10, 0.4);
        let d = cat.get(42);
        assert_eq!(cat.find_by_name(&d.name), Some(42));
        assert_eq!(cat.find_by_name("no-such.example"), None);
    }
}

impl Category {
    /// Parse the display label back to a category.
    pub(crate) fn from_label(label: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.label() == label)
    }
}

#[cfg(test)]
mod label_tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::from_label(c.label()), Some(c));
        }
        assert_eq!(Category::from_label("Nope"), None);
    }
}
