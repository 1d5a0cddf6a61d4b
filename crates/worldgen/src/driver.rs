//! The world driver: assembles and runs every simulated connection, and
//! streams labeled flow records to the caller.
//!
//! Each session is generated from an independent RNG stream derived from
//! `(seed, session index)`, so generation is order-independent and can be
//! sharded across threads without changing a single byte of output.

use crate::config::{MAX_AS_PER_COUNTRY, MAX_COUNTRIES};
use crate::countries::{
    as_enforcement_multiplier, day_index, local_hour, AsSampler, Asn, CountryIdx,
};
use crate::domains::{Category, Domain, DomainCatalog, DomainId};
use crate::meta::{BenignKind, GroundTruth, LabeledFlow, SessionMeta};
use crate::policy::{world_spec, BenignRates, CountrySpec, ProtoFilter};
use crate::scenario::Scenario;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::OnceLock;
use tamper_capture::{collect, run_source, CollectorConfig, EngineConfig, Sampler, SimSource};
use tamper_middlebox::{ForcedStage, RuleSet, Vendor};
use tamper_netsim::{
    derive_rng, splitmix64, ClientConfig, ClientKind, IpIdMode, Link, Path, RequestPayload,
    ServerConfig, SessionParams, SessionWorkspace, SimDuration, SimTime, VanishStage,
};
use tamper_obs::Registry;

/// 2023-01-12 00:00:00 UTC — the start of the paper's two-week window.
pub(crate) const JAN12_2023_UNIX: u64 = 1_673_481_600;
/// 2022-09-13 00:00:00 UTC — the start of the Iran case-study window.
pub const SEP13_2022_UNIX: u64 = 1_663_027_200;

/// Keyword planted in second requests that commercial firewalls key on.
pub const FIREWALL_KEYWORD: &str = "forbidden-topic";

/// The User-Agent a commercial enterprise proxy stamps on forwarded
/// requests — the paper observes Post-Data matches frequently carry such
/// identifiers (§4.3).
pub const FIREWALL_USER_AGENT: &str = "CorpGuard-SecureProxy/6.7";

/// World simulation configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of (logical) sampled connections to generate.
    pub sessions: u64,
    /// Scenario start (unix seconds).
    pub start_unix: u64,
    /// Scenario length in days.
    pub days: u32,
    /// Connection sampling denominator (1 = the generated population *is*
    /// the sample; >1 exercises the sampler, ablation A5).
    pub sample_denominator: u64,
    /// Collection pipeline configuration.
    pub collector: CollectorConfig,
    /// Domain catalog size.
    pub catalog_size: u32,
    /// Which scenario to run.
    pub scenario: Scenario,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            seed: 20230112,
            sessions: 100_000,
            start_unix: JAN12_2023_UNIX,
            days: 14,
            sample_denominator: 1,
            collector: CollectorConfig::default(),
            catalog_size: 4_000,
            scenario: Scenario::Standard,
        }
    }
}

/// The assembled world: registry, catalog, per-country samplers.
pub struct WorldSim {
    cfg: WorldConfig,
    world: Vec<CountrySpec>,
    catalog: DomainCatalog,
    benign: BenignRates,
    country_weights: WeightedIndex<f64>,
    /// Built by the first session: a caller that only renders (`merge`)
    /// never pays for them.
    samplers: OnceLock<Samplers>,
    as_samplers: Vec<AsSampler>,
    sampler: Sampler,
    /// The four designated SYN-payload magnet domains (§4.1: 93% of HTTP
    /// SYN payloads target four domains).
    syn_payload_magnets: [DomainId; 4],
    /// Per-country traffic-weighted mean of the diurnal×weekend tampering
    /// factor; dividing by it keeps configured rates equal to realized
    /// average rates despite traffic concentrating in low-factor evening
    /// hours.
    diurnal_norm: Vec<f64>,
}

/// Per-country draw tables every session samples from.
struct Samplers {
    /// Domain popularity as each country sees the catalog.
    domain: Vec<WeightedIndex<f64>>,
    /// Traffic volume by UTC hour.
    hour: Vec<WeightedIndex<f64>>,
}

impl Samplers {
    fn new(world: &[CountrySpec], catalog: &DomainCatalog) -> Samplers {
        let mut domain = Vec::with_capacity(world.len());
        let mut hour = Vec::with_capacity(world.len());
        for (ci, spec) in world.iter().enumerate() {
            let weights: Vec<f64> = catalog
                .iter()
                .map(|d| domain_interest(spec, ci as u16, d))
                .collect();
            domain.push(WeightedIndex::new(weights).expect("domain weights"));
            // Traffic volume peaks around 20:00 local.
            let hours: Vec<f64> = (0..24)
                .map(|utc_h| {
                    let local = (utc_h + spec.country.tz_offset_hours).rem_euclid(24) as f64;
                    1.0 + 0.55 * (std::f64::consts::TAU * (local - 20.0) / 24.0).cos()
                })
                .collect();
            hour.push(WeightedIndex::new(hours).expect("hour weights"));
        }
        Samplers { domain, hour }
    }
}

impl WorldSim {
    /// Build the world with the calibrated registry for the configured
    /// scenario.
    pub fn new(cfg: WorldConfig) -> WorldSim {
        let world = match cfg.scenario {
            Scenario::Standard => world_spec(),
            // The Iran case study observes only Iranian traffic. During
            // the protests the scripted evening escalation dominates the
            // usual late-night diurnal swing, so the baseline amplitude is
            // flattened.
            Scenario::IranProtest => world_spec()
                .into_iter()
                .filter(|s| s.country.code == "IR")
                .map(|mut s| {
                    s.policy.diurnal_amp = 0.1;
                    s
                })
                .collect(),
        };
        WorldSim::with_world(cfg, world)
    }

    /// Build a simulation over a custom world registry (e.g. loaded from
    /// JSON via [`crate::config::world_from_json`]). The scenario overlay
    /// in `cfg` still applies, keyed by country index.
    pub fn with_world(cfg: WorldConfig, world: Vec<CountrySpec>) -> WorldSim {
        assert!(!world.is_empty(), "world must contain at least one country");
        // Client addresses pack the country and the AS-local index into
        // one octet each; past these bounds distinct clients would merge.
        assert!(
            world.len() <= MAX_COUNTRIES,
            "world has {} countries; at most {MAX_COUNTRIES}",
            world.len()
        );
        assert!(
            world
                .iter()
                .all(|s| (1..=MAX_AS_PER_COUNTRY).contains(&s.country.n_ases)),
            "every country needs 1..={MAX_AS_PER_COUNTRY} ASes"
        );
        let n_countries = world.len() as u16;
        let catalog = DomainCatalog::generate(cfg.seed, cfg.catalog_size, n_countries, 0.4);
        let country_weights =
            WeightedIndex::new(world.iter().map(|s| s.country.weight)).expect("weights");
        let as_samplers = world
            .iter()
            .map(|s| AsSampler::new(s.country.n_ases))
            .collect();
        let mut diurnal_norm = Vec::with_capacity(world.len());
        for spec in world.iter() {
            let (mut num, mut den) = (0.0, 0.0);
            for utc_h in 0..24 {
                let local = (utc_h + spec.country.tz_offset_hours).rem_euclid(24) as f64;
                let vol = 1.0 + 0.55 * (std::f64::consts::TAU * (local - 20.0) / 24.0).cos();
                let d = 1.0
                    + spec.policy.diurnal_amp
                        * (std::f64::consts::TAU * (local - 4.0) / 24.0).cos();
                num += vol * d;
                den += vol;
            }
            let weekend_mean = (5.0 + 2.0 * (1.0 - spec.policy.weekend_drop)) / 7.0;
            diurnal_norm.push((num / den) * weekend_mean);
        }
        let sampler = Sampler::new(cfg.seed ^ 0x5A17, cfg.sample_denominator);
        let syn_payload_magnets = pick_magnets(&catalog);
        WorldSim {
            cfg,
            world,
            catalog,
            benign: BenignRates::default(),
            country_weights,
            samplers: OnceLock::new(),
            as_samplers,
            sampler,
            syn_payload_magnets,
            diurnal_norm,
        }
    }

    /// The configured world registry.
    pub fn world(&self) -> &[CountrySpec] {
        &self.world
    }

    /// The domain catalog.
    pub fn catalog(&self) -> &DomainCatalog {
        &self.catalog
    }

    /// The configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// True if `domain` is on `country`'s block list (category coverage or
    /// substring over-blocking).
    ///
    /// Two structural biases of real block lists are modelled here:
    /// globally unpopular (regional) domains are *more* likely to be
    /// blocked, which is what makes popularity-ranked test lists miss
    /// them (Table 3); and half of each block decision is driven by a
    /// country-independent "contentiousness" draw, so national lists
    /// overlap substantially (the same domains are blocked in many
    /// places), as curated lists like GreatFire exploit.
    pub(crate) fn is_blocked(&self, country: CountryIdx, domain: &Domain) -> bool {
        let spec = &self.world[country as usize];
        for (cat, cov) in &spec.policy.coverage {
            if *cat == domain.category {
                // Block decisions are family-level: a variant inherits its
                // canonical parent's identity (rank, draws) wholesale —
                // censors block families via keyword/wildcard rules.
                let mut canonical = domain;
                while let Some(p) = canonical.parent {
                    canonical = self.catalog.get(p);
                }
                let key = u64::from(canonical.id);
                let rank_frac =
                    f64::from(canonical.global_rank) / f64::from(self.catalog.len().max(1));
                let bias = 0.4 + 1.2 * rank_frac; // unpopular → more blocked
                let shared = hash01(self.cfg.seed ^ 0x54A6ED, 0, key);
                let national = hash01(self.cfg.seed ^ 0xB10C, u64::from(country), key);
                // Half the catalog is "globally contentious": for those
                // domains every country consults the same shared draw,
                // which is what makes national block lists overlap.
                let pick = hash01(self.cfg.seed ^ 0x9C1C, 0, key);
                let u = if pick < 0.5 { shared } else { national };
                if u < *cov * bias {
                    return true;
                }
            }
        }
        spec.policy
            .overblock_substrings
            .iter()
            .any(|s| domain.name.contains(s))
    }

    /// All blocked domain ids for a country (used by test-list generation
    /// and the Table 3 analysis).
    pub(crate) fn blocked_domains(&self, country: CountryIdx) -> Vec<DomainId> {
        self.catalog
            .iter()
            .filter(|d| self.is_blocked(country, d))
            .map(|d| d.id)
            .collect()
    }

    /// Generate session `i`. Returns `None` when the sampler rejects it or
    /// the server never saw a packet. One-shot: it simulates in a fresh
    /// workspace; loops over many sessions use [`WorldSim::gen_session_in`].
    pub fn gen_session(&self, i: u64) -> Option<LabeledFlow> {
        self.gen_session_in(&mut SessionWorkspace::default(), i)
    }

    /// [`WorldSim::gen_session`], simulating in `ws` — the same flow for
    /// any workspace, fresh or reused.
    pub fn gen_session_in(&self, ws: &mut SessionWorkspace, i: u64) -> Option<LabeledFlow> {
        let samplers = self
            .samplers
            .get_or_init(|| Samplers::new(&self.world, &self.catalog));
        let mut rng: StdRng = derive_rng(self.cfg.seed, i);
        let country = self.country_weights.sample(&mut rng) as CountryIdx;
        let spec = &self.world[country as usize];

        // --- Time ---------------------------------------------------------
        let day = rng.gen_range(0..u64::from(self.cfg.days.max(1)));
        let hour = samplers.hour[country as usize].sample(&mut rng) as u64;
        let ts = self.cfg.start_unix + day * 86_400 + hour * 3_600 + rng.gen_range(0..3_600);
        let lh = local_hour(ts, spec.country.tz_offset_hours);

        // --- Placement ----------------------------------------------------
        let asn = self.as_samplers[country as usize].pick(country, rng.gen());
        let ipv6 = rng.gen::<f64>() < spec.country.ipv6_share;
        let mut http = rng.gen::<f64>() < spec.country.http_share;

        // --- Client identity (stable pool per AS for repeat visits) --------
        let pool = rng.gen_range(1..=200u32);
        let client_ip = client_address(country, asn, pool, ipv6);
        let server_ip = server_address(ipv6);
        let src_port: u16 = rng.gen_range(29_000..61_000);

        if !self.sampler.keep(client_ip, server_ip, src_port, i) {
            return None;
        }

        // --- Benign anomaly? ------------------------------------------------
        let benign = pick_benign(&self.benign, &mut rng);

        // --- Domain ---------------------------------------------------------
        // 35% of sessions revisit one of the client's favourite domains,
        // creating the repeated (IP, domain) pairs of Appendix B.
        let needs_domain = !matches!(
            benign,
            Some(BenignKind::SilentSyn) | Some(BenignKind::Zmap) | Some(BenignKind::MultiSyn)
        );
        let domain_id = if needs_domain {
            let id = if rng.gen::<f64>() < 0.35 {
                let fav = rng.gen_range(0..3u64);
                let mut fav_rng: StdRng = derive_rng(
                    self.cfg.seed ^ 0xFA7,
                    splitmix64(
                        (u64::from(country) << 40)
                            ^ (u64::from(asn.0) << 16)
                            ^ (u64::from(pool) << 2)
                            ^ fav,
                    ),
                );
                samplers.domain[country as usize].sample(&mut fav_rng) as DomainId
            } else {
                samplers.domain[country as usize].sample(&mut rng) as DomainId
            };
            Some(id)
        } else {
            None
        };

        // --- Tampering decision ---------------------------------------------
        let mut vendor: Option<Vendor> = None;
        let mut is_fw = false;
        if benign.is_none() {
            let (extra_syn, extra_dpi) =
                self.cfg
                    .scenario
                    .overlay(day_index(ts, self.cfg.start_unix), lh, asn, country);
            let diurnal = 1.0
                + spec.policy.diurnal_amp
                    * (std::f64::consts::TAU * (f64::from(lh) - 4.0) / 24.0).cos();
            let weekend = if is_weekend(ts) {
                1.0 - spec.policy.weekend_drop
            } else {
                1.0
            };
            let v6m = if ipv6 {
                spec.country.ipv6_tamper_mult
            } else {
                1.0
            };
            let m = (diurnal * weekend * v6m / self.diurnal_norm[country as usize]).max(0.0);
            let as_m = as_enforcement_multiplier(self.cfg.seed, asn, spec.country.centralization);

            let u: f64 = rng.gen();
            let mut acc = 0.0;

            // SYN-stage (IP-based) rules.
            let syn_total: f64 = spec.policy.syn_rules.iter().map(|(_, r)| r).sum::<f64>()
                + extra_syn.iter().map(|(_, r)| r).sum::<f64>();
            acc += syn_total * m;
            if vendor.is_none() && u < acc {
                vendor = Some(pick_weighted_2(
                    &spec.policy.syn_rules,
                    &extra_syn,
                    &mut rng,
                ));
            }

            // DPI stage.
            if vendor.is_none() {
                let proto_ok = match spec.policy.dpi_filter {
                    ProtoFilter::Any => true,
                    ProtoFilter::HttpOnly => http,
                    ProtoFilter::TlsOnly => !http,
                };
                let blocked = domain_id
                    .map(|id| self.is_blocked(country, self.catalog.get(id)))
                    .unwrap_or(false);
                let extra_dpi_total: f64 = extra_dpi.iter().map(|(_, r)| r).sum();
                let p_dpi = if proto_ok {
                    ((spec.policy.dpi_blanket
                        + if blocked {
                            spec.policy.dpi_enforce
                        } else {
                            0.0
                        }
                        + extra_dpi_total)
                        .min(1.0))
                        * m
                        * as_m
                } else {
                    0.0
                };
                acc += p_dpi;
                if u < acc {
                    // Vendor choice is mostly stable per (AS, domain) so
                    // repeated visits see the same apparatus (Appendix B);
                    // 10% of sessions re-roll, modelling load-balanced
                    // censor clusters.
                    let stable_key = splitmix64(
                        (u64::from(asn.0) << 32)
                            ^ u64::from(domain_id.unwrap_or(0))
                            ^ self.cfg.seed.rotate_left(17),
                    );
                    const VENDOR_SALT: u64 = 0x7665_6e64_6f72;
                    let mut vrng: StdRng = if rng.gen::<f64>() < 0.10 {
                        derive_rng(self.cfg.seed ^ VENDOR_SALT, splitmix64(stable_key ^ i))
                    } else {
                        derive_rng(self.cfg.seed ^ VENDOR_SALT, stable_key)
                    };
                    vendor = Some(pick_weighted_2(&spec.policy.dpi_mix, &extra_dpi, &mut vrng));
                }
            }

            // Later-data firewalls.
            if vendor.is_none() {
                let fw_total: f64 = spec.policy.fw_rules.iter().map(|(_, r)| r).sum();
                acc += fw_total * m;
                if u < acc {
                    vendor = Some(pick_weighted_2(&spec.policy.fw_rules, &[], &mut rng));
                    is_fw = true;
                    http = true; // firewall flows are two cleartext requests
                }
            }
        }

        // --- Request shape ----------------------------------------------------
        let two_requests = is_fw
            || matches!(
                benign,
                Some(BenignKind::AbortTwo) | Some(BenignKind::FinRstTwo)
            );
        let shape = RequestShape {
            domain: domain_id,
            http,
            two_requests,
            is_fw,
            benign,
            syn_payload_p: self.benign.syn_payload_http * spec.country.syn_payload_mult,
        };
        let (request, final_http, effective_domain) = self.build_request(shape, &mut rng);
        let http = final_http;
        let domain_id = effective_domain;

        let response_segments = rng.gen_range(2..=4u8);
        let kind = client_kind(benign, response_segments, &mut rng);
        let dst_port = if http { 80 } else { 443 };

        // --- Stacks -----------------------------------------------------------
        let ip_id = pick_ip_id_mode(benign, &mut rng);
        let initial_ttl = match benign {
            Some(BenignKind::Zmap) => 255,
            _ => {
                if rng.gen::<f64>() < 0.70 {
                    64
                } else {
                    128
                }
            }
        };
        let mut tls_random = [0u8; 32];
        rng.fill(&mut tls_random);

        let client_cfg = ClientConfig {
            src: client_ip,
            dst: server_ip,
            src_port,
            dst_port,
            request,
            kind,
            ip_id,
            initial_ttl,
            isn: rng.gen::<u32>().into(),
            window: 64_240,
            request_delay: SimDuration::from_millis(rng.gen_range(1..40)),
            syn_options: !matches!(benign, Some(BenignKind::Zmap)),
            tls_random,
        };
        let mut server_cfg = ServerConfig::default_edge(server_ip, dst_port);
        server_cfg.isn = rng.gen::<u32>().into();
        server_cfg.response_segments = response_segments;

        // --- Path --------------------------------------------------------------
        let h1: u8 = rng.gen_range(2..=6);
        let h2: u8 = rng.gen_range(5..=14);
        let base_latency = 10 + spec.country.tz_offset_hours.unsigned_abs() as u64 * 6;
        let l1 = SimDuration::from_millis(rng.gen_range(2..20));
        let l2 = SimDuration::from_millis(base_latency + rng.gen_range(0..40));
        const LOSS: f64 = 0.0006;

        let mut path = match vendor {
            Some(v) => {
                let rules = self.rules_for(country, domain_id, v, is_fw);
                let mut mb = v.build(rules);
                if is_fw && !http {
                    // TLS-intercepting firewall: it cannot keyword-match our
                    // (encrypted in reality) later data, so it is modelled as
                    // firing on the second data packet outright.
                    mb = mb.with_forced_trigger(ForcedStage::NthData(2));
                }
                Path {
                    links: vec![
                        Link::new(l1, h1).with_loss(LOSS),
                        Link::new(l2, h2).with_loss(LOSS),
                    ],
                    hops: vec![Box::new(mb)],
                }
            }
            None => Path {
                links: vec![
                    Link::new(SimDuration(l1.as_nanos() + l2.as_nanos()), h1 + h2).with_loss(LOSS),
                ],
                hops: Vec::new(),
            },
        };

        // --- Run ----------------------------------------------------------------
        let start = SimTime((ts - self.cfg.start_unix) * 1_000_000_000);
        let params = SessionParams::new(client_cfg, server_cfg, start);
        let trace = ws.run(params, &mut path, &mut rng);
        let mut crng: StdRng = derive_rng(self.cfg.seed ^ 0xC0_11EC7, i);
        let mut flow = collect(trace, &self.cfg.collector, &mut crng)?;
        // Re-base timestamps onto wall-clock unix seconds.
        for p in &mut flow.packets {
            p.ts_sec += self.cfg.start_unix;
        }
        flow.observation_end_sec += self.cfg.start_unix;

        let truth = match (vendor, benign) {
            (Some(v), _) => GroundTruth::Tampered {
                vendor: v,
                fired: trace.first_tamper().map(|e| e.stage),
            },
            (None, Some(b)) => GroundTruth::Benign(b),
            (None, None) => GroundTruth::Clean,
        };

        Some(LabeledFlow {
            flow,
            meta: SessionMeta {
                country,
                asn,
                ipv6,
                http,
                domain: domain_id,
                start_unix: ts,
                truth,
            },
        })
    }

    fn rules_for(
        &self,
        country: CountryIdx,
        domain_id: Option<DomainId>,
        vendor: Vendor,
        is_fw: bool,
    ) -> RuleSet {
        if is_fw {
            let mut r = RuleSet::default();
            r.keywords.push(FIREWALL_KEYWORD.to_owned());
            return r;
        }
        match vendor.stages() {
            s if s.on_syn => RuleSet::blanket(),
            _ => match domain_id {
                Some(id) => {
                    let d = self.catalog.get(id);
                    let spec = &self.world[country as usize];
                    // If a substring rule matches, configure it verbatim so
                    // the middlebox takes the over-blocking path.
                    if let Some(sub) = spec
                        .policy
                        .overblock_substrings
                        .iter()
                        .find(|s| d.name.contains(*s))
                    {
                        let mut r = RuleSet::default();
                        r.domain_substrings.push((*sub).to_owned());
                        r
                    } else if self.is_blocked(country, d) {
                        RuleSet::domains([d.name.clone()])
                    } else {
                        // Blanket-ban apparatus (fires on any domain).
                        RuleSet::blanket()
                    }
                }
                None => RuleSet::blanket(),
            },
        }
    }

    /// The request `shape` calls for, with the protocol and domain it
    /// finally settles on (a SYN-payload request may move to a magnet
    /// domain; firewall flows are always HTTP).
    fn build_request(
        &self,
        shape: RequestShape,
        rng: &mut StdRng,
    ) -> (RequestPayload, bool, Option<DomainId>) {
        let RequestShape {
            domain,
            http,
            two_requests,
            is_fw,
            benign,
            syn_payload_p,
        } = shape;
        let Some(id) = domain else {
            return (RequestPayload::None, http, None);
        };
        let name = self.catalog.get(id).name.clone();
        if two_requests {
            // Traffic traversing an org's commercial firewall frequently
            // carries the proxy's own User-Agent (paper §4.3).
            let user_agent = if is_fw && rng.gen::<f64>() < 0.7 {
                FIREWALL_USER_AGENT.to_owned()
            } else {
                pick_user_agent(rng).to_owned()
            };
            return (
                RequestPayload::HttpTwo {
                    host: name,
                    path1: "/".into(),
                    path2: format!("/post?tag={FIREWALL_KEYWORD}"),
                    user_agent,
                },
                true,
                Some(id),
            );
        }
        if http {
            // §4.1: a share of port-80 connections carry the GET in the SYN,
            // 93% of them to four magnet domains.
            if benign.is_none() && rng.gen::<f64>() < syn_payload_p {
                let (host, id) = if rng.gen::<f64>() < 0.93 {
                    let m = self.syn_payload_magnets[rng.gen_range(0..4)];
                    (self.catalog.get(m).name.clone(), m)
                } else {
                    (name, id)
                };
                return (
                    RequestPayload::HttpInSyn {
                        host,
                        path: "/".into(),
                    },
                    true,
                    Some(id),
                );
            }
            (
                RequestPayload::HttpGet {
                    host: name,
                    path: "/index.html".into(),
                    user_agent: pick_user_agent(rng).into(),
                },
                true,
                Some(id),
            )
        } else {
            (
                RequestPayload::TlsClientHello { sni: name },
                false,
                Some(id),
            )
        }
    }

    /// Run serially, streaming flows to `f`.
    pub fn run<F: FnMut(LabeledFlow)>(&self, mut f: F) {
        let mut ws = SessionWorkspace::default();
        for i in 0..self.cfg.sessions {
            if let Some(lf) = self.gen_session_in(&mut ws, i) {
                f(lf);
            }
        }
    }

    /// Run across `threads` shards of the capture engine (0 = one per
    /// available core, as [`EngineConfig::threads`] has it) — a thin shim
    /// over [`tamper_capture::run_source`] with a [`SimSource`] front-end;
    /// the driver has no sharding or merging machinery of its own. Each
    /// shard owns a contiguous chunk of session indices, simulates them
    /// in one [`SessionWorkspace`] and folds into its own accumulator
    /// `T`; accumulators are merged in shard order, so results are
    /// byte-identical to a serial run — even for order-sensitive
    /// accumulators — at any thread count.
    ///
    /// With a registry attached the engine publishes its uniform
    /// `reader` / `shard<i>` / `merge` scopes (per-shard `gen` stage
    /// timers, session/flow counters, a thread gauge on `merge`). With
    /// `None` every instrument is disabled (no clock reads); metrics
    /// never feed the merged accumulator, so attaching a registry cannot
    /// perturb byte-compared output.
    pub fn run_sharded<T, FI, FO, FM>(
        &self,
        threads: usize,
        obs: Option<&Registry>,
        init: FI,
        observe: FO,
        merge: FM,
    ) -> T
    where
        T: Send,
        FI: Fn() -> T + Sync,
        FO: Fn(&mut T, LabeledFlow) + Sync,
        FM: FnMut(&mut T, T),
    {
        let cfg = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        let gen = |ws: &mut SessionWorkspace, i: u64| self.gen_session_in(ws, i);
        let (acc, _stats) = run_source(
            &mut SimSource::new(self.cfg.sessions, &gen),
            &cfg,
            obs,
            init,
            observe,
            merge,
        );
        acc
    }

    /// Which of `pops` points of presence observes this flow. Routing is
    /// anycast-style: stable per client address (one client always lands
    /// on the same PoP), uniform across PoPs, and independent of session
    /// index or thread count, so splitting a world across PoPs partitions
    /// the flow multiset exactly.
    pub fn pop_of(&self, pops: usize, lf: &LabeledFlow) -> usize {
        if pops <= 1 {
            return 0;
        }
        let h = splitmix64(self.cfg.seed ^ POP_ROUTE_SALT ^ ip_key(lf.flow.client_ip));
        (h % pops as u64) as usize
    }
}

/// What a session's tampering decision settled about its request, before
/// the request exists.
struct RequestShape {
    domain: Option<DomainId>,
    http: bool,
    /// Two requests on one connection: firewall flows and the two-request
    /// benign kinds.
    two_requests: bool,
    is_fw: bool,
    benign: Option<BenignKind>,
    /// Chance a plain HTTP GET rides the SYN instead (§4.1).
    syn_payload_p: f64,
}

/// Salt separating PoP routing from every other consumer of the world
/// seed, so routing never correlates with per-session generation streams.
const POP_ROUTE_SALT: u64 = 0x9e6c_5f0a_7d01_b3e5;

/// Stable 64-bit key for an IP address: the base of PoP routing here and
/// of the analysis crate's pair-sequence keys and reservoir priorities,
/// so `.agg` bytes hang off its exact values.
pub fn ip_key(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => splitmix64(u64::from(u32::from(v4))),
        IpAddr::V6(v6) => {
            let o = v6.octets();
            let hi = u64::from_be_bytes([o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]]);
            let lo = u64::from_be_bytes([o[8], o[9], o[10], o[11], o[12], o[13], o[14], o[15]]);
            splitmix64(hi ^ lo.rotate_left(32))
        }
    }
}

/// A stable fingerprint of everything in a [`WorldConfig`] that changes
/// the generated flow multiset. Per-PoP partial aggregates are salted
/// with it so `tamperscope merge` refuses to combine partials produced
/// from different worlds.
pub fn world_fingerprint(cfg: &WorldConfig) -> u64 {
    let scenario = match cfg.scenario {
        Scenario::Standard => 0u64,
        Scenario::IranProtest => 1u64,
    };
    let mut h: u64 = 0x5707_1d00_2023_0112;
    for v in [
        cfg.seed,
        cfg.sessions,
        cfg.start_unix,
        u64::from(cfg.days),
        cfg.sample_denominator,
        u64::from(cfg.catalog_size),
        scenario,
    ] {
        h = splitmix64(h ^ v);
    }
    h
}

/// Interest weight of a domain for one country.
fn domain_interest(spec: &CountrySpec, country: CountryIdx, d: &Domain) -> f64 {
    let mut w = 1.0 / (f64::from(d.global_rank) + 10.0).powf(0.85);
    match d.home_country {
        Some(h) if h == country => w *= 8.0,
        Some(_) => w *= 0.25,
        None => {}
    }
    for (cat, mult) in &spec.policy.affinity {
        if *cat == d.category {
            w *= mult;
        }
    }
    w
}

fn pick_magnets(catalog: &DomainCatalog) -> [DomainId; 4] {
    let mut best: Vec<(u32, DomainId)> = catalog
        .iter()
        .filter(|d| d.category == Category::ContentServers)
        .map(|d| (d.global_rank, d.id))
        .collect();
    best.sort_unstable();
    let take = |i: usize| best.get(i).map(|&(_, id)| id).unwrap_or(0);
    [take(0), take(1), take(2), take(3)]
}

fn hash01(seed: u64, a: u64, b: u64) -> f64 {
    (splitmix64(seed ^ a.rotate_left(21) ^ b.wrapping_mul(0x9E37_79B9)) % 1_000_000) as f64
        / 1_000_000.0
}

/// Unix weekend test (Saturday/Sunday UTC-ish; the epoch was a Thursday).
fn is_weekend(unix_secs: u64) -> bool {
    let dow = (unix_secs / 86_400 + 4) % 7; // 0 = Sunday
    dow == 0 || dow == 6
}

fn pick_benign(rates: &BenignRates, rng: &mut StdRng) -> Option<BenignKind> {
    let u: f64 = rng.gen();
    let table = [
        (BenignKind::SilentSyn, rates.silent_syn),
        (BenignKind::Zmap, rates.zmap),
        (BenignKind::HappyEyeballsRst, rates.he_rst),
        (BenignKind::VanishAck, rates.vanish_ack),
        (BenignKind::VanishReq, rates.vanish_req),
        (BenignKind::VanishMid, rates.vanish_mid),
        (BenignKind::AbortOne, rates.abort_one),
        (BenignKind::AbortTwo, rates.abort_two),
        (BenignKind::FinRstOne, rates.fin_rst_one),
        (BenignKind::FinRstTwo, rates.fin_rst_two),
        (BenignKind::DupAck, rates.dup_ack),
        (BenignKind::MultiSyn, rates.multi_syn),
        (BenignKind::StallOk, rates.stall_ok),
    ];
    let mut acc = 0.0;
    for (kind, rate) in table {
        acc += rate;
        if u < acc {
            return Some(kind);
        }
    }
    None
}

fn client_kind(benign: Option<BenignKind>, response_segments: u8, rng: &mut StdRng) -> ClientKind {
    match benign {
        None => ClientKind::Normal,
        Some(BenignKind::StallOk) => ClientKind::Stall {
            stall: SimDuration::from_millis(rng.gen_range(3500..8000)),
        },
        Some(BenignKind::SilentSyn) => {
            if rng.gen::<f64>() < 0.55 {
                ClientKind::SilentScanner
            } else if rng.gen::<f64>() < 0.75 {
                ClientKind::VanishAfter {
                    stage: VanishStage::AfterSyn,
                }
            } else {
                ClientKind::HappyEyeballsSilent {
                    cancel_after: SimDuration::from_millis(rng.gen_range(40..200)),
                }
            }
        }
        Some(BenignKind::Zmap) => ClientKind::ZmapScanner,
        Some(BenignKind::HappyEyeballsRst) => ClientKind::HappyEyeballsRst {
            cancel_after: SimDuration::from_millis(rng.gen_range(40..200)),
        },
        Some(BenignKind::VanishAck) => ClientKind::VanishAfter {
            stage: VanishStage::AfterAck,
        },
        Some(BenignKind::VanishReq) => ClientKind::VanishAfter {
            stage: VanishStage::AfterRequest,
        },
        Some(BenignKind::VanishMid) => ClientKind::VanishAfter {
            stage: VanishStage::MidResponse,
        },
        Some(BenignKind::AbortOne) => ClientKind::AbortAfterResponse {
            segments: rng.gen_range(1..=2.min(response_segments)),
        },
        // Abort during the *second* response, so the RST lands after
        // multiple data packets (Post-Data).
        Some(BenignKind::AbortTwo) => ClientKind::AbortAfterResponse {
            segments: response_segments + 1,
        },
        Some(BenignKind::FinRstOne) | Some(BenignKind::FinRstTwo) => ClientKind::FinThenRst,
        Some(BenignKind::DupAck) => ClientKind::DupAckThenVanish,
        Some(BenignKind::MultiSyn) => ClientKind::MultiSynVanish,
    }
}

fn pick_ip_id_mode(benign: Option<BenignKind>, rng: &mut StdRng) -> IpIdMode {
    if matches!(benign, Some(BenignKind::Zmap)) {
        return IpIdMode::Fixed(54_321);
    }
    let u: f64 = rng.gen();
    if u < 0.60 {
        IpIdMode::Counter {
            start: rng.gen(),
            stride_max: 1,
        }
    } else if u < 0.92 {
        IpIdMode::Zero
    } else if u < 0.96 {
        IpIdMode::Counter {
            start: rng.gen(),
            stride_max: 3,
        }
    } else {
        // Busy host sharing one global counter across many flows.
        IpIdMode::Counter {
            start: rng.gen(),
            stride_max: 2000,
        }
    }
}

fn pick_user_agent(rng: &mut StdRng) -> &'static str {
    const UAS: [&str; 5] = [
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64)",
        "Mozilla/5.0 (X11; Linux x86_64)",
        "Mozilla/5.0 (iPhone; CPU iPhone OS 16_0 like Mac OS X)",
        "curl/8.0.1",
        "okhttp/4.10",
    ];
    UAS[rng.gen_range(0..UAS.len())]
}

fn client_address(country: CountryIdx, asn: Asn, pool: u32, ipv6: bool) -> IpAddr {
    let as_local = (asn.0 - u32::from(country) * 1000) as u8;
    if ipv6 {
        IpAddr::V6(Ipv6Addr::new(
            0xfd00,
            country,
            u16::from(as_local),
            0,
            0,
            0,
            0,
            pool as u16,
        ))
    } else {
        IpAddr::V4(Ipv4Addr::new(10, country as u8, as_local, pool as u8))
    }
}

fn server_address(ipv6: bool) -> IpAddr {
    if ipv6 {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0x1111, 0, 0, 0, 0, 1))
    } else {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
    }
}

/// Pick from two weighted slices treated as one distribution.
fn pick_weighted_2(a: &[(Vendor, f64)], b: &[(Vendor, f64)], rng: &mut StdRng) -> Vendor {
    let total: f64 = a.iter().chain(b.iter()).map(|(_, w)| w).sum();
    let mut u = rng.gen::<f64>() * total;
    for (v, w) in a.iter().chain(b.iter()) {
        u -= w;
        if u <= 0.0 {
            return *v;
        }
    }
    a.last().or(b.last()).map(|(v, _)| *v).expect("empty mix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::GroundTruth;
    use tamper_core::{classify, ClassifierConfig, Signature};

    #[test]
    fn ip_key_values_are_pinned() {
        // PoP routing and reservoir priorities (hence `.agg` bytes) hang
        // off these exact values.
        assert_eq!(
            ip_key("203.0.113.7".parse().unwrap()),
            5_372_407_712_213_790_696
        );
        assert_eq!(
            ip_key("2001:db8::7".parse().unwrap()),
            18_392_005_709_704_089_631
        );
    }

    fn sim(sessions: u64) -> WorldSim {
        WorldSim::new(WorldConfig {
            sessions,
            catalog_size: 800,
            days: 3,
            ..Default::default()
        })
    }

    #[test]
    fn sessions_generate_and_label() {
        let s = sim(400);
        let mut n = 0;
        let mut tampered = 0;
        s.run(|lf| {
            n += 1;
            assert!(!lf.flow.packets.is_empty());
            assert!(lf.flow.packets.len() <= 10);
            if lf.meta.truth.was_tampered() {
                tampered += 1;
            }
        });
        assert!(n >= 380, "only {n} flows produced");
        assert!(tampered > 0, "no tampering generated at all");
    }

    #[test]
    fn generation_is_deterministic_and_shardable() {
        let s = sim(300);
        let mut serial: Vec<(u64, usize)> = Vec::new();
        s.run(|lf| serial.push((lf.meta.start_unix, lf.flow.packets.len())));
        let sharded: Vec<(u64, usize)> = s.run_sharded(
            4,
            None,
            Vec::new,
            |acc, lf| acc.push((lf.meta.start_unix, lf.flow.packets.len())),
            |a, mut b| a.append(&mut b),
        );
        assert_eq!(serial, sharded);
    }

    #[test]
    fn tampered_sessions_classify_as_tampered_mostly() {
        let s = sim(3000);
        let cfg = ClassifierConfig::default();
        let mut truth_pos = 0u32;
        let mut detected = 0u32;
        s.run(|lf| {
            if lf.meta.truth.was_tampered() {
                truth_pos += 1;
                if classify(&lf.flow, &cfg).is_possibly_tampered() {
                    detected += 1;
                }
            }
        });
        assert!(truth_pos > 50, "too few tampered sessions: {truth_pos}");
        let recall = f64::from(detected) / f64::from(truth_pos);
        assert!(recall > 0.95, "recall {recall} too low");
    }

    #[test]
    fn clean_sessions_rarely_flagged() {
        let s = sim(2000);
        let cfg = ClassifierConfig::default();
        let mut clean = 0u32;
        let mut flagged = 0u32;
        s.run(|lf| {
            if matches!(lf.meta.truth, GroundTruth::Clean) {
                clean += 1;
                if classify(&lf.flow, &cfg).is_possibly_tampered() {
                    flagged += 1;
                }
            }
        });
        assert!(clean > 500);
        let fpr = f64::from(flagged) / f64::from(clean);
        assert!(fpr < 0.05, "clean flows flagged at {fpr}");
    }

    #[test]
    fn turkmen_http_flows_match_post_ack_signatures() {
        let s = WorldSim::new(WorldConfig {
            sessions: 150_000,
            catalog_size: 800,
            days: 2,
            ..Default::default()
        });
        let world = s.world();
        let tm = crate::policy::country_index(world, "TM").unwrap();
        let cfg = ClassifierConfig::default();
        let mut tm_http = 0u32;
        let mut ack_rst = 0u32;
        s.run(|lf| {
            if lf.meta.country == tm && lf.meta.http {
                tm_http += 1;
                if classify(&lf.flow, &cfg).signature() == Some(Signature::AckRst) {
                    ack_rst += 1;
                }
            }
        });
        assert!(tm_http >= 40, "too few TM HTTP flows sampled ({tm_http})");
        // Expected ≈33% at calibration (it is TM's dominant signature);
        // the bound is loose because the sample is small.
        assert!(
            f64::from(ack_rst) / f64::from(tm_http) > 0.18,
            "TM ⟨SYN;ACK→RST⟩ share too low: {ack_rst}/{tm_http}"
        );
    }

    #[test]
    fn iran_scenario_only_iranian_traffic() {
        let s = WorldSim::new(WorldConfig {
            sessions: 200,
            catalog_size: 400,
            days: 17,
            start_unix: SEP13_2022_UNIX,
            scenario: Scenario::IranProtest,
            ..Default::default()
        });
        assert_eq!(s.world().len(), 1);
        assert_eq!(s.world()[0].country.code, "IR");
        let mut n = 0;
        s.run(|lf| {
            assert_eq!(lf.meta.country, 0);
            n += 1;
        });
        assert!(n > 150);
    }
}

#[cfg(test)]
mod blocking_tests {
    use super::*;
    use crate::domains::Category;

    fn sim() -> WorldSim {
        WorldSim::new(WorldConfig {
            sessions: 0,
            catalog_size: 3000,
            ..Default::default()
        })
    }

    #[test]
    fn blocking_respects_category_coverage() {
        let s = sim();
        let cn = crate::policy::country_index(s.world(), "CN").unwrap();
        let spec = &s.world()[cn as usize];
        let adult_cov = spec
            .policy
            .coverage
            .iter()
            .find(|(c, _)| *c == Category::AdultThemes)
            .map(|(_, v)| *v)
            .unwrap();
        let adult: Vec<_> = s
            .catalog()
            .iter()
            .filter(|d| d.category == Category::AdultThemes)
            .collect();
        let blocked = adult.iter().filter(|d| s.is_blocked(cn, d)).count();
        let rate = blocked as f64 / adult.len() as f64;
        // The popularity bias redistributes but preserves the mean.
        assert!(
            (rate - adult_cov).abs() < 0.12,
            "CN adult block rate {rate} vs configured {adult_cov}"
        );
        // Categories with no coverage entry are never blocked (modulo
        // substring rules, which CN has none of in the table... but it
        // might; check one that certainly isn't covered).
        let uncovered: Vec<_> = s
            .catalog()
            .iter()
            .filter(|d| d.category == Category::Shopping && !d.name.contains("wn.com"))
            .collect();
        assert!(uncovered.iter().all(|d| !s.is_blocked(cn, d)));
    }

    #[test]
    fn blocking_is_popularity_biased() {
        let s = sim();
        let cn = crate::policy::country_index(s.world(), "CN").unwrap();
        let n = s.catalog().len();
        let (mut top_blocked, mut top_total) = (0u32, 0u32);
        let (mut tail_blocked, mut tail_total) = (0u32, 0u32);
        for d in s.catalog().iter() {
            if d.category != Category::AdultThemes {
                continue;
            }
            if d.global_rank < n / 4 {
                top_total += 1;
                top_blocked += u32::from(s.is_blocked(cn, d));
            } else if d.global_rank > 3 * n / 4 {
                tail_total += 1;
                tail_blocked += u32::from(s.is_blocked(cn, d));
            }
        }
        let top = f64::from(top_blocked) / f64::from(top_total.max(1));
        let tail = f64::from(tail_blocked) / f64::from(tail_total.max(1));
        assert!(
            tail > top,
            "unpopular domains should be blocked more: top {top} tail {tail}"
        );
    }

    #[test]
    fn domain_families_share_block_fate() {
        let s = sim();
        let cn = crate::policy::country_index(s.world(), "CN").unwrap();
        let mut checked = 0;
        for d in s.catalog().iter() {
            if let Some(parent_id) = d.parent {
                let parent = s.catalog().get(parent_id);
                assert_eq!(
                    s.is_blocked(cn, d),
                    s.is_blocked(cn, parent),
                    "variant {} and parent {} disagree",
                    d.name,
                    parent.name
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} variants checked");
    }

    #[test]
    fn national_lists_overlap_substantially() {
        let s = sim();
        let world = s.world();
        let cn = crate::policy::country_index(world, "CN").unwrap();
        let pk = crate::policy::country_index(world, "TR").unwrap();
        // Both cover Adult Themes at ≈50%; the shared-contentiousness draw
        // should give distinctly more overlap than independence would
        // (the effect shrinks as coverage approaches 1, so a mid-coverage
        // pair is the sensitive probe).
        let adult_ids: Vec<u32> = s
            .catalog()
            .iter()
            .filter(|d| d.category == Category::AdultThemes)
            .map(|d| d.id)
            .collect();
        let cn_set: std::collections::BTreeSet<u32> = adult_ids
            .iter()
            .copied()
            .filter(|&id| s.is_blocked(cn, s.catalog().get(id)))
            .collect();
        let pk_set: std::collections::BTreeSet<u32> = adult_ids
            .iter()
            .copied()
            .filter(|&id| s.is_blocked(pk, s.catalog().get(id)))
            .collect();
        let inter = cn_set.intersection(&pk_set).count() as f64;
        let p_cn = cn_set.len() as f64 / adult_ids.len() as f64;
        let p_pk = pk_set.len() as f64 / adult_ids.len() as f64;
        let expected_independent = p_cn * p_pk * adult_ids.len() as f64;
        assert!(
            inter > 1.3 * expected_independent,
            "overlap {inter} barely exceeds independence {expected_independent}"
        );
    }
}

#[cfg(test)]
mod helper_tests {
    use super::*;

    #[test]
    fn weekend_detection_matches_calendar() {
        // 2023-01-12 is a Thursday; 14th/15th are the weekend.
        let thu = JAN12_2023_UNIX;
        assert!(!is_weekend(thu));
        assert!(!is_weekend(thu + 86_400)); // Friday
        assert!(is_weekend(thu + 2 * 86_400)); // Saturday
        assert!(is_weekend(thu + 3 * 86_400)); // Sunday
        assert!(!is_weekend(thu + 4 * 86_400)); // Monday
    }

    #[test]
    fn client_addresses_are_unique_per_identity() {
        let mut seen = std::collections::BTreeSet::new();
        for country in 0..10u16 {
            for asn_k in 0..4u32 {
                for pool in 1..50u32 {
                    let asn = Asn(u32::from(country) * 1000 + asn_k);
                    let v4 = client_address(country, asn, pool, false);
                    let v6 = client_address(country, asn, pool, true);
                    assert!(seen.insert(v4), "duplicate {v4}");
                    assert!(seen.insert(v6), "duplicate {v6}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "every country needs 1..=250 ASes")]
    fn with_world_rejects_more_ases_than_the_address_plan_holds() {
        let mut world = world_spec();
        world[0].country.n_ases = 251;
        let cfg = WorldConfig {
            sessions: 0,
            catalog_size: 100,
            ..Default::default()
        };
        WorldSim::with_world(cfg, world);
    }

    #[test]
    fn benign_pick_respects_rates() {
        use rand::SeedableRng;
        let rates = BenignRates::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut hits = 0u32;
        for _ in 0..n {
            if pick_benign(&rates, &mut rng).is_some() {
                hits += 1;
            }
        }
        let share = f64::from(hits) / f64::from(n);
        assert!(
            (share - rates.total()).abs() < 0.005,
            "share {share} vs configured {}",
            rates.total()
        );
    }

    #[test]
    fn diurnal_normalizer_centers_realized_rates() {
        // With normalization, the traffic-weighted mean of the diurnal
        // factor must be ≈ 1 for every country.
        let sim = WorldSim::new(WorldConfig {
            sessions: 0,
            catalog_size: 200,
            ..Default::default()
        });
        for (ci, norm) in sim.diurnal_norm.iter().enumerate() {
            assert!(
                (0.5..1.5).contains(norm),
                "{}: normalizer {norm}",
                sim.world()[ci].country.code
            );
        }
    }
}
