//! The mergeable partial aggregate: everything the report layer needs,
//! in a form that sums losslessly across machines.
//!
//! The paper's pipeline runs at hundreds of PoPs and merges per-PoP
//! tallies centrally. [`PartialAggregate`] is that per-PoP unit: plain
//! counters (exact `u64` sums), ordered tables, and *deterministic
//! mergeable reservoirs* whose sample priorities are a pure function of
//! the flow — so `merge` is associative, commutative, and
//! order-insensitive, and "N PoPs → merge → same bytes as one machine"
//! is a provable property rather than a hope. The binary `.agg`
//! encoding lives in [`crate::aggfile`]; the figure-oriented read side
//! lives in [`crate::view::ReportView`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use tamper_core::{is_zmap_fingerprint, scanner_marks, user_agent};
use tamper_core::{ClassifierConfig, FlowAnalysis, Signature, Stage};
use tamper_netsim::splitmix64;
use tamper_wire::Seq;
use tamper_worldgen::{ip_key, LabeledFlow};

/// Number of classification cells per country: 19 signatures, plus
/// "possibly tampered, unmatched", plus "not tampered".
pub(crate) const N_CLASSES: usize = 21;
/// Index of the unmatched possibly-tampered cell.
pub(crate) const CLASS_OTHER: usize = 19;
/// Index of the not-tampered cell.
pub(crate) const CLASS_NOT_TAMPERED: usize = 20;

/// Evidence-reservoir capacity per class (the paper samples up to 1,000
/// connections per signature for Figures 2 and 3).
pub(crate) const RESERVOIR_CAP: usize = 1000;

/// Cap on per-(ip, domain) Post-PSH class sequences (Appendix B).
pub(crate) const PAIR_SEQ_CAP: usize = 8;

/// Number of Fig 10 class codes a pair sequence holds (see
/// [`postpsh_class_code`]).
pub(crate) const PAIR_CLASSES: usize = 9;

/// Cap on the number of `(ip, domain)` pair-sequence *keys* a partial
/// keeps: the lowest `PAIR_KEY_CAP` keys in `(ip_key, domain)` order.
/// Keep-lowest-K over a keyed union is associative and commutative, and
/// a key can never re-enter once capped out (every kept key is smaller),
/// so per-PoP partials still merge to exactly the single-machine map —
/// while a long-running ingest stays bounded.
pub(crate) const PAIR_KEY_CAP: usize = 65536;

/// Ground-truth confusion counts (simulation-only luxury).
#[derive(Debug, Clone, Copy, Default)]
pub struct TruthStats {
    /// Middlebox fired, flow flagged possibly tampered.
    pub true_positive: u64,
    /// Middlebox fired, flow not flagged.
    pub false_negative: u64,
    /// No middlebox, flow flagged.
    pub false_positive: u64,
    /// No middlebox, not flagged.
    pub true_negative: u64,
    /// Middlebox fired and the flow matched a concrete signature.
    pub matched_signature: u64,
}

impl TruthStats {
    /// Recall of possibly-tampered detection against ground truth.
    pub fn recall(&self) -> f64 {
        let p = self.true_positive + self.false_negative;
        if p == 0 {
            return 0.0;
        }
        self.true_positive as f64 / p as f64
    }

    /// Precision of possibly-tampered detection against ground truth.
    /// Note the paper expects this to be well below 1: benign scanners,
    /// aborts, and vanishing clients are genuine parts of the unmatched /
    /// matched population.
    pub fn precision(&self) -> f64 {
        let f = self.true_positive + self.false_positive;
        if f == 0 {
            return 0.0;
        }
        self.true_positive as f64 / f as f64
    }
}

/// Per-(country, domain) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainCell {
    /// Connections observed.
    pub seen: u32,
    /// Connections matching a Post-PSH signature.
    pub psh_tampered: u32,
}

/// A counter cell. Partials merge by exact addition; `add` reports an
/// overflow (and wraps) rather than panicking, so the `.agg` reader can
/// refuse a partial that would overflow the accumulator.
pub(crate) trait Count: Copy {
    /// Add `v` into `self`; true if the sum overflowed.
    fn add(&mut self, v: Self) -> bool;
}

impl Count for u32 {
    fn add(&mut self, v: u32) -> bool {
        let (sum, over) = self.overflowing_add(v);
        *self = sum;
        over
    }
}

impl Count for u64 {
    fn add(&mut self, v: u64) -> bool {
        let (sum, over) = self.overflowing_add(v);
        *self = sum;
        over
    }
}

impl<A: Count, B: Count> Count for (A, B) {
    fn add(&mut self, v: (A, B)) -> bool {
        self.0.add(v.0) | self.1.add(v.1)
    }
}

impl<T: Count, const N: usize> Count for [T; N] {
    fn add(&mut self, v: [T; N]) -> bool {
        add_cells(self, v)
    }
}

impl Count for DomainCell {
    fn add(&mut self, v: DomainCell) -> bool {
        self.seen.add(v.seen) | self.psh_tampered.add(v.psh_tampered)
    }
}

impl Count for TruthStats {
    fn add(&mut self, v: TruthStats) -> bool {
        self.true_positive.add(v.true_positive)
            | self.false_negative.add(v.false_negative)
            | self.false_positive.add(v.false_positive)
            | self.true_negative.add(v.true_negative)
            | self.matched_signature.add(v.matched_signature)
    }
}

/// Add `src` into `dst` cell by cell; true if any cell overflowed.
pub(crate) fn add_cells<T: Count>(dst: &mut [T], src: impl IntoIterator<Item = T>) -> bool {
    dst.iter_mut()
        .zip(src)
        .fold(false, |over, (a, b)| a.add(b) | over)
}

/// Add `v` into the cell at `key`, which starts at zero; true on overflow.
pub(crate) fn add_keyed<K: Ord, V: Count + Default>(
    table: &mut BTreeMap<K, V>,
    key: K,
    v: V,
) -> bool {
    table.entry(key).or_default().add(v)
}

/// Keep-lowest-`cap` over an ascending `Vec`: insert `key` in order,
/// dropping the largest entry past `cap`. Returns false, changing
/// nothing, when `entries` is full and `key` ranks at or above its
/// largest entry; every later key of an ascending stream then would too.
/// Equal keys are kept as duplicates.
fn offer_lowest<K: Ord>(entries: &mut Vec<K>, cap: usize, key: K) -> bool {
    if entries.len() >= cap {
        if entries.last().is_some_and(|last| key >= *last) {
            return false;
        }
        entries.pop();
    }
    let at = entries.partition_point(|e| *e < key);
    entries.insert(at, key);
    true
}

/// Offer an ascending stream to [`offer_lowest`], stopping at the first
/// key that cannot enter.
fn merge_lowest<K: Ord>(entries: &mut Vec<K>, cap: usize, sorted: impl IntoIterator<Item = K>) {
    for key in sorted {
        if !offer_lowest(entries, cap, key) {
            break;
        }
    }
}

/// Whether the pair-sequence table may take `key`: it has room, or `key`
/// ranks at or below its largest key. A key refused by a full table can
/// never rejoin it (see [`PAIR_KEY_CAP`]), and neither can any larger one.
pub(crate) fn pair_key_fits(pair_seqs: &BTreeMap<(u64, u32), PairSeq>, key: &(u64, u32)) -> bool {
    pair_seqs.len() < PAIR_KEY_CAP
        || pair_seqs
            .last_key_value()
            .is_some_and(|(top, _)| key <= top)
}

/// Keep the lowest [`PAIR_KEY_CAP`] keys of a pair-sequence table.
pub(crate) fn cap_pair_keys(pair_seqs: &mut BTreeMap<(u64, u32), PairSeq>) {
    while pair_seqs.len() > PAIR_KEY_CAP {
        pair_seqs.pop_last();
    }
}

/// A deterministic mergeable sample: keep the `RESERVOIR_CAP` entries
/// with the lowest `(priority, value)` keys, where the priority is a
/// pure function of the flow ([`flow_priority`]) rather than of stream
/// order. The retained set is then a canonical multiset — the same for
/// any partition of the input and any merge order — which is what lets
/// per-PoP partials reproduce the single-machine CDF figures
/// byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reservoir<T> {
    /// Entries sorted ascending by `(priority, value)`.
    entries: Vec<(u64, T)>,
}

impl<T: Copy + Ord> Reservoir<T> {
    /// An empty reservoir.
    pub(crate) fn new() -> Reservoir<T> {
        Reservoir {
            entries: Vec::new(),
        }
    }

    /// Offer one sample; kept only while it ranks inside the lowest
    /// `RESERVOIR_CAP` keys seen so far. False when it did not enter a
    /// full reservoir (see [`offer_lowest`]).
    pub(crate) fn insert(&mut self, priority: u64, value: T) -> bool {
        offer_lowest(&mut self.entries, RESERVOIR_CAP, (priority, value))
    }

    /// Fold another reservoir in; keep-lowest-k of the union.
    pub(crate) fn merge(&mut self, other: &Reservoir<T>) {
        merge_lowest(
            &mut self.entries,
            RESERVOIR_CAP,
            other.entries.iter().copied(),
        );
    }

    /// Number of retained samples.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Retained sample values, in canonical `(priority, value)` order.
    pub(crate) fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.entries.iter().map(|e| e.1)
    }

    /// Retained `(priority, value)` entries, sorted ascending.
    pub(crate) fn entries(&self) -> &[(u64, T)] {
        &self.entries
    }
}

/// A per-(ip, domain) Post-PSH class sequence (Appendix B / Fig 10):
/// the first [`PAIR_SEQ_CAP`] observations in *time* order, kept as a
/// canonical lowest-`(timestamp, tie, code)` set so per-PoP partials
/// merge to exactly the single-machine sequence. The tie-breaker is
/// [`flow_priority`], a pure function of the flow, so ordering never
/// depends on which PoP saw the flow or in what order merges ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairSeq {
    /// Entries sorted ascending by `(timestamp, tie, code)`.
    entries: Vec<(u64, u64, u8)>,
}

impl PairSeq {
    /// Offer one observation.
    pub(crate) fn insert(&mut self, ts: u64, tie: u64, code: u8) {
        offer_lowest(&mut self.entries, PAIR_SEQ_CAP, (ts, tie, code));
    }

    /// Fold in observations given in ascending order; keep-lowest-k of
    /// the union.
    pub(crate) fn merge_sorted(&mut self, sorted: impl IntoIterator<Item = (u64, u64, u8)>) {
        merge_lowest(&mut self.entries, PAIR_SEQ_CAP, sorted);
    }

    /// Number of retained observations.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Class codes in time order.
    pub(crate) fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        self.entries.iter().map(|e| e.2)
    }

    /// Retained `(timestamp, tie, code)` entries, sorted ascending.
    pub(crate) fn entries(&self) -> &[(u64, u64, u8)] {
        &self.entries
    }

    /// Build from entries the reader has already checked for order and
    /// the capacity bound.
    pub(crate) fn from_entries(entries: Vec<(u64, u64, u8)>) -> PairSeq {
        PairSeq { entries }
    }
}

/// Map a signature to its Fig 10 class code (Post-PSH only).
pub(crate) fn postpsh_class_code(sig: Option<Signature>) -> Option<u8> {
    use Signature::*;
    Some(match sig {
        None => 0,
        Some(PshNone) => 1,
        Some(PshRst) => 2,
        Some(PshRstAck) => 3,
        Some(PshRstRstAck) => 4,
        Some(PshRstAckRstAck) => 5,
        Some(PshRstEq) => 6,
        Some(PshRstNeq) => 7,
        Some(PshRstZero) => 8,
        Some(
            SynNone | SynRst | SynRstAck | SynRstBoth | AckNone | AckRst | AckRstRst | AckRstAck
            | AckRstAckRstAck | DataRst | DataRstAck,
        ) => return None,
    })
}

/// Human label for a Fig 10 class code.
pub(crate) fn class_code_label(code: u8) -> &'static str {
    match code {
        0 => "Not Tampering",
        1 => Signature::PshNone.label(),
        2 => Signature::PshRst.label(),
        3 => Signature::PshRstAck.label(),
        4 => Signature::PshRstRstAck.label(),
        5 => Signature::PshRstAckRstAck.label(),
        6 => Signature::PshRstEq.label(),
        7 => Signature::PshRstNeq.label(),
        _ => Signature::PshRstZero.label(),
    }
}

fn stage_index(stage: Option<Stage>) -> usize {
    match stage {
        Some(Stage::PostSyn) => 0,
        Some(Stage::PostAck) => 1,
        Some(Stage::PostPsh) => 2,
        Some(Stage::PostData) => 3,
        None => 4,
    }
}

/// Deterministic per-flow sample priority: a `splitmix64` chain over the
/// flow's identity (client address, ports, session start, first logged
/// sequence number). Pure in the flow, so every PoP computes the same
/// priority for the same flow regardless of arrival order — the property
/// the mergeable reservoirs rest on.
pub(crate) fn flow_priority(lf: &LabeledFlow) -> u64 {
    let mut h = ip_key(lf.flow.client_ip);
    h = splitmix64(h ^ (u64::from(lf.flow.src_port) << 16) ^ u64::from(lf.flow.dst_port));
    h = splitmix64(h ^ lf.meta.start_unix);
    // Hashed as its offset from position zero, which is its wire value.
    let seq0 = lf
        .flow
        .packets
        .first()
        .map_or(0, |p| p.seq.offset_from(Seq::ZERO));
    splitmix64(h ^ u64::from(seq0))
}

/// Version of the fingerprint chain (bumped with the `.agg` format).
const FINGERPRINT_VERSION: u64 = 1;

/// Fingerprint of everything two partials must agree on before a merge
/// is meaningful: format version, classifier knobs, aggregation shape,
/// and the caller-supplied world salt (workload identity).
fn config_fingerprint(
    cfg: &ClassifierConfig,
    n_countries: usize,
    hours: usize,
    start_unix: u64,
    world_salt: u64,
) -> u64 {
    let mut h = splitmix64(FINGERPRINT_VERSION);
    for x in [
        cfg.inactivity_secs,
        u64::from(cfg.split_rst_counts),
        n_countries as u64,
        hours as u64,
        start_unix,
        world_salt,
        RESERVOIR_CAP as u64,
        N_CLASSES as u64,
        tamper_worldgen::BenignKind::ALL.len() as u64,
    ] {
        h = splitmix64(h ^ x);
    }
    h
}

/// The pure, serializable aggregation state: every counter and table the
/// report layer reads, with no classifier scratch attached. Produced by
/// [`crate::Collector`], encoded by [`crate::aggfile`], merged by
/// [`PartialAggregate::merge`].
#[derive(Clone)]
pub struct PartialAggregate {
    /// Classifier configuration the producing collector ran with.
    pub cfg: ClassifierConfig,
    pub(crate) n_countries: usize,
    pub(crate) hours: usize,
    pub(crate) start_unix: u64,
    pub(crate) fingerprint: u64,

    /// Total flows observed.
    pub total: u64,
    /// Possibly-tampered flows.
    pub possibly_tampered: u64,
    /// Possibly-tampered counts by sequence-type stage
    /// (PostSyn/PostAck/PostPsh/PostData/other).
    pub stage_counts: [u64; 5],
    /// Of those, how many matched a signature.
    pub stage_matched: [u64; 5],
    /// Per-country classification counts.
    pub country_class: Vec<[u64; N_CLASSES]>,
    /// Per-(country, asn) (total, matched-any-signature). Ordered map:
    /// report generators iterate this directly, and iteration order must
    /// not depend on hasher seeds.
    pub as_counts: BTreeMap<(u16, u32), (u64, u64)>,
    /// Per-country per-hour (total, matched Post-ACK/Post-PSH signature).
    pub country_hour: Vec<Vec<(u32, u32)>>,
    /// Global per-hour per-signature counts.
    pub sig_hour: Vec<[u32; 19]>,
    /// Global per-hour totals.
    pub hour_totals: Vec<u32>,
    /// Per-country per-IP-version (total, matched Post-ACK/Post-PSH).
    pub country_ipver: Vec<[(u64, u64); 2]>,
    /// Per-country per-protocol (HTTP=0, TLS=1): (total, matched Post-PSH).
    pub country_proto: Vec<[(u64, u64); 2]>,
    /// Per-(country, domain) cells. Ordered for deterministic reports.
    pub domain_cells: BTreeMap<(u16, u32), DomainCell>,
    /// IP-ID delta reservoirs per class (index 19 = Not Tampering).
    pub ipid_res: Vec<Reservoir<u32>>,
    /// TTL delta reservoirs per class.
    pub ttl_res: Vec<Reservoir<i16>>,

    // V3 baseline sanity counters.
    /// IPv4 flows with ≥2 IP-ID-bearing packets.
    pub ipid_flows: u64,
    /// ... whose minimum consecutive delta is ≤ 1.
    pub ipid_min_le1: u64,
    /// ... whose minimum consecutive delta is > 100.
    pub ipid_min_gt100: u64,
    /// Flows with ≥2 packets (TTL baseline).
    pub ttl_flows: u64,
    /// ... whose largest consecutive TTL change magnitude is ≤ 1.
    pub ttl_max_le1: u64,

    // V1 scanner counters.
    /// Flows matching ⟨SYN → RST⟩.
    pub syn_rst_total: u64,
    /// ... of which carry the ZMap fingerprint.
    pub syn_rst_zmap: u64,
    /// Flows with no TCP options on any packet.
    pub no_opt_flows: u64,
    /// Flows with any TTL ≥ 200.
    pub high_ttl_flows: u64,

    // V2 SYN-payload counters.
    /// Port-80 flows.
    pub port80_flows: u64,
    /// Port-80 flows whose SYN carried payload.
    pub port80_syn_payload: u64,
    /// Port-443 flows.
    pub port443_flows: u64,
    /// Port-443 flows whose SYN carried payload.
    pub port443_syn_payload: u64,
    /// SYN-payload counts per domain id. Ordered for deterministic reports.
    pub syn_payload_domains: BTreeMap<u32, u32>,

    /// Post-Data signature matches observed.
    pub postdata_matches: u64,
    /// ... whose HTTP payloads carry a commercial-firewall User-Agent.
    pub postdata_fw_ua: u64,
    /// Ground-truth confusion.
    pub truth: TruthStats,
    /// Benign-kind × classification-cell counts: which benign behaviours
    /// end up matching which signatures (the §4.2 false-positive anatomy,
    /// observable only in simulation). Indexed
    /// `[BenignKind::index()][class]` with the same class layout as
    /// [`PartialAggregate::country_class`].
    pub benign_attribution: Vec<[u64; N_CLASSES]>,
    /// Per-(ip, domain) Post-PSH class sequences (Appendix B / Fig 10):
    /// class codes 0 = Not Tampering, 1..=8 the Post-PSH signatures.
    /// Ordered for deterministic reports.
    pub pair_seqs: BTreeMap<(u64, u32), PairSeq>,
}

impl PartialAggregate {
    /// Create an empty aggregate for a world of `n_countries` over `days`,
    /// salted with a workload identity (0 for single-machine runs).
    pub fn with_salt(
        cfg: ClassifierConfig,
        n_countries: usize,
        days: u32,
        start_unix: u64,
        world_salt: u64,
    ) -> PartialAggregate {
        let hours = (days as usize) * 24;
        let fingerprint = config_fingerprint(&cfg, n_countries, hours, start_unix, world_salt);
        PartialAggregate::empty(cfg, n_countries, hours, start_unix, fingerprint)
    }

    /// An empty aggregate of the given shape, stamped with `fingerprint`.
    pub(crate) fn empty(
        cfg: ClassifierConfig,
        n_countries: usize,
        hours: usize,
        start_unix: u64,
        fingerprint: u64,
    ) -> PartialAggregate {
        PartialAggregate {
            cfg,
            n_countries,
            hours,
            start_unix,
            fingerprint,
            total: 0,
            possibly_tampered: 0,
            stage_counts: [0; 5],
            stage_matched: [0; 5],
            country_class: vec![[0; N_CLASSES]; n_countries],
            as_counts: BTreeMap::new(),
            country_hour: vec![vec![(0, 0); hours]; n_countries],
            sig_hour: vec![[0; 19]; hours],
            hour_totals: vec![0; hours],
            country_ipver: vec![[(0, 0); 2]; n_countries],
            country_proto: vec![[(0, 0); 2]; n_countries],
            domain_cells: BTreeMap::new(),
            ipid_res: vec![Reservoir::new(); 20],
            ttl_res: vec![Reservoir::new(); 20],
            ipid_flows: 0,
            ipid_min_le1: 0,
            ipid_min_gt100: 0,
            ttl_flows: 0,
            ttl_max_le1: 0,
            syn_rst_total: 0,
            syn_rst_zmap: 0,
            no_opt_flows: 0,
            high_ttl_flows: 0,
            port80_flows: 0,
            port80_syn_payload: 0,
            port443_flows: 0,
            port443_syn_payload: 0,
            syn_payload_domains: BTreeMap::new(),
            postdata_matches: 0,
            postdata_fw_ua: 0,
            truth: TruthStats::default(),
            benign_attribution: vec![[0; N_CLASSES]; tamper_worldgen::BenignKind::ALL.len()],
            pair_seqs: BTreeMap::new(),
        }
    }

    /// Number of countries this aggregate was sized for.
    pub(crate) fn n_countries(&self) -> usize {
        self.n_countries
    }

    /// Number of hourly buckets.
    pub fn hours(&self) -> usize {
        self.hours
    }

    /// First hour bucket's unix timestamp.
    pub(crate) fn start_unix(&self) -> u64 {
        self.start_unix
    }

    /// Config fingerprint two partials must share to merge.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Record a flow that was already classified.
    pub(crate) fn record(&mut self, lf: &LabeledFlow, a: &FlowAnalysis) {
        let c = lf.meta.country as usize;
        debug_assert!(c < self.n_countries);
        self.total += 1;
        let sig = a.signature();
        let class_idx = match (sig, a.is_possibly_tampered()) {
            (Some(s), _) => s.index(),
            (None, true) => CLASS_OTHER,
            (None, false) => CLASS_NOT_TAMPERED,
        };
        self.country_class[c][class_idx] += 1;

        let matched_any = sig.is_some();
        let matched_ackpsh = matches!(
            sig.map(|s| s.stage()),
            Some(Stage::PostAck) | Some(Stage::PostPsh)
        );
        let matched_psh = matches!(sig.map(|s| s.stage()), Some(Stage::PostPsh));

        if a.is_possibly_tampered() {
            self.possibly_tampered += 1;
            let si = stage_index(a.stage);
            self.stage_counts[si] += 1;
            if matched_any {
                self.stage_matched[si] += 1;
            }
        }

        // AS view.
        let as_key = (lf.meta.country, lf.meta.asn.0);
        let as_entry = self.as_counts.entry(as_key).or_insert((0, 0));
        as_entry.0 += 1;
        if matched_any {
            as_entry.1 += 1;
        }

        // Time series.
        let h = ((lf.meta.start_unix.saturating_sub(self.start_unix)) / 3600)
            .min(self.hours as u64 - 1) as usize;
        self.hour_totals[h] += 1;
        let ch = &mut self.country_hour[c][h];
        ch.0 += 1;
        if matched_ackpsh {
            ch.1 += 1;
        }
        if let Some(s) = sig {
            self.sig_hour[h][s.index()] += 1;
        }

        // IP version and protocol views.
        let v = usize::from(lf.meta.ipv6);
        self.country_ipver[c][v].0 += 1;
        if matched_ackpsh {
            self.country_ipver[c][v].1 += 1;
        }
        let p = usize::from(!lf.meta.http); // 0 = HTTP, 1 = TLS
        self.country_proto[c][p].0 += 1;
        if matched_psh {
            self.country_proto[c][p].1 += 1;
        }

        // Domain view (ground-truth domain labels mirror the paper's use
        // of the SNI/Host it observed or the CDN's own hostname records).
        if let Some(d) = lf.meta.domain {
            let cell = self.domain_cells.entry((lf.meta.country, d)).or_default();
            cell.seen += 1;
            if matched_psh {
                cell.psh_tampered += 1;
            }
        }

        // Evidence reservoirs (class 19 = Not Tampering baseline). The
        // sample priority is a pure function of the flow, so the kept set
        // is identical for any partition of the stream across PoPs.
        let res_idx = match sig {
            Some(s) => Some(s.index()),
            None if !a.is_possibly_tampered() => Some(19),
            None => None,
        };
        let ev = &a.evidence;
        if let Some(ri) = res_idx {
            let pri = flow_priority(lf);
            let delta = if ri == 19 {
                ev.max_consecutive_ipid
            } else {
                ev.max_rst_ipid
            };
            if let Some(d) = delta {
                self.ipid_res[ri].insert(pri, d);
            }
            let delta = if ri == 19 {
                ev.max_consecutive_ttl
            } else {
                ev.max_rst_ttl
            };
            if let Some(d) = delta {
                self.ttl_res[ri].insert(pri, d);
            }
        }

        // V3 baselines.
        if let Some(min) = ev.min_consecutive_ipid {
            self.ipid_flows += 1;
            if min <= 1 {
                self.ipid_min_le1 += 1;
            }
            if min > 100 {
                self.ipid_min_gt100 += 1;
            }
        }
        if let Some(max) = ev.max_consecutive_ttl {
            self.ttl_flows += 1;
            if max.abs() <= 1 {
                self.ttl_max_le1 += 1;
            }
        }

        // V1 scanner evidence.
        if sig == Some(Signature::SynRst) {
            self.syn_rst_total += 1;
            if is_zmap_fingerprint(&lf.flow) {
                self.syn_rst_zmap += 1;
            }
        }
        let marks = scanner_marks(&lf.flow);
        if marks.no_tcp_options {
            self.no_opt_flows += 1;
        }
        if marks.high_ttl {
            self.high_ttl_flows += 1;
        }

        // V2 SYN payloads.
        let syn_payload = lf
            .flow
            .packets
            .iter()
            .any(|pk| pk.flags.has_syn() && pk.payload_len > 0);
        if lf.flow.dst_port == 80 {
            self.port80_flows += 1;
            if syn_payload {
                self.port80_syn_payload += 1;
                if let Some(d) = lf.meta.domain {
                    *self.syn_payload_domains.entry(d).or_default() += 1;
                }
            }
        } else if lf.flow.dst_port == 443 {
            self.port443_flows += 1;
            if syn_payload {
                self.port443_syn_payload += 1;
            }
        }

        if matches!(sig.map(|s| s.stage()), Some(Stage::PostData)) {
            self.postdata_matches += 1;
            if user_agent(&lf.flow).is_some_and(|ua| ua == tamper_worldgen::FIREWALL_USER_AGENT) {
                self.postdata_fw_ua += 1;
            }
        }

        if let tamper_worldgen::GroundTruth::Benign(kind) = lf.meta.truth {
            self.benign_attribution[kind.index()][class_idx] += 1;
        }

        // Ground truth confusion.
        match (lf.meta.truth.was_tampered(), a.is_possibly_tampered()) {
            (true, true) => {
                self.truth.true_positive += 1;
                if matched_any {
                    self.truth.matched_signature += 1;
                }
            }
            (true, false) => self.truth.false_negative += 1,
            (false, true) => self.truth.false_positive += 1,
            (false, false) => self.truth.true_negative += 1,
        }

        // Appendix B pairs: Post-PSH classes with a visible domain. Kept
        // as the first PAIR_SEQ_CAP observations in (time, tie) order —
        // canonical under any partition/merge shape.
        if let (Some(code), Some(domain)) = (postpsh_class_code(sig), lf.meta.domain) {
            let in_scope = code != 0 || a.trigger.domain.is_some();
            if in_scope {
                let key = (ip_key(lf.flow.client_ip), domain);
                if pair_key_fits(&self.pair_seqs, &key) {
                    self.pair_seqs.entry(key).or_default().insert(
                        lf.meta.start_unix,
                        flow_priority(lf),
                        code,
                    );
                    cap_pair_keys(&mut self.pair_seqs);
                }
            }
        }
    }

    /// The V1–V3 evidence counters, in `.agg` body order.
    pub(crate) fn evidence_counters_mut(&mut self) -> [&mut u64; 13] {
        [
            &mut self.ipid_flows,
            &mut self.ipid_min_le1,
            &mut self.ipid_min_gt100,
            &mut self.ttl_flows,
            &mut self.ttl_max_le1,
            &mut self.syn_rst_total,
            &mut self.syn_rst_zmap,
            &mut self.no_opt_flows,
            &mut self.high_ttl_flows,
            &mut self.port80_flows,
            &mut self.port80_syn_payload,
            &mut self.port443_flows,
            &mut self.port443_syn_payload,
        ]
    }

    /// Merge another partial (same fingerprint) into this one. Exact sums
    /// for counters, keep-lowest-k set union for reservoirs and pair
    /// sequences — associative, commutative, and order-insensitive. The
    /// `.agg` reader (`aggfile::fold`) applies the same rules table by
    /// table.
    pub fn merge(&mut self, mut other: PartialAggregate) {
        assert_eq!(
            self.fingerprint, other.fingerprint,
            "merging partial aggregates with different config fingerprints"
        );
        let evidence = other.evidence_counters_mut().map(|c| *c);
        let mut over = self.total.add(other.total)
            | self.possibly_tampered.add(other.possibly_tampered)
            | self.stage_counts.add(other.stage_counts)
            | self.stage_matched.add(other.stage_matched)
            | add_cells(&mut self.country_class, other.country_class);
        for (k, v) in other.as_counts {
            over |= add_keyed(&mut self.as_counts, k, v);
        }
        for (a, b) in self.country_hour.iter_mut().zip(other.country_hour) {
            over |= add_cells(a, b);
        }
        over |= add_cells(&mut self.sig_hour, other.sig_hour)
            | add_cells(&mut self.hour_totals, other.hour_totals)
            | add_cells(&mut self.country_ipver, other.country_ipver)
            | add_cells(&mut self.country_proto, other.country_proto);
        for (k, v) in other.domain_cells {
            over |= add_keyed(&mut self.domain_cells, k, v);
        }
        for (a, b) in self.ipid_res.iter_mut().zip(&other.ipid_res) {
            a.merge(b);
        }
        for (a, b) in self.ttl_res.iter_mut().zip(&other.ttl_res) {
            a.merge(b);
        }
        for (a, b) in self.evidence_counters_mut().into_iter().zip(evidence) {
            over |= a.add(b);
        }
        for (k, v) in other.syn_payload_domains {
            over |= add_keyed(&mut self.syn_payload_domains, k, v);
        }
        over |= self.truth.add(other.truth)
            | self.postdata_matches.add(other.postdata_matches)
            | self.postdata_fw_ua.add(other.postdata_fw_ua)
            | add_cells(&mut self.benign_attribution, other.benign_attribution);
        // Lowest-K of a union of lowest-Ks is the lowest-K of the union, so
        // merge order cannot change the result.
        for (k, v) in other.pair_seqs {
            // Keys ascend: once one is refused, every later one would be.
            if !pair_key_fits(&self.pair_seqs, &k) {
                break;
            }
            match self.pair_seqs.entry(k) {
                Entry::Vacant(e) => {
                    e.insert(v);
                }
                Entry::Occupied(mut e) => e.get_mut().merge_sorted(v.entries),
            }
            cap_pair_keys(&mut self.pair_seqs);
        }
        debug_assert!(!over, "partial aggregate counter overflow");
    }

    /// Global count for a signature.
    pub fn signature_total(&self, sig: Signature) -> u64 {
        self.country_class.iter().map(|c| c[sig.index()]).sum()
    }

    /// Per-country totals over all classes.
    pub fn country_total(&self, country: usize) -> u64 {
        self.country_class[country].iter().sum()
    }

    /// Per-country count of flows matching any signature.
    pub fn country_matched(&self, country: usize) -> u64 {
        self.country_class[country][..19].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_lowest_k_in_canonical_order() {
        let mut r: Reservoir<u32> = Reservoir::new();
        // Insert priorities high-to-low; only the lowest RESERVOIR_CAP stay.
        for p in (0..(RESERVOIR_CAP as u64 + 500)).rev() {
            r.insert(p, (p % 7) as u32);
        }
        assert_eq!(r.len(), RESERVOIR_CAP);
        let pris: Vec<u64> = r.entries().iter().map(|e| e.0).collect();
        assert!(pris.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(pris.first(), Some(&0));
        assert_eq!(pris.last(), Some(&(RESERVOIR_CAP as u64 - 1)));
    }

    #[test]
    fn reservoir_merge_is_order_insensitive() {
        let samples: Vec<(u64, u32)> = (0..3000u64)
            .map(|i| (splitmix64(i), (i % 101) as u32))
            .collect();
        // One-shot fold.
        let mut whole: Reservoir<u32> = Reservoir::new();
        for &(p, v) in &samples {
            whole.insert(p, v);
        }
        // Three partitions merged in reverse order.
        let mut parts: Vec<Reservoir<u32>> = vec![Reservoir::new(); 3];
        for (i, &(p, v)) in samples.iter().enumerate() {
            parts[i % 3].insert(p, v);
        }
        let mut merged = Reservoir::new();
        for part in parts.iter().rev() {
            merged.merge(part);
        }
        assert_eq!(whole, merged);
    }

    #[test]
    fn merge_keeps_the_lowest_pair_keys_in_either_order() {
        // Two partials that together hold PAIR_KEY_CAP + 100 distinct keys,
        // interleaved so both contribute to the kept set.
        let keys: Vec<(u64, u32)> = (0..PAIR_KEY_CAP as u64 + 100)
            .map(|i| (splitmix64(i), (i % 3) as u32))
            .collect();
        let empty = PartialAggregate::with_salt(ClassifierConfig::default(), 1, 1, 0, 0);
        let (mut a, mut b) = (empty.clone(), empty);
        for (i, &key) in keys.iter().enumerate() {
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.pair_seqs
                .entry(key)
                .or_default()
                .insert(i as u64, 0, 1);
        }
        let mut want = keys;
        want.sort_unstable();
        want.truncate(PAIR_KEY_CAP);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b);
        ba.merge(a);
        for merged in [&ab, &ba] {
            let got: Vec<(u64, u32)> = merged.pair_seqs.keys().copied().collect();
            assert_eq!(got, want);
        }
        assert_eq!(ab.pair_seqs, ba.pair_seqs);
    }

    #[test]
    fn pair_seq_keeps_time_order_and_caps() {
        let mut s = PairSeq::default();
        for i in (0..20u64).rev() {
            s.insert(i, splitmix64(i), (i % 9) as u8);
        }
        assert_eq!(s.len(), PAIR_SEQ_CAP);
        let ts: Vec<u64> = s.entries().iter().map(|e| e.0).collect();
        assert_eq!(ts, (0..PAIR_SEQ_CAP as u64).collect::<Vec<_>>());
    }
}
