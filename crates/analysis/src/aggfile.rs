//! The `.agg` on-disk format: a versioned, length-prefixed binary
//! encoding of one [`PartialAggregate`], written by `tamperscope
//! pop-run` and read back by `tamperscope merge`.
//!
//! Layout (all integers big-endian, matching the wire crate):
//!
//! ```text
//! magic    4 bytes  "TAGG"
//! version  u16      AGG_FORMAT_VERSION
//! fprint   u64      config fingerprint (merge compatibility gate)
//! body_len u64      exact byte length of the body that follows
//! body     ...      shape header, counters, tables, reservoirs
//! ```
//!
//! Decoding is fail-closed in the `wire::Reader` discipline: every read
//! is bounds-checked, every length is validated against its cap before
//! use, ordered tables must arrive strictly sorted (the canonical form
//! `encode` emits), and any violation is a named [`AggError`] — never a
//! panic, no matter the bytes. `tests/fail_closed.rs` holds it to that
//! (and to a heap bound) over mutated encodings, and this module sits
//! inside the tamperlint `panic`/`index` scopes.

use std::collections::BTreeMap;

use tamper_core::ClassifierConfig;
use tamper_wire::{Reader, WireError};

use crate::agg::{
    DomainCell, PairSeq, PartialAggregate, Reservoir, TruthStats, N_CLASSES, PAIR_KEY_CAP,
    PAIR_SEQ_CAP, RESERVOIR_CAP,
};

/// File magic: "TAGG".
pub(crate) const AGG_MAGIC: [u8; 4] = *b"TAGG";
/// Current format version.
pub(crate) const AGG_FORMAT_VERSION: u16 = 1;

/// Named decode/merge failures; each maps to CLI exit 2 with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggError {
    /// The file does not start with the `.agg` magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// Partials were produced under different configurations (classifier
    /// knobs, world shape, or workload salt) and must not be merged.
    ConfigMismatch,
    /// The input ended before the structure it promised.
    Truncated,
    /// The bytes violate a structural invariant of the format.
    Malformed(&'static str),
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::BadMagic => write!(f, "not a .agg file (bad magic)"),
            AggError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .agg format version {v} (this build reads {AGG_FORMAT_VERSION})"
                )
            }
            AggError::ConfigMismatch => {
                write!(f, "config fingerprint mismatch: partials are not mergeable")
            }
            AggError::Truncated => write!(f, "truncated .agg input"),
            AggError::Malformed(what) => write!(f, "malformed .agg input: {what}"),
        }
    }
}

impl std::error::Error for AggError {}

impl From<WireError> for AggError {
    fn from(e: WireError) -> AggError {
        match e {
            WireError::Truncated => AggError::Truncated,
            _ => AggError::Malformed("wire-level error"),
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Encode one partial aggregate into the `.agg` byte format. The output
/// is canonical: equal aggregates encode to equal bytes.
pub fn encode(agg: &PartialAggregate) -> Vec<u8> {
    let mut body = Vec::new();

    // Shape header.
    put_u64(&mut body, agg.cfg.inactivity_secs);
    body.push(u8::from(agg.cfg.split_rst_counts));
    put_u32(&mut body, agg.n_countries() as u32);
    put_u32(&mut body, agg.hours() as u32);
    put_u64(&mut body, agg.start_unix());

    // Scalars.
    put_u64(&mut body, agg.total);
    put_u64(&mut body, agg.possibly_tampered);
    for v in agg.stage_counts {
        put_u64(&mut body, v);
    }
    for v in agg.stage_matched {
        put_u64(&mut body, v);
    }

    // Dense tables.
    for row in &agg.country_class {
        for v in row {
            put_u64(&mut body, *v);
        }
    }
    put_u32(&mut body, agg.as_counts.len() as u32);
    for (&(country, asn), &(total, matched)) in &agg.as_counts {
        put_u16(&mut body, country);
        put_u32(&mut body, asn);
        put_u64(&mut body, total);
        put_u64(&mut body, matched);
    }
    for row in &agg.country_hour {
        for &(total, matched) in row {
            put_u32(&mut body, total);
            put_u32(&mut body, matched);
        }
    }
    for row in &agg.sig_hour {
        for v in row {
            put_u32(&mut body, *v);
        }
    }
    for v in &agg.hour_totals {
        put_u32(&mut body, *v);
    }
    for row in &agg.country_ipver {
        for &(total, matched) in row {
            put_u64(&mut body, total);
            put_u64(&mut body, matched);
        }
    }
    for row in &agg.country_proto {
        for &(total, matched) in row {
            put_u64(&mut body, total);
            put_u64(&mut body, matched);
        }
    }
    put_u32(&mut body, agg.domain_cells.len() as u32);
    for (&(country, domain), cell) in &agg.domain_cells {
        put_u16(&mut body, country);
        put_u32(&mut body, domain);
        put_u32(&mut body, cell.seen);
        put_u32(&mut body, cell.psh_tampered);
    }

    // Reservoirs: canonical (priority, value) entries, sorted ascending.
    for res in &agg.ipid_res {
        put_u32(&mut body, res.len() as u32);
        for &(pri, v) in res.entries() {
            put_u64(&mut body, pri);
            put_u32(&mut body, v);
        }
    }
    for res in &agg.ttl_res {
        put_u32(&mut body, res.len() as u32);
        for &(pri, v) in res.entries() {
            put_u64(&mut body, pri);
            put_u16(&mut body, v as u16);
        }
    }

    // Baseline and scanner counters.
    for v in [
        agg.ipid_flows,
        agg.ipid_min_le1,
        agg.ipid_min_gt100,
        agg.ttl_flows,
        agg.ttl_max_le1,
        agg.syn_rst_total,
        agg.syn_rst_zmap,
        agg.no_opt_flows,
        agg.high_ttl_flows,
        agg.port80_flows,
        agg.port80_syn_payload,
        agg.port443_flows,
        agg.port443_syn_payload,
    ] {
        put_u64(&mut body, v);
    }
    put_u32(&mut body, agg.syn_payload_domains.len() as u32);
    for (&domain, &count) in &agg.syn_payload_domains {
        put_u32(&mut body, domain);
        put_u32(&mut body, count);
    }
    put_u64(&mut body, agg.postdata_matches);
    put_u64(&mut body, agg.postdata_fw_ua);
    for v in [
        agg.truth.true_positive,
        agg.truth.false_negative,
        agg.truth.false_positive,
        agg.truth.true_negative,
        agg.truth.matched_signature,
    ] {
        put_u64(&mut body, v);
    }

    put_u32(&mut body, agg.benign_attribution.len() as u32);
    for row in &agg.benign_attribution {
        for v in row {
            put_u64(&mut body, *v);
        }
    }

    put_u32(&mut body, agg.pair_seqs.len() as u32);
    for (&(ip, domain), seq) in &agg.pair_seqs {
        put_u64(&mut body, ip);
        put_u32(&mut body, domain);
        body.push(seq.len() as u8);
        for &(ts, tie, code) in seq.entries() {
            put_u64(&mut body, ts);
            put_u64(&mut body, tie);
            body.push(code);
        }
    }

    let mut out = Vec::with_capacity(4 + 2 + 8 + 8 + body.len());
    out.extend_from_slice(&AGG_MAGIC);
    put_u16(&mut out, AGG_FORMAT_VERSION);
    put_u64(&mut out, agg.fingerprint());
    put_u64(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// Read `n` `u64` values into a fixed array without indexing.
fn fill_u64<const N: usize>(r: &mut Reader) -> Result<[u64; N], AggError> {
    let mut out = [0u64; N];
    for slot in out.iter_mut() {
        *slot = r.u64()?;
    }
    Ok(out)
}

fn read_u32_row<const N: usize>(r: &mut Reader) -> Result<[u32; N], AggError> {
    let mut out = [0u32; N];
    for slot in out.iter_mut() {
        *slot = r.u32()?;
    }
    Ok(out)
}

fn read_pairs_u32(r: &mut Reader, n: usize) -> Result<Vec<(u32, u32)>, AggError> {
    let mut out = Vec::new();
    for _ in 0..n {
        let a = r.u32()?;
        let b = r.u32()?;
        out.push((a, b));
    }
    Ok(out)
}

fn read_pairs2_u64(r: &mut Reader) -> Result<[(u64, u64); 2], AggError> {
    let mut out = [(0u64, 0u64); 2];
    for slot in out.iter_mut() {
        let a = r.u64()?;
        let b = r.u64()?;
        *slot = (a, b);
    }
    Ok(out)
}

fn read_ipid_reservoir(r: &mut Reader) -> Result<Reservoir<u32>, AggError> {
    let n = r.u32()? as usize;
    if n > RESERVOIR_CAP {
        return Err(AggError::Malformed("reservoir over capacity"));
    }
    let mut entries = Vec::new();
    for _ in 0..n {
        let pri = r.u64()?;
        let v = r.u32()?;
        if let Some(last) = entries.last() {
            if *last >= (pri, v) {
                return Err(AggError::Malformed("reservoir entries out of order"));
            }
        }
        entries.push((pri, v));
    }
    Ok(Reservoir::from_entries(entries))
}

fn read_ttl_reservoir(r: &mut Reader) -> Result<Reservoir<i16>, AggError> {
    let n = r.u32()? as usize;
    if n > RESERVOIR_CAP {
        return Err(AggError::Malformed("reservoir over capacity"));
    }
    let mut entries = Vec::new();
    for _ in 0..n {
        let pri = r.u64()?;
        let v = r.u16()? as i16;
        if let Some(last) = entries.last() {
            if *last >= (pri, v) {
                return Err(AggError::Malformed("reservoir entries out of order"));
            }
        }
        entries.push((pri, v));
    }
    Ok(Reservoir::from_entries(entries))
}

/// Decode one `.agg` buffer, fail-closed. Returns the partial aggregate
/// with the fingerprint the producer stamped into the header; callers
/// that merge must compare fingerprints (see
/// [`merge_checked`]).
pub fn decode(bytes: &[u8]) -> Result<PartialAggregate, AggError> {
    let mut r = Reader::new(bytes);
    if r.array::<4>().map_err(|_| AggError::BadMagic)? != AGG_MAGIC {
        return Err(AggError::BadMagic);
    }
    let version = r.u16()?;
    if version != AGG_FORMAT_VERSION {
        return Err(AggError::UnsupportedVersion(version));
    }
    let fingerprint = r.u64()?;
    let body_len = r.u64()?;
    if body_len != r.remaining() as u64 {
        return Err(AggError::Truncated);
    }

    // Shape header.
    let inactivity_secs = r.u64()?;
    let split_rst_counts = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(AggError::Malformed("bad bool")),
    };
    let cfg = ClassifierConfig {
        inactivity_secs,
        split_rst_counts,
    };
    let n_countries = r.u32()? as usize;
    let hours = r.u32()? as usize;
    let start_unix = r.u64()?;

    let total = r.u64()?;
    let possibly_tampered = r.u64()?;
    let stage_counts: [u64; 5] = fill_u64(&mut r)?;
    let stage_matched: [u64; 5] = fill_u64(&mut r)?;

    let mut country_class = Vec::new();
    for _ in 0..n_countries {
        country_class.push(fill_u64::<N_CLASSES>(&mut r)?);
    }

    let n_as = r.u32()? as usize;
    let mut as_counts: BTreeMap<(u16, u32), (u64, u64)> = BTreeMap::new();
    for _ in 0..n_as {
        let country = r.u16()?;
        let asn = r.u32()?;
        let t = r.u64()?;
        let m = r.u64()?;
        let key = (country, asn);
        if let Some((last, _)) = as_counts.last_key_value() {
            if *last >= key {
                return Err(AggError::Malformed("as_counts keys out of order"));
            }
        }
        as_counts.insert(key, (t, m));
    }

    let mut country_hour = Vec::new();
    for _ in 0..n_countries {
        country_hour.push(read_pairs_u32(&mut r, hours)?);
    }
    let mut sig_hour = Vec::new();
    for _ in 0..hours {
        sig_hour.push(read_u32_row::<19>(&mut r)?);
    }
    let mut hour_totals = Vec::new();
    for _ in 0..hours {
        hour_totals.push(r.u32()?);
    }
    let mut country_ipver = Vec::new();
    for _ in 0..n_countries {
        country_ipver.push(read_pairs2_u64(&mut r)?);
    }
    let mut country_proto = Vec::new();
    for _ in 0..n_countries {
        country_proto.push(read_pairs2_u64(&mut r)?);
    }

    let n_cells = r.u32()? as usize;
    let mut domain_cells: BTreeMap<(u16, u32), DomainCell> = BTreeMap::new();
    for _ in 0..n_cells {
        let country = r.u16()?;
        let domain = r.u32()?;
        let seen = r.u32()?;
        let psh_tampered = r.u32()?;
        let key = (country, domain);
        if let Some((last, _)) = domain_cells.last_key_value() {
            if *last >= key {
                return Err(AggError::Malformed("domain_cells keys out of order"));
            }
        }
        domain_cells.insert(key, DomainCell { seen, psh_tampered });
    }

    let mut ipid_res = Vec::new();
    for _ in 0..20 {
        ipid_res.push(read_ipid_reservoir(&mut r)?);
    }
    let mut ttl_res = Vec::new();
    for _ in 0..20 {
        ttl_res.push(read_ttl_reservoir(&mut r)?);
    }

    let [ipid_flows, ipid_min_le1, ipid_min_gt100, ttl_flows, ttl_max_le1, syn_rst_total, syn_rst_zmap, no_opt_flows, high_ttl_flows, port80_flows, port80_syn_payload, port443_flows, port443_syn_payload] =
        fill_u64::<13>(&mut r)?;

    let n_spd = r.u32()? as usize;
    let mut syn_payload_domains: BTreeMap<u32, u32> = BTreeMap::new();
    for _ in 0..n_spd {
        let domain = r.u32()?;
        let count = r.u32()?;
        if let Some((last, _)) = syn_payload_domains.last_key_value() {
            if *last >= domain {
                return Err(AggError::Malformed("syn_payload_domains out of order"));
            }
        }
        syn_payload_domains.insert(domain, count);
    }

    let postdata_matches = r.u64()?;
    let postdata_fw_ua = r.u64()?;
    let [true_positive, false_negative, false_positive, true_negative, matched_signature] =
        fill_u64::<5>(&mut r)?;
    let truth = TruthStats {
        true_positive,
        false_negative,
        false_positive,
        true_negative,
        matched_signature,
    };

    let n_kinds = r.u32()? as usize;
    if n_kinds != tamper_worldgen::BenignKind::ALL.len() {
        return Err(AggError::Malformed("benign-kind count mismatch"));
    }
    let mut benign_attribution = Vec::new();
    for _ in 0..n_kinds {
        benign_attribution.push(fill_u64::<N_CLASSES>(&mut r)?);
    }

    let n_pairs = r.u32()? as usize;
    let mut pair_seqs: BTreeMap<(u64, u32), PairSeq> = BTreeMap::new();
    for _ in 0..n_pairs {
        let ip = r.u64()?;
        let domain = r.u32()?;
        let key = (ip, domain);
        if let Some((last, _)) = pair_seqs.last_key_value() {
            if *last >= key {
                return Err(AggError::Malformed("pair_seqs keys out of order"));
            }
        }
        let n = r.u8()? as usize;
        if n > PAIR_SEQ_CAP {
            return Err(AggError::Malformed("pair sequence over capacity"));
        }
        let mut entries = Vec::new();
        for _ in 0..n {
            let ts = r.u64()?;
            let tie = r.u64()?;
            let code = r.u8()?;
            if let Some(last) = entries.last() {
                if *last >= (ts, tie, code) {
                    return Err(AggError::Malformed("pair sequence out of order"));
                }
            }
            entries.push((ts, tie, code));
        }
        pair_seqs.insert(key, PairSeq::from_entries(entries));
    }
    // `record` and `merge` both keep at most PAIR_KEY_CAP keys, so a longer
    // table was not written by this pipeline.
    if pair_seqs.len() > PAIR_KEY_CAP {
        return Err(AggError::Malformed("pair_seqs over key capacity"));
    }

    if !r.is_empty() {
        return Err(AggError::Malformed("trailing bytes after body"));
    }

    let mut agg = PartialAggregate::new(cfg, n_countries, 0, start_unix);
    agg.hours = hours;
    agg.fingerprint = fingerprint;
    agg.total = total;
    agg.possibly_tampered = possibly_tampered;
    agg.stage_counts = stage_counts;
    agg.stage_matched = stage_matched;
    agg.country_class = country_class;
    agg.as_counts = as_counts;
    agg.country_hour = country_hour;
    agg.sig_hour = sig_hour;
    agg.hour_totals = hour_totals;
    agg.country_ipver = country_ipver;
    agg.country_proto = country_proto;
    agg.domain_cells = domain_cells;
    agg.ipid_res = ipid_res;
    agg.ttl_res = ttl_res;
    agg.ipid_flows = ipid_flows;
    agg.ipid_min_le1 = ipid_min_le1;
    agg.ipid_min_gt100 = ipid_min_gt100;
    agg.ttl_flows = ttl_flows;
    agg.ttl_max_le1 = ttl_max_le1;
    agg.syn_rst_total = syn_rst_total;
    agg.syn_rst_zmap = syn_rst_zmap;
    agg.no_opt_flows = no_opt_flows;
    agg.high_ttl_flows = high_ttl_flows;
    agg.port80_flows = port80_flows;
    agg.port80_syn_payload = port80_syn_payload;
    agg.port443_flows = port443_flows;
    agg.port443_syn_payload = port443_syn_payload;
    agg.syn_payload_domains = syn_payload_domains;
    agg.postdata_matches = postdata_matches;
    agg.postdata_fw_ua = postdata_fw_ua;
    agg.truth = truth;
    agg.benign_attribution = benign_attribution;
    agg.pair_seqs = pair_seqs;
    Ok(agg)
}

/// Merge `other` into `acc` after checking fingerprint compatibility;
/// the fallible front door for decoded partials (the CLI path).
pub fn merge_checked(acc: &mut PartialAggregate, other: PartialAggregate) -> Result<(), AggError> {
    if acc.fingerprint() != other.fingerprint() {
        return Err(AggError::ConfigMismatch);
    }
    if acc.n_countries() != other.n_countries()
        || acc.hours() != other.hours()
        || acc.start_unix() != other.start_unix()
    {
        return Err(AggError::ConfigMismatch);
    }
    acc.merge(other);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PartialAggregate {
        let mut agg = PartialAggregate::new(ClassifierConfig::default(), 3, 1, 1_663_027_200);
        agg.total = 42;
        agg.possibly_tampered = 7;
        agg.country_class[1][2] = 5;
        agg.as_counts.insert((1, 13335), (10, 2));
        agg.domain_cells.insert(
            (2, 9),
            DomainCell {
                seen: 4,
                psh_tampered: 1,
            },
        );
        agg.ipid_res[19].insert(11, 100);
        agg.ipid_res[19].insert(5, 7);
        agg.ttl_res[0].insert(3, -4);
        agg.syn_payload_domains.insert(8, 3);
        agg.truth.true_positive = 6;
        agg.benign_attribution[2][3] = 9;
        let seq = agg.pair_seqs.entry((77, 8)).or_default();
        seq.insert(1000, 2, 1);
        seq.insert(900, 1, 0);
        agg
    }

    #[test]
    fn round_trip_preserves_bytes() {
        let agg = sample();
        let bytes = encode(&agg);
        let back = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes);
        assert_eq!(back.total, 42);
        assert_eq!(back.fingerprint(), agg.fingerprint());
        assert_eq!(back.pair_seqs.len(), 1);
    }

    #[test]
    fn bad_magic_and_future_version_are_named() {
        let mut bytes = encode(&sample());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        match decode(&wrong) {
            Err(AggError::BadMagic) => {}
            other => panic!("expected BadMagic, got {:?}", other.err()),
        }
        bytes[4] = 0xFF; // version hi byte
        match decode(&bytes) {
            Err(AggError::UnsupportedVersion(v)) => assert_eq!(v, 0xFF01),
            other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
        }
    }

    #[test]
    fn pair_table_over_key_capacity_is_a_named_error() {
        let mut agg = sample();
        agg.pair_seqs.clear();
        for ip in 0..PAIR_KEY_CAP as u64 {
            agg.pair_seqs.entry((ip, 1)).or_default().insert(ip, 0, 1);
        }
        // A full table decodes …
        let at_cap = decode(&encode(&agg)).unwrap();
        assert_eq!(at_cap.pair_seqs.len(), PAIR_KEY_CAP);
        // … one key more does not.
        agg.pair_seqs
            .entry((u64::MAX, 1))
            .or_default()
            .insert(0, 0, 1);
        match decode(&encode(&agg)) {
            Err(AggError::Malformed("pair_seqs over key capacity")) => {}
            other => panic!("expected the key-capacity error, got {:?}", other.err()),
        }
    }

    #[test]
    fn merge_checked_rejects_mismatched_fingerprints() {
        let mut a = sample();
        let b = PartialAggregate::with_salt(ClassifierConfig::default(), 3, 1, 1_663_027_200, 99);
        match merge_checked(&mut a, b) {
            Err(AggError::ConfigMismatch) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
