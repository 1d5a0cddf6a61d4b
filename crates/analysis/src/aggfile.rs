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
//! [`fold`] is the one parser: it adds a file's tables straight into an
//! accumulator, with no aggregate of its own. It checks the header —
//! magic, version, body length, fingerprint and shape — against the
//! accumulator before it touches it, so a refused header leaves the
//! accumulator as it was. After an error in the body the accumulator
//! holds part of the file and is unspecified; `merge` exits 2 and drops
//! it. [`decode`] is a fold into an empty aggregate of the header's shape.
//!
//! Reading is fail-closed in the `wire::Reader` discipline: every read
//! is bounds-checked, every length is validated against its cap before
//! use, ordered tables must arrive strictly sorted (the canonical form
//! `encode` emits), and any violation is a named [`AggError`] — never a
//! panic, no matter the bytes. `tests/fail_closed.rs` holds it to that
//! (and to a heap bound) over mutated encodings, and this module sits
//! inside the tamperlint `panic`/`index` scopes.

use std::collections::btree_map::Entry;

use tamper_core::ClassifierConfig;
use tamper_wire::{Reader, WireError};

use crate::agg::{
    add_keyed, cap_pair_keys, pair_key_fits, Count, DomainCell, PairSeq, PartialAggregate,
    Reservoir, TruthStats, N_CLASSES, PAIR_CLASSES, PAIR_KEY_CAP, PAIR_SEQ_CAP, RESERVOIR_CAP,
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
    ConfigMismatch {
        /// The fingerprint the refused partial carries.
        file: u64,
    },
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
            AggError::ConfigMismatch { .. } => {
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

/// A counter cell as the body stores it: `W` big-endian bytes.
trait Cell<const W: usize>: Count {
    fn from_be(bytes: &[u8; W]) -> Self;
}

impl Cell<4> for u32 {
    fn from_be(bytes: &[u8; 4]) -> u32 {
        u32::from_be_bytes(*bytes)
    }
}

impl Cell<8> for u64 {
    fn from_be(bytes: &[u8; 8]) -> u64 {
        u64::from_be_bytes(*bytes)
    }
}

impl Cell<8> for (u32, u32) {
    fn from_be(bytes: &[u8; 8]) -> (u32, u32) {
        let [hi @ .., _, _, _, _] = *bytes;
        let [_, _, _, _, lo @ ..] = *bytes;
        (u32::from_be_bytes(hi), u32::from_be_bytes(lo))
    }
}

impl Cell<16> for (u64, u64) {
    fn from_be(bytes: &[u8; 16]) -> (u64, u64) {
        let [hi @ .., _, _, _, _, _, _, _, _] = *bytes;
        let [_, _, _, _, _, _, _, _, lo @ ..] = *bytes;
        (u64::from_be_bytes(hi), u64::from_be_bytes(lo))
    }
}

/// Add one dense row, read as a single bounds-checked slice, into `dst`;
/// true if a cell overflowed. Most cells of a partial are zero, and adding
/// zero changes nothing, so an all-zero cell is neither decoded nor added.
fn add_row<const W: usize, T: Cell<W>>(r: &mut Reader, dst: &mut [T]) -> Result<bool, AggError> {
    let len = dst.len().checked_mul(W).ok_or(AggError::Truncated)?;
    let (cells, _) = r.take(len)?.as_chunks::<W>();
    Ok(dst
        .iter_mut()
        .zip(cells)
        .filter(|(_, cell)| **cell != [0; W])
        .fold(false, |over, (a, cell)| a.add(T::from_be(cell)) | over))
}

/// Check that an index read from the file (a country, a domain id, a
/// class code) lies below the number of things it indexes.
fn below(index: usize, bound: usize, what: &'static str) -> Result<(), AggError> {
    if index < bound {
        Ok(())
    } else {
        Err(AggError::Malformed(what))
    }
}

/// Add one scalar counter into `dst`; true on overflow.
fn add_u64(r: &mut Reader, dst: &mut u64) -> Result<bool, AggError> {
    Ok(dst.add(r.u64()?))
}

/// Check that `key` follows `last` in strictly increasing order.
fn ascending<K: Ord + Copy>(
    last: &mut Option<K>,
    key: K,
    what: &'static str,
) -> Result<(), AggError> {
    if last.is_some_and(|l| l >= key) {
        return Err(AggError::Malformed(what));
    }
    *last = Some(key);
    Ok(())
}

/// Offer one reservoir's entries to `res` as they are read: at most
/// `RESERVOIR_CAP`, strictly ascending. Offering stops at the first entry
/// that cannot enter, but every entry is still read and checked.
fn fold_reservoir<T: Copy + Ord>(
    r: &mut Reader,
    res: &mut Reservoir<T>,
    value: fn(&mut Reader) -> Result<T, WireError>,
) -> Result<(), AggError> {
    let n = r.u32()? as usize;
    if n > RESERVOIR_CAP {
        return Err(AggError::Malformed("reservoir over capacity"));
    }
    let (mut last, mut open) = (None, true);
    for _ in 0..n {
        let entry = (r.u64()?, value(r)?);
        ascending(&mut last, entry, "reservoir entries out of order")?;
        open = open && res.insert(entry.0, entry.1);
    }
    Ok(())
}

/// The header and shape block every `.agg` file opens with.
struct Header {
    fingerprint: u64,
    cfg: ClassifierConfig,
    n_countries: usize,
    hours: usize,
    start_unix: u64,
}

impl Header {
    /// Read the header and the shape block; `r` is left at the counters.
    fn read(r: &mut Reader) -> Result<Header, AggError> {
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
        let inactivity_secs = r.u64()?;
        let split_rst_counts = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(AggError::Malformed("bad bool")),
        };
        Ok(Header {
            fingerprint,
            cfg: ClassifierConfig {
                inactivity_secs,
                split_rst_counts,
            },
            n_countries: r.u32()? as usize,
            hours: r.u32()? as usize,
            start_unix: r.u64()?,
        })
    }

    /// True if a partial of this header may fold into `acc`.
    fn fits(&self, acc: &PartialAggregate) -> bool {
        self.fingerprint == acc.fingerprint()
            && self.cfg.inactivity_secs == acc.cfg.inactivity_secs
            && self.cfg.split_rst_counts == acc.cfg.split_rst_counts
            && self.n_countries == acc.n_countries()
            && self.hours == acc.hours()
            && self.start_unix == acc.start_unix()
    }

    /// Body bytes the dense tables of this shape take, if it is
    /// representable at all.
    fn dense_len(&self) -> Option<usize> {
        let (n, h) = (self.n_countries, self.hours);
        // Per country: the class row and the IP-version and protocol pairs.
        let per_country = N_CLASSES * 8 + 2 * 16 + 2 * 16;
        // Per hour: the signature row and the total.
        let per_hour = 19 * 4 + 4;
        n.checked_mul(h)?
            .checked_mul(8)?
            .checked_add(n.checked_mul(per_country)?)?
            .checked_add(h.checked_mul(per_hour)?)
    }
}

/// Fold one `.agg` buffer into `acc`, fail-closed: the one `.agg`
/// parser. `domains` is the catalog size of the world `acc` was built
/// for: every domain id the file names must lie below it, as every
/// country must lie inside `acc`'s world.
///
/// The header (magic, version, body length, fingerprint and shape) is
/// checked against `acc` before `acc` is touched, so a
/// [`AggError::ConfigMismatch`] or a header error leaves it unchanged.
/// The body is then added into `acc` table by table, with the rules
/// [`PartialAggregate::merge`] uses; after a body error `acc` holds part
/// of the file and must be dropped.
pub fn fold(acc: &mut PartialAggregate, bytes: &[u8], domains: u32) -> Result<(), AggError> {
    let mut r = Reader::new(bytes);
    let header = Header::read(&mut r)?;
    if !header.fits(acc) {
        return Err(AggError::ConfigMismatch {
            file: header.fingerprint,
        });
    }
    fold_body(acc, &mut r, domains as usize)
}

/// Add every table of a body into `acc`, in the order `encode` writes
/// them; domain ids must lie below `domains`.
fn fold_body(acc: &mut PartialAggregate, r: &mut Reader, domains: usize) -> Result<(), AggError> {
    let mut over = add_u64(r, &mut acc.total)?
        | add_u64(r, &mut acc.possibly_tampered)?
        | add_row(r, &mut acc.stage_counts)?
        | add_row(r, &mut acc.stage_matched)?
        | add_row(r, acc.country_class.as_flattened_mut())?;

    let n_as = r.u32()?;
    let mut last = None;
    for _ in 0..n_as {
        let key = (r.u16()?, r.u32()?);
        let counts = (r.u64()?, r.u64()?);
        ascending(&mut last, key, "as_counts keys out of order")?;
        below(
            key.0.into(),
            acc.n_countries(),
            "as_counts country outside the world",
        )?;
        over |= add_keyed(&mut acc.as_counts, key, counts);
    }

    for row in &mut acc.country_hour {
        over |= add_row(r, row)?;
    }
    over |= add_row(r, acc.sig_hour.as_flattened_mut())?
        | add_row(r, &mut acc.hour_totals)?
        | add_row(r, acc.country_ipver.as_flattened_mut())?
        | add_row(r, acc.country_proto.as_flattened_mut())?;

    let n_cells = r.u32()?;
    let mut last = None;
    for _ in 0..n_cells {
        let key = (r.u16()?, r.u32()?);
        let cell = DomainCell {
            seen: r.u32()?,
            psh_tampered: r.u32()?,
        };
        ascending(&mut last, key, "domain_cells keys out of order")?;
        below(
            key.0.into(),
            acc.n_countries(),
            "domain_cells country outside the world",
        )?;
        below(
            key.1 as usize,
            domains,
            "domain_cells domain outside the catalog",
        )?;
        over |= add_keyed(&mut acc.domain_cells, key, cell);
    }

    for res in &mut acc.ipid_res {
        fold_reservoir(r, res, |r| r.u32())?;
    }
    for res in &mut acc.ttl_res {
        fold_reservoir(r, res, |r| r.u16().map(|v| v as i16))?;
    }

    for dst in acc.evidence_counters_mut() {
        over |= add_u64(r, dst)?;
    }

    let n_spd = r.u32()?;
    let mut last = None;
    for _ in 0..n_spd {
        let (domain, count) = (r.u32()?, r.u32()?);
        ascending(&mut last, domain, "syn_payload_domains out of order")?;
        below(
            domain as usize,
            domains,
            "syn_payload_domains domain outside the catalog",
        )?;
        over |= add_keyed(&mut acc.syn_payload_domains, domain, count);
    }

    over |= add_u64(r, &mut acc.postdata_matches)? | add_u64(r, &mut acc.postdata_fw_ua)?;
    let truth = TruthStats {
        true_positive: r.u64()?,
        false_negative: r.u64()?,
        false_positive: r.u64()?,
        true_negative: r.u64()?,
        matched_signature: r.u64()?,
    };
    over |= acc.truth.add(truth);

    if r.u32()? as usize != tamper_worldgen::BenignKind::ALL.len() {
        return Err(AggError::Malformed("benign-kind count mismatch"));
    }
    over |= add_row(r, acc.benign_attribution.as_flattened_mut())?;

    // `record` and `merge` both keep at most PAIR_KEY_CAP keys, so a longer
    // table was not written by this pipeline.
    let n_pairs = r.u32()? as usize;
    if n_pairs > PAIR_KEY_CAP {
        return Err(AggError::Malformed("pair_seqs over key capacity"));
    }
    let mut last = None;
    for _ in 0..n_pairs {
        let key = (r.u64()?, r.u32()?);
        ascending(&mut last, key, "pair_seqs keys out of order")?;
        below(
            key.1 as usize,
            domains,
            "pair_seqs domain outside the catalog",
        )?;
        let n = usize::from(r.u8()?);
        if n > PAIR_SEQ_CAP {
            return Err(AggError::Malformed("pair sequence over capacity"));
        }
        let mut seq = [(0, 0, 0); PAIR_SEQ_CAP];
        let mut last = None;
        for slot in seq.iter_mut().take(n) {
            *slot = (r.u64()?, r.u64()?, r.u8()?);
            ascending(&mut last, *slot, "pair sequence out of order")?;
            below(slot.2.into(), PAIR_CLASSES, "pair class code out of range")?;
        }
        if !pair_key_fits(&acc.pair_seqs, &key) {
            continue;
        }
        let seq = seq.into_iter().take(n);
        match acc.pair_seqs.entry(key) {
            Entry::Vacant(e) => {
                e.insert(PairSeq::from_entries(seq.collect()));
            }
            Entry::Occupied(mut e) => e.get_mut().merge_sorted(seq),
        }
        cap_pair_keys(&mut acc.pair_seqs);
    }

    if !r.is_empty() {
        return Err(AggError::Malformed("trailing bytes after body"));
    }
    if over {
        return Err(AggError::Malformed("counter overflow"));
    }
    Ok(())
}

/// Decode one `.agg` buffer, fail-closed: a [`fold`] into an empty
/// aggregate of the header's shape, stamped with the header's
/// fingerprint. With no world at hand, any domain id is accepted.
/// Callers that merge must compare fingerprints (see [`merge_checked`]).
pub fn decode(bytes: &[u8]) -> Result<PartialAggregate, AggError> {
    let mut r = Reader::new(bytes);
    let h = Header::read(&mut r)?;
    // Size the aggregate only once the body can hold the dense tables its
    // shape implies, so allocation stays bounded by the input's length.
    if h.dense_len().is_none_or(|len| len > r.remaining()) {
        return Err(AggError::Truncated);
    }
    let mut acc =
        PartialAggregate::empty(h.cfg, h.n_countries, h.hours, h.start_unix, h.fingerprint);
    fold_body(&mut acc, &mut r, usize::MAX)?;
    Ok(acc)
}

/// Merge `other` into `acc` after checking fingerprint compatibility;
/// the fallible front door for decoded partials.
pub fn merge_checked(acc: &mut PartialAggregate, other: PartialAggregate) -> Result<(), AggError> {
    if acc.fingerprint() != other.fingerprint()
        || acc.n_countries() != other.n_countries()
        || acc.hours() != other.hours()
        || acc.start_unix() != other.start_unix()
    {
        return Err(AggError::ConfigMismatch {
            file: other.fingerprint(),
        });
    }
    acc.merge(other);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PartialAggregate {
        let mut agg =
            PartialAggregate::with_salt(ClassifierConfig::default(), 3, 1, 1_663_027_200, 0);
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
        let file = b.fingerprint();
        match merge_checked(&mut a, b) {
            Err(AggError::ConfigMismatch { file: f }) => assert_eq!(f, file),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_mismatch_leaves_the_accumulator_untouched() {
        let mut acc = sample();
        let before = encode(&acc);
        // Another world salt, then another shape under the same fingerprint.
        let other =
            PartialAggregate::with_salt(ClassifierConfig::default(), 3, 1, 1_663_027_200, 99);
        let mut reshaped = sample();
        reshaped.hours = 48;
        reshaped.country_hour = vec![vec![(0, 0); 48]; 3];
        reshaped.sig_hour = vec![[0; 19]; 48];
        reshaped.hour_totals = vec![0; 48];
        for bytes in [encode(&other), encode(&reshaped)] {
            match fold(&mut acc, &bytes, u32::MAX) {
                Err(AggError::ConfigMismatch { .. }) => {}
                other => panic!("expected ConfigMismatch, got {other:?}"),
            }
            assert_eq!(
                encode(&acc),
                before,
                "a refused header changed the accumulator"
            );
        }
    }

    #[test]
    fn keys_outside_the_world_are_named_errors() {
        // `sample` has 3 countries; its domains lie below 10.
        type Mutate = fn(&mut PartialAggregate);
        let cases: [(Mutate, &str); 5] = [
            (
                |a| {
                    a.as_counts.insert((3, 64_512), (1, 0));
                },
                "as_counts country outside the world",
            ),
            (
                |a| {
                    a.domain_cells.insert((0x7fff, 1), DomainCell::default());
                },
                "domain_cells country outside the world",
            ),
            (
                |a| {
                    a.domain_cells.insert((2, 10), DomainCell::default());
                },
                "domain_cells domain outside the catalog",
            ),
            (
                |a| {
                    a.syn_payload_domains.insert(u32::MAX, 1);
                },
                "syn_payload_domains domain outside the catalog",
            ),
            (
                |a| a.pair_seqs.entry((78, 10)).or_default().insert(1, 1, 0),
                "pair_seqs domain outside the catalog",
            ),
        ];
        for (mutate, what) in cases {
            let mut bad = sample();
            mutate(&mut bad);
            let mut acc = sample();
            assert_eq!(
                fold(&mut acc, &encode(&bad), 10),
                Err(AggError::Malformed(what))
            );
        }
        // Countries are checked without a catalog too.
        let mut bad = sample();
        bad.as_counts.insert((3, 64_512), (1, 0));
        assert_eq!(
            decode(&encode(&bad)).err(),
            Some(AggError::Malformed("as_counts country outside the world"))
        );
        // The clean file folds at the smallest catalog that holds it.
        assert_eq!(fold(&mut sample(), &encode(&sample()), 10), Ok(()));
    }

    #[test]
    fn pair_class_codes_outside_fig10_are_named_errors() {
        let mut bad = sample();
        bad.pair_seqs.entry((77, 8)).or_default().insert(2000, 0, 9);
        assert_eq!(
            decode(&encode(&bad)).err(),
            Some(AggError::Malformed("pair class code out of range"))
        );
    }

    #[test]
    fn counter_overflow_is_a_named_error() {
        let mut acc = sample();
        acc.total = u64::MAX;
        match fold(&mut acc, &encode(&sample()), u32::MAX) {
            Err(AggError::Malformed("counter overflow")) => {}
            other => panic!("expected the overflow error, got {other:?}"),
        }
    }
}
