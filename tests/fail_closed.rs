//! The fail-closed battery: each entry point the CLI exposes to bytes it
//! did not produce, fed mutated seeds on one fixed schedule (no RNG).
//! Every case must end in `Ok` or the entry's named error, never a panic,
//! with its peak live heap inside the entry's [`Bound`]. A failure is
//! named `entry seed mutator@offset`.
//!
//! - `pcap`: `cli::classify` at one shard with `--json-summary`, once as
//!   `--jsonl` and once as `--explain`, via `PcapMemSource::new` and
//!   `from_reader` (`PcapError` / `io::Error`); seeds `golden.pcap` and
//!   the 19 `sig_*.pcap`.
//! - `frame`: `PacketView::parse` (`WireError`), which must not allocate;
//!   seeds every frame of `golden.pcap` and two IPv6 frames.
//! - `payload`: `tls::parse_sni`, `http::parse_request`, `request_domain`
//!   (`WireError`); seeds the golden payloads, a ClientHello and a GET.
//! - `agg`: `decode_agg`, and `fold_agg` into an accumulator that
//!   already holds the seed (`AggError`); seed `encode_agg` of a small
//!   collector.
//! - `world`: `world_from_json` (`ConfigError`), then a small `WorldSim`
//!   run; seeds hand-written worlds and `world-spec --full`.
//!
//! Mutators at offset `k`: `truncate` to `k` bytes; `flip` byte `k` (XOR
//! 0xFF, or 0x01 in JSON so it stays text); `inflate` a length (u16 0xFFFF
//! and 0x7FFF, u32 0xFFFF_FFFF and 0x7FFF_FFFF, LE and BE; in JSON the
//! number at `k` becomes -1, 0, 2147483647 or 1e308); `splice` in the next
//! seed's bytes from `k` on. Seeds are walked at every `stride`-th offset
//! from a per-seed phase, so captures sharing one layout cover each
//! other's gaps.
//!
//! A flip inside a captured frame also runs with the frame's checksums
//! recomputed ([`reseal`]), so the damage reaches the TCP parser and the
//! classifier. An inflated record length also runs streamed ahead of
//! more than a reader window of records ([`TAIL`]): only a live reader
//! can size a refill from a length claim. While a case runs, a single
//! request over [`HARD_CAP`] aborts the process naming the case.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use bytes::Bytes;
use tamperscope::analysis::{decode_agg, encode_agg, fold_agg, Collector};
use tamperscope::capture::{EngineConfig, EngineStats, PcapMemSource};
use tamperscope::cli::{self, Render};
use tamperscope::core::ClassifierConfig;
use tamperscope::wire::{http, tls, PacketBuilder, PacketView, TcpFlags, TcpHeader};
use tamperscope::worldgen::{policy::world_spec, world_from_json, world_to_json};
use tamperscope::worldgen::{WorldConfig, WorldSim};

// ---------------------------------------------------------------------------
// Heap metering
// ---------------------------------------------------------------------------

/// The largest single request a case may make: past it, a length field
/// was taken at its word.
const HARD_CAP: usize = 64 << 20;

/// The calling thread's meter for the running case. The harness runs
/// the entry points on parallel threads; none sees another's heap.
#[derive(Clone, Copy)]
struct Meter {
    armed: bool,
    live: isize,
    peak: isize,
    allocs: u64,
    label: (*const u8, usize),
}

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor registers thread-exit work.
    static METER: Cell<Meter> = const {
        Cell::new(Meter { armed: false, live: 0, peak: 0, allocs: 0, label: (std::ptr::null(), 0) })
    };
}

/// Meter a request that grows the heap by `grow` bytes (negative for a
/// free); false refuses a `request` over [`HARD_CAP`] during a case.
fn meter(grow: isize, request: usize) -> bool {
    let Ok(mut m) = METER.try_with(Cell::get) else {
        return true;
    };
    if !m.armed {
        return true;
    }
    if request > HARD_CAP {
        // Disarm first, so the write's own requests pass through.
        m.armed = false;
        METER.with(|c| c.set(m));
        // SAFETY: only an armed meter gets here, and `run_case` arms it
        // with `label` taken from a `&str` it borrows until it disarms.
        let label = unsafe { std::slice::from_raw_parts(m.label.0, m.label.1) };
        let mut err = std::io::stderr();
        let _ = err.write_all(b"fail_closed: refused a request over HARD_CAP in case ");
        let _ = err.write_all(label);
        let _ = writeln!(err, " ({request} bytes)");
        return false;
    }
    m.live += grow;
    m.peak = m.peak.max(m.live);
    m.allocs += u64::from(request > 0);
    METER.with(|c| c.set(m));
    true
}

struct MeteredAlloc;

// SAFETY: every request is passed unchanged to `System`, or refused with
// a null pointer, which `GlobalAlloc` allows as a failed allocation; the
// meter itself neither allocates nor unwinds.
unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !meter(layout.size() as isize, layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's layout, under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !meter(new_size as isize - layout.size() as isize, new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator, which hands out only `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        meter(-(layout.size() as isize), 0);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: MeteredAlloc = MeteredAlloc;

/// Run one case under the meter: its value, peak live heap bytes and
/// request count, or the message it panicked with.
fn run_case<T>(label: &str, f: impl FnOnce() -> T) -> Result<(T, usize, u64), String> {
    let start = Meter {
        armed: true,
        live: 0,
        peak: 0,
        allocs: 0,
        label: (label.as_ptr(), label.len()),
    };
    METER.with(|c| c.set(start));
    let out = catch_unwind(AssertUnwindSafe(f));
    let m = METER.with(|c| {
        c.replace(Meter {
            armed: false,
            ..start
        })
    });
    out.map(|v| (v, m.peak as usize, m.allocs)).map_err(|e| {
        let msg = e.downcast_ref::<&str>().map(|s| s.to_string());
        let msg = msg.or_else(|| e.downcast_ref::<String>().cloned());
        format!("panicked: {}", msg.unwrap_or_default())
    })
}

/// Peak live heap an entry may hold for an input of `len` bytes:
/// `.0 · len + .1`.
#[derive(Clone, Copy)]
struct Bound(usize, usize);

impl Bound {
    fn check(self, len: usize, peak: usize) -> Result<(), String> {
        if peak <= self.0 * len + self.1 {
            return Ok(());
        }
        Err(format!(
            "peak heap {peak} B over {}·{len} + {} B",
            self.0, self.1
        ))
    }
}

// Measured peaks: pcap 46 KiB (3.4 B per input byte past 32 KiB), plus
// the 1 MiB window when streamed; payload 42 B; agg 2.6 B per byte;
// world 302 KiB for the 40 KB world spec.
/// `classify` over a whole capture: flow table, batch arenas, collector.
const PCAP: Bound = Bound(8, 64 << 10);
/// The same streamed, plus the 1 MiB reader window.
const PCAP_STREAMED: Bound = Bound(8, (1 << 20) + (64 << 10));
/// Streamed ahead of [`TAIL`]: up to three windows in flight.
const PCAP_TAILED: Bound = Bound(8, 3 << 20);
/// The payload parsers: strings copied out of the input.
const PAYLOAD: Bound = Bound(2, 64);
/// `.agg` decode: tables and reservoirs grown as their bytes arrive.
const AGG: Bound = Bound(4, 4 << 10);
/// World JSON: the tree, the world, and a simulation [`world_config`]
/// keeps small.
const WORLD: Bound = Bound(16, 128 << 10);

// ---------------------------------------------------------------------------
// Seeds and the schedule
// ---------------------------------------------------------------------------

struct Seed {
    name: String,
    bytes: Vec<u8>,
    /// Byte offsets visited: every `stride`-th (1 = all).
    stride: usize,
    /// JSON number tokens visited: every `token_stride`-th.
    token_stride: usize,
}

fn seed(name: impl Into<String>, bytes: Vec<u8>, stride: usize) -> Seed {
    Seed {
        name: name.into(),
        bytes,
        stride,
        token_stride: 1,
    }
}

#[derive(Clone, Copy)]
enum Mutation {
    Truncate(usize),
    Flip(usize),
    /// The offset, and the value written there.
    Inflate(usize, &'static str),
    Splice(usize),
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Truncate(k) => write!(f, "truncate@{k}"),
            Mutation::Flip(k) => write!(f, "flip@{k}"),
            Mutation::Inflate(k, v) => write!(f, "inflate@{k}={v}"),
            Mutation::Splice(k) => write!(f, "splice@{k}"),
        }
    }
}

/// The length fields `inflate` writes into binary seeds (all-ones reads
/// the same either way round).
const WIDE: [(&str, &[u8]); 6] = [
    ("ffff", &[0xFF, 0xFF]),
    ("7fff-be", &[0x7F, 0xFF]),
    ("7fff-le", &[0xFF, 0x7F]),
    ("ffffffff", &[0xFF; 4]),
    ("7fffffff-be", &[0x7F, 0xFF, 0xFF, 0xFF]),
    ("7fffffff-le", &[0xFF, 0xFF, 0xFF, 0x7F]),
];

/// What `inflate` puts in place of a JSON number.
const JSON_NUMBERS: [&str; 4] = ["-1", "0", "2147483647", "1e308"];

/// Byte ranges of the number tokens outside strings in a JSON text.
fn number_tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let (mut out, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < text.len() {
        match (in_str, text[i]) {
            (true, b'\\') => i += 1,
            (_, b'"') => in_str = !in_str,
            (false, b'-' | b'0'..=b'9') => {
                let start = i;
                while text.get(i).is_some_and(|c| b"0123456789-+.eE".contains(c)) {
                    i += 1;
                }
                out.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Hand every case of every seed to `each`, with the seed's index.
fn schedule(seeds: &[Seed], json: bool, mut each: impl FnMut(usize, Mutation, &[u8])) {
    let mut buf = Vec::new();
    let mut case = |si, m, parts: &[&[u8]]| {
        buf.clear();
        parts.iter().for_each(|p| buf.extend_from_slice(p));
        each(si, m, &buf);
    };
    for (si, seed) in seeds.iter().enumerate() {
        let s = &seed.bytes[..];
        let next = &seeds[(si + 1) % seeds.len()].bytes;
        for k in (si % seed.stride..s.len()).step_by(seed.stride) {
            let flipped = [s[k] ^ if json { 0x01 } else { 0xFF }];
            case(si, Mutation::Truncate(k), &[&s[..k]]);
            case(si, Mutation::Flip(k), &[&s[..k], &flipped, &s[k + 1..]]);
            case(
                si,
                Mutation::Splice(k),
                &[&s[..k], next.get(k..).unwrap_or_default()],
            );
            for &(name, wide) in WIDE.iter().filter(|(_, w)| !json && k + w.len() <= s.len()) {
                let m = Mutation::Inflate(k, name);
                case(si, m, &[&s[..k], wide, &s[k + wide.len()..]]);
            }
        }
        if json {
            for &(a, b) in number_tokens(s).iter().step_by(seed.token_stride) {
                for n in JSON_NUMBERS {
                    case(
                        si,
                        Mutation::Inflate(a, n),
                        &[&s[..a], n.as_bytes(), &s[b..]],
                    );
                }
            }
        }
    }
}

/// One entry point's failing cases, and how many ran.
struct Tally {
    entry: &'static str,
    cases: usize,
    failures: Vec<String>,
}

impl Tally {
    fn new(entry: &'static str) -> Tally {
        Tally {
            entry,
            cases: 0,
            failures: Vec::new(),
        }
    }

    fn label(&self, seed: &Seed, m: Mutation, variant: &str) -> String {
        format!("{} {} {m}{variant}", self.entry, seed.name)
    }

    fn record(&mut self, label: &str, outcome: Result<(), String>) {
        self.cases += 1;
        if let Err(why) = outcome {
            self.failures.push(format!("{label}: {why}"));
        }
    }

    fn assert_clean(self) {
        println!("{}: {} cases", self.entry, self.cases);
        let shown = self.failures.iter().take(20).cloned().collect::<Vec<_>>();
        assert!(
            self.failures.is_empty(),
            "{} of {} {} cases failed open:\n{}",
            self.failures.len(),
            self.cases,
            self.entry,
            shown.join("\n")
        );
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Where each record of a well-formed capture starts, then its end: a
/// cut at one of these is a clean end.
fn record_bounds(pcap: &[u8]) -> Vec<usize> {
    let (mut bounds, mut at) = (vec![24], 24);
    while let Some(h) = pcap.get(at..at + 16) {
        at += 16 + u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
        bounds.push(at);
    }
    assert_eq!(at, pcap.len(), "seed capture is well-formed");
    bounds
}

// ---------------------------------------------------------------------------
// Resealing
// ---------------------------------------------------------------------------

fn ones_sum(sum: u32, data: &[u8]) -> u32 {
    let words = data
        .chunks(2)
        .map(|w| (u32::from(w[0]) << 8) | u32::from(*w.get(1).unwrap_or(&0)));
    words.fold(sum, |a, w| a + w)
}

/// Write the ones'-complement checksum of `sum` (seeded with a pseudo
/// header) plus `data` into `data[at..at + 2]`, which must be zeroed.
fn seal(data: &mut [u8], at: usize, sum: u32) {
    let mut sum = ones_sum(sum, data);
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    data[at..at + 2].copy_from_slice(&(!(sum as u16)).to_be_bytes());
}

/// Recompute `frame`'s IPv4 header checksum and TCP checksum in place,
/// over whatever its own length fields frame; a frame whose headers do
/// not fit is left as it is.
fn reseal(frame: &mut [u8]) {
    let (start, end, pseudo) = match frame.first().map(|b| (b >> 4, usize::from(b & 0x0F) * 4)) {
        Some((4, ihl)) if ihl >= 20 && frame.len() >= ihl => {
            frame[10..12].fill(0);
            seal(&mut frame[..ihl], 10, 0);
            let end = usize::from(u16::from_be_bytes([frame[2], frame[3]])).min(frame.len());
            (
                ihl,
                end,
                ones_sum(6 + end.saturating_sub(ihl) as u32, &frame[12..20]),
            )
        }
        Some((6, _)) if frame.len() >= 40 => {
            let end = (40 + usize::from(u16::from_be_bytes([frame[4], frame[5]]))).min(frame.len());
            (40, end, ones_sum(6 + (end - 40) as u32, &frame[8..40]))
        }
        _ => return,
    };
    if end >= start + 18 {
        frame[start + 16..start + 18].fill(0);
        seal(&mut frame[start..end], 16, pseudo);
    }
}

// ---------------------------------------------------------------------------
// pcap: the classify pipeline
// ---------------------------------------------------------------------------

/// One `classify` run: a digest of its stdout, the ledger, and the read
/// error that ended it.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    digest: Option<u64>,
    stats: EngineStats,
    read_error: Option<String>,
}

/// A sink that keeps only an FNV-1a digest of the bytes written to it.
struct Digest(u64);

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `tamperscope classify --json-summary` in process at one shard,
/// rendering each flow as `render` does, its stdout digested.
fn classify_capture(mut src: PcapMemSource, render: Render) -> Run {
    let cfg = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let run = cli::classify(
        &mut src,
        &cfg,
        render,
        true,
        Digest(0xcbf2_9ce4_8422_2325),
        None,
    );
    let digest = run
        .written
        .map(|w| w.expect("a digest takes every write").0);
    Run {
        digest,
        stats: run.stats,
        read_error: src.read_error().map(ToString::to_string),
    }
}

/// The checks every run that opened the capture must pass.
fn sound(run: &Run) -> Result<(), String> {
    if run.read_error.is_some() || !run.stats.is_conserved() {
        return Err(format!("unsound run: {run:?}"));
    }
    Ok(())
}

/// One pcap case, whole and streamed, as `--jsonl` and as `--explain`:
/// each pair writes the same bytes and is sound, and a cut of the seed
/// whose record `bounds` are given ends clean exactly on a record
/// boundary, every record before it kept.
fn pcap_case(tally: &mut Tally, label: &str, bytes: &[u8], cut_of: Option<&[usize]>) {
    let case = |render: Render| -> Result<(), String> {
        let whole_in = Bytes::copy_from_slice(bytes);
        let whole = run_case(label, || {
            let src = PcapMemSource::new(whole_in).map_err(|e| e.to_string())?;
            Ok::<_, String>(classify_capture(src, render))
        });
        let streamed_in = Cursor::new(bytes.to_vec());
        let streamed = run_case(label, || {
            let src = PcapMemSource::from_reader(streamed_in).map_err(|e| e.to_string())?;
            Ok::<_, String>(classify_capture(src, render))
        });
        let (whole, peak, _) = whole?;
        PCAP.check(bytes.len(), peak)?;
        let (streamed, peak, _) = streamed?;
        PCAP_STREAMED.check(bytes.len(), peak)?;
        // A refused header reads the same both ways.
        if whole != streamed {
            return Err(format!(
                "{render:?}: whole {whole:?} != streamed {streamed:?}"
            ));
        }
        let valid_header = bytes.get(..4) == Some(&[0xd4, 0xc3, 0xb2, 0xa1])
            && bytes.get(20..24) == Some(&[101, 0, 0, 0]);
        let run = match whole {
            Err(_) if !valid_header => return Ok(()),
            Err(e) => return Err(format!("a valid global header was refused: {e}")),
            Ok(run) => run,
        };
        sound(&run)?;
        let Some(bounds) = cut_of else {
            return Ok(());
        };
        let k = bytes.len();
        let kept = bounds.iter().filter(|&&b| b <= k).count() as u64 - 1;
        let torn = !bounds.contains(&k);
        if (run.stats.records, run.stats.corrupt_tail) != (kept, torn) {
            return Err(format!(
                "cut at {k}: {run:?}; want {kept} records, torn {torn}"
            ));
        }
        Ok(())
    };
    let outcome = case(Render::Jsonl).and_then(|()| case(Render::Explain));
    tally.record(label, outcome);
}

/// Seventeen zero-filled 64 KiB records: more than a reader window, so
/// a capture streamed ahead of them meets any damage with its reader
/// still live.
static TAIL: OnceLock<Vec<u8>> = OnceLock::new();

fn tail() -> &'static [u8] {
    TAIL.get_or_init(|| {
        let mut record = vec![0u8; 16 + 65_535];
        record[8..12].copy_from_slice(&65_535u32.to_le_bytes());
        record[12..16].copy_from_slice(&65_535u32.to_le_bytes());
        record.repeat(17)
    })
}

#[test]
fn pcap_captures_fail_closed() {
    let mut sig: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"))
            .expect("tests/fixtures")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("sig_") && n.ends_with(".pcap"))
            .collect();
    sig.sort();
    assert_eq!(sig.len(), 19, "one capture per signature");
    let mut seeds = vec![seed("golden.pcap", fixture("golden.pcap"), 307)];
    seeds.extend(sig.into_iter().map(|n| seed(n.clone(), fixture(&n), 11)));
    let bounds: Vec<Vec<usize>> = seeds.iter().map(|s| record_bounds(&s.bytes)).collect();
    let tail = tail();
    let mut tally = Tally::new("pcap");
    schedule(&seeds, false, |si, m, bytes| {
        let (seed, bounds) = (&seeds[si], &bounds[si][..]);
        let label = tally.label(seed, m, "");
        let cut_of = matches!(m, Mutation::Truncate(_)).then_some(bounds);
        pcap_case(&mut tally, &label, bytes, cut_of);
        match m {
            // Damage inside a frame, carried past its checksums.
            Mutation::Flip(k) => {
                let Some(w) = bounds.windows(2).find(|w| w[0] + 16 <= k && k < w[1]) else {
                    return;
                };
                let mut resealed = bytes.to_vec();
                reseal(&mut resealed[w[0] + 16..w[1]]);
                if resealed == bytes {
                    return;
                }
                let label = tally.label(seed, m, "+reseal");
                pcap_case(&mut tally, &label, &resealed, None);
            }
            // A record's incl_len (header bytes 8..12) inflated, met by a
            // live reader.
            Mutation::Inflate(k, v) => {
                let end = k + WIDE.iter().find(|w| w.0 == v).map_or(0, |w| w.1.len());
                if !bounds.iter().any(|&b| k < b + 12 && b + 8 < end) {
                    return;
                }
                let label = tally.label(seed, m, "+tail");
                let reader = Cursor::new(bytes.to_vec()).chain(tail);
                let outcome = run_case(&label, || {
                    PcapMemSource::from_reader(reader)
                        .map(|src| classify_capture(src, Render::Jsonl))
                })
                .and_then(|(run, peak, _)| {
                    PCAP_TAILED.check(bytes.len(), peak)?;
                    run.map_or(Ok(()), |run| sound(&run))
                });
                tally.record(&label, outcome);
            }
            _ => {}
        }
    });
    tally.assert_clean();
}

// ---------------------------------------------------------------------------
// Frames and payloads
// ---------------------------------------------------------------------------

/// Every frame of `golden.pcap`, in capture order.
fn golden_frames() -> Vec<Vec<u8>> {
    let pcap = fixture("golden.pcap");
    let bounds = record_bounds(&pcap);
    let frame = |w: &[usize]| pcap[w[0] + 16..w[1]].to_vec();
    bounds.windows(2).map(frame).collect()
}

#[test]
fn frames_fail_closed() {
    let mut seeds: Vec<Seed> = golden_frames()
        .into_iter()
        .enumerate()
        .map(|(i, f)| seed(format!("golden.pcap#{i}"), f, 1))
        .collect();
    // The golden corpus is all IPv4; two IPv6 frames reach that parser.
    let (client, server) = (
        "2001:db8::1".parse().unwrap(),
        "2001:db8::2".parse().unwrap(),
    );
    for (name, flags, payload) in [
        ("v6-syn", TcpFlags::SYN, &b""[..]),
        ("v6-data", TcpFlags::PSH_ACK, &b"GET / HTTP/1.1\r\n\r\n"[..]),
    ] {
        let packet = PacketBuilder::new(client, server, 40000, 443)
            .flags(flags)
            .options(TcpHeader::standard_syn_options())
            .payload(Bytes::from_static(payload))
            .build();
        seeds.push(seed(name, packet.emit().to_vec(), 1));
    }
    let mut tally = Tally::new("frame");
    let mut resealed = Vec::new();
    schedule(&seeds, false, |si, m, bytes| {
        resealed.clear();
        resealed.extend_from_slice(bytes);
        reseal(&mut resealed);
        let resealed = Some(&resealed[..]).filter(|r| *r != bytes);
        for (frame, variant) in [(Some(bytes), ""), (resealed, "+reseal")] {
            let Some(frame) = frame else { continue };
            let label = tally.label(&seeds[si], m, variant);
            let outcome = run_case(&label, || PacketView::parse(frame).is_ok());
            let outcome = outcome.and_then(|(_, _, allocs)| match allocs {
                0 => Ok(()),
                n => Err(format!("PacketView::parse made {n} allocations")),
            });
            tally.record(&label, outcome);
        }
    });
    tally.assert_clean();
}

#[test]
fn payloads_fail_closed() {
    let mut seeds: Vec<Seed> = Vec::new();
    for frame in golden_frames() {
        let view = PacketView::parse(&frame).expect("golden frames parse");
        if !view.payload.is_empty() && !seeds.iter().any(|s| s.bytes == view.payload) {
            let name = format!("golden-payload#{}", seeds.len());
            seeds.push(seed(name, view.payload.to_vec(), 1));
        }
    }
    let hello = tls::build_client_hello("blocked.example.com", [7; 32]);
    seeds.push(seed("client-hello", hello.to_vec(), 1));
    let get = http::build_get("blocked.example.com", "/watch?v=1", "curl/8.0");
    seeds.push(seed("get", get.to_vec(), 1));
    let mut tally = Tally::new("payload");
    schedule(&seeds, false, |si, m, bytes| {
        let label = tally.label(&seeds[si], m, "");
        let outcome = run_case(&label, || {
            let _ = tls::parse_sni(bytes);
            let _ = http::parse_request(bytes);
            let _ = tamperscope::wire::request_domain(bytes);
        });
        tally.record(
            &label,
            outcome.and_then(|((), peak, _)| PAYLOAD.check(bytes.len(), peak)),
        );
    });
    tally.assert_clean();
}

// ---------------------------------------------------------------------------
// .agg partials and world JSON
// ---------------------------------------------------------------------------

#[test]
fn agg_partials_fail_closed() {
    let world = world_from_json(WORLDS[0].1).expect("the two-country world loads");
    let cfg = WorldConfig {
        sessions: 20,
        days: 1,
        catalog_size: 100,
        ..WorldConfig::default()
    };
    let sim = WorldSim::with_world(cfg, world);
    let mut col = Collector::new(ClassifierConfig::default(), 2, 1, sim.config().start_unix);
    sim.run(|lf| col.observe(&lf));
    let bytes = encode_agg(col.partial());
    let acc = decode_agg(&bytes).expect("the seed decodes");
    let domains = sim.config().catalog_size;
    let seeds = [seed("pop.agg", bytes, 17)];
    let mut tally = Tally::new("agg");
    let mut case = |m: Mutation, bytes: &[u8]| {
        let judge = |outcome: Result<(bool, usize, u64), String>| {
            outcome.and_then(|(ok, peak, _)| {
                AGG.check(bytes.len(), peak)?;
                match (ok, m) {
                    (true, Mutation::Truncate(_)) => Err("a strict prefix was read".into()),
                    _ => Ok(()),
                }
            })
        };
        let label = tally.label(&seeds[0], m, "");
        let outcome = run_case(&label, || decode_agg(bytes).is_ok());
        tally.record(&label, judge(outcome));
        // The same bytes folded into an accumulator that already holds
        // the seed, as `merge` folds every file after its first.
        let mut warm = acc.clone();
        let label = tally.label(&seeds[0], m, "+fold");
        let outcome = run_case(&label, || fold_agg(&mut warm, bytes, domains).is_ok());
        tally.record(&label, judge(outcome));
    };
    schedule(&seeds, false, |_, m, bytes| case(m, bytes));
    // Truncation is cheap (the body length is checked up front), so every
    // strict prefix runs, not only the scheduled ones.
    let whole = &seeds[0].bytes;
    (0..whole.len()).for_each(|k| case(Mutation::Truncate(k), &whole[..k]));
    tally.assert_clean();
}

/// Hand-written worlds that together use every field of the schema, and
/// one whose DPI fires on over-blocking alone.
const WORLDS: [(&str, &str); 3] = [
    (
        "two-country",
        r#"[{"code":"AA","weight":3,"tz_offset_hours":-5,"ipv6_share":0.3,"n_ases":3,
"centralization":0.6,"http_share":0.4,"ipv6_tamper_mult":1.5,"syn_payload_mult":2,
"policy":{"syn_rules":[{"vendor":"SynDropAll","rate":0.02}],"dpi_blanket":0.1,
"dpi_filter":"http-only","dpi_enforce":0.8,"dpi_mix":[{"vendor":"DataDropRst(2)","rate":0.7},
{"vendor":"GfwMixed","rate":0.3}],"fw_rules":[{"vendor":"PshRst","rate":0.01}],
"coverage":[{"category":"Adult Themes","coverage":0.5}],
"affinity":[{"category":"Adult Themes","multiplier":2}],
"overblock_substrings":["wn.com"],"diurnal_amp":0.4,"weekend_drop":0.2}},
{"code":"BB","weight":1,"tz_offset_hours":9,"policy":{"dpi_filter":"tls-only",
"coverage":[{"category":"News","coverage":0.3}]}}]"#,
    ),
    (
        "overblock-only",
        r#"[{"code":"OB","weight":1,"policy":{"overblock_substrings":["a","e"]}}]"#,
    ),
    // Last, so the seed spliced into the 40 KB world spec is the smallest.
    ("minimal", r#"[{"code":"XX","weight":1}]"#),
];

/// A simulation small enough to run per case, with a catalog that holds
/// every category.
fn world_config() -> WorldConfig {
    WorldConfig {
        sessions: 6,
        days: 1,
        catalog_size: 120,
        ..WorldConfig::default()
    }
}

#[test]
fn world_json_fails_closed() {
    let mut seeds: Vec<Seed> = WORLDS
        .iter()
        .map(|(name, text)| seed(*name, text.as_bytes().to_vec(), 1))
        .collect();
    let spec = world_to_json(&world_spec()).into_bytes();
    seeds.push(Seed {
        token_stride: 47,
        ..seed("world-spec", spec, 4001)
    });
    let mut tally = Tally::new("world");
    schedule(&seeds, true, |si, m, bytes| {
        let label = tally.label(&seeds[si], m, "");
        let outcome = run_case(&label, || {
            // `report --world` reads the file as UTF-8 text first.
            let Some(world) = std::str::from_utf8(bytes)
                .ok()
                .and_then(|t| world_from_json(t).ok())
            else {
                return;
            };
            let sim = WorldSim::with_world(world_config(), world);
            let (n, start) = (sim.world().len(), sim.config().start_unix);
            let mut col = Collector::new(ClassifierConfig::default(), n, 1, start);
            sim.run(|lf| col.observe(&lf));
        });
        tally.record(
            &label,
            outcome.and_then(|((), peak, _)| WORLD.check(bytes.len(), peak)),
        );
    });
    tally.assert_clean();
}
