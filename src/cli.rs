//! The `tamperscope` binary's command line, its `classify` pipeline and
//! the capture writer behind `synthesize`.
//!
//! Hand-rolled (the workspace takes no CLI dependency): positionals plus
//! `--flag` / `--flag value` / `--flag=value`. Whether a flag consumes
//! the next token is decided by the `VALUE_FLAGS` list, not by peeking
//! at the token's shape — peeking made boolean flags swallow whatever
//! followed them (`classify --jsonl capture.pcap` used to parse with no
//! positional at all, rejecting a perfectly good invocation). A flag in
//! neither list, or one the subcommand does not read, is an error: a typo
//! must not be a silently different run.
//!
//! [`classify`] is the whole of `tamperscope classify` between opening
//! the capture and reporting on stderr, so the tests that run it in
//! process run the code that ships. [`synthesize`] is the other door:
//! it writes flows as the collector logged them into a capture that
//! [`classify`] reads back to the same flows.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::ops::RangeInclusive;
use std::sync::{Mutex, MutexGuard};

use tamper_analysis::{
    capture_collector, capture_meta, capture_summary_to_json, engine_perf_to_json,
    flow_to_jsonl_into, Collector,
};
use tamper_capture::{
    run_source, EngineConfig, EngineStats, FlowBatch, FlowRows, PcapMemSource, PcapWriter,
};
use tamper_core::{
    explain, BatchClassifier, ClassifierConfig, FlowAnalysis, FlowView, PacketsView,
};
use tamper_obs::Registry;

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "sessions",
    "days",
    "seed",
    "threads",
    "world",
    "max-flows",
    "metrics-json",
    "pops",
    "out",
];

/// Flags that take none.
const BOOL_FLAGS: &[&str] = &["jsonl", "explain", "json-summary", "full"];

/// The numeric flags a run cannot survive every value of, and what each
/// accepts: `--days`, a year of hourly buckets (the paper's windows are
/// 14 and 17 days); `--threads`, up to 256 shards (0 is one per core);
/// `--pops`, 3.6× the paper's 285 PoPs. Past these a run panics, aborts
/// spawning threads or allocating, or silently truncates.
const RANGES: [(&str, RangeInclusive<u64>); 3] =
    [("days", 1..=366), ("threads", 0..=256), ("pops", 1..=1024)];

/// Parsed command line: positionals in order, flags with optional values.
#[derive(Debug, Default)]
pub struct Args {
    /// Non-flag tokens, in order.
    pub positional: Vec<String>,
    /// `(name, value)` pairs, in order; later occurrences win on lookup.
    pub flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse the tokens after subcommand `cmd`, which reads the flags
    /// named in `reads`. A `--flag` no subcommand knows, or one `cmd`
    /// does not read, is an error naming it.
    pub fn parse(cmd: &str, raw: &[String], reads: &[&str]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--") {
                let (name, given) = match flag.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_owned())),
                    None => (flag, None),
                };
                let takes_value = VALUE_FLAGS.contains(&name);
                if !takes_value && !BOOL_FLAGS.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                if !reads.contains(&name) {
                    return Err(format!("{cmd} takes no --{name}"));
                }
                let value = match given {
                    None if takes_value => it.next().cloned(),
                    given => given,
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// The value of the last `--name`, if any was given with a value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parse the value of `--name` as u64, erroring on a flag given
    /// without a value, with one that does not parse, or with one outside
    /// the flag's `RANGES` entry. An absent flag still yields `default`.
    pub fn get_u64_strict(&self, name: &str, default: u64) -> Result<u64, String> {
        let v = match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => return Ok(default),
            Some((_, None)) => return Err(format!("--{name} requires a value")),
            Some((_, Some(v))) => v,
        };
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--{name}: {v:?} is not an unsigned integer"))?;
        match RANGES.iter().find(|(flag, _)| *flag == name) {
            Some((_, range)) if !range.contains(&n) => Err(format!(
                "--{name}: {n} is outside {}..={}",
                range.start(),
                range.end()
            )),
            _ => Ok(n),
        }
    }

    /// True when `--name` appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

/// How `classify` renders each flow.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// The default: one aligned verdict line.
    Lines,
    /// `--jsonl`: one JSON object.
    Jsonl,
    /// `--explain`: the flow's packet narrative.
    Explain,
}

/// What one [`classify`] run leaves.
pub struct Classified<W> {
    /// Every flow, aggregated under the one capture country.
    pub collector: Collector,
    /// The engine's ledger.
    pub stats: EngineStats,
    /// The sink once every verdict and the summary tail are written, or
    /// the first write error. `None` when the source hit a read error
    /// ([`PcapMemSource::read_error`]): lines still held and the tail
    /// were dropped unwritten.
    pub written: Option<io::Result<W>>,
}

/// `tamperscope classify` from an open capture to its last stdout byte:
/// classify, label, aggregate and render each flow in place off its
/// batch, and write the verdicts to `out` in first-seen order through one
/// ordered writer. With `json_summary`, the summary and perf lines
/// follow. With a `registry`, the engine's scopes and
/// `verdicts.buffered_lines_max` are published to it.
pub fn classify<W: Write + Send>(
    src: &mut PcapMemSource,
    engine: &EngineConfig,
    render: Render,
    json_summary: bool,
    out: W,
    registry: Option<&Registry>,
) -> Classified<W> {
    // The writer needs the shard count up front: a shard that has not
    // reported yet must hold every line back.
    let engine = EngineConfig {
        threads: engine.resolved_threads(),
        ..*engine
    };
    let lines = Mutex::new(VerdictLines::new(out, engine.threads));
    let clf_cfg = ClassifierConfig::default();
    let init = || ClassifySink {
        clf: BatchClassifier::new(clf_cfg),
        col: capture_collector(clf_cfg, 0),
        shard: lock(&lines).join(),
    };
    let observe = |sink: &mut ClassifySink, batch: FlowBatch| {
        let mut segment = VerdictSegment::default();
        for i in 0..batch.flow_count() {
            let flow = batch.flow_rows(i);
            let analysis = sink.clf.classify_flow(&flow);
            sink.col
                .record(&capture_meta(&flow), &flow.span.tuple, &analysis);
            segment.push(flow.span.first_index, |text| match render {
                Render::Lines => verdict_line(text, &flow, &analysis),
                Render::Jsonl => flow_to_jsonl_into(text, &flow, &analysis),
                Render::Explain => text.push_str(&explain(&flow, &analysis, sink.clf.order())),
            });
        }
        lock(&lines).push(sink.shard, segment, batch.watermark());
    };
    let merge = |a: &mut ClassifySink, b: ClassifySink| a.col.merge(b.col);
    let (sink, stats) = run_source(src, &engine, registry, init, observe, merge);
    let lines = lines.into_inner().expect(POISONED);
    if let Some(r) = registry {
        let mut vm = r.scope("verdicts");
        vm.gauge_max("buffered_lines_max", lines.buffered_max() as u64);
        r.publish(vm);
    }
    let written = src.read_error().is_none().then(|| {
        let mut tail = String::new();
        if json_summary {
            tail = format!(
                "{}\n{}\n",
                capture_summary_to_json(&sink.col, &stats),
                engine_perf_to_json(&stats)
            );
        }
        lines.finish(tail.as_bytes())
    });
    Classified {
        collector: sink.col,
        stats,
        written,
    }
}

/// `tamperscope synthesize`'s capture writer: every packet of `flows`
/// at the second it was logged (usec 0), time-sorted, and within one
/// second in log order, flow after flow. A truncated flow's last packet
/// is written twice: the surplus copy pushes the flow table that reads
/// the capture past its packet cap, so it sets `truncated` too, and is
/// never retained. Returns the packets written; the caller flushes `out`.
pub fn synthesize<F: FlowView, W: Write>(flows: &[F], out: &mut PcapWriter<W>) -> io::Result<u64> {
    let mut order: Vec<(u32, usize, usize)> = Vec::new();
    for (f, flow) in flows.iter().enumerate() {
        let packets = flow.packets();
        let surplus = packets.len().checked_sub(1).filter(|_| flow.truncated());
        for p in (0..packets.len()).chain(surplus) {
            let ts = packets.row(p).ts_sec;
            let secs = u32::try_from(ts).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("second {ts} does not fit a pcap timestamp"),
                )
            })?;
            order.push((secs, f, p));
        }
    }
    // Stable: one second's packets keep the order they were listed in.
    order.sort_by_key(|&(secs, _, _)| secs);
    for &(secs, f, p) in &order {
        let (tuple, packets) = (flows[f].tuple(), flows[f].packets());
        out.write_packet(
            secs,
            0,
            &packets.row(p).to_packet(&tuple, packets.payload(p)),
        )?;
    }
    Ok(order.len() as u64)
}

/// `classify`'s default output: one aligned line per flow.
fn verdict_line(text: &mut String, flow: &FlowRows<'_>, analysis: &FlowAnalysis) {
    let verdict = match analysis.signature() {
        Some(sig) => format!("TAMPERED  {sig}"),
        None if analysis.is_possibly_tampered() => "possibly tampered".to_owned(),
        None => "clean".to_owned(),
    };
    let domain = analysis.trigger.domain.as_deref().unwrap_or("-");
    let t = &flow.span.tuple;
    let _ = write!(
        text,
        "{}:{} -> :{}  [{} pkts]  {verdict:<40} {domain}",
        t.client_ip,
        t.src_port,
        t.dst_port,
        flow.rows.len()
    );
}

/// Per-shard classify state: a scratch-reusing batch classifier, a
/// collector slice, and the shard's slot in the shared verdict writer.
struct ClassifySink {
    clf: BatchClassifier,
    col: Collector,
    shard: usize,
}

/// Why the shared verdict writer can be poisoned: the panic itself is
/// re-raised when the engine joins that shard.
const POISONED: &str = "a classify shard panicked while holding the verdict writer";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect(POISONED)
}

/// One shard's rendered batch: every flow's text in one buffer plus a
/// `(first_index, start, end)` entry each, so a shard renders in place
/// and hands the whole batch to [`VerdictLines`] at once.
#[derive(Debug, Default)]
struct VerdictSegment {
    text: String,
    lines: Vec<(u64, usize, usize)>,
    /// Lines already written (after [`VerdictLines::push`] sorted them).
    next: usize,
}

impl VerdictSegment {
    /// Add the flow first seen at record `first_index`: `render` appends
    /// its text to the buffer, and a newline follows.
    fn push(&mut self, first_index: u64, render: impl FnOnce(&mut String)) {
        let start = self.text.len();
        render(&mut self.text);
        self.text.push('\n');
        self.lines.push((first_index, start, self.text.len()));
    }
}

/// `classify`'s one ordered writer, shared by every shard.
///
/// A shard pushes each rendered batch with the watermark its flow batch
/// was sealed with: the lowest `first_index` it may still emit. A line
/// is written as soon as its `first_index` is below every shard's
/// watermark — no flow still to come can sort ahead of it — so the
/// output is in global `first_index` order and only lines not yet
/// writable are held. A segment is freed once its last line is written.
/// The first write error is latched: nothing is written after it, and
/// [`VerdictLines::finish`] returns it.
#[derive(Debug)]
struct VerdictLines<W: Write> {
    out: BufWriter<W>,
    failed: Option<io::Error>,
    watermarks: Vec<u64>,
    joined: usize,
    /// Segments holding unwritten lines; `None` slots are free.
    segments: Vec<Option<VerdictSegment>>,
    /// Each held segment's next unwritten line, smallest `first_index`
    /// on top.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    buffered: usize,
    buffered_max: usize,
}

impl<W: Write> VerdictLines<W> {
    /// A writer onto `out` for `shards` shards, none of which has
    /// promised anything yet.
    fn new(out: W, shards: usize) -> VerdictLines<W> {
        VerdictLines {
            out: BufWriter::new(out),
            failed: None,
            watermarks: vec![0; shards],
            joined: 0,
            segments: Vec::new(),
            heads: BinaryHeap::new(),
            buffered: 0,
            buffered_max: 0,
        }
    }

    /// Claim the next shard slot (call once per shard, before its first
    /// push).
    fn join(&mut self) -> usize {
        self.joined += 1;
        self.joined - 1
    }

    /// Take `shard`'s rendered batch and its new `watermark`, then write
    /// every line now below all shards' watermarks.
    fn push(&mut self, shard: usize, mut segment: VerdictSegment, watermark: u64) {
        if let Some(w) = self.watermarks.get_mut(shard) {
            *w = watermark;
        }
        segment
            .lines
            .sort_unstable_by_key(|&(first_index, _, _)| first_index);
        if let Some(&(head, _, _)) = segment.lines.first() {
            self.buffered += segment.lines.len();
            self.buffered_max = self.buffered_max.max(self.buffered);
            let slot = match self.segments.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    self.segments.push(None);
                    self.segments.len() - 1
                }
            };
            self.segments[slot] = Some(segment);
            self.heads.push(Reverse((head, slot)));
        }
        let floor = self.watermarks.iter().copied().min().unwrap_or(u64::MAX);
        self.write_below(floor);
    }

    /// Write, in `first_index` order, every held line below `floor`.
    fn write_below(&mut self, floor: u64) {
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((first_index, slot)) = *top;
            if first_index >= floor {
                break;
            }
            let segment = self.segments[slot]
                .as_mut()
                .expect("every head names a held segment");
            let (_, start, end) = segment.lines[segment.next];
            if self.failed.is_none() {
                if let Err(e) = self.out.write_all(&segment.text.as_bytes()[start..end]) {
                    self.failed = Some(e);
                }
            }
            segment.next += 1;
            self.buffered -= 1;
            match segment.lines.get(segment.next) {
                Some(&(next, _, _)) => top.0 = (next, slot),
                None => {
                    PeekMut::pop(top);
                    self.segments[slot] = None;
                }
            }
        }
    }

    /// Most lines held at once, waiting for the watermarks to pass them.
    fn buffered_max(&self) -> usize {
        self.buffered_max
    }

    /// Write every line still held, then `tail`, and flush. Returns the
    /// sink, or the first write error — in which case whatever was still
    /// buffered is dropped unwritten.
    fn finish(mut self, tail: &[u8]) -> io::Result<W> {
        self.write_below(u64::MAX);
        if self.failed.is_none() {
            if let Err(e) = self.out.write_all(tail).and_then(|()| self.out.flush()) {
                self.failed = Some(e);
            }
        }
        let (out, _unwritten) = self.out.into_parts();
        match self.failed {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let every: Vec<&str> = VALUE_FLAGS.iter().chain(BOOL_FLAGS).copied().collect();
        Args::parse("test", &raw, &every).expect("known flags only")
    }

    type Step<'a> = (usize, &'a [(u64, &'a str)], u64, &'a str);

    /// A segment of `(first_index, text)` lines.
    fn segment(lines: &[(u64, &str)]) -> VerdictSegment {
        let mut seg = VerdictSegment::default();
        for &(first_index, text) in lines {
            seg.push(first_index, |t| t.push_str(text));
        }
        seg
    }

    #[test]
    fn verdict_lines_merge_shards_and_write_in_first_index_order() {
        let mut lines = VerdictLines::new(Vec::new(), 2);
        let (a, b) = (lines.join(), lines.join());
        lines.push(a, segment(&[(7, "seven"), (2, "two\nlines")]), u64::MAX);
        lines.push(b, segment(&[(5, "five")]), u64::MAX);
        let out = lines.finish(b"tail\n").unwrap();
        assert_eq!(out, b"two\nlines\nfive\nseven\ntail\n");
    }

    #[test]
    fn verdict_lines_write_only_below_every_shards_watermark() {
        // Two shards push out of order under interleaved watermarks; after
        // each push exactly the lines below both watermarks are out.
        let mut lines = VerdictLines::new(Vec::new(), 2);
        let (a, b) = (lines.join(), lines.join());
        // (shard, its batch, its new watermark, everything written so far)
        let steps: [Step; 6] = [
            (a, &[(4, "4"), (0, "0")], 6, ""),
            (b, &[(3, "3")], 1, "0\n"),
            (b, &[(1, "1"), (5, "5")], 5, "0\n1\n3\n4\n"),
            (a, &[(9, "9"), (7, "7")], 10, "0\n1\n3\n4\n"),
            (a, &[], u64::MAX, "0\n1\n3\n4\n"),
            (b, &[(8, "8")], u64::MAX, "0\n1\n3\n4\n5\n7\n8\n9\n"),
        ];
        for (shard, seg, watermark, written) in steps {
            lines.push(shard, segment(seg), watermark);
            lines.out.flush().unwrap();
            assert_eq!(String::from_utf8_lossy(lines.out.get_ref()), written);
        }
        assert_eq!(lines.buffered_max(), 4);
        assert!(
            lines.segments.iter().all(Option::is_none),
            "a segment leaked"
        );
        let out = lines.finish(b"").unwrap();
        assert_eq!(out, b"0\n1\n3\n4\n5\n7\n8\n9\n");
    }

    /// A sink that takes `room` bytes, then fails every write.
    #[derive(Debug)]
    struct Full {
        took: Vec<u8>,
        room: usize,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.took.len() + buf.len() > self.room {
                return Err(io::Error::other("device full"));
            }
            self.took.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn verdict_lines_latch_the_first_write_error() {
        let long = "x".repeat(10_000);
        let mut lines = VerdictLines::new(
            Full {
                took: Vec::new(),
                room: 20_000,
            },
            1,
        );
        let shard = lines.join();
        for i in 0..4 {
            lines.push(shard, segment(&[(i, &long)]), i + 1);
        }
        assert!(lines.failed.is_some());
        let took = lines.out.get_ref().took.len();
        lines.push(shard, segment(&[(9, "late")]), u64::MAX);
        assert_eq!(
            lines.out.get_ref().took.len(),
            took,
            "written after the error"
        );
        let err = lines.finish(b"summary\n").unwrap_err();
        assert_eq!(err.to_string(), "device full");
    }

    #[test]
    fn boolean_flag_does_not_swallow_positional() {
        // The historical bug: `--jsonl` peeked ahead and consumed the
        // capture path as its "value".
        let a = args(&["--jsonl", "capture.pcap"]);
        assert_eq!(a.positional, vec!["capture.pcap"]);
        assert!(a.has("jsonl"));
        assert_eq!(a.get("jsonl"), None);
    }

    #[test]
    fn value_flags_consume_the_next_token() {
        let a = args(&["--threads", "8", "capture.pcap", "--max-flows", "1000"]);
        assert_eq!(a.get_u64_strict("threads", 0), Ok(8));
        assert_eq!(a.get_u64_strict("max-flows", 0), Ok(1000));
        assert_eq!(a.positional, vec!["capture.pcap"]);
    }

    #[test]
    fn equals_syntax_works_for_any_flag() {
        let a = args(&["--seed=42", "--jsonl", "--world=spec.json"]);
        assert_eq!(a.get_u64_strict("seed", 0), Ok(42));
        assert_eq!(a.get("world"), Some("spec.json"));
        assert!(a.has("jsonl"));
    }

    #[test]
    fn last_occurrence_wins() {
        let a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.get_u64_strict("seed", 0), Ok(2));
    }

    #[test]
    fn missing_value_at_end_is_tolerated() {
        let a = args(&["--threads"]);
        assert!(a.has("threads"));
        assert_eq!(a.get("threads"), None);
        assert!(a.get_u64_strict("threads", 3).is_err());
    }

    #[test]
    fn strict_parse_accepts_valid_and_absent_values() {
        let a = args(&["--threads", "8"]);
        assert_eq!(a.get_u64_strict("threads", 1), Ok(8));
        assert_eq!(a.get_u64_strict("sessions", 500), Ok(500));
    }

    #[test]
    fn strict_parse_rejects_garbage_instead_of_defaulting() {
        let a = args(&["--threads=abc"]);
        let err = a.get_u64_strict("threads", 1).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("abc"), "{err}");
    }

    #[test]
    fn strict_parse_rejects_missing_value_and_negative_numbers() {
        let a = args(&["--seed"]);
        assert!(a.get_u64_strict("seed", 7).is_err());
        let b = args(&["--max-flows=-4"]);
        assert!(b.get_u64_strict("max-flows", 0).is_err());
    }

    #[test]
    fn strict_parse_uses_the_last_occurrence() {
        let a = args(&["--threads", "2", "--threads", "oops"]);
        assert!(a.get_u64_strict("threads", 1).is_err());
        let b = args(&["--threads", "oops", "--threads", "2"]);
        assert_eq!(b.get_u64_strict("threads", 1), Ok(2));
    }
}
