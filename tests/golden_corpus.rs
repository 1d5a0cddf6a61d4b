//! Golden-corpus regression suite: a checked-in capture covering every
//! one of the 19 Table 1 signatures (plus clean traffic), replayed
//! through the streaming engine and diffed verdict-by-verdict against a
//! checked-in JSONL file.
//!
//! The capture is generated by [`build_corpus`]; the committed
//! `tests/fixtures/golden.pcap` must equal its output byte-for-byte so
//! the fixture can never silently drift from the generator. To bless new
//! fixtures after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```

use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;

use tamperscope::capture::{EngineConfig, OfflineConfig, PcapMemSource, PcapWriter};
use tamperscope::cli::{self, Render};
use tamperscope::core::{BatchClassifier, ClassifierConfig, Signature};
use tamperscope::wire::{PacketBuilder, TcpFlags};

const SERVER: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));

/// One flow under construction: timestamped frames from a fixed client.
struct FlowScript {
    client: IpAddr,
    sport: u16,
    dport: u16,
    frames: Vec<(u32, Vec<u8>)>,
}

impl FlowScript {
    fn new(index: u8, dport: u16) -> FlowScript {
        FlowScript {
            client: IpAddr::V4(Ipv4Addr::new(203, 0, 113, index)),
            sport: 30_000 + u16::from(index),
            dport,
            frames: Vec::new(),
        }
    }

    fn push(&mut self, ts: u32, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> &mut Self {
        let frame = PacketBuilder::new(self.client, SERVER, self.sport, self.dport)
            .flags(flags)
            .seq(seq)
            .ack(ack)
            .ttl(52)
            .ip_id((seq % 60_000) as u16)
            .payload(bytes::Bytes::copy_from_slice(payload))
            .build()
            .emit()
            .to_vec();
        self.frames.push((ts, frame));
        self
    }

    /// SYN + handshake ACK at `t`.
    fn handshake(&mut self, t: u32) -> &mut Self {
        self.push(t, TcpFlags::SYN, 100, 0, b"");
        self.push(t, TcpFlags::ACK, 101, 501, b"")
    }

    /// Handshake plus one data packet at `t+1`.
    fn one_data(&mut self, t: u32) -> &mut Self {
        self.handshake(t);
        self.push(t + 1, TcpFlags::PSH_ACK, 101, 501, b"hello")
    }

    /// Handshake plus two distinct data packets.
    fn two_data(&mut self, t: u32) -> &mut Self {
        self.one_data(t);
        self.push(t + 1, TcpFlags::PSH_ACK, 106, 601, b"world")
    }
}

/// The corpus: one scripted flow per signature, in `Signature::ALL`
/// order, plus clean TLS and HTTP flows at the end.
fn build_corpus() -> Vec<u8> {
    let mut scripts: Vec<FlowScript> = Vec::new();
    let mut idx = 0u8;
    let mut flow = |dport: u16| {
        idx += 1;
        FlowScript::new(idx, dport)
    };
    let t = 100;

    // --- Post-SYN ---
    // ⟨SYN → ∅⟩
    let mut s = flow(443);
    s.push(t, TcpFlags::SYN, 100, 0, b"");
    scripts.push(s);
    // ⟨SYN → RST⟩
    let mut s = flow(443);
    s.push(t, TcpFlags::SYN, 100, 0, b"");
    s.push(t, TcpFlags::RST, 101, 0, b"");
    scripts.push(s);
    // ⟨SYN → RST+ACK⟩
    let mut s = flow(443);
    s.push(t, TcpFlags::SYN, 100, 0, b"");
    s.push(t, TcpFlags::RST_ACK, 101, 101, b"");
    scripts.push(s);
    // ⟨SYN → RST; RST+ACK⟩
    let mut s = flow(443);
    s.push(t, TcpFlags::SYN, 100, 0, b"");
    s.push(t, TcpFlags::RST, 101, 0, b"");
    s.push(t, TcpFlags::RST_ACK, 101, 101, b"");
    scripts.push(s);

    // --- Post-ACK ---
    // ⟨SYN; ACK → ∅⟩
    let mut s = flow(443);
    s.handshake(t);
    scripts.push(s);
    // ⟨SYN; ACK → RST⟩
    let mut s = flow(443);
    s.handshake(t);
    s.push(t + 1, TcpFlags::RST, 101, 0, b"");
    scripts.push(s);
    // ⟨SYN; ACK → RST; RST⟩
    let mut s = flow(443);
    s.handshake(t);
    s.push(t + 1, TcpFlags::RST, 101, 0, b"");
    s.push(t + 1, TcpFlags::RST, 101, 0, b"");
    scripts.push(s);
    // ⟨SYN; ACK → RST+ACK⟩
    let mut s = flow(443);
    s.handshake(t);
    s.push(t + 1, TcpFlags::RST_ACK, 101, 501, b"");
    scripts.push(s);
    // ⟨SYN; ACK → RST+ACK; RST+ACK⟩
    let mut s = flow(443);
    s.handshake(t);
    s.push(t + 1, TcpFlags::RST_ACK, 101, 501, b"");
    s.push(t + 1, TcpFlags::RST_ACK, 101, 501, b"");
    scripts.push(s);

    // --- Post-PSH ---
    // ⟨PSH+ACK → ∅⟩
    let mut s = flow(443);
    s.one_data(t);
    scripts.push(s);
    // ⟨PSH+ACK → RST⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST+ACK⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST_ACK, 106, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST; RST+ACK⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    s.push(t + 2, TcpFlags::RST_ACK, 106, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST+ACK; RST+ACK⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST_ACK, 106, 700, b"");
    s.push(t + 2, TcpFlags::RST_ACK, 106, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST = RST⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST ≠ RST⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    s.push(t + 2, TcpFlags::RST, 106, 800, b"");
    scripts.push(s);
    // ⟨PSH+ACK → RST; RST₀⟩
    let mut s = flow(443);
    s.one_data(t);
    s.push(t + 2, TcpFlags::RST, 106, 0, b"");
    s.push(t + 2, TcpFlags::RST, 106, 700, b"");
    scripts.push(s);

    // --- Post-Data ---
    // ⟨PSH+ACK; Data → RST⟩
    let mut s = flow(443);
    s.two_data(t);
    s.push(t + 2, TcpFlags::RST, 112, 700, b"");
    scripts.push(s);
    // ⟨PSH+ACK; Data → RST+ACK⟩
    let mut s = flow(443);
    s.two_data(t);
    s.push(t + 2, TcpFlags::RST_ACK, 112, 700, b"");
    scripts.push(s);

    // --- Clean traffic ---
    // A graceful HTTP request with FIN teardown: Not Tampered.
    let mut s = flow(80);
    s.handshake(t);
    s.push(
        t + 1,
        TcpFlags::PSH_ACK,
        101,
        501,
        b"GET / HTTP/1.1\r\nHost: fine.example.org\r\n\r\n",
    );
    s.push(t + 2, TcpFlags::FIN_ACK, 145, 900, b"");
    scripts.push(s);
    // A graceful TLS-port flow with FIN teardown.
    let mut s = flow(443);
    s.handshake(t);
    s.push(t + 1, TcpFlags::PSH_ACK, 101, 501, b"hello");
    s.push(t + 2, TcpFlags::FIN_ACK, 106, 900, b"");
    scripts.push(s);

    // Interleave all flows by timestamp so the capture looks like real
    // concurrent traffic rather than one flow at a time.
    let mut timed: Vec<(u32, usize, Vec<u8>)> = Vec::new();
    for (fi, script) in scripts.into_iter().enumerate() {
        for (ts, frame) in script.frames {
            timed.push((ts, fi, frame));
        }
    }
    timed.sort_by_key(|(ts, fi, _)| (*ts, *fi));
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for (i, (ts, _, frame)) in timed.iter().enumerate() {
        w.write_frame(*ts, i as u32, frame).expect("frame");
    }
    w.into_inner()
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Replay capture bytes through `tamperscope classify --jsonl`'s
/// pipeline; verdict JSONL in global first-record order, one line per flow.
fn replay(bytes: &[u8], threads: usize) -> String {
    let cfg = EngineConfig {
        threads,
        ..EngineConfig::default()
    };
    let mut src = PcapMemSource::new(bytes::Bytes::copy_from_slice(bytes)).expect("pcap header");
    let run = cli::classify(&mut src, &cfg, Render::Jsonl, false, Vec::new(), None);
    let text = run
        .written
        .expect("capture read to its end")
        .expect("write to memory");
    String::from_utf8(text).expect("verdict lines are UTF-8")
}

#[test]
fn golden_corpus_covers_all_signatures_and_replays_identically() {
    let generated = build_corpus();
    let pcap_path = fixture("golden.pcap");
    let verdicts_path = fixture("golden.verdicts.jsonl");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(pcap_path.parent().unwrap()).unwrap();
        std::fs::write(&pcap_path, &generated).unwrap();
        std::fs::write(&verdicts_path, replay(&generated, 2)).unwrap();
    }

    // The committed capture must equal the generator's output so the two
    // can never drift apart silently.
    let golden_pcap = std::fs::read(&pcap_path)
        .expect("tests/fixtures/golden.pcap missing — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(
        generated, golden_pcap,
        "generator no longer reproduces golden.pcap; if intentional, re-bless with UPDATE_GOLDEN=1"
    );

    // Replay the *file* (the fixture is authoritative) and diff verdicts.
    let golden_verdicts = std::fs::read_to_string(&verdicts_path)
        .expect("tests/fixtures/golden.verdicts.jsonl missing — run with UPDATE_GOLDEN=1");
    for threads in [1, 2, 8] {
        let replayed = replay(&golden_pcap, threads);
        assert_eq!(
            replayed, golden_verdicts,
            "verdicts diverged from golden at {threads} thread(s)"
        );
    }

    // Corpus coverage: every one of the 19 signatures appears exactly
    // once, and the clean flows classify clean.
    for sig in Signature::ALL {
        let needle = format!("\"signature\":\"{}\"", sig.label());
        let hits = golden_verdicts.matches(&needle).count();
        assert_eq!(hits, 1, "{} appears {hits} times, want 1", sig.label());
    }

    // Table 1 itself: this match is exhaustive and wildcard-free, so a
    // new variant fails to compile here until it is given an ordinal, and
    // each ordinal must be the variant's position in `Signature::ALL`.
    for (position, sig) in Signature::ALL.into_iter().enumerate() {
        let ordinal = match sig {
            Signature::SynNone => 0,
            Signature::SynRst => 1,
            Signature::SynRstAck => 2,
            Signature::SynRstBoth => 3,
            Signature::AckNone => 4,
            Signature::AckRst => 5,
            Signature::AckRstRst => 6,
            Signature::AckRstAck => 7,
            Signature::AckRstAckRstAck => 8,
            Signature::PshNone => 9,
            Signature::PshRst => 10,
            Signature::PshRstAck => 11,
            Signature::PshRstRstAck => 12,
            Signature::PshRstAckRstAck => 13,
            Signature::PshRstEq => 14,
            Signature::PshRstNeq => 15,
            Signature::PshRstZero => 16,
            Signature::DataRst => 17,
            Signature::DataRstAck => 18,
        };
        assert_eq!(
            ordinal, position,
            "{sig:?} is at Signature::ALL[{position}]"
        );
    }
    let labels: std::collections::BTreeSet<&str> =
        Signature::ALL.iter().map(|s| s.label()).collect();
    assert_eq!(
        labels.len(),
        Signature::ALL.len(),
        "two signatures share a label"
    );
    let design =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
            .expect("DESIGN.md");
    let count = format!("{} signatures", Signature::ALL.len());
    assert!(design.contains(&count), "DESIGN.md never says {count:?}");
    let clean = golden_verdicts
        .matches("\"verdict\":\"not_tampered\"")
        .count();
    assert_eq!(clean, 2, "want exactly the two scripted clean flows");
    assert_eq!(golden_verdicts.lines().count(), 21);
}

// ---------------------------------------------------------------------------
// Satellite: minimal per-signature reproducers
// ---------------------------------------------------------------------------

use tamperscope::capture::flows_from_pcap;
use tamperscope::core::classify;

/// The smallest packet sequence that still classifies to each signature,
/// one checked-in pcap per slug. These are the irreducible shapes: the
/// stage ladder needs no handshake for Post-PSH/Post-Data (one data
/// packet alone sets the stage), while Post-ACK needs exactly SYN then a
/// pure ACK, and the silence signatures rely on the offline collector's
/// 30-second close timeout for their tail gap.
fn minimal_reproducers() -> Vec<(&'static str, Signature, FlowScript)> {
    let t = 100;
    let mut idx = 0u8;
    let mut build =
        |slug: &'static str, sig: Signature, steps: &[(u32, TcpFlags, u32, u32, &'static [u8])]| {
            idx += 1;
            let mut s = FlowScript::new(idx, 443);
            for &(dt, flags, seq, ack, payload) in steps {
                s.push(t + dt, flags, seq, ack, payload);
            }
            (slug, sig, s)
        };
    const R: TcpFlags = TcpFlags::RST;
    const RA: TcpFlags = TcpFlags::RST_ACK;
    const P: TcpFlags = TcpFlags::PSH_ACK;
    vec![
        // Post-SYN: one SYN, then the RST multiset.
        build(
            "syn_none",
            Signature::SynNone,
            &[(0, TcpFlags::SYN, 100, 0, b"")],
        ),
        build(
            "syn_rst",
            Signature::SynRst,
            &[(0, TcpFlags::SYN, 100, 0, b""), (0, R, 101, 0, b"")],
        ),
        build(
            "syn_rst_ack",
            Signature::SynRstAck,
            &[(0, TcpFlags::SYN, 100, 0, b""), (0, RA, 101, 101, b"")],
        ),
        build(
            "syn_rst_both",
            Signature::SynRstBoth,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, R, 101, 0, b""),
                (0, RA, 101, 101, b""),
            ],
        ),
        // Post-ACK: SYN plus one pure ACK.
        build(
            "ack_none",
            Signature::AckNone,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, TcpFlags::ACK, 101, 501, b""),
            ],
        ),
        build(
            "ack_rst",
            Signature::AckRst,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, TcpFlags::ACK, 101, 501, b""),
                (1, R, 101, 0, b""),
            ],
        ),
        build(
            "ack_rst_rst",
            Signature::AckRstRst,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, TcpFlags::ACK, 101, 501, b""),
                (1, R, 101, 0, b""),
                (1, R, 101, 0, b""),
            ],
        ),
        build(
            "ack_rst_ack",
            Signature::AckRstAck,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, TcpFlags::ACK, 101, 501, b""),
                (1, RA, 101, 501, b""),
            ],
        ),
        build(
            "ack_rst_ack_rst_ack",
            Signature::AckRstAckRstAck,
            &[
                (0, TcpFlags::SYN, 100, 0, b""),
                (0, TcpFlags::ACK, 101, 501, b""),
                (1, RA, 101, 501, b""),
                (1, RA, 101, 501, b""),
            ],
        ),
        // Post-PSH: a single data packet sets the stage by itself.
        build(
            "psh_none",
            Signature::PshNone,
            &[(0, P, 101, 501, b"hello")],
        ),
        build(
            "psh_rst",
            Signature::PshRst,
            &[(0, P, 101, 501, b"hello"), (1, R, 106, 700, b"")],
        ),
        build(
            "psh_rst_ack",
            Signature::PshRstAck,
            &[(0, P, 101, 501, b"hello"), (1, RA, 106, 700, b"")],
        ),
        build(
            "psh_rst_rst_ack",
            Signature::PshRstRstAck,
            &[
                (0, P, 101, 501, b"hello"),
                (1, R, 106, 700, b""),
                (1, RA, 106, 700, b""),
            ],
        ),
        build(
            "psh_rst_ack_rst_ack",
            Signature::PshRstAckRstAck,
            &[
                (0, P, 101, 501, b"hello"),
                (1, RA, 106, 700, b""),
                (1, RA, 106, 700, b""),
            ],
        ),
        build(
            "psh_rst_eq",
            Signature::PshRstEq,
            &[
                (0, P, 101, 501, b"hello"),
                (1, R, 106, 700, b""),
                (1, R, 106, 700, b""),
            ],
        ),
        build(
            "psh_rst_neq",
            Signature::PshRstNeq,
            &[
                (0, P, 101, 501, b"hello"),
                (1, R, 106, 700, b""),
                (1, R, 106, 800, b""),
            ],
        ),
        build(
            "psh_rst_zero",
            Signature::PshRstZero,
            &[
                (0, P, 101, 501, b"hello"),
                (1, R, 106, 0, b""),
                (1, R, 106, 700, b""),
            ],
        ),
        // Post-Data: two distinct data packets, then the reset.
        build(
            "data_rst",
            Signature::DataRst,
            &[
                (0, P, 101, 501, b"hello"),
                (0, P, 106, 501, b"world"),
                (1, R, 111, 700, b""),
            ],
        ),
        build(
            "data_rst_ack",
            Signature::DataRstAck,
            &[
                (0, P, 101, 501, b"hello"),
                (0, P, 106, 501, b"world"),
                (1, RA, 111, 700, b""),
            ],
        ),
    ]
}

/// Write one flow script as a standalone pcap.
fn script_to_pcap(script: &FlowScript) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for (i, (ts, frame)) in script.frames.iter().enumerate() {
        w.write_frame(*ts, i as u32, frame).expect("frame");
    }
    w.into_inner()
}

/// Satellite: every signature has a blessed minimal reproducer pcap under
/// `tests/fixtures/sig_<slug>.pcap`, and each still classifies to exactly
/// its signature — through a fresh `classify()` and one classifier
/// reused across all 19 alike. Re-bless with `UPDATE_GOLDEN=1` after an
/// intentional change.
#[test]
fn minimal_per_signature_fixtures_still_classify() {
    let reproducers = minimal_reproducers();
    assert_eq!(reproducers.len(), Signature::ALL.len());
    let cfg = ClassifierConfig::default();
    let mut clf = BatchClassifier::new(cfg);
    let mut seen = Vec::new();

    for (slug, want, script) in &reproducers {
        let generated = script_to_pcap(script);
        let path = fixture(&format!("sig_{slug}.pcap"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &generated).unwrap();
        }
        let golden = std::fs::read(&path).unwrap_or_else(|_| {
            panic!("tests/fixtures/sig_{slug}.pcap missing — run with UPDATE_GOLDEN=1")
        });
        assert_eq!(
            generated, golden,
            "generator no longer reproduces sig_{slug}.pcap; re-bless if intentional"
        );

        let (flows, stats) =
            flows_from_pcap(golden.as_slice(), &OfflineConfig::default()).expect("fixture parses");
        assert_eq!(flows.len(), 1, "sig_{slug}: want exactly one flow");
        assert_eq!(stats.unparsable, 0);

        let analysis = classify(&flows[0], &cfg);
        assert_eq!(
            analysis.signature(),
            Some(*want),
            "sig_{slug} no longer classifies to {}",
            want.label()
        );
        assert_eq!(
            clf.classify_flow(&flows[0]),
            analysis,
            "sig_{slug}: reused classifier disagrees with a fresh classify()"
        );
        seen.push(*want);
    }

    // One reproducer per signature, no repeats, full coverage.
    seen.sort_by_key(|s| s.index());
    seen.dedup();
    assert_eq!(seen.len(), Signature::ALL.len());
}
