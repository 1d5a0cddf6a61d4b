//! The tampering-signature taxonomy (the paper's Table 1).
//!
//! A signature `⟨X → Y⟩` names the packets seen before the tampering event
//! (`X`) and the tear-down evidence after it (`Y`), where `∅` denotes more
//! than three seconds of silence. Signatures are grouped by how far into
//! the connection tampering strikes.

use std::fmt;

/// Connection stage at which the tampering event takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Mid-handshake: only a single SYN was seen.
    PostSyn,
    /// Immediately post-handshake: SYN and the handshake ACK, no data.
    PostAck,
    /// After the first data packet (TLS ClientHello / HTTP request).
    PostPsh,
    /// After multiple data packets.
    PostData,
}

impl Stage {
    /// Human-readable stage name as used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Stage::PostSyn => "Post-SYN",
            Stage::PostAck => "Post-ACK",
            Stage::PostPsh => "Post-PSH",
            Stage::PostData => "Post-Multiple-Data",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The 19 tampering signatures of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(
    missing_docs,
    reason = "each variant is documented by `label`/`description`"
)]
pub enum Signature {
    SynNone,
    SynRst,
    SynRstAck,
    SynRstBoth,
    AckNone,
    AckRst,
    AckRstRst,
    AckRstAck,
    AckRstAckRstAck,
    PshNone,
    PshRst,
    PshRstAck,
    PshRstRstAck,
    PshRstAckRstAck,
    PshRstEq,
    PshRstNeq,
    PshRstZero,
    DataRst,
    DataRstAck,
}

impl Signature {
    /// All 19 signatures in Table 1 order.
    pub const ALL: [Signature; 19] = [
        Signature::SynNone,
        Signature::SynRst,
        Signature::SynRstAck,
        Signature::SynRstBoth,
        Signature::AckNone,
        Signature::AckRst,
        Signature::AckRstRst,
        Signature::AckRstAck,
        Signature::AckRstAckRstAck,
        Signature::PshNone,
        Signature::PshRst,
        Signature::PshRstAck,
        Signature::PshRstRstAck,
        Signature::PshRstAckRstAck,
        Signature::PshRstEq,
        Signature::PshRstNeq,
        Signature::PshRstZero,
        Signature::DataRst,
        Signature::DataRstAck,
    ];

    /// Stable dense index (Table 1 order), for counters.
    pub fn index(self) -> usize {
        Signature::ALL.iter().position(|s| *s == self).unwrap()
    }

    /// The stage this signature belongs to.
    pub fn stage(self) -> Stage {
        use Signature::*;
        match self {
            SynNone | SynRst | SynRstAck | SynRstBoth => Stage::PostSyn,
            AckNone | AckRst | AckRstRst | AckRstAck | AckRstAckRstAck => Stage::PostAck,
            PshNone | PshRst | PshRstAck | PshRstRstAck | PshRstAckRstAck | PshRstEq
            | PshRstNeq | PshRstZero => Stage::PostPsh,
            DataRst | DataRstAck => Stage::PostData,
        }
    }

    /// The paper's notation, e.g. `⟨PSH+ACK → RST; RST₀⟩`.
    pub fn label(self) -> &'static str {
        use Signature::*;
        match self {
            SynNone => "⟨SYN → ∅⟩",
            SynRst => "⟨SYN → RST⟩",
            SynRstAck => "⟨SYN → RST+ACK⟩",
            SynRstBoth => "⟨SYN → RST; RST+ACK⟩",
            AckNone => "⟨SYN; ACK → ∅⟩",
            AckRst => "⟨SYN; ACK → RST⟩",
            AckRstRst => "⟨SYN; ACK → RST; RST⟩",
            AckRstAck => "⟨SYN; ACK → RST+ACK⟩",
            AckRstAckRstAck => "⟨SYN; ACK → RST+ACK; RST+ACK⟩",
            PshNone => "⟨PSH+ACK → ∅⟩",
            PshRst => "⟨PSH+ACK → RST⟩",
            PshRstAck => "⟨PSH+ACK → RST+ACK⟩",
            PshRstRstAck => "⟨PSH+ACK → RST; RST+ACK⟩",
            PshRstAckRstAck => "⟨PSH+ACK → RST+ACK; RST+ACK⟩",
            PshRstEq => "⟨PSH+ACK → RST = RST⟩",
            PshRstNeq => "⟨PSH+ACK → RST ≠ RST⟩",
            PshRstZero => "⟨PSH+ACK → RST; RST₀⟩",
            DataRst => "⟨PSH+ACK; Data → RST⟩",
            DataRstAck => "⟨PSH+ACK; Data → RST+ACK⟩",
        }
    }

    /// The Table 1 description column.
    pub fn description(self) -> &'static str {
        use Signature::*;
        match self {
            SynNone => "No packets after a single SYN",
            SynRst => "One or more RSTs after a single SYN",
            SynRstAck => "One or more RST+ACKs after the SYN",
            SynRstBoth => "One or more RST and RST+ACK after a single SYN",
            AckNone => "No packets received after a SYN and an ACK",
            AckRst => "Exactly one RST after a SYN and an ACK",
            AckRstRst => "More than one RST after a SYN and an ACK",
            AckRstAck => "Exactly one RST+ACK after a SYN and an ACK",
            AckRstAckRstAck => "More than one RST+ACK after a SYN and an ACK",
            PshNone => "No packets received after PSH+ACK packets",
            PshRst => "Exactly one RST",
            PshRstAck => "Exactly one RST+ACK",
            PshRstRstAck => "At least one RST and one RST+ACK",
            PshRstAckRstAck => "At least two RST+ACKs",
            PshRstEq => "More than one RST; same ACK numbers",
            PshRstNeq => "More than one RST; change in ACK numbers",
            PshRstZero => "More than one RST; one of the ACK numbers is zero",
            DataRst => "One or more RSTs not immediately after first PSH+ACK",
            DataRstAck => "One or more RST+ACKs not immediately after first PSH+ACK",
        }
    }

    /// True for the drop-evidence (silence) signatures.
    pub fn is_silence(self) -> bool {
        matches!(
            self,
            Signature::SynNone | Signature::AckNone | Signature::PshNone
        )
    }

    /// The Table 1 "Prior Work" column: studies that identified the exact
    /// signature (marked `*`) or the general phenomenon. Novel signatures
    /// return `"—"`.
    pub fn prior_work(self) -> &'static str {
        use Signature::*;
        match self {
            SynNone => "[16, 32, 62]",
            SynRst => "[84]*, [15, 62]",
            SynRstAck => "[84]*, [15, 62]",
            SynRstBoth => "[20]",
            AckNone => "[10, 12, 15, 16, 75]",
            AckRst => "[84]*, [10, 12, 22]",
            AckRstRst => "[15, 22]",
            AckRstAck => "[84]*",
            AckRstAckRstAck => "—",
            PshNone => "[12, 19, 88]",
            PshRst => "[14, 48, 74, 82, 83]",
            PshRstAck => "[14, 48, 74, 82, 83]",
            PshRstRstAck => "[20]*, [82, 83]",
            PshRstAckRstAck => "[20]*, [82]",
            PshRstEq => "—",
            PshRstNeq => "[84]*",
            PshRstZero => "—",
            DataRst => "—",
            DataRstAck => "—",
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the classifier concluded about one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// Graceful termination, or still active at truncation: no tampering
    /// evidence.
    NotTampered,
    /// The flow is possibly tampered *and* matches a tampering signature.
    Tampered(Signature),
    /// Possibly tampered (RST or unexplained silence) but not matching any
    /// signature — the paper's residual 13.1%.
    PossiblyTamperedOther,
}

impl Classification {
    /// True if the flow counted as possibly tampered (signature or not).
    pub(crate) fn is_possibly_tampered(self) -> bool {
        !matches!(self, Classification::NotTampered)
    }

    /// The matched signature, if any.
    pub(crate) fn signature(self) -> Option<Signature> {
        if let Classification::Tampered(s) = self {
            Some(s)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_signatures() {
        assert_eq!(Signature::ALL.len(), 19);
        // Indices are dense and stable.
        for (i, s) in Signature::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn stage_partition_sizes_match_table1() {
        let count = |st: Stage| Signature::ALL.iter().filter(|s| s.stage() == st).count();
        assert_eq!(count(Stage::PostSyn), 4);
        assert_eq!(count(Stage::PostAck), 5);
        assert_eq!(count(Stage::PostPsh), 8);
        assert_eq!(count(Stage::PostData), 2);
    }

    #[test]
    fn labels_use_paper_notation() {
        assert_eq!(Signature::SynNone.label(), "⟨SYN → ∅⟩");
        assert_eq!(Signature::PshRstZero.label(), "⟨PSH+ACK → RST; RST₀⟩");
        assert_eq!(Signature::DataRstAck.label(), "⟨PSH+ACK; Data → RST+ACK⟩");
    }

    #[test]
    fn silence_signatures() {
        let silent: Vec<_> = Signature::ALL.iter().filter(|s| s.is_silence()).collect();
        assert_eq!(silent.len(), 3);
    }

    #[test]
    fn prior_work_marks_five_novel_signatures() {
        // The paper introduces five signatures with no prior record.
        let novel: Vec<Signature> = Signature::ALL
            .iter()
            .copied()
            .filter(|s| s.prior_work() == "—")
            .collect();
        assert_eq!(
            novel,
            vec![
                Signature::AckRstAckRstAck,
                Signature::PshRstEq,
                Signature::PshRstZero,
                Signature::DataRst,
                Signature::DataRstAck,
            ]
        );
        assert!(Signature::SynRst.prior_work().contains("[84]*"));
    }

    #[test]
    fn classification_predicates() {
        assert!(!Classification::NotTampered.is_possibly_tampered());
        assert!(Classification::PossiblyTamperedOther.is_possibly_tampered());
        let c = Classification::Tampered(Signature::PshRst);
        assert!(c.is_possibly_tampered());
        assert_eq!(c.signature(), Some(Signature::PshRst));
        assert_eq!(Classification::NotTampered.signature(), None);
    }
}
