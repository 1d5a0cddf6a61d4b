//! The classifier: [`BatchClassifier`], over either storage layout.
//!
//! Classification is a pure function of a finished flow's packets and its
//! observation horizon. One generic body,
//! [`classify_flow`](BatchClassifier::classify_flow), reads the flow
//! through [`FlowView`], so the same code serves both layouts the
//! pipeline holds flows in: the arena-backed [`FlowRows`] of a
//! [`FlowBatch`] (the pcap engine's path, also
//! [`classify_batch`](BatchClassifier::classify_batch)) and the owned
//! [`FlowRecord`](tamper_capture::FlowRecord) (the simulator's path) —
//! verdicts are identical by construction. The same walk yields every
//! per-flow fact the aggregate reads, so nothing downstream reads a
//! packet again. The classifier owns its scratch buffers and reuses them
//! across flows and batches: warm (after the first few flows have grown
//! the scratch to steady state), classifying domain-free flows performs
//! **zero** heap requests on either layout; the `alloc_discipline` suite
//! enforces that budget.
//!
//! [`FlowRows`]: tamper_capture::FlowRows

use crate::classify::{merge_rst_counts, rst_signature, ClassifierConfig, FlowAnalysis};
use crate::evidence::EvidenceFold;
use crate::machine::{event_of, stage_of, transition, Count, Event, StageState};
use crate::reorder::reconstruct_order;
use crate::signature::{Classification, Signature, Stage};
use crate::trigger;
use crate::view::{FlowView, PacketsView};
use tamper_capture::FlowBatch;
use tamper_wire::Seq;

/// The one classifier. Holds the configuration and the scratch buffers
/// (reconstructed order, RST multiset, data-seq dedup, batch output),
/// reused across flows and batches.
pub struct BatchClassifier {
    cfg: ClassifierConfig,
    /// Reconstructed packet order (indices into the view).
    order: Vec<usize>,
    /// (is_pure_rst, ack) of every RST event, in reconstructed order.
    rsts: Vec<(bool, Seq)>,
    /// Data-segment dedup scratch.
    seen_data_seqs: Vec<Seq>,
    out: Vec<FlowAnalysis>,
}

impl BatchClassifier {
    /// A classifier with the given configuration and empty scratch.
    pub fn new(cfg: ClassifierConfig) -> BatchClassifier {
        BatchClassifier {
            cfg,
            order: Vec::new(),
            rsts: Vec::new(),
            seen_data_seqs: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The reconstructed packet order (indices in log order) of the flow
    /// classified last — what an explanation narrates, without sorting
    /// the flow a second time.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Classify every flow in the batch, in span order. The returned
    /// slice lives until the next `classify_batch` call.
    pub fn classify_batch(&mut self, batch: &FlowBatch) -> &[FlowAnalysis] {
        self.out.clear();
        for i in 0..batch.flow_count() {
            let analysis = self.classify_flow(&batch.flow_rows(i));
            self.out.push(analysis);
        }
        &self.out
    }

    /// The one classification body, generic over packet storage:
    /// reconstruct order, fold the event stream through the transition
    /// table (and the header fields into the injection evidence and
    /// scanner marks), and read the verdict off the final state. A
    /// truncated flow (cut by the packet cap) has an artificial tail
    /// silence that must not count as evidence. Once the scratch is warm
    /// no packet count inside the corpus' high-water marks allocates; the
    /// only allocation left is the returned trigger domain.
    pub fn classify_flow<F: FlowView + ?Sized>(&mut self, flow: &F) -> FlowAnalysis {
        let cfg = self.cfg;
        let v = flow.packets();
        let trigger = trigger::extract(flow.tuple().dst_port, v);
        reconstruct_order(v, &mut self.order);
        self.rsts.clear();
        self.seen_data_seqs.clear();

        let mut state = StageState::START;
        let mut evidence = EvidenceFold::default();
        let mut syn_payload = false;
        let mut max_gap = 0u64;
        let mut prev_ts = None;
        let mut last_ts = None;
        for &pi in self.order.iter() {
            let r = v.row(pi);
            evidence.push(pi, &r);
            syn_payload |= r.flags.has_syn() && r.payload_len > 0;
            let ts = r.ts_sec;
            if let Some(prev) = prev_ts {
                max_gap = max_gap.max(ts.saturating_sub(prev));
            }
            prev_ts = Some(ts);
            last_ts = last_ts.max(Some(ts));
            let ev = event_of(&r, &mut self.seen_data_seqs);
            if ev == Event::Rst {
                self.rsts.push((r.flags.is_pure_rst(), r.ack));
            }
            state = transition(state, ev);
        }

        let tail_gap = if flow.truncated() {
            // The record stopped because the packet cap hit, not because
            // the flow went quiet; the tail says nothing.
            0
        } else {
            last_ts.map_or(0, |last| flow.observation_end_sec().saturating_sub(last))
        };

        let rsts = self.rsts.as_slice();
        let rst_count = rsts.iter().filter(|(pure, _)| *pure).count();
        let rst_ack_count = rsts.len() - rst_count;
        let silent =
            !state.fin_any && (max_gap >= cfg.inactivity_secs || tail_gap >= cfg.inactivity_secs);
        let possibly_tampered = state.rst || silent;
        let (evidence, scanner) = evidence.finish();

        let (classification, stage) = if !possibly_tampered || self.order.is_empty() {
            (Classification::NotTampered, None)
        } else {
            let stage = stage_of(state);
            let signature = stage.and_then(|st| {
                if state.fin_before {
                    // Teardown was already under way when the evidence
                    // arrived: counted in its stage, matching no signature.
                    return None;
                }
                if state.rst {
                    if st == Stage::PostSyn && state.syns != Count::One {
                        // Post-SYN signatures require "a single SYN".
                        return None;
                    }
                    rst_signature(st, rsts)
                } else {
                    match st {
                        Stage::PostSyn if state.syns == Count::One => Some(Signature::SynNone),
                        Stage::PostSyn => None, // multiple SYNs then silence
                        Stage::PostAck => Some(Signature::AckNone),
                        Stage::PostPsh | Stage::PostData => Some(Signature::PshNone),
                    }
                }
            });
            let signature = if cfg.split_rst_counts {
                signature
            } else {
                signature.map(merge_rst_counts)
            };
            let classification = match signature {
                Some(sig) => Classification::Tampered(sig),
                None => Classification::PossiblyTamperedOther,
            };
            (classification, stage)
        };
        let post_data = classification
            .signature()
            .is_some_and(|sig| sig.stage() == Stage::PostData);

        FlowAnalysis {
            classification,
            stage,
            rst_count,
            rst_ack_count,
            trigger,
            evidence,
            scanner,
            syn_payload,
            first_seq: if v.is_empty() {
                Seq::ZERO
            } else {
                v.row(0).seq
            },
            firewall_user_agent: post_data
                && trigger::first_user_agent(v) == Some(trigger::FIREWALL_USER_AGENT),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamper_capture::{EvictionCause, FlowRecord, PacketRecord};
    use tamper_wire::TcpFlags;

    #[test]
    fn arena_rows_match_owned_records() {
        let syn = PacketRecord {
            ip_id: Some(7),
            ttl: 64,
            window: 1024,
            has_tcp_options: false,
            ..PacketRecord::new(100, TcpFlags::SYN, 1)
        };
        let data = PacketRecord {
            flags: TcpFlags::PSH_ACK,
            seq: Seq::from(2),
            ack: Seq::from(900),
            payload_len: 5,
            payload: bytes::Bytes::from_static(b"hello"),
            ..syn.clone()
        };
        let rst = PacketRecord {
            ts_sec: 101,
            flags: TcpFlags::RST,
            seq: Seq::from(7),
            ..syn.clone()
        };
        let syn_data_rst = FlowRecord::new(443, vec![syn.clone(), data, rst], 131);
        let empty = FlowRecord {
            packets: Vec::new(),
            ..syn_data_rst.clone()
        };
        let truncated_syn = FlowRecord {
            packets: vec![syn],
            truncated: true,
            ..syn_data_rst.clone()
        };
        let flows = [syn_data_rst, empty, truncated_syn];
        let mut batch = FlowBatch::new();
        for (i, f) in flows.iter().enumerate() {
            batch.push_record(f, i as u64, EvictionCause::EndOfCapture);
        }

        let mut clf = BatchClassifier::new(ClassifierConfig::default());
        let got: Vec<FlowAnalysis> = clf.classify_batch(&batch).to_vec();
        let mut rows = BatchClassifier::new(ClassifierConfig::default());
        let want: Vec<FlowAnalysis> = flows.iter().map(|f| rows.classify_flow(f)).collect();
        assert_eq!(got, want);
        // Scratch and output buffers are reused across batches.
        assert_eq!(clf.classify_batch(&batch), got);
    }
}
