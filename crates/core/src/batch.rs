//! The classifier: [`BatchClassifier`], over either storage layout.
//!
//! Classification is a pure function of a finished flow's packets and its
//! observation horizon. One generic body reads the packets through
//! [`PacketsView`], so the same code serves both layouts the pipeline
//! holds flows in: the arena-backed [`FlowRows`] of a [`FlowBatch`]
//! ([`classify_span`](BatchClassifier::classify_span) /
//! [`classify_batch`](BatchClassifier::classify_batch), the pcap engine's
//! path) and the owned [`FlowRecord`]
//! ([`classify_record`](BatchClassifier::classify_record), the simulator's
//! path) — verdicts are identical by construction. The classifier owns
//! its scratch buffers and reuses them across flows and batches: warm
//! (after the first few flows have grown the scratch to steady state),
//! classifying domain-free flows performs **zero** heap requests on
//! either layout; the `alloc_discipline` suite enforces that budget.

use crate::classify::{merge_rst_counts, rst_signature, ClassifierConfig, FlowAnalysis};
use crate::evidence::EvidenceFold;
use crate::machine::{event_of, stage_of, transition, Count, Event, StageState};
use crate::reorder::reconstruct_order;
use crate::signature::{Classification, Signature, Stage};
use crate::trigger;
use crate::view::PacketsView;
use tamper_capture::{FlowBatch, FlowRecord, FlowRows};
use tamper_wire::{Seq, TcpFlags};

impl PacketsView for FlowRows<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn ts_sec(&self, i: usize) -> u64 {
        self.rows[i].ts_sec
    }

    fn flags(&self, i: usize) -> TcpFlags {
        self.rows[i].flags
    }

    fn seq(&self, i: usize) -> Seq {
        self.rows[i].seq
    }

    fn ack(&self, i: usize) -> Seq {
        self.rows[i].ack
    }

    fn payload_len(&self, i: usize) -> u32 {
        self.rows[i].payload_len
    }

    fn payload(&self, i: usize) -> &[u8] {
        self.payload_of(i)
    }

    fn ip_id(&self, i: usize) -> Option<u16> {
        self.rows[i].ip_id
    }

    fn ttl(&self, i: usize) -> u8 {
        self.rows[i].ttl
    }
}

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

    /// Classify one row-wise flow record.
    pub fn classify_record(&mut self, flow: &FlowRecord) -> FlowAnalysis {
        self.classify_view(
            flow.dst_port,
            flow.packets.as_slice(),
            flow.truncated,
            flow.observation_end_sec,
        )
    }

    /// Classify flow `i` of a batch — identical output to
    /// [`classify_record`](BatchClassifier::classify_record) over the
    /// materialized [`FlowRecord`].
    pub fn classify_span(&mut self, batch: &FlowBatch, i: usize) -> FlowAnalysis {
        let span = &batch.spans()[i];
        self.classify_view(
            span.tuple.dst_port,
            &batch.flow_rows(i),
            span.truncated,
            span.observation_end_sec,
        )
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
            let analysis = self.classify_span(batch, i);
            self.out.push(analysis);
        }
        &self.out
    }

    /// The one classification body, generic over packet storage:
    /// reconstruct order, fold the event stream through the transition
    /// table (and the header fields into the injection evidence), and
    /// read the verdict off the final state. `truncated`
    /// flags flows cut by the packet cap, whose artificial tail silence
    /// must not count as evidence. Once the scratch is warm no packet
    /// count inside the corpus' high-water marks allocates; the only
    /// allocation left is the returned trigger domain.
    fn classify_view<V: PacketsView + ?Sized>(
        &mut self,
        dst_port: u16,
        v: &V,
        truncated: bool,
        observation_end_sec: u64,
    ) -> FlowAnalysis {
        let cfg = self.cfg;
        let trigger = trigger::extract(dst_port, v);
        reconstruct_order(v, &mut self.order);
        self.rsts.clear();
        self.seen_data_seqs.clear();

        let mut state = StageState::START;
        let mut evidence = EvidenceFold::EMPTY;
        let mut max_gap = 0u64;
        let mut prev_ts = None;
        for &pi in self.order.iter() {
            evidence.push(v.flags(pi).has_rst(), v.ip_id(pi), v.ttl(pi));
            let ts = v.ts_sec(pi);
            if let Some(prev) = prev_ts {
                max_gap = max_gap.max(ts.saturating_sub(prev));
            }
            prev_ts = Some(ts);
            let ev = event_of(v, pi, &mut self.seen_data_seqs);
            if ev == Event::Rst {
                self.rsts.push((v.flags(pi).is_pure_rst(), v.ack(pi)));
            }
            state = transition(state, ev);
        }

        let tail_gap = if truncated {
            // The record stopped because the packet cap hit, not because
            // the flow went quiet; the tail says nothing.
            0
        } else {
            (0..v.len())
                .map(|i| v.ts_sec(i))
                .max()
                .map(|last| observation_end_sec.saturating_sub(last))
                .unwrap_or(0)
        };

        let rsts = self.rsts.as_slice();
        let rst_count = rsts.iter().filter(|(pure, _)| *pure).count();
        let rst_ack_count = rsts.len() - rst_count;
        let silent =
            !state.fin_any && (max_gap >= cfg.inactivity_secs || tail_gap >= cfg.inactivity_secs);
        let possibly_tampered = state.rst || silent;
        let evidence = evidence.finish();

        if !possibly_tampered || self.order.is_empty() {
            return FlowAnalysis {
                classification: Classification::NotTampered,
                stage: None,
                rst_count,
                rst_ack_count,
                trigger,
                evidence,
            };
        }

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

        FlowAnalysis {
            classification: match signature {
                Some(sig) => Classification::Tampered(sig),
                None => Classification::PossiblyTamperedOther,
            },
            stage,
            rst_count,
            rst_ack_count,
            trigger,
            evidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamper_capture::{EvictionCause, PacketRecord};

    #[test]
    fn arena_rows_match_owned_records() {
        let syn = PacketRecord {
            ts_sec: 100,
            flags: TcpFlags::SYN,
            seq: Seq::from(1),
            ack: Seq::ZERO,
            ip_id: Some(7),
            ttl: 64,
            window: 1024,
            payload_len: 0,
            payload: bytes::Bytes::new(),
            has_tcp_options: false,
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
        let syn_data_rst = FlowRecord {
            client_ip: "203.0.113.7".parse().unwrap(),
            server_ip: "198.51.100.1".parse().unwrap(),
            src_port: 4000,
            dst_port: 443,
            packets: vec![syn.clone(), data, rst],
            observation_end_sec: 131,
            truncated: false,
        };
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
        let want: Vec<FlowAnalysis> = flows.iter().map(|f| rows.classify_record(f)).collect();
        assert_eq!(got, want);
        // Scratch and output buffers are reused across batches.
        assert_eq!(clf.classify_batch(&batch), got);
    }
}
