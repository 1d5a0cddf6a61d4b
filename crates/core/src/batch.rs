//! The classifier: [`BatchClassifier`], over either storage layout.
//!
//! Classification is a pure function of a finished flow's packets and its
//! observation horizon. One generic body reads the packets through
//! [`PacketsView`], so the same code serves both layouts the pipeline
//! holds flows in: the column slices of a [`FlowBatch`]
//! ([`classify_span`](BatchClassifier::classify_span) /
//! [`classify_batch`](BatchClassifier::classify_batch), the pcap engine's
//! path) and the row-wise [`FlowRecord`]
//! ([`classify_record`](BatchClassifier::classify_record), the simulator's
//! path) — verdicts are identical by construction. The classifier owns
//! its scratch buffers and reuses them across flows and batches: warm
//! (after the first few flows have grown the scratch to steady state),
//! classifying domain-free flows performs **zero** heap requests on
//! either layout; the `alloc_discipline` suite enforces that budget.

use crate::classify::{merge_rst_counts, rst_signature, ClassifierConfig, FlowAnalysis};
use crate::machine::{event_of, stage_of, transition, Count, Event, StageState};
use crate::reorder::reconstruct_order;
use crate::signature::{Classification, Signature, Stage};
use crate::trigger;
use crate::view::PacketsView;
use tamper_capture::{FlowBatch, FlowCols, FlowRecord};
use tamper_wire::TcpFlags;

impl PacketsView for FlowCols<'_> {
    fn len(&self) -> usize {
        FlowCols::len(self)
    }

    fn ts_sec(&self, i: usize) -> u64 {
        self.ts_sec[i]
    }

    fn flags(&self, i: usize) -> TcpFlags {
        self.flags[i]
    }

    fn seq(&self, i: usize) -> u32 {
        self.seq[i]
    }

    fn ack(&self, i: usize) -> u32 {
        self.ack[i]
    }

    fn payload_len(&self, i: usize) -> u32 {
        self.payload_len[i]
    }

    fn payload(&self, i: usize) -> &[u8] {
        self.payload_of(i)
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
    rsts: Vec<(bool, u32)>,
    /// Data-segment dedup scratch.
    seen_data_seqs: Vec<u32>,
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
        let tuple = batch.tuple(span);
        let cols = batch.flow_cols(i);
        self.classify_view(
            tuple.dst_port,
            &cols,
            span.truncated,
            span.observation_end_sec,
        )
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
    /// table, and read the verdict off the final state. `truncated`
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
        let mut max_gap = 0u64;
        let mut prev_ts = None;
        for &pi in self.order.iter() {
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

        if !possibly_tampered || self.order.is_empty() {
            return FlowAnalysis {
                classification: Classification::NotTampered,
                stage: None,
                rst_count,
                rst_ack_count,
                trigger,
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::{EvictionCause, FlowTuple};
    use tamper_wire::TcpFlags;

    fn tuple(sport: u16) -> FlowTuple {
        FlowTuple {
            client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7)),
            server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            src_port: sport,
            dst_port: 443,
        }
    }

    #[test]
    fn columns_match_materialized_rows() {
        let mut batch = FlowBatch::new();
        // Flow 0: SYN, data, RST.
        batch.push_packet(100, TcpFlags::SYN, 1, 0, Some(7), 64, 1024, b"", false);
        batch.push_packet(
            100,
            TcpFlags::PSH_ACK,
            2,
            900,
            Some(8),
            64,
            1024,
            b"hello",
            false,
        );
        batch.push_packet(101, TcpFlags::RST, 7, 0, Some(9), 44, 0, b"", false);
        batch.push_flow(tuple(4000), 0, 0, 131, false, EvictionCause::EndOfCapture);
        // Flow 1: empty (zero packets).
        batch.push_flow(tuple(4001), 3, 1, 131, false, EvictionCause::EndOfCapture);
        // Flow 2: single truncated SYN.
        batch.push_packet(105, TcpFlags::SYN, 9, 0, None, 32, 512, b"", true);
        batch.push_flow(tuple(4002), 3, 2, 140, true, EvictionCause::Timeout);

        let mut clf = BatchClassifier::new(ClassifierConfig::default());
        let got: Vec<FlowAnalysis> = clf.classify_batch(&batch).to_vec();
        assert_eq!(got.len(), 3);
        let mut rows = BatchClassifier::new(ClassifierConfig::default());
        for (i, analysis) in got.iter().enumerate() {
            let record = batch.materialize(i);
            assert_eq!(analysis, &rows.classify_record(&record), "flow {i}");
        }
    }

    #[test]
    fn scratch_is_reused_across_batches() {
        let mut clf = BatchClassifier::new(ClassifierConfig::default());
        let mut batch = FlowBatch::new();
        batch.push_packet(10, TcpFlags::SYN, 1, 0, Some(1), 64, 64, b"", false);
        batch.push_flow(tuple(5000), 0, 0, 41, false, EvictionCause::EndOfCapture);
        let first = clf.classify_batch(&batch).to_vec();
        let second = clf.classify_batch(&batch).to_vec();
        assert_eq!(first, second);
    }
}
