//! The stage automaton the classifier folds a flow through.
//!
//! [`BatchClassifier`](crate::batch::BatchClassifier) reconstructs a
//! flow's packet order, maps each packet to a letter of a seven-letter
//! [`Event`] alphabet ([`event_of`]), folds the letters through
//! [`transition`], and reads the stage off the terminal [`StageState`]
//! ([`stage_of`]). Everything here is a pure function:
//!
//! - **Table-driven transitions.** The stage evidence is a tiny finite
//!   state ([`StageState`], ≤ 216 points) advanced by flat match rows,
//!   no nested conditionals.
//! - **Enumerable.** The whole reachable graph ([`reachable_graph`]) is
//!   snapshotted as a golden fixture by `tests/state_machine.rs`, so an
//!   unintended transition fails review.

use crate::signature::Stage;
use crate::view::PacketsView;
use tamper_wire::Seq;

/// A saturating 0 / 1 / many counter — the only multiplicities the
/// paper's stage logic ever distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Count {
    /// No occurrences.
    Zero,
    /// Exactly one occurrence.
    One,
    /// Two or more occurrences.
    Many,
}

impl Count {
    /// Saturating increment.
    pub const fn bump(self) -> Count {
        match self {
            Count::Zero => Count::One,
            Count::One | Count::Many => Count::Many,
        }
    }

    /// Compact label for fixtures and diagnostics.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            Count::Zero => "0",
            Count::One => "1",
            Count::Many => "2+",
        }
    }
}

/// The event alphabet: what one reordered packet means to the stage
/// automaton. Classification priority: SYN wins over RST wins over FIN
/// wins over payload wins over pure ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// Any packet with SYN set (even SYN+RST: SYN has priority).
    Syn,
    /// A non-SYN packet with RST set (bare RST or RST+ACK).
    Rst,
    /// A non-SYN, non-RST packet with FIN set.
    Fin,
    /// A data-bearing packet whose sequence number was not seen before.
    NewData,
    /// A data-bearing retransmission (sequence number already seen).
    DupData,
    /// A bare ACK: no payload, no SYN/FIN/RST.
    PureAck,
    /// Anything else (e.g. a flagless keep-alive).
    Ignored,
}

impl Event {
    /// All events, for exhaustive enumeration.
    pub const ALL: [Event; 7] = [
        Event::Syn,
        Event::Rst,
        Event::Fin,
        Event::NewData,
        Event::DupData,
        Event::PureAck,
        Event::Ignored,
    ];

    /// Compact label for fixtures and diagnostics.
    pub const fn label(self) -> &'static str {
        match self {
            Event::Syn => "SYN",
            Event::Rst => "RST",
            Event::Fin => "FIN",
            Event::NewData => "DATA",
            Event::DupData => "DUP",
            Event::PureAck => "ACK",
            Event::Ignored => "IGN",
        }
    }
}

/// Classify packet `i` of a flow (any storage layout) into an
/// [`Event`], deduplicating data segments by sequence number through
/// `seen_data_seqs` (caller-owned scratch so the classifier can reuse its
/// allocation).
pub(crate) fn event_of<V: PacketsView + ?Sized>(
    v: &V,
    i: usize,
    seen_data_seqs: &mut Vec<Seq>,
) -> Event {
    let f = v.flags(i);
    if f.has_syn() {
        Event::Syn
    } else if f.has_rst() {
        Event::Rst
    } else if f.has_fin() {
        Event::Fin
    } else if v.has_payload(i) {
        let seq = v.seq(i);
        if seen_data_seqs.contains(&seq) {
            Event::DupData
        } else {
            seen_data_seqs.push(seq);
            Event::NewData
        }
    } else if f.has_ack() {
        Event::PureAck
    } else {
        Event::Ignored
    }
}

/// The finite stage-evidence state: everything the paper's sequence-type
/// assignment needs, folded packet by packet. `rst` doubles as the
/// freeze bit — the stage counts stop at the first RST (the paper's
/// stage boundary) while `syns` and `fin_any` keep counting over the
/// whole flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageState {
    /// SYN packets over the whole flow (never frozen).
    pub syns: Count,
    /// Unique data packets before the stage boundary.
    pub data: Count,
    /// Pure ACKs before the stage boundary.
    pub acks: Count,
    /// A FIN arrived before the first RST (or any FIN, if no RST).
    pub fin_before: bool,
    /// A FIN arrived anywhere in the flow (silence exemption).
    pub fin_any: bool,
    /// A RST arrived: the stage counts are frozen.
    pub rst: bool,
}

impl StageState {
    /// The initial state: nothing observed.
    pub const START: StageState = StageState {
        syns: Count::Zero,
        data: Count::Zero,
        acks: Count::Zero,
        fin_before: false,
        fin_any: false,
        rst: false,
    };

    /// Compact, stable label for the golden reachable-graph fixture.
    pub fn label(&self) -> String {
        format!(
            "syn={} data={} ack={} finpre={} fin={} rst={}",
            self.syns.label(),
            self.data.label(),
            self.acks.label(),
            if self.fin_before { "y" } else { "n" },
            if self.fin_any { "y" } else { "n" },
            if self.rst { "y" } else { "n" },
        )
    }
}

/// The transition table: one flat row per event, no nested conditionals.
/// Pure — exhaustively enumerable, property-testable, and total.
pub const fn transition(s: StageState, ev: Event) -> StageState {
    match (ev, s.rst) {
        (Event::Syn, _) => StageState {
            syns: s.syns.bump(),
            ..s
        },
        (Event::Rst, _) => StageState { rst: true, ..s },
        (Event::Fin, false) => StageState {
            fin_before: true,
            fin_any: true,
            ..s
        },
        (Event::Fin, true) => StageState { fin_any: true, ..s },
        (Event::NewData, false) => StageState {
            data: s.data.bump(),
            ..s
        },
        (Event::PureAck, false) => StageState {
            acks: s.acks.bump(),
            ..s
        },
        (Event::NewData | Event::PureAck, true) => s,
        (Event::DupData | Event::Ignored, _) => s,
    }
}

/// The sequence type (stage) read off a terminal state.
pub const fn stage_of(s: StageState) -> Option<Stage> {
    match (s.data, s.fin_before, s.acks, s.syns) {
        (Count::Many, _, _, _) => Some(Stage::PostData),
        (Count::One, _, _, _) => Some(Stage::PostPsh),
        (Count::Zero, true, _, _) => None,
        (Count::Zero, false, Count::Zero, _) => Some(Stage::PostSyn),
        (Count::Zero, false, Count::One, Count::One) => Some(Stage::PostAck),
        _ => None,
    }
}

/// Breadth-first closure of [`transition`] from [`StageState::START`]:
/// every reachable `(state, event, successor)` edge, sorted. The golden
/// fixture `tests/fixtures/state_graph.golden.txt` snapshots this graph
/// so any change to the transition table is visible in review.
pub fn reachable_graph() -> Vec<(StageState, Event, StageState)> {
    let mut frontier = vec![StageState::START];
    let mut seen = vec![StageState::START];
    let mut edges = Vec::new();
    while let Some(s) = frontier.pop() {
        for ev in Event::ALL {
            let next = transition(s, ev);
            edges.push((s, ev, next));
            if !seen.contains(&next) {
                seen.push(next);
                frontier.push(next);
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_freezes_stage_counts_at_first_rst() {
        let mut s = StageState::START;
        s = transition(s, Event::Syn);
        s = transition(s, Event::PureAck);
        s = transition(s, Event::Rst);
        let frozen = s;
        assert_eq!(transition(s, Event::NewData), frozen);
        assert_eq!(transition(s, Event::PureAck), frozen);
        // SYNs and FIN-anywhere keep counting.
        assert_eq!(transition(s, Event::Syn).syns, Count::Many);
        assert!(transition(s, Event::Fin).fin_any);
        assert!(!transition(s, Event::Fin).fin_before);
    }

    #[test]
    fn stage_table_matches_the_paper_ladder() {
        let post_ack = StageState {
            syns: Count::One,
            acks: Count::One,
            ..StageState::START
        };
        assert_eq!(stage_of(post_ack), Some(Stage::PostAck));
        assert_eq!(stage_of(StageState::START), Some(Stage::PostSyn));
        let two_acks = StageState {
            acks: Count::Many,
            ..post_ack
        };
        assert_eq!(stage_of(two_acks), None);
        let fin_first = StageState {
            fin_before: true,
            fin_any: true,
            ..StageState::START
        };
        assert_eq!(stage_of(fin_first), None);
        let data = StageState {
            data: Count::One,
            ..fin_first
        };
        assert_eq!(stage_of(data), Some(Stage::PostPsh));
    }

    #[test]
    fn reachable_graph_is_closed_and_deterministic() {
        let a = reachable_graph();
        let b = reachable_graph();
        assert_eq!(a, b);
        // Closure: every successor also appears as a source.
        for &(_, _, next) in &a {
            assert!(a.iter().any(|&(s, _, _)| s == next));
        }
        // Every reachable state has exactly one row per event.
        let states: std::collections::BTreeSet<_> = a.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(a.len(), states.len() * Event::ALL.len());
    }
}
