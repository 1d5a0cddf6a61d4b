//! The generated captures do what their workload rows claim: they are a
//! pure function of the seed, hold exactly the flow count the runner
//! checks the CLI against, and put the flow table under the pressure the
//! workload exists for. Captures are replayed through the same public
//! flow-table API the CLI's engine drives.

use bytes::Bytes;
use tamper_capture::{
    ColumnarFlowTable, EvictionCause, FlowBatch, FlowSource, IngestStats, OfflineConfig,
    PcapMemSource,
};
use tamper_wire::PacketView;
use tamperbench::spec::{FLOOD_CAP, FLOOD_FLOWS, FLOOD_TOUCH_EVERY, MIX_FLOWS};
use tamperbench::synth::{flood_capture, mix_capture};

#[derive(Debug, Default)]
struct Replay {
    records: u64,
    unparsable: u64,
    ingest: IngestStats,
    high_water: usize,
    evicted_timeout: u64,
    evicted_cap: u64,
    drained_eof: u64,
}

fn replay(pcap: &[u8], cap: usize) -> Replay {
    let bytes = Bytes::copy_from_slice(pcap);
    let mut src = PcapMemSource::new(bytes.clone()).expect("well-formed capture");
    let mut table = ColumnarFlowTable::new(OfflineConfig::default(), cap);
    let mut out = FlowBatch::new();
    let mut r = Replay::default();
    let mut items = Vec::new();
    let mut more = true;
    while more {
        items.clear();
        more = src.fill(&mut items, 4096);
        for it in &items {
            match PacketView::parse(&bytes[it.off..it.off + it.len as usize]) {
                Ok(pv) => table.absorb(r.records, it.ts, it.stamp, &pv, &mut r.ingest, &mut out),
                Err(_) => r.unparsable += 1,
            }
            r.records += 1;
        }
    }
    assert!(!src.corrupt_tail());
    table.drain(src.final_stamp(), &mut out);
    for span in out.spans() {
        match span.cause {
            EvictionCause::Timeout => r.evicted_timeout += 1,
            EvictionCause::CapPressure => r.evicted_cap += 1,
            EvictionCause::EndOfCapture => r.drained_eof += 1,
        }
    }
    r.high_water = table.high_water();
    r
}

#[test]
fn synthesis_is_a_pure_function_of_the_seed() {
    let mix = mix_capture(7, 3_000);
    assert_eq!(mix.pcap, mix_capture(7, 3_000).pcap);
    assert_ne!(mix.pcap, mix_capture(8, 3_000).pcap);
    let flood = flood_capture(7, 20_000);
    assert_eq!(flood.pcap, flood_capture(7, 20_000).pcap);
    assert_ne!(flood.pcap, flood_capture(8, 20_000).pcap);
}

#[test]
fn mix_capture_keeps_a_large_live_set_and_its_flow_count() {
    let cap = mix_capture(11, MIX_FLOWS);
    let r = replay(&cap.pcap, 0);
    assert_eq!((r.records, r.unparsable), (cap.frames, 0));
    // Exactly the flows that went in: none merged, none split.
    assert_eq!(r.ingest.flows, MIX_FLOWS);
    assert_eq!(r.evicted_timeout + r.drained_eof, MIX_FLOWS);
    assert_eq!(r.evicted_cap, 0);
    assert!(r.high_water >= 20_000, "high water {}", r.high_water);
    assert!(cap.frames >= 5 * MIX_FLOWS, "{} frames", cap.frames);
    // The timer wheel, not the end-of-capture drain, closes most flows.
    assert!(r.evicted_timeout > MIX_FLOWS / 2, "{r:?}");
}

#[test]
fn flood_capture_sheds_nearly_every_flow_under_the_cap() {
    let cap = flood_capture(11, FLOOD_FLOWS);
    assert_eq!(cap.flows, FLOOD_FLOWS + FLOOD_FLOWS / FLOOD_TOUCH_EVERY);
    let r = replay(&cap.pcap, FLOOD_CAP as usize);
    assert_eq!((r.records, r.unparsable), (cap.frames, 0));
    // Every touch arrives after its flow was shed and opens a new one.
    assert_eq!(r.ingest.flows, cap.flows);
    assert_eq!(r.high_water as u64, FLOOD_CAP);
    assert_eq!(r.evicted_timeout, 0);
    assert_eq!(r.evicted_cap, cap.flows - FLOOD_CAP);
    assert!(r.evicted_cap * 100 >= cap.flows * 95, "{r:?}");
    // Uncapped, the same capture is one flow per tuple and nothing is shed.
    let free = replay(&cap.pcap, 0);
    assert_eq!((free.ingest.flows, free.evicted_cap), (FLOOD_FLOWS, 0));
}
