//! Input synthesis: the two captures the pcap workloads classify.
//!
//! Both are pure functions of the seed. Frames are emitted into one arena
//! and time-sorted through an index, so a hundred thousand flows do not
//! cost a heap allocation per frame.

use std::collections::HashSet;
use std::net::{IpAddr, Ipv4Addr};

use bytes::Bytes;
use tamper_capture::{FlowRecord, OfflineConfig, PacketRecord, PcapWriter};
use tamper_netsim::splitmix64;
use tamper_wire::{PacketBuilder, TcpFlags, TcpHeader};
use tamper_worldgen::{WorldConfig, WorldSim};

use crate::spec::{DAYS, FLOOD_FLOWS_PER_SEC, FLOOD_TOUCH_EVERY, MIX_FLOWS_PER_SEC};

/// First capture second of both captures (any value above the flow
/// timeout works; zero would make "never seen" and "seen at 0" alike).
const T0: u64 = 1_000;

/// Frames waiting to be written: one byte arena plus `(second, offset,
/// length)` per frame in emission order.
#[derive(Default)]
pub struct Frames {
    arena: Vec<u8>,
    index: Vec<(u32, usize, u32)>,
}

impl Frames {
    /// Frames emitted so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True before the first frame.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn push(&mut self, ts_sec: u64, frame: &[u8]) {
        self.index
            .push((ts_sec as u32, self.arena.len(), frame.len() as u32));
        self.arena.extend_from_slice(frame);
    }

    /// Sort by capture second (stable, so every flow keeps its own packet
    /// order) and write a classic pcap file image.
    pub fn into_pcap(mut self) -> Vec<u8> {
        self.index.sort_by_key(|&(ts, _, _)| ts);
        let mut out = Vec::with_capacity(24 + self.arena.len() + 16 * self.index.len());
        let mut w = PcapWriter::new(&mut out).expect("writing to a Vec cannot fail");
        for &(ts, off, len) in &self.index {
            w.write_frame(ts, 0, &self.arena[off..off + len as usize])
                .expect("writing to a Vec cannot fail");
        }
        out
    }
}

/// A synthesized capture and what it holds.
pub struct Capture {
    /// The pcap file image.
    pub pcap: Vec<u8>,
    /// Frames written.
    pub frames: u64,
    /// Flows a correct flow table assembles from it.
    pub flows: u64,
}

/// The world `pcap-mix` draws its flows from: the standard two-week world
/// under the benchmark seed.
pub fn mix_world(seed: u64) -> WorldSim {
    WorldSim::new(WorldConfig {
        seed,
        sessions: u64::MAX,
        days: DAYS as u32,
        ..WorldConfig::default()
    })
}

/// True if replaying `flow` at any start time assembles back into exactly
/// one flow: no two of its packets are further apart than the flow
/// timeout (the table would split it in two).
fn stays_one_flow(flow: &FlowRecord) -> bool {
    let timeout = OfflineConfig::default().flow_timeout_secs;
    let mut ts: Vec<u64> = flow.packets.iter().map(|p| p.ts_sec).collect();
    ts.sort_unstable();
    !ts.is_empty() && ts.windows(2).all(|w| w[1] - w[0] <= timeout)
}

/// The first `n` simulated flows of `sim` that have a 4-tuple of their
/// own and stay one flow on replay, so the capture built from them holds
/// exactly `n` flows by construction.
pub fn mix_flows(sim: &WorldSim, n: u64) -> Vec<FlowRecord> {
    let mut seen = HashSet::new();
    let mut flows = Vec::with_capacity(n as usize);
    let mut i = 0u64;
    while (flows.len() as u64) < n {
        if let Some(lf) = sim.gen_session(i) {
            let f = lf.flow;
            if stays_one_flow(&f) && seen.insert((f.client_ip, f.server_ip, f.src_port, f.dst_port))
            {
                flows.push(f);
            }
        }
        i += 1;
    }
    flows
}

fn wire_frame(flow: &FlowRecord, p: &PacketRecord) -> Bytes {
    let mut b = PacketBuilder::new(flow.client_ip, flow.server_ip, flow.src_port, flow.dst_port)
        .flags(p.flags)
        .seq(p.seq)
        .ack(p.ack)
        .ttl(p.ttl)
        .window(p.window)
        .payload(p.payload.clone());
    if let Some(id) = p.ip_id {
        b = b.ip_id(id);
    }
    if p.has_tcp_options {
        b = b.options(TcpHeader::standard_syn_options());
    }
    b.build().emit()
}

/// Re-emit the `k`-th mix flow as wire frames. Its first packet lands on
/// capture second `T0 + k / MIX_FLOWS_PER_SEC`; gaps inside the flow are
/// kept. A flow the collector truncated gets one surplus copy of its last
/// packet, so the flow table hits its own cap and sets the same bit.
pub fn emit_mix_flow(k: u64, flow: &FlowRecord, out: &mut Frames) {
    let first = flow.packets.iter().map(|p| p.ts_sec).min().unwrap_or(0);
    let start = T0 + k / MIX_FLOWS_PER_SEC;
    for p in &flow.packets {
        out.push(start + (p.ts_sec - first), &wire_frame(flow, p));
    }
    if let (true, Some(last)) = (flow.truncated, flow.packets.last()) {
        out.push(start + (last.ts_sec - first), &wire_frame(flow, last));
    }
}

/// `mix.pcap`: `n` simulator-mix flows, a thousand new ones per
/// capture-second, time-sorted.
pub fn mix_capture(seed: u64, n: u64) -> Capture {
    let flows = mix_flows(&mix_world(seed), n);
    let mut frames = Frames::default();
    for (k, flow) in flows.iter().enumerate() {
        emit_mix_flow(k as u64, flow, &mut frames);
    }
    Capture {
        frames: frames.len() as u64,
        flows: n,
        pcap: frames.into_pcap(),
    }
}

/// Emit flood flow `k`: one SYN from a tuple no other `k` shares, and for
/// every [`FLOOD_TOUCH_EVERY`]-th flow a bare ACK one second later.
pub fn emit_flood_flow(seed: u64, k: u64, out: &mut Frames) {
    // Multiplying by an odd number and xoring a constant are both
    // bijections on 39 bits, so distinct k give distinct tuples.
    let x = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ splitmix64(seed)) & ((1 << 39) - 1);
    let port = 1_024 + (x & 0x7fff) as u16;
    let host = (x >> 15) as u32;
    let client = IpAddr::V4(Ipv4Addr::from(0x0b00_0000 | host));
    let server = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
    let dport = if k.is_multiple_of(3) { 80 } else { 443 };
    let isn = splitmix64(seed ^ k) as u32;
    let ts = T0 + k / FLOOD_FLOWS_PER_SEC;
    let syn = PacketBuilder::new(client, server, port, dport)
        .flags(TcpFlags::SYN)
        .seq(isn)
        .ttl(40 + (x % 24) as u8)
        .ip_id(x as u16)
        .options(TcpHeader::standard_syn_options())
        .build()
        .emit();
    out.push(ts, &syn);
    if k.is_multiple_of(FLOOD_TOUCH_EVERY) {
        let ack = PacketBuilder::new(client, server, port, dport)
            .flags(TcpFlags::ACK)
            .seq(isn.wrapping_add(1))
            .ack(1)
            .ttl(40 + (x % 24) as u8)
            .ip_id((x as u16).wrapping_add(1))
            .build()
            .emit();
        out.push(ts + 1, &ack);
    }
}

/// `flood.pcap`: `n` half-open flows (whole capture-seconds of twenty
/// thousand). Under `--max-flows` [`crate::spec::FLOOD_CAP`] every touched
/// flow has been shed before its second packet arrives (see the cap's
/// comment), so that packet opens a flow of its own: the capture holds
/// `n + n / FLOOD_TOUCH_EVERY` flows.
pub fn flood_capture(seed: u64, n: u64) -> Capture {
    assert_eq!(
        n % FLOOD_FLOWS_PER_SEC,
        0,
        "flood size must be whole capture-seconds"
    );
    let mut frames = Frames::default();
    for k in 0..n {
        emit_flood_flow(seed, k, &mut frames);
    }
    Capture {
        frames: frames.len() as u64,
        flows: n + n / FLOOD_TOUCH_EVERY,
        pcap: frames.into_pcap(),
    }
}
