//! Classic libpcap file format (the one every tcpdump/wireshark reads),
//! with LINKTYPE_RAW (101): each record is a bare IPv4/IPv6 packet.
//!
//! This keeps the library useful beyond simulation: captured simulated
//! flows can be inspected with standard tooling, and *real* pcap files of
//! server-side captures can be fed to the classifier.

use std::io::{self, Write};
use tamper_wire::Packet;

const MAGIC: u32 = 0xa1b2_c3d4;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
/// LINKTYPE_RAW: raw IP, version nibble decides v4/v6.
const LINKTYPE_RAW: u32 = 101;
/// Snapshot length written to our own headers, and the hard upper bound we
/// accept for any record's `incl_len` when reading. A corrupt length field
/// must never translate into a multi-gigabyte allocation.
pub(crate) const SNAPLEN: u32 = 65_535;
/// Bytes in the global header; the first record starts here.
pub(crate) const GLOBAL_HEADER_LEN: usize = 24;
/// Bytes in each record header: ts_sec, ts_usec, incl_len, orig_len.
pub(crate) const RECORD_HEADER_LEN: usize = 16;

/// Read a little-endian u32 at a fixed offset of a header. Callers bound
/// the header first; a short one still reads as zero instead of panicking.
pub(crate) fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    if let Some(s) = buf.get(at..at + 4) {
        b.copy_from_slice(s);
    }
    u32::from_le_bytes(b)
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<PcapWriter<W>> {
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&VERSION_MAJOR.to_le_bytes())?;
        out.write_all(&VERSION_MINOR.to_le_bytes())?;
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&SNAPLEN.to_le_bytes())?;
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Write one raw frame.
    pub fn write_frame(&mut self, ts_sec: u32, ts_usec: u32, frame: &[u8]) -> io::Result<()> {
        self.out.write_all(&ts_sec.to_le_bytes())?;
        self.out.write_all(&ts_usec.to_le_bytes())?;
        let len = frame.len() as u32;
        self.out.write_all(&len.to_le_bytes())?; // incl_len
        self.out.write_all(&len.to_le_bytes())?; // orig_len
        self.out.write_all(frame)?;
        Ok(())
    }

    /// Emit a [`Packet`] (serialized via the wire emitter).
    pub fn write_packet(&mut self, ts_sec: u32, ts_usec: u32, pkt: &Packet) -> io::Result<()> {
        self.write_frame(ts_sec, ts_usec, &pkt.emit())
    }

    /// Finish writing, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// A global header the reader refuses. Damage past the header is not an
/// error: [`PcapMemSource`](crate::source::PcapMemSource) frames every
/// record before it and reports a corrupt tail. (A reader-backed source
/// reports these wrapped in an [`io::Error`]; see the `From` impl.)
#[derive(Debug, PartialEq, Eq)]
pub enum PcapError {
    /// The capture is shorter than the 24-byte global header.
    ShortHeader(usize),
    /// The global header was not a classic little-endian pcap header.
    BadMagic(u32),
    /// Unsupported link type (only LINKTYPE_RAW is handled).
    BadLinkType(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::ShortHeader(n) => write!(
                f,
                "pcap ends {n} bytes into its {GLOBAL_HEADER_LEN}-byte global header"
            ),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported pcap link type {l}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<PcapError> for io::Error {
    /// A refused header, as the `InvalidData` error of the read that
    /// produced it; its message is the [`PcapError`]'s own.
    fn from(e: PcapError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Validate a capture's global header (its first 24 bytes): a classic
/// little-endian pcap of LINKTYPE_RAW frames.
pub(crate) fn check_global_header(bytes: &[u8]) -> Result<(), PcapError> {
    let Some(header) = bytes.get(..GLOBAL_HEADER_LEN) else {
        return Err(PcapError::ShortHeader(bytes.len()));
    };
    let magic = le_u32(header, 0);
    if magic != MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = le_u32(header, 20);
    if linktype != LINKTYPE_RAW {
        return Err(PcapError::BadLinkType(linktype));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FlowSource, PcapMemItem, PcapMemSource};
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn v4_packet() -> Packet {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1234,
            80,
        )
        .flags(TcpFlags::PSH_ACK)
        .payload(Bytes::from_static(b"GET / HTTP/1.1\r\n\r\n"))
        .build()
    }

    /// Frame a whole capture with the engine's decoder: every record's
    /// (timestamp, frame bytes), and whether the tail was corrupt. The
    /// capture streamed through small windows must frame the same way.
    fn read_back(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, bool) {
        let frame_all = |mut src: PcapMemSource| {
            let mut items: Vec<PcapMemItem> = Vec::new();
            while src.fill(&mut items, usize::MAX) {}
            let records: Vec<(u64, Vec<u8>)> = items
                .iter()
                .map(|it| {
                    assert_eq!(it.frame(), &bytes[it.off..it.off + it.len as usize]);
                    (it.ts, it.frame().to_vec())
                })
                .collect();
            (records, src.corrupt_tail())
        };
        let whole = frame_all(PcapMemSource::new(Bytes::copy_from_slice(bytes)).unwrap());
        for window in [1, 17, 100] {
            let streamed = PcapMemSource::from_reader(io::Cursor::new(bytes.to_vec()))
                .unwrap()
                .with_window(window);
            assert_eq!(frame_all(streamed), whole, "window {window}");
        }
        whole
    }

    /// The named error the decoder refuses a capture's global header with;
    /// a reader-backed source refuses it with the same error and message.
    fn open_err(bytes: &[u8]) -> Option<PcapError> {
        let whole = PcapMemSource::new(Bytes::copy_from_slice(bytes)).err();
        let streamed = PcapMemSource::from_reader(io::Cursor::new(bytes.to_vec()))
            .err()
            .map(|e| {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert_eq!(Some(e.to_string()), whole.as_ref().map(ToString::to_string));
                *e.into_inner().unwrap().downcast::<PcapError>().unwrap()
            });
        assert_eq!(streamed, whole);
        whole
    }

    /// A capture of `n` copies of [`v4_packet`].
    fn capture(n: u32) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write_packet(1 + i, 2, &v4_packet()).unwrap();
        }
        w.into_inner()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(100, 250_000, &v4_packet()).unwrap();
        w.write_packet(101, 0, &v4_packet()).unwrap();
        let bytes = w.into_inner();

        let (records, corrupt) = read_back(&bytes);
        assert!(!corrupt);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 100);
        assert_eq!(records[1].0, 101);
        // The decoder keeps whole seconds only; the microseconds are on
        // the wire, 4 bytes into the first record header.
        assert_eq!(&bytes[28..32], &250_000u32.to_le_bytes());
        // Frames re-parse into identical packets.
        let parsed = Packet::parse(&records[0].1).unwrap();
        assert_eq!(parsed.tcp.flags, TcpFlags::PSH_ACK);
        assert_eq!(&parsed.payload[..], b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn header_fields_are_standard() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.into_inner();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(&bytes[20..24], &101u32.to_le_bytes());
        assert_eq!(open_err(&bytes), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let bogus = [0u8; 24];
        assert_eq!(open_err(&bogus), Some(PcapError::BadMagic(0)));
    }

    #[test]
    fn rejects_wrong_linktype() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes()); // Ethernet
        assert_eq!(open_err(&bytes), Some(PcapError::BadLinkType(1)));
    }

    #[test]
    fn rejects_short_global_header() {
        let bytes = capture(1);
        assert_eq!(open_err(&bytes[..23]), Some(PcapError::ShortHeader(23)));
        assert_eq!(open_err(&[]), Some(PcapError::ShortHeader(0)));
        assert_eq!(
            PcapError::ShortHeader(23).to_string(),
            "pcap ends 23 bytes into its 24-byte global header"
        );
    }

    #[test]
    fn ipv6_frames_round_trip() {
        let pkt = PacketBuilder::new(
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)),
            5,
            443,
        )
        .flags(TcpFlags::SYN)
        .build();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(7, 8, &pkt).unwrap();
        let (records, corrupt) = read_back(&w.into_inner());
        assert!(!corrupt);
        assert_eq!(records.len(), 1);
        let parsed = Packet::parse(&records[0].1).unwrap();
        assert!(!parsed.ip.is_v4());
    }

    #[test]
    fn session_trace_round_trips_through_pcap() {
        use tamper_netsim::{
            derive_rng, run_session, ClientConfig, Path, ServerConfig, SessionParams, SimDuration,
            SimTime,
        };
        let client = "203.0.113.30".parse().unwrap();
        let server = "198.51.100.1".parse().unwrap();
        let cfg = ClientConfig::default_tls(client, server, "exported.example");
        let mut path = Path::direct(SimDuration::from_millis(25), 9);
        let mut rng = derive_rng(21, 1);
        let trace = run_session(
            SessionParams::new(cfg, ServerConfig::default_edge(server, 443), SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        assert!(
            trace.packets.len() > 10,
            "both directions should be present"
        );
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for tp in &trace.packets {
            w.write_packet(tp.time.as_secs() as u32, 0, &tp.packet)
                .unwrap();
        }
        let (records, corrupt) = read_back(&w.into_inner());
        assert!(!corrupt);
        assert_eq!(records.len(), trace.packets.len());
        // Every frame re-parses, and both directions appear.
        let mut to_server = 0;
        let mut to_client = 0;
        for (_, frame) in &records {
            let pkt = Packet::parse(frame).unwrap();
            if pkt.tcp.dst_port == 443 {
                to_server += 1;
            } else {
                to_client += 1;
            }
        }
        assert!(to_server > 0 && to_client > 0);
    }
}
