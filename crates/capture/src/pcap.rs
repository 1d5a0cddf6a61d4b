//! Classic libpcap file format (the one every tcpdump/wireshark reads),
//! with LINKTYPE_RAW (101): each record is a bare IPv4/IPv6 packet.
//!
//! This keeps the library useful beyond simulation: captured simulated
//! flows can be inspected with standard tooling, and *real* pcap files of
//! server-side captures can be fed to the classifier.

use std::io::{self, Read, Write};
use tamper_wire::Packet;

const MAGIC: u32 = 0xa1b2_c3d4;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
/// LINKTYPE_RAW: raw IP, version nibble decides v4/v6.
const LINKTYPE_RAW: u32 = 101;
/// Snapshot length written to our own headers, and the hard upper bound we
/// accept for any record's `incl_len` when reading. A corrupt length field
/// must never translate into a multi-gigabyte allocation.
pub const SNAPLEN: u32 = 65_535;

/// Read a little-endian u32 out of a fixed-offset window of a header
/// buffer. The offsets are compile-time constants into stack arrays, so
/// the slice is always exactly four bytes.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    // tamperlint: allow(index) — offsets are compile-time constants into fixed-size stack arrays filled by read_exact
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// One captured record: a timestamp and the raw frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Seconds since the epoch.
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// Raw IP frame bytes.
    pub frame: Vec<u8>,
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

/// Error from pcap reading.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The global header was not a classic little-endian pcap header.
    BadMagic(u32),
    /// Unsupported link type (only LINKTYPE_RAW is handled).
    BadLinkType(u32),
    /// A record header claimed a captured length beyond any plausible
    /// snapshot — the file is corrupt past this point.
    OversizeRecord(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported pcap link type {l}"),
            PcapError::OversizeRecord(n) => {
                write!(
                    f,
                    "pcap record claims {n} captured bytes (snaplen is {SNAPLEN})"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> PcapError {
        PcapError::Io(e)
    }
}

/// Streaming pcap reader.
pub struct PcapReader<R: Read> {
    input: R,
}

impl<R: Read> PcapReader<R> {
    /// Open a reader, validating the global header.
    pub fn new(mut input: R) -> Result<PcapReader<R>, PcapError> {
        let mut header = [0u8; 24];
        input.read_exact(&mut header)?;
        let magic = le_u32(&header, 0);
        if magic != MAGIC {
            return Err(PcapError::BadMagic(magic));
        }
        let linktype = le_u32(&header, 20);
        if linktype != LINKTYPE_RAW {
            return Err(PcapError::BadLinkType(linktype));
        }
        Ok(PcapReader { input })
    }

    /// Read the next record; `Ok(None)` at clean end-of-file.
    ///
    /// Only an EOF landing exactly on a record boundary is a clean end.
    /// A cut mid-way through the 16-byte record header (or the frame
    /// body) is a ragged tail and surfaces as an error, so callers can
    /// count it rather than silently dropping up to 15 bytes.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, PcapError> {
        let mut rec_header = [0u8; 16];
        let mut filled = 0usize;
        while filled < rec_header.len() {
            // tamperlint: allow(index) — filled < rec_header.len() by the loop condition
            match self.input.read(&mut rec_header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(PcapError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("pcap ends {filled} bytes into a record header"),
                    )));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let ts_sec = le_u32(&rec_header, 0);
        let ts_usec = le_u32(&rec_header, 4);
        let incl_len = le_u32(&rec_header, 8);
        if incl_len > SNAPLEN {
            return Err(PcapError::OversizeRecord(incl_len));
        }
        let mut frame = vec![0u8; incl_len as usize];
        self.input.read_exact(&mut frame)?;
        Ok(Some(PcapRecord {
            ts_sec,
            ts_usec,
            frame,
        }))
    }

    /// Read all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<PcapRecord>, PcapError> {
        let mut records = Vec::new();
        while let Some(r) = self.next_record()? {
            records.push(r);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn write_then_read_round_trips() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(100, 250_000, &v4_packet()).unwrap();
        w.write_packet(101, 0, &v4_packet()).unwrap();
        let bytes = w.into_inner();

        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let records = r.read_all().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_sec, 100);
        assert_eq!(records[0].ts_usec, 250_000);
        // Frames re-parse into identical packets.
        let parsed = Packet::parse(&records[0].frame).unwrap();
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
    }

    #[test]
    fn rejects_bad_magic() {
        let bogus = [0u8; 24];
        match PcapReader::new(&bogus[..]) {
            Err(PcapError::BadMagic(0)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("bogus header accepted"),
        }
    }

    #[test]
    fn rejects_wrong_linktype() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes()); // Ethernet
        match PcapReader::new(&bytes[..]) {
            Err(PcapError::BadLinkType(1)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("wrong linktype accepted"),
        }
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
        let bytes = w.into_inner();
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        let parsed = Packet::parse(&rec.frame).unwrap();
        assert!(!parsed.ip.is_v4());
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn oversize_record_is_rejected_not_allocated() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(1, 2, &v4_packet()).unwrap();
        let mut bytes = w.into_inner();
        // Corrupt the first record's incl_len (global header is 24 bytes,
        // incl_len sits 8 bytes into the record header) to claim 1 GiB.
        bytes[32..36].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        match r.next_record() {
            Err(PcapError::OversizeRecord(n)) => assert_eq!(n, 1 << 30),
            other => panic!("expected oversize error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_is_io_error() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(1, 2, &v4_packet()).unwrap();
        let mut bytes = w.into_inner();
        bytes.truncate(bytes.len() - 3);
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(r.next_record().is_err());
    }
}

/// Write every packet of a session trace (both directions, as received at
/// the endpoints) to a pcap stream — the debugging view for Wireshark.
pub fn write_session_trace<W: Write>(
    writer: &mut PcapWriter<W>,
    trace: &tamper_netsim::SessionTrace,
) -> io::Result<u64> {
    let mut written = 0;
    for tp in &trace.packets {
        let secs = tp.time.as_secs() as u32;
        let usec = ((tp.time.as_nanos() % 1_000_000_000) / 1_000) as u32;
        writer.write_packet(secs, usec, &tp.packet)?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod trace_export_tests {
    use super::*;
    use tamper_netsim::{
        derive_rng, run_session, ClientConfig, Path, ServerConfig, SessionParams, SimDuration,
        SimTime,
    };

    #[test]
    fn session_trace_round_trips_through_pcap() {
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
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let n = write_session_trace(&mut w, &trace).unwrap();
        assert_eq!(n as usize, trace.packets.len());
        assert!(n > 10, "both directions should be present");
        let bytes = w.into_inner();
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        let records = r.read_all().unwrap();
        assert_eq!(records.len(), trace.packets.len());
        // Every frame re-parses, and both directions appear.
        let mut to_server = 0;
        let mut to_client = 0;
        for rec in &records {
            let pkt = Packet::parse(&rec.frame).unwrap();
            if pkt.tcp.dst_port == 443 {
                to_server += 1;
            } else {
                to_client += 1;
            }
        }
        assert!(to_server > 0 && to_client > 0);
    }
}
