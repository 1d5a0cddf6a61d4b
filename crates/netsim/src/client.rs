//! The client-side TCP state machine and the population of client
//! behaviours the paper's data contains: ordinary web clients, scanners,
//! Happy-Eyeballs losers, user aborts, and clients that simply vanish.
//!
//! The client is deliberately a *simplified but honest* TCP: correct
//! sequence/acknowledgement arithmetic, SYN and request retransmission with
//! exponential backoff, graceful FIN teardown, and abort-on-RST. These are
//! the behaviours that shape the inbound packet sequences the classifier
//! sees.

use crate::endpoint::{
    segment_options, tsval_at, Actions, EndpointInput, EndpointMachine, IpIdGen, IpIdMode,
};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use tamper_wire::{http, tls, Packet, PacketBuilder, TcpFlags, TcpHeader};

use std::net::IpAddr;

/// What the client asks for once connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestPayload {
    /// An HTTPS connection: the first data packet is a TLS ClientHello
    /// carrying this SNI.
    TlsClientHello {
        /// Server name sent in the clear.
        sni: String,
    },
    /// A cleartext HTTP GET.
    HttpGet {
        /// Host header.
        host: String,
        /// Request path.
        path: String,
        /// User-Agent header.
        user_agent: String,
    },
    /// Two sequential HTTP requests on one connection; the second path can
    /// carry a keyword that triggers Post-Data tampering.
    HttpTwo {
        /// Host header.
        host: String,
        /// First request path.
        path1: String,
        /// Second request path.
        path2: String,
        /// User-Agent header.
        user_agent: String,
    },
    /// An HTTP GET carried in the SYN payload itself (the §4.1 oddity:
    /// 38% of port-80 SYNs on one sampled day).
    HttpInSyn {
        /// Host header.
        host: String,
        /// Request path.
        path: String,
    },
    /// No request — used by scanners.
    None,
}

impl RequestPayload {
    /// Bytes of the first request, if any (excluding `HttpInSyn`, which is
    /// carried on the SYN).
    fn first_bytes(&self, random: [u8; 32]) -> Option<Bytes> {
        match self {
            RequestPayload::TlsClientHello { sni } => Some(tls::build_client_hello(sni, random)),
            RequestPayload::HttpGet {
                host,
                path,
                user_agent,
            } => Some(http::build_get(host, path, user_agent)),
            RequestPayload::HttpTwo {
                host,
                path1,
                user_agent,
                ..
            } => Some(http::build_get(host, path1, user_agent)),
            RequestPayload::HttpInSyn { .. } | RequestPayload::None => None,
        }
    }

    /// Bytes of the second request, for `HttpTwo`.
    fn second_bytes(&self) -> Option<Bytes> {
        match self {
            RequestPayload::HttpTwo {
                host,
                path2,
                user_agent,
                ..
            } => Some(http::build_get(host, path2, user_agent)),
            _ => None,
        }
    }

    /// Payload to carry on the SYN itself.
    fn syn_bytes(&self) -> Option<Bytes> {
        match self {
            RequestPayload::HttpInSyn { host, path } => {
                Some(http::build_get(host, path, "syn-optimizer/1.0"))
            }
            _ => None,
        }
    }
}

/// The stage at which a vanishing client stops transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VanishStage {
    /// After the SYN (no retransmissions — the host is gone).
    AfterSyn,
    /// After completing the handshake, before any request.
    AfterAck,
    /// After sending the request.
    AfterRequest,
    /// After acknowledging part of the response.
    MidResponse,
}

/// Client behaviour archetypes observed in real CDN traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientKind {
    /// Ordinary browser/client: full handshake, request, response, FIN.
    Normal,
    /// ZMap-style scanner: option-less SYN, IP-ID 54321, TTL ≥ 200,
    /// answers the SYN+ACK with a bare RST (§4.2).
    ZmapScanner,
    /// SYN-only scanner or spoofed SYN-flood residue: one SYN, silence.
    SilentScanner,
    /// Happy-Eyeballs loser that cancels with a RST once the other address
    /// family wins (Chromium / RFC 8305 behaviour).
    HappyEyeballsRst {
        /// When the race is decided.
        cancel_after: SimDuration,
    },
    /// Happy-Eyeballs loser that just abandons the connection (older
    /// RFC 6555 clients such as curl).
    HappyEyeballsSilent {
        /// When the race is decided.
        cancel_after: SimDuration,
    },
    /// User abort: RST after receiving `segments` response segments.
    AbortAfterResponse {
        /// Segments received before the abort.
        segments: u8,
    },
    /// The client loses connectivity (radio gap, roam, crash): stops
    /// transmitting at `stage` without any teardown.
    VanishAfter {
        /// Where transmission stops.
        stage: VanishStage,
    },
    /// A client that stalls mid-connection for `stall` and then resumes —
    /// a benign source of inactivity-gap false positives.
    Stall {
        /// The pause inserted before the request is sent.
        stall: SimDuration,
    },
    /// A client that closes gracefully but follows its FIN with a RST
    /// (common when `close()` is called with unread data). Produces the
    /// paper's unmatched "other possibly tampered" residue.
    FinThenRst,
    /// A client that completes the handshake, emits a duplicate ACK, and
    /// vanishes — "a connection terminated after a SYN and two ACKs", the
    /// paper's example of an unclassifiable sequence.
    DupAckThenVanish,
    /// A client whose network breaks asymmetrically right after connect:
    /// it never receives the SYN+ACK, so it keeps retransmitting the SYN
    /// and gives up. The server sees multiple SYNs then silence — a
    /// Post-SYN sequence no signature covers.
    MultiSynVanish,
}

/// Static configuration of one client session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Client source address.
    pub src: IpAddr,
    /// Server destination address.
    pub dst: IpAddr,
    /// Ephemeral source port.
    pub src_port: u16,
    /// 80 for HTTP, 443 for HTTPS.
    pub dst_port: u16,
    /// Request content.
    pub request: RequestPayload,
    /// Behaviour archetype.
    pub kind: ClientKind,
    /// IP-ID policy of the client stack.
    pub ip_id: IpIdMode,
    /// Initial TTL / hop limit (64 or 128 for real stacks; 255 for ZMap).
    pub initial_ttl: u8,
    /// Initial sequence number.
    pub isn: u32,
    /// Receive window advertised.
    pub window: u16,
    /// Think time between handshake completion and the request.
    pub request_delay: SimDuration,
    /// Whether the SYN carries a standard option set (scanners don't).
    pub syn_options: bool,
    /// TLS ClientHello random bytes (derandomized per session).
    pub tls_random: [u8; 32],
}

impl ClientConfig {
    /// A plain HTTPS client with sensible defaults, for tests.
    pub fn default_tls(src: IpAddr, dst: IpAddr, sni: &str) -> ClientConfig {
        ClientConfig {
            src,
            dst,
            src_port: 40000,
            dst_port: 443,
            request: RequestPayload::TlsClientHello {
                sni: sni.to_owned(),
            },
            kind: ClientKind::Normal,
            ip_id: IpIdMode::Counter {
                start: 1000,
                stride_max: 1,
            },
            initial_ttl: 64,
            isn: 0x1000_0000,
            window: 64240,
            request_delay: SimDuration::from_millis(5),
            syn_options: true,
            tls_random: [7u8; 32],
        }
    }
}

/// Client timer kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientTimer {
    /// Retransmit the SYN if still unanswered.
    RetransmitSyn,
    /// Retransmit the request if no response arrived.
    RetransmitRequest,
    /// The Happy-Eyeballs race was decided against this connection.
    HappyEyeballsCancel,
    /// Send the second HTTP request.
    SecondRequest,
    /// Send the deferred (post-stall) request.
    StalledRequest,
    /// Initiate graceful close.
    Close,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    SynSent,
    Established,
    Requested,
    FinWait,
    Closed,
}

/// The client endpoint state machine.
#[derive(Debug)]
pub struct Client {
    cfg: ClientConfig,
    state: State,
    snd_nxt: u32,
    rcv_nxt: u32,
    server_tsval: u32,
    ip_id: IpIdGen,
    syn_retries_left: u8,
    syn_rto: SimDuration,
    req_retries_left: u8,
    req_rto: SimDuration,
    request_bytes: Option<Bytes>,
    second_request: Option<Bytes>,
    responses_pending: u8,
    response_segments_seen: u8,
    he_cancelled: bool,
    response_started: bool,
    segs_since_ack: u8,
}

impl Client {
    /// Create the endpoint; feed it [`EndpointInput::Start`] to kick off
    /// the session.
    pub fn new(cfg: ClientConfig) -> Client {
        let ip_id = IpIdGen::new(cfg.ip_id);
        Client {
            state: State::Idle,
            snd_nxt: cfg.isn,
            rcv_nxt: 0,
            server_tsval: 0,
            ip_id,
            syn_retries_left: 2,
            syn_rto: SimDuration::from_secs(1),
            req_retries_left: 2,
            req_rto: SimDuration::from_secs(1),
            request_bytes: None,
            second_request: None,
            responses_pending: 0,
            response_segments_seen: 0,
            he_cancelled: false,
            response_started: false,
            segs_since_ack: 0,
            cfg,
        }
    }

    /// True once the client will take no further action.
    pub(crate) fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    fn builder(&mut self, rng: &mut StdRng) -> PacketBuilder {
        let id = self.ip_id.next(rng);
        PacketBuilder::new(
            self.cfg.src,
            self.cfg.dst,
            self.cfg.src_port,
            self.cfg.dst_port,
        )
        .ttl(self.cfg.initial_ttl)
        .ip_id(id)
        .window(self.cfg.window)
    }

    fn seg_options(&self, now: SimTime) -> Vec<tamper_wire::TcpOption> {
        if self.cfg.syn_options {
            segment_options(tsval_at(now), self.server_tsval)
        } else {
            // tamperlint: allow(hot-path-alloc) — zero-capacity Vec for the no-options case; Vec::new never touches the heap
            Vec::new()
        }
    }

    /// Begin the connection: emits the SYN and arms initial timers.
    fn start(&mut self, rng: &mut StdRng, actions: &mut Actions<ClientTimer>) {
        let syn_payload = self.cfg.request.syn_bytes().unwrap_or_default();
        let payload_len = syn_payload.len() as u32;
        let mut b = self
            .builder(rng)
            .flags(TcpFlags::SYN)
            .seq(self.cfg.isn)
            .payload(syn_payload);
        if self.cfg.syn_options {
            b = b.options(TcpHeader::standard_syn_options());
        }
        actions.emit(b.build(), SimDuration::ZERO);
        self.snd_nxt = self.cfg.isn.wrapping_add(1).wrapping_add(payload_len);
        self.state = State::SynSent;

        match &self.cfg.kind {
            ClientKind::VanishAfter {
                stage: VanishStage::AfterSyn,
            }
            | ClientKind::SilentScanner => {
                self.state = State::Closed;
            }
            ClientKind::ZmapScanner => {
                // Waits for the SYN+ACK; no retransmission.
            }
            ClientKind::HappyEyeballsRst { cancel_after }
            | ClientKind::HappyEyeballsSilent { cancel_after } => {
                actions.arm(ClientTimer::HappyEyeballsCancel, *cancel_after);
            }
            _ => {
                actions.arm(ClientTimer::RetransmitSyn, self.syn_rto);
            }
        }
    }

    /// Handle a packet that arrived at the client.
    fn on_packet(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        rng: &mut StdRng,
        actions: &mut Actions<ClientTimer>,
    ) {
        if self.state == State::Closed {
            return;
        }
        if self.cfg.kind == ClientKind::MultiSynVanish {
            // Deaf to everything: the return path is broken.
            return;
        }
        if pkt.tcp.flags.has_rst() {
            // Injected or genuine reset: the stack aborts immediately.
            self.state = State::Closed;
            return;
        }
        // Track the peer's timestamp for TSecr fidelity.
        for opt in &pkt.tcp.options {
            if let tamper_wire::TcpOption::Timestamps { tsval, .. } = opt {
                self.server_tsval = *tsval;
            }
        }

        if pkt.tcp.flags.contains(TcpFlags::SYN_ACK) && self.state == State::SynSent {
            self.rcv_nxt = pkt.tcp.seq.wrapping_add(1);
            match &self.cfg.kind {
                ClientKind::ZmapScanner => {
                    // ZMap answers with a bare RST and never establishes.
                    let rst = self
                        .builder(rng)
                        .flags(TcpFlags::RST)
                        .seq(pkt.tcp.ack)
                        .build();
                    actions.emit(rst, SimDuration::ZERO);
                    self.state = State::Closed;
                    return;
                }
                ClientKind::HappyEyeballsRst { .. } if self.he_cancelled => {
                    let rst = self
                        .builder(rng)
                        .flags(TcpFlags::RST)
                        .seq(pkt.tcp.ack)
                        .build();
                    actions.emit(rst, SimDuration::ZERO);
                    self.state = State::Closed;
                    return;
                }
                ClientKind::HappyEyeballsSilent { .. } if self.he_cancelled => {
                    self.state = State::Closed;
                    return;
                }
                _ => {}
            }
            // Complete the handshake.
            let opts = self.seg_options(now);
            let ack = self
                .builder(rng)
                .flags(TcpFlags::ACK)
                .seq(self.snd_nxt)
                .ack(self.rcv_nxt)
                .options(opts)
                .build();
            actions.emit(ack, SimDuration::ZERO);
            self.state = State::Established;

            if let ClientKind::VanishAfter {
                stage: VanishStage::AfterAck,
            } = self.cfg.kind
            {
                self.state = State::Closed;
                return;
            }
            if self.cfg.kind == ClientKind::DupAckThenVanish {
                let opts = self.seg_options(now);
                let dup = self
                    .builder(rng)
                    .flags(TcpFlags::ACK)
                    .seq(self.snd_nxt)
                    .ack(self.rcv_nxt)
                    .options(opts)
                    .build();
                actions.emit(dup, SimDuration::from_millis(2));
                self.state = State::Closed;
                return;
            }
            // Schedule the request (if the behaviour sends one).
            if let ClientKind::Stall { stall } = self.cfg.kind {
                actions.arm(ClientTimer::StalledRequest, stall);
            } else if let Some(req) = self.cfg.request.first_bytes(self.cfg.tls_random) {
                // Send directly after the think time instead of a timer
                // round-trip; simpler and equivalent.
                self.request_bytes = Some(req);
                self.send_request(now, self.cfg.request_delay, rng, actions);
            } else if matches!(self.cfg.request, RequestPayload::HttpInSyn { .. }) {
                // Request already rode the SYN; just await the response.
                self.state = State::Requested;
                self.responses_pending = 1;
            } else {
                // No request at all (shouldn't happen for Normal).
                self.state = State::Requested;
            }
            return;
        }

        // Data from the server.
        if !pkt.payload.is_empty() && self.state != State::Idle && self.state != State::SynSent {
            if pkt.tcp.seq != self.rcv_nxt {
                // Out-of-window or duplicate; ACK what we have.
                let opts = self.seg_options(now);
                let ack = self
                    .builder(rng)
                    .flags(TcpFlags::ACK)
                    .seq(self.snd_nxt)
                    .ack(self.rcv_nxt)
                    .options(opts)
                    .build();
                actions.emit(ack, SimDuration::ZERO);
                return;
            }
            self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.payload.len() as u32);
            self.response_started = true;
            self.response_segments_seen = self.response_segments_seen.saturating_add(1);

            if let ClientKind::AbortAfterResponse { segments } = self.cfg.kind {
                if self.response_segments_seen >= segments {
                    let rst = self
                        .builder(rng)
                        .flags(TcpFlags::RST)
                        .seq(self.snd_nxt)
                        .build();
                    actions.emit(rst, SimDuration::ZERO);
                    self.state = State::Closed;
                    return;
                }
            }
            if let ClientKind::VanishAfter {
                stage: VanishStage::MidResponse,
            } = self.cfg.kind
            {
                if self.response_segments_seen >= 1 {
                    self.state = State::Closed;
                    return;
                }
            }

            // Delayed ACK: acknowledge every second segment, and always on
            // a PSH (end of response) — like real stacks, and it keeps
            // healthy flows within the 10-packet collection window.
            self.segs_since_ack += 1;
            if pkt.tcp.flags.has_psh() || self.segs_since_ack >= 2 {
                self.segs_since_ack = 0;
                let opts = self.seg_options(now);
                let ack = self
                    .builder(rng)
                    .flags(TcpFlags::ACK)
                    .seq(self.snd_nxt)
                    .ack(self.rcv_nxt)
                    .options(opts)
                    .build();
                actions.emit(ack, SimDuration::ZERO);
            }

            // PSH on the final segment of a response marks it complete.
            if pkt.tcp.flags.has_psh() {
                self.responses_pending = self.responses_pending.saturating_sub(1);
                if self.second_request.is_some() {
                    actions.arm(ClientTimer::SecondRequest, SimDuration::from_millis(30));
                } else if self.responses_pending == 0 && self.state == State::Requested {
                    actions.arm(ClientTimer::Close, SimDuration::from_millis(10));
                }
            }
            return;
        }

        // Server FIN (possibly carried with ACK).
        if pkt.tcp.flags.has_fin() {
            self.rcv_nxt = pkt
                .tcp
                .seq
                .wrapping_add(pkt.payload.len() as u32)
                .wrapping_add(1);
            let opts = self.seg_options(now);
            let ack = self
                .builder(rng)
                .flags(TcpFlags::ACK)
                .seq(self.snd_nxt)
                .ack(self.rcv_nxt)
                .options(opts)
                .build();
            actions.emit(ack, SimDuration::ZERO);
            if self.state != State::FinWait {
                // Server closed first; reply with our FIN.
                let opts = self.seg_options(now);
                let fin = self
                    .builder(rng)
                    .flags(TcpFlags::FIN_ACK)
                    .seq(self.snd_nxt)
                    .ack(self.rcv_nxt)
                    .options(opts)
                    .build();
                actions.emit(fin, SimDuration::from_micros(100));
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
            }
            self.state = State::Closed;
        }
    }

    /// Send the first request `offset` after now (the think time when it
    /// follows the handshake directly) and arm its retransmission.
    fn send_request(
        &mut self,
        now: SimTime,
        offset: SimDuration,
        rng: &mut StdRng,
        actions: &mut Actions<ClientTimer>,
    ) {
        let Some(req) = self.request_bytes.clone() else {
            return;
        };
        let opts = self.seg_options(now);
        let pkt = self
            .builder(rng)
            .flags(TcpFlags::PSH_ACK)
            .seq(self.snd_nxt)
            .ack(self.rcv_nxt)
            .options(opts)
            .payload(req.clone())
            .build();
        actions.emit(pkt, offset);
        self.snd_nxt = self.snd_nxt.wrapping_add(req.len() as u32);
        self.state = State::Requested;
        self.responses_pending = self.responses_pending.saturating_add(1);
        self.second_request = self.cfg.request.second_bytes();

        if let ClientKind::VanishAfter {
            stage: VanishStage::AfterRequest,
        } = self.cfg.kind
        {
            self.state = State::Closed;
            return;
        }
        actions.arm(ClientTimer::RetransmitRequest, self.req_rto + offset);
    }

    /// Handle a timer firing.
    fn on_timer(
        &mut self,
        now: SimTime,
        timer: ClientTimer,
        rng: &mut StdRng,
        actions: &mut Actions<ClientTimer>,
    ) {
        if self.state == State::Closed {
            return;
        }
        match timer {
            ClientTimer::RetransmitSyn => {
                if self.state == State::SynSent {
                    if self.syn_retries_left == 0 {
                        self.state = State::Closed;
                        return;
                    }
                    self.syn_retries_left -= 1;
                    let syn_payload = self.cfg.request.syn_bytes().unwrap_or_default();
                    let mut b = self
                        .builder(rng)
                        .flags(TcpFlags::SYN)
                        .seq(self.cfg.isn)
                        .payload(syn_payload);
                    if self.cfg.syn_options {
                        b = b.options(TcpHeader::standard_syn_options());
                    }
                    actions.emit(b.build(), SimDuration::ZERO);
                    self.syn_rto = self.syn_rto.double();
                    actions.arm(ClientTimer::RetransmitSyn, self.syn_rto);
                }
            }
            ClientTimer::RetransmitRequest => {
                if self.state == State::Requested && !self.response_started {
                    if self.req_retries_left == 0 {
                        self.state = State::Closed;
                        return;
                    }
                    self.req_retries_left -= 1;
                    if let Some(req) = self.request_bytes.clone() {
                        let opts = self.seg_options(now);
                        let pkt = self
                            .builder(rng)
                            .flags(TcpFlags::PSH_ACK)
                            .seq(self.snd_nxt.wrapping_sub(req.len() as u32))
                            .ack(self.rcv_nxt)
                            .options(opts)
                            .payload(req)
                            .build();
                        actions.emit(pkt, SimDuration::ZERO);
                    }
                    self.req_rto = self.req_rto.double();
                    actions.arm(ClientTimer::RetransmitRequest, self.req_rto);
                }
            }
            ClientTimer::HappyEyeballsCancel => {
                self.he_cancelled = true;
                if self.state != State::SynSent {
                    // The handshake finished before the race was decided:
                    // tear the connection down now.
                    if let ClientKind::HappyEyeballsRst { .. } = self.cfg.kind {
                        let rst = self
                            .builder(rng)
                            .flags(TcpFlags::RST)
                            .seq(self.snd_nxt)
                            .build();
                        actions.emit(rst, SimDuration::ZERO);
                    }
                    self.state = State::Closed;
                }
                // If still SynSent, the RST/silence happens when (if) the
                // SYN+ACK arrives.
            }
            ClientTimer::SecondRequest => {
                if let Some(req) = self.second_request.take() {
                    let opts = self.seg_options(now);
                    let pkt = self
                        .builder(rng)
                        .flags(TcpFlags::PSH_ACK)
                        .seq(self.snd_nxt)
                        .ack(self.rcv_nxt)
                        .options(opts)
                        .payload(req.clone())
                        .build();
                    actions.emit(pkt, SimDuration::ZERO);
                    self.snd_nxt = self.snd_nxt.wrapping_add(req.len() as u32);
                    self.responses_pending = self.responses_pending.saturating_add(1);
                }
            }
            ClientTimer::StalledRequest => {
                if self.state == State::Established {
                    if let Some(req) = self.cfg.request.first_bytes(self.cfg.tls_random) {
                        self.request_bytes = Some(req);
                        self.send_request(now, SimDuration::ZERO, rng, actions);
                    }
                }
            }
            ClientTimer::Close => {
                if self.state == State::Requested {
                    let opts = self.seg_options(now);
                    let fin = self
                        .builder(rng)
                        .flags(TcpFlags::FIN_ACK)
                        .seq(self.snd_nxt)
                        .ack(self.rcv_nxt)
                        .options(opts)
                        .build();
                    actions.emit(fin, SimDuration::ZERO);
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.state = State::FinWait;
                    if self.cfg.kind == ClientKind::FinThenRst {
                        // Abortive epilogue: RST chases the FIN.
                        let rst = self
                            .builder(rng)
                            .flags(TcpFlags::RST)
                            .seq(self.snd_nxt)
                            .build();
                        actions.emit(rst, SimDuration::from_millis(30));
                        self.state = State::Closed;
                    }
                }
            }
        }
    }
}

impl EndpointMachine for Client {
    type Timer = ClientTimer;

    /// The sans-IO entry point: dispatches to the kick-off, packet, and
    /// timer handlers without changing their behaviour (the simulation's
    /// RNG draw order is part of the golden-trace contract).
    fn process(
        &mut self,
        input: EndpointInput<'_, ClientTimer>,
        now: SimTime,
        rng: &mut StdRng,
        out: &mut Actions<ClientTimer>,
    ) {
        match input {
            EndpointInput::Start => self.start(rng, out),
            EndpointInput::Packet(pkt) => self.on_packet(now, pkt, rng, out),
            EndpointInput::Timer(t) => self.on_timer(now, t, rng, out),
        }
    }

    fn is_closed(&self) -> bool {
        Client::is_closed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::step;
    use crate::rng::derive_rng;
    use std::net::Ipv4Addr;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    #[test]
    fn normal_client_starts_with_option_bearing_syn() {
        let (src, dst) = addrs();
        let mut c = Client::new(ClientConfig::default_tls(src, dst, "example.com"));
        let mut rng = derive_rng(1, 1);
        let a = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        assert_eq!(a.emits.len(), 1);
        let syn = &a.emits[0].0;
        assert_eq!(syn.tcp.flags, TcpFlags::SYN);
        assert!(!syn.tcp.has_no_options());
        assert_eq!(a.timers.len(), 1); // SYN retransmit armed
    }

    #[test]
    fn zmap_scanner_syn_is_optionless_with_fixed_ipid() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::ZmapScanner;
        cfg.syn_options = false;
        cfg.ip_id = IpIdMode::Fixed(54321);
        cfg.initial_ttl = 255;
        cfg.request = RequestPayload::None;
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(1, 2);
        let a = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let syn = &a.emits[0].0;
        assert!(syn.tcp.has_no_options());
        assert_eq!(syn.ip.ip_id(), Some(54321));
        assert_eq!(syn.ip.ttl(), 255);
    }

    #[test]
    fn zmap_answers_synack_with_bare_rst() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::ZmapScanner;
        cfg.request = RequestPayload::None;
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(1, 3);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let synack = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(9999)
            .ack(0x1000_0001)
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime::from_secs(1),
            &mut rng,
        );
        assert_eq!(a.emits.len(), 1);
        let rst = &a.emits[0].0;
        assert_eq!(rst.tcp.flags, TcpFlags::RST);
        assert_eq!(rst.tcp.seq, 0x1000_0001);
        assert!(c.is_closed());
    }

    #[test]
    fn normal_client_completes_handshake_then_sends_request() {
        let (src, dst) = addrs();
        let mut c = Client::new(ClientConfig::default_tls(src, dst, "blocked.example"));
        let mut rng = derive_rng(1, 4);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let synack = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(5000)
            .ack(0x1000_0001)
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime::from_secs(1),
            &mut rng,
        );
        // ACK plus the (delayed) ClientHello.
        assert_eq!(a.emits.len(), 2);
        assert_eq!(a.emits[0].0.tcp.flags, TcpFlags::ACK);
        let req = &a.emits[1].0;
        assert_eq!(req.tcp.flags, TcpFlags::PSH_ACK);
        assert_eq!(
            tamper_wire::tls::parse_sni(&req.payload)
                .unwrap()
                .as_deref(),
            Some("blocked.example")
        );
        assert_eq!(req.tcp.seq, 0x1000_0001);
        assert_eq!(req.tcp.ack, 5001);
    }

    #[test]
    fn client_aborts_on_rst() {
        let (src, dst) = addrs();
        let mut c = Client::new(ClientConfig::default_tls(src, dst, "x"));
        let mut rng = derive_rng(1, 5);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let rst = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::RST_ACK)
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&rst),
            SimTime::from_secs(1),
            &mut rng,
        );
        assert!(a.emits.is_empty());
        assert!(c.is_closed());
    }

    #[test]
    fn syn_retransmission_backs_off_then_gives_up() {
        let (src, dst) = addrs();
        let mut c = Client::new(ClientConfig::default_tls(src, dst, "x"));
        let mut rng = derive_rng(1, 6);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let a1 = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::RetransmitSyn),
            SimTime::from_secs(1),
            &mut rng,
        );
        assert_eq!(a1.emits.len(), 1);
        assert_eq!(a1.emits[0].0.tcp.flags, TcpFlags::SYN);
        let a2 = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::RetransmitSyn),
            SimTime::from_secs(3),
            &mut rng,
        );
        assert_eq!(a2.emits.len(), 1);
        let a3 = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::RetransmitSyn),
            SimTime::from_secs(7),
            &mut rng,
        );
        assert!(a3.emits.is_empty());
        assert!(c.is_closed());
    }

    #[test]
    fn vanish_after_syn_never_retransmits() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::VanishAfter {
            stage: VanishStage::AfterSyn,
        };
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(1, 7);
        let a = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        assert_eq!(a.emits.len(), 1);
        assert!(a.timers.is_empty());
        assert!(c.is_closed());
    }

    #[test]
    fn happy_eyeballs_rst_cancels_late_synack() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::HappyEyeballsRst {
            cancel_after: SimDuration::from_millis(250),
        };
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(1, 8);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let _ = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::HappyEyeballsCancel),
            SimTime(250_000_000),
            &mut rng,
        );
        let synack = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(5000)
            .ack(0x1000_0001)
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime(300_000_000),
            &mut rng,
        );
        assert_eq!(a.emits.len(), 1);
        assert_eq!(a.emits[0].0.tcp.flags, TcpFlags::RST);
        assert!(c.is_closed());
    }

    #[test]
    fn response_with_psh_triggers_close() {
        let (src, dst) = addrs();
        let mut c = Client::new(ClientConfig::default_tls(src, dst, "ok.example"));
        let mut rng = derive_rng(1, 9);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let synack = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(5000)
            .ack(0x1000_0001)
            .build();
        let _ = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime(1_000_000),
            &mut rng,
        );
        // Server response: one PSH-terminated segment.
        let resp = PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::PSH_ACK)
            .seq(5001)
            .ack(c.snd_nxt)
            .payload(Bytes::from_static(b"HTTP/1.1 200 OK\r\n\r\nhi"))
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&resp),
            SimTime(2_000_000),
            &mut rng,
        );
        assert!(a.emits.iter().any(|(p, _)| p.tcp.flags == TcpFlags::ACK));
        assert!(a.timers.iter().any(|(t, _)| *t == ClientTimer::Close));
        let close = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::Close),
            SimTime(3_000_000),
            &mut rng,
        );
        assert_eq!(close.emits.len(), 1);
        assert!(close.emits[0].0.tcp.flags.has_fin());
    }
}

#[cfg(test)]
mod extra_kind_tests {
    use super::*;
    use crate::endpoint::step;
    use crate::rng::derive_rng;
    use std::net::{IpAddr, Ipv4Addr};

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    #[test]
    fn dup_ack_then_vanish_sends_two_acks() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::DupAckThenVanish;
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(3, 1);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let synack = tamper_wire::PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(5000)
            .ack(0x1000_0001)
            .build();
        let a = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime(1_000_000),
            &mut rng,
        );
        let acks: Vec<_> = a
            .emits
            .iter()
            .filter(|(p, _)| p.tcp.flags == TcpFlags::ACK)
            .collect();
        assert_eq!(acks.len(), 2);
        assert!(c.is_closed());
    }

    #[test]
    fn fin_then_rst_epilogue() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::FinThenRst;
        let mut c = Client::new(cfg);
        let mut rng = derive_rng(3, 2);
        let _ = step(&mut c, EndpointInput::Start, SimTime::ZERO, &mut rng);
        let synack = tamper_wire::PacketBuilder::new(dst, src, 443, 40000)
            .flags(TcpFlags::SYN_ACK)
            .seq(5000)
            .ack(0x1000_0001)
            .build();
        let _ = step(
            &mut c,
            EndpointInput::Packet(&synack),
            SimTime(1_000_000),
            &mut rng,
        );
        // Skip straight to the close timer (state Requested after request).
        let a = step(
            &mut c,
            EndpointInput::Timer(ClientTimer::Close),
            SimTime(5_000_000),
            &mut rng,
        );
        let flags: Vec<_> = a.emits.iter().map(|(p, _)| p.tcp.flags).collect();
        assert_eq!(flags, vec![TcpFlags::FIN_ACK, TcpFlags::RST]);
        assert!(c.is_closed());
    }
}
