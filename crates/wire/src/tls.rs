//! Minimal TLS ClientHello handling: enough to build a realistic
//! ClientHello carrying a Server Name Indication (SNI) extension, and to
//! extract the SNI from one — which is exactly the visibility a censoring
//! middlebox (and this project's classifier) has into an HTTPS connection.
//!
//! TLS 1.3 with plain ClientHello is modelled; the record and handshake
//! framing follows RFC 8446 §4 and RFC 6066 §3 for server_name.

use crate::reader::Reader;
use crate::{Result, WireError};
use bytes::{BufMut, Bytes, BytesMut};

/// TLS record content type for handshake messages.
const CONTENT_TYPE_HANDSHAKE: u8 = 0x16;
/// Handshake message type for ClientHello.
const HANDSHAKE_CLIENT_HELLO: u8 = 0x01;
/// Extension number for server_name.
const EXT_SERVER_NAME: u16 = 0x0000;

/// A TLS length field: everything this builder measures is bounded by the
/// hello template plus a DNS-limited SNI, but saturate rather than wrap if
/// a caller ever hands something oversized.
fn len16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Build a TLS 1.2-compatible ClientHello record carrying `sni` in a
/// server_name extension. The `random` bytes let callers derandomize.
///
/// ```
/// let hello = tamper_wire::tls::build_client_hello("example.com", [0u8; 32]);
/// assert!(tamper_wire::tls::is_client_hello(&hello));
/// assert_eq!(
///     tamper_wire::tls::parse_sni(&hello).unwrap().as_deref(),
///     Some("example.com"),
/// );
/// ```
pub fn build_client_hello(sni: &str, random: [u8; 32]) -> Bytes {
    let name = sni.as_bytes();
    // Each nested block's length, innermost first, so the record is
    // written front to back into one buffer of its final size.
    let sni_ext = 5 + name.len();
    let exts = 4 + sni_ext + SUPPORTED_VERSIONS_EXT.len();
    let body = 2 + 32 + 1 + 32 + SUITES_AND_COMPRESSION.len() + 2 + exts;
    let hs = 4 + body;
    let be = |n: usize| len16(n).to_be_bytes();
    let ([hs0, hs1], [body0, body1]) = (be(hs), be(body));
    let ([exts0, exts1], [ext0, ext1]) = (be(exts), be(sni_ext));
    let ([list0, list1], [name0, name1]) = (be(3 + name.len()), be(name.len()));

    let mut rec = BytesMut::with_capacity(5 + hs);
    // Record header (type, legacy version 0x0301, length), handshake
    // header (type, 24-bit length with a zero high byte), then the
    // ClientHello's legacy_version, TLS 1.2.
    rec.put_slice(&[
        CONTENT_TYPE_HANDSHAKE,
        0x03,
        0x01,
        hs0,
        hs1,
        HANDSHAKE_CLIENT_HELLO,
        0,
        body0,
        body1,
        0x03,
        0x03,
    ]);
    rec.put_slice(&random);
    rec.put_slice(&[32]); // legacy_session_id length
    rec.put_slice(&[0xAA; 32]);
    rec.put_slice(&SUITES_AND_COMPRESSION);
    // The extensions' total length, then the server_name extension:
    // type 0x0000, its length, the name list's length, name type 0
    // (host_name), the name's length and the name.
    rec.put_slice(&[
        exts0, exts1, 0x00, 0x00, ext0, ext1, list0, list1, 0, name0, name1,
    ]);
    rec.put_slice(name);
    rec.put_slice(&SUPPORTED_VERSIONS_EXT);
    debug_assert_eq!(rec.len(), 5 + hs, "ClientHello lengths disagree");
    rec.freeze()
}

/// Four cipher suites (TLS 1.3's three and ECDHE-RSA-AES128-GCM), then
/// the null compression method, each behind its length.
const SUITES_AND_COMPRESSION: [u8; 12] = [
    0x00, 0x08, 0x13, 0x01, 0x13, 0x02, 0x13, 0x03, 0xc0, 0x2f, 0x01, 0x00,
];

/// A small, realistic second extension so the hello isn't SNI-only:
/// supported_versions (0x002b) offering TLS 1.3 and 1.2.
const SUPPORTED_VERSIONS_EXT: [u8; 9] = [0x00, 0x2b, 0x00, 0x05, 0x04, 0x03, 0x04, 0x03, 0x03];

/// True if the payload starts like a TLS handshake record containing a
/// ClientHello. Used by middleboxes and the classifier to decide whether a
/// data packet is "the TLS request".
pub fn is_client_hello(payload: &[u8]) -> bool {
    payload.first() == Some(&CONTENT_TYPE_HANDSHAKE)
        && payload.get(1) == Some(&0x03)
        && payload.get(5) == Some(&HANDSHAKE_CLIENT_HELLO)
}

/// Extract the SNI host name from a ClientHello payload, if present and
/// well-formed. This is the middlebox's-eye view: no decryption, just the
/// cleartext extension.
pub fn parse_sni(payload: &[u8]) -> Result<Option<String>> {
    if !is_client_hello(payload) {
        return Err(WireError::Malformed("tls record"));
    }
    let mut rec = Reader::new(payload);
    rec.skip(3)?; // content type + record version
    let record_len = rec.u16()? as usize;
    let record = rec.take(record_len)?;
    // Handshake header: type(1) + len(3).
    let mut hs = Reader::new(record);
    hs.skip(1)?; // handshake type (checked by is_client_hello)
    let [l0, l1, l2] = hs.array()?;
    let hs_len = (usize::from(l0) << 16) | (usize::from(l1) << 8) | usize::from(l2);
    let body = hs.take(hs_len)?;

    let mut r = Reader::new(body);
    r.skip(2)?; // legacy_version
    r.skip(32)?; // random
    let sid_len = r.u8()? as usize;
    r.skip(sid_len)?;
    let cs_len = r.u16()? as usize;
    r.skip(cs_len)?;
    let comp_len = r.u8()? as usize;
    r.skip(comp_len)?;
    if r.is_empty() {
        return Ok(None); // no extensions block at all
    }
    let ext_total = r.u16()? as usize;
    let ext_end = r.pos() + ext_total;
    while r.pos() + 4 <= ext_end.min(body.len()) {
        let ext_type = r.u16()?;
        let ext_len = r.u16()? as usize;
        let ext = r.take(ext_len)?;
        if ext_type == EXT_SERVER_NAME {
            // list length(2) + type(1) + name length(2) + name
            if ext.len() < 5 {
                return Err(WireError::Malformed("sni extension"));
            }
            let mut e = Reader::new(ext);
            e.skip(2)?; // server name list length
            if e.u8()? != 0 {
                continue; // not a host_name entry
            }
            let name_len = e.u16()? as usize;
            let name = e.take(name_len)?;
            let s = std::str::from_utf8(name)
                .map_err(|_| WireError::Malformed("sni utf-8"))?
                .to_owned();
            return Ok(Some(s));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_then_parse_sni() {
        let ch = build_client_hello("blocked.example.com", [7u8; 32]);
        assert!(is_client_hello(&ch));
        assert_eq!(
            parse_sni(&ch).unwrap().as_deref(),
            Some("blocked.example.com")
        );
    }

    #[test]
    fn sni_with_unicode_label_round_trips() {
        // IDNs appear on the wire in punycode, but parse must not crash on
        // any valid UTF-8 either.
        let ch = build_client_hello("xn--bcher-kva.example", [0u8; 32]);
        assert_eq!(
            parse_sni(&ch).unwrap().as_deref(),
            Some("xn--bcher-kva.example")
        );
    }

    #[test]
    fn non_tls_payload_rejected() {
        assert!(parse_sni(b"GET / HTTP/1.1\r\n\r\n").is_err());
        assert!(!is_client_hello(b"GET / HTTP/1.1\r\n"));
    }

    #[test]
    fn truncated_record_rejected() {
        let ch = build_client_hello("a.example", [0u8; 32]);
        for cut in [6, 10, 40, ch.len() - 1] {
            assert!(
                parse_sni(&ch[..cut]).is_err(),
                "cut at {cut} should not parse"
            );
        }
    }

    #[test]
    fn hello_without_sni_yields_none() {
        // Build a hello, then splice out the SNI extension by rebuilding
        // the extensions block with only supported_versions.
        let ch = build_client_hello("x.example", [0u8; 32]);
        // Simpler: craft a minimal hello with zero extensions length.
        let mut body = Vec::new();
        body.extend_from_slice(&[0x03, 0x03]);
        body.extend_from_slice(&[0u8; 32]);
        body.push(0); // empty session id
        body.extend_from_slice(&[0x00, 0x02, 0x13, 0x01]); // one suite
        body.extend_from_slice(&[0x01, 0x00]); // null compression
        body.extend_from_slice(&[0x00, 0x00]); // empty extensions
        let mut rec = Vec::new();
        rec.push(0x16);
        rec.extend_from_slice(&[0x03, 0x01]);
        rec.extend_from_slice(&u16::try_from(body.len() + 4).unwrap().to_be_bytes());
        rec.push(0x01);
        rec.push(0);
        rec.extend_from_slice(&u16::try_from(body.len()).unwrap().to_be_bytes());
        rec.extend_from_slice(&body);
        assert_eq!(parse_sni(&rec).unwrap(), None);
        // And the full builder output still parses.
        assert!(parse_sni(&ch).unwrap().is_some());
    }

    #[test]
    fn hello_bytes_are_pinned() {
        // Simulated captures and every report hang off these exact bytes.
        let hex: String = build_client_hello("a.example", [7u8; 32])
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            concat!(
                "16030100700100006c0303",
                "0707070707070707070707070707070707070707070707070707070707070707",
                "20aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                "0008130113021303c02f0100",
                "001b0000000e000c000009612e6578616d706c65",
                "002b00050403040303",
            )
        );
    }

    #[test]
    fn first_bytes_look_like_tls() {
        let ch = build_client_hello("a.b", [1u8; 32]);
        assert_eq!(ch[0], 0x16);
        assert_eq!(&ch[1..3], &[0x03, 0x01]);
    }
}
