//! Minimal HTTP/1.x request handling: building GET requests and parsing
//! the fields a DPI middlebox keys on — the request line (path keywords)
//! and the Host header — plus the User-Agent, which the paper observes
//! often identifies commercial firewalls in Post-Data tampering.

use crate::{Result, WireError};
use bytes::Bytes;

/// A parsed HTTP/1.x request head, borrowed from the payload. A
/// repeated header yields its last value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    /// Request method (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Request target (path + query).
    pub path: &'a str,
    /// Host header value as sent, if present.
    pub host: Option<&'a str>,
    /// User-Agent header value, if present.
    pub user_agent: Option<&'a str>,
}

/// Build a plain HTTP/1.1 GET request.
pub fn build_get(host: &str, path: &str, user_agent: &str) -> Bytes {
    let req = format!(
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {user_agent}\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n"
    );
    Bytes::from(req)
}

/// Build a POST with a body — used to model keyword-bearing uploads that
/// trigger Post-Data tampering.
pub fn build_post(host: &str, path: &str, user_agent: &str, body: &str) -> Bytes {
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {user_agent}\r\nContent-Length: {}\r\nContent-Type: text/plain\r\n\r\n{body}",
        body.len()
    );
    Bytes::from(req)
}

/// True if the payload plausibly starts an HTTP/1.x request.
pub fn is_http_request(payload: &[u8]) -> bool {
    const METHODS: [&[u8]; 5] = [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"OPTIONS "];
    METHODS.iter().any(|m| payload.starts_with(m))
}

/// The request's text up to the first byte that is not UTF-8: bodies
/// can be binary, only the head must be text.
fn head_text(payload: &[u8]) -> Result<&str> {
    if !is_http_request(payload) {
        return Err(WireError::Malformed("http request line"));
    }
    match std::str::from_utf8(payload) {
        Ok(t) => Ok(t),
        Err(e) => payload
            .get(..e.valid_up_to())
            .and_then(|head| std::str::from_utf8(head).ok())
            .ok_or(WireError::Malformed("http head utf-8")),
    }
}

/// Parse the request head (request line + headers), copying nothing.
/// Returns [`WireError::Malformed`] when the payload is not an HTTP
/// request or the request line is broken. Tolerates a truncated header
/// block (parses what is there), matching what a DPI box sees in the
/// first packet.
///
/// ```
/// let req = tamper_wire::http::build_get("Example.com", "/x", "demo/1.0");
/// let parsed = tamper_wire::http::parse_request(&req).unwrap();
/// assert_eq!(parsed.host, Some("Example.com"));
/// assert_eq!(parsed.user_agent, Some("demo/1.0"));
/// ```
pub fn parse_request(payload: &[u8]) -> Result<HttpRequest<'_>> {
    const BAD: WireError = WireError::Malformed("http request line");
    let mut lines = head_text(payload)?.split("\r\n");
    let request_line = lines.next().ok_or(BAD)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(BAD)?;
    let path = parts.next().ok_or(BAD)?;
    let version = parts.next().ok_or(BAD)?;
    if !version.starts_with("HTTP/") {
        return Err(BAD);
    }
    let mut req = HttpRequest {
        method,
        path,
        host: None,
        user_agent: None,
    };
    for line in lines {
        if line.is_empty() {
            break; // end of headers
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("host") {
                req.host = Some(value);
            } else if name.eq_ignore_ascii_case("user-agent") {
                req.user_agent = Some(value);
            }
        }
    }
    Ok(req)
}

/// Case-insensitive substring search over a payload — the primitive behind
/// keyword-based DPI rules (and the "Substring" rows of the paper's
/// Table 3).
pub fn contains_keyword(payload: &[u8], keyword: &str) -> bool {
    let kw = keyword.as_bytes();
    if kw.is_empty() || payload.len() < kw.len() {
        return payload.len() >= kw.len();
    }
    payload
        .windows(kw.len())
        .any(|w| w.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_then_parse_get() {
        let req = build_get("Example.COM", "/watch?v=1", "curl/8.0");
        let parsed = parse_request(&req).unwrap();
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.path, "/watch?v=1");
        assert_eq!(parsed.host, Some("Example.COM")); // as sent
        assert_eq!(parsed.user_agent, Some("curl/8.0"));
    }

    #[test]
    fn post_with_body_parses_head() {
        let req = build_post("example.com", "/submit", "ua", "forbidden words here");
        let parsed = parse_request(&req).unwrap();
        assert_eq!(parsed.method, "POST");
        assert!(contains_keyword(&req, "FORBIDDEN"));
    }

    #[test]
    fn non_http_rejected() {
        assert!(parse_request(b"\x16\x03\x01").is_err());
        assert!(parse_request(b"").is_err());
        assert!(parse_request(b"NOTAMETHOD / HTTP/1.1\r\n").is_err());
    }

    #[test]
    fn request_line_without_version_rejected() {
        assert_eq!(
            parse_request(b"GET /\r\n"),
            Err(WireError::Malformed("http request line"))
        );
    }

    #[test]
    fn truncated_headers_parse_partially() {
        let full = build_get("example.com", "/", "ua");
        let cut = &full[..30]; // mid-Host header
        let parsed = parse_request(cut).unwrap();
        assert_eq!(parsed.method, "GET");
        // Host header may or may not survive the cut; must not panic.
    }

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let req = build_get("example.com", "/Falun-Info", "ua");
        assert!(contains_keyword(&req, "falun"));
        assert!(!contains_keyword(&req, "tiananmen"));
        assert!(contains_keyword(b"", ""));
        assert!(!contains_keyword(b"ab", "abc"));
    }

    #[test]
    fn binary_body_does_not_break_parsing() {
        let mut req = build_get("example.com", "/", "ua").to_vec();
        req.extend_from_slice(&[0xFF, 0xFE, 0x00]);
        let parsed = parse_request(&req).unwrap();
        assert_eq!(parsed.host, Some("example.com"));
    }
}
