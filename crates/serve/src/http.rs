//! A hand-rolled HTTP/1.1 subset over std TCP — just enough protocol for
//! the audit service, with hard limits enforced *during* parsing.
//!
//! No external dependency is available in this workspace (see
//! `vendor/README.md`), so the wire layer is written against the RFC 9112
//! subset the service actually needs: request line + headers, bodies
//! framed by `Content-Length` or `Transfer-Encoding: chunked`, keep-alive
//! by default. Everything a hostile or broken client can send maps to a
//! *typed* [`HttpError`] rather than a panic or an unbounded allocation:
//! header blocks over the limit are `431`, bodies over the limit are `413`
//! (detected from the declared length *before* reading, and re-checked
//! while streaming chunked bodies), and any framing violation — torn
//! request line, non-numeric length, truncated chunk — is a `400` that
//! also poisons the connection (framing is unrecoverable mid-stream).
//! A connection that stalls mid-request — the slow-loris pattern: open a
//! socket, dribble half a request line, hold — trips the socket's
//! read/write deadline ([`Limits::io_timeout`]) and is answered `408`.

use std::io::{BufRead, Write};
use std::time::Duration;

/// Parsing limits. Defaults are generous for trail batches but bounded:
/// a client cannot make the server buffer more than `max_body_bytes` or
/// hold a worker longer than `io_timeout` per socket operation.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    pub max_header_bytes: usize,
    pub max_body_bytes: usize,
    /// Per-operation socket deadline, applied to both reads and writes
    /// (`--io-timeout`). A stalled request line gets a `408` when it
    /// expires.
    pub io_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. [`HttpError::status`] maps each typed
/// cause onto the response the server must send before (for framing
/// errors) dropping the connection.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF between requests — the client hung up; not an error.
    Closed,
    /// Malformed framing: bad request line, bad header, bad chunk.
    Malformed(&'static str),
    /// Header block exceeded [`Limits::max_header_bytes`].
    HeadersTooLarge,
    /// Declared or streamed body exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// The socket deadline ([`Limits::io_timeout`]) expired mid-request —
    /// the slow-loris guard.
    TimedOut,
    /// Transport failure mid-request.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code owed to the client, if any (`Closed`/`Io` get none).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge => Some((413, "Content Too Large")),
            HttpError::TimedOut => Some((408, "Request Timeout")),
            HttpError::Closed | HttpError::Io(_) => None,
        }
    }
}

/// Lift a transport error, separating "the deadline expired" (a typed
/// `408`) from genuine transport failure. Timeouts surface as `WouldBlock`
/// or `TimedOut` depending on platform; both mean the peer stalled.
fn classify_io(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => HttpError::TimedOut,
        _ => HttpError::Io(e),
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadersTooLarge => write!(f, "header block too large"),
            HttpError::BodyTooLarge => write!(f, "body too large"),
            HttpError::TimedOut => write!(f, "request stalled past the io timeout"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Read one line (through CRLF or bare LF), bounded by `budget` bytes.
/// Consumes the terminator; returns the line without it.
fn read_line_bounded(
    reader: &mut impl BufRead,
    budget: &mut usize,
    over: HttpError,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Malformed("truncated line"));
            }
            Ok(_) => {}
            Err(e) => return Err(classify_io(e)),
        }
        if *budget == 0 {
            return Err(over);
        }
        *budget -= 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes"));
        }
        line.push(byte[0]);
    }
}

fn read_exact_body(
    reader: &mut impl BufRead,
    len: usize,
    limits: &Limits,
) -> Result<Vec<u8>, HttpError> {
    if len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => HttpError::TimedOut,
        _ => HttpError::Malformed("body shorter than Content-Length"),
    })?;
    Ok(body)
}

fn read_chunked_body(reader: &mut impl BufRead, limits: &Limits) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        // Chunk-size lines are tiny; bound them independently of the
        // header budget so a runaway size line cannot buffer unbounded.
        let mut budget = 128usize;
        let size_line =
            read_line_bounded(reader, &mut budget, HttpError::Malformed("chunk size line"))
                .map_err(|e| match e {
                    HttpError::Closed => HttpError::Malformed("truncated chunked body"),
                    other => other,
                })?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::Malformed("bad chunk size"))?;
        if size == 0 {
            // Trailer section: consume lines through the blank terminator.
            loop {
                let mut budget = 1024usize;
                let line = read_line_bounded(
                    reader,
                    &mut budget,
                    HttpError::Malformed("oversized trailer"),
                )
                .map_err(|e| match e {
                    HttpError::Closed => HttpError::Malformed("truncated chunk trailer"),
                    other => other,
                })?;
                if line.is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len() + size > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    HttpError::TimedOut
                }
                _ => HttpError::Malformed("truncated chunk data"),
            })?;
        let mut crlf = [0u8; 2];
        reader
            .read_exact(&mut crlf)
            .map_err(|_| HttpError::Malformed("missing chunk terminator"))?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed("missing chunk terminator"));
        }
    }
}

/// Read one full request off the wire, or a typed refusal.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let mut budget = limits.max_header_bytes;
    let request_line = read_line_bounded(reader, &mut budget, HttpError::HeadersTooLarge)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.chars().all(|c| c.is_ascii_uppercase()))
        .ok_or(HttpError::Malformed("bad method"))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or(HttpError::Malformed("bad request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::Malformed("bad HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_bounded(reader, &mut budget, HttpError::HeadersTooLarge).map_err(
            |e| match e {
                HttpError::Closed => HttpError::Malformed("truncated header block"),
                other => other,
            },
        )?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let chunked = request
        .header("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    let body = if chunked {
        read_chunked_body(reader, limits)?
    } else if let Some(len) = request.header("content-length") {
        let len: usize = len
            .trim()
            .parse()
            .map_err(|_| HttpError::Malformed("bad Content-Length"))?;
        read_exact_body(reader, len, limits)?
    } else {
        Vec::new()
    };
    Ok(Request { body, ..request })
}

/// Write one response. `extra_headers` ride along verbatim (e.g.
/// `Retry-After`); `Content-Length` and `Connection` are always set.
///
/// Head and body leave in a single write: two small writes on a kept-alive
/// socket without `TCP_NODELAY` stall ~40 ms (Nagle's algorithm holds the
/// body until the peer's delayed ACK of the head).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    head.push_str(&format!("Content-Type: {content_type}\r\n"));
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    /// A sink that counts `write` calls (the Nagle regression guard).
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub bytes: Vec<u8>,
        pub writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_head_and_body_leave_in_one_write() {
        let mut out = CountingWriter::default();
        write_response(&mut out, 200, "OK", "text/plain", &[], b"hello", false).unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(
            text.ends_with("Connection: keep-alive\r\n\r\nhello"),
            "{text}"
        );
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_request_with_content_length() {
        let req =
            parse(b"POST /v1/t/entries HTTP/1.1\r\nContent-Length: 5\r\nHost: x\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/t/entries");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_chunked_body() {
        let req = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n")
            .unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn truncated_chunk_is_malformed_not_hang() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nonly-part")
            .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        assert_eq!(err.status(), Some((400, "Bad Request")));
    }

    #[test]
    fn oversized_declared_body_refused_without_reading() {
        let limits = Limits {
            max_body_bytes: 10,
            ..Limits::default()
        };
        let bytes: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        let err = read_request(&mut BufReader::new(bytes), &limits).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge));
        assert_eq!(err.status(), Some((413, "Content Too Large")));
    }

    #[test]
    fn oversized_chunked_body_refused_while_streaming() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let bytes: &[u8] =
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nwaytoobig\r\n0\r\n\r\n";
        let err = read_request(&mut BufReader::new(bytes), &limits).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge));
    }

    #[test]
    fn header_block_over_limit_is_431() {
        let limits = Limits {
            max_header_bytes: 64,
            ..Limits::default()
        };
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Big: {}\r\n\r\n", "a".repeat(100)).as_bytes());
        let err = read_request(&mut BufReader::new(raw.as_slice()), &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge));
        assert_eq!(err.status(), Some((431, "Request Header Fields Too Large")));
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        for raw in [
            &b"not-http\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET / HTTP/2.0 extra\r\n\r\n"[..],
            &b"get / HTTP/1.1\r\n\r\n"[..],
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}");
        }
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(b"").unwrap_err(), HttpError::Closed));
    }

    #[test]
    fn response_carries_length_and_extra_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "Too Many Requests",
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
