//! Minimal HTTP/1.1 message handling over byte buffers and `std::net` —
//! just enough for the serving layer: an incremental request-head
//! scanner that walks a receive buffer one head at a time (so pipelined
//! requests parse in order), a tiny query-string parser, and a response
//! serializer that always sends an accurate `Content-Length` and an
//! explicit connection [`Disposition`] (`keep-alive` or `close`). The
//! reactor keeps connections alive by default; a parsed request records
//! whether the client asked to close ([`Request::close_requested`]) so
//! the serializer and the connection state machine agree on one
//! disposition.

use std::io::{Read, Write};
use std::net::TcpStream;

/// A parsed request line: method, path, decomposed query string, and
/// the client's connection preference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, without the query.
    pub path: String,
    /// `key=value` query pairs in request order (no percent-decoding:
    /// artifact names and numeric parameters are plain ASCII).
    pub query: Vec<(String, String)>,
    /// Whether the client asked for the connection to close after this
    /// response: `Connection: close`, or HTTP/1.0 without an explicit
    /// `Connection: keep-alive`.
    pub close_requested: bool,
    /// The request body, exactly `Content-Length` bytes. Filled by
    /// [`scan_request`]; the head-only paths ([`scan_head`],
    /// [`read_request_head`]) leave it empty.
    pub body: Vec<u8>,
}

/// What reading one request head produced.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A structurally valid head.
    Ok(Request),
    /// Bytes arrived but the request line is not HTTP (`400`).
    Malformed(&'static str),
    /// The head or declared body exceeded its configured byte cap
    /// (`413`).
    TooLarge,
    /// The peer vanished (empty read, reset, or timeout) mid-head.
    Disconnected,
}

/// Scan `buf` for one complete request head starting at offset zero.
///
/// Returns `None` when the head is still incomplete and within the
/// byte cap (read more), or `Some((outcome, consumed))` where
/// `consumed` is how many buffer bytes the head used — the caller
/// drains them and may call again on the remainder, which is how
/// pipelined heads are parsed one at a time.
pub fn scan_head(buf: &[u8], max_head_bytes: usize) -> Option<(ParseOutcome, usize)> {
    match find_head_end(buf) {
        // A complete-but-oversized head is still rejected: the cap is on
        // head size, not on how much arrived before the terminator.
        Some(end) if end > max_head_bytes => Some((ParseOutcome::TooLarge, end)),
        Some(end) => Some((parse_head(buf, end), end)),
        None if buf.len() > max_head_bytes => Some((ParseOutcome::TooLarge, buf.len())),
        None => None,
    }
}

/// Scan `buf` for one complete request — head *and* `Content-Length`
/// body — starting at offset zero.
///
/// Same contract as [`scan_head`] (`None` = read more, `consumed` =
/// bytes this request used, pipelining via repeated calls), plus typed
/// body handling:
///
/// * a declared body longer than `max_body_bytes` is rejected as
///   [`ParseOutcome::TooLarge`] (the caller answers `413`) without
///   waiting for the bytes to arrive;
/// * an unparseable `Content-Length`, or any `Transfer-Encoding`
///   (chunked framing is not served here), is
///   [`ParseOutcome::Malformed`];
/// * a complete head whose body has not fully arrived stays pending
///   (`None`), so a torn body surfaces exactly like a torn head when
///   the peer gives up: EOF with bytes still buffered.
pub fn scan_request(
    buf: &[u8],
    max_head_bytes: usize,
    max_body_bytes: usize,
) -> Option<(ParseOutcome, usize)> {
    let (outcome, head_end) = scan_head(buf, max_head_bytes)?;
    let mut req = match outcome {
        ParseOutcome::Ok(req) => req,
        other => return Some((other, head_end)),
    };
    let declared = match declared_body_len(buf.get(..head_end).unwrap_or(buf)) {
        Ok(n) => n,
        Err(msg) => return Some((ParseOutcome::Malformed(msg), head_end)),
    };
    if declared > max_body_bytes {
        // Reject immediately: buffering an oversized body first would
        // let the client spend our memory before hearing the 413.
        return Some((ParseOutcome::TooLarge, buf.len()));
    }
    let total = head_end.saturating_add(declared);
    if buf.len() < total {
        return None;
    }
    req.body = buf.get(head_end..total).unwrap_or(&[]).to_vec();
    Some((ParseOutcome::Ok(req), total))
}

/// The body length one complete head declares: `Content-Length` if
/// parseable, 0 when absent. `Transfer-Encoding` is refused outright —
/// nothing this server exposes accepts chunked uploads, and silently
/// ignoring the header would misframe the connection.
fn declared_body_len(head: &[u8]) -> Result<usize, &'static str> {
    let text = match std::str::from_utf8(head) {
        Ok(t) => t,
        Err(_) => return Err("request head is not UTF-8"),
    };
    let mut declared: Option<usize> = None;
    for header in text.lines().skip(1) {
        let Some((key, value)) = header.split_once(':') else {
            continue;
        };
        let key = key.trim();
        if key.eq_ignore_ascii_case("transfer-encoding") {
            return Err("transfer-encoding is not supported; send content-length");
        }
        if key.eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) => declared = Some(n),
                Err(_) => return Err("content-length is not a number"),
            }
        }
    }
    Ok(declared.unwrap_or(0))
}

/// Read the request head (request line + headers, up to the blank line)
/// from `stream`, enforcing `max_head_bytes`. Body bytes are never
/// read: this blocking convenience predates body handling and serves
/// the `GET`-shaped test/one-shot callers. The reactor uses
/// [`scan_request`] directly on its per-connection buffers.
pub fn read_request_head(stream: &mut TcpStream, max_head_bytes: usize) -> ParseOutcome {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some((outcome, _consumed)) = scan_head(&head, max_head_bytes) {
            return outcome;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF without a complete head: an empty probe connection
                // is a disconnect; partial bytes are a torn request.
                return if head.is_empty() {
                    ParseOutcome::Disconnected
                } else {
                    ParseOutcome::Malformed("connection closed mid-request-head")
                };
            }
            Ok(n) => head.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(_) => return ParseOutcome::Disconnected,
        }
    }
}

/// Offset of the byte after the `\r\n\r\n` (or lenient `\n\n`) head
/// terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Parse one complete head (`head[..head_end]`): the request line plus
/// a scan of the `Connection` header for the keep-alive disposition.
fn parse_head(head: &[u8], head_end: usize) -> ParseOutcome {
    let text = match std::str::from_utf8(head.get(..head_end).unwrap_or(head)) {
        Ok(t) => t,
        Err(_) => return ParseOutcome::Malformed("request head is not UTF-8"),
    };
    let Some(line) = text.lines().next() else {
        return ParseOutcome::Malformed("empty request head");
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Malformed("request line is not `METHOD TARGET VERSION`");
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return ParseOutcome::Malformed("request line is not HTTP/1.x");
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return ParseOutcome::Malformed("method is not an HTTP token");
    }
    if !target.starts_with('/') {
        return ParseOutcome::Malformed("request target must be origin-form (`/path`)");
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = Vec::new();
    for pair in query_text.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((k.to_string(), v.to_string()));
    }
    // Connection disposition: an explicit `close` wins, an explicit
    // `keep-alive` wins over the version default, and HTTP/1.0 closes
    // unless the client opted in.
    let connection = text.lines().skip(1).find_map(|header| {
        let (key, value) = header.split_once(':')?;
        key.trim()
            .eq_ignore_ascii_case("connection")
            .then(|| value.trim().to_ascii_lowercase())
    });
    let close_requested = match connection.as_deref() {
        Some(v) if v.contains("close") => true,
        Some(v) if v.contains("keep-alive") => false,
        _ => version == "HTTP/1.0",
    };
    ParseOutcome::Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        close_requested,
        body: Vec::new(),
    })
}

/// A response ready to serialize: status, media type, body, and the
/// optional `Retry-After` the admission controller attaches to `503`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds, sent only when present (admission `503`s).
    pub retry_after_secs: Option<u64>,
}

/// Whether a serialized response announces a reusable connection.
/// Threaded through [`serialize_response`] so the keep-alive path and
/// the admission-reject path share one serializer (the reject path
/// always closes; a kept-alive success announces `keep-alive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The connection stays open for further requests.
    KeepAlive,
    /// The connection closes after this response.
    Close,
}

impl Disposition {
    /// The `Connection` header value this disposition serializes as.
    pub fn header_value(self) -> &'static str {
        match self {
            Disposition::KeepAlive => "keep-alive",
            Disposition::Close => "close",
        }
    }
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after_secs: None,
        }
    }

    /// The canonical reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Serialize `resp` into wire bytes with an accurate `Content-Length`
/// and the given connection `disposition`. Every response path — handler
/// response, admission 503, parse 4xx — goes through this
/// one function so keep-alive and reject connections cannot disagree
/// about what was announced on the wire.
pub fn serialize_response(resp: &Response, disposition: Disposition) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len(),
        disposition.header_value(),
    );
    if let Some(secs) = resp.retry_after_secs {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

/// Write a serialized `resp` onto `stream` with the given connection
/// `disposition`. I/O errors bubble up so the caller can count the
/// disconnect; they are never fatal to the server.
pub fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    disposition: Disposition,
) -> std::io::Result<()> {
    stream.write_all(&serialize_response(resp, disposition))?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feed `bytes` through a real socket pair into the head reader.
    fn parse_bytes(bytes: &[u8], cap: usize) -> ParseOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(bytes).unwrap();
        drop(client); // close so a torn head sees EOF, not a stall
        let (mut server_side, _) = listener.accept().unwrap();
        read_request_head(&mut server_side, cap)
    }

    #[test]
    fn parses_path_and_query() {
        let out = parse_bytes(
            b"GET /artifacts/fig1?seed=7&atlas_scale=0.2 HTTP/1.1\r\nHost: x\r\n\r\n",
            8192,
        );
        let ParseOutcome::Ok(req) = out else {
            panic!("{out:?}");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/artifacts/fig1");
        assert_eq!(
            req.query,
            vec![
                ("seed".to_string(), "7".to_string()),
                ("atlas_scale".to_string(), "0.2".to_string())
            ]
        );
        assert!(!req.close_requested, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_disposition_follows_header_and_version() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nconnection: Keep-Alive\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nHost: x\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false),
        ];
        for (bytes, want_close) in cases {
            let out = parse_bytes(bytes, 8192);
            let ParseOutcome::Ok(req) = out else {
                panic!("{:?}: {out:?}", String::from_utf8_lossy(bytes));
            };
            assert_eq!(
                req.close_requested,
                *want_close,
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn scan_head_walks_pipelined_requests_one_at_a_time() {
        let mut buf: Vec<u8> =
            b"GET /first HTTP/1.1\r\nHost: x\r\n\r\nGET /second HTTP/1.1\r\nHost: x\r\n\r\n"
                .to_vec();
        let (outcome, consumed) = scan_head(&buf, 8192).expect("first head complete");
        let ParseOutcome::Ok(first) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(first.path, "/first");
        buf.drain(..consumed);
        let (outcome, consumed) = scan_head(&buf, 8192).expect("second head complete");
        let ParseOutcome::Ok(second) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(second.path, "/second");
        buf.drain(..consumed);
        assert!(buf.is_empty());
        assert!(scan_head(&buf, 8192).is_none(), "no third head");
        // A partial trailing head stays pending until its terminator.
        buf.extend_from_slice(b"GET /third HTT");
        assert!(scan_head(&buf, 8192).is_none());
        buf.extend_from_slice(b"P/1.1\r\n\r\n");
        let (outcome, _) = scan_head(&buf, 8192).expect("third head complete");
        assert!(matches!(outcome, ParseOutcome::Ok(req) if req.path == "/third"));
    }

    #[test]
    fn malformed_torn_and_oversized_heads_are_classified() {
        assert!(matches!(
            parse_bytes(b"BOGUS\r\n\r\n", 8192),
            ParseOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse_bytes(b"GET /x HTTP/1.1\r\nHost", 8192),
            ParseOutcome::Malformed(_)
        ));
        assert!(matches!(parse_bytes(b"", 8192), ParseOutcome::Disconnected));
        let huge = format!("GET /x HTTP/1.1\r\npad: {}\r\n\r\n", "y".repeat(512));
        assert!(matches!(
            parse_bytes(huge.as_bytes(), 64),
            ParseOutcome::TooLarge
        ));
        assert!(matches!(
            parse_bytes(b"GET relative-target HTTP/1.1\r\n\r\n", 8192),
            ParseOutcome::Malformed(_)
        ));
    }

    #[test]
    fn scan_request_reads_a_content_length_body() {
        let mut buf: Vec<u8> =
            b"POST /leases HTTP/1.1\r\nHost: x\r\ncontent-length: 11\r\n\r\npool=a&lt=4GET /x HTTP/1.1\r\n\r\n".to_vec();
        let (outcome, consumed) = scan_request(&buf, 8192, 1024).expect("complete");
        let ParseOutcome::Ok(req) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"pool=a&lt=4");
        buf.drain(..consumed);
        // The pipelined GET after the body parses cleanly with an
        // empty body.
        let (outcome, _) = scan_request(&buf, 8192, 1024).expect("pipelined");
        assert!(
            matches!(outcome, ParseOutcome::Ok(req) if req.path == "/x" && req.body.is_empty())
        );
    }

    #[test]
    fn scan_request_waits_for_a_torn_body() {
        // Head complete, body short by 5 bytes: pending, not malformed.
        let buf = b"POST /leases HTTP/1.1\r\ncontent-length: 10\r\n\r\npool=".to_vec();
        assert!(scan_request(&buf, 8192, 1024).is_none());
        // The missing bytes arriving completes the request.
        let mut full = buf;
        full.extend_from_slice(b"a&lt4");
        let (outcome, consumed) = scan_request(&full, 8192, 1024).expect("complete");
        assert!(matches!(outcome, ParseOutcome::Ok(req) if req.body == b"pool=a&lt4"));
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn scan_request_rejects_oversized_and_malformed_bodies() {
        // Declared length over the cap: 413 before the body arrives.
        let big = b"POST /leases HTTP/1.1\r\ncontent-length: 4096\r\n\r\n".to_vec();
        assert!(matches!(
            scan_request(&big, 8192, 1024),
            Some((ParseOutcome::TooLarge, _))
        ));
        // Unparseable length and chunked framing are malformed.
        let bad = b"POST /leases HTTP/1.1\r\ncontent-length: ten\r\n\r\n".to_vec();
        assert!(matches!(
            scan_request(&bad, 8192, 1024),
            Some((ParseOutcome::Malformed(_), _))
        ));
        let chunked =
            b"POST /leases HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec();
        assert!(matches!(
            scan_request(&chunked, 8192, 1024),
            Some((ParseOutcome::Malformed(_), _))
        ));
        // At the cap exactly is fine.
        let at_cap = b"POST /leases HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd".to_vec();
        let want = at_cap.len();
        assert!(matches!(
            scan_request(&at_cap, 8192, 4),
            Some((ParseOutcome::Ok(req), consumed)) if req.body == b"abcd" && consumed == want
        ));
    }

    #[test]
    fn response_serializes_with_length_disposition_and_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let mut resp = Response::text(503, "busy\n");
        resp.retry_after_secs = Some(2);
        write_response(&mut server_side, &resp, Disposition::Close).unwrap();
        drop(server_side);
        let mut got = String::new();
        std::io::Read::read_to_string(&mut client, &mut got).unwrap();
        assert!(
            got.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{got}"
        );
        assert!(got.contains("content-length: 5\r\n"));
        assert!(got.contains("connection: close\r\n"));
        assert!(got.contains("retry-after: 2\r\n"));
        assert!(got.ends_with("\r\n\r\nbusy\n"));
    }

    #[test]
    fn a_granted_lease_serializes_as_201_created() {
        let wire = serialize_response(&Response::text(201, "id=1\n"), Disposition::KeepAlive);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"), "{text}");
    }

    #[test]
    fn keep_alive_and_close_paths_share_one_serializer() {
        let resp = Response::text(200, "hello");
        let kept = String::from_utf8(serialize_response(&resp, Disposition::KeepAlive)).unwrap();
        let closed = String::from_utf8(serialize_response(&resp, Disposition::Close)).unwrap();
        assert!(kept.contains("connection: keep-alive\r\n"), "{kept}");
        assert!(kept.contains("content-length: 5\r\n"), "{kept}");
        assert!(closed.contains("connection: close\r\n"), "{closed}");
        // Identical except for the one connection header.
        assert_eq!(
            kept.replace("connection: keep-alive", "connection: close"),
            closed
        );
    }
}
