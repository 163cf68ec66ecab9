//! A deliberately small HTTP/1.1 subset, parsed incrementally: exactly
//! what the event-driven query server needs, nothing more.
//!
//! The parser is a feed-bytes/advance state machine in the VTE style —
//! it never reads from a socket and never waits. The event loop feeds
//! whatever bytes `read(2)` produced into [`RequestParser::feed`] and
//! asks [`RequestParser::next_request`] for complete requests; anything
//! short of a full request stays buffered inside the parser, so partial
//! reads never reach a worker. Because the buffer survives across
//! requests, pipelined requests arriving in one TCP segment come out
//! one by one, in order.
//!
//! Supported: request line + headers + `Content-Length` body, bounded
//! header and body sizes, `Connection: keep-alive`/`close` negotiation
//! (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close). Not supported,
//! by design: chunked transfer, TLS, multipart — the server answers
//! small JSON and plain-text documents on a trusted loopback/LAN
//! socket.

use patchdb_rt::json::Json;

/// Largest accepted header block; longer requests are answered `431`.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted body (diffs and C files are small); else `413`.
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string included verbatim.
    pub path: String,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

/// One framed request plus the client's connection intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParsedRequest {
    pub request: Request,
    /// Whether the client asked (or defaulted) to keep the connection
    /// open after this exchange.
    pub keep_alive: bool,
    /// A client-supplied `X-Patchdb-Trace-Id` header value, when present
    /// and well-formed (see [`valid_trace_id`]). `None` means the server
    /// derives a trace id from the admission-ordered request id.
    pub trace: Option<String>,
}

/// Longest accepted client-supplied trace id. Anything longer (or with
/// non-token characters) is ignored rather than echoed — a trace id
/// rides in response headers, the access log, and JSON documents, so it
/// must never carry framing or quoting characters.
pub(crate) const MAX_TRACE_ID_BYTES: usize = 64;

/// Whether a client-supplied trace id is safe to echo: 1–64 bytes of
/// ASCII alphanumerics plus `-`, `_`, `.`, `:`.
pub(crate) fn valid_trace_id(value: &str) -> bool {
    !value.is_empty()
        && value.len() <= MAX_TRACE_ID_BYTES
        && value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
}

/// A framing violation. The connection is answered and then closed —
/// after a framing error the byte stream can no longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// Header block over [`MAX_HEADER_BYTES`] — answer `431`.
    HeaderTooLarge,
    /// Declared body over [`MAX_BODY_BYTES`] — answer `413`.
    BodyTooLarge,
    /// Not parseable as HTTP — answer `400`.
    Malformed(&'static str),
}

impl FrameError {
    /// The canned response for this violation, in the standard error
    /// envelope.
    pub fn response(&self) -> Response {
        match self {
            FrameError::HeaderTooLarge => {
                Response::error(431, "header_too_large", "request header too large")
            }
            FrameError::BodyTooLarge => {
                Response::error(413, "body_too_large", "request body too large")
            }
            FrameError::Malformed(why) => {
                Response::error(400, "bad_request", format!("bad request: {why}"))
            }
        }
    }
}

/// The head of a request whose body has not fully arrived yet.
#[derive(Debug)]
struct PendingBody {
    /// Offset just past the header terminator in `buf`.
    header_end: usize,
    content_length: usize,
    method: String,
    path: String,
    keep_alive: bool,
    trace: Option<String>,
}

/// Incremental request framer. Feed bytes as they arrive, then drain
/// complete requests; see the module docs for the contract.
#[derive(Debug, Default)]
pub(crate) struct RequestParser {
    buf: Vec<u8>,
    /// Resume offset for the header-terminator scan, so a byte-at-a-time
    /// trickle costs O(n) total instead of O(n²).
    scanned: usize,
    pending: Option<PendingBody>,
    /// Set after a [`FrameError`]: the stream is desynchronized and no
    /// further bytes will be parsed.
    poisoned: bool,
}

impl RequestParser {
    /// Appends freshly read bytes to the frame buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// True while an incomplete request sits in the buffer — the signal
    /// that an EOF now is a mid-request hangup rather than a clean
    /// close between requests.
    pub fn has_partial(&self) -> bool {
        !self.poisoned && (!self.buf.is_empty() || self.pending.is_some())
    }

    /// Bytes currently buffered (partial request plus any pipelined
    /// follow-ups).
    #[cfg(test)]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to frame the next complete request out of the buffer.
    /// `Ok(None)` means "need more bytes". After an `Err` the parser is
    /// poisoned: the connection must answer and close.
    pub fn next_request(&mut self) -> Result<Option<ParsedRequest>, FrameError> {
        if self.poisoned {
            return Ok(None);
        }
        if self.pending.is_none() {
            let Some(header_end) = self.find_header_end() else {
                if self.buf.len() > MAX_HEADER_BYTES {
                    self.poisoned = true;
                    return Err(FrameError::HeaderTooLarge);
                }
                return Ok(None);
            };
            if header_end > MAX_HEADER_BYTES {
                self.poisoned = true;
                return Err(FrameError::HeaderTooLarge);
            }
            match parse_head(&self.buf[..header_end]) {
                Ok(mut head) => {
                    head.header_end = header_end;
                    self.pending = Some(head);
                }
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
        let pending = self.pending.as_ref().expect("pending head set above");
        let frame_len = pending.header_end + pending.content_length;
        if self.buf.len() < frame_len {
            return Ok(None);
        }
        let pending = self.pending.take().expect("pending head checked above");
        let body = self.buf[pending.header_end..frame_len].to_vec();
        self.buf.drain(..frame_len);
        self.scanned = 0;
        Ok(Some(ParsedRequest {
            request: Request { method: pending.method, path: pending.path, body },
            keep_alive: pending.keep_alive,
            trace: pending.trace,
        }))
    }

    /// Byte offset just past the *earliest* header terminator — either
    /// `\r\n\r\n` or a bare `\n\n`, whichever ends first — resuming from
    /// where the last scan left off. Earliest matters: preferring CRLF
    /// over the whole buffer would let a later CRLF-framed request
    /// swallow an LF-framed one pipelined ahead of it.
    fn find_header_end(&mut self) -> Option<usize> {
        let from = self.scanned.saturating_sub(3);
        let crlf = self.buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| from + p + 4);
        let lf = self.buf[from..]
            .windows(2)
            .position(|w| w == b"\n\n")
            .map(|p| from + p + 2);
        let found = match (crlf, lf) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if found.is_none() {
            self.scanned = self.buf.len();
        }
        found
    }
}

/// Parses a complete header block (request line + headers + blank line).
fn parse_head(head: &[u8]) -> Result<PendingBody, FrameError> {
    let head =
        std::str::from_utf8(head).map_err(|_| FrameError::Malformed("non-UTF-8 header"))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(FrameError::Malformed("bad request line"));
    };
    let version = parts.next().filter(|v| v.starts_with("HTTP/1."));
    let Some(version) = version else {
        return Err(FrameError::Malformed("not HTTP/1.x"));
    };

    let mut content_length = 0usize;
    // HTTP/1.1 keeps the connection open unless told otherwise;
    // HTTP/1.0 closes it unless told otherwise.
    let mut keep_alive = version != "HTTP/1.0";
    let mut trace = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| FrameError::Malformed("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("x-patchdb-trace-id") {
                // A malformed trace id is ignored, not rejected: tracing
                // is advisory and must never fail a request.
                let value = value.trim();
                if valid_trace_id(value) {
                    trace = Some(value.to_owned());
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(FrameError::BodyTooLarge);
    }
    Ok(PendingBody {
        header_end: 0, // caller fills in
        content_length,
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        keep_alive,
        trace,
    })
}

/// A response about to be written: status, media type, body, and the
/// optional `Retry-After` backpressure hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Seconds for a `Retry-After` header (`503` shedding responses).
    pub retry_after: Option<u32>,
    /// The `(code, message)` behind an error envelope, retained so
    /// [`Response::with_trace`] can re-render the body with a client's
    /// trace id without re-parsing JSON. `None` for success bodies.
    pub(crate) error_parts: Option<(String, String)>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
            error_parts: None,
        }
    }

    /// A Prometheus text-exposition response: plain text tagged with the
    /// exposition-format version so scrapers negotiate correctly.
    pub fn metrics(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
            retry_after: None,
            error_parts: None,
        }
    }

    /// A compact-JSON response.
    pub fn json(status: u16, json: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: (json.to_compact_string() + "\n").into_bytes(),
            retry_after: None,
            error_parts: None,
        }
    }

    /// The unified non-2xx error envelope shared by every endpoint:
    /// `{"error":{"code":...,"message":...}}`. `code` is a stable
    /// machine-readable slug — an HTTP reason slug (`not_found`,
    /// `overloaded`, ...) or a `patchdb::Error::code` tag when a
    /// library error caused the failure; `message` is human-readable
    /// detail.
    pub fn error(status: u16, code: &str, message: impl Into<String>) -> Response {
        let message = message.into();
        let mut r = Response::json(
            status,
            &Json::Obj(vec![(
                "error".into(),
                Json::Obj(vec![
                    ("code".into(), Json::Str(code.to_owned())),
                    ("message".into(), Json::Str(message.clone())),
                ]),
            )]),
        );
        r.error_parts = Some((code.to_owned(), message));
        r
    }

    /// Re-renders an error envelope with the client's trace id as a
    /// `trace_id` field: `{"error":{"code":...,"message":...,
    /// "trace_id":...}}`. Only applied when the client *supplied* the
    /// trace id — server-derived ids stay out of bodies so that the
    /// byte-determinism contract (identical bodies across transports,
    /// worker counts, and replays) holds for headerless clients. A
    /// success body is returned unchanged.
    pub fn with_trace(mut self, trace: &str) -> Response {
        if let Some((code, message)) = &self.error_parts {
            self.body = (Json::Obj(vec![(
                "error".into(),
                Json::Obj(vec![
                    ("code".into(), Json::Str(code.clone())),
                    ("message".into(), Json::Str(message.clone())),
                    ("trace_id".into(), Json::Str(trace.to_owned())),
                ]),
            )])
            .to_compact_string()
                + "\n")
                .into_bytes();
        }
        self
    }

    /// The `503` load-shedding response with its `Retry-After` hint.
    pub fn overloaded(retry_after_secs: u32) -> Response {
        let mut r = Response::error(503, "overloaded", "overloaded, retry later");
        r.retry_after = Some(retry_after_secs);
        r
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Renders the response head (status line through the blank line). The
/// body follows verbatim; only the `Connection` value varies between
/// keep-alive and close, so bodies and header shape are byte-identical
/// to the close-per-request protocol.
///
/// `ids` carries the admission-ordered request id and the trace id,
/// emitted as `X-Patchdb-Request-Id` / `X-Patchdb-Trace-Id`. Every
/// production path passes `Some` — even sheds and framing errors get an
/// id, so any response a client holds can be correlated with
/// `/debug/requests` and `/debug/trace/<id>`.
pub(crate) fn render_head(
    response: &Response,
    keep_alive: bool,
    ids: Option<(u64, &str)>,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some((id, trace)) = ids {
        head.push_str(&format!("X-Patchdb-Request-Id: {id}\r\n"));
        head.push_str(&format!("X-Patchdb-Trace-Id: {trace}\r\n"));
    }
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchdb_rt::check::{check, Gen};

    /// Feeds the whole input at once and pulls one request.
    fn parse(text: &str) -> Result<Option<ParsedRequest>, FrameError> {
        let mut p = RequestParser::default();
        p.feed(text.as_bytes());
        p.next_request()
    }

    fn request(text: &str) -> Request {
        parse(text).unwrap().expect("complete request").request
    }

    #[test]
    fn parses_get_without_body() {
        let r = request("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_exactly() {
        let mut p = RequestParser::default();
        p.feed(b"POST /v1/identify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhellotrailing-junk");
        let r = p.next_request().unwrap().unwrap().request;
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
        // The junk stays buffered as the (bad) start of the next frame.
        assert_eq!(p.buffered(), "trailing-junk".len());
        assert!(p.has_partial());
    }

    #[test]
    fn tolerates_bare_lf_separators() {
        let r = request("POST /x HTTP/1.1\nContent-Length: 2\n\nok");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn rejects_garbage_and_poisons_the_stream() {
        let mut p = RequestParser::default();
        p.feed(b"not http at all\r\n\r\n");
        assert!(matches!(p.next_request(), Err(FrameError::Malformed(_))));
        // Poisoned: further bytes are ignored, no request ever emerges.
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert!(matches!(p.next_request(), Ok(None)));
        assert!(!p.has_partial());

        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn incomplete_requests_stay_partial() {
        // Mid-header and mid-body cuts both report "need more bytes"
        // while flagging the partial — the event loop turns an EOF here
        // into a `read_failed` hangup classification.
        let mut p = RequestParser::default();
        p.feed(b"GET /healthz HT");
        assert!(matches!(p.next_request(), Ok(None)));
        assert!(p.has_partial());

        let mut p = RequestParser::default();
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort");
        assert!(matches!(p.next_request(), Ok(None)));
        assert!(p.has_partial());

        let empty = RequestParser::default();
        assert!(!empty.has_partial());
    }

    #[test]
    fn rejects_oversized_bodies_up_front() {
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&huge), Err(FrameError::BodyTooLarge)));
    }

    #[test]
    fn rejects_oversized_headers_with_431() {
        // Terminated but oversized header block.
        let mut big = String::from("GET / HTTP/1.1\r\n");
        while big.len() <= MAX_HEADER_BYTES {
            big.push_str("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        big.push_str("\r\n");
        assert!(matches!(parse(&big), Err(FrameError::HeaderTooLarge)));

        // Unterminated flood past the bound: same verdict, and the
        // response carries status 431.
        let mut p = RequestParser::default();
        p.feed(&vec![b'A'; MAX_HEADER_BYTES + 2]);
        let err = p.next_request().unwrap_err();
        assert_eq!(err, FrameError::HeaderTooLarge);
        assert_eq!(err.response().status, 431);
    }

    #[test]
    fn trickled_bytes_assemble_one_request() {
        // Byte-at-a-time delivery: no request until the very last byte.
        let wire = b"POST /v1/identify HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut p = RequestParser::default();
        for (i, b) in wire.iter().enumerate() {
            p.feed(&[*b]);
            let got = p.next_request().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "complete request after only {} bytes", i + 1);
            } else {
                let r = got.expect("final byte completes the request");
                assert_eq!(r.request.path, "/v1/identify");
                assert_eq!(r.request.body, b"body");
            }
        }
        assert!(!p.has_partial());
    }

    #[test]
    fn two_pipelined_requests_in_one_segment() {
        let mut p = RequestParser::default();
        p.feed(
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/identify HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        );
        let first = p.next_request().unwrap().unwrap();
        assert_eq!(first.request.path, "/healthz");
        assert!(first.keep_alive);
        let second = p.next_request().unwrap().unwrap();
        assert_eq!(second.request.path, "/v1/identify");
        assert_eq!(second.request.body, b"hi");
        assert!(matches!(p.next_request(), Ok(None)));
        assert!(!p.has_partial());
    }

    #[test]
    fn lf_framed_request_pipelined_ahead_of_crlf_request() {
        // Regression: the terminator scan used to prefer \r\n\r\n over
        // the entire buffer, so the later CRLF request's terminator won
        // and the LF request absorbed it as header lines — misframing
        // both requests and silently dropping the second.
        let mut p = RequestParser::default();
        p.feed(b"GET /first HTTP/1.1\n\nGET /second HTTP/1.1\r\n\r\n");
        let first = p.next_request().unwrap().expect("LF-framed request");
        assert_eq!(first.request.path, "/first");
        let second = p.next_request().unwrap().expect("CRLF-framed request");
        assert_eq!(second.request.path, "/second");
        assert!(matches!(p.next_request(), Ok(None)));
        assert!(!p.has_partial());
    }

    #[test]
    fn request_split_mid_header_resumes_cleanly() {
        let mut p = RequestParser::default();
        p.feed(b"GET /v1/stats HTTP/1.1\r\nAccep");
        assert!(matches!(p.next_request(), Ok(None)));
        p.feed(b"t: */*\r\nConnection: close\r\n\r\n");
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.request.path, "/v1/stats");
        assert!(!r.keep_alive);
    }

    #[test]
    fn connection_negotiation_follows_version_defaults() {
        let keep = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(keep.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!close.keep_alive);
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_keep =
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
        assert!(old_keep.keep_alive);
    }

    #[test]
    fn response_wire_format_round_trips() {
        let mut out = render_head(&Response::overloaded(1), false, None);
        out.extend_from_slice(&Response::overloaded(1).body);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"), "{text}");
        assert!(
            text.ends_with(
                "{\"error\":{\"code\":\"overloaded\",\"message\":\"overloaded, retry later\"}}\n"
            ),
            "{text}"
        );

        // Keep-alive only flips the Connection value, nothing else.
        let ka = String::from_utf8(render_head(&Response::text(200, "ok\n"), true, None)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"), "{ka}");
        let cl = String::from_utf8(render_head(&Response::text(200, "ok\n"), false, None)).unwrap();
        assert_eq!(
            ka.replace("Connection: keep-alive", "Connection: close"),
            cl,
            "head must differ only in the Connection value"
        );
    }

    #[test]
    fn reason_covers_431() {
        let r = Response::text(431, "x");
        let head = String::from_utf8(render_head(&r, false, None)).unwrap();
        assert!(head.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{head}");
    }

    #[test]
    fn ids_render_as_patchdb_headers_before_retry_after() {
        let head =
            String::from_utf8(render_head(&Response::overloaded(2), true, Some((7, "abc-1"))))
                .unwrap();
        assert!(
            head.contains(
                "Connection: keep-alive\r\nX-Patchdb-Request-Id: 7\r\n\
                 X-Patchdb-Trace-Id: abc-1\r\nRetry-After: 2\r\n"
            ),
            "{head}"
        );
    }

    #[test]
    fn trace_header_is_captured_when_valid_and_ignored_otherwise() {
        let with = parse("GET / HTTP/1.1\r\nX-Patchdb-Trace-Id: req_42.a:b\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(with.trace.as_deref(), Some("req_42.a:b"));
        // Case-insensitive header name, surrounding whitespace trimmed.
        let cased =
            parse("GET / HTTP/1.1\r\nx-patchdb-TRACE-id:  t1 \r\n\r\n").unwrap().unwrap();
        assert_eq!(cased.trace.as_deref(), Some("t1"));

        let none = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(none.trace, None);
        // Quoting/framing characters and oversized values are dropped,
        // never echoed.
        let bad = parse("GET / HTTP/1.1\r\nX-Patchdb-Trace-Id: a\"b\r\n\r\n").unwrap().unwrap();
        assert_eq!(bad.trace, None);
        let long = format!(
            "GET / HTTP/1.1\r\nX-Patchdb-Trace-Id: {}\r\n\r\n",
            "a".repeat(MAX_TRACE_ID_BYTES + 1)
        );
        assert_eq!(parse(&long).unwrap().unwrap().trace, None);
        assert!(valid_trace_id(&"a".repeat(MAX_TRACE_ID_BYTES)));
        assert!(!valid_trace_id(""));
    }

    #[test]
    fn with_trace_extends_error_envelopes_only() {
        let err = Response::error(404, "not_found", "no such path").with_trace("t-9");
        assert_eq!(
            String::from_utf8(err.body).unwrap(),
            "{\"error\":{\"code\":\"not_found\",\"message\":\"no such path\",\
             \"trace_id\":\"t-9\"}}\n"
        );
        let ok = Response::text(200, "ok\n").with_trace("t-9");
        assert_eq!(ok.body, b"ok\n", "success bodies never grow a trace id");
    }

    /// One generated request: its wire bytes and what the parser must
    /// make of them. Mixes LF and CRLF framing, bodies with and without
    /// `Content-Length`, and now and then an oversized header block or
    /// declared body.
    fn gen_request(g: &mut Gen) -> (Vec<u8>, Result<ParsedRequest, FrameError>) {
        let eol = *g.pick(&["\r\n", "\n"]);
        let method = *g.pick(&["GET", "POST", "HEAD"]);
        let path = format!("/{}", g.string_from(0, 12, "abz09/?=&-"));
        let http10 = g.bool();
        let mut head = format!("{method} {path} HTTP/1.{}{eol}", if http10 { 0 } else { 1 });
        let keep_alive = match g.usize_in(0, 2) {
            0 => !http10,
            1 => {
                head.push_str(&format!("Connection: close{eol}"));
                false
            }
            _ => {
                head.push_str(&format!("Connection: keep-alive{eol}"));
                true
            }
        };
        let trace = g.bool().then(|| g.string_from(1, 16, "abc123-_.:"));
        if let Some(t) = &trace {
            head.push_str(&format!("X-Patchdb-Trace-Id: {t}{eol}"));
        }
        // 0 = well-formed, 1 = oversized header block, 2 = oversized body.
        let oversize = g.weighted(&[14, 1, 1]);
        let body = if oversize == 0 && g.bool() {
            // Bodies may hold what looks like a header terminator.
            let body = g.string_from(0, 40, "ab\r\n{}");
            head.push_str(&format!("Content-Length: {}{eol}", body.len()));
            body
        } else {
            String::new()
        };
        let expected = match oversize {
            0 => Ok(ParsedRequest {
                request: Request { method: method.into(), path, body: body.clone().into() },
                keep_alive,
                trace,
            }),
            1 => {
                while head.len() <= MAX_HEADER_BYTES {
                    head.push_str(&format!("X-Pad: {}{eol}", "a".repeat(200)));
                }
                Err(FrameError::HeaderTooLarge)
            }
            _ => {
                head.push_str(&format!("Content-Length: {}{eol}", MAX_BODY_BYTES + 1));
                Err(FrameError::BodyTooLarge)
            }
        };
        head.push_str(eol);
        head.push_str(&body);
        (head.into_bytes(), expected)
    }

    type Outcomes = (Vec<Result<ParsedRequest, FrameError>>, bool);

    /// Feeds `stream` cut at the (sorted) offsets in `cuts`, draining
    /// every request each feed completes; returns what came out and the
    /// final `has_partial()`.
    fn drive(stream: &[u8], cuts: &[usize]) -> Outcomes {
        let mut p = RequestParser::default();
        let mut out = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain([stream.len()].iter()) {
            p.feed(&stream[start..end]);
            start = end;
            loop {
                match p.next_request() {
                    Ok(Some(r)) => out.push(Ok(r)),
                    Ok(None) => break,
                    Err(e) => {
                        out.push(Err(e));
                        break;
                    }
                }
            }
        }
        (out, p.has_partial())
    }

    /// How the framer splits a stream must never change what it frames:
    /// a pipelined stream of 1–4 requests (plus, now and then, the cut
    /// start of one more) fed whole, at generated cut points, and one
    /// byte at a time yields the same requests or `FrameError`s and the
    /// same final `has_partial()` — and fed whole, exactly the requests
    /// generated, up to the first framing error.
    #[test]
    fn framing_is_independent_of_how_the_stream_is_cut() {
        check("http_framing_cuts", 128, |g| {
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            for _ in 0..g.usize_in(1, 4) {
                let (wire, want) = gen_request(g);
                stream.extend_from_slice(&wire);
                if expected.last().is_none_or(Result::is_ok) {
                    expected.push(want);
                }
            }
            let tail = b"POST /tail HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
            let tail_len = if g.bool() { g.usize_in(1, tail.len()) } else { 0 };
            stream.extend_from_slice(&tail[..tail_len]);
            let errored = expected.last().is_some_and(Result::is_err);

            let whole = drive(&stream, &[]);
            assert_eq!(whole, (expected, !errored && tail_len > 0), "whole feed");

            let mut cuts = g.vec_with(1, 8, |g| g.usize_in(0, stream.len()));
            cuts.sort_unstable();
            assert_eq!(drive(&stream, &cuts), whole, "cut at {cuts:?}");
            let trickle: Vec<usize> = (1..stream.len()).collect();
            assert_eq!(drive(&stream, &trickle), whole, "1-byte trickle");
        });
    }
}
