//! A minimal, correct HTTP/1.1 request parser and response writer.
//!
//! Scope: exactly what a JSON API server needs. `Content-Length`-framed
//! bodies (no chunked transfer), case-insensitive header names, keep-alive
//! semantics per RFC 9112 (HTTP/1.1 defaults to persistent connections,
//! HTTP/1.0 to close), `Expect: 100-continue` acknowledgement, and hard
//! caps on head and body size so a misbehaving client cannot balloon
//! memory. Anything outside that scope is a clean `4xx`, never undefined
//! behavior.

use std::io::{self, Write};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Parse failure, mapped to a status code by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes are not a well-formed HTTP/1.x request (→ 400).
    Malformed(String),
    /// The request head exceeds [`MAX_HEAD_BYTES`] (→ 431/400).
    HeadTooLarge,
    /// The declared body exceeds the configured cap (→ 413).
    BodyTooLarge {
        /// The `Content-Length` the client declared.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Raw query string (without `?`), if any.
    pub query: Option<String>,
    /// Header (name, value) pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Finds the `\r\n\r\n` head terminator, scanning only from `from` —
/// callers pass the length of the previously scanned prefix (minus the 3
/// bytes a terminator could straddle), so a slow-trickle client costs
/// O(n) total instead of O(n²) rescans.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p + 4)
}

/// A fully parsed request head, pinned to its byte extent in the carry
/// buffer. Produced by [`parse_head`]; once [`body_complete`] says the
/// declared body has arrived, [`take_request`] consumes the bytes and
/// yields the [`Request`]. The split lets the event-driven core parse
/// incrementally as bytes trickle in — the head is parsed exactly once
/// no matter how the client fragments its writes.
#[derive(Debug, Clone)]
pub struct HeadInfo {
    /// Offset one past the `\r\n\r\n` terminator in the carry buffer.
    pub head_end: usize,
    /// Declared `Content-Length` (0 when absent), already ≤ the cap.
    pub content_length: usize,
    /// Whether the client sent `Expect: 100-continue`.
    pub expects_continue: bool,
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    keep_alive: bool,
}

/// Incremental head parse over the carry buffer. Returns `Ok(None)` when
/// the terminator has not arrived yet (read more and call again),
/// `Ok(Some(head))` once the head parsed cleanly, or the error to answer
/// with. `scanned` is the resumable scan cursor: the
/// caller keeps it across calls so a slow-trickle client costs O(n)
/// total instead of O(n²) rescans, and resets it to 0 for each new
/// request.
pub fn parse_head(
    buf: &[u8],
    scanned: &mut usize,
    max_body: usize,
) -> Result<Option<HeadInfo>, ParseError> {
    let Some(head_end) = find_head_end(buf, *scanned) else {
        *scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let http11 = version == "HTTP/1.1";

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    let content_length = match header("content-length") {
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed(format!("bad content-length {raw:?}")))?,
        None => 0,
    };
    if header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    if content_length > max_body {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => http11,
    };

    let expects_continue = header("expect")
        .map(|v| v.eq_ignore_ascii_case("100-continue"))
        .unwrap_or(false);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    Ok(Some(HeadInfo {
        head_end,
        content_length,
        expects_continue,
        method: method.to_string(),
        path,
        query,
        headers,
        keep_alive,
    }))
}

/// Whether the declared body has fully arrived in the carry buffer.
pub fn body_complete(buf: &[u8], head: &HeadInfo) -> bool {
    buf.len() >= head.head_end + head.content_length
}

/// Consumes exactly this request's bytes from the carry buffer; anything
/// beyond the declared body is the start of the next pipelined request
/// and stays buffered. Call only after [`body_complete`].
pub fn take_request(buf: &mut Vec<u8>, head: HeadInfo) -> Request {
    debug_assert!(body_complete(buf, &head));
    let body = buf[head.head_end..head.head_end + head.content_length].to_vec();
    buf.drain(..head.head_end + head.content_length);
    Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
        keep_alive: head.keep_alive,
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        308 => "Permanent Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The default machine-readable error code for a status, used when the
/// handler has no more specific one (engine errors map their own codes).
fn default_code(status: u16) -> &'static str {
    match status {
        400 => "bad-request",
        404 => "not-found",
        405 => "method-not-allowed",
        408 => "request-timeout",
        409 => "conflict",
        410 => "gone",
        413 => "payload-too-large",
        422 => "unprocessable",
        431 => "request-head-too-large",
        500 => "internal",
        503 => "overloaded",
        _ => "error",
    }
}

/// One response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body (JSON for every route this server exposes).
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers beyond the standard set.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// The standard typed error body with the status's default code:
    /// `{"error":{"code":"...","message":"...","retryable":false}}`.
    pub fn error(status: u16, message: &str) -> Response {
        // Only overload (503) and timeouts (408) are worth retrying
        // verbatim; every other failure needs a changed request.
        let retryable = matches!(status, 408 | 503);
        Response::error_coded(status, default_code(status), message, retryable)
    }

    /// The circuit breaker's fast rejection: a typed
    /// `{"error":{"code":"overloaded",...,"retryable":true}}` 503 carrying
    /// `Retry-After` (whole seconds, rounded up so a client never retries
    /// into a still-open breaker).
    pub fn overloaded(retry_after: std::time::Duration) -> Response {
        let secs = retry_after.as_secs() + u64::from(retry_after.subsec_nanos() > 0);
        let mut resp =
            Response::error_coded(503, "overloaded", "server is overloaded, retry later", true);
        resp.extra_headers
            .push(("retry-after".into(), secs.max(1).to_string()));
        resp
    }

    /// A typed error body with an explicit machine-readable `code` —
    /// stable kebab-case identifiers clients can switch on, independent
    /// of the human-readable message.
    pub fn error_coded(status: u16, code: &str, message: &str, retryable: bool) -> Response {
        Response::typed_error(status, code, None, message, retryable)
    }

    /// [`Response::error_coded`] plus a `field` naming the exact request
    /// input the client must fix (e.g. `transcript.selections[2]`) — the
    /// request-validation shape shared by `/v1/explore` and `/v1/advise`.
    pub fn error_field(
        status: u16,
        code: &str,
        field: &str,
        message: &str,
        retryable: bool,
    ) -> Response {
        Response::typed_error(status, code, Some(field), message, retryable)
    }

    fn typed_error(
        status: u16,
        code: &str,
        field: Option<&str>,
        message: &str,
        retryable: bool,
    ) -> Response {
        let body = serde_json::to_string(&serde_json::Value::Object(vec![(
            "error".to_string(),
            error_value(code, field, message, retryable),
        )]))
        .unwrap_or_else(|_| {
            "{\"error\":{\"code\":\"internal\",\"message\":\"\",\"retryable\":false}}".to_string()
        });
        Response::json(status, body)
    }
}

/// The inside of a typed error body, `{"code":…,"field":…,"message":…,
/// "retryable":…}` (`field` only when given). Streamed routes embed it in
/// NDJSON lines.
pub(crate) fn error_value(
    code: &str,
    field: Option<&str>,
    message: &str,
    retryable: bool,
) -> serde_json::Value {
    let mut fields = vec![("code".to_string(), serde_json::Value::Str(code.to_string()))];
    if let Some(field) = field {
        fields.push((
            "field".to_string(),
            serde_json::Value::Str(field.to_string()),
        ));
    }
    fields.push((
        "message".to_string(),
        serde_json::Value::Str(message.to_string()),
    ));
    fields.push(("retryable".to_string(), serde_json::Value::Bool(retryable)));
    serde_json::Value::Object(fields)
}

/// Writes `response` to `stream` with `Content-Length` framing and the
/// requested connection disposition.
pub fn write_response<W: Write>(
    stream: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Starts a `Transfer-Encoding: chunked` response: the streaming route's
/// framing, where the body length is unknown until the exploration ends.
/// Follow with any number of [`write_chunk`]s and one [`finish_chunks`].
/// Chunked framing is self-delimiting, but the stream route still closes
/// the connection afterwards, so the head says so.
pub fn write_chunked_head<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n",
        status,
        reason(status),
        content_type,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk (hex length, CRLF, payload, CRLF) and flushes it so
/// the client sees each path the moment the engine yields it. Empty
/// payloads are skipped — a zero-length chunk would terminate the body.
pub fn write_chunk<W: Write>(stream: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked body (the zero-length chunk, no trailers).
pub fn finish_chunks<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{ConnMachine, Step};

    /// Parses one request from a complete buffer.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, ParseError> {
        let mut carry = raw.to_vec();
        let head = parse_head(&carry, &mut 0, max_body)?.expect("complete head");
        assert!(body_complete(&carry, &head), "complete body");
        Ok(take_request(&mut carry, head))
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse(
            b"GET /metrics?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Trace: 7\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("verbose=1"));
        assert_eq!(req.header("x-trace"), Some("7"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_split_across_reads() {
        let mut carry = b"POST /explore HTTP/1.1\r\ncontent-length: 11\r\n\r\nhello".to_vec();
        let head = parse_head(&carry, &mut 0, 1024).unwrap().unwrap();
        assert!(!body_complete(&carry, &head), "half the body is missing");
        carry.extend_from_slice(b" world");
        assert!(body_complete(&carry, &head));
        let req = take_request(&mut carry, head);
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 0)
                .unwrap()
                .keep_alive
        );
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n", 0).unwrap().keep_alive);
        assert!(
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 0)
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad, 1024), Err(ParseError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_bodies_are_refused_before_reading_them() {
        match parse(b"POST / HTTP/1.1\r\ncontent-length: 4096\r\n\r\n", 64) {
            Err(ParseError::BodyTooLarge { declared, limit }) => {
                assert_eq!(declared, 4096);
                assert_eq!(limit, 64);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_heads_are_refused() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert!(matches!(
            parse_head(&raw, &mut 0, 0),
            Err(ParseError::HeadTooLarge)
        ));
    }

    #[test]
    fn expect_100_continue_is_acknowledged() {
        let raw = b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\nok";
        let head = parse_head(raw, &mut 0, 16).unwrap().unwrap();
        assert!(head.expects_continue);
        // Whether the interim response goes out (only when the body lags)
        // is the connection machine's call; either way the body parses.
        assert_eq!(parse(raw, 16).unwrap().body, b"ok");
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"a\":1}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::error(404, "no such route"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains(
            "{\"error\":{\"code\":\"not-found\",\"message\":\"no such route\",\"retryable\":false}}"
        ));
    }

    #[test]
    fn error_bodies_are_typed_with_stable_codes() {
        let resp = Response::error_coded(400, "invalid-cursor", "bad MAC", false);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"error\":{\"code\":\"invalid-cursor\",\"message\":\"bad MAC\",\"retryable\":false}}"
        );
        // Status-derived defaults: overload is retryable, client errors not.
        let shed = Response::error(503, "queue full");
        assert!(String::from_utf8(shed.body)
            .unwrap()
            .contains("\"code\":\"overloaded\",\"message\":\"queue full\",\"retryable\":true"));
        let bad = Response::error(422, "nope");
        assert!(String::from_utf8(bad.body)
            .unwrap()
            .contains("\"retryable\":false"));
    }

    #[test]
    fn field_errors_name_the_offending_input() {
        let resp = Response::error_field(
            400,
            "invalid-request",
            "transcript.selections[2]",
            "semester 2 elects ineligible courses",
            false,
        );
        assert_eq!(resp.status, 400);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"error\":{\"code\":\"invalid-request\",\"field\":\"transcript.selections[2]\",\
             \"message\":\"semester 2 elects ineligible courses\",\"retryable\":false}}"
        );
    }

    #[test]
    fn conflict_status_has_a_reason_and_code() {
        assert_eq!(reason(409), "Conflict");
        let resp = Response::error(409, "already there");
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"code\":\"conflict\""));
    }

    #[test]
    fn overloaded_rejection_carries_retry_after() {
        let resp = Response::overloaded(std::time::Duration::from_millis(1400));
        assert_eq!(resp.status, 503);
        // 1.4 s rounds *up*: retrying at 1 s would hit the open breaker.
        assert!(resp
            .extra_headers
            .contains(&("retry-after".to_string(), "2".to_string())));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"code\":\"overloaded\""), "{body}");
        assert!(body.contains("\"retryable\":true"), "{body}");
        // A sub-second open period still tells the client to wait ≥ 1 s.
        let resp = Response::overloaded(std::time::Duration::from_millis(80));
        assert!(resp
            .extra_headers
            .contains(&("retry-after".to_string(), "1".to_string())));
    }

    #[test]
    fn chunked_writer_frames_each_chunk_and_terminates() {
        let mut out = Vec::new();
        write_chunked_head(
            &mut out,
            200,
            "application/x-ndjson",
            &[("x-cache".into(), "bypass".into())],
        )
        .unwrap();
        write_chunk(&mut out, b"{\"path\":1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut out, b"{\"done\":true}\n").unwrap();
        finish_chunks(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(text.contains("x-cache: bypass\r\n"));
        assert!(!text.contains("content-length"));
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(
            body,
            "b\r\n{\"path\":1}\n\r\ne\r\n{\"done\":true}\n\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_segment() {
        // Two requests in one TCP segment — legal HTTP/1.1 pipelining. The
        // first parse consumes exactly its own bytes; the second parses
        // entirely from the carry buffer.
        let mut carry = b"POST /explore HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".to_vec();
        let head = parse_head(&carry, &mut 0, 1024).unwrap().unwrap();
        let first = take_request(&mut carry, head);
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"hello");
        assert!(!carry.is_empty(), "second request stays buffered");
        let head = parse_head(&carry, &mut 0, 1024).unwrap().unwrap();
        let second = take_request(&mut carry, head);
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
        assert!(carry.is_empty(), "nothing left over after the pair");
    }

    #[test]
    fn pipelined_partial_second_request_survives_in_the_carry_buffer() {
        let mut m = ConnMachine::new(0);
        let first = match m.on_bytes(b"GET /a HTTP/1.1\r\n\r\nGET /b HT") {
            Step::Dispatch(r) => r,
            other => panic!("expected dispatch, got {other:?}"),
        };
        assert_eq!(first.path, "/a");
        m.queue_reply(&Response::json(200, "{}"), true);
        m.consume_out(m.out_pending().len());
        assert!(matches!(m.on_out_drained(), Step::Wait));
        assert!(m.mid_request(), "`GET /b HT` stays buffered");
        // EOF with a partial head buffered is a truncation, not a clean close.
        match m.on_eof() {
            Step::Fail(resp) => assert_eq!(resp.status, 400),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_request_parses_with_resumed_scanning() {
        // The adversarial slow-trickle client the resumable head scan
        // exists for: one byte per read.
        let raw = b"POST /explore HTTP/1.1\r\nx-pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\ncontent-length: 3\r\n\r\nabc";
        let mut carry = Vec::new();
        let mut scanned = 0;
        let mut head = None;
        for &byte in raw {
            carry.push(byte);
            if head.is_none() {
                head = parse_head(&carry, &mut scanned, 64).unwrap();
            }
        }
        let head = head.expect("head parsed");
        assert!(body_complete(&carry, &head));
        let req = take_request(&mut carry, head);
        assert_eq!(req.path, "/explore");
        assert_eq!(req.body, b"abc");
        assert!(carry.is_empty());
    }
}
