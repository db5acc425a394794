//! The per-connection staged state machine of the event-driven core.
//!
//! One [`ConnMachine`] owns everything the old thread-per-connection
//! loop kept on its stack: the carry buffer (pipelined bytes beyond the
//! current request), the resumable head-scan cursor, the pending output
//! buffer, and the keep-alive disposition. It is deliberately
//! **socket-free** — the event loop feeds it bytes/EOF/timeouts and
//! drains its output — so the whole protocol surface is testable (and
//! proptestable) without a kernel in the loop: delivering a request one
//! byte at a time must produce output byte-identical to delivering it
//! in one buffer.
//!
//! Stages move strictly forward within a request cycle:
//!
//! ```text
//!   Idle ──bytes──▶ Reading ──parsed──▶ Dispatched ──reply──▶ Writing
//!     ▲                │                     │                   │
//!     │                │ parse error         └──stream──▶ Streaming
//!     │                ▼                                        │
//!     │             Writing (error reply, then close)           │
//!     └──────── flushed & keep-alive ◀──────────────────────────┘
//!                              (otherwise ─▶ Closing)
//! ```
//!
//! The only backward edge is `Writing → Idle` at a flushed keep-alive
//! response — the start of the next cycle. [`ConnMachine::transitions`]
//! counts every stage change so tests can assert monotonicity.

use crate::http::{self, HeadInfo, ParseError, Request, Response};

/// Where a connection is in its request cycle. Ordering is the forward
/// direction of the cycle (used by the regression assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Between requests: no buffered input, nothing owed to the peer.
    Idle,
    /// A partial request (or a pipelined carry) is being accumulated.
    Reading,
    /// A full request was handed to the dispatcher; reads are paused.
    Dispatched,
    /// A buffered response is draining to the socket.
    Writing,
    /// A chunked stream is being relayed as the socket drains.
    Streaming,
    /// The connection is done; the loop tears it down.
    Closing,
}

/// What the event loop should do after feeding the machine.
#[derive(Debug)]
pub enum Step {
    /// Nothing actionable — wait for more readiness.
    Wait,
    /// A complete request is ready: run admission and dispatch it.
    Dispatch(Request),
    /// A protocol-level failure: deliver this response, then close.
    /// (Delivery goes through the same reply path as handler responses
    /// so status accounting and chaos sites apply uniformly.)
    Fail(Response),
    /// Close without writing anything (clean EOF / idle timeout).
    CloseSilent,
}

/// One connection's protocol state machine: buffered bytes in, staged
/// transitions and serialized responses out. Pure in-memory — the event
/// loop owns the socket and feeds/drains this machine, which is what
/// makes the proptest battery able to replay arbitrary byte splits.
pub struct ConnMachine {
    max_body: usize,
    stage: Stage,
    /// Bytes read but not yet consumed by a parsed request.
    carry: Vec<u8>,
    /// Resumable head-scan cursor into `carry` (O(n) trickle parsing).
    scanned: usize,
    /// Parsed head awaiting its body.
    head: Option<HeadInfo>,
    /// `100 Continue` already queued for the current request.
    continue_sent: bool,
    /// Serialized output not yet accepted by the socket.
    out: Vec<u8>,
    /// Consumed prefix of `out` (compacted opportunistically).
    out_pos: usize,
    /// Disposition once `out` drains: `true` returns to `Idle`.
    keep_after_flush: bool,
    /// Total stage transitions (monotonicity witness for tests).
    transitions: u64,
}

impl ConnMachine {
    /// A fresh machine in `Idle`, capping request bodies at `max_body`.
    pub fn new(max_body: usize) -> ConnMachine {
        ConnMachine {
            max_body,
            stage: Stage::Idle,
            carry: Vec::new(),
            scanned: 0,
            head: None,
            continue_sent: false,
            out: Vec::new(),
            out_pos: 0,
            keep_after_flush: false,
            transitions: 0,
        }
    }

    /// The current lifecycle stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Total stage transitions so far (monotonicity witness for tests).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Whether a partial request is buffered (the 408-vs-silent-close
    /// discriminator, exactly the old carry-buffer test).
    pub fn mid_request(&self) -> bool {
        !self.carry.is_empty() || self.head.is_some()
    }

    fn set_stage(&mut self, next: Stage) {
        if self.stage == next {
            return;
        }
        // The only legal backward edge is Writing → Idle (next cycle).
        debug_assert!(
            next > self.stage || (self.stage == Stage::Writing && next == Stage::Idle),
            "stage regression {:?} -> {next:?}",
            self.stage
        );
        self.stage = next;
        self.transitions += 1;
    }

    /// Feeds freshly read bytes and advances the parse.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Step {
        debug_assert!(
            matches!(self.stage, Stage::Idle | Stage::Reading),
            "bytes fed in {:?}",
            self.stage
        );
        self.carry.extend_from_slice(bytes);
        self.advance()
    }

    /// Drives the parser over whatever is buffered. Called after new
    /// bytes and after a flushed keep-alive response (the pipelined
    /// carry may already hold the next complete request).
    pub fn advance(&mut self) -> Step {
        if !matches!(self.stage, Stage::Idle | Stage::Reading) {
            return Step::Wait;
        }
        if self.carry.is_empty() && self.head.is_none() {
            return Step::Wait;
        }
        self.set_stage(Stage::Reading);

        if self.head.is_none() {
            match http::parse_head(&self.carry, &mut self.scanned, self.max_body) {
                Ok(Some(head)) => self.head = Some(head),
                Ok(None) => return Step::Wait,
                Err(e) => return self.fail(e),
            }
        }

        let head = self.head.as_ref().expect("head parsed above");
        if head.expects_continue
            && !self.continue_sent
            && head.content_length > self.carry.len() - head.head_end
        {
            // The interim response the blocking core wrote inline; here
            // it is queued and the loop flushes it while reads continue.
            self.continue_sent = true;
            self.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        if !http::body_complete(&self.carry, head) {
            return Step::Wait;
        }

        let head = self.head.take().expect("head parsed above");
        let request = http::take_request(&mut self.carry, head);
        self.scanned = 0;
        self.continue_sent = false;
        self.set_stage(Stage::Dispatched);
        Step::Dispatch(request)
    }

    /// Maps a parse failure to the error response that ends the
    /// connection.
    fn fail(&mut self, err: ParseError) -> Step {
        Step::Fail(match err {
            ParseError::Malformed(msg) => Response::error(400, &msg),
            ParseError::HeadTooLarge => Response::error(431, "request head too large"),
            ParseError::BodyTooLarge { declared, limit } => Response::error(
                413,
                &format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            ),
        })
    }

    /// The peer half-closed (read returned 0).
    pub fn on_eof(&mut self) -> Step {
        match self.stage {
            Stage::Idle => Step::CloseSilent,
            Stage::Reading => {
                if self.head.is_some() {
                    Step::Fail(Response::error(400, "truncated request body"))
                } else if self.carry.is_empty() {
                    Step::CloseSilent
                } else {
                    Step::Fail(Response::error(400, "truncated request head"))
                }
            }
            // Reads are paused in the later stages, so an EOF here means
            // the loop observed an error mask; just finish what is owed.
            _ => Step::Wait,
        }
    }

    /// The read deadline lapsed: silent close when idle between
    /// requests, `408` when a partial request is buffered (PR 2
    /// semantics, verbatim).
    pub fn on_read_timeout(&mut self) -> Step {
        match self.stage {
            Stage::Idle | Stage::Reading => {
                if self.mid_request() {
                    Step::Fail(Response::error(408, "timed out reading the request"))
                } else {
                    Step::CloseSilent
                }
            }
            _ => Step::Wait,
        }
    }

    /// Serializes a buffered response into the output buffer with the
    /// same framing the blocking core wrote. `keep` is the connection
    /// disposition after the flush.
    pub fn queue_reply(&mut self, response: &Response, keep: bool) {
        debug_assert!(
            matches!(self.stage, Stage::Reading | Stage::Dispatched),
            "reply queued in {:?}",
            self.stage
        );
        // Writing into a Vec cannot fail.
        let _ = http::write_response(&mut self.out, response, keep);
        self.keep_after_flush = keep;
        self.set_stage(Stage::Writing);
    }

    /// Queues pre-serialized bytes (a shed 503, a chaos-torn status
    /// line) followed by a close — the raw-byte escape hatch for
    /// responses that bypass [`Response`] framing on purpose.
    pub fn queue_raw_close(&mut self, bytes: &[u8]) {
        debug_assert!(
            matches!(self.stage, Stage::Reading | Stage::Dispatched),
            "raw bytes queued in {:?}",
            self.stage
        );
        self.out.extend_from_slice(bytes);
        self.keep_after_flush = false;
        self.set_stage(Stage::Writing);
    }

    /// Enters the streaming stage: output arrives incrementally via
    /// [`ConnMachine::append_out`] and the connection closes when the
    /// stream finishes (stream responses are `connection: close`).
    pub fn begin_stream(&mut self) {
        debug_assert_eq!(self.stage, Stage::Dispatched);
        self.keep_after_flush = false;
        self.set_stage(Stage::Streaming);
    }

    /// Appends already-framed stream bytes (head/chunks) to the output.
    pub fn append_out(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.stage, Stage::Streaming);
        self.out.extend_from_slice(bytes);
    }

    /// The unkicked tail of the output buffer.
    pub fn out_pending(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// Marks `n` output bytes accepted by the socket, compacting once
    /// the buffer fully drains.
    pub fn consume_out(&mut self, n: usize) {
        self.out_pos += n;
        debug_assert!(self.out_pos <= self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            // Keep a long-lived slow drain from pinning the whole
            // serialized response.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Whether the machine owes the peer bytes.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// A flushed output buffer ends the cycle: keep-alive connections
    /// return to `Idle` and immediately re-advance (the carry may hold
    /// the next pipelined request); everything else closes.
    pub fn on_out_drained(&mut self) -> Step {
        debug_assert!(!self.wants_write());
        match self.stage {
            Stage::Writing => {
                if self.keep_after_flush {
                    self.set_stage(Stage::Idle);
                    self.advance()
                } else {
                    self.set_stage(Stage::Closing);
                    Step::CloseSilent
                }
            }
            Stage::Streaming => Step::Wait,
            _ => Step::Wait,
        }
    }

    /// Terminal transition, idempotent.
    pub fn close(&mut self) {
        if self.stage != Stage::Closing {
            self.set_stage(Stage::Closing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut ConnMachine) -> Vec<u8> {
        let bytes = m.out_pending().to_vec();
        let n = bytes.len();
        m.consume_out(n);
        bytes
    }

    /// Runs one request through the machine, delivering `raw` in chunks
    /// of `step` bytes, and returns the serialized response bytes.
    fn run_once(raw: &[u8], step: usize, response: &Response, keep: bool) -> Vec<u8> {
        let mut m = ConnMachine::new(1024);
        let mut request = None;
        for chunk in raw.chunks(step.max(1)) {
            match m.on_bytes(chunk) {
                Step::Dispatch(r) => {
                    assert!(request.is_none(), "one dispatch per request");
                    request = Some(r);
                }
                Step::Wait => {}
                other => panic!("unexpected step {other:?}"),
            }
        }
        let request = request.expect("request dispatched");
        m.queue_reply(response, keep && request.keep_alive);
        drain(&mut m)
    }

    #[test]
    fn drip_fed_requests_produce_byte_identical_responses() {
        let raw = b"POST /v1/explore HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\r\nbody";
        let resp = Response::json(200, "{\"ok\":true}");
        let whole = run_once(raw, raw.len(), &resp, true);
        for step in [1, 2, 3, 7] {
            assert_eq!(run_once(raw, step, &resp, true), whole, "step {step}");
        }
        let text = String::from_utf8(whole).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn pipelined_carry_dispatches_after_the_flush_without_new_bytes() {
        let mut m = ConnMachine::new(1024);
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let first = match m.on_bytes(raw) {
            Step::Dispatch(r) => r,
            other => panic!("expected dispatch, got {other:?}"),
        };
        assert_eq!(first.path, "/a");
        assert_eq!(m.stage(), Stage::Dispatched);

        m.queue_reply(&Response::json(200, "{}"), true);
        drain(&mut m);
        // The flush ends cycle 1; the carry already holds request 2.
        let second = match m.on_out_drained() {
            Step::Dispatch(r) => r,
            other => panic!("expected pipelined dispatch, got {other:?}"),
        };
        assert_eq!(second.path, "/b");
    }

    #[test]
    fn read_timeout_is_silent_when_idle_and_408_mid_request() {
        let mut m = ConnMachine::new(1024);
        assert!(matches!(m.on_read_timeout(), Step::CloseSilent));

        let mut m = ConnMachine::new(1024);
        assert!(matches!(m.on_bytes(b"GET /healthz HT"), Step::Wait));
        match m.on_read_timeout() {
            Step::Fail(resp) => assert_eq!(resp.status, 408),
            other => panic!("expected 408, got {other:?}"),
        }
    }

    #[test]
    fn eof_maps_to_silent_close_or_truncation_like_the_blocking_core() {
        let mut m = ConnMachine::new(1024);
        assert!(matches!(m.on_eof(), Step::CloseSilent));

        let mut m = ConnMachine::new(1024);
        m.on_bytes(b"GET / HT");
        match m.on_eof() {
            Step::Fail(resp) => {
                assert_eq!(resp.status, 400);
                assert!(String::from_utf8(resp.body)
                    .unwrap()
                    .contains("truncated request head"));
            }
            other => panic!("{other:?}"),
        }

        let mut m = ConnMachine::new(1024);
        m.on_bytes(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\nhal");
        match m.on_eof() {
            Step::Fail(resp) => {
                assert!(String::from_utf8(resp.body)
                    .unwrap()
                    .contains("truncated request body"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expect_100_continue_is_queued_once_and_only_when_the_body_lags() {
        let mut m = ConnMachine::new(64);
        let head = b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n";
        assert!(matches!(m.on_bytes(head), Step::Wait));
        assert_eq!(m.out_pending(), b"HTTP/1.1 100 Continue\r\n\r\n");
        // More waiting does not duplicate the interim response.
        assert!(matches!(m.advance(), Step::Wait));
        assert_eq!(m.out_pending(), b"HTTP/1.1 100 Continue\r\n\r\n");
        assert!(matches!(m.on_bytes(b"ok"), Step::Dispatch(_)));

        // Body already buffered: no interim response at all.
        let mut m = ConnMachine::new(64);
        let mut whole = head.to_vec();
        whole.extend_from_slice(b"ok");
        assert!(matches!(m.on_bytes(&whole), Step::Dispatch(_)));
        assert!(m.out_pending().is_empty());
    }

    #[test]
    fn parse_failures_map_to_the_blocking_cores_statuses() {
        let cases: [(&[u8], u16); 3] = [
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\ncontent-length: 4096\r\n\r\n", 413),
            (b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            let mut m = ConnMachine::new(64);
            match m.on_bytes(raw) {
                Step::Fail(resp) => assert_eq!(resp.status, status, "{raw:?}"),
                other => panic!("expected Fail for {raw:?}, got {other:?}"),
            }
        }
        let mut m = ConnMachine::new(64);
        let mut huge = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        huge.extend(std::iter::repeat_n(b'a', http::MAX_HEAD_BYTES + 8));
        match m.on_bytes(&huge) {
            Step::Fail(resp) => assert_eq!(resp.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn stages_never_regress_within_a_cycle() {
        let mut m = ConnMachine::new(1024);
        let mut last = (0u64, m.stage());
        let mut check = |m: &ConnMachine| {
            let now = (m.transitions(), m.stage());
            // Transitions strictly increase on every stage change, and
            // within a cycle the stage ordering is monotone.
            assert!(now.0 >= last.0, "transitions went backward");
            last = now;
        };
        m.on_bytes(b"GET / HTTP/1.1\r\n");
        check(&m);
        m.on_bytes(b"\r\n");
        check(&m);
        assert_eq!(m.stage(), Stage::Dispatched);
        m.queue_reply(&Response::json(200, "{}"), true);
        check(&m);
        assert_eq!(m.stage(), Stage::Writing);
        let n = m.out_pending().len();
        m.consume_out(n);
        m.on_out_drained();
        check(&m);
        assert_eq!(m.stage(), Stage::Idle, "keep-alive returns to Idle");
    }
}
