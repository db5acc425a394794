//! The readiness-based event loop at the heart of the server.
//!
//! One thread owns every connection: a nonblocking listener plus epoll
//! (via [`crate::sys`]) drive per-connection [`ConnMachine`]s through
//! read → parse → dispatch → write, with the compute pool doing the
//! engine work and waking the loop through an eventfd when a response
//! is ready. An idle keep-alive connection costs one slab slot and its
//! buffers — a few hundred bytes — instead of a parked thread, which
//! is what moves the concurrency ceiling from "worker count" to
//! "file-descriptor limit".
//!
//! Division of labour:
//!
//! - **Event loop (this module):** accept + admission by connection
//!   count, socket reads, incremental parsing (via the machine),
//!   response/stream flushing as the socket drains, all timers (one
//!   [`TimerWheel`]), and every `connections-*` accounting decision.
//! - **Compute pool (`pool.rs`):** runs the routed handler. Buffered
//!   routes send one [`Completion::Reply`]; streaming routes write
//!   framed bytes through a bounded [`StreamWriter`] that blocks the
//!   worker only while the peer is demonstrably draining.
//! - **lib.rs:** supplies the [`Hooks`] — metrics placement, overload
//!   admission, chaos sites — so this module stays protocol-only.
//!
//! Dispatch is sequential per connection (reads pause while a request
//! is in flight), which is exactly the old thread-per-connection
//! ordering: pipelined requests answer in order, byte-identically.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};

use crate::conn::{ConnMachine, Stage, Step};
use crate::http::{Request, Response};
use crate::metrics::EventLoopGauges;
use crate::sys;
use crate::timer::TimerWheel;

/// Slab token of the listener (never a valid slot token).
const LISTENER: u64 = u64::MAX;
/// Slab token of the wakeup eventfd.
const WAKER: u64 = u64::MAX - 1;

/// How much of a stream the loop moves from the shared buffer into a
/// connection's output buffer per pump.
const PUMP_BYTES: usize = 64 * 1024;

/// How many stream refills one `flush_out` call may perform before it
/// must yield (re-queueing itself through the completion channel), so a
/// fast-draining peer cannot monopolize the event loop.
const PUMPS_PER_FLUSH: usize = 16;

/// The callbacks lib.rs plugs into the loop: metrics placement,
/// admission, and chaos sites. Keeping them opaque keeps this module
/// protocol-only.
pub(crate) struct Hooks {
    /// An admitted connection (sheds are not accepted connections).
    pub on_accept: Box<dyn Fn() + Send>,
    /// A complete request parsed (counted before routing, like the old
    /// core counted on `read_request` returning `Ok`).
    pub on_request: Box<dyn Fn() + Send>,
    /// Whether the compute queue has room for one more dispatch.
    pub can_dispatch: Box<dyn Fn() -> bool + Send>,
    /// A shed happened; returns the advertised `retry-after` seconds.
    pub on_shed: Box<dyn Fn() -> u64 + Send>,
    /// A buffered response is being delivered (status accounting).
    pub on_status: Box<dyn Fn(u16) + Send>,
    /// A connection was torn down mid-response (reset accounting).
    pub on_reset: Box<dyn Fn() + Send>,
    /// `ResetMidWrite` chaos site: `true` tears this response.
    pub chaos_tear: Box<dyn Fn() -> bool + Send>,
    /// `ConnectionStall` chaos site: `true` freezes this connection's
    /// writes (the peer "stops reading") until the stall reaper fires.
    pub chaos_stall: Box<dyn Fn() -> bool + Send>,
    /// Runs one request. Invoked on the event loop; implementations
    /// hand the work to the compute pool and return immediately. The
    /// [`Responder`] must eventually produce a completion (its `Drop`
    /// answers 500 as a backstop).
    pub handle: Box<dyn Fn(Request, Responder) + Send>,
}

/// Loop tuning, split from [`crate::ServerConfig`] so the event module
/// does not see unrelated knobs.
pub(crate) struct EventConfig {
    pub max_body: usize,
    /// Idle/stall window: how long a keep-alive connection may sit
    /// idle, a partial request may stall (→ 408), or a written
    /// response may make zero progress (→ reap) — PR 2's `keep_alive`
    /// knob, now enforced by the timer wheel.
    pub keep_alive: Duration,
    /// Hard cap on concurrently held connections; beyond it, accepts
    /// shed with the saturation 503.
    pub max_connections: usize,
    /// Byte cap of each stream's hand-off buffer (worker blocks while
    /// it is full and the peer is draining).
    pub stream_buffer: usize,
}

/// The eventfd doorbell workers ring to wake the loop. The fd closes
/// when the last clone drops, so a late `wake` after the loop exits
/// hits a dead (never reused) descriptor, not a stranger's.
pub(crate) struct Waker {
    fd: i32,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: sys::eventfd()?,
        })
    }

    pub fn wake(&self) {
        let _ = sys::eventfd_signal(self.fd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close(self.fd);
    }
}

/// What a worker sends back to the loop.
enum Completion {
    /// A buffered response for the request dispatched on `token`.
    Reply {
        token: u64,
        response: Box<Response>,
        keep: bool,
    },
    /// The handler chose to stream: relay `buf` as the socket drains.
    StreamOpen { token: u64, buf: Arc<StreamBuf> },
    /// New bytes are waiting in the stream buffer.
    StreamData { token: u64 },
    /// The stream producer finished (status already accounted on the
    /// worker, exactly where the old core accounted it).
    StreamEnd { token: u64 },
}

/// The per-dispatch reply channel handed to the handler. Consuming it
/// with [`Responder::respond`] delivers a buffered response; calling
/// [`Responder::stream`] switches the connection to streaming. An
/// unconsumed drop answers 500 so a lost job can never wedge a
/// connection in the dispatched stage.
pub(crate) struct Responder {
    token: u64,
    tx: Sender<Completion>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    consumed: bool,
    stream_buffer: usize,
}

impl Responder {
    fn send(&self, completion: Completion) {
        // A send after shutdown has nowhere to go; the loop already
        // closed every connection.
        let _ = self.tx.send(completion);
        self.waker.wake();
    }

    /// Delivers a buffered response; `keep` is the connection
    /// disposition after the flush.
    pub fn respond(mut self, response: Response, keep: bool) {
        self.consumed = true;
        self.send(Completion::Reply {
            token: self.token,
            response: Box::new(response),
            keep,
        });
    }

    /// Switches the connection to streaming and returns the writer the
    /// handler frames its chunked response into. The writer's drop (or
    /// [`StreamWriter::finish`]) ends the stream.
    pub fn stream(mut self) -> StreamWriter {
        self.consumed = true;
        let buf = Arc::new(StreamBuf::new(self.stream_buffer));
        self.send(Completion::StreamOpen {
            token: self.token,
            buf: Arc::clone(&buf),
        });
        StreamWriter {
            token: self.token,
            buf,
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
            stop: Arc::clone(&self.stop),
            finished: false,
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !self.consumed {
            // Backstop only — the dispatch path always consumes.
            let _ = self.tx.send(Completion::Reply {
                token: self.token,
                response: Box::new(Response::error(500, "internal error")),
                keep: false,
            });
            self.waker.wake();
        }
    }
}

/// The bounded hand-off buffer between a streaming worker and the
/// loop. The worker blocks while it is full — backpressure — and is
/// freed (with an error) the moment the loop closes the buffer, so a
/// stalled peer costs the worker at most one stall window, never
/// forever (strictly better than the old core, which parked a worker
/// on a stalled socket indefinitely).
pub(crate) struct StreamBuf {
    inner: parking_lot::Mutex<StreamInner>,
    cv: parking_lot::Condvar,
    cap: usize,
}

struct StreamInner {
    bytes: VecDeque<u8>,
    closed: bool,
}

impl StreamBuf {
    fn new(cap: usize) -> StreamBuf {
        StreamBuf {
            inner: parking_lot::Mutex::new(StreamInner {
                bytes: VecDeque::new(),
                closed: false,
            }),
            cv: parking_lot::Condvar::new(),
            cap: cap.max(4096),
        }
    }

    /// Worker side: append, blocking while the buffer is full. `stop`
    /// is the loop's shutdown flag — the bounded wait re-checks it so a
    /// worker can never stay blocked past teardown, even if the loop
    /// died before it saw this stream at all.
    fn push(&self, data: &[u8], stop: &AtomicBool) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let mut offset = 0;
        while offset < data.len() {
            if inner.closed || stop.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection closed mid-stream",
                ));
            }
            if inner.bytes.len() >= self.cap {
                self.cv.wait_for(&mut inner, Duration::from_millis(50));
                continue;
            }
            let room = self.cap - inner.bytes.len();
            let take = room.min(data.len() - offset);
            inner.bytes.extend(&data[offset..offset + take]);
            offset += take;
        }
        Ok(())
    }

    /// Loop side: move up to `max` bytes out, waking a blocked worker.
    fn take(&self, max: usize) -> Vec<u8> {
        let mut inner = self.inner.lock();
        let take = inner.bytes.len().min(max);
        let out: Vec<u8> = inner.bytes.drain(..take).collect();
        if take > 0 {
            self.cv.notify_all();
        }
        out
    }

    fn is_empty(&self) -> bool {
        self.inner.lock().bytes.is_empty()
    }

    /// Loop side: tear the buffer down, erroring out any blocked
    /// worker write.
    fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }
}

/// `io::Write` over a [`StreamBuf`]: what the streaming handlers (which
/// are generic over `Write`) see instead of a raw socket.
pub(crate) struct StreamWriter {
    token: u64,
    buf: Arc<StreamBuf>,
    tx: Sender<Completion>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    finished: bool,
}

impl StreamWriter {
    /// Marks the stream complete; the loop closes the connection once
    /// the buffered tail drains.
    pub fn finish(mut self) {
        self.end();
    }

    fn end(&mut self) {
        if !self.finished {
            self.finished = true;
            let _ = self.tx.send(Completion::StreamEnd { token: self.token });
            self.waker.wake();
        }
    }
}

impl Write for StreamWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.push(data, &self.stop)?;
        let _ = self.tx.send(Completion::StreamData { token: self.token });
        self.waker.wake();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // A worker panic unwinding through the writer still ends the
        // stream — the connection closes instead of hanging.
        self.end();
    }
}

/// Why a timer is armed on a connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Waiting for (more of) a request: fires the idle/408 semantics.
    Read,
    /// Owing the peer bytes: fires the write-stall reaper.
    Write,
    /// No deadline (a request is dispatched; the engine owns time).
    None,
}

struct Conn {
    sock: TcpStream,
    machine: ConnMachine,
    /// Current epoll interest mask (to skip redundant `EPOLL_CTL_MOD`s).
    interest: u32,
    /// Sequence of the connection's wheel entry: a fired entry with
    /// another sequence is not this connection's and is ignored.
    timer_seq: u64,
    timer_kind: TimerKind,
    /// The real deadline; the wheel entry, when it fires early, re-arms
    /// to it.
    deadline: Instant,
    /// The connection's entry is in the wheel. Re-arms while it is only
    /// move `deadline`, so the wheel holds at most one entry per
    /// connection however many requests it serves.
    timer_queued: bool,
    /// The streaming hand-off buffer, while a stream is in flight.
    stream: Option<Arc<StreamBuf>>,
    /// The stream producer finished; close once everything drains.
    stream_ended: bool,
    /// `ConnectionStall` chaos: pretend the peer stopped reading.
    stalled: bool,
    /// Stage currently reflected in the per-stage gauges.
    gauged: Stage,
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// A running event loop; [`EventLoop::shutdown`] tears it down and
/// joins the thread.
pub(crate) struct EventLoop {
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EventLoop {
    /// Spawns the loop thread over an already-bound listener.
    pub fn spawn(
        listener: TcpListener,
        config: EventConfig,
        hooks: Hooks,
        gauges: Arc<EventLoopGauges>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let epfd = sys::epoll_create()?;
        let waker = Arc::new(Waker::new().inspect_err(|_| sys::close(epfd))?);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::unbounded::<Completion>();

        let mut core = Core {
            epfd,
            listener,
            config,
            hooks,
            gauges,
            slots: Vec::new(),
            free: Vec::new(),
            held: 0,
            wheel: TimerWheel::new(Instant::now()),
            tx,
            rx,
            waker: Arc::clone(&waker),
            stop: Arc::clone(&stop),
        };
        sys::epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            core.listener.as_raw_fd(),
            sys::EPOLLIN,
            LISTENER,
        )
        .inspect_err(|_| sys::close(epfd))?;
        sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, waker.fd, sys::EPOLLIN, WAKER)
            .inspect_err(|_| sys::close(epfd))?;

        let thread = std::thread::Builder::new()
            .name("event-loop".into())
            .spawn(move || core.run())?;
        Ok(EventLoop {
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// Stops the loop: closes every connection (freeing any stream
    /// worker blocked on backpressure) and joins the thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Core {
    epfd: i32,
    listener: TcpListener,
    config: EventConfig,
    hooks: Hooks,
    gauges: Arc<EventLoopGauges>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    held: usize,
    wheel: TimerWheel,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

impl Core {
    fn run(&mut self) {
        let mut events = vec![sys::EpollEvent::default(); 1024];
        let mut fired: Vec<(u64, u64)> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout_ms = match self.wheel.poll_timeout(Instant::now()) {
                Some(d) => (d.as_millis() as i64).clamp(0, i32::MAX as i64) as i32,
                None => -1,
            };
            let n = match sys::epoll_wait(self.epfd, &mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.gauges.epoll_wakeups.fetch_add(1, Ordering::Relaxed);

            for ev in &events[..n] {
                let token = ev.token();
                let mask = ev.mask();
                match token {
                    LISTENER => self.accept_ready(),
                    WAKER => {
                        let _ = sys::eventfd_drain(self.waker.fd);
                    }
                    _ => {
                        if mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                            self.flush_out(token);
                        }
                        if mask & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                            self.read_ready(token);
                        }
                        if mask & (sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                            self.hangup(token);
                        }
                    }
                }
            }

            // Worker completions, whether or not the doorbell event made
            // this wakeup happen (a timer wakeup drains them for free).
            while let Ok(completion) = self.rx.try_recv() {
                self.on_completion(completion);
            }

            fired.clear();
            self.wheel.advance(Instant::now(), &mut fired);
            self.sync_wheel_gauge();
            for &(token, seq) in &fired {
                self.on_timer(token, seq);
            }
        }
        self.teardown();
    }

    /// Closes everything. Stream buffers close first so any worker
    /// blocked on backpressure errors out before the pool is joined
    /// (the bounded wait in `StreamBuf::push` covers the rest).
    fn teardown(&mut self) {
        for idx in 0..self.slots.len() {
            let gen = self.slots[idx].gen;
            if self.slots[idx].conn.is_some() {
                self.close(token_of(idx, gen), false);
            }
        }
        // Completions still in flight may carry stream buffers whose
        // workers are blocked on backpressure; close them too.
        while let Ok(completion) = self.rx.try_recv() {
            if let Completion::StreamOpen { buf, .. } = completion {
                buf.close();
            }
        }
        sys::close(self.epfd);
    }

    fn slot_of(&mut self, token: u64) -> Option<&mut Conn> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != gen {
            return None;
        }
        slot.conn.as_mut()
    }

    // ---- accept ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((sock, _peer)) => self.admit(sock),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The handshake died before we got to it: per-connection,
                // the next one may be fine.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Persistent accept failure (EMFILE/ENFILE under fd
                    // exhaustion): looping here would wedge the whole
                    // loop — no timers, no reads, no fds ever reclaimed.
                    // Back off briefly (the old acceptor thread's 10 ms)
                    // and return; the level-triggered listener re-reports
                    // readiness once we are back in `epoll_wait`, and
                    // in-flight closes reclaim descriptors meanwhile.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn admit(&mut self, sock: TcpStream) {
        if self.held >= self.config.max_connections {
            // Full house: the saturation 503, written synchronously on
            // the still-blocking socket (accepted fds do not inherit
            // O_NONBLOCK), exactly the old accept-queue shed.
            let retry_after = (self.hooks.on_shed)();
            shed(sock, retry_after);
            return;
        }
        let _ = sock.set_nodelay(true);
        if sock.set_nonblocking(true).is_err() {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let gen = self.slots[idx].gen;
        let token = token_of(idx, gen);
        let fd = sock.as_raw_fd();
        let conn = Conn {
            sock,
            machine: ConnMachine::new(self.config.max_body),
            interest: 0,
            timer_seq: 0,
            timer_kind: TimerKind::None,
            deadline: Instant::now(),
            timer_queued: false,
            stream: None,
            stream_ended: false,
            stalled: false,
            gauged: Stage::Idle,
        };
        if sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token).is_err() {
            // The slot was never occupied: hand the index back so it
            // cannot leak, and skip the accept accounting — this
            // connection was never held.
            self.free.push(idx);
            return;
        }
        (self.hooks.on_accept)();
        self.slots[idx].conn = Some(conn);
        self.held += 1;
        self.gauges.connections_held.fetch_add(1, Ordering::Relaxed);
        self.gauges.stage_idle.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.slot_of(token) {
            c.interest = sys::EPOLLIN;
        }
        self.arm_timer(token, TimerKind::Read);
    }

    // ---- gauges ----------------------------------------------------

    fn stage_gauge(&self, stage: Stage) -> &std::sync::atomic::AtomicU64 {
        match stage {
            Stage::Idle => &self.gauges.stage_idle,
            Stage::Reading => &self.gauges.stage_reading,
            Stage::Dispatched => &self.gauges.stage_dispatched,
            Stage::Writing => &self.gauges.stage_writing,
            Stage::Streaming | Stage::Closing => &self.gauges.stage_streaming,
        }
    }

    /// Reconciles the per-stage gauges with the machine's stage.
    fn sync_stage_gauge(&mut self, token: u64) {
        let Some(conn) = self.slot_of(token) else {
            return;
        };
        let now = conn.machine.stage();
        let was = conn.gauged;
        if now == was || now == Stage::Closing {
            return;
        }
        if let Some(c) = self.slot_of(token) {
            c.gauged = now;
        }
        self.stage_gauge(was).fetch_sub(1, Ordering::Relaxed);
        self.stage_gauge(now).fetch_add(1, Ordering::Relaxed);
    }

    // ---- timers ----------------------------------------------------

    /// Arms (or re-arms) the connection's single logical timer. While
    /// the connection's entry is still in the wheel only its kind and
    /// deadline change: deadlines only move forward, so the entry fires
    /// early and [`Core::on_timer`] re-inserts it at the live deadline.
    /// Disarming (`TimerKind::None`) keeps the entry too; it retires when
    /// it fires and finds no kind.
    fn arm_timer(&mut self, token: u64, kind: TimerKind) {
        let window = self.config.keep_alive;
        let Some(conn) = self.slot_of(token) else {
            return;
        };
        conn.timer_kind = kind;
        if kind == TimerKind::None {
            return;
        }
        conn.deadline = Instant::now() + window;
        if conn.timer_queued {
            return;
        }
        conn.timer_queued = true;
        conn.timer_seq += 1;
        let (deadline, seq) = (conn.deadline, conn.timer_seq);
        self.schedule(deadline, token, seq);
    }

    /// Inserts a wheel entry and publishes the wheel's size.
    fn schedule(&mut self, deadline: Instant, token: u64, seq: u64) {
        self.wheel.insert(deadline, token, seq);
        self.sync_wheel_gauge();
    }

    fn sync_wheel_gauge(&self) {
        self.gauges
            .timer_entries
            .store(self.wheel.len() as u64, Ordering::Relaxed);
    }

    /// Pushes the live deadline forward without touching the wheel (the
    /// fired entry re-arms itself to the real deadline — O(1) per unit
    /// of progress, one wheel entry per connection).
    fn feed_timer(&mut self, token: u64) {
        let window = self.config.keep_alive;
        if let Some(conn) = self.slot_of(token) {
            if conn.timer_kind != TimerKind::None {
                conn.deadline = Instant::now() + window;
            }
        }
    }

    fn on_timer(&mut self, token: u64, seq: u64) {
        let now = Instant::now();
        let window = self.config.keep_alive;
        let Some(conn) = self.slot_of(token) else {
            return; // closed (or reused) since the entry was inserted
        };
        if conn.timer_seq != seq {
            return; // not this connection's entry
        }
        conn.timer_queued = false;
        if conn.timer_kind == TimerKind::None {
            return; // disarmed: the entry retires
        }
        if now < conn.deadline {
            conn.timer_queued = true;
            let deadline = conn.deadline;
            self.schedule(deadline, token, seq);
            return;
        }
        match conn.timer_kind {
            TimerKind::Read => {
                let step = conn.machine.on_read_timeout();
                match step {
                    Step::Fail(resp) => {
                        self.gauges.reaped_408.fetch_add(1, Ordering::Relaxed);
                        self.deliver_reply(token, resp, false);
                    }
                    Step::CloseSilent => {
                        self.gauges.reaped_idle.fetch_add(1, Ordering::Relaxed);
                        self.close(token, false);
                    }
                    _ => {}
                }
            }
            TimerKind::Write => {
                let stream_pending = conn.stream.as_ref().map(|s| !s.is_empty()).unwrap_or(false);
                if conn.machine.wants_write() || stream_pending {
                    // Zero progress for a full window with bytes owed:
                    // the peer stopped reading. Reap — the close also
                    // frees any worker blocked on the stream buffer.
                    self.gauges.reaped_stalled.fetch_add(1, Ordering::Relaxed);
                    self.reset_close(token);
                } else {
                    // Nothing owed (the engine is between chunks): not
                    // a stall. Keep watching.
                    let deadline = now + window;
                    conn.deadline = deadline;
                    conn.timer_queued = true;
                    self.schedule(deadline, token, seq);
                }
            }
            TimerKind::None => {}
        }
    }

    // ---- socket readiness -----------------------------------------

    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.slot_of(token) else {
                return;
            };
            if !matches!(conn.machine.stage(), Stage::Idle | Stage::Reading) {
                return; // reads are paused past dispatch
            }
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    let step = conn.machine.on_eof();
                    self.on_step(token, step);
                    return;
                }
                Ok(n) => {
                    let step = conn.machine.on_bytes(&chunk[..n]);
                    self.feed_timer(token);
                    let keep_reading = matches!(step, Step::Wait);
                    self.on_step(token, step);
                    if !keep_reading {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.update_interest(token);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard read error: the old core's `Io(_)` arm —
                    // close silently.
                    self.close(token, false);
                    return;
                }
            }
        }
    }

    /// EPOLLHUP/EPOLLERR after the readiness handlers ran: epoll always
    /// reports these regardless of the interest mask, so a connection
    /// that is neither reading (Dispatched pauses reads) nor owed bytes
    /// never consumes the event — level-triggered epoll would redeliver
    /// it every `epoll_wait`, spinning the loop at 100% CPU until the
    /// worker's completion arrives. The peer is fully gone (HUP needs
    /// both halves down, ERR a pending socket error), so reap now; a
    /// late completion for the bumped generation is dropped harmlessly.
    fn hangup(&mut self, token: u64) {
        let Some(conn) = self.slot_of(token) else {
            return; // the readiness handlers already closed it
        };
        let reading = matches!(conn.machine.stage(), Stage::Idle | Stage::Reading);
        let writing = !conn.stalled
            && (conn.machine.wants_write() || conn.stream.as_ref().is_some_and(|s| !s.is_empty()));
        if !reading && !writing {
            self.reset_close(token);
        }
    }

    fn on_step(&mut self, token: u64, step: Step) {
        match step {
            Step::Wait => {
                self.sync_stage_gauge(token);
                self.update_interest(token);
            }
            Step::Dispatch(request) => self.dispatch(token, request),
            Step::Fail(response) => self.deliver_reply(token, response, false),
            Step::CloseSilent => self.close(token, false),
        }
    }

    // ---- dispatch --------------------------------------------------

    fn dispatch(&mut self, token: u64, request: Request) {
        self.sync_stage_gauge(token);
        // A request is in flight: reads pause, no deadline (the engine
        // owns time, exactly like the old core's blocking handler).
        self.arm_timer(token, TimerKind::None);
        self.update_interest(token);
        if (self.hooks.chaos_stall)() {
            if let Some(conn) = self.slot_of(token) {
                conn.stalled = true;
            }
        }
        if !(self.hooks.can_dispatch)() {
            // The compute queue is full: the same saturation 503 bytes
            // the accept-time shed writes, queued through the machine.
            // A shed request is parsed but never routed, so it does not
            // count toward `requests_total` (under the old model a shed
            // connection never had its request read at all).
            let retry_after = (self.hooks.on_shed)();
            if let Some(conn) = self.slot_of(token) {
                conn.machine.queue_raw_close(&shed_bytes(retry_after));
            }
            self.sync_stage_gauge(token);
            self.arm_timer(token, TimerKind::Write);
            self.flush_out(token);
            return;
        }
        (self.hooks.on_request)();
        let responder = Responder {
            token,
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
            stop: Arc::clone(&self.stop),
            consumed: false,
            stream_buffer: self.config.stream_buffer,
        };
        (self.hooks.handle)(request, responder);
    }

    // ---- completions ----------------------------------------------

    fn on_completion(&mut self, completion: Completion) {
        match completion {
            Completion::Reply {
                token,
                response,
                keep,
            } => {
                if self.slot_of(token).is_some() {
                    self.deliver_reply(token, *response, keep);
                }
            }
            Completion::StreamOpen { token, buf } => {
                let Some(conn) = self.slot_of(token) else {
                    // The connection died while the job sat queued;
                    // free the worker immediately.
                    buf.close();
                    return;
                };
                conn.machine.begin_stream();
                conn.stream = Some(buf);
                conn.stream_ended = false;
                self.sync_stage_gauge(token);
                self.arm_timer(token, TimerKind::Write);
                self.pump_stream(token);
            }
            Completion::StreamData { token } => self.pump_stream(token),
            Completion::StreamEnd { token } => {
                if let Some(conn) = self.slot_of(token) {
                    conn.stream_ended = true;
                }
                self.pump_stream(token);
            }
        }
    }

    /// Delivers one buffered response: status accounting, the
    /// `ResetMidWrite` chaos site, then the serialized bytes — the
    /// exact ordering of the old core's write path.
    fn deliver_reply(&mut self, token: u64, response: Response, keep: bool) {
        (self.hooks.on_status)(response.status);
        let torn = (self.hooks.chaos_tear)();
        let Some(conn) = self.slot_of(token) else {
            return;
        };
        if torn {
            // Part of the status line, then a hard close: the torn
            // response the chaos suite asserts on. The reset was
            // counted by the hook before the tear is observable.
            conn.machine.queue_raw_close(b"HTTP/1.1 ");
        } else {
            conn.machine.queue_reply(&response, keep);
        }
        self.sync_stage_gauge(token);
        self.arm_timer(token, TimerKind::Write);
        self.flush_out(token);
    }

    // ---- writing ---------------------------------------------------

    /// Moves buffered stream bytes into the connection's output buffer
    /// (only when it is empty — the hand-off buffer, not `out`, is the
    /// memory bound) and flushes.
    fn pump_stream(&mut self, token: u64) {
        let Some(conn) = self.slot_of(token) else {
            return;
        };
        if conn.machine.stage() != Stage::Streaming {
            return;
        }
        if !conn.machine.wants_write() {
            if let Some(stream) = conn.stream.as_ref().map(Arc::clone) {
                let bytes = stream.take(PUMP_BYTES);
                if !bytes.is_empty() {
                    if let Some(conn) = self.slot_of(token) {
                        conn.machine.append_out(&bytes);
                    }
                }
            }
        }
        self.flush_out(token);
    }

    fn flush_out(&mut self, token: u64) {
        // Fairness bound: a fast-draining peer fed by a worker keeping
        // the hand-off buffer full could otherwise hold the loop in
        // here indefinitely. After this many refills the stream is
        // re-queued behind every other ready connection via the
        // completion channel (see below) instead of pumped further.
        let mut pumps = PUMPS_PER_FLUSH;
        loop {
            let Some(conn) = self.slot_of(token) else {
                return;
            };
            if conn.stalled {
                // ConnectionStall chaos: the peer "stopped reading" —
                // pretend the socket never drains and let the stall
                // reaper do its job.
                return;
            }
            if conn.machine.wants_write() {
                // Disjoint borrows of the same `Conn`: the pending
                // slice is written straight from the machine's buffer,
                // no per-write copy (a large response draining through
                // small socket windows would otherwise pay O(n)
                // allocation per write — quadratic overall).
                let n = conn.sock.write(conn.machine.out_pending());
                match n {
                    Ok(0) => {
                        self.reset_close(token);
                        return;
                    }
                    Ok(n) => {
                        conn.machine.consume_out(n);
                        self.feed_timer(token);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.update_interest(token);
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Bytes were owed and the socket died: a reset,
                        // same as the old core's failed `write_response`.
                        self.reset_close(token);
                        return;
                    }
                }
                continue;
            }
            // Output drained. Streams refill from the hand-off buffer;
            // buffered replies end their cycle.
            match conn.machine.stage() {
                Stage::Streaming => {
                    let stream = conn.stream.as_ref().map(Arc::clone);
                    let ended = conn.stream_ended;
                    if let Some(stream) = stream {
                        if pumps == 0 {
                            // Budget spent: yield the loop. The
                            // self-sent completion (not epoll interest
                            // — nothing is *owed* the socket yet)
                            // guarantees another pump even when the
                            // producer already finished and will never
                            // ring the doorbell again.
                            let _ = self.tx.send(Completion::StreamData { token });
                            self.waker.wake();
                            return;
                        }
                        pumps -= 1;
                        let bytes = stream.take(PUMP_BYTES);
                        if !bytes.is_empty() {
                            if let Some(conn) = self.slot_of(token) {
                                conn.machine.append_out(&bytes);
                            }
                            // More to write: go around.
                            continue;
                        }
                        if ended {
                            // Producer done, buffers empty: the stream
                            // is fully on the wire.
                            self.close(token, false);
                            return;
                        }
                    }
                    self.update_interest(token);
                    return;
                }
                Stage::Writing => {
                    let step = conn.machine.on_out_drained();
                    match step {
                        Step::CloseSilent => self.close(token, false),
                        Step::Dispatch(request) => {
                            // The carry already held the next pipelined
                            // request in full.
                            self.sync_stage_gauge(token);
                            self.dispatch(token, request);
                        }
                        Step::Wait => {
                            // Keep-alive: back to waiting for the next
                            // request with a fresh idle window.
                            self.sync_stage_gauge(token);
                            self.arm_timer(token, TimerKind::Read);
                            self.update_interest(token);
                        }
                        Step::Fail(response) => self.deliver_reply(token, response, false),
                    }
                    return;
                }
                _ => {
                    self.update_interest(token);
                    return;
                }
            }
        }
    }

    // ---- interest & close -----------------------------------------

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.slot_of(token) else {
            return;
        };
        let stage = conn.machine.stage();
        let mut want = 0;
        if matches!(stage, Stage::Idle | Stage::Reading) {
            want |= sys::EPOLLIN;
        }
        if conn.machine.wants_write() && !conn.stalled {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            let fd = conn.sock.as_raw_fd();
            conn.interest = want;
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, want, token);
        }
    }

    fn reset_close(&mut self, token: u64) {
        (self.hooks.on_reset)();
        self.close(token, true);
    }

    /// Tears a connection down. `reset` is accounting-only (the caller
    /// already counted); either way the stream buffer closes so a
    /// blocked worker frees, the slot generation bumps, and the fd
    /// drops (closing it removes it from epoll).
    fn close(&mut self, token: u64, _reset: bool) {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if slot.gen != gen {
            return;
        }
        let Some(conn) = slot.conn.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.held -= 1;
        self.gauges.connections_held.fetch_sub(1, Ordering::Relaxed);
        self.stage_gauge(conn.gauged)
            .fetch_sub(1, Ordering::Relaxed);
        if let Some(stream) = &conn.stream {
            stream.close();
        }
        let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, conn.sock.as_raw_fd(), 0, 0);
        // `conn.sock` drops here, closing the fd.
    }
}

/// The saturation 503 payload, byte-identical to the old pool's shed.
fn shed_bytes(retry_after_secs: u64) -> Vec<u8> {
    let body = br#"{"error":"server saturated, retry later"}"#;
    let mut bytes = format!(
        "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nretry-after: {}\r\nconnection: close\r\n\r\n",
        body.len(),
        retry_after_secs.max(1),
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Writes the shed response synchronously on a still-blocking socket
/// and drops it — the accept-time rejection when the connection cap is
/// reached.
fn shed(mut sock: TcpStream, retry_after_secs: u64) {
    let _ = sock.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = sock.write_all(&shed_bytes(retry_after_secs));
}
