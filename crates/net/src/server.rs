//! [`PlanServer`]: the planning service behind a hardened TCP front end.
//!
//! One event-loop thread owns the listener and every connection,
//! nonblocking throughout — accept, read, frame decode, write and the idle
//! reaper all run in a single loop that blocks in `poll(2)` (the crate's
//! private `poll` module) until a socket is ready, a timer is due, or
//! another thread wakes it; no peer can block another by stalling, and an idle
//! server does not run at all. The loop submits each decoded request
//! straight into the [`PlanningService`]'s admission queue with a
//! completion hook ([`PlanningService::try_submit_with`]); the planning
//! worker that finishes the request runs the hook, which renders and
//! encodes the reply, posts it to the loop's outbox and wakes the loop to
//! write it. A request crosses two threads — loop to worker, worker back to
//! loop — and no thread ever blocks waiting on one. The service's own
//! bounded queue is the backpressure point: when admission is full the
//! loop answers `Overloaded` at once instead of buffering without bound.
//!
//! How the loop waits, since a missed wake-up is a hang and a spurious one
//! a hot core:
//!
//! * **The poll set** is rebuilt every pass: the waker, the listener
//!   (unless draining or backing off a failed `accept`), and each
//!   connection with `POLLIN` while the server still wants its bytes and
//!   `POLLOUT` only while output is pending. After the wait the loop acts
//!   only on what was reported — it accepts only a readable listener and
//!   reads only readable connections.
//! * **The waker** is how other threads end the wait: a completion hook
//!   after posting a reply to an empty outbox, `shutdown` after setting
//!   the stop flag. The loop drains it *before* collecting what they
//!   published, so a wake that races the drain is either seen or still
//!   pending.
//! * **The timeout** is the nearest real timer — the earliest idle
//!   deadline among connections with nothing in flight, the oldest
//!   unanswered request's `ticket_timeout`, the drain deadline, an accept
//!   back-off — or none, so there is no cadence to tune.
//! * **Level-triggered readiness must not spin.** A connection past peer
//!   EOF, or one that drew a protocol error, is never read again (its
//!   `POLLIN` would stay set forever; after a framing error its bytes mean
//!   nothing); it lives on only to flush replies still owed. Output the
//!   socket will not take waits on `POLLOUT`. An `accept` that fails for
//!   want of descriptors parks the listener until a connection closes or
//!   `ACCEPT_BACKOFF` passes.
//!
//! Robustness decisions worth naming:
//!
//! * **Deadline anchoring.** The wire carries a relative `deadline_ms`
//!   budget (clients don't share our clock); the server anchors it at
//!   decode time. Everything after — the planning service's admission
//!   queue above all — counts against the budget, and the planning workers
//!   answer expired requests from the ladder's zero-evaluation rung.
//! * **The ticket timeout is the loop's.** A request still unanswered
//!   [`NetConfig::ticket_timeout`] after its decode is answered
//!   `WaitTimeout` by the event loop itself, and its completion, should it
//!   ever come, is dropped: one wedged plan cannot hold a connection, and
//!   no thread waits for it.
//! * **Reply-ring idempotence.** The last [`NetConfig::reply_ring`]
//!   successfully encoded replies are kept by request id *and* content
//!   fingerprint. A client retry of an answered request — including on a
//!   *new* connection after the original died mid-reply — is served from
//!   the ring without re-planning, while an unrelated client that happens
//!   to reuse an id never sees another request's reply. Error replies are
//!   never cached: a retry after `WaitTimeout` deserves a fresh attempt.
//! * **Graceful drain.** Shutdown stops accepting, answers `Draining` to
//!   new requests, lets in-flight requests finish (bounded by
//!   [`NetConfig::drain_timeout`]), flushes the cache-bank checkpoint so a
//!   restarted server plans warm, then closes every connection and joins
//!   the event loop — the server's only thread, so the bound holds. A
//!   request still queued in the service past the bound is planned by the
//!   service, which outlives the server, and its reply is dropped.
//! * **The reaper spares working connections, not half-open ones.** Idle
//!   is "no in-flight request and no socket activity" for
//!   [`NetConfig::idle_timeout`]; a connection waiting on a slow plan is
//!   not idle, but one holding a half-received frame (slow loris, peer
//!   crash without FIN) or ignoring its replies *is* — it gets a
//!   best-effort [`ErrorCode::Torn`] frame if it left a partial frame
//!   behind, then the slot back.
//! * **Output is bounded too.** A peer that pipelines requests but never
//!   reads accumulates at most [`NetConfig::output_cap`] bytes of replies;
//!   past the cap the connection is shed
//!   (`raqo_net_shed_total{reason="slow_reader"}`) instead of growing the
//!   buffer without bound.
//!
//! Fault-injection sites (`raqo_faults::site`, live with the `faults`
//! feature):
//! * `net.accept` — just after a connection is accepted;
//! * `net.read`  — once per readable event on a connection (poll reported
//!   bytes, EOF or an error), before the socket is drained;
//! * `net.write` — once per flush attempt, i.e. on a pass that finds a
//!   connection with pending output, before the first `write`;
//! * `net.frame` — after such a read, if any bytes are buffered, before
//!   they are decoded into frames.
//!
//! Hit counts therefore follow traffic (about one `net.read` and one
//! `net.frame` per request segment, one `net.write` per reply burst), not
//! time: an idle connection hits nothing. `Fail` at a site models a hard
//! transport fault (reset / torn stream); `Nan` models garbage on the wire
//! (a corrupted byte); `Delay` stalls the event loop mid-operation; `Panic`
//! is recovered by the chaos harness.

use crate::frame::{
    self, Decoded, ErrorCode, ErrorFrame, Frame, ReplyFrame, RequestFrame, FLAG_DEADLINE_EXPIRED,
    FLAG_SHED,
};
use crate::poll::{self, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use raqo_core::service::{PlanRequest, PlanningService, ServiceReply};
use raqo_faults::Action;
use raqo_telemetry::{Counter, Telemetry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::c_short;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the listener stays out of the poll set after `accept` failed
/// for a reason other than an empty backlog (`EMFILE`/`ENFILE`: the
/// backlog is still there, so level-triggered readiness would re-fire at
/// once). A connection closing ends the back-off early.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Wire front-end knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Live connections before accept-time shedding (`conn_cap`).
    pub max_connections: usize,
    /// Frame body cap; larger length prefixes are rejected unbuffered.
    pub max_body: usize,
    /// Cap on unflushed reply bytes buffered per connection. A peer that
    /// stops reading its socket is disconnected once its output backlog
    /// would pass this, rather than buffering without bound.
    pub output_cap: usize,
    /// Reap connections with no activity and no in-flight work after this.
    pub idle_timeout: Duration,
    /// How long after its decode a request may go unanswered before the
    /// event loop answers it with a `WaitTimeout` error frame — one wedged
    /// plan must not hold a connection forever.
    pub ticket_timeout: Duration,
    /// Recently answered request ids kept for retry dedup (0: no ring).
    pub reply_ring: usize,
    /// Bound on waiting for in-flight work during graceful drain.
    pub drain_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            max_body: frame::DEFAULT_MAX_BODY,
            output_cap: 4 * frame::DEFAULT_MAX_BODY,
            idle_timeout: Duration::from_secs(30),
            ticket_timeout: Duration::from_secs(30),
            reply_ring: 128,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// An encoded reply on its way back to the event loop, tagged with the
/// submission it answers.
struct Completion {
    seq: u64,
    bytes: Vec<u8>,
}

/// Where completion hooks post replies for the event loop. The hooks hold
/// this and nothing else of the server, so a request still queued in the
/// service after the server has gone keeps only this alive.
struct Outbox {
    done: Mutex<Vec<Completion>>,
    /// Ends the event loop's wait: after a post to an empty `done`, after
    /// `stop` is set.
    waker: Waker,
    telemetry: Telemetry,
}

impl Outbox {
    /// The completion hook, run on the planning worker: render the plan,
    /// encode the reply frame, post it and wake the loop. A post to an
    /// outbox that is not empty needs no wake — the post that made it
    /// non-empty woke the loop, which has not collected since.
    fn post(&self, seq: u64, request_id: u64, reply: ServiceReply) {
        if reply.deadline_expired {
            self.telemetry.inc(Counter::NetShedDeadline);
        }
        let mut flags = 0u8;
        if reply.shed {
            flags |= FLAG_SHED;
        }
        if reply.deadline_expired {
            flags |= FLAG_DEADLINE_EXPIRED;
        }
        let plan_json = serde_json::to_string(&reply.plan).unwrap_or_else(|_| "null".to_string());
        let bytes = ReplyFrame {
            request_id,
            trace_id: reply.trace_id,
            flags,
            queue_wait_us: reply.queue_wait_us,
            service_us: reply.service_us,
            plan_json,
        }
        .encode();
        let first = {
            let mut done = lock(&self.done);
            done.push(Completion { seq, bytes });
            done.len() == 1
        };
        if first {
            self.waker.wake();
        }
    }
}

struct NetShared {
    service: Arc<PlanningService>,
    telemetry: Telemetry,
    config: NetConfig,
    /// Graceful-drain request (set by shutdown/Drop).
    stop: AtomicBool,
    outbox: Arc<Outbox>,
    /// Requests submitted to the service and not yet answered — the drain
    /// barrier, mirrored from the event loop's [`Tickets`].
    in_flight: AtomicUsize,
    live_connections: AtomicUsize,
    /// Event-loop passes, i.e. returns from the readiness wait.
    wakeups: AtomicU64,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    // Completion hooks push from planning workers, which a panic fault
    // (chaos suite) may unwind; the outbox is structurally valid after any
    // single push or take.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The wire front end. Dropping (or [`shutdown`](PlanServer::shutdown))
/// drains gracefully; the underlying [`PlanningService`] is shared and
/// survives the server.
pub struct PlanServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    event: Option<std::thread::JoinHandle<()>>,
}

impl PlanServer {
    /// Bind `addr` and start serving `service`. Pass port 0 to let the OS
    /// pick; read the result back with [`local_addr`](Self::local_addr).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        service: Arc<PlanningService>,
        telemetry: Telemetry,
    ) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let outbox = Arc::new(Outbox {
            done: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            telemetry: telemetry.clone(),
        });
        let shared = Arc::new(NetShared {
            service,
            telemetry,
            outbox,
            in_flight: AtomicUsize::new(0),
            live_connections: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            config,
        });
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || event_loop(&shared, listener))
        };
        Ok(PlanServer { shared, local_addr, event: Some(event) })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently held by the event loop.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::Relaxed)
    }

    /// Requests submitted to the planning service and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Passes the event loop has made. The loop blocks until something is
    /// ready, so this stands still on an idle server and grows by a small
    /// constant per request; tests use it to catch a busy-spin.
    pub fn wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, answer `Draining`, finish in-flight
    /// work, flush the cache-bank checkpoint, close, join the event loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.outbox.waker.wake();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---- event loop --------------------------------------------------------

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    in_flight: usize,
    /// The peer's write side has closed; no more bytes are coming.
    eof: bool,
    /// A protocol error was answered: flush what is owed, then close.
    close_after_flush: bool,
    /// Set when the output cap is blown: close now, no flush courtesy.
    kill: bool,
    /// This pass's index into the poll set; `None` for a connection
    /// accepted after the wait, which has no readiness report yet.
    slot: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            in_flight: 0,
            eof: false,
            close_after_flush: false,
            kill: false,
            slot: None,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Unflushed output bytes waiting on the peer to read.
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the server still wants this peer's bytes. Not after EOF
    /// (there are none, and `POLLIN` would stay set forever), and not
    /// after a protocol error (the stream's framing can no longer be
    /// trusted, so nothing more from it is decoded or dispatched).
    fn reading(&self) -> bool {
        !self.eof && !self.close_after_flush
    }

    /// Readiness this connection waits on.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.reading() {
            events |= POLLIN;
        }
        if !self.flushed() {
            events |= POLLOUT;
        }
        events
    }

    /// Queue a frame for writing, bounded by `output_cap`: a peer that
    /// never drains its socket is marked for disconnect instead of growing
    /// the buffer without bound.
    fn push_frame(&mut self, bytes: &[u8], output_cap: usize, telemetry: &Telemetry) {
        if self.pending_out() + bytes.len() > output_cap {
            telemetry.inc(Counter::NetShedSlowReader);
            self.kill = true;
            return;
        }
        self.out.extend_from_slice(bytes);
        telemetry.inc(Counter::NetFramesOut);
    }

    /// Answer a protocol error: the typed frame, then nothing more is read.
    fn reject(&mut self, code: ErrorCode, message: String, shared: &NetShared) {
        shared.telemetry.inc(Counter::NetFrameErrors);
        let bytes = ErrorFrame { request_id: 0, code, message }.encode();
        self.push_frame(&bytes, shared.config.output_cap, &shared.telemetry);
        self.close_after_flush = true;
        self.read_buf.clear();
    }
}

/// What a service pass decided about one connection.
#[derive(PartialEq)]
enum Fate {
    Keep,
    Close,
}

/// Recently answered (request id, content fingerprint, encoded reply):
/// retry dedup.
type ReplyRing = VecDeque<(u64, u64, Vec<u8>)>;

/// A request in the planning service, as the event loop tracks it.
struct Pending {
    conn_id: u64,
    request_id: u64,
    /// Content fingerprint, keyed into the reply ring with the reply.
    fingerprint: u64,
    /// Decode time plus `ticket_timeout`: when the loop answers
    /// `WaitTimeout` itself (`None` when too far off to represent).
    due: Option<Instant>,
}

/// Requests submitted to the planning service and not yet answered, by
/// submission number. Numbers are never reused, so a completion that
/// arrives after its request timed out finds nothing and is dropped. They
/// follow decode order and every request gets the same `ticket_timeout`,
/// so the first entry is always the next one due.
#[derive(Default)]
struct Tickets {
    pending: BTreeMap<u64, Pending>,
    next_seq: u64,
}

impl Tickets {
    fn next_due(&self) -> Option<Instant> {
        self.pending.values().next().and_then(|p| p.due)
    }
}

fn earlier(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    a.into_iter().chain(b).min()
}

fn event_loop(shared: &NetShared, listener: TcpListener) {
    const WAKER_SLOT: usize = 0;
    let cfg = &shared.config;
    let tel = &shared.telemetry;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut reply_ring = ReplyRing::new();
    let mut tickets = Tickets::default();
    let mut drain_started: Option<Instant> = None;
    let mut accept_retry_at: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        // Register interest and find the nearest timer. A deadline too far
        // off to represent (`checked_add` overflow) is no deadline.
        fds.clear();
        fds.push(PollFd::new(shared.outbox.waker.fd(), POLLIN));
        let listener_slot = (drain_started.is_none() && accept_retry_at.is_none()).then(|| {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        let mut timer = earlier(
            earlier(accept_retry_at, tickets.next_due()),
            drain_started.and_then(|t| t.checked_add(cfg.drain_timeout)),
        );
        for conn in conns.values_mut() {
            conn.slot = Some(fds.len());
            fds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest()));
            if conn.in_flight == 0 {
                timer = earlier(timer, conn.last_activity.checked_add(cfg.idle_timeout));
            }
        }

        let timeout = timer.map(|t| t.saturating_duration_since(Instant::now()));
        if poll::wait(&mut fds, timeout).is_err() {
            // Not EINTR (retried inside): the kernel refused the set
            // itself. Looping would spin; close everything instead.
            break;
        }
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();

        // Drain the waker *before* reading what its callers published.
        let woken = fds[WAKER_SLOT].revents() != 0;
        if woken {
            shared.outbox.waker.drain();
        }
        let draining = shared.stop.load(Ordering::Acquire);
        if draining && drain_started.is_none() {
            drain_started = Some(now);
        }
        if accept_retry_at.is_some_and(|t| now >= t) {
            accept_retry_at = None;
        }

        if !draining
            && listener_slot.is_some_and(|slot| fds[slot].revents() != 0)
            && !accept_backlog(&listener, &mut conns, &mut next_id, shared)
        {
            // Out of descriptors (EMFILE/ENFILE) or kernel memory: the
            // refused connection stays in the backlog, so the listener
            // stays readable and would wake the loop again at once,
            // forever. Take it out of the poll set until a connection
            // closes (a descriptor comes back) or the back-off passes.
            accept_retry_at = now.checked_add(ACCEPT_BACKOFF);
        }
        if woken {
            route_completions(shared, &mut conns, &mut reply_ring, &mut tickets);
        }
        expire_tickets(shared, &mut conns, &mut tickets, now);

        // One pass decides each connection's fate: serve what poll
        // reported, flush what is pending, then the idle reaper.
        let before = conns.len();
        conns.retain(|&id, conn| {
            let revents = conn.slot.take().map_or(0, |slot| fds[slot].revents());
            let fate = service_conn(id, conn, revents, shared, &reply_ring, &mut tickets, draining);
            if fate == Fate::Close {
                return false;
            }
            // Inactivity with no in-flight work is enough — a
            // half-received frame (slow loris, peer crash without FIN) or
            // a backlog the peer refuses to read must not hold a
            // connection slot forever. Only a request actually being
            // planned earns a stay.
            let idle = conn.in_flight == 0
                && now.saturating_duration_since(conn.last_activity) >= cfg.idle_timeout;
            if idle {
                reap(conn, tel);
            }
            !idle
        });
        let closed = before - conns.len();
        if closed > 0 {
            tel.add(Counter::NetConnectionsClosed, closed as u64);
            shared.live_connections.fetch_sub(closed, Ordering::Relaxed);
            accept_retry_at = None;
        }

        if let Some(started) = drain_started {
            let quiesced = tickets.pending.is_empty() && conns.values().all(Conn::flushed);
            if quiesced || started.elapsed() >= cfg.drain_timeout {
                break;
            }
        }
    }

    // Drained (or drain timed out): flush the shared cache bank so a
    // restarted server starts warm, then close everything.
    shared.service.housekeep();
    tel.add(Counter::NetConnectionsClosed, conns.len() as u64);
    shared.live_connections.fetch_sub(conns.len(), Ordering::Relaxed);
}

/// Accept until the backlog is empty. Returns `false` if `accept` failed in
/// a way that leaves the backlog as it is, so the caller must back off.
fn accept_backlog(
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
    shared: &NetShared,
) -> bool {
    let tel = &shared.telemetry;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if raqo_faults::site("net.accept") == Action::Fail {
                    // Injected accept failure: the connection dies before
                    // entering the loop, exactly like a peer resetting
                    // inside the handshake.
                    continue;
                }
                if conns.len() >= shared.config.max_connections {
                    shed_at_accept(stream, tel);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.insert(*next_id, Conn::new(stream));
                *next_id += 1;
                tel.inc(Counter::NetConnectionsOpened);
                shared.live_connections.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            // One handshake died in the backlog; the rest stand.
            Err(e)
                if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {}
            Err(_) => return false,
        }
    }
}

/// Route finished plans back to their connections.
fn route_completions(
    shared: &NetShared,
    conns: &mut HashMap<u64, Conn>,
    reply_ring: &mut ReplyRing,
    tickets: &mut Tickets,
) {
    let cfg = &shared.config;
    let done: Vec<Completion> = std::mem::take(&mut *lock(&shared.outbox.done));
    for c in done {
        // Not pending: the loop already answered `WaitTimeout`. The late
        // reply is dropped and kept out of the ring — the client was told
        // to retry, and a retry deserves a fresh attempt.
        let Some(p) = tickets.pending.remove(&c.seq) else { continue };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The reply moves into the ring and is written from there: no copy
        // beyond the one into the output buffer.
        let bytes = if cfg.reply_ring > 0 {
            if reply_ring.len() >= cfg.reply_ring {
                reply_ring.pop_front();
            }
            reply_ring.push_back((p.request_id, p.fingerprint, c.bytes));
            &reply_ring.back().expect("just pushed").2
        } else {
            &c.bytes
        };
        if let Some(conn) = conns.get_mut(&p.conn_id) {
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.push_frame(bytes, cfg.output_cap, &shared.telemetry);
        }
        // Connection gone: the ring above still serves a retry that
        // arrives on a replacement connection.
    }
}

/// Answer `WaitTimeout` for every request past its `ticket_timeout`.
fn expire_tickets(
    shared: &NetShared,
    conns: &mut HashMap<u64, Conn>,
    tickets: &mut Tickets,
    now: Instant,
) {
    let cfg = &shared.config;
    while let Some(entry) = tickets.pending.first_entry() {
        if entry.get().due.is_none_or(|due| due > now) {
            break;
        }
        let p = entry.remove();
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Some(conn) = conns.get_mut(&p.conn_id) {
            conn.in_flight = conn.in_flight.saturating_sub(1);
            let bytes = ErrorFrame {
                request_id: p.request_id,
                code: ErrorCode::WaitTimeout,
                message: format!("planning did not finish within {:?}", cfg.ticket_timeout),
            }
            .encode();
            conn.push_frame(&bytes, cfg.output_cap, &shared.telemetry);
        }
    }
}

/// Best-effort `Overloaded` reply to a connection shed at the cap: one
/// nonblocking write, then the socket drops. This runs on the event-loop
/// thread, so it must never wait on the peer — a freshly accepted socket
/// has an empty send buffer, so the single write virtually always lands.
fn shed_at_accept(mut stream: TcpStream, telemetry: &Telemetry) {
    telemetry.inc(Counter::NetShedConnCap);
    let bytes = ErrorFrame {
        request_id: 0,
        code: ErrorCode::Overloaded,
        message: "connection cap reached".into(),
    }
    .encode();
    if stream.set_nonblocking(true).is_ok() && stream.write(&bytes).is_ok() {
        telemetry.inc(Counter::NetFramesOut);
    }
}

/// Take an idle connection's slot back. If the peer left a partial frame
/// behind, tell it the stream is torn first: one best-effort nonblocking
/// write — the peer is likely gone, and the event loop must not wait on
/// it. (With a half-written reply still pending the frame would splice
/// mid-stream, so only a flushed stream gets the courtesy.)
fn reap(conn: &mut Conn, telemetry: &Telemetry) {
    if !conn.read_buf.is_empty() && conn.flushed() {
        let torn = ErrorFrame {
            request_id: 0,
            code: ErrorCode::Torn,
            message: "connection idle holding an incomplete frame".into(),
        }
        .encode();
        if conn.stream.write(&torn).is_ok() {
            telemetry.inc(Counter::NetFramesOut);
        }
    }
    telemetry.inc(Counter::NetIdleReaped);
}

/// One pass over a connection, acting on what poll reported (`revents`):
/// drain readable bytes and decode and submit their frames, then flush
/// pending output. Returns the connection's fate.
fn service_conn(
    id: u64,
    conn: &mut Conn,
    revents: c_short,
    shared: &NetShared,
    reply_ring: &ReplyRing,
    tickets: &mut Tickets,
    draining: bool,
) -> Fate {
    if conn.reading() {
        if revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
            && read_and_decode(id, conn, shared, reply_ring, tickets, draining) == Fate::Close
        {
            return Fate::Close;
        }
    } else if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
        // Reset, or closed in both directions, while only replies were
        // owed: they can no longer be delivered, and the condition is
        // reported on every wait from now on.
        return Fate::Close;
    }

    // -- write --
    // Straight away rather than after a POLLOUT round trip: the socket
    // buffer almost always has room. When it does not, the rest waits on
    // POLLOUT.
    if !conn.flushed() {
        if raqo_faults::site("net.write") == Action::Fail {
            return Fate::Close; // injected reset on the write side
        }
        loop {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                    if conn.flushed() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        if conn.flushed() {
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    if conn.kill {
        // Output cap blown: the peer is not reading, so there is nothing
        // left to flush to it. Drop the connection now.
        return Fate::Close;
    }
    if !conn.reading() && conn.flushed() && conn.in_flight == 0 {
        return Fate::Close;
    }
    Fate::Keep
}

/// The read half of a service pass: everything the socket holds, then
/// every complete frame in the buffer — so no frame is left waiting for
/// readiness that has already been reported.
fn read_and_decode(
    id: u64,
    conn: &mut Conn,
    shared: &NetShared,
    reply_ring: &ReplyRing,
    tickets: &mut Tickets,
    draining: bool,
) -> Fate {
    // -- read --
    if raqo_faults::site("net.read") == Action::Fail {
        return Fate::Close; // injected reset
    }
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer EOF: finish what's pending, then close.
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Fate::Close,
        }
    }

    // -- decode --
    if !conn.read_buf.is_empty() {
        match raqo_faults::site("net.frame") {
            Action::Fail => {
                // Torn frame: the tail of the buffered bytes vanishes, as
                // if the network cut mid-frame. The surviving prefix is
                // either complete frames (served) or an incomplete one the
                // loop waits on until EOF or the reaper answers
                // `ErrorCode::Torn` and closes.
                let keep = conn.read_buf.len() / 2;
                conn.read_buf.truncate(keep);
            }
            Action::Nan => {
                // Garbage on the wire: one buffered byte flips.
                let mid = conn.read_buf.len() / 2;
                conn.read_buf[mid] ^= 0xA5;
            }
            Action::Proceed => {}
        }
    }
    let mut consumed = 0usize;
    // A protocol error ends the loop for good: `reject` stops all reading.
    while !conn.close_after_flush {
        match frame::decode(&conn.read_buf[consumed..], shared.config.max_body) {
            Decoded::Incomplete { .. } => break,
            Decoded::Corrupt(e) => {
                // Framing is lost: answer with the typed error, then close
                // once it flushes. Never silent, never a hang, never a
                // panic.
                conn.reject(e.code(), e.to_string(), shared);
            }
            Decoded::Frame(frame, n) => {
                consumed += n;
                shared.telemetry.inc(Counter::NetFramesIn);
                match frame {
                    Frame::Request(req) => {
                        handle_request(id, conn, req, shared, reply_ring, tickets, draining)
                    }
                    Frame::Reply(_) | Frame::Error(_) => {
                        // Clients send requests; anything else means the
                        // peer is confused about who is who.
                        conn.reject(
                            ErrorCode::BadBody,
                            "only request frames are accepted here".into(),
                            shared,
                        );
                    }
                }
            }
        }
    }
    if !conn.close_after_flush {
        // (`reject` has already emptied the buffer otherwise.)
        conn.read_buf.drain(..consumed);
    }

    // Peer EOF with a partial frame still buffered: the stream tore
    // mid-frame and no more bytes are coming. Answer with the typed
    // `Torn` error before the close — never a silent drop.
    if conn.eof && !conn.read_buf.is_empty() {
        conn.reject(ErrorCode::Torn, "stream ended mid-frame".into(), shared);
    }
    Fate::Keep
}

/// Answer one decoded request from the drain state or the reply ring, or
/// submit it to the planning service.
fn handle_request(
    conn_id: u64,
    conn: &mut Conn,
    req: RequestFrame,
    shared: &NetShared,
    reply_ring: &ReplyRing,
    tickets: &mut Tickets,
    draining: bool,
) {
    let tel = &shared.telemetry;
    if draining {
        let bytes = ErrorFrame {
            request_id: req.request_id,
            code: ErrorCode::Draining,
            message: "server is draining for shutdown".into(),
        }
        .encode();
        conn.push_frame(&bytes, shared.config.output_cap, tel);
        return;
    }
    // Retry dedup: a request we already answered is served from the ring —
    // no second planning run, same bytes, even across connections. The
    // content fingerprint keeps the match honest: an unrelated client
    // reusing the same id (every client counts from the same default
    // sequence) never receives another request's reply.
    let fingerprint = req.fingerprint();
    if let Some((.., bytes)) = reply_ring
        .iter()
        .find(|(rid, rfp, _)| *rid == req.request_id && *rfp == fingerprint)
    {
        tel.inc(Counter::NetRepliesDeduped);
        conn.push_frame(bytes, shared.config.output_cap, tel);
        return;
    }
    // Anchor the deadline budget and the ticket timeout at decode time:
    // the service's queue wait counts against both.
    let decoded_at = Instant::now();
    let request_id = req.request_id;
    let mut request = PlanRequest::new(req.query, req.priority).with_namespace(req.namespace);
    if req.deadline_ms > 0 {
        request = request
            .with_deadline_at(decoded_at + Duration::from_millis(u64::from(req.deadline_ms)));
    }
    let seq = tickets.next_seq;
    tickets.next_seq += 1;
    let outbox = Arc::clone(&shared.outbox);
    let on_reply = move |reply| outbox.post(seq, request_id, reply);
    match shared.service.try_submit_with(request, on_reply) {
        Ok(()) => {
            let due = decoded_at.checked_add(shared.config.ticket_timeout);
            tickets.pending.insert(seq, Pending { conn_id, request_id, fingerprint, due });
            conn.in_flight += 1;
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
        }
        Err(_unplanned) => {
            // Admission is full: shed with a typed reply rather than
            // buffer without bound, or plan on this thread.
            tel.inc(Counter::NetShedOverloaded);
            let bytes = ErrorFrame {
                request_id,
                code: ErrorCode::Overloaded,
                message: "planning queue full".into(),
            }
            .encode();
            conn.push_frame(&bytes, shared.config.output_cap, tel);
        }
    }
}
