//! The TCP listener: std-only thread-per-connection serving with a
//! graceful shutdown that unblocks in-flight sessions, per-session
//! socket deadlines (a stalled peer gets `ERR timeout` and is closed,
//! never pinning a thread forever), capped-exponential backoff on
//! accept failures, and the overload-protection layer: admission
//! control at the connection cap (`ERR busy`, never a silent drop),
//! bounded request frames (`ERR toolong`), and write-stall teardown with
//! a logged reason. (An `INGEST` header over
//! [`MAX_INGEST_BATCH`](crate::protocol::MAX_INGEST_BATCH) rows is
//! refused by [`Command::parse`] before any row line is read.)

use crate::frame::{BoundedLineReader, FrameLine};
use crate::protocol::{Command, IngestRow, ProtocolError, Response};
use crate::session::Session;
use crate::{AuditService, DEFAULT_INGEST_QUEUE};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on one inbound request line, in bytes. An overlong line gets
/// `ERR toolong` and the connection is closed — the bounded frame reader
/// never buffers past the cap, so one peer cannot OOM the server with a
/// single newline-free stream.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-connection socket policy and resource limits. The deadline
/// defaults (2-minute read and write) keep an interactive auditor
/// comfortable while bounding how long one stalled peer — a slowloris, a
/// wedged script, a half-dead NAT mapping — can pin a session thread;
/// the caps bound what any one peer (or all of them together) can make
/// the server hold in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// How long one blocking read may wait for the peer (`None`: forever).
    /// On expiry the session answers `ERR timeout` and closes.
    pub read_timeout: Option<Duration>,
    /// How long one blocking write may stall on the peer (`None`:
    /// forever). On expiry the connection is dropped (the write side is
    /// the one that's wedged — a reply cannot be delivered either) and
    /// the teardown reason lands in the operator log.
    pub write_timeout: Option<Duration>,
    /// Cap on concurrently open sessions (0 = unlimited). An excess
    /// connection gets one `ERR busy` frame in greeting position — with
    /// a `retry-after-ms` hint — and is closed; never a silent drop.
    pub max_connections: usize,
    /// Cap on concurrent `INGEST` batches in the writer path (one
    /// writing + waiters) before new batches are shed with
    /// `ERR overloaded` (0 = never shed). Applied to the service at
    /// spawn; read commands never shed.
    pub max_ingest_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(120)),
            max_connections: 256,
            max_ingest_queue: DEFAULT_INGEST_QUEUE,
        }
    }
}

impl ServerConfig {
    /// The read deadline in whole seconds, for the `ERR timeout` message.
    fn read_timeout_secs(&self) -> u64 {
        self.read_timeout.map_or(0, |d| d.as_secs().max(1))
    }
}

/// A running `eba-serve` instance: the bound address, the shared service
/// state, and the accept thread. Dropping the server shuts it down.
pub struct Server {
    addr: SocketAddr,
    service: Arc<AuditService>,
    inner: Option<Inner>,
}

struct Inner {
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Registry>>,
}

/// Live-connection registry: one cloned handle per open session, so
/// shutdown can unblock sessions parked in `read`. Sessions deregister on
/// exit — the clone must be dropped then, or the socket's fd (and the
/// client's EOF) would linger for the life of the server.
#[derive(Default)]
struct Registry {
    next_token: usize,
    open: HashMap<usize, TcpStream>,
}

impl Registry {
    fn register(&mut self, conn: TcpStream) -> usize {
        let token = self.next_token;
        self.next_token += 1;
        self.open.insert(token, conn);
        token
    }
}

/// Locks a registry mutex, recovering a poisoned guard (the registry is a
/// plain list; a panicking session cannot leave it torn).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, one session thread per connection, with the
    /// default socket deadlines ([`ServerConfig::default`]).
    pub fn spawn(service: AuditService, addr: &str) -> std::io::Result<Server> {
        Self::spawn_with(service, addr, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit socket deadlines.
    pub fn spawn_with(
        service: AuditService,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        service.set_max_ingest_queue(config.max_ingest_queue);
        let service = Arc::new(service);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Registry>> = Arc::default();
        let accept = {
            let service = service.clone();
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("eba-serve-accept".into())
                .spawn(move || accept_loop(listener, service, shutdown, conns, config))?
        };
        Ok(Server {
            addr,
            service,
            inner: Some(Inner {
                shutdown,
                accept,
                conns,
            }),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (e.g. to compare server replies against
    /// a library-level recompute over the same epoch).
    pub fn service(&self) -> &Arc<AuditService> {
        &self.service
    }

    /// How many sessions are currently open — the admission-control
    /// gauge, and the observable the chaos suite polls to prove sessions
    /// are reaped (no leaked workers) after every failure mode.
    pub fn live_sessions(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| lock(&inner.conns).open.len())
    }

    /// Graceful shutdown: stop accepting, unblock every in-flight session
    /// (their sockets are shut down, so blocked reads return EOF), and
    /// join all session threads before returning. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        inner.shutdown.store(true, Ordering::SeqCst);
        // Sessions blocked in read_line observe EOF and exit their loop.
        for conn in lock(&inner.conns).open.values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept call itself.
        let _ = TcpStream::connect(self.addr);
        let _ = inner.accept.join();
    }

    /// Blocks until the accept thread exits (i.e. until another thread
    /// calls [`Server::shutdown`] or the process dies). Used by
    /// `eba serve`.
    pub fn join(mut self) {
        if let Some(inner) = self.inner.take() {
            let _ = inner.accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Backoff policy for accept failures (e.g. EMFILE under fd exhaustion):
/// an accept error does not dequeue the pending connection, so without a
/// pause the loop busy-spins at 100% CPU until the condition clears — but
/// a fixed pause either wastes latency when the glitch was transient or
/// spins too hot when it isn't. Delays double from 10 ms up to a 2 s cap
/// and reset on the next successful accept; the consecutive-failure
/// count is surfaced through the operator log at every power of two
/// (1st, 2nd, 4th, 8th, ... — loud enough to see, quiet enough not to
/// flood the log during a long outage).
struct AcceptBackoff {
    delay: Duration,
    consecutive_failures: u64,
}

impl AcceptBackoff {
    const INITIAL: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(2);

    fn new() -> AcceptBackoff {
        AcceptBackoff {
            delay: Self::INITIAL,
            consecutive_failures: 0,
        }
    }

    /// Records a successful accept: the next failure starts over.
    fn success(&mut self) {
        self.delay = Self::INITIAL;
        self.consecutive_failures = 0;
    }

    /// Records one failed accept. Returns how long to sleep before
    /// retrying, and — at power-of-two failure counts — an operator
    /// warning carrying the streak length and the error.
    fn failure(&mut self, err: &std::io::Error) -> (Duration, Option<String>) {
        self.consecutive_failures += 1;
        let delay = self.delay;
        self.delay = (self.delay * 2).min(Self::CAP);
        let warning = self.consecutive_failures.is_power_of_two().then(|| {
            format!(
                "accept failed {} time(s) in a row ({err}); retrying in {} ms",
                self.consecutive_failures,
                delay.as_millis()
            )
        });
        (delay, warning)
    }
}

/// Shed-at-the-cap accounting for the accept loop: counts refused
/// connections and surfaces the live/max gauge in the operator log at
/// power-of-two shed counts (same cadence as [`AcceptBackoff`] — loud
/// enough to see, quiet enough not to flood the log during a storm).
struct ShedGauge {
    shed: u64,
}

impl ShedGauge {
    fn new() -> ShedGauge {
        ShedGauge { shed: 0 }
    }

    fn shed(&mut self, live: usize, max: usize) -> Option<String> {
        self.shed += 1;
        self.shed.is_power_of_two().then(|| {
            format!(
                "connection shed at the cap: {live} live / max {max}; {} shed so far",
                self.shed
            )
        })
    }
}

/// Refuses one over-cap connection: one `ERR busy` frame (with the
/// `retry-after-ms` hint), then close. The write gets a short deadline of
/// its own so a peer that won't read its refusal cannot stall the accept
/// loop behind it.
fn reject_busy(mut stream: TcpStream, live: usize, max: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Response::err(&ProtocolError::Busy { live, max }).write_to(&mut stream);
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<AuditService>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Registry>>,
    config: ServerConfig,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = AcceptBackoff::new();
    let mut gauge = ShedGauge::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished sessions so a long-running server doesn't hold a
        // handle per connection it ever served (dropping a finished
        // thread's handle detaches and releases it; only live sessions
        // are kept for the join at shutdown).
        workers.retain(|w| !w.is_finished());
        let stream = match stream {
            Ok(stream) => {
                backoff.success();
                stream
            }
            Err(err) => {
                let (delay, warning) = backoff.failure(&err);
                if let Some(warning) = warning {
                    service.record_warning(warning);
                }
                std::thread::sleep(delay);
                continue;
            }
        };
        // Small request/response frames: without nodelay, Nagle + delayed
        // ACK cost tens of milliseconds per question.
        let _ = stream.set_nodelay(true);
        // Socket deadlines: a peer that stops driving its side of the
        // protocol gets `ERR timeout`, not a pinned thread.
        let _ = stream.set_read_timeout(config.read_timeout);
        let _ = stream.set_write_timeout(config.write_timeout);
        let Ok(clone) = stream.try_clone() else {
            continue; // can't make the shutdown handle: drop it
        };
        // Admission control: the cap check and the registration share one
        // lock scope, so a burst of accepts cannot overshoot the cap.
        let token = {
            let mut registry = lock(&conns);
            let live = registry.open.len();
            if config.max_connections > 0 && live >= config.max_connections {
                drop(registry);
                if let Some(warning) = gauge.shed(live, config.max_connections) {
                    service.record_warning(warning);
                }
                reject_busy(stream, live, config.max_connections);
                continue;
            }
            registry.register(clone)
        };
        let service = service.clone();
        let shutdown = shutdown.clone();
        let session_conns = conns.clone();
        let worker = std::thread::Builder::new()
            .name("eba-serve-session".into())
            .spawn(move || {
                serve_connection(stream, service, shutdown, config);
                // Deregister (dropping the clone) so the client sees EOF
                // now, not when the whole server exits.
                lock(&session_conns).open.remove(&token);
            });
        match worker {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                // Thread exhaustion: drop the connection again.
                lock(&conns).open.remove(&token);
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Whether an I/O error is a socket deadline expiring (the two kinds
/// platforms report for `SO_RCVTIMEO`/`SO_SNDTIMEO`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Drives one connection: greeting, then a command/reply loop until QUIT,
/// EOF, shutdown, or an expired socket deadline (answered with
/// `ERR timeout`, then closed). A panic inside a command handler is
/// recovered into an `ERR internal` reply — it never reaches the socket
/// as a dead connection, and (PR 3's poison recovery) never takes the
/// engine down.
fn serve_connection(
    stream: TcpStream,
    service: Arc<AuditService>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown-peer".to_string());
    let mut reader = BoundedLineReader::new(BufReader::new(read_half), MAX_LINE_BYTES);
    let mut writer = stream;
    let mut session = Session::new(service.clone());
    if session.greeting().write_to(&mut writer).is_err() {
        return;
    }
    let timeout_reply = Response::err(&ProtocolError::Timeout {
        seconds: config.read_timeout_secs(),
    });
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(FrameLine::Line) => {}
            Ok(FrameLine::Eof) => return,
            Ok(FrameLine::TooLong) => {
                // The rest of the overlong line was never consumed, so
                // resyncing is impossible by construction: reply, close.
                let _ = Response::err(&ProtocolError::LineTooLong {
                    max: MAX_LINE_BYTES,
                })
                .write_to(&mut writer);
                return;
            }
            Err(e) => {
                if is_timeout(&e) {
                    // Best-effort courtesy reply; the close is the point.
                    let _ = timeout_reply.write_to(&mut writer);
                }
                return;
            }
        }
        let parsed = Command::parse(&line);
        let (response, quit) = match parsed {
            Ok(None) => continue,
            Ok(Some(Command::Quit)) => (session.handle(Command::Quit, vec![]), true),
            Ok(Some(Command::Ingest { count })) => {
                match read_batch(&mut reader, count, &config) {
                    // The batch was consumed whole even if a row is bad, so
                    // the stream stays in sync with the command grammar.
                    Ok(rows) => match parse_batch(&rows) {
                        Ok(rows) => (
                            dispatch(&mut session, Command::Ingest { count }, rows),
                            false,
                        ),
                        Err(e) => (Response::err(&e), false),
                    },
                    Err(e) => (Response::err(&e), true),
                }
            }
            Ok(Some(cmd)) => (dispatch(&mut session, cmd, vec![]), false),
            Err(e) => (Response::err(&e), false),
        };
        if let Err(e) = response.write_to(&mut writer) {
            if is_timeout(&e) {
                // A peer that stopped reading its replies: the write-side
                // deadline fired. Tear the session down with the reason
                // on record — one stalled reader never wedges a worker.
                service.record_warning(format!(
                    "session {peer}: reply write stalled past the deadline ({e}); \
                     dropping the session"
                ));
            }
            return;
        }
        if quit {
            return;
        }
        // A successful SUBSCRIBE switches the connection into event
        // mode: the server pushes frames, the client may only QUIT.
        if let Some((id, rx)) = session.take_subscription() {
            serve_subscription(&mut reader, &mut writer, &shutdown, rx);
            service.unsubscribe(id);
            return;
        }
    }
}

/// Drives one subscribed connection: pushes `EVENT` frames as they
/// arrive on the session's bounded queue, checks the socket for `QUIT`
/// (or EOF) between deliveries, and exits on shutdown. The thread only
/// ever blocks on the queue, so a publish wakes it at once and a burst
/// is drained as fast as the socket takes it — a subscriber that reads
/// its socket is never shed for the server's own waiting. A disconnected
/// queue means the publisher shed this subscriber as a slow consumer —
/// the backlog has already been delivered by then, so the session gets
/// one final typed `ERR slow-consumer` frame and the connection closes.
fn serve_subscription(
    reader: &mut BoundedLineReader<BufReader<TcpStream>>,
    writer: &mut TcpStream,
    shutdown: &AtomicBool,
    rx: std::sync::mpsc::Receiver<crate::push::Event>,
) {
    use std::sync::mpsc::RecvTimeoutError;
    // Event mode inverts the read pattern: the thread parks on the event
    // queue and only *looks* at the socket (a non-blocking read) after a
    // delivery or a 100 ms idle tick. Idle subscribers are expected to
    // sit silent for hours, so the session read deadline does not apply.
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(event) => {
                if event.response().write_to(writer).is_err() {
                    return;
                }
                // Drain any burst without waiting out another poll tick.
                while let Ok(event) = rx.try_recv() {
                    if event.response().write_to(writer).is_err() {
                        return;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // The publisher dropped our sender: shed for not keeping
                // up. The queued backlog has been fully delivered above.
                let _ = Response::err(&ProtocolError::SlowConsumer {
                    queued: crate::push::EVENT_QUEUE_CAP,
                })
                .write_to(writer);
                return;
            }
        }
        // Both halves share one file description, so the socket is
        // non-blocking only for this read: event writes above keep their
        // blocking write deadline.
        if reader.get_mut().get_mut().set_nonblocking(true).is_err() {
            return;
        }
        let polled = reader.read_line(&mut line);
        if reader.get_mut().get_mut().set_nonblocking(false).is_err() {
            return;
        }
        match polled {
            Ok(FrameLine::Line) => {
                let word = line.trim();
                if word.eq_ignore_ascii_case("QUIT") {
                    let _ = Response::ok("bye").write_to(writer);
                    return;
                }
                if !word.is_empty() && !word.starts_with('#') {
                    let usage = ProtocolError::Usage("QUIT (session is in event mode)");
                    if Response::err(&usage).write_to(writer).is_err() {
                        return;
                    }
                }
            }
            Ok(FrameLine::Eof) => return,
            Ok(FrameLine::TooLong) => return,
            Err(e) if is_timeout(&e) => {}
            Err(_) => return,
        }
    }
}

/// Reads the `count` continuation lines of an `INGEST` batch. A peer
/// that announces a batch and then stalls past the read deadline gets
/// `ERR timeout` (and the connection closed) — exactly the slowloris
/// shape the deadline exists for; an overlong row line is `ERR toolong`
/// with the same reply-then-close contract.
fn read_batch(
    reader: &mut BoundedLineReader<BufReader<TcpStream>>,
    count: usize,
    config: &ServerConfig,
) -> Result<Vec<String>, ProtocolError> {
    let mut rows = Vec::with_capacity(count.min(4096));
    let mut line = String::new();
    for i in 0..count {
        match reader.read_line(&mut line) {
            Ok(FrameLine::Line) => rows.push(line.trim().to_string()),
            Ok(FrameLine::TooLong) => {
                return Err(ProtocolError::LineTooLong {
                    max: MAX_LINE_BYTES,
                })
            }
            Err(e) if is_timeout(&e) => {
                return Err(ProtocolError::Timeout {
                    seconds: config.read_timeout_secs(),
                })
            }
            Ok(FrameLine::Eof) | Err(_) => {
                return Err(ProtocolError::TruncatedBatch {
                    got: i,
                    expected: count,
                })
            }
        }
    }
    Ok(rows)
}

fn parse_batch(lines: &[String]) -> Result<Vec<IngestRow>, ProtocolError> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| IngestRow::parse(l, i))
        .collect()
}

/// Runs one command with a panic barrier: a recovered unwind becomes a
/// typed `ERR internal` reply and the session keeps serving (the engine's
/// locks all recover from poisoning, so the next question still answers).
fn dispatch(session: &mut Session, cmd: Command, rows: Vec<IngestRow>) -> Response {
    let caught = catch_unwind(AssertUnwindSafe(|| session.handle(cmd, rows)));
    match caught {
        Ok(response) => response,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            ProtocolError::Internal(what).into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn spawn_serve_shutdown_round_trip() {
        let mut server =
            Server::spawn(AuditService::tiny_synthetic(3), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("connect");
        assert!(client.greeting().head.starts_with("OK eba-serve 1 epoch 0"));
        let pong = client.send("PING").expect("ping");
        assert_eq!(pong.head, "OK pong");
        // Second concurrent session.
        let mut other = Client::connect(addr).expect("connect 2");
        assert!(other.send("SEQ").expect("seq").is_ok());
        // Shutdown with both sessions still open: returns promptly, the
        // clients observe EOF, and the port stops accepting.
        server.shutdown();
        assert!(client.send("PING").is_err(), "socket is gone");
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn accept_backoff_doubles_caps_and_resets() {
        let mut b = AcceptBackoff::new();
        let err = || std::io::Error::other("emfile");
        let mut delays = Vec::new();
        let mut warnings = 0;
        for _ in 0..12 {
            let (delay, warning) = b.failure(&err());
            delays.push(delay);
            warnings += usize::from(warning.is_some());
        }
        assert_eq!(delays[0], Duration::from_millis(10));
        assert_eq!(delays[1], Duration::from_millis(20));
        assert_eq!(delays[7], Duration::from_millis(1280));
        assert_eq!(delays[8], Duration::from_secs(2), "capped");
        assert_eq!(delays[11], Duration::from_secs(2), "stays capped");
        // Warned at streaks 1, 2, 4, 8 — not on every failure.
        assert_eq!(warnings, 4);
        let (_, w) = b.failure(&err());
        assert!(w.is_none(), "13 is not a power of two");
        // A success resets both the delay and the streak.
        b.success();
        let (delay, warning) = b.failure(&err());
        assert_eq!(delay, Duration::from_millis(10));
        let warning = warning.expect("first failure of a new streak warns");
        assert!(warning.contains("1 time(s)"), "{warning}");
        assert!(warning.contains("emfile"), "{warning}");
    }

    #[test]
    fn idle_session_gets_err_timeout_then_eof() {
        let config = ServerConfig {
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        };
        let server = Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config)
            .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // A live session inside the deadline answers normally...
        assert_eq!(client.send("PING").expect("ping").head, "OK pong");
        // ...then goes idle past it: the server sends `ERR timeout` and
        // closes, which the drained tail shows in full.
        std::thread::sleep(Duration::from_millis(400));
        let tail = client.drain().expect("drain the close");
        assert!(tail.starts_with("ERR timeout "), "{tail}");
        assert!(tail.contains("idle"), "{tail}");
        assert!(tail.ends_with(".\n"), "framed to the end: {tail}");
    }

    #[test]
    fn stalled_ingest_batch_gets_err_timeout() {
        let config = ServerConfig {
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        };
        let server = Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config)
            .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Announce a 3-row batch, send one row, stall: the slowloris shape.
        client.send_raw(b"INGEST 3\n1 10000 1\n").expect("partial");
        let reply = client.read_reply_frame().expect("timeout reply");
        assert!(reply.head.starts_with("ERR timeout "), "{}", reply.head);
        // The server closed the connection after the reply.
        assert_eq!(client.drain().expect("eof"), "");
        // The stalled batch was never acknowledged, so nothing published.
        assert_eq!(server.service().sharded().seq(), 0);
    }

    #[test]
    fn oversized_ingest_header_is_refused_and_the_session_stays_usable() {
        let server = Server::spawn(AuditService::tiny_synthetic(3), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // The count alone condemns the batch: no row is read, no memory
        // reserved, and the reply is typed.
        let reply = client
            .send(&format!("INGEST {}", crate::protocol::MAX_INGEST_BATCH + 1))
            .expect("refusal");
        assert!(reply.head.starts_with("ERR toolong "), "{}", reply.head);
        assert!(reply.head.contains("1..=100000"), "{}", reply.head);
        // Same session, conforming batch: accepted.
        let rows: Vec<_> = ["1 10000 1", "2 10001 2"]
            .iter()
            .enumerate()
            .map(|(i, l)| crate::protocol::IngestRow::parse(l, i).unwrap())
            .collect();
        let reply = client.ingest(&rows).expect("small batch");
        assert_eq!(reply.head, "OK ingest seq 1 rows 2 new_rows 2 rebuilt 0");
        assert_eq!(server.service().sharded().seq(), 1);
    }

    #[test]
    fn overlong_request_line_gets_err_toolong_then_close() {
        let server = Server::spawn(AuditService::tiny_synthetic(3), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // One byte over the cap and no terminator: the reader consumes
        // every byte sent before it trips, so the close is a clean FIN.
        let mut long = String::from("EXPLAIN ");
        long.push_str(&"9".repeat(MAX_LINE_BYTES + 1 - long.len()));
        client.send_raw(long.as_bytes()).expect("send");
        let reply = client.read_reply_frame().expect("toolong reply");
        assert!(reply.head.starts_with("ERR toolong "), "{}", reply.head);
        assert!(reply.head.contains("65536"), "{}", reply.head);
        // Reply-then-close: nothing after the frame.
        assert_eq!(client.drain().expect("eof"), "");
    }

    #[test]
    fn connection_cap_rejects_with_err_busy_and_frees_on_close() {
        let config = ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        };
        let server = Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config)
            .expect("bind");
        let addr = server.local_addr();
        let mut a = Client::connect(addr).expect("a");
        let _b = Client::connect(addr).expect("b");
        // Third connection: admission control answers `ERR busy` in the
        // greeting position, then closes — never a silent drop.
        let Err(err) = Client::connect(addr) else {
            panic!("third connection admitted over the cap");
        };
        let text = err.to_string();
        assert!(text.contains("ERR busy "), "{text}");
        assert!(text.contains("retry-after-ms"), "{text}");
        // The shed is on the operator record.
        assert!(server
            .service()
            .warnings()
            .iter()
            .any(|w| w.contains("connection shed at the cap")));
        // Freeing a slot re-admits.
        assert_eq!(a.send("QUIT").expect("quit").head, "OK bye");
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut admitted = None;
        while std::time::Instant::now() < deadline {
            match Client::connect(addr) {
                Ok(c) => {
                    admitted = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut c = admitted.expect("slot freed after QUIT");
        assert_eq!(c.send("PING").expect("ping").head, "OK pong");
    }

    #[test]
    fn busy_retry_honours_the_server_hint_and_eventually_connects() {
        use crate::client::{retry_after_hint, ClientConfig, RetryPolicy};
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let server = Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config)
            .expect("bind");
        let addr = server.local_addr();
        let holder = Client::connect(addr).expect("the only slot");
        // Without retries the refusal surfaces at once — and carries the
        // server's hint in the wrapped `ERR busy` head.
        let Err(err) = Client::connect(addr) else {
            panic!("second connection admitted over the cap");
        };
        assert_eq!(
            retry_after_hint(&err.to_string()),
            Some(Duration::from_millis(crate::protocol::BUSY_RETRY_AFTER_MS))
        );
        // Free the slot while a retrying client is waiting out the hint.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            drop(holder);
        });
        let retrying = ClientConfig {
            retry: RetryPolicy {
                retries: 5,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            ..ClientConfig::default()
        };
        let started = std::time::Instant::now();
        let mut c = Client::connect_with(addr, retrying).expect("admitted after the slot freed");
        // The local backoff tops out at 2 ms per attempt — five retries of
        // that could never bridge the 300 ms hold. Only waiting out the
        // 1 s `retry-after-ms` hint gets the client past the busy window.
        assert!(
            started.elapsed() >= Duration::from_millis(crate::protocol::BUSY_RETRY_AFTER_MS),
            "retried after {:?}, before the hint elapsed",
            started.elapsed()
        );
        assert_eq!(c.send("PING").expect("ping").head, "OK pong");
        release.join().expect("release thread");
    }

    #[test]
    fn quit_closes_only_that_session() {
        let server = Server::spawn(AuditService::tiny_synthetic(3), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let mut a = Client::connect(addr).expect("a");
        let mut b = Client::connect(addr).expect("b");
        assert_eq!(a.send("QUIT").expect("quit").head, "OK bye");
        assert!(a.send("PING").is_err(), "a is closed");
        assert_eq!(b.send("PING").expect("b lives").head, "OK pong");
    }
}
