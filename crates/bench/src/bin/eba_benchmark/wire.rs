//! The wire phases: `eba_server::Client` connections against the live
//! server — the feed writer (`INGEST` batches, back to back or on a
//! schedule), the subscriber (`SUBSCRIBE UNEXPLAINED`, timestamping each
//! pushed `EVENT`) and the auditor sessions (the read cycle). At most two
//! threads generate load; the subscriber's thread only blocks on its
//! socket.

use crate::load::{Inputs, ReadOp};
use crate::spec::{Workload, CYCLE_POOL};
use crate::trace::{SpanId, Tracer, CYCLE_TRACE_BASE};
use eba_server::{Client, ClientConfig, Reply};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Page size of every `UNEXPLAINED` request.
pub const PAGE_ROWS: usize = 50;
/// How long the subscriber waits for a missing `EVENT` after the writer
/// has finished before the run counts it lost.
const EVENT_GRACE: Duration = Duration::from_secs(3);
/// The writer holds its next batch back while the subscriber has this
/// many acknowledged batches' `EVENT`s still to read. The server sheds a
/// subscriber 64 frames behind, which at 1.4 ms a batch is a subscriber
/// thread the host kept off the CPU for 90 ms: that must cost the run
/// time (it lands in `ingest_rows_per_s`), not fail it.
const MAX_EVENTS_BEHIND: usize = 32;

/// Correctness bookkeeping: operations and guard checks attempted, and
/// the ones that failed (with why).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    Repin,
    Metrics,
    Page,
    Explain,
    Timeline,
    Misuse,
}

impl ReadKind {
    pub fn span_name(self) -> &'static str {
        match self {
            ReadKind::Repin => "wire.repin",
            ReadKind::Metrics => "wire.metrics",
            ReadKind::Page => "wire.page",
            ReadKind::Explain => "wire.explain",
            ReadKind::Timeline => "wire.timeline",
            ReadKind::Misuse => "wire.misuse",
        }
    }

    /// The span of the same command replayed through `Session::handle`.
    pub fn session_span_name(self) -> &'static str {
        match self {
            ReadKind::Repin => "session.repin",
            ReadKind::Metrics => "session.metrics",
            ReadKind::Page => "session.page",
            ReadKind::Explain => "session.explain",
            ReadKind::Timeline => "session.timeline",
            ReadKind::Misuse => "session.misuse",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct IngestSample {
    pub batch: usize,
    /// The epoch seq the server reported publishing.
    pub seq: u64,
    /// Offsets from the window start, in ms.
    pub due_ms: f64,
    pub sent_ms: f64,
    pub acked_ms: f64,
    /// When the subscriber read this batch's `EVENT` frame.
    pub event_ms: Option<f64>,
    /// The request's client-side span and its start (tracer time, µs),
    /// on a traced phase.
    pub span: Option<(SpanId, f64)>,
}

#[derive(Debug, Clone)]
pub struct ReadSample {
    pub kind: ReadKind,
    pub ms: f64,
    /// The command as sent, for the layer replay.
    pub command: String,
    pub span: Option<(SpanId, f64)>,
}

/// What the auditor does in a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reader {
    Off,
    /// Read cycles beside the writer, until it has sent its last batch.
    Beside,
    /// This many read cycles per auditor session, the sessions alone (no
    /// writer, no subscriber). A count, not a time, so the reads of every
    /// round are the same reads.
    Alone(usize),
}

#[derive(Debug, Default)]
pub struct WireOutcome {
    pub ingests: Vec<IngestSample>,
    /// `(seq, arrival offset in ms)` per `EVENT` frame, in arrival order.
    pub events: Vec<(u64, f64)>,
    pub reads: Vec<ReadSample>,
    /// Whole read cycles completed, the reads in them, and how long the
    /// auditor sessions were at it (wall time, first cycle to last).
    pub cycles: usize,
    pub cycle_reads: usize,
    pub read_window_ms: f64,
    /// First batch due (or sent) to last batch acknowledged.
    pub write_window_ms: f64,
    pub connect_ms: Vec<f64>,
    pub window_ms: f64,
    pub checks: Checks,
}

impl WireOutcome {
    /// Folds a later phase of the same run into this one.
    pub fn merge(&mut self, later: WireOutcome) {
        self.ingests.extend(later.ingests);
        self.events.extend(later.events);
        self.reads.extend(later.reads);
        self.cycles += later.cycles;
        self.cycle_reads += later.cycle_reads;
        self.read_window_ms += later.read_window_ms;
        self.write_window_ms += later.write_window_ms;
        self.connect_ms.extend(later.connect_ms);
        self.window_ms += later.window_ms;
        self.checks.merge(later.checks);
    }
}

/// The cursor a truncated residue page names in its
/// `next UNEXPLAINED <limit> AFTER <rid>` line.
pub fn next_cursor(body: &[String]) -> Option<u32> {
    body.iter()
        .find_map(|l| l.strip_prefix("next UNEXPLAINED "))
        .and_then(|rest| rest.rsplit(' ').next())
        .and_then(|rid| rid.parse().ok())
}

fn ms_since(t0: Instant, t: Instant) -> f64 {
    t.duration_since(t0).as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

pub fn connect(addr: SocketAddr) -> std::io::Result<(Client, f64)> {
    let t = Instant::now();
    let client = Client::connect(addr)?;
    Ok((client, t.elapsed().as_secs_f64() * 1e3))
}

/// Runs one phase: the writer (with the subscriber) over `batches` of the
/// plan when that range is not empty, and the auditor as `reader` says.
pub fn run_phase(
    addr: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    batches: std::ops::Range<usize>,
    reader: Reader,
    tracer: Option<&Tracer>,
) -> WireOutcome {
    let mut out = WireOutcome::default();
    let t0 = Instant::now();
    if let Reader::Alone(cycles) = reader {
        let stop = AtomicBool::new(false);
        let sessions = std::thread::scope(|s| {
            let others: Vec<_> = (1..w.audit_sessions)
                .map(|k| {
                    let stop = &stop;
                    s.spawn(move || reader_loop(addr, w, inputs, k, Some(cycles), stop, tracer))
                })
                .collect();
            let mut sessions = vec![reader_loop(addr, w, inputs, 0, Some(cycles), &stop, tracer)];
            sessions.extend(others.into_iter().map(|h| h.join().expect("reader thread")));
            sessions
        });
        out.window_ms = ms_since(t0, Instant::now());
        out.read_window_ms = out.window_ms;
        for r in sessions {
            out.absorb_reader(r);
        }
        return out;
    }
    // The subscriber registers before the first batch is sent, so every
    // publish of the phase reaches it.
    let subscriber = match subscribe(addr) {
        Ok((client, ms)) => {
            out.connect_ms.push(ms);
            client
        }
        Err(e) => {
            out.checks.check(false, || format!("subscriber: {e}"));
            return out;
        }
    };
    let writer_done = AtomicBool::new(false);
    let acked = AtomicUsize::new(0);
    let pushed = AtomicUsize::new(0);
    let t0 = Instant::now();
    let (writer, events, reader) = std::thread::scope(|s| {
        let events = s.spawn(|| subscriber_loop(subscriber, t0, &writer_done, &acked, &pushed));
        let reader = (reader == Reader::Beside)
            .then(|| s.spawn(|| reader_loop(addr, w, inputs, 0, None, &writer_done, tracer)));
        let writer = writer_loop(addr, w, inputs, batches, t0, &acked, &pushed, tracer);
        writer_done.store(true, Ordering::SeqCst);
        (
            writer,
            events.join().expect("subscriber thread"),
            reader.map(|r| r.join().expect("reader thread")),
        )
    });
    out.window_ms = ms_since(t0, Instant::now());

    let (ingests, connect_ms, checks) = writer;
    if let (Some(first), Some(last)) = (ingests.first(), ingests.last()) {
        let from = if w.open_loop {
            first.due_ms
        } else {
            first.sent_ms
        };
        out.write_window_ms = last.acked_ms - from;
    }
    out.ingests = ingests;
    out.connect_ms.extend(connect_ms);
    out.checks.merge(checks);

    let (events, checks) = events;
    out.events = events;
    out.checks.merge(checks);
    // Exactly one EVENT per acknowledged batch, in publish order.
    let published: Vec<u64> = out.ingests.iter().map(|i| i.seq).collect();
    let pushed: Vec<u64> = out.events.iter().map(|e| e.0).collect();
    out.checks.check(pushed == published, || {
        format!(
            "EVENT seqs differ from the acknowledged seqs: {} pushed, {} acknowledged",
            pushed.len(),
            published.len()
        )
    });
    let arrived: HashMap<u64, f64> = out.events.iter().copied().collect();
    for i in &mut out.ingests {
        i.event_ms = arrived.get(&i.seq).copied();
    }
    if let Some(r) = reader {
        out.read_window_ms = r.window_ms;
        out.absorb_reader(r);
    }
    out
}

impl WireOutcome {
    fn absorb_reader(&mut self, reader: ReaderOutcome) {
        self.reads.extend(reader.reads);
        self.cycles += reader.cycles;
        self.cycle_reads += reader.cycle_reads;
        self.connect_ms.extend(reader.connect_ms);
        self.checks.merge(reader.checks);
    }
}

fn subscribe(addr: SocketAddr) -> std::io::Result<(Client, f64)> {
    let t = Instant::now();
    // A short read deadline lets the loop notice the end of the window;
    // frames are written whole, so it only ever fires between frames.
    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        },
    )?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let reply = client.send("SUBSCRIBE UNEXPLAINED")?;
    if !reply.head.starts_with("OK subscribed unexplained") {
        return Err(std::io::Error::other(reply.head));
    }
    Ok((client, ms))
}

fn subscriber_loop(
    mut client: Client,
    t0: Instant,
    writer_done: &AtomicBool,
    acked: &AtomicUsize,
    pushed: &AtomicUsize,
) -> (Vec<(u64, f64)>, Checks) {
    let mut events = Vec::new();
    let mut checks = Checks::default();
    let mut done_at: Option<Instant> = None;
    loop {
        match client.next_event() {
            Ok(frame) => {
                let at = ms_since(t0, Instant::now());
                let seq = frame.field("seq").and_then(|s| s.parse::<u64>().ok());
                let well_formed = frame.head.starts_with("EVENT unexplained ") && seq.is_some();
                checks.check(well_formed, || {
                    format!("unexpected subscriber frame: {}", frame.head)
                });
                if !well_formed {
                    break;
                }
                events.push((seq.unwrap_or(0), at));
                pushed.store(events.len(), Ordering::SeqCst);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                checks.check(false, || format!("subscriber: {e}"));
                break;
            }
        }
        if writer_done.load(Ordering::SeqCst) {
            if events.len() >= acked.load(Ordering::SeqCst) {
                break;
            }
            if done_at.get_or_insert_with(Instant::now).elapsed() > EVENT_GRACE {
                break;
            }
        }
    }
    (events, checks)
}

fn writer_loop(
    addr: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    batches: std::ops::Range<usize>,
    t0: Instant,
    acked: &AtomicUsize,
    pushed: &AtomicUsize,
    tracer: Option<&Tracer>,
) -> (Vec<IngestSample>, Vec<f64>, Checks) {
    let mut checks = Checks::default();
    let mut samples = Vec::with_capacity(batches.len());
    let (mut client, connect_ms) = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            checks.check(false, || format!("writer connect: {e}"));
            return (samples, Vec::new(), checks);
        }
    };
    let every = Duration::from_secs_f64(w.batch_ms / 1e3);
    let planned = batches.len();
    let mut hold = true;
    for (i, k) in batches.enumerate() {
        let rows = &inputs.batches[k];
        let held = Instant::now();
        while hold && samples.len() >= pushed.load(Ordering::SeqCst) + MAX_EVENTS_BEHIND {
            // A subscriber that reads nothing for this long is gone (its
            // missing events fail the run); the writer stops waiting.
            hold = held.elapsed() < EVENT_GRACE;
            std::thread::sleep(Duration::from_millis(1));
        }
        // Open loop: due on the schedule, and sent late if the previous
        // ack is still outstanding. Closed loop: due now.
        let due = if w.open_loop {
            let due = t0 + every * i as u32;
            sleep_until(due);
            due
        } else {
            Instant::now()
        };
        let sent = Instant::now();
        let reply = client.ingest(rows);
        let done = Instant::now();
        let n = rows.len();
        match reply {
            Ok(reply) => {
                let seq = reply.field("seq").and_then(|s| s.parse::<u64>().ok());
                let expect_tail = format!(" rows {n} new_rows {n} rebuilt 0");
                let ok = reply.head.starts_with("OK ingest seq ")
                    && reply.head.ends_with(&expect_tail)
                    && reply.body.is_empty()
                    && seq.is_some();
                checks.check(ok, || format!("INGEST {n} (batch {k}): {}", reply.head));
                if !ok {
                    continue;
                }
                let span = tracer.map(|t| {
                    let at = t.at(sent);
                    (t.record("wire.ingest", k as u64, None, at, t.at(done)), at)
                });
                samples.push(IngestSample {
                    batch: k,
                    seq: seq.unwrap_or(0),
                    due_ms: ms_since(t0, due),
                    sent_ms: ms_since(t0, sent),
                    acked_ms: ms_since(t0, done),
                    event_ms: None,
                    span,
                });
                acked.store(samples.len(), Ordering::SeqCst);
            }
            Err(e) => {
                // The connection is gone: this batch and every batch
                // still planned behind it failed.
                for _ in i..planned {
                    checks.check(false, || format!("INGEST {n} (batch {k}): {e}"));
                }
                break;
            }
        }
    }
    (samples, vec![connect_ms], checks)
}

#[derive(Debug, Default)]
struct ReaderOutcome {
    reads: Vec<ReadSample>,
    cycles: usize,
    window_ms: f64,
    cycle_reads: usize,
    connect_ms: Vec<f64>,
    checks: Checks,
}

/// The auditor's session state: where the residue walk stands, the
/// newest lid it has seen reported, and — on a session that never
/// `REPIN`s — the first reply to every command, which each repeat must
/// match byte for byte.
pub struct Auditor {
    pub client: Client,
    cursor: Option<u32>,
    newest_lid: i64,
    pinned_replies: Option<HashMap<String, String>>,
}

impl Auditor {
    pub fn new(client: Client, base_rows: usize, pinned: bool) -> Auditor {
        Auditor {
            client,
            cursor: None,
            newest_lid: base_rows as i64,
            pinned_replies: pinned.then(HashMap::new),
        }
    }

    /// The command line for `op`, resolved against what the session has
    /// learnt so far.
    pub fn command(&self, op: ReadOp) -> (ReadKind, String) {
        match op {
            ReadOp::Repin => (ReadKind::Repin, "REPIN".into()),
            ReadOp::Metrics => (ReadKind::Metrics, "METRICS".into()),
            ReadOp::Page => (
                ReadKind::Page,
                match self.cursor {
                    Some(rid) => format!("UNEXPLAINED {PAGE_ROWS} AFTER {rid}"),
                    None => format!("UNEXPLAINED {PAGE_ROWS}"),
                },
            ),
            ReadOp::ExplainBase { lid } => (ReadKind::Explain, format!("EXPLAIN {lid}")),
            ReadOp::ExplainRecent { back } => (
                ReadKind::Explain,
                format!("EXPLAIN {}", (self.newest_lid - back).max(1)),
            ),
            ReadOp::Timeline => (ReadKind::Timeline, "TIMELINE".into()),
            ReadOp::Misuse => (ReadKind::Misuse, "MISUSE".into()),
        }
    }

    /// Sends one command, checks the reply's shape, and updates the
    /// session state from it. Returns the round-trip time in ms.
    pub fn ask(
        &mut self,
        kind: ReadKind,
        command: &str,
        checks: &mut Checks,
    ) -> Option<(Reply, Instant, Instant)> {
        let sent = Instant::now();
        let reply = self.client.send(command);
        let done = Instant::now();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("{command}: {e}"));
                return None;
            }
        };
        let head = match kind {
            ReadKind::Repin => "OK epoch ",
            ReadKind::Metrics => "OK metrics epoch ",
            ReadKind::Page => "OK unexplained ",
            ReadKind::Explain => "OK explain lid ",
            ReadKind::Timeline => "OK timeline epoch ",
            ReadKind::Misuse => "OK misuse top ",
        };
        checks.check(reply.head.starts_with(head), || {
            format!("{command}: {}", reply.head)
        });
        match kind {
            ReadKind::Metrics => {
                if let Some(total) = reply
                    .body_field("anchor_total")
                    .and_then(|v| v.parse::<i64>().ok())
                {
                    self.newest_lid = total;
                }
            }
            ReadKind::Page => {
                self.cursor = next_cursor(&reply.body);
            }
            _ => {}
        }
        if let Some(first) = &mut self.pinned_replies {
            let rendered = reply.render();
            match first.get(command) {
                Some(before) => checks.check(*before == rendered, || {
                    format!("{command}: a pinned session's repeated read changed")
                }),
                None => {
                    first.insert(command.to_string(), rendered);
                }
            }
        }
        Some((reply, sent, done))
    }
}

/// One auditor session: read cycles, closed loop, until `cycles` of them
/// are done or `stop` is raised, whichever the phase uses. Session
/// `session` of an audit phase starts its walk of the cycle pool at its
/// own offset, so two sessions ask different questions.
fn reader_loop(
    addr: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    session: usize,
    cycles: Option<usize>,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> ReaderOutcome {
    let mut out = ReaderOutcome::default();
    let (client, connect_ms) = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.checks.check(false, || format!("reader connect: {e}"));
            return out;
        }
    };
    out.connect_ms.push(connect_ms);
    let mut auditor = Auditor::new(client, inputs.base_rows, !w.reader.repin);
    let offset = session * CYCLE_POOL / w.audit_sessions;
    let t0 = Instant::now();
    let mut cycle = 0usize;
    let over = |cycle: usize| stop.load(Ordering::SeqCst) || cycles.is_some_and(|n| cycle >= n);
    'window: while !over(cycle) {
        let ops = &inputs.cycles[(offset + cycle) % inputs.cycles.len()];
        let trace = CYCLE_TRACE_BASE + ((session as u64) << 24) + cycle as u64;
        let started = Instant::now();
        let cycle_span = tracer.map(|t| {
            let at = t.at(started);
            t.record("wire.cycle", trace, None, at, at)
        });
        let first = out.reads.len();
        for &op in ops {
            let (kind, command) = auditor.command(op);
            let Some((_, sent, done)) = auditor.ask(kind, &command, &mut out.checks) else {
                break 'window;
            };
            let span = tracer.map(|t| {
                let at = t.at(sent);
                (
                    t.record(kind.span_name(), trace, cycle_span, at, t.at(done)),
                    at,
                )
            });
            out.reads.push(ReadSample {
                kind,
                ms: done.duration_since(sent).as_secs_f64() * 1e3,
                command,
                span,
            });
        }
        let ended = Instant::now();
        if let (Some(t), Some(id)) = (tracer, cycle_span) {
            t.set_end(id, t.at(ended));
        }
        out.cycles += 1;
        out.cycle_reads += out.reads.len() - first;
        out.window_ms = ms_since(t0, ended);
        cycle += 1;
    }
    out
}
