//! The `eba-serve` line protocol: command grammar, typed errors, and the
//! uniformly framed reply.
//!
//! # Framing
//!
//! Requests are single `\n`-terminated ASCII lines (`\r\n` tolerated):
//! a case-insensitive command keyword followed by space-separated
//! arguments. Blank lines and lines starting with `#` are ignored, so the
//! protocol is comfortable to drive from `nc`.
//!
//! Every reply — success or error — has the same frame: a head line
//! beginning with `OK` or `ERR`, zero or more data lines, and a
//! terminating line containing a single `.`. Data lines always begin with
//! a lowercase keyword (never `.`), so a client reads until the lone dot
//! and never needs per-command framing knowledge.
//!
//! # Commands
//!
//! ```text
//! PING                    liveness probe
//! PIN                     report the session's pinned epoch seq
//! REPIN                   pin the latest published epoch
//! SEQ                     published vs pinned sequence numbers
//! SHARDS                  shard count, live seq, per-shard log row counts
//! EXPLAIN <lid>           ranked explanations for one access
//! UNEXPLAINED [limit [AFTER <rid>]]
//!                         the unexplained accesses of the pinned epoch;
//!                         a truncated page names a cursor (`next
//!                         UNEXPLAINED <limit> AFTER <rid>`) that fetches
//!                         the following page in O(limit)
//! METRICS                 suite-level explanation metrics
//! TIMELINE                per-day stats, incl. the clock-skew overflow bucket
//! MISUSE [user]           one user's triage entry, or the top of the queue
//! INGEST <n>              n rows follow, one per line: <user> <patient> <day|->
//! SUBSCRIBE UNEXPLAINED   switch to event mode: one `EVENT unexplained`
//!                         frame per publish that adds unexplained accesses
//! SUBSCRIBE MISUSE <t>    event mode: one `EVENT misuse` frame per user
//!                         whose unexplained count crosses `t` in a publish
//! WARNINGS                operator warnings recorded so far (refused templates,
//!                         shed, persist, full residue)
//! RECOVERY                what startup recovery replayed from the durable store
//! QUIT                    close the session
//! ```
//!
//! # Event mode
//!
//! After `OK subscribed …`, the server initiates frames: each pushed
//! event is dot-framed exactly like a reply but with an `EVENT …` head
//! line, so [`crate::Client::read_reply_frame`] parses it unchanged. A
//! subscribed session accepts only `QUIT` (answered `OK bye`, then
//! close); its pinned epoch no longer matters — events always describe
//! the epoch that published them. Every subscriber owns a bounded event
//! queue; one that stops reading is **shed**: it receives its queued
//! backlog, then one `ERR slow-consumer` frame, and the connection
//! closes. Shedding never stalls the writer or other subscribers.
//!
//! `INGEST` is the single-writer path: the batch goes through
//! [`ShardedEngine::ingest_with`](eba_relational::ShardedEngine::ingest_with) and the
//! reply carries the published seq. All
//! other commands answer from the session's pinned epoch, so a long audit
//! sees one consistent snapshot until it chooses to `REPIN`.
//!
//! # Errors
//!
//! `ERR <code> <message>` with codes `bad-request` (parse/argument
//! errors), `not-found` (lookups), `timeout` (the session idled past the
//! configured socket deadline — sent once, then the connection closes),
//! `busy` (the server is at its connection cap; sent in greeting
//! position, then the connection closes — carries a `retry-after-ms`
//! hint), `toolong` (a request line over the frame cap — sent once, then
//! close — or an `INGEST` count over the batch cap, rejected *before*
//! any row line is read; the session stays usable), `overloaded` (the
//! single-writer ingest path is saturated; the batch was shed — nothing
//! read, nothing published — and the reply carries a `retry-after-ms`
//! hint; read commands never shed), `persist` (an `INGEST` could not be
//! made durable; **nothing was published** — retry after the operator
//! fixes the disk), and `internal` (a recovered panic — the connection
//! and the service both survive it).

use std::fmt;
use std::io::Write;

/// Upper bound on one `INGEST` batch, so a malformed count cannot make
/// the server buffer unbounded input.
pub const MAX_INGEST_BATCH: usize = 100_000;

/// The `retry-after-ms` hint attached to an `ERR busy` rejection: how
/// long a shed connection should wait before reconnecting. Sessions turn
/// over on human timescales, so a fixed second is an honest hint.
pub const BUSY_RETRY_AFTER_MS: u64 = 1_000;

/// Ceiling on the `ERR overloaded` retry hint. Queue depth is a noisy
/// instantaneous reading — a momentary spike of hundreds of in-flight
/// batches must not tell clients to stall for minutes.
pub const OVERLOAD_RETRY_CAP_MS: u64 = 10_000;

/// The `retry-after-ms` hint for an `ERR overloaded` shed, scaled by how
/// deep the writer queue was when the batch was refused: each in-flight
/// ingest ahead of the client is worth ~100 ms of writer time, capped at
/// [`OVERLOAD_RETRY_CAP_MS`].
pub fn overload_retry_after_ms(in_flight: usize) -> u64 {
    100u64
        .saturating_mul(in_flight.max(1) as u64)
        .min(OVERLOAD_RETRY_CAP_MS)
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `PING` — liveness probe.
    Ping,
    /// `PIN` — report the pinned epoch without changing it.
    Pin,
    /// `REPIN` — pin the latest published epoch.
    Repin,
    /// `SEQ` — published vs pinned sequence numbers.
    Seq,
    /// `SHARDS` — shard count, live seq, and per-shard log row counts of
    /// the pinned epoch vector.
    Shards,
    /// `EXPLAIN <lid>` — ranked explanations for one access.
    Explain { lid: i64 },
    /// `UNEXPLAINED [limit [AFTER <rid>]]` — unexplained accesses,
    /// optionally truncated to one page starting past a cursor.
    Unexplained {
        /// Page size (`None`: the full listing).
        limit: Option<usize>,
        /// Resume after this **global** row id (the cursor a truncated
        /// page names in its `next …` line).
        after: Option<u32>,
    },
    /// `METRICS` — suite-level explanation metrics over the pinned epoch.
    Metrics,
    /// `TIMELINE` — per-day stats plus the overflow bucket.
    Timeline,
    /// `MISUSE [user]` — one user's triage entry or the top of the queue.
    Misuse { user: Option<i64> },
    /// `INGEST <n>` — `n` rows follow on continuation lines.
    Ingest { count: usize },
    /// `SUBSCRIBE …` — switch the session into event mode.
    Subscribe {
        /// What to be notified about.
        kind: crate::push::SubscriptionKind,
    },
    /// `WARNINGS` — operator warnings recorded so far (refused suite
    /// templates, sheds, persist failures and whole-residue advances).
    Warnings,
    /// `RECOVERY` — what startup recovery replayed from the durable
    /// store (or that the service is volatile).
    Recovery,
    /// `QUIT` — close the session.
    Quit,
}

impl Command {
    /// Parses one request line (already stripped of its terminator).
    /// Returns `Ok(None)` for blank and `#`-comment lines.
    pub fn parse(line: &str) -> Result<Option<Command>, ProtocolError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line").to_ascii_uppercase();
        let args: Vec<&str> = words.collect();
        let arity = |max: usize, usage: &'static str| -> Result<(), ProtocolError> {
            if args.len() > max {
                Err(ProtocolError::Usage(usage))
            } else {
                Ok(())
            }
        };
        let cmd = match keyword.as_str() {
            "PING" => {
                arity(0, "PING")?;
                Command::Ping
            }
            "PIN" => {
                arity(0, "PIN")?;
                Command::Pin
            }
            "REPIN" => {
                arity(0, "REPIN")?;
                Command::Repin
            }
            "SEQ" => {
                arity(0, "SEQ")?;
                Command::Seq
            }
            "SHARDS" => {
                arity(0, "SHARDS")?;
                Command::Shards
            }
            "EXPLAIN" => {
                arity(1, "EXPLAIN <lid>")?;
                let lid = args.first().ok_or(ProtocolError::Usage("EXPLAIN <lid>"))?;
                Command::Explain {
                    lid: parse_int(lid, "lid")?,
                }
            }
            "UNEXPLAINED" => {
                const USAGE: &str = "UNEXPLAINED [limit [AFTER <rid>]]";
                arity(3, USAGE)?;
                let limit = match args.first() {
                    None => None,
                    Some(v) => Some(parse_count(v, "limit")?),
                };
                let after = match args.get(1) {
                    None => None,
                    Some(kw) if kw.eq_ignore_ascii_case("AFTER") => {
                        let rid = args.get(2).ok_or(ProtocolError::Usage(USAGE))?;
                        let rid = parse_count(rid, "after rid")?;
                        Some(u32::try_from(rid).map_err(|_| ProtocolError::BadInt {
                            what: "after rid",
                            got: rid.to_string(),
                        })?)
                    }
                    Some(_) => return Err(ProtocolError::Usage(USAGE)),
                };
                if after.is_none() && args.len() > 1 {
                    return Err(ProtocolError::Usage(USAGE));
                }
                Command::Unexplained { limit, after }
            }
            "METRICS" => {
                arity(0, "METRICS")?;
                Command::Metrics
            }
            "TIMELINE" => {
                arity(0, "TIMELINE")?;
                Command::Timeline
            }
            "MISUSE" => {
                arity(1, "MISUSE [user]")?;
                let user = match args.first() {
                    None => None,
                    Some(v) => Some(parse_int(v, "user")?),
                };
                Command::Misuse { user }
            }
            "SUBSCRIBE" => {
                const USAGE: &str = "SUBSCRIBE UNEXPLAINED | SUBSCRIBE MISUSE <threshold>";
                arity(2, USAGE)?;
                let kind = args.first().ok_or(ProtocolError::Usage(USAGE))?;
                let kind = match kind.to_ascii_uppercase().as_str() {
                    "UNEXPLAINED" => {
                        if args.len() > 1 {
                            return Err(ProtocolError::Usage(USAGE));
                        }
                        crate::push::SubscriptionKind::Unexplained
                    }
                    "MISUSE" => {
                        let t = args.get(1).ok_or(ProtocolError::Usage(USAGE))?;
                        let threshold = parse_count(t, "threshold")?;
                        if threshold == 0 {
                            return Err(ProtocolError::Usage(USAGE));
                        }
                        crate::push::SubscriptionKind::Misuse { threshold }
                    }
                    _ => return Err(ProtocolError::Usage(USAGE)),
                };
                Command::Subscribe { kind }
            }
            "INGEST" => {
                arity(1, "INGEST <n>")?;
                let n = args.first().ok_or(ProtocolError::Usage("INGEST <n>"))?;
                let count = parse_count(n, "row count")?;
                if count == 0 || count > MAX_INGEST_BATCH {
                    return Err(ProtocolError::BatchSize {
                        got: count,
                        max: MAX_INGEST_BATCH,
                    });
                }
                Command::Ingest { count }
            }
            "WARNINGS" => {
                arity(0, "WARNINGS")?;
                Command::Warnings
            }
            "RECOVERY" => {
                arity(0, "RECOVERY")?;
                Command::Recovery
            }
            "QUIT" => {
                arity(0, "QUIT")?;
                Command::Quit
            }
            other => return Err(ProtocolError::UnknownCommand(other.to_string())),
        };
        Ok(Some(cmd))
    }
}

fn parse_int(s: &str, what: &'static str) -> Result<i64, ProtocolError> {
    s.parse().map_err(|_| ProtocolError::BadInt {
        what,
        got: s.to_string(),
    })
}

fn parse_count(s: &str, what: &'static str) -> Result<usize, ProtocolError> {
    s.parse().map_err(|_| ProtocolError::BadInt {
        what,
        got: s.to_string(),
    })
}

/// One row of an `INGEST` batch: `<user> <patient> <day|->`.
///
/// `day` is the 1-based reporting day; `-` means the source had no usable
/// day stamp (it lands in the timeline's overflow bucket, like any other
/// clock-skewed day value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestRow {
    /// Accessing user id.
    pub user: i64,
    /// Accessed patient id.
    pub patient: i64,
    /// 1-based day of the access, or `None` for a missing stamp.
    pub day: Option<i64>,
}

impl IngestRow {
    /// Parses one continuation line of an `INGEST` batch.
    pub fn parse(line: &str, index: usize) -> Result<IngestRow, ProtocolError> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [user, patient, day] = fields.as_slice() else {
            return Err(ProtocolError::BadRow {
                index,
                reason: format!(
                    "expected `<user> <patient> <day|->`, got {} field(s)",
                    fields.len()
                ),
            });
        };
        let int = |s: &str, what: &str| -> Result<i64, ProtocolError> {
            s.parse().map_err(|_| ProtocolError::BadRow {
                index,
                reason: format!("{what} `{s}` is not an integer"),
            })
        };
        Ok(IngestRow {
            user: int(user, "user")?,
            patient: int(patient, "patient")?,
            day: if *day == "-" {
                None
            } else {
                Some(int(day, "day")?)
            },
        })
    }

    /// The wire form [`IngestRow::parse`] accepts.
    pub fn render(&self) -> String {
        match self.day {
            Some(d) => format!("{} {} {}", self.user, self.patient, d),
            None => format!("{} {} -", self.user, self.patient),
        }
    }
}

/// Typed protocol-level failures; every variant renders as one
/// `ERR <code> <message>` head line. No panic reaches the socket: the
/// session layer converts recovered panics to [`ProtocolError::Internal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The command keyword is not part of the grammar.
    UnknownCommand(String),
    /// Wrong argument shape; carries the usage string.
    Usage(&'static str),
    /// An argument that must be an integer was not.
    BadInt {
        /// What the argument denotes.
        what: &'static str,
        /// The offending token.
        got: String,
    },
    /// An `INGEST` batch size outside `1..=MAX_INGEST_BATCH`.
    BatchSize {
        /// The requested count.
        got: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// A malformed `INGEST` continuation line.
    BadRow {
        /// 0-based row index within the batch.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The connection ended mid-`INGEST` batch.
    TruncatedBatch {
        /// Rows received before the stream ended.
        got: usize,
        /// Rows announced.
        expected: usize,
    },
    /// A request line exceeded the session's frame cap; the reply is
    /// sent once and the connection is closed (the overlong tail is
    /// never buffered).
    LineTooLong {
        /// The configured cap, in bytes.
        max: usize,
    },
    /// A lookup found nothing (e.g. an unknown lid).
    NotFound(String),
    /// The session sat past its socket deadline; the reply is sent once
    /// and the connection is closed.
    Timeout {
        /// The configured deadline, in seconds.
        seconds: u64,
    },
    /// The server is at its connection cap. Sent in greeting position to
    /// the excess connection, which is then closed — a typed refusal,
    /// never a silent drop.
    Busy {
        /// Open sessions at the moment of refusal.
        live: usize,
        /// The configured cap.
        max: usize,
    },
    /// The single-writer ingest path is saturated; this batch was shed
    /// before any row line was read. Nothing was published and nothing
    /// is durable — the client retries after the hint. Read commands
    /// are never shed.
    Overloaded {
        /// Ingests already in flight (writing or waiting) when the
        /// batch was refused.
        in_flight: usize,
    },
    /// An `INGEST` batch could not be made durable. Nothing was
    /// published: the acknowledged history is still a prefix of the
    /// durable one, and the client may retry.
    Persist(String),
    /// A subscriber stopped draining its bounded event queue and was
    /// shed. Sent once (after the queued backlog delivered), then the
    /// connection closes; resubscribing starts a fresh feed.
    SlowConsumer {
        /// Frames that were undelivered when the queue overflowed.
        queued: usize,
    },
    /// A recovered panic; the session keeps serving.
    Internal(String),
}

impl ProtocolError {
    /// The machine-readable error code of the `ERR` head line.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::UnknownCommand(_)
            | ProtocolError::Usage(_)
            | ProtocolError::BadInt { .. }
            | ProtocolError::BadRow { .. }
            | ProtocolError::TruncatedBatch { .. } => "bad-request",
            // A zero-row batch is malformed; an oversized one is a
            // resource-limit refusal, same family as an overlong line.
            ProtocolError::BatchSize { got: 0, .. } => "bad-request",
            ProtocolError::BatchSize { .. } | ProtocolError::LineTooLong { .. } => "toolong",
            ProtocolError::NotFound(_) => "not-found",
            ProtocolError::Timeout { .. } => "timeout",
            ProtocolError::Busy { .. } => "busy",
            ProtocolError::Overloaded { .. } => "overloaded",
            ProtocolError::Persist(_) => "persist",
            ProtocolError::SlowConsumer { .. } => "slow-consumer",
            ProtocolError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownCommand(kw) => write!(f, "unknown command `{kw}`"),
            ProtocolError::Usage(usage) => write!(f, "usage: {usage}"),
            ProtocolError::BadInt { what, got } => {
                write!(f, "{what} `{got}` is not an integer")
            }
            ProtocolError::BatchSize { got, max } => {
                write!(f, "ingest batch of {got} rows outside 1..={max}")
            }
            ProtocolError::BadRow { index, reason } => {
                write!(f, "ingest row {index}: {reason}")
            }
            ProtocolError::TruncatedBatch { got, expected } => {
                write!(f, "connection closed after {got} of {expected} ingest rows")
            }
            ProtocolError::LineTooLong { max } => {
                write!(f, "request line exceeds the {max}-byte frame cap; closing")
            }
            ProtocolError::NotFound(what) => write!(f, "{what}"),
            ProtocolError::Timeout { seconds } => {
                write!(f, "session idle past the {seconds}s limit; closing")
            }
            ProtocolError::Busy { live, max } => {
                write!(
                    f,
                    "connection cap reached ({live} live / max {max}); \
                     retry-after-ms {BUSY_RETRY_AFTER_MS}"
                )
            }
            ProtocolError::Overloaded { in_flight } => {
                write!(
                    f,
                    "ingest writer saturated ({in_flight} batch(es) in flight); \
                     batch shed, nothing published; retry-after-ms {}",
                    overload_retry_after_ms(*in_flight)
                )
            }
            ProtocolError::Persist(what) => {
                write!(f, "batch not durable, nothing published: {what}")
            }
            ProtocolError::SlowConsumer { queued } => {
                write!(
                    f,
                    "event queue overflowed ({queued} frames undelivered); \
                     subscription shed, resubscribe for a fresh feed"
                )
            }
            ProtocolError::Internal(what) => write!(f, "recovered internal panic: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One framed reply: the `OK`/`ERR` head line plus data lines, written
/// with the terminating `.`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The head line (starts with `OK` or `ERR`).
    pub head: String,
    /// Data lines (each begins with a lowercase keyword, never `.`).
    pub body: Vec<String>,
}

impl Response {
    /// A success reply; `head` is appended to `OK `.
    pub fn ok(head: impl Into<String>) -> Response {
        Response {
            head: format!("OK {}", head.into()),
            body: Vec::new(),
        }
    }

    /// An error reply.
    pub fn err(e: &ProtocolError) -> Response {
        Response {
            head: format!("ERR {} {e}", e.code()),
            body: Vec::new(),
        }
    }

    /// Appends one data line.
    pub fn push(&mut self, line: impl Into<String>) {
        let line = line.into();
        debug_assert!(!line.starts_with('.'), "data lines must not start with '.'");
        self.body.push(line);
    }

    /// Whether the head line reports success.
    pub fn is_ok(&self) -> bool {
        self.head.starts_with("OK")
    }

    /// Writes the framed reply (head, body, `.`) and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.head.len() + 2 + 16 * self.body.len());
        out.push_str(&self.head);
        out.push('\n');
        for line in &self.body {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(".\n");
        w.write_all(out.as_bytes())?;
        w.flush()
    }
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Response {
        Response::err(&e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_parse_case_insensitively() {
        assert_eq!(Command::parse("ping").unwrap(), Some(Command::Ping));
        assert_eq!(Command::parse("  PiNg  ").unwrap(), Some(Command::Ping));
        assert_eq!(Command::parse("REPIN").unwrap(), Some(Command::Repin));
        assert_eq!(
            Command::parse("explain 42").unwrap(),
            Some(Command::Explain { lid: 42 })
        );
        assert_eq!(
            Command::parse("UNEXPLAINED").unwrap(),
            Some(Command::Unexplained {
                limit: None,
                after: None
            })
        );
        assert_eq!(
            Command::parse("UNEXPLAINED 5").unwrap(),
            Some(Command::Unexplained {
                limit: Some(5),
                after: None
            })
        );
        assert_eq!(
            Command::parse("unexplained 5 after 41").unwrap(),
            Some(Command::Unexplained {
                limit: Some(5),
                after: Some(41)
            })
        );
        assert_eq!(
            Command::parse("SUBSCRIBE unexplained").unwrap(),
            Some(Command::Subscribe {
                kind: crate::push::SubscriptionKind::Unexplained
            })
        );
        assert_eq!(
            Command::parse("subscribe MISUSE 3").unwrap(),
            Some(Command::Subscribe {
                kind: crate::push::SubscriptionKind::Misuse { threshold: 3 }
            })
        );
        assert_eq!(
            Command::parse("MISUSE -3").unwrap(),
            Some(Command::Misuse { user: Some(-3) })
        );
        assert_eq!(
            Command::parse("ingest 10").unwrap(),
            Some(Command::Ingest { count: 10 })
        );
        assert_eq!(Command::parse("warnings").unwrap(), Some(Command::Warnings));
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(Command::parse("").unwrap(), None);
        assert_eq!(Command::parse("   \t ").unwrap(), None);
        assert_eq!(Command::parse("# a comment").unwrap(), None);
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        assert!(matches!(
            Command::parse("FROB").unwrap_err(),
            ProtocolError::UnknownCommand(_)
        ));
        assert!(matches!(
            Command::parse("EXPLAIN").unwrap_err(),
            ProtocolError::Usage("EXPLAIN <lid>")
        ));
        assert!(matches!(
            Command::parse("EXPLAIN twelve").unwrap_err(),
            ProtocolError::BadInt { what: "lid", .. }
        ));
        assert!(matches!(
            Command::parse("PING extra").unwrap_err(),
            ProtocolError::Usage("PING")
        ));
        assert!(matches!(
            Command::parse("INGEST 0").unwrap_err(),
            ProtocolError::BatchSize { got: 0, .. }
        ));
        assert!(matches!(
            Command::parse(&format!("INGEST {}", MAX_INGEST_BATCH + 1)).unwrap_err(),
            ProtocolError::BatchSize { .. }
        ));
        let err = Command::parse("MISUSE 1 2").unwrap_err();
        assert_eq!(err.code(), "bad-request");
        // The pagination cursor needs both the keyword and the rid — and
        // a limit to resume from; a bare AFTER is malformed.
        for bad in [
            "UNEXPLAINED 5 AFTER",
            "UNEXPLAINED 5 BEFORE 3",
            "UNEXPLAINED 5 3",
            "UNEXPLAINED 5 AFTER x",
            "UNEXPLAINED 5 AFTER -1",
        ] {
            assert_eq!(
                Command::parse(bad).unwrap_err().code(),
                "bad-request",
                "{bad}"
            );
        }
        for bad in [
            "SUBSCRIBE",
            "SUBSCRIBE METRICS",
            "SUBSCRIBE MISUSE",
            "SUBSCRIBE MISUSE 0",
            "SUBSCRIBE MISUSE x",
            "SUBSCRIBE UNEXPLAINED 3",
        ] {
            assert_eq!(
                Command::parse(bad).unwrap_err().code(),
                "bad-request",
                "{bad}"
            );
        }
        assert_eq!(
            ProtocolError::SlowConsumer { queued: 64 }.code(),
            "slow-consumer"
        );
    }

    #[test]
    fn overload_errors_carry_typed_codes_and_retry_hints() {
        // A zero batch is malformed; an oversized one is a limit refusal.
        assert_eq!(
            ProtocolError::BatchSize { got: 0, max: 10 }.code(),
            "bad-request"
        );
        assert_eq!(
            ProtocolError::BatchSize { got: 11, max: 10 }.code(),
            "toolong"
        );
        assert_eq!(ProtocolError::LineTooLong { max: 4096 }.code(), "toolong");
        let busy = ProtocolError::Busy { live: 64, max: 64 };
        assert_eq!(busy.code(), "busy");
        assert!(busy.to_string().contains("retry-after-ms"), "{busy}");
        let shed = ProtocolError::Overloaded { in_flight: 3 };
        assert_eq!(shed.code(), "overloaded");
        assert!(
            shed.to_string()
                .contains(&format!("retry-after-ms {}", overload_retry_after_ms(3))),
            "{shed}"
        );
        // The hint scales with queue depth but never reads zero.
        assert_eq!(overload_retry_after_ms(0), 100);
        assert!(overload_retry_after_ms(5) > overload_retry_after_ms(1));
        // ... and saturates at the cap instead of telling a client caught
        // behind a spike to stall for minutes.
        assert_eq!(overload_retry_after_ms(99), 9_900);
        assert_eq!(overload_retry_after_ms(100), OVERLOAD_RETRY_CAP_MS);
        assert_eq!(overload_retry_after_ms(1_000), OVERLOAD_RETRY_CAP_MS);
        assert_eq!(overload_retry_after_ms(usize::MAX), OVERLOAD_RETRY_CAP_MS);
        let head = Response::err(&shed).head;
        assert!(head.starts_with("ERR overloaded "), "{head}");
    }

    #[test]
    fn ingest_rows_round_trip() {
        for row in [
            IngestRow {
                user: 7,
                patient: 10001,
                day: Some(3),
            },
            IngestRow {
                user: 1,
                patient: 2,
                day: None,
            },
        ] {
            assert_eq!(IngestRow::parse(&row.render(), 0).unwrap(), row);
        }
        assert!(matches!(
            IngestRow::parse("1 2", 4).unwrap_err(),
            ProtocolError::BadRow { index: 4, .. }
        ));
        assert!(IngestRow::parse("1 x 3", 0).is_err());
    }

    #[test]
    fn responses_are_dot_framed() {
        let mut r = Response::ok("metrics epoch 0");
        r.push("anchor_total 10");
        let mut buf = Vec::new();
        r.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "OK metrics epoch 0\nanchor_total 10\n.\n"
        );
        assert!(r.is_ok());
        let e = Response::err(&ProtocolError::NotFound("no log record".into()));
        assert!(!e.is_ok());
        assert!(e.head.starts_with("ERR not-found "));
    }
}
