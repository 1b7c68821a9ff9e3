//! The network chaos suite: `eba-serve` under connection storms, torn
//! frames, half-written batches, stalled peers, and writer saturation.
//!
//! Every fault is injected at the byte level — raw sockets and the
//! [`common::chaos::ChaosProxy`] — and the invariants are the overload
//! contract from the limits design:
//!
//! * **zero silent drops**: every rejected connection or batch gets a
//!   typed `ERR busy` / `ERR toolong` / `ERR overloaded` reply;
//! * **zero leaked workers**: every torn/stalled session is reaped;
//! * **acked ⊆ durable**: an acknowledged `INGEST` survives on disk, a
//!   cut-off one leaves no trace, a torn *reply* is atomic (all or
//!   nothing in the published log — never a partial batch);
//! * **reads never degrade**: pinned sessions stay byte-identical
//!   through every storm.

use eba::relational::pile::default_checkpoint_rows;
use eba::relational::{Durability, DurableStore, Value};
use eba::server::{
    AuditService, Client, ClientConfig, IngestRow, RetryPolicy, Server, ServerConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

mod common;

use common::chaos::{ChaosProxy, Plan};

/// Polls `cond` until it holds or the deadline passes.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

/// A batch whose rows carry a recognizable user marker, so the published
/// log and the reopened pile can be audited for exactly which batches
/// made it in.
fn marked_batch(marker: i64, rows: usize) -> Vec<IngestRow> {
    (0..rows)
        .map(|i| IngestRow {
            user: marker + i as i64,
            patient: 10_000 + i as i64,
            day: Some(1 + (i as i64 % 3)),
        })
        .collect()
}

/// How many rows of `marked_batch(marker, rows)` are in the published
/// log.
fn marker_rows_published(service: &AuditService, marker: i64, rows: usize) -> usize {
    let epochs = service.sharded().load();
    let user_col = service.cols.user;
    epochs
        .shards()
        .iter()
        .map(|shard| {
            let log = shard.db().table(service.spec.table);
            (0..log.len() as u32)
                .filter(|&rid| {
                    let Value::Int(u) = log.row(rid)[user_col] else {
                        return false;
                    };
                    u >= marker && u < marker + rows as i64
                })
                .count()
        })
        .sum()
}

/// Tentpole invariant 1: a connection storm at 4× the cap. Every
/// over-cap connection gets a typed `ERR busy` (with a retry hint) and a
/// close — never a silent drop — the cap is never exceeded, the pinned
/// session stays byte-identical throughout, the shed lands on the
/// operator record, and every slot is reclaimed afterwards.
#[test]
fn connection_storm_gets_typed_busy_and_leaks_nothing() {
    const CAP: usize = 6;
    const STORM: usize = 24;
    let config = ServerConfig {
        max_connections: CAP,
        ..ServerConfig::default()
    };
    let server =
        Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // The pinned observer occupies one slot before the storm.
    let mut pinned = Client::connect(addr).expect("pinned session");
    let baseline = pinned.send("METRICS").expect("metrics").render();

    let admitted: Mutex<Vec<Client>> = Mutex::new(Vec::new());
    let busy = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..STORM {
            s.spawn(|| match Client::connect(addr) {
                Ok(client) => admitted.lock().unwrap().push(client),
                Err(e) => {
                    // The refusal is typed, hinted, and never silent.
                    let text = e.to_string();
                    assert!(text.contains("ERR busy "), "untyped rejection: {text}");
                    assert!(text.contains("retry-after-ms"), "{text}");
                    busy.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    let mut admitted = admitted.into_inner().unwrap();
    // Admitted sessions hold their slots for the whole storm, so the cap
    // is exact: CAP - 1 storm connections in, the rest typed away.
    assert_eq!(admitted.len(), CAP - 1, "cap overrun or under-admission");
    assert_eq!(busy.load(Ordering::SeqCst), STORM - (CAP - 1));
    assert_eq!(server.live_sessions(), CAP);

    // Reads never degraded: the pinned session is byte-identical and
    // every admitted session answers.
    assert_eq!(pinned.send("METRICS").expect("metrics").render(), baseline);
    for c in &mut admitted {
        assert_eq!(c.send("PING").expect("ping").head, "OK pong");
    }
    // The storm is on the operator record.
    assert!(
        server
            .service()
            .warnings()
            .iter()
            .any(|w| w.contains("connection shed at the cap")),
        "shed storm left no operator trace"
    );

    // Every slot comes back once the storm connections close.
    drop(admitted);
    eventually("storm slots reclaimed", || server.live_sessions() == 1);
    let mut after = Client::connect(addr).expect("slot free after the storm");
    assert_eq!(after.send("PING").expect("ping").head, "OK pong");
    assert_eq!(pinned.send("METRICS").expect("metrics").render(), baseline);
}

/// Tentpole invariant 2: byte-level network faults against a durable
/// server. Torn reply frames, requests cut mid-`INGEST`, and stalled
/// links never corrupt state: acknowledged batches are fully published
/// and fully on disk, cut batches leave no trace, torn-reply batches are
/// atomic, and every faulted session is reaped.
#[test]
fn byte_level_faults_never_corrupt_durable_state() {
    let dir = std::env::temp_dir().join(format!("eba-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pile = dir.join("pile.seg");

    let service = AuditService::from_hospital_durable_sharded(
        common::AuditWorld::tiny(71).hospital,
        &pile,
        Durability::Strict,
        common::test_shards(),
    )
    .expect("open durable store");
    let config = ServerConfig {
        // Short deadlines so cut-off sessions die inside the test.
        read_timeout: Some(Duration::from_secs(1)),
        write_timeout: Some(Duration::from_secs(1)),
        ..ServerConfig::default()
    };
    let mut server = Server::spawn_with(service, "127.0.0.1:0", config).expect("bind");
    let proxy = ChaosProxy::spawn(server.local_addr()).expect("proxy");

    const ROWS: usize = 12;
    let marker = |round: usize| 900_000 + (round as i64) * 1_000;
    let mut acked: Vec<usize> = Vec::new(); // rounds whose reply said OK
    let mut cut: Vec<usize> = Vec::new(); // rounds cut client→server
    let mut torn: Vec<usize> = Vec::new(); // rounds torn server→client

    for round in 0..8usize {
        let rows = marked_batch(marker(round), ROWS);
        match round % 4 {
            // Clean forwarding: the ack is authoritative.
            0 => {
                proxy.push_plan(Plan::Clean);
                let mut c = Client::connect(proxy.addr()).expect("clean connect");
                let reply = c.ingest(&rows).expect("clean ingest");
                assert!(reply.is_ok(), "{}", reply.head);
                acked.push(round);
            }
            // The reply stream tears right after the greeting: the
            // server may have acked, the client cannot know — the batch
            // must land atomically (all rows or none).
            1 => {
                proxy.push_plan(Plan::TearReplyAfter(40));
                let mut c = Client::connect(proxy.addr()).expect("torn connect");
                let _ = c.ingest(&rows); // Err or truncated — both fine
                torn.push(round);
            }
            // The request stream is cut mid-batch: the server saw the
            // header and a fragment of the rows. Nothing may publish.
            2 => {
                proxy.push_plan(Plan::CutRequestAfter(15));
                let mut c = Client::connect(proxy.addr()).expect("cut connect");
                let _ = c.ingest(&rows);
                cut.push(round);
            }
            // A congested path: replies arrive late but intact, and the
            // session survives.
            _ => {
                proxy.push_plan(Plan::StallRepliesFor(Duration::from_millis(300)));
                let mut c = Client::connect(proxy.addr()).expect("stalled connect");
                let reply = c.ingest(&rows).expect("stalled ingest still answers");
                assert!(reply.is_ok(), "{}", reply.head);
                acked.push(round);
            }
        }
    }

    // Every faulted session is reaped — no leaked workers.
    eventually("faulted sessions reaped", || server.live_sessions() == 0);

    // Published-state audit, straight off the served epoch.
    let service = server.service().clone();
    for &round in &acked {
        assert_eq!(
            marker_rows_published(&service, marker(round), ROWS),
            ROWS,
            "acked round {round} must be fully published"
        );
    }
    for &round in &cut {
        assert_eq!(
            marker_rows_published(&service, marker(round), ROWS),
            0,
            "cut round {round} must publish nothing"
        );
    }
    for &round in &torn {
        let got = marker_rows_published(&service, marker(round), ROWS);
        assert!(
            got == 0 || got == ROWS,
            "torn round {round} published a partial batch: {got}/{ROWS}"
        );
    }
    // No panic ever crossed the session barrier.
    assert!(
        !service
            .warnings()
            .iter()
            .any(|w| w.contains("ERR internal") || w.contains("panic")),
        "{:?}",
        service.warnings()
    );

    // Durability audit: reopen the pile cold. Acked ⊆ durable, and the
    // on-disk rows agree exactly with what was published.
    server.shutdown();
    drop(server);
    let (_store, batches, report) =
        DurableStore::open(&pile, Durability::Strict, default_checkpoint_rows())
            .expect("reopen pile");
    assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    let durable_rows: usize = batches.iter().map(|b| b.rows.len()).sum();
    let published_markers: usize = (0..8)
        .map(|r| marker_rows_published(&service, marker(r), ROWS))
        .sum();
    assert_eq!(
        durable_rows, published_markers,
        "published and durable logs disagree"
    );
    assert!(
        durable_rows >= acked.len() * ROWS,
        "an acknowledged batch is missing from disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole invariant 3: a peer that requests replies and never reads
/// them cannot wedge a worker. The write-side deadline fires, the
/// session is torn down with the reason on the operator record, and the
/// server keeps serving everyone else.
#[test]
fn slow_reader_is_torn_down_with_a_logged_reason() {
    let config = ServerConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    };
    let server =
        Server::spawn_with(AuditService::tiny_synthetic(3), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // The slow reader: pipelines thousands of large-reply requests and
    // never reads a byte back. Kernel buffers fill, the server's reply
    // write stalls, its deadline fires.
    let slow = std::net::TcpStream::connect(addr).expect("connect");
    // The TCP handshake completes before the accept loop registers the
    // session — wait for the registration, or the "torn down" polls
    // below could pass vacuously against a not-yet-live session.
    eventually("slow session registered", || server.live_sessions() == 1);
    slow.set_write_timeout(Some(Duration::from_millis(200)))
        .expect("cfg");
    {
        use std::io::Write;
        let mut w = &slow;
        let request = b"UNEXPLAINED\n".repeat(5_000);
        // Our own send also jams once the server stops reading — that is
        // the point, not a failure.
        let _ = w.write_all(&request);
        let _ = w.flush();
    }

    // The teardown reason lands on the operator record, and the worker
    // is reaped — not wedged, not leaked.
    eventually("write-stall warning recorded", || {
        server
            .service()
            .warnings()
            .iter()
            .any(|w| w.contains("stalled past the deadline"))
    });
    eventually("slow reader torn down", || server.live_sessions() == 0);
    drop(slow);

    // The server shrugged it off.
    let mut fresh = Client::connect(addr).expect("still accepting");
    assert!(fresh.send("METRICS").expect("metrics").is_ok());
}

/// Tentpole invariant 4: writer saturation sheds *writes* with a typed
/// `ERR overloaded` + retry hint, reads never degrade, and a client
/// using the retry policy lands the batch once the writer drains.
#[test]
fn saturated_writer_sheds_typed_and_retry_lands_the_batch() {
    let config = ServerConfig {
        max_ingest_queue: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::spawn_with(AuditService::tiny_synthetic(9), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let service = server.service().clone();

    let mut pinned = Client::connect(addr).expect("pinned reader");
    let baseline = pinned.send("METRICS").expect("metrics").render();

    // Several large library-path ingests pile onto the single-writer
    // path (the library path queues, it never sheds), holding it
    // saturated for a long, deterministic window.
    const WRITERS: usize = 6;
    const BIG: usize = 60_000;
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                service
                    .ingest_rows(&marked_batch(1_000_000 + (t as i64) * 100_000, BIG))
                    .expect("library ingest")
            })
        })
        .collect();
    eventually("writer path saturated", || service.ingest_in_flight() >= 2);

    // A wire ingest while the writer is busy: shed, typed, hinted.
    let mut shed_client = Client::connect(addr).expect("shed client");
    let reply = shed_client
        .ingest(&marked_batch(600_000, 5))
        .expect("a shed is a reply, not a dead socket");
    assert!(reply.head.starts_with("ERR overloaded "), "{}", reply.head);
    assert!(reply.head.contains("retry-after-ms"), "{}", reply.head);
    assert!(reply.head.contains("nothing published"), "{}", reply.head);
    assert_eq!(
        marker_rows_published(&service, 600_000, 5),
        0,
        "a shed batch must publish nothing"
    );
    assert!(service.shed_ingest_count() >= 1);
    assert!(
        service.warnings().iter().any(|w| w.contains("ingest shed")),
        "{:?}",
        service.warnings()
    );

    // Reads never degrade under writer saturation: the pinned session is
    // byte-identical and a fresh session answers immediately.
    assert_eq!(pinned.send("METRICS").expect("metrics").render(), baseline);
    let mut fresh = Client::connect(addr).expect("fresh reader");
    assert!(fresh.send("UNEXPLAINED 3").expect("unexplained").is_ok());

    // The session that was shed is still usable, and the retry policy
    // lands the batch once the writer drains.
    let retry_config = ClientConfig {
        retry: RetryPolicy {
            retries: 60,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(500),
        },
        ..ClientConfig::default()
    };
    let mut retrier = Client::connect_with(addr, retry_config).expect("retrier");
    let reply = retrier
        .ingest_with_retry(&marked_batch(600_000, 5))
        .expect("retry loop");
    assert!(reply.is_ok(), "retries exhausted: {}", reply.head);
    for w in writers {
        w.join().expect("library ingest thread");
    }
    for t in 0..WRITERS {
        assert_eq!(
            marker_rows_published(&service, 1_000_000 + (t as i64) * 100_000, BIG),
            BIG,
            "library batch {t} lost rows"
        );
    }
    assert_eq!(marker_rows_published(&service, 600_000, 5), 5);
    assert_eq!(service.ingest_in_flight(), 0, "gauge leaked a slot");
}
