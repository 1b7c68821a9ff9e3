//! Socket-level end-to-end suite for `eba-serve`: the server is spawned
//! in-process on an ephemeral port and driven over **real TCP sockets**.
//!
//! The guarantees under test:
//!
//! * protocol round-trips — every command answers in the dot-framed
//!   reply grammar, typed errors included;
//! * **epoch pinning**: a session's `METRICS`/`TIMELINE`/`UNEXPLAINED`/
//!   `EXPLAIN` answers are *byte-identical* before and after a
//!   concurrent `INGEST` publishes a new epoch, until the session says
//!   `REPIN` — and every answer (read by the server from the maintained
//!   partition) matches a library-level recompute over a view of the
//!   pinned epoch;
//! * concurrent sessions vs an ingesting writer always observe published
//!   epochs (the same invariant `tests/engine_equivalence.rs` checks at
//!   the library layer, via the shared `tests/common` harness);
//! * malformed input (proptest-shim fuzzing) yields `ERR` replies, never
//!   a dead session or a dead server;
//! * clock-skewed ingests surface in `TIMELINE`'s overflow bucket;
//! * shutdown is clean with sessions still in flight.

use eba::audit::explain::{anchors, explained, unexplained};
use eba::audit::{metrics, timeline, AuditView};
use eba::relational::Value;
use eba::server::{AuditService, Client, IngestRow, Server};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::OnceLock;

mod common;

/// Spawns a server over a fresh tiny world, returning both so tests can
/// compare wire answers against library-level answers.
fn spawn_world_server(seed: u64) -> (common::AuditWorld, Server) {
    let world = common::AuditWorld::tiny(seed);
    // Seal the seed data: the served epoch then owns sealed (Arc-shared)
    // row segments, so the segment-sharing assertions below exercise
    // real cross-epoch sharing over the wire path too.
    let db = {
        let mut db = world.hospital.db.clone();
        db.seal();
        db
    };
    let service = AuditService::new_sharded(
        db,
        world.spec.clone(),
        world.hospital.log_cols,
        world.explainer.clone(),
        world.hospital.config.days,
    );
    let server = Server::spawn(service, "127.0.0.1:0").expect("bind ephemeral port");
    (world, server)
}

/// An ingest batch over the world's real user/patient pools.
fn batch(world: &common::AuditWorld, n: usize, day: Option<i64>) -> Vec<IngestRow> {
    (0..n)
        .map(|i| {
            let Value::Int(user) = world.users[i % world.users.len()] else {
                panic!("synthetic users are ints")
            };
            let Value::Int(patient) = world.patients[(i * 7) % world.patients.len()] else {
                panic!("synthetic patients are ints")
            };
            IngestRow { user, patient, day }
        })
        .collect()
}

/// The `Lid` of log row 0 (a row that always exists).
fn first_lid(world: &common::AuditWorld) -> i64 {
    let row = world.hospital.db.table(world.spec.table).row(0);
    let Value::Int(lid) = row[world.hospital.log_cols.lid] else {
        panic!("synthetic lids are ints")
    };
    lid
}

#[test]
fn protocol_round_trips_over_a_real_socket() {
    let (world, server) = spawn_world_server(11);
    let addr = server.local_addr();
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.greeting().head, "OK eba-serve 1 epoch 0");

    assert_eq!(c.send("PING").unwrap().head, "OK pong");
    assert_eq!(c.send("pin").unwrap().head, "OK epoch 0");
    assert_eq!(c.send("SEQ").unwrap().head, "OK published 0 pinned 0");

    // SHARDS: the one-shard layout report — one body line holding the
    // served log's row count.
    let shards = c.send("SHARDS").unwrap();
    assert!(shards.is_ok(), "{}", shards.head);
    let n: usize = shards.field("shards").unwrap().parse().unwrap();
    assert_eq!(n, 1);
    assert_eq!(shards.body.len(), n);
    let total: usize = shards
        .body
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
        .sum();
    assert_eq!(total, world.hospital.log_len());

    // EXPLAIN: a real access answers; the reply's data lines are the
    // ranked explanations.
    let lid = first_lid(&world);
    let explain = c.send(&format!("EXPLAIN {lid}")).unwrap();
    assert!(explain.is_ok(), "{}", explain.head);
    let n: usize = explain.field("explanations").unwrap().parse().unwrap();
    assert_eq!(explain.body.len(), n);
    for line in &explain.body {
        assert!(line.starts_with("len "), "{line}");
    }
    // ...and a missing lid is a typed not-found, not a dead socket.
    let missing = c.send("EXPLAIN 987654321").unwrap();
    assert!(
        missing.head.starts_with("ERR not-found"),
        "{}",
        missing.head
    );

    // UNEXPLAINED with a limit truncates the listing, not the count — and
    // a truncated listing says so in an explicit marker plus a resumable
    // cursor line instead of silently reading as complete.
    let unexplained = c.send("UNEXPLAINED 3").unwrap();
    assert!(unexplained.is_ok());
    let count: usize = unexplained.field("unexplained").unwrap().parse().unwrap();
    assert!(count > 0, "tiny world has unexplained accesses");
    let listed = unexplained
        .body
        .iter()
        .filter(|l| l.starts_with("lid "))
        .count();
    assert_eq!(listed, count.min(3));
    if count > 3 {
        assert_eq!(
            unexplained.body[3],
            format!("more {} rows not shown", count - 3)
        );
        let cursor = unexplained.body.last().unwrap();
        assert!(cursor.starts_with("next UNEXPLAINED 3 AFTER "), "{cursor}");
        assert_eq!(unexplained.body.len(), 5);
        // The cursor line is a valid command; the next page starts
        // strictly after the last listed row and reports the same total.
        let page2 = c.send(cursor.strip_prefix("next ").unwrap()).unwrap();
        assert!(page2.is_ok(), "{}", page2.head);
        assert_eq!(page2.head, unexplained.head, "totals are page-invariant");
        let first_page2 = page2.body.first().unwrap();
        assert!(first_page2.starts_with("lid "), "{first_page2}");
        assert_ne!(first_page2, &unexplained.body[2], "no overlap across pages");
    } else {
        assert_eq!(unexplained.body.len(), count);
    }

    // METRICS and TIMELINE are internally consistent with each other.
    let m = c.send("METRICS").unwrap();
    let anchor: usize = m.body_field("anchor_total").unwrap().parse().unwrap();
    let explained: usize = m.body_field("explained").unwrap().parse().unwrap();
    let unexpl: usize = m.body_field("unexplained").unwrap().parse().unwrap();
    assert_eq!(anchor, explained + unexpl);
    assert_eq!(unexpl, count, "METRICS agrees with UNEXPLAINED");
    let t = c.send("TIMELINE").unwrap();
    assert_eq!(
        t.field("days").unwrap().parse::<usize>().unwrap() + 1,
        t.body.len(),
        "one line per day plus the overflow bucket"
    );
    assert!(t.body.last().unwrap().starts_with("overflow total "));

    // MISUSE: the top listing and a per-user lookup agree.
    let top = c.send("MISUSE").unwrap();
    assert!(top.is_ok());
    assert!(!top.body.is_empty(), "tiny world has suspects");
    let first = &top.body[0];
    let user: i64 = first
        .strip_prefix("user ")
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let one = c.send(&format!("MISUSE {user}")).unwrap();
    assert_eq!(one.field("rank"), Some("1"), "{}", one.head);
    let nobody = c.send("MISUSE -42").unwrap();
    assert!(nobody.head.contains("unexplained 0"), "{}", nobody.head);
    assert_eq!(nobody.field("rank"), Some("-"));

    // Typed parse errors.
    let unknown = c.send("FROB 1").unwrap();
    assert!(unknown.head.starts_with("ERR bad-request unknown command"));
    let usage = c.send("EXPLAIN").unwrap();
    assert!(usage.head.starts_with("ERR bad-request usage:"));
    let notint = c.send("EXPLAIN twelve").unwrap();
    assert!(notint.head.contains("not an integer"));
    let zero = c.send("INGEST 0").unwrap();
    assert!(zero.head.starts_with("ERR bad-request"), "{}", zero.head);

    // QUIT ends the session; the server survives it.
    assert_eq!(c.send("QUIT").unwrap().head, "OK bye");
    assert!(c.send("PING").is_err(), "session closed");
    let mut again = Client::connect(addr).expect("server still accepting");
    assert_eq!(again.send("PING").unwrap().head, "OK pong");
}

/// A service asked for 4 shards answers every read command
/// byte-identically to one asked for 1 over real sockets (the count is
/// ignored), and `SHARDS` keeps its one-shard shape (the log's row count,
/// live seq advancing while the pin holds).
#[test]
fn sharded_server_matches_single_shard_server_over_the_wire() {
    let world = common::AuditWorld::tiny(29);
    let spawn = |n: usize| {
        let hospital = common::AuditWorld::tiny(29).hospital;
        let service = AuditService::from_hospital_sharded(hospital, n);
        Server::spawn(service, "127.0.0.1:0").expect("bind ephemeral port")
    };
    let single = spawn(1);
    let sharded = spawn(4);
    let mut a = Client::connect(single.local_addr()).expect("connect single");
    let mut b = Client::connect(sharded.local_addr()).expect("connect sharded");

    let lid = first_lid(&world);
    for cmd in [
        "METRICS".to_string(),
        "TIMELINE".to_string(),
        "UNEXPLAINED".to_string(),
        "MISUSE".to_string(),
        format!("EXPLAIN {lid}"),
    ] {
        assert_eq!(
            a.send(&cmd).expect("single").render(),
            b.send(&cmd).expect("sharded").render(),
            "`{cmd}` diverged between 1 and 4 shards over the wire"
        );
    }

    // The layout report.
    let r = b.send("SHARDS").unwrap();
    assert_eq!(r.head, "OK shards 1 seq 0 pinned 0");
    let rows = world.hospital.log_len();
    assert_eq!(r.body, vec![format!("shard 0 rows {rows}")]);

    // An ingest advances the live seq; the pinned session's layout
    // report keeps describing its pin.
    let reply = b.ingest(&batch(&world, 8, Some(1))).expect("ingest");
    assert!(reply.is_ok(), "{}", reply.head);
    let r = b.send("SHARDS").unwrap();
    assert_eq!(r.head, "OK shards 1 seq 1 pinned 0");
    assert_eq!(r.body, vec![format!("shard 0 rows {rows}")]);
    b.send("REPIN").unwrap();
    let repinned = b.send("SHARDS").unwrap();
    assert_eq!(repinned.head, "OK shards 1 seq 1 pinned 1");
    assert_eq!(repinned.body, vec![format!("shard 0 rows {}", rows + 8)]);
}

/// The tentpole acceptance test: a pinned session's answers are
/// byte-identical before and after a concurrent `INGEST` publishes a new
/// epoch, they match the library `*_at` answers for the pinned seq, and
/// `REPIN` moves the session to the new epoch's (library-identical)
/// answers.
#[test]
fn pinned_session_is_byte_stable_across_ingest_until_repin() {
    let (world, server) = spawn_world_server(23);
    let addr = server.local_addr();
    let spec = &world.spec;
    let cols = &world.hospital.log_cols;
    let days = world.hospital.config.days;
    let lid = first_lid(&world);

    // The library view of epoch 0, pinned before any ingest.
    let epoch0 = server.service().sharded().load();
    assert_eq!(epoch0.seq(), 0);

    let mut session = Client::connect(addr).expect("reader session");
    let commands = [
        "METRICS".to_string(),
        "TIMELINE".to_string(),
        "UNEXPLAINED".to_string(),
        format!("EXPLAIN {lid}"),
        "MISUSE".to_string(),
    ];
    let ask_all = |session: &mut Client| -> Vec<String> {
        commands
            .iter()
            .map(|c| session.send(c).expect("reply").render())
            .collect()
    };
    let before = ask_all(&mut session);

    // Wire answers (reads of the maintained partition) == the library's
    // recompute over a view of the pinned epoch.
    let assert_matches_library = |rendered: &[String], epochs: &eba::relational::EpochVec| {
        let view = AuditView::pinned(epochs);
        let explained = explained(&view, spec, world.explainer.templates());
        let c = metrics::evaluate(&anchors(&view, spec), &explained, None, None);
        let m = &rendered[0];
        assert!(
            m.contains(&format!("\nanchor_total {}", c.real_total)),
            "{m}"
        );
        assert!(
            m.contains(&format!("\nexplained {}", c.real_explained)),
            "{m}"
        );
        assert!(m.contains(&format!("\nrecall {:.6}", c.recall())), "{m}");

        let t = timeline::daily_stats(&view, spec, cols, days, &explained);
        let tl = &rendered[1];
        for s in &t.days {
            assert!(
                tl.contains(&format!(
                    "\nday {} total {} explained {} firsts {} first_explained {}",
                    s.day, s.total, s.explained, s.first_accesses, s.first_explained
                )),
                "{tl}"
            );
        }
        assert!(
            tl.contains(&format!(
                "\noverflow total {} explained {} firsts {} first_explained {}",
                t.overflow.total,
                t.overflow.explained,
                t.overflow.first_accesses,
                t.overflow.first_explained
            )),
            "{tl}"
        );

        let unexplained = unexplained(&view, spec, &explained);
        let u = &rendered[2];
        assert!(
            u.contains(&format!("OK unexplained {} of ", unexplained.len())),
            "{u}"
        );
        // Every unexplained row appears, in ascending row order.
        let mut at = 0usize;
        let db = view.db();
        for global in unexplained.iter() {
            let row = db.table(spec.table).row(global);
            let pool = db.pool();
            let needle = format!(
                "\nlid {} user {} patient {}",
                row[cols.lid].display(pool),
                row[cols.user].display(pool),
                row[cols.patient].display(pool)
            );
            let pos = u[at..].find(&needle).unwrap_or_else(|| {
                panic!("unexplained row {global} missing or out of order: {needle}")
            });
            at += pos + needle.len();
        }

        let explanations = world
            .explainer
            .explain(db, spec, 0, 3)
            .expect("valid suite");
        let e = &rendered[3];
        assert!(
            e.contains(&format!("explanations {}", explanations.len())),
            "{e}"
        );
        for r in &explanations {
            assert!(e.contains(&format!("len {} {}", r.length, r.text)), "{e}");
        }
    };
    assert_matches_library(&before, &epoch0);

    // A *concurrent* writer session ingests; the server publishes seq 1.
    let mut writer = Client::connect(addr).expect("writer session");
    let report = writer.ingest(&batch(&world, 30, Some(2))).expect("ingest");
    assert!(report.is_ok(), "{}", report.head);
    assert_eq!(report.field("seq"), Some("1"));
    assert_eq!(report.field("rebuilt"), Some("0"));
    assert_eq!(
        session.send("SEQ").unwrap().head,
        "OK published 1 pinned 0",
        "the reader session still pins epoch 0"
    );

    // Byte-identical answers from the pinned session — the whole point.
    let during = ask_all(&mut session);
    assert_eq!(
        during, before,
        "pinned session answers changed under ingest"
    );
    assert_matches_library(&during, &epoch0);

    // REPIN: the session moves to epoch 1 and now matches the library
    // answers for the *new* epoch (which differ — the log grew).
    assert_eq!(session.send("REPIN").unwrap().head, "OK epoch 1");
    let epoch1 = server.service().sharded().load();
    assert_eq!(epoch1.seq(), 1);
    let after = ask_all(&mut session);
    assert_ne!(after, before, "the new epoch sees the ingested batch");
    assert_matches_library(&after, &epoch1);
    let anchor = |r: &str| -> usize {
        r.lines()
            .find_map(|l| l.strip_prefix("anchor_total "))
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(anchor(&after[0]), anchor(&before[0]) + 30);
}

/// The library-layer concurrency invariant, checked over sockets: N
/// reader sessions interleave `REPIN`/`METRICS`/`UNEXPLAINED` while a
/// writer session ingests; every observed epoch is published, monotone
/// per session, and all observers agree on each epoch's contents.
#[test]
fn concurrent_socket_sessions_always_observe_published_epochs() {
    let (world, server) = spawn_world_server(31);
    let addr = server.local_addr();
    let rounds = 4u64;
    let per_batch = 10usize;
    let base_len = world.hospital.log_len();
    let epochs = common::EpochLog::new();
    // Seq 0 is only reachable before the first ingest; record it up
    // front so a fast writer cannot leave it unobserved.
    epochs.observe(0, base_len);
    // Library handle on the initial epoch: newer epochs must keep
    // sharing its sealed segments while the wire sessions hammer it.
    let pinned_epoch = server.service().sharded().load();
    for shard in pinned_epoch.shards() {
        assert!(
            shard.log_len() == 0
                || !shard
                    .db()
                    .table(world.spec.table)
                    .sealed_row_segments()
                    .is_empty(),
            "the served seed data is sealed in every non-empty shard"
        );
    }

    common::readers_vs_writer(
        4,
        |i, done| {
            if i == 0 {
                // The pinned session: never REPINs, so every reply must
                // be byte-identical for the whole run even though the
                // writer publishes epochs that share its sealed
                // segments.
                let mut session = Client::connect(addr).expect("pinned reader connects");
                let first = session.send("METRICS").expect("metrics").render();
                common::reader_loop(done, |_| {
                    let again = session.send("METRICS").expect("metrics").render();
                    assert_eq!(again, first, "pinned session reply drifted under ingest");
                });
                return;
            }
            let mut session = Client::connect(addr).expect("reader connects");
            let mut last_seq = 0u64;
            common::reader_loop(done, |_| {
                let repin = session.send("REPIN").expect("repin");
                let seq: u64 = repin.field("epoch").unwrap().parse().unwrap();
                assert!(seq >= last_seq, "epoch went backwards over the wire");
                last_seq = seq;
                let m = session.send("METRICS").expect("metrics");
                assert_eq!(
                    m.field("epoch").unwrap().parse::<u64>().unwrap(),
                    seq,
                    "METRICS answers from the pinned epoch"
                );
                let anchor: usize = m.body_field("anchor_total").unwrap().parse().unwrap();
                let explained: usize = m.body_field("explained").unwrap().parse().unwrap();
                epochs.observe(seq, anchor);
                // Cross-command consistency on one pin: UNEXPLAINED and
                // METRICS describe the same frozen log.
                let u = session.send("UNEXPLAINED 0").expect("unexplained");
                let count: usize = u.field("unexplained").unwrap().parse().unwrap();
                assert_eq!(count, anchor - explained, "views tore across commands");
            });
        },
        || {
            let mut writer = Client::connect(addr).expect("writer connects");
            for round in 0..rounds {
                let reply = writer
                    .ingest(&batch(&world, per_batch, Some(1 + (round as i64 % 3))))
                    .expect("ingest");
                assert!(reply.is_ok(), "{}", reply.head);
                let seq: u64 = reply.field("seq").unwrap().parse().unwrap();
                assert_eq!(seq, round + 1);
                assert_eq!(reply.field("rebuilt"), Some("0"));
                epochs.observe(seq, base_len + (round as usize + 1) * per_batch);
            }
        },
    );
    epochs.assert_log_grew_each_epoch(rounds);

    // Every published epoch kept sharing the initial epoch's sealed
    // segments by pointer (the `O(batch)`-per-shard publication
    // invariant, checked over the served path) — rows *and* the interner.
    let last_epoch = server.service().sharded().load();
    assert_eq!(last_epoch.seq(), rounds);
    for (s, (old, new)) in pinned_epoch
        .shards()
        .iter()
        .zip(last_epoch.shards())
        .enumerate()
    {
        common::assert_sealed_segments_shared(
            old.db().table(world.spec.table),
            new.db().table(world.spec.table),
            &format!("served initial epoch vs final epoch, shard {s}"),
        );
        common::assert_interner_shared(
            old.db().pool(),
            new.db().pool(),
            &format!("served initial epoch vs final epoch, shard {s}"),
        );
    }

    // The final epoch over the wire matches the library view.
    let mut c = Client::connect(addr).expect("post-hoc session");
    assert_eq!(
        c.send("SEQ").unwrap().head,
        format!("OK published {rounds} pinned {rounds}")
    );
    let last = server.service().sharded().load();
    let m = c.send("METRICS").unwrap();
    let view = AuditView::pinned(&last);
    let explained = explained(&view, &world.spec, world.explainer.templates());
    assert_eq!(
        m.body_field("unexplained")
            .unwrap()
            .parse::<usize>()
            .unwrap(),
        unexplained(&view, &world.spec, &explained).len()
    );
}

/// Satellite: clock-skewed ingests (day 0, day beyond the window, no day
/// at all) must surface in the server's `TIMELINE` overflow bucket — and
/// the wire numbers must equal `daily_stats` recomputed over the pinned
/// epoch.
#[test]
fn timeline_overflow_is_served_over_the_wire() {
    let (world, server) = spawn_world_server(43);
    let addr = server.local_addr();
    let days = world.hospital.config.days;
    let mut c = Client::connect(addr).expect("connect");

    let overflow_total = |reply: &eba::server::Reply| -> usize {
        reply
            .body
            .last()
            .unwrap()
            .strip_prefix("overflow total ")
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let before = c.send("TIMELINE").unwrap();
    assert_eq!(overflow_total(&before), 0, "well-formed log has no skew");

    // One skewed batch: day 0, day way out of range, and a missing day.
    let mut rows = batch(&world, 1, Some(0));
    rows.extend(batch(&world, 1, Some(i64::from(days) + 30)));
    rows.extend(batch(&world, 1, None));
    let reply = c.ingest(&rows).expect("ingest");
    assert!(reply.is_ok(), "{}", reply.head);

    // Still pinned: the session's timeline is byte-stable...
    assert_eq!(c.send("TIMELINE").unwrap(), before);
    // ...until REPIN, where the overflow bucket carries all three rows.
    c.send("REPIN").unwrap();
    let after = c.send("TIMELINE").unwrap();
    assert_eq!(overflow_total(&after), 3);
    assert_eq!(
        after.field("dropped").unwrap().parse::<usize>().unwrap(),
        3,
        "the head line surfaces the dropped count"
    );

    // The wire response equals the library's recompute over the pinned
    // vector, line by line.
    let epochs = server.service().sharded().load();
    let view = AuditView::pinned(&epochs);
    let t = timeline::daily_stats(
        &view,
        &world.spec,
        &world.hospital.log_cols,
        days,
        &explained(&view, &world.spec, world.explainer.templates()),
    );
    assert_eq!(t.dropped(), 3);
    let mut expected: Vec<String> = t
        .days
        .iter()
        .map(|s| {
            format!(
                "day {} total {} explained {} firsts {} first_explained {}",
                s.day, s.total, s.explained, s.first_accesses, s.first_explained
            )
        })
        .collect();
    expected.push(format!(
        "overflow total {} explained {} firsts {} first_explained {}",
        t.overflow.total,
        t.overflow.explained,
        t.overflow.first_accesses,
        t.overflow.first_explained
    ));
    assert_eq!(after.body, expected);
}

/// Satellite: a client that announces an `INGEST` batch and disconnects
/// mid-batch publishes **nothing** and persists **nothing** — the torn
/// batch is all-or-nothing at both the epoch layer and the durable pile
/// — and the worker thread is reaped, not leaked.
#[test]
fn mid_ingest_disconnect_publishes_nothing_and_persists_nothing() {
    let world = common::AuditWorld::tiny(67);
    let dir = std::env::temp_dir().join(format!("eba-e2e-midingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pile = dir.join("pile.seg");

    // Same seed ⇒ same base data: the second world's hospital moves into
    // the durable service while `world` keeps one for building batches.
    let service = AuditService::from_hospital_durable_sharded(
        common::AuditWorld::tiny(67).hospital,
        &pile,
        eba::relational::Durability::Strict,
        1,
    )
    .expect("open durable store");
    let mut server = Server::spawn(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Announce 5 rows, deliver 2, vanish.
    let mut torn = Client::connect(addr).expect("torn client");
    torn.send_raw(b"INGEST 5\n1 10000 1\n2 10001 2\n")
        .expect("partial batch");
    drop(torn);

    // The worker observes the truncation and is reaped.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.live_sessions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.live_sessions(), 0, "torn session not reaped");
    assert_eq!(
        server.service().sharded().seq(),
        0,
        "a truncated batch must publish nothing"
    );

    // The service is unharmed: a complete batch from a fresh session
    // publishes epoch 1 and is acknowledged (hence durable).
    let mut fresh = Client::connect(addr).expect("fresh client");
    let reply = fresh.ingest(&batch(&world, 4, Some(2))).expect("ingest");
    assert!(reply.is_ok(), "{}", reply.head);
    assert_eq!(reply.field("seq"), Some("1"));
    server.shutdown();

    // Reopen the pile: exactly the acknowledged batch was persisted —
    // nothing from the torn one.
    let (_store, batches, _report) = eba::relational::DurableStore::open(
        &pile,
        eba::relational::Durability::Strict,
        eba::relational::pile::default_checkpoint_rows(),
    )
    .expect("reopen pile");
    assert_eq!(batches.len(), 1, "only the acked batch is on disk");
    assert_eq!(batches[0].rows.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown with sessions mid-flight: returns promptly, in-flight
/// sessions observe EOF instead of hanging, the port stops accepting.
#[test]
fn clean_shutdown_with_in_flight_sessions() {
    let (_, mut server) = spawn_world_server(53);
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).expect("idle session");
    let mut busy = Client::connect(addr).expect("busy session");
    assert!(idle.send("PING").unwrap().is_ok());
    assert!(busy.send("METRICS").unwrap().is_ok());

    // One session is parked mid-read, the other just finished a command.
    server.shutdown();

    assert!(idle.send("PING").is_err(), "idle session saw EOF");
    assert!(busy.send("METRICS").is_err(), "busy session saw EOF");
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "listener is closed"
    );
    // Idempotent; Drop after explicit shutdown is a no-op.
    server.shutdown();
}

// ------------------------------------------------------------- fuzzing

/// One long-lived server shared by every fuzz case (leaked on purpose —
/// its accept thread serves until the test process exits). Surviving all
/// cases *is* the property.
fn fuzz_server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::spawn(AuditService::tiny_synthetic(5), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        std::mem::forget(server);
        addr
    })
}

/// Renders one junk request line from fuzz integers.
fn junk_line(selector: u8, a: i64, b: i64) -> String {
    match selector % 15 {
        0 => format!("EXPLAIN {a}"),
        1 => format!("EXPLAIN {a} {b}"),
        2 => "METRICS".into(),
        3 => format!("FROB {a}"),
        4 => format!("MISUSE {a}"),
        5 => "explain".into(),
        6 => format!("UNEXPLAINED {a}"),
        7 => format!("INGEST {a}"),
        8 => format!("{a} {b} -"),
        9 => "  \t ".into(),
        10 => format!("# comment {a}"),
        11 => format!("PIN extra {b}"),
        12 => format!("INGEST {a} {b}"),
        13 => format!("TIMELINE {}", "x".repeat((a.unsigned_abs() % 200) as usize)),
        14 => format!("WARNINGS{}", if a % 2 == 0 { "" } else { " extra" }),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzz: arbitrary interleavings of malformed and well-formed lines
    /// never desync the reply framing and never kill the server — every
    /// complete reply in the drained stream is `OK`/`ERR` dot-framed, and
    /// a fresh session still answers afterwards.
    #[test]
    fn malformed_input_never_kills_the_session(
        lines in prop::collection::vec((0u8..15, 0i64..60, -5i64..1_000_000), 1..25)
    ) {
        let addr = fuzz_server_addr();
        let mut c = Client::connect(addr).expect("connect");
        let mut sent = String::new();
        for &(sel, a, b) in &lines {
            sent.push_str(&junk_line(sel, a, b));
            sent.push('\n');
        }
        c.send_raw(sent.as_bytes()).expect("write junk");
        c.finish_writes().expect("half-close");
        let drained = c.drain().expect("drain replies");

        // The reply stream parses as a sequence of dot-framed replies.
        let mut it = drained.lines();
        while let Some(head) = it.next() {
            prop_assert!(
                head.starts_with("OK") || head.starts_with("ERR"),
                "reply head is framed: {head:?} in {drained:?}"
            );
            let mut terminated = false;
            for line in it.by_ref() {
                if line == "." {
                    terminated = true;
                    break;
                }
                prop_assert!(
                    !line.starts_with("OK") && !line.starts_with("ERR"),
                    "unterminated frame before {line:?}"
                );
            }
            prop_assert!(terminated, "frame for {head:?} never terminated");
        }

        // The server survived: a fresh session answers.
        let mut fresh = Client::connect(addr).expect("server still alive");
        prop_assert_eq!(fresh.send("PING").expect("pong").head, "OK pong");
    }
}
