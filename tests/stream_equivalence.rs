//! The streaming proof: the **maintained** explained/unexplained
//! partition — advanced inside ingest by delta evaluation — must be
//! *byte-identical* to a cold from-scratch materialization at every
//! published epoch, and the server-push feed built on it must behave
//! over real sockets.
//!
//! Library layer (differential):
//!
//! * proptest-driven ingest schedules (batch sizes include 0 — an empty
//!   publication): after every batch, the live engine's maintained
//!   partition renders byte-for-byte equal to a brand-new engine that
//!   pins the same suite cold over the same database — anchors,
//!   explained, unexplained, the `UNEXPLAINED` page shape, and the
//!   `METRICS` confusion line all match;
//!
//! Socket layer (`SUBSCRIBE`/`EVENT` over real TCP):
//!
//! * exactly one `EVENT unexplained` frame per publish that produced
//!   fresh unexplained rows, with per-publish seq/new counts;
//! * a subscriber that stops reading is shed — the writer's ingest path
//!   never stalls, the backlog drains, and the stalled session gets one
//!   `ERR slow-consumer` frame before close;
//! * epoch-pinned sessions answer byte-identically while the push feed
//!   fans out around them.

use eba::audit::metrics;
use eba::relational::{Database, Maintained, ShardedEngine, TableId, Value};
use eba::server::{AuditService, Client, IngestRow, Server, EVENT_QUEUE_CAP};
use proptest::prelude::*;

mod common;
use common::AuditWorld;

/// Renders one maintained partition in the serving layer's answer
/// shapes: the `UNEXPLAINED` head + full listing, and the `METRICS`
/// lines derived from the same sets. Both sides of the differential go
/// through this exact function, so any byte divergence is in the
/// *partition*, not the rendering.
fn render_maintained(m: &Maintained, seq: u64) -> String {
    let mut out = format!(
        "unexplained {} of {} epoch {seq}\n",
        m.unexplained.len(),
        m.anchors.len()
    );
    for rid in m.unexplained.iter() {
        out.push_str(&format!("row {rid}\n"));
    }
    let c = metrics::evaluate(&m.anchors, &m.explained, None, None);
    out.push_str(&format!(
        "metrics anchor_total {} explained {} unexplained {} log {}\n",
        c.real_total,
        c.real_explained,
        c.real_total - c.real_explained,
        m.log_len
    ));
    out.push_str(&format!("explained_set {:?}\n", m.explained.to_vec()));
    out
}

/// Cold oracle: a brand-new engine over the same database pins the same
/// suite from scratch (pinning materializes the partition with the
/// from-scratch path, not the incremental one).
fn cold_maintained(db: &Database, world: &AuditWorld) -> std::sync::Arc<Maintained> {
    let cold = ShardedEngine::new(db.clone(), world.key(), 1);
    let pin = cold.pin_suite(world.explainer.suite_pin(&world.spec));
    let vec = cold.load();
    vec.maintained(pin)
        .expect("pin_suite publishes the maintained partition")
        .clone()
}

/// A support-table append a publication can carry. The first three grow
/// **step 0** of a set-based template and explain one currently
/// unexplained access outright; a lab order followed by its mapping row
/// grows first step 0 and then **step 1** of the two-step `Labs →
/// Mapping` templates, so the explanation only completes through the
/// depth-1 backward walk.
#[derive(Debug, Clone, Copy)]
enum Support {
    Appointment,
    Visit,
    Document,
    /// A lab whose result user is an audit id nothing maps yet.
    LabOrder,
    /// The `Mapping` row for the oldest unmapped lab order (placing the
    /// order too, in the same publication, when none is waiting).
    Mapping,
}

/// One publication of a schedule: `log.0` fake accesses (seeded by
/// `log.1`) and support rows, appended in one ingest. Each support row
/// is aimed at the `usize`-th (mod the residue) unexplained access.
#[derive(Debug, Clone, Default)]
struct Publication {
    log: (usize, u64),
    support: Vec<(Support, usize)>,
}

impl Publication {
    fn log(count: usize, seed: u64) -> Publication {
        Publication {
            log: (count, seed),
            support: Vec::new(),
        }
    }

    fn support(kind: Support, aim: usize) -> Publication {
        Publication {
            support: vec![(kind, aim)],
            ..Publication::default()
        }
    }
}

/// The dimension rows of one publication, and the old accesses they must
/// move out of the residue.
#[derive(Default)]
struct SupportRows {
    rows: Vec<(TableId, Vec<Value>)>,
    explains: Vec<u32>,
}

/// Turns a publication's support entries into concrete rows against the
/// current residue. `unmapped` carries lab orders waiting for their
/// mapping row across publications: `(audit id, user, log row)`.
fn support_rows(
    world: &AuditWorld,
    db: &Database,
    residue: &Maintained,
    support: &[(Support, usize)],
    unmapped: &mut Vec<(i64, Value, u32)>,
) -> SupportRows {
    let mut out = SupportRows::default();
    let table = |name: &str| db.table_id(name).expect("CareWeb table");
    let log = db.table(world.spec.table);
    let cols = &world.hospital.log_cols;
    let residue_rows = residue.unexplained.to_vec();
    for &(kind, aim) in support {
        if residue_rows.is_empty() {
            break;
        }
        let rid = residue_rows[aim % residue_rows.len()];
        let (user, patient) = (log.cell(rid, cols.user), log.cell(rid, cols.patient));
        let place_order = |out: &mut SupportRows, unmapped: &mut Vec<(i64, Value, u32)>| {
            let audit = 700_000 + 1_000 * rid as i64 + unmapped.len() as i64;
            let order = vec![
                patient,
                Value::Date(0),
                Value::Int(audit),
                Value::Int(audit),
            ];
            out.rows.push((table("Labs"), order));
            unmapped.push((audit, user, rid));
        };
        match kind {
            Support::Appointment | Support::Visit | Support::Document => {
                let name = match kind {
                    Support::Appointment => "Appointments",
                    Support::Visit => "Visits",
                    _ => "Documents",
                };
                out.rows
                    .push((table(name), vec![patient, Value::Date(0), user]));
                out.explains.push(rid);
            }
            Support::LabOrder => place_order(&mut out, unmapped),
            Support::Mapping => {
                if unmapped.is_empty() {
                    place_order(&mut out, unmapped);
                }
                let (audit, user, rid) = unmapped.remove(0);
                out.rows
                    .push((table("Mapping"), vec![Value::Int(audit), user]));
                out.explains.push(rid);
            }
        }
    }
    out
}

/// Drives a canonical oracle and one live engine through the same
/// schedule; after every publish the live engine's *incrementally
/// advanced* partition must render byte-identically to a cold pin over
/// the oracle's database, and every access a support row was aimed at
/// must have left the residue. Returns how many publications re-asked a
/// candidate subset of the residue (the delta path, as opposed to
/// nothing to re-ask or the whole residue).
fn run_stream_differential(world: &AuditWorld, schedule: &[Publication]) -> usize {
    let mut oracle = world.oracle();
    let live = ShardedEngine::new(world.hospital.db.clone(), world.key(), 1);
    let pin = live.pin_suite(world.explainer.suite_pin(&world.spec));

    let check = |tag: &str, explains: &[u32], oracle_db: &Database| {
        let vec = live.load();
        let m = vec
            .maintained(pin)
            .expect("every publish carries the maintained partition");
        let cold = cold_maintained(oracle_db, world);
        assert_eq!(
            render_maintained(m, vec.seq()),
            render_maintained(&cold, vec.seq()),
            "maintained diverged from cold at {tag}"
        );
        assert_eq!(
            m.log_len,
            vec.global_log_len(),
            "partition covers the whole log at {tag}"
        );
        for &rid in explains {
            assert!(
                m.explained.contains(rid) && !m.unexplained.contains(rid),
                "access {rid} is still unexplained at {tag}"
            );
        }
        cold
    };

    let mut residue = check("the base epoch", &[], &oracle.db);
    let mut unmapped = Vec::new();
    let mut on_delta_path = 0;
    for (b, publication) in schedule.iter().enumerate() {
        let (count, seed) = publication.log;
        let support = support_rows(
            world,
            &oracle.db,
            &residue,
            &publication.support,
            &mut unmapped,
        );
        let appended = oracle.ingest(|db| {
            world.inject_batch(db, count, seed);
            for (table, row) in &support.rows {
                db.insert(*table, row.clone()).expect("valid support row");
            }
        });
        // Log rows re-intern their strings through the batch — same
        // idiom as the serving path; support rows carry ints and dates
        // only.
        let ((), report) = live.ingest(|batch| {
            common::stage_rows(batch, &oracle.db, &appended);
            for (table, row) in &support.rows {
                batch
                    .insert_dim(*table, row.clone())
                    .expect("valid support row");
            }
        });
        on_delta_path += usize::from(report.shards.iter().any(|s| {
            let a = s.advance;
            a.candidate_rows > 0 && !a.used_full_residue
        }));
        residue = check(
            &format!("publication {b} ({publication:?})"),
            &support.explains,
            &oracle.db,
        );
    }
    on_delta_path
}

#[test]
fn maintained_partition_matches_cold_recompute_over_a_fixed_schedule() {
    let world = AuditWorld::tiny(51);
    // Mixed sizes, an empty publication in the middle, and a final
    // surge.
    let batches = [(5usize, 1u64), (0, 2), (12, 3), (1, 4), (17, 5)]
        .map(|(count, seed)| Publication::log(count, seed));
    let on_delta_path = run_stream_differential(&world, &batches);
    assert!(on_delta_path >= 3, "{on_delta_path}");
}

#[test]
fn support_growth_matches_cold_recompute_over_a_fixed_schedule() {
    let world = AuditWorld::tiny_mapped(53);
    // Support tables growing between, and together with, log batches:
    // step-0 growth of the one-step templates, then a lab order whose
    // mapping row arrives two publications later (depth-1 growth with
    // the order long since absorbed), and a mixed publication growing
    // the log, step 0 and step 1 at once.
    let schedule = [
        Publication::log(6, 1),
        Publication::support(Support::Appointment, 0),
        Publication::support(Support::LabOrder, 3),
        Publication::log(9, 2),
        Publication::support(Support::Mapping, 0),
        Publication::support(Support::Visit, 7),
        Publication {
            log: (11, 3),
            support: vec![
                (Support::Document, 2),
                (Support::Mapping, 5),
                (Support::LabOrder, 9),
            ],
        },
        Publication::support(Support::Mapping, 0),
        Publication::log(4, 4),
    ];
    let on_delta_path = run_stream_differential(&world, &schedule);
    assert!(on_delta_path >= 6, "{on_delta_path}");
}

/// A random support entry: kind and aim.
fn support_entry() -> impl Strategy<Value = (Support, usize)> {
    (0usize..5, 0usize..1000).prop_map(|(kind, aim)| {
        let kind = [
            Support::Appointment,
            Support::Visit,
            Support::Document,
            Support::LabOrder,
            Support::Mapping,
        ][kind];
        (kind, aim)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random ingest schedules: the incremental partition never drifts
    /// from the cold recompute.
    #[test]
    fn maintained_partition_matches_cold_recompute(
        batches in prop::collection::vec((0usize..18, 0u64..1000), 1..4)
    ) {
        let world = AuditWorld::tiny(52);
        let schedule: Vec<Publication> = batches
            .into_iter()
            .map(|(count, seed)| Publication::log(count, seed))
            .collect();
        run_stream_differential(&world, &schedule);
    }

    /// Random schedules interleaving log batches with support-table
    /// growth at depth 0 and depth 1 (and both at once).
    #[test]
    fn support_growth_matches_cold_recompute(
        schedule in prop::collection::vec(
            (0usize..8, 0u64..1000, prop::collection::vec(support_entry(), 0..3)),
            1..5,
        )
    ) {
        let world = AuditWorld::tiny_mapped(54);
        let schedule: Vec<Publication> = schedule
            .into_iter()
            .map(|(count, seed, support)| Publication { log: (count, seed), support })
            .collect();
        run_stream_differential(&world, &schedule);
    }
}

// ---------------------------------------------------------------------
// Socket layer: SUBSCRIBE / EVENT over real TCP.

/// A never-before-seen user/patient pair: unexplained by construction
/// (no appointment, visit, or document links them), so every ingest
/// below produces fresh unexplained rows deterministically.
fn fresh_rows(tag: i64, n: usize) -> Vec<IngestRow> {
    (0..n as i64)
        .map(|i| IngestRow {
            user: 50_000 + tag * 100 + i,
            patient: 80_000 + tag * 100 + i,
            day: Some(1),
        })
        .collect()
}

#[test]
fn subscribe_feed_delivers_one_event_per_publish() {
    let server = Server::spawn(AuditService::tiny_synthetic(77), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    let ok = sub.send("SUBSCRIBE UNEXPLAINED").unwrap();
    assert!(
        ok.head.starts_with("OK subscribed unexplained id "),
        "{}",
        ok.head
    );

    let mut writer = Client::connect(addr).unwrap();
    for k in 0..3i64 {
        let reply = writer.ingest(&fresh_rows(k, 2)).unwrap();
        assert!(reply.is_ok(), "{}", reply.head);
        let ev = sub.next_event().unwrap();
        assert!(ev.is_event(), "{}", ev.head);
        assert_eq!(
            ev.field("seq").unwrap().parse::<i64>().unwrap(),
            k + 1,
            "one event per publish, in publish order"
        );
        assert_eq!(ev.field("new").unwrap(), "2", "{}", ev.head);
        assert!(ev.body[0].starts_with("lid "), "{}", ev.body[0]);
    }

    // Event mode accepts nothing but QUIT.
    let bad = sub.send("PING").unwrap();
    assert!(bad.head.starts_with("ERR bad-request"), "{}", bad.head);
    let bye = sub.send("QUIT").unwrap();
    assert_eq!(bye.head, "OK bye");
}

#[test]
fn slow_subscriber_is_shed_without_stalling_the_writer_or_its_peers() {
    let server = Server::spawn(AuditService::tiny_synthetic(78), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let svc = server.service().clone();

    // A healthy dashboard over a real socket...
    let mut sub = Client::connect(addr).unwrap();
    let ok = sub.send("SUBSCRIBE UNEXPLAINED").unwrap();
    assert!(ok.is_ok(), "{}", ok.head);
    let sub_id: u64 = ok.field("id").unwrap().parse().unwrap();
    // ...and a genuinely stalled one: its bounded queue is never
    // drained, so the cap (not kernel socket buffering, which absorbs
    // megabytes before ever blocking a write) decides its fate.
    let (_stalled_id, stalled_rx) = svc.subscribe(eba::server::SubscriptionKind::Unexplained);
    assert_eq!(svc.subscriber_count(), 2);

    // Publish past the queue cap. Every ingest must land: the publisher
    // never blocks on a full subscriber queue — it sheds.
    let rounds = (EVENT_QUEUE_CAP + 6) as i64;
    for r in 0..rounds {
        svc.ingest_rows(&fresh_rows(1000 + r, 2)).unwrap();
    }
    assert_eq!(svc.subscriber_count(), 1, "the stalled dashboard was shed");
    assert_eq!(svc.shed_subscriber_count(), 1);
    assert!(
        svc.warnings().iter().any(|w| w.contains("slow consumer")),
        "the shed lands in the operator log"
    );

    // The writer never stalled: every publish landed, observed over a
    // fresh control session.
    let mut ctl = Client::connect(addr).unwrap();
    let seq: i64 = ctl
        .send("SEQ")
        .unwrap()
        .field("published")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(seq, rounds, "one publish per ingest, none stalled");

    // The shed queue holds exactly the bounded backlog, then reports the
    // publisher's hang-up — nothing silently dropped *within* the cap.
    assert_eq!(stalled_rx.try_iter().count(), EVENT_QUEUE_CAP);
    assert!(stalled_rx.try_recv().is_err(), "sender dropped at the shed");

    // The healthy socket subscriber saw every publish, in order, with
    // no duplicates — shedding its peer never disturbed its feed.
    for k in 0..rounds {
        let ev = sub.next_event().unwrap();
        assert!(ev.is_event(), "{}", ev.head);
        assert_eq!(
            ev.field("seq").unwrap().parse::<i64>().unwrap(),
            k + 1,
            "exactly one event per publish, in publish order"
        );
    }

    // When the publisher drops a socket subscriber's sender (the exact
    // hang-up the queue-full shed performs), the session delivers one
    // typed `ERR slow-consumer` frame and closes.
    svc.unsubscribe(sub_id);
    let notice = sub.next_event().unwrap();
    assert!(
        notice.head.starts_with("ERR slow-consumer"),
        "{}",
        notice.head
    );
    assert!(
        sub.read_reply_frame().is_err(),
        "the connection closes after the shed notice"
    );
}

#[test]
fn pinned_sessions_answer_byte_identically_while_the_feed_fans_out() {
    let server = Server::spawn(AuditService::tiny_synthetic(79), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut pinned = Client::connect(addr).unwrap();
    assert!(pinned.send("PIN").unwrap().is_ok());
    let unexplained_before = pinned.send("UNEXPLAINED 10").unwrap().render();
    let metrics_before = pinned.send("METRICS").unwrap().render();

    let mut sub = Client::connect(addr).unwrap();
    assert!(sub.send("SUBSCRIBE UNEXPLAINED").unwrap().is_ok());
    let mut writer = Client::connect(addr).unwrap();
    assert!(writer.ingest(&fresh_rows(7, 3)).unwrap().is_ok());
    let ev = sub.next_event().unwrap();
    assert!(ev.is_event(), "{}", ev.head);

    // The pinned session's answers have not drifted by a byte...
    assert_eq!(
        pinned.send("UNEXPLAINED 10").unwrap().render(),
        unexplained_before
    );
    assert_eq!(pinned.send("METRICS").unwrap().render(), metrics_before);

    // ...until it repins, at which point the new rows are visible.
    assert!(pinned.send("REPIN").unwrap().is_ok());
    let after = pinned.send("UNEXPLAINED 10").unwrap();
    let total: usize = after.field("unexplained").unwrap().parse().unwrap();
    let before_total: usize = unexplained_before
        .split_whitespace()
        .nth(2)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(total, before_total + 3, "the fresh rows joined the residue");
}
