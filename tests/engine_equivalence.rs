//! Differential equivalence: the interned/cached/parallel [`Engine`] must
//! return **byte-identical** `explained_rows` and `support` to the
//! reference row evaluator ([`ChainQuery`]) for every query class —
//! undecorated closed chains, open partial paths, constant-decorated and
//! anchor-decorated chains, and anchor-filtered specs — on randomized
//! databases, and mining through the engine must produce the same
//! templates and supports as the cold mining reference in
//! `tests/common/mining.rs`.
//!
//! The same guarantee covers the engine-backed **audit layer** (every
//! question asked of an [`AuditView`]) and survives
//! **incremental appends**: a warm engine brought up to date with
//! [`Engine::refresh`] must keep matching both the per-query path and a
//! freshly-built engine as the database grows.

use eba::audit::explain::{anchors, explained, explained_cold, unexplained};
use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::{AuditView, Explainer};
use eba::core::canonical::CanonicalKey;
use eba::core::mining::{
    mine_bridge, mine_one_way, mine_two_way, refine, refine_with, DecorationCandidate,
};
use eba::core::{LogSpec, MiningConfig};
use eba::experiments::Scenario;
use eba::relational::{
    ChainQuery, ChainStep, CmpOp, DataType, Database, Engine, EvalOptions, RefreshError, RowSet,
    ShardedEngine, TableId, Value,
};
use eba::synth::{Hospital, SynthConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod common;

use common::mining;

/// Asserts the engine and the row evaluator agree exactly on one query,
/// under both dedup settings.
fn assert_equivalent(db: &Database, engine: &Engine, q: &ChainQuery, what: &str) {
    for dedup in [true, false] {
        let opts = EvalOptions { dedup };
        let reference = q.explained_rows(db, opts).unwrap();
        let via_engine = common::engine_rows(engine, db, q, opts).unwrap();
        assert_eq!(
            via_engine, reference,
            "{what}: explained_rows (dedup={dedup})"
        );
        let s_ref = q.support(db, opts).unwrap();
        let s_eng = common::engine_support(engine, db, q, opts).unwrap();
        assert_eq!(s_eng, s_ref, "{what}: support (dedup={dedup})");
    }
}

/// Every query the synthetic hospital exercises: handcrafted closed
/// templates (incl. the anchor-decorated repeat-access and the
/// constant-decorated group templates), open event predicates, and mined
/// templates.
fn hospital_queries(db: &Database, spec: &LogSpec) -> Vec<(String, ChainQuery)> {
    let mut queries: Vec<(String, ChainQuery)> = Vec::new();
    let handcrafted = HandcraftedTemplates::build(db, spec).unwrap();
    for t in handcrafted.all() {
        queries.push((
            format!("handcrafted len {}", t.length()),
            t.path.to_chain_query(spec),
        ));
    }
    if let Ok(grouped) = same_group(db, spec, EventTable::Appointments, Some(1)) {
        queries.push((
            "same_group depth 1".into(),
            grouped.path.to_chain_query(spec),
        ));
    }
    for (name, path) in eba::audit::handcrafted::event_predicates(db, spec).unwrap() {
        queries.push((format!("open predicate {name}"), path.to_chain_query(spec)));
    }
    let mined = mine_one_way(
        db,
        spec,
        &MiningConfig {
            support_frac: 0.05,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        },
    );
    for t in &mined.templates {
        queries.push((
            format!("mined {}", t.key.as_str()),
            t.path.to_chain_query(spec),
        ));
    }
    queries
}

#[test]
fn engine_matches_row_evaluator_on_synthetic_hospitals() {
    for seed in [1u64, 7, 42] {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        let h = Hospital::generate(config);
        let spec = LogSpec::conventional(&h.db).unwrap();
        let engine = Engine::new(&h.db);
        for (what, q) in hospital_queries(&h.db, &spec) {
            assert_equivalent(&h.db, &engine, &q, &format!("seed {seed}: {what}"));
        }
    }
}

#[test]
fn engine_matches_under_anchor_filters() {
    let h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let date_col = h.db.table(spec.table).schema().col("Date").unwrap();
    // Mine on the first half of the window only.
    let filtered = spec.with_filters(vec![(date_col, CmpOp::Le, Value::Date(4 * 24 * 60))]);
    let engine = Engine::new(&h.db);
    for (what, q) in hospital_queries(&h.db, &filtered) {
        assert_equivalent(&h.db, &engine, &q, &format!("filtered: {what}"));
    }
}

#[test]
fn batch_evaluation_matches_one_by_one() {
    let h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let engine = Engine::new(&h.db);
    let queries: Vec<ChainQuery> = hospital_queries(&h.db, &spec)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let opts = EvalOptions::default();
    let batch = engine.support_many(&h.db, &queries, opts);
    for (q, got) in queries.iter().zip(batch) {
        assert_eq!(got.unwrap(), q.support(&h.db, opts).unwrap());
    }
}

#[test]
fn engine_backed_audit_layer_matches_per_query_path() {
    for seed in [3u64, 11] {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        let h = Hospital::generate(config);
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        // Every report of the audit layer is a function of the view and
        // the explained set, so the warm path matches the per-query path
        // as soon as the sets do — for the whole suite and for subsets.
        let all: RowSet = (0..h.log_len() as u32).collect();
        assert_eq!(anchors(&view, &spec), all, "seed {seed}: anchors");
        for (what, templates) in [("suite", t.all()), ("repeat", t.all_with_repeat())] {
            let cold = explained_cold(&h.db, &spec, templates.iter().copied());
            let warm = explained(&view, &spec, templates);
            assert_eq!(warm, cold, "seed {seed}: {what} explained sets");
            assert_eq!(
                unexplained(&view, &spec, &warm),
                all.difference(&cold),
                "seed {seed}: {what} unexplained sets"
            );
        }
    }
}

#[test]
fn engine_backed_audit_survives_incremental_appends() {
    let mut h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
    let explainer = Explainer::new(t.all().into_iter().cloned().collect());
    let mut engine = Engine::new(&h.db);
    // Warm every cache the suite uses before the appends.
    let _ = explained(
        &AuditView::warm(&h.db, &engine),
        &spec,
        explainer.templates(),
    );

    let users = eba::audit::fake::user_pool(&h.db);
    let patients: Vec<Value> = (0..h.world.n_patients())
        .map(|p| h.patient_value(p))
        .collect();
    for round in 0..3u64 {
        // Append a batch of log rows (fake accesses are exactly appends)
        // and, in round 1, some event rows too.
        eba::audit::fake::FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            25,
            h.config.days,
            0xE0_u64 + round,
        );
        if round == 1 {
            let appt = h.db.table_id("Appointments").unwrap();
            let arity = h.db.table(appt).schema().arity();
            let mut row = vec![Value::Null; arity];
            let p_col = h.db.table(appt).schema().col("Patient").unwrap();
            let d_col = h.db.table(appt).schema().col("Doctor").unwrap();
            row[p_col] = patients[0];
            row[d_col] = users[0];
            h.db.insert(appt, row).unwrap();
        }
        let stats = engine.refresh(&h.db).unwrap();
        assert!(stats.delta.new_rows > 0, "round {round}: appends seen");

        // The refreshed warm engine, a fresh engine, and the per-query
        // path must agree exactly.
        let per_query = explained_cold(&h.db, &spec, explainer.templates());
        let refreshed = AuditView::warm(&h.db, &engine);
        assert_eq!(
            explained(&refreshed, &spec, explainer.templates()),
            per_query,
            "round {round}: refreshed engine vs per-query"
        );
        let fresh = Engine::new(&h.db);
        assert_eq!(
            explained(
                &AuditView::warm(&h.db, &fresh),
                &spec,
                explainer.templates()
            ),
            per_query,
            "round {round}: fresh engine vs per-query"
        );
        let all: RowSet = (0..h.log_len() as u32).collect();
        assert_eq!(
            unexplained(&refreshed, &spec, &per_query),
            all.difference(&per_query),
            "round {round}: unexplained"
        );
        // And every individual query class still matches.
        for (what, q) in hospital_queries(&h.db, &spec) {
            assert_equivalent(&h.db, &engine, &q, &format!("round {round}: {what}"));
        }
    }
}

#[test]
fn explained_rows_many_matches_one_by_one() {
    let h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let engine = Engine::new(&h.db);
    let queries: Vec<ChainQuery> = hospital_queries(&h.db, &spec)
        .into_iter()
        .map(|(_, q)| q)
        .collect();
    let opts = EvalOptions::default();
    let batch = engine.eval_suite(&h.db, &queries, opts);
    for (q, got) in queries.iter().zip(batch) {
        assert_eq!(
            got.unwrap().to_vec(),
            q.explained_rows(&h.db, opts).unwrap()
        );
    }
}

/// The product miner ("engine on") against the test-side cold reference
/// ("engine off": `common::mining`, every support a cold `ChainQuery`
/// scan with no cache and no skip). `mining_equivalence` pins the two-way
/// and bridged key sets to one-way's; here every template's support is
/// checked too.
#[test]
fn mining_is_identical_with_engine_on_and_off() {
    let s = Scenario::build(SynthConfig::tiny());
    let db = &s.hospital.db;
    let spec = s.train_spec();
    for max_length in [3, 4] {
        let config = MiningConfig {
            support_frac: 0.01,
            max_length,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let on = mine_one_way(db, &spec, &config);
        let off = mining::cold_one_way(db, &spec, &config);
        assert_eq!(on.threshold, off.threshold, "max_length {max_length}");
        let supports: BTreeMap<CanonicalKey, usize> = on
            .templates
            .iter()
            .map(|t| (t.key.clone(), t.support))
            .collect();
        assert_eq!(supports, off.supports, "one-way at max_length {max_length}");
        assert!(!supports.is_empty());

        let two_way = mine_two_way(db, &spec, &config);
        let bridged = mine_bridge(db, &spec, &config, 2).unwrap();
        for (what, mined) in [("two-way", &two_way), ("bridge-2", &bridged)] {
            for t in &mined.templates {
                assert_eq!(
                    t.support,
                    mining::cold_support(db, &spec, &t.path),
                    "{what} at max_length {max_length}: {}",
                    t.key.as_str()
                );
            }
        }
    }

    // Decoration refinement picks the same pinned values and supports as
    // the cold per-value loop, from a fresh engine and from a warm one.
    let config = MiningConfig {
        support_frac: 0.01,
        max_length: 4,
        max_tables: 3,
        ..MiningConfig::default()
    };
    let mined = mine_one_way(db, &spec, &config);
    let candidate =
        DecorationCandidate::group_depths(db, s.groups.hierarchy.depth_count() - 1).unwrap();
    let cold = mining::cold_refine(db, &spec, &mined.templates, &candidate, mined.threshold);
    assert!(!cold.is_empty());
    let fresh = refine(
        db,
        &spec,
        &mined.templates,
        &candidate,
        mined.threshold,
        &config,
    );
    assert_eq!(mining::refined(&fresh), cold, "refine");
    let queries: Vec<ChainQuery> = mined
        .templates
        .iter()
        .map(|t| t.path.to_chain_query(&spec))
        .collect();
    s.engine()
        .support_many(db, &queries, EvalOptions::default());
    assert!(s.engine().cached_step_maps() > 0);
    let warm = refine_with(
        db,
        &spec,
        &mined.templates,
        &candidate,
        mined.threshold,
        s.engine(),
    );
    assert_eq!(mining::refined(&warm), cold, "refine_with on a warm engine");
}

// --------------------------------------------------------------- proptest

/// A random two-hop world (same shape as `props.rs`): Log(Lid, User,
/// Patient), Event(Patient, Actor), Team(Member, Buddy), with NULLs mixed
/// in so the null-handling paths are exercised too — plus a second batch
/// of log/event rows appended later to exercise incremental refresh.
#[derive(Debug, Clone)]
struct RandomWorld {
    log_rows: Vec<(i64, i64, i64)>,
    event_rows: Vec<(i64, i64, bool)>, // bool: actor is NULL
    team_rows: Vec<(i64, i64)>,
    log_appends: Vec<(i64, i64, i64)>,
    event_appends: Vec<(i64, i64, bool)>,
}

fn random_world() -> impl Strategy<Value = RandomWorld> {
    (
        prop::collection::vec((0..40i64, 0..6i64, 0..8i64), 1..25),
        prop::collection::vec((0..8i64, 0..6i64, 0..10i64), 0..25),
        prop::collection::vec((0..6i64, 0..6i64), 0..15),
        prop::collection::vec((0..40i64, 0..9i64, 0..12i64), 0..15),
        prop::collection::vec((0..12i64, 0..9i64, 0..10i64), 0..15),
    )
        .prop_map(
            |(mut log_rows, event_rows, team_rows, mut log_appends, event_appends)| {
                for (i, r) in log_rows.iter_mut().enumerate() {
                    r.0 = i as i64;
                }
                for (i, r) in log_appends.iter_mut().enumerate() {
                    r.0 = (log_rows.len() + i) as i64;
                }
                RandomWorld {
                    log_rows,
                    event_rows: event_rows
                        .into_iter()
                        .map(|(p, a, n)| (p, a, n == 0))
                        .collect(),
                    team_rows,
                    log_appends,
                    event_appends: event_appends
                        .into_iter()
                        .map(|(p, a, n)| (p, a, n == 0))
                        .collect(),
                }
            },
        )
}

fn materialize(w: &RandomWorld) -> (Database, TableId, TableId, TableId) {
    let mut db = Database::new();
    let log = db
        .create_table(
            "Log",
            &[
                ("Lid", DataType::Int),
                ("User", DataType::Int),
                ("Patient", DataType::Int),
            ],
        )
        .unwrap();
    let event = db
        .create_table(
            "Event",
            &[("Patient", DataType::Int), ("Actor", DataType::Int)],
        )
        .unwrap();
    let team = db
        .create_table(
            "Team",
            &[("Member", DataType::Int), ("Buddy", DataType::Int)],
        )
        .unwrap();
    for &(lid, user, patient) in &w.log_rows {
        db.insert(
            log,
            vec![Value::Int(lid), Value::Int(user), Value::Int(patient)],
        )
        .unwrap();
    }
    for &(p, a, null_actor) in &w.event_rows {
        let actor = if null_actor {
            Value::Null
        } else {
            Value::Int(a)
        };
        db.insert(event, vec![Value::Int(p), actor]).unwrap();
    }
    for &(m, b) in &w.team_rows {
        db.insert(team, vec![Value::Int(m), Value::Int(b)]).unwrap();
    }
    (db, log, event, team)
}

/// The query classes every random-world property exercises: undecorated
/// closed/open chains, two-hop, anchor-filtered, constant-decorated, and
/// anchor-dependent decorated.
fn random_world_query_classes(
    log: TableId,
    event: TableId,
    team: TableId,
) -> Vec<(&'static str, ChainQuery)> {
    let one_hop = ChainQuery {
        log,
        lid_col: 0,
        start_col: 2,
        steps: vec![ChainStep::new(event, 0, 1)],
        close_col: Some(1),
        anchor_filters: vec![],
    };
    let open = ChainQuery {
        close_col: None,
        ..one_hop.clone()
    };
    let two_hop = ChainQuery {
        log,
        lid_col: 0,
        start_col: 2,
        steps: vec![ChainStep::new(event, 0, 1), ChainStep::new(team, 0, 1)],
        close_col: Some(1),
        anchor_filters: vec![],
    };
    let filtered = ChainQuery {
        anchor_filters: vec![(1, CmpOp::Ge, Value::Int(3))],
        ..one_hop.clone()
    };
    let decorated = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Lt,
            rhs: eba::relational::Rhs::Const(Value::Int(3)),
        });
        q
    };
    let anchor_dep = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: eba::relational::Rhs::AnchorCol(1),
        });
        q
    };
    vec![
        ("one_hop", one_hop),
        ("open", open),
        ("two_hop", two_hop),
        ("filtered", filtered),
        ("decorated", decorated),
        ("anchor_dep", anchor_dep),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_on_random_worlds(w in random_world()) {
        let (db, log, event, team) = materialize(&w);
        let engine = Engine::new(&db);
        let queries = random_world_query_classes(log, event, team);
        for (what, q) in &queries {
            for dedup in [true, false] {
                let opts = EvalOptions { dedup };
                prop_assert_eq!(
                    common::engine_rows(&engine, &db, q, opts).unwrap(),
                    q.explained_rows(&db, opts).unwrap(),
                    "{} (dedup={})", what, dedup
                );
                prop_assert_eq!(
                    common::engine_support(&engine, &db, q, opts).unwrap(),
                    q.support(&db, opts).unwrap(),
                    "{} (dedup={})", what, dedup
                );
            }
        }

        // Append the second batch and refresh: the warm engine must keep
        // matching the row evaluator on the grown database.
        let mut db = db;
        let mut engine = engine;
        for &(lid, user, patient) in &w.log_appends {
            db.insert(
                log,
                vec![Value::Int(lid), Value::Int(user), Value::Int(patient)],
            )
            .unwrap();
        }
        for &(p, a, null_actor) in &w.event_appends {
            let actor = if null_actor {
                Value::Null
            } else {
                Value::Int(a)
            };
            db.insert(event, vec![Value::Int(p), actor]).unwrap();
        }
        engine.refresh(&db).unwrap();
        for (what, q) in &queries {
            for dedup in [true, false] {
                let opts = EvalOptions { dedup };
                prop_assert_eq!(
                    common::engine_rows(&engine, &db, q, opts).unwrap(),
                    q.explained_rows(&db, opts).unwrap(),
                    "after refresh: {} (dedup={})", what, dedup
                );
                prop_assert_eq!(
                    common::engine_support(&engine, &db, q, opts).unwrap(),
                    q.support(&db, opts).unwrap(),
                    "after refresh: {} (dedup={})", what, dedup
                );
            }
        }
    }

    /// Satellite property (PR 4): `RefreshError`'s **read-only pre-pass**
    /// invariant. A refused refresh — `TableShrank` from refreshing
    /// against a database with fewer rows, `CatalogShrank` against one
    /// with fewer tables — must leave the engine answering *identically*
    /// to before the failed call, for every query class, and a subsequent
    /// refresh against the right database must still succeed.
    #[test]
    fn failed_refresh_prepass_leaves_the_engine_intact(w in random_world()) {
        let (db, log, event, team) = materialize(&w);
        // Grow a copy: the generated appends plus one guaranteed row, so
        // the original is always strictly shorter.
        let mut grown = db.clone();
        for &(lid, user, patient) in &w.log_appends {
            grown
                .insert(log, vec![Value::Int(lid), Value::Int(user), Value::Int(patient)])
                .unwrap();
        }
        grown
            .insert(log, vec![Value::Int(1_000_000), Value::Int(0), Value::Int(0)])
            .unwrap();
        let queries = random_world_query_classes(log, event, team);
        let opts = EvalOptions::default();
        let answers = |engine: &Engine, db: &Database| -> Vec<(Vec<_>, usize)> {
            queries
                .iter()
                .map(|(_, q)| {
                    (
                        common::engine_rows(engine, db, q, opts).unwrap(),
                        common::engine_support(engine, db, q, opts).unwrap(),
                    )
                })
                .collect()
        };

        // TableShrank: a warm engine over the grown database refuses to
        // refresh against the shorter original...
        let mut engine = Engine::new(&grown);
        let before = answers(&engine, &grown);
        let err = engine.refresh(&db).unwrap_err();
        prop_assert!(matches!(err, RefreshError::TableShrank { .. }), "{:?}", err);
        // ...and keeps answering exactly as before the failed call.
        prop_assert_eq!(&answers(&engine, &grown), &before, "TableShrank left damage");
        // A refresh against the right database still works afterwards.
        prop_assert!(engine.refresh(&grown).unwrap().delta.is_empty());
        prop_assert_eq!(&answers(&engine, &grown), &before, "no-op refresh changed answers");

        // CatalogShrank: an engine over a database with one extra table
        // refuses to refresh against one without it — same invariant.
        let mut wider = grown.clone();
        let extra = wider
            .create_table("Extra", &[("Patient", DataType::Int), ("Y", DataType::Int)])
            .unwrap();
        wider.insert(extra, vec![Value::Int(1), Value::Int(2)]).unwrap();
        let mut engine = Engine::new(&wider);
        let before = answers(&engine, &wider);
        let err = engine.refresh(&grown).unwrap_err();
        prop_assert!(matches!(err, RefreshError::CatalogShrank { .. }), "{:?}", err);
        prop_assert_eq!(&answers(&engine, &wider), &before, "CatalogShrank left damage");
        prop_assert!(engine.refresh(&wider).unwrap().delta.is_empty());
    }
}

// ------------------------------------------------ concurrent snapshot handoff

/// The handoff guarantee: N reader threads query a [`ShardedEngine`] (at
/// `EBA_SHARDS`) while the writer appends + publishes. Every answer
/// a reader observes must be exactly the answer of *some published
/// epoch* — enforced by (a) epochs being internally consistent (every
/// shard engine's result == row-evaluator result over the shard's own
/// frozen database), (b) sequence numbers moving only forward per reader,
/// and (c) all observers agreeing on each epoch's contents (same seq ⇒
/// same log length).
#[test]
fn shared_engine_readers_always_observe_a_published_epoch() {
    let world = common::AuditWorld::tiny(SynthConfig::tiny().seed);
    let spec = &world.spec;
    let suite = world.suite();
    let opts = EvalOptions::default();
    // `ShardedEngine::new` seals the partitioned seed data, so the
    // initial vector already owns sealed (Arc-shared) row segments — the
    // segment-sharing assertions below cover real sharing, not empty
    // prefixes.
    let shared = ShardedEngine::new(
        world.hospital.db.clone(),
        world.key(),
        common::test_shards(),
    );
    let rounds = 4u64;
    let epochs = common::EpochLog::new();
    // Pin down the initial epoch before any thread runs: under a loaded
    // scheduler the writer can publish seq 1 before a reader's first
    // load, and seq 0 would otherwise go unobserved.
    epochs.observe(0, shared.load().global_log_len());
    // A pinned session: its vector must answer byte-identically for the
    // whole run even though every newer vector shares its sealed
    // segments (catches in-place mutation of a shared chunk).
    let pinned = shared.load();
    let answer = |vec: &eba::relational::EpochVec, q: &ChainQuery| {
        vec.eval_suite(std::slice::from_ref(q), opts)
            .remove(0)
            .unwrap()
    };
    let pinned_answers: Vec<RowSet> = suite.iter().map(|q| answer(&pinned, q)).collect();
    assert!(
        pinned
            .shards()
            .iter()
            .any(|s| !s.db().table(spec.table).sealed_row_segments().is_empty()),
        "sealed seed data spans at least one segment"
    );

    // The writer's payload: the canonical batches of an unsharded oracle.
    let mut oracle = world.oracle();
    let batches: Vec<_> = (0..rounds)
        .map(|round| oracle.ingest(|db| world.inject_batch(db, 25, 0xF00 + round)))
        .collect();

    common::readers_vs_writer(
        3,
        |_, done| {
            let mut last_seq = 0u64;
            common::reader_loop(done, |checked| {
                let vec = shared.load();
                assert!(vec.seq() >= last_seq, "epoch went backwards");
                last_seq = vec.seq();
                epochs.observe(vec.seq(), vec.global_log_len());
                let q = &suite[checked % suite.len()];
                for (shard, old) in vec.shards().iter().zip(pinned.shards()) {
                    // The answer must be the published epoch's answer:
                    // the engine agrees with the reference row evaluator
                    // over the shard's own frozen database.
                    assert_eq!(
                        common::engine_rows(shard.engine(), shard.db(), q, opts).unwrap(),
                        q.explained_rows(shard.db(), opts).unwrap(),
                        "epoch {} inconsistent",
                        vec.seq()
                    );
                    // Segmented storage: the current epoch shares the
                    // pinned epoch's sealed log segments by pointer...
                    common::assert_sealed_segments_shared(
                        old.db().table(spec.table),
                        shard.db().table(spec.table),
                        "pinned epoch vs current",
                    );
                }
                // ...and the pinned epoch's answers stay byte-stable.
                assert_eq!(
                    answer(&pinned, q),
                    pinned_answers[checked % suite.len()],
                    "pinned epoch answer drifted under concurrent ingests"
                );
            });
        },
        || {
            for (round, rows) in batches.iter().enumerate() {
                let report = common::ingest_rows(&shared, &oracle.db, rows);
                assert_eq!(report.seq, round as u64 + 1);
                epochs.observe(report.seq, shared.load().global_log_len());
            }
        },
    );

    // Every published epoch was observed with a strictly growing log.
    epochs.assert_log_grew_each_epoch(rounds);
    // And the final epoch matches the per-query path on the oracle.
    let last = shared.load();
    assert_eq!(last.seq(), rounds);
    assert_eq!(
        explained(&AuditView::pinned(&last), spec, world.explainer.templates()),
        explained_cold(&oracle.db, spec, world.explainer.templates())
    );
}

/// Regression (mutex-poison death spiral): a deliberately panicking query
/// must not poison the engine — the same warm session keeps returning
/// exact answers afterwards, on both the one-shot and the batch path.
#[test]
fn panicking_query_leaves_the_session_answering() {
    let mut h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let engine = Engine::new(&h.db);
    let queries = hospital_queries(&h.db, &spec);
    let opts = EvalOptions::default();
    // Warm the session.
    for (_, q) in &queries {
        let _ = common::engine_rows(&engine, &h.db, q, opts).unwrap();
    }
    // A query over a table the engine's snapshot has never seen panics
    // (stale-snapshot misuse). It must not take the session down.
    let extra =
        h.db.create_table(
            "PanicBait",
            &[("Patient", DataType::Int), ("X", DataType::Int)],
        )
        .unwrap();
    h.db.insert(extra, vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    let stale = ChainQuery {
        log: spec.table,
        lid_col: spec.lid_col,
        start_col: spec.patient_col,
        steps: vec![ChainStep::new(extra, 0, 1)],
        close_col: None,
        anchor_filters: vec![],
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        common::engine_rows(&engine, &h.db, &stale, opts)
    }));
    assert!(caught.is_err(), "stale-snapshot query panics");

    // Every query class still answers exactly — no poisoned locks, no
    // torn scratch state.
    for (what, q) in &queries {
        assert_equivalent(&h.db, &engine, q, &format!("after panic: {what}"));
    }
    let batch: Vec<ChainQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
    for (q, got) in batch.iter().zip(engine.support_many(&h.db, &batch, opts)) {
        assert_eq!(got.unwrap(), q.support(&h.db, opts).unwrap());
    }
}

/// Regression (abort-on-shrink): refreshing against a database where a
/// table shrank returns a typed error instead of taking the process down,
/// and the engine keeps answering from its intact snapshot.
#[test]
fn refresh_against_shrunk_database_is_an_error_not_an_abort() {
    let h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    // Engine over a grown copy; refreshing against the shorter original
    // is exactly the "wrong database" misuse.
    let mut grown = h.db.clone();
    let users = eba::audit::fake::user_pool(&grown);
    let patients: Vec<Value> = (0..h.world.n_patients())
        .map(|p| h.patient_value(p))
        .collect();
    eba::audit::fake::FakeLog::inject(
        &mut grown,
        h.t_log,
        &h.log_cols,
        &users,
        &patients,
        10,
        h.config.days,
        7,
    );
    let mut engine = Engine::new(&grown);
    let q = hospital_queries(&grown, &spec).remove(0).1;
    let expected = common::engine_rows(&engine, &grown, &q, EvalOptions::default()).unwrap();
    let err = engine.refresh(&h.db).unwrap_err();
    assert!(matches!(err, RefreshError::TableShrank { .. }));
    assert_eq!(
        common::engine_rows(&engine, &grown, &q, EvalOptions::default()).unwrap(),
        expected,
        "engine unchanged after refused refresh"
    );
    // And a refresh against the right database still works afterwards.
    assert!(engine.refresh(&grown).unwrap().delta.is_empty());
}

#[test]
fn engine_rejects_what_the_evaluator_rejects() {
    let h = Hospital::generate(SynthConfig::tiny());
    let spec = LogSpec::conventional(&h.db).unwrap();
    let engine = Engine::new(&h.db);
    let bad = ChainQuery {
        log: spec.table,
        lid_col: spec.lid_col,
        start_col: 999,
        steps: vec![],
        close_col: None,
        anchor_filters: vec![],
    };
    assert!(common::engine_support(&engine, &h.db, &bad, EvalOptions::default()).is_err());
    assert!(bad.support(&h.db, EvalOptions::default()).is_err());
}
