//! The fused-scan proof: the single-pass suite driver
//! ([`Engine::eval_suite`]) plus the compressed row-set algebra
//! ([`RowSet`]) must be **byte-identical** to the old per-template path
//! across the whole audit surface — per-query explained rows, the suite
//! union, the unexplained residue, recall/precision confusion counts, and
//! the day-bucketed timeline — at shard counts {1, 4}, including:
//!
//! * the empty template set (an empty fused pass over any database);
//! * overflow-day and NULL-dated rows (the timeline's overflow bucket);
//! * proptest-driven random worlds mixing NULLs, anchor filters,
//!   constant decorations, and anchor-dependent decorations, where the
//!   row-set algebra (union/intersect/difference/rank) is checked
//!   against a sorted-`Vec` reference over the *actual* evaluated sets.

mod common;

use common::AuditWorld;
use eba::audit::explain::{anchors, explained, explained_cold, unexplained};
use eba::audit::{metrics, portal, timeline, AuditView};
use eba::relational::{
    ChainQuery, ChainStep, CmpOp, DataType, Database, Engine, EvalOptions, RowId, RowSet, ShardKey,
    ShardedEngine, TableId, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The per-template reference: one single-template pass of the driver
/// per query, exactly what `eval_suite` fuses into a single scan.
fn per_template_reference(
    engine: &Engine,
    db: &Database,
    queries: &[ChainQuery],
    opts: EvalOptions,
) -> Vec<Vec<RowId>> {
    queries
        .iter()
        .map(|q| common::engine_rows(engine, db, q, opts).expect("valid query"))
        .collect()
}

#[test]
fn fused_suite_matches_the_per_template_path_on_the_hospital() {
    for seed in [5u64, 23] {
        let world = AuditWorld::tiny(seed);
        let db = &world.hospital.db;
        let engine = Engine::new(db);
        let suite = world.suite();
        for dedup in [true, false] {
            let opts = EvalOptions { dedup };
            let reference: Vec<Vec<RowId>> = suite
                .iter()
                .map(|q| q.explained_rows(db, opts).unwrap())
                .collect();
            let fused = engine.eval_suite(db, &suite, opts);
            assert_eq!(fused.len(), suite.len());
            let mut sets = Vec::new();
            for (i, (set, expect)) in fused.into_iter().zip(&reference).enumerate() {
                let set = set.expect("valid query");
                assert_eq!(
                    &set.to_vec(),
                    expect,
                    "seed {seed} q{i} (dedup={dedup}): fused set diverged"
                );
                // The compressed set agrees with itself on every probe.
                assert_eq!(set.len(), expect.len());
                for &r in expect {
                    assert!(set.contains(r));
                }
                sets.push(set);
            }
            // The associative fold of the fused sets equals the
            // set-union of the references.
            let union: BTreeSet<RowId> = reference.iter().flatten().copied().collect();
            let union_vec: Vec<RowId> = union.into_iter().collect();
            assert_eq!(
                RowSet::union_all(sets).to_vec(),
                union_vec,
                "seed {seed} (dedup={dedup}): fused union diverged"
            );
        }
    }
}

/// The decorated-template class: the anchor-dependent repeat-access
/// template plus seven "repeat access since day D" variants (one extra
/// constant decoration each on the decorated alias), all sharing one
/// `(Patient, User)` partition: each walk folds the min date of the
/// patient's passing accesses per user, and each anchor row is one
/// comparison with it. The suite's sets must equal the per-template path
/// and the cold reference slot for slot, for a suite of one and of eight.
#[test]
fn anchor_dependent_policy_suite_matches_the_cold_reference() {
    use eba::relational::{Rhs, StepFilter};
    let world = AuditWorld::tiny(17);
    let db = &world.hospital.db;
    let spec = &world.spec;
    let base = eba::audit::HandcraftedTemplates::build(db, spec)
        .unwrap()
        .repeat_access
        .path;
    let days = world.hospital.config.days as i64;
    let mut policies = vec![base.to_chain_query(spec)];
    for i in 1..8i64 {
        let filter = StepFilter {
            col: world.hospital.log_cols.date,
            op: CmpOp::Ge,
            rhs: Rhs::Const(Value::Date(i * days / 8 * 24 * 60)),
        };
        let path = base.decorated(1, filter).expect("alias 1 exists");
        policies.push(path.to_chain_query(spec));
    }
    assert!(policies.iter().all(ChainQuery::is_anchor_dependent));
    let engine = Engine::new(db);
    let opts = EvalOptions::default();
    for k in [1usize, 8] {
        let suite = &policies[..k];
        let fused: Vec<Vec<RowId>> = engine
            .eval_suite(db, suite, opts)
            .into_iter()
            .map(|s| s.expect("valid suite").to_vec())
            .collect();
        assert_eq!(
            fused,
            per_template_reference(&engine, db, suite, opts),
            "suite of {k}: engine per-template path"
        );
        for (q, rows) in suite.iter().zip(&fused) {
            assert_eq!(rows, &q.explained_rows(db, opts).unwrap(), "suite of {k}");
        }
    }
    // The decorations bite: a later "since" day explains no more rows.
    let sizes: Vec<usize> = engine
        .eval_suite(db, &policies, opts)
        .into_iter()
        .map(|s| s.unwrap().len())
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
    assert!(sizes[0] > sizes[7], "{sizes:?}");
}

/// The repeat-access skew case: one patient holds half the log, so one
/// start group holds half the anchor rows and its extremum walk folds
/// that patient's whole history once, for all of them. The engine, the
/// sharded scatter-gather and the maintained partition (advanced over the
/// skewed batch) must each equal the cold reference, at shards {1, 4}.
#[test]
fn a_patient_holding_half_the_log_matches_the_cold_reference() {
    let world = AuditWorld::tiny(29);
    let base_len = world.hospital.log_len();
    let mut oracle = world.oracle();
    let users = &world.users[..world.users.len().min(16)];
    let rows = oracle.ingest(|db| {
        eba::audit::fake::FakeLog::inject(
            db,
            world.hospital.t_log,
            &world.hospital.log_cols,
            users,
            &world.patients[..1],
            base_len,
            world.hospital.config.days,
            29,
        );
    });
    let db = &oracle.db;
    let cold = explained_cold(db, &world.spec, world.explainer.templates());
    // Most of the hot patient's accesses are repeats: the case bites.
    let hot: RowSet = (base_len as RowId..2 * base_len as RowId).collect();
    assert!(
        cold.intersect_len(&hot) > base_len / 2,
        "{}",
        cold.intersect_len(&hot)
    );

    let suite = world.suite();
    let opts = EvalOptions::default();
    let union = |sets: Vec<eba::relational::Result<RowSet>>| {
        RowSet::union_all(sets.into_iter().map(|s| s.expect("valid suite")))
    };
    let engine = Engine::new(db);
    assert_eq!(union(engine.eval_suite(db, &suite, opts)), cold, "engine");
    for n in [1usize, 4] {
        let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), n);
        let pin = sharded.pin_suite(world.explainer.suite_pin(&world.spec));
        common::ingest_rows(&sharded, db, &rows);
        let epochs = sharded.load();
        assert_eq!(union(epochs.eval_suite(&suite, opts)), cold, "{n} shards");
        let maintained = epochs.maintained(pin).expect("pinned vector");
        assert_eq!(maintained.explained, cold, "{n} shards: maintained");
    }
}

/// The density case: `tiny` worlds whose repeat chains run longer
/// (`p_repeat` 0.55, 0.85 and 0.95: about 9, 26 and 77 accesses per
/// patient, around the paper's 36). On each world, repeat access explains
/// exactly the time-ordered log's `IsFirst = 0` rows, and after one
/// ingested batch the engine, the sharded scatter-gather and the
/// maintained partition each equal the cold reference, at shards {1, 4}.
#[test]
fn repeat_density_worlds_match_the_cold_reference() {
    let opts = EvalOptions::default();
    let union = |sets: Vec<eba::relational::Result<RowSet>>| {
        RowSet::union_all(sets.into_iter().map(|s| s.expect("valid suite")))
    };
    let mut densities = Vec::new();
    for p_repeat in [0.55, 0.85, 0.95] {
        let world = AuditWorld::from_config(eba::synth::SynthConfig {
            seed: 37,
            p_repeat,
            ..eba::synth::SynthConfig::tiny()
        });
        let base = &world.hospital.db;
        densities.push(world.hospital.log_len() as f64 / world.patients.len() as f64);
        let repeat = eba::audit::HandcraftedTemplates::build(base, &world.spec)
            .unwrap()
            .repeat_access
            .path
            .to_chain_query(&world.spec);
        let is_first = world.hospital.log_cols.is_first;
        let repeats: Vec<RowId> = base
            .table(world.hospital.t_log)
            .iter()
            .filter(|(_, row)| row[is_first] == Value::Int(0))
            .map(|(r, _)| r)
            .collect();
        let engine = Engine::new(base);
        assert_eq!(
            common::engine_rows(&engine, base, &repeat, opts).unwrap(),
            repeats,
            "p_repeat {p_repeat}: repeat access ≡ IsFirst = 0"
        );

        let mut oracle = world.oracle();
        let rows = oracle.ingest(|db| world.inject_batch(db, 200, 37));
        let db = &oracle.db;
        let cold = explained_cold(db, &world.spec, world.explainer.templates());
        let suite = world.suite();
        let engine = Engine::new(db);
        let what = format!("p_repeat {p_repeat}");
        assert_eq!(union(engine.eval_suite(db, &suite, opts)), cold, "{what}");
        for n in [1usize, 4] {
            let sharded = ShardedEngine::new(base.clone(), world.key(), n);
            let pin = sharded.pin_suite(world.explainer.suite_pin(&world.spec));
            common::ingest_rows(&sharded, db, &rows);
            let epochs = sharded.load();
            assert_eq!(
                union(epochs.eval_suite(&suite, opts)),
                cold,
                "{what}, {n} shards"
            );
            let maintained = epochs.maintained(pin).expect("pinned vector");
            assert_eq!(maintained.explained, cold, "{what}, {n} shards: maintained");
        }
    }
    assert!(
        densities[0] < 15.0 && densities[1] > 20.0 && densities[2] > 60.0,
        "{densities:?}"
    );
}

#[test]
fn empty_template_set_is_an_empty_fused_pass() {
    let world = AuditWorld::tiny(11);
    let db = &world.hospital.db;
    let engine = Engine::new(db);
    let none: Vec<ChainQuery> = Vec::new();
    let opts = EvalOptions::default();
    assert!(engine.eval_suite(db, &none, opts).is_empty());
    // An empty template set explains nothing and leaves every anchor row
    // unexplained — through a warm view too.
    let all: RowSet = (0..world.hospital.log_len() as RowId).collect();
    let check = |view: &AuditView, what: &str| {
        let union = explained(view, &world.spec, []);
        assert!(union.is_empty(), "{what}");
        assert_eq!(union.to_vec(), Vec::<RowId>::new());
        assert_eq!(unexplained(view, &world.spec, &union), all, "{what}");
    };
    check(&AuditView::warm(db, &engine), "warm pair");
    // And the sharded fused path agrees at both CI shard counts.
    let key = ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    };
    for n in [1usize, 4] {
        let shards = ShardedEngine::new(world.hospital.db.clone(), key, n).load();
        assert!(shards.eval_suite(&none, opts).is_empty());
        check(&AuditView::pinned(&shards), &format!("{n} shards"));
    }
}

/// Renders the audit surface to one transcript string — per-query rows,
/// union, unexplained, confusion, timeline, triage queue — so the
/// fused/warm path and the cold per-query path are compared byte for
/// byte. `explained` is the caller's suite union; every report below it
/// is the audit layer's one function of `(view, row set)`.
fn audit_transcript(
    world: &AuditWorld,
    per_query: &[Vec<RowId>],
    explained: &RowSet,
    view: &AuditView,
) -> String {
    let spec = &world.spec;
    let mut out = String::new();
    for (i, rows) in per_query.iter().enumerate() {
        out.push_str(&format!("q{i} rows {rows:?}\n"));
    }
    out.push_str(&format!("union {:?}\n", explained.to_vec()));
    let residue = unexplained(view, spec, explained);
    out.push_str(&format!("unexplained {:?}\n", residue.to_vec()));
    let confusion = metrics::evaluate(&anchors(view, spec), explained, None, None);
    out.push_str(&format!(
        "confusion real {}/{} fake {}/{} with_events {}\n",
        confusion.real_explained,
        confusion.real_total,
        confusion.fake_explained,
        confusion.fake_total,
        confusion.real_with_events
    ));
    let t = timeline::daily_stats(
        view,
        spec,
        &world.hospital.log_cols,
        world.hospital.config.days,
        explained,
    );
    for s in &t.days {
        out.push_str(&format!(
            "day {} {} {} {} {}\n",
            s.day, s.total, s.explained, s.first_accesses, s.first_explained
        ));
    }
    out.push_str(&format!(
        "overflow {} {} {} {} dropped {}\n",
        t.overflow.total,
        t.overflow.explained,
        t.overflow.first_accesses,
        t.overflow.first_explained,
        t.dropped()
    ));
    for s in portal::misuse_summary(view, spec, &residue) {
        out.push_str(&format!(
            "suspect {:?} {} {}\n",
            s.user, s.unexplained, s.distinct_patients
        ));
    }
    out
}

/// The cold per-query transcript: the suite union comes from the
/// reference row evaluator on the bare database, so no engine evaluates
/// anything on the path (the view's engine is never asked).
fn cold_transcript(world: &AuditWorld) -> String {
    let db = &world.hospital.db;
    let per_query: Vec<Vec<RowId>> = world
        .suite()
        .iter()
        .map(|q| q.explained_rows(db, EvalOptions::default()).unwrap())
        .collect();
    let engine = Engine::new(db);
    audit_transcript(
        world,
        &per_query,
        &explained_cold(db, &world.spec, world.explainer.templates()),
        &AuditView::warm(db, &engine),
    )
}

/// The warm fused transcript over an engine.
fn fused_transcript(world: &AuditWorld, engine: &Engine) -> String {
    let db = &world.hospital.db;
    let per_query: Vec<Vec<RowId>> = engine
        .eval_suite(db, &world.suite(), EvalOptions::default())
        .into_iter()
        .map(|s| s.unwrap().to_vec())
        .collect();
    let view = AuditView::warm(db, engine);
    let union = explained(&view, &world.spec, world.explainer.templates());
    audit_transcript(world, &per_query, &union, &view)
}

/// The sharded fused transcript over an epoch vector.
fn sharded_fused_transcript(world: &AuditWorld, shards: &eba::relational::EpochVec) -> String {
    let per_query: Vec<Vec<RowId>> = shards
        .eval_suite(&world.suite(), EvalOptions::default())
        .into_iter()
        .map(|s| s.unwrap().to_vec())
        .collect();
    let view = AuditView::pinned(shards);
    let union = explained(&view, &world.spec, world.explainer.templates());
    audit_transcript(world, &per_query, &union, &view)
}

#[test]
fn fused_transcripts_are_byte_identical_with_overflow_day_rows() {
    let mut world = AuditWorld::tiny(31);
    // Plant rows the timeline cannot bucket: a date past the reporting
    // window, a negative date, and a NULL date — all must land in the
    // overflow bucket identically on every path.
    {
        let cols = &world.hospital.log_cols;
        let spec_table = world.spec.table;
        let arity = world.hospital.db.table(spec_table).schema().arity();
        let user = world.users[0];
        let patient = world.patients[0];
        for (i, date) in [
            Value::Date((world.hospital.config.days as i64 + 400) * 24 * 60),
            Value::Date(-5),
            Value::Null,
        ]
        .into_iter()
        .enumerate()
        {
            let mut row = vec![Value::Null; arity];
            row[cols.lid] = Value::Int(9_000_000 + i as i64);
            row[cols.user] = user;
            row[cols.patient] = patient;
            row[cols.date] = date;
            world
                .hospital
                .db
                .insert(spec_table, row)
                .expect("valid row");
        }
    }
    let expect = cold_transcript(&world);
    assert!(
        expect.contains("overflow 3")
            || world.hospital.config.days == 0
            || expect.lines().any(|l| l.starts_with("overflow ")),
        "the planted rows reached the overflow bucket:\n{expect}"
    );
    let engine = Engine::new(&world.hospital.db);
    assert_eq!(fused_transcript(&world, &engine), expect, "warm fused path");
    let key = ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    };
    for n in [1usize, 4] {
        let shards = ShardedEngine::new(world.hospital.db.clone(), key, n).load();
        assert_eq!(
            sharded_fused_transcript(&world, &shards),
            expect,
            "{n} shards fused path"
        );
    }
}

// --------------------------------------------------------------- proptest

/// A random two-hop world (same shape as `engine_equivalence.rs`):
/// Log(Lid, User, Patient), Event(Patient, Actor), Team(Member, Buddy),
/// NULL actors mixed in.
#[derive(Debug, Clone)]
struct RandomWorld {
    log_rows: Vec<(i64, i64, i64)>,
    event_rows: Vec<(i64, i64, bool)>,
    team_rows: Vec<(i64, i64)>,
    /// Anchor restrictions: a `[lo, hi)` range and a row subset, both
    /// allowed past the log end.
    range: (usize, usize),
    subset: Vec<u32>,
}

fn random_world() -> impl Strategy<Value = RandomWorld> {
    (
        prop::collection::vec((0..40i64, 0..6i64, 0..8i64), 1..30),
        prop::collection::vec((0..8i64, 0..6i64, 0..10i64), 0..25),
        prop::collection::vec((0..6i64, 0..6i64), 0..15),
        (
            (0..40usize, 0..40usize),
            prop::collection::vec(0..40u32, 0..20),
        ),
    )
        .prop_map(|(mut log_rows, event_rows, team_rows, (range, subset))| {
            for (i, r) in log_rows.iter_mut().enumerate() {
                r.0 = i as i64;
            }
            RandomWorld {
                log_rows,
                event_rows: event_rows
                    .into_iter()
                    .map(|(p, a, n)| (p, a, n == 0))
                    .collect(),
                team_rows,
                range,
                subset,
            }
        })
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

/// The full query-class zoo the fused driver buckets: closed and open
/// chains, two-hop, anchor-filtered, constant-decorated, and
/// anchor-decorated chains (walked as an extremum compare).
fn query_classes(log: TableId, event: TableId, team: TableId) -> Vec<ChainQuery> {
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
    // Each branch of the extremum walk: a `Const` filter beside the
    // anchor decoration on one alias (max, `>=`), a decoration at step 0
    // whose min is carried through the `Team` step, and an open chain
    // tested against the best extremum of its whole final frontier.
    let anchor_with_const = {
        let mut q = one_hop.clone();
        q.steps[0].filters.extend([
            eba::relational::StepFilter {
                col: 1,
                op: CmpOp::Ge,
                rhs: eba::relational::Rhs::AnchorCol(0),
            },
            eba::relational::StepFilter {
                col: 1,
                op: CmpOp::Le,
                rhs: eba::relational::Rhs::Const(Value::Int(4)),
            },
        ]);
        q
    };
    let anchor_carried = {
        let mut q = two_hop.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Lt,
            rhs: eba::relational::Rhs::AnchorCol(1),
        });
        q
    };
    let anchor_open = {
        let mut q = open.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Gt,
            rhs: eba::relational::Rhs::AnchorCol(1),
        });
        q
    };
    vec![
        one_hop,
        open,
        two_hop,
        filtered,
        decorated,
        anchor_dep,
        anchor_with_const,
        anchor_carried,
        anchor_open,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused driver equals the per-template path per slot and in
    /// union, on random worlds, under both dedup settings — over the
    /// whole log, a row range and a row subset, and as supports — and
    /// the row-set algebra over the evaluated sets equals a sorted-Vec
    /// reference.
    #[test]
    fn fused_driver_and_rowset_algebra_match_references(w in random_world()) {
        let (db, log, event, team) = materialize(&w);
        let engine = Engine::new(&db);
        let queries = query_classes(log, event, team);
        let n = db.table(log).len();
        let subset: RowSet = w.subset.iter().copied().collect();
        for dedup in [true, false] {
            let opts = EvalOptions { dedup };
            let reference: Vec<Vec<RowId>> = queries
                .iter()
                .map(|q| q.explained_rows(&db, opts).unwrap())
                .collect();
            let fused = engine.eval_suite(&db, &queries, opts);
            let mut sets = Vec::new();
            for (i, (set, expect)) in fused.into_iter().zip(&reference).enumerate() {
                let set = set.unwrap();
                prop_assert_eq!(&set.to_vec(), expect, "q{} (dedup={})", i, dedup);
                sets.push(set);
            }
            // Restricted forms: a range (the random one, an empty one,
            // and one past the log end) and a row subset, each ≡ the cold
            // answer restricted to those anchors.
            let (lo, hi) = w.range;
            for (lo, hi) in [(lo, hi), (hi, hi), (lo, n + 5)] {
                let ranged = engine.eval_suite_range(&db, &queries, opts, lo, hi);
                for (i, (set, expect)) in ranged.into_iter().zip(&reference).enumerate() {
                    let expect: Vec<RowId> = expect
                        .iter()
                        .copied()
                        .filter(|&r| lo <= r as usize && (r as usize) < hi)
                        .collect();
                    prop_assert_eq!(
                        set.unwrap().to_vec(), expect,
                        "q{} range [{}, {}) (dedup={})", i, lo, hi, dedup
                    );
                }
            }
            let rows = engine.eval_suite_rows(&db, &queries, opts, &subset);
            for (i, (set, expect)) in rows.into_iter().zip(&reference).enumerate() {
                let expect: Vec<RowId> =
                    expect.iter().copied().filter(|&r| subset.contains(r)).collect();
                prop_assert_eq!(set.unwrap().to_vec(), expect, "q{} rows (dedup={})", i, dedup);
            }
            // Support counts distinct lids. `Lid` is unique per log row,
            // so count by the non-unique `User` column too.
            let by_user: Vec<ChainQuery> = queries
                .iter()
                .map(|q| ChainQuery { lid_col: 1, ..q.clone() })
                .collect();
            for suite in [&queries, &by_user] {
                let supports = engine.support_many(&db, suite, opts);
                for (i, (q, support)) in suite.iter().zip(supports).enumerate() {
                    prop_assert_eq!(
                        support.unwrap(), q.support(&db, opts).unwrap(),
                        "q{} lid col {} support (dedup={})", i, q.lid_col, dedup
                    );
                }
            }
            // Union: fused vs BTreeSet reference.
            let union_ref: Vec<RowId> = reference
                .iter()
                .flatten()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            prop_assert_eq!(
                RowSet::union_all(sets.iter().cloned()).to_vec(),
                union_ref.clone(),
                "union (dedup={})", dedup
            );
            // Algebra over the actual evaluated sets: pairwise
            // intersect/difference and rank against sorted-Vec math.
            for a in 0..sets.len() {
                for b in (a + 1)..sets.len() {
                    let va: BTreeSet<RowId> = reference[a].iter().copied().collect();
                    let vb: BTreeSet<RowId> = reference[b].iter().copied().collect();
                    let inter: Vec<RowId> = va.intersection(&vb).copied().collect();
                    let diff: Vec<RowId> = va.difference(&vb).copied().collect();
                    prop_assert_eq!(sets[a].intersect(&sets[b]).to_vec(), inter);
                    prop_assert_eq!(sets[a].difference(&sets[b]).to_vec(), diff);
                }
                for (below, &r) in reference[a].iter().enumerate() {
                    prop_assert_eq!(sets[a].rank(r), below);
                }
            }
            // The unexplained residue as a bitmap difference equals the
            // filter-based complement over all log rows.
            let all = RowSet::from_sorted_vec(
                &(0..db.table(log).len() as RowId).collect::<Vec<_>>(),
            );
            let union_set = RowSet::from_sorted_vec(&union_ref);
            let residue: Vec<RowId> = (0..db.table(log).len() as RowId)
                .filter(|r| !union_ref.contains(r))
                .collect();
            prop_assert_eq!(all.difference(&union_set).to_vec(), residue);
        }
    }

    /// The sharded fused path equals the unsharded fused path (and hence
    /// the reference) at shard counts {1, 4}, including the empty suite.
    #[test]
    fn sharded_fused_path_matches_at_one_and_four_shards(w in random_world()) {
        let (db, log, event, team) = materialize(&w);
        let engine = Engine::new(&db);
        let queries = query_classes(log, event, team);
        let opts = EvalOptions::default();
        let expect: Vec<Vec<RowId>> = engine
            .eval_suite(&db, &queries, opts)
            .into_iter()
            .map(|s| s.unwrap().to_vec())
            .collect();
        let union = AuditView::warm(&db, &engine).eval_suite(&queries);
        let key = ShardKey { table: log, col: 2 };
        for n in [1usize, 4] {
            let shards = ShardedEngine::new(db.clone(), key, n).load();
            let got: Vec<Vec<RowId>> = shards
                .eval_suite(&queries, opts)
                .into_iter()
                .map(|s| s.unwrap().to_vec())
                .collect();
            prop_assert_eq!(&got, &expect, "{} shards", n);
            prop_assert_eq!(
                &AuditView::pinned(&shards).eval_suite(&queries),
                &union,
                "{} shards union", n
            );
            prop_assert!(shards.eval_suite(&[], opts).is_empty(), "{} shards empty suite", n);
        }
    }
}
