//! Differential storage-equivalence suite — the headline test of the
//! segmented-storage refactor.
//!
//! `eba_relational` stores append-only tables (and the engine's interned
//! columns) as immutable `Arc`-shared segments plus a small mutable tail,
//! so that epoch publication (`Database::clone` + `Engine::fork`) costs
//! `O(batch)` instead of `O(database)`. This suite proves three things
//! about that storage, differentially against a **flat oracle** — the
//! same code driven with an effectively unbounded segment capacity, so
//! every row lives in one flat tail exactly like the pre-segmentation
//! layout:
//!
//! 1. **Answer equivalence**: under proptest-random interleavings of
//!    `ingest` / `seal` / `fork` / `refresh`, every query class returns
//!    byte-identical `explained_rows` and `support` on segmented storage
//!    (engine path *and* row-evaluator path) as on a flat rebuild of the
//!    same logical contents — and raw cells, index probes, and iteration
//!    agree too.
//! 2. **Structural sharing**: sealed segments are shared **by pointer**
//!    (`Arc::ptr_eq`) between consecutive epochs — in the database's row
//!    heaps and in the engine snapshot's interned columns — and pinned
//!    epochs stay byte-stable while newer epochs reuse their segments.
//! 3. **`O(batch)` publication**: the copy meter
//!    ([`segment::copied_bytes`]) shows the bytes an epoch publication
//!    copies stay flat as the database grows ~10×, and are ≥5× below
//!    what flat storage would copy.

use eba::relational::segment::{copied_bytes, reset_copied_bytes};
use eba::relational::{
    ChainQuery, ChainStep, CmpOp, DataType, Database, Engine, EpochVec, EvalOptions, RefreshError,
    Rhs, ShardKey, ShardedBatch, ShardedEngine, StepFilter, TableId, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// Tiny segment capacity so a handful of rows spans several sealed
/// segments.
const SEG_ROWS: usize = 8;

/// "Flat" capacity: everything stays in one mutable tail, reproducing the
/// pre-segmentation storage layout through the same code path.
const FLAT_ROWS: usize = 1 << 30;

/// Department codes used for `Str` cells. Interned in this order into
/// every database, so symbols (and therefore `Value`s) agree across the
/// segmented side and every flat oracle rebuild.
const DEPTS: [&str; 3] = ["Peds", "Rad", "ER"];

#[derive(Debug, Clone, Copy, PartialEq)]
struct LogRow {
    lid: i64,
    user: i64,
    patient: i64,
    dept: usize, // index into DEPTS; usize::MAX encodes NULL
    date: i64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct EventRow {
    patient: i64,
    actor: i64, // -1 encodes NULL
    tag: usize, // index into DEPTS
}

/// The logical contents both sides must agree on — the oracle of truth.
#[derive(Debug, Clone, Default)]
struct FlatOracle {
    log: Vec<LogRow>,
    event: Vec<EventRow>,
    team: Vec<(i64, i64)>,
}

struct World {
    db: Database,
    log: TableId,
    event: TableId,
    team: TableId,
    depts: [Value; 3],
}

/// Creates the three-table schema with the given segment capacity,
/// pre-interning the department strings in a fixed order.
fn make_world(seg_rows: usize) -> World {
    let mut db = Database::new();
    db.set_segment_rows(seg_rows);
    let depts = DEPTS.map(|d| db.str_value(d));
    let log = db
        .create_table(
            "Log",
            &[
                ("Lid", DataType::Int),
                ("User", DataType::Int),
                ("Patient", DataType::Int),
                ("Dept", DataType::Str),
                ("Date", DataType::Date),
            ],
        )
        .unwrap();
    let event = db
        .create_table(
            "Event",
            &[
                ("Patient", DataType::Int),
                ("Actor", DataType::Int),
                ("Tag", DataType::Str),
            ],
        )
        .unwrap();
    let team = db
        .create_table(
            "Team",
            &[("Member", DataType::Int), ("Buddy", DataType::Int)],
        )
        .unwrap();
    World {
        db,
        log,
        event,
        team,
        depts,
    }
}

fn log_values(w: &World, r: &LogRow) -> Vec<Value> {
    vec![
        Value::Int(r.lid),
        Value::Int(r.user),
        Value::Int(r.patient),
        if r.dept == usize::MAX {
            Value::Null
        } else {
            w.depts[r.dept % DEPTS.len()]
        },
        Value::Date(r.date),
    ]
}

fn event_values(w: &World, r: &EventRow) -> Vec<Value> {
    vec![
        Value::Int(r.patient),
        if r.actor < 0 {
            Value::Null
        } else {
            Value::Int(r.actor)
        },
        w.depts[r.tag % DEPTS.len()],
    ]
}

impl FlatOracle {
    /// Materializes the oracle contents into a fresh **flat** database
    /// (single-tail storage) — the reference the segmented side must
    /// match byte-for-byte.
    fn rebuild(&self) -> World {
        let mut w = make_world(FLAT_ROWS);
        for r in &self.log {
            let values = log_values(&w, r);
            w.db.insert(w.log, values).unwrap();
        }
        for r in &self.event {
            let values = event_values(&w, r);
            w.db.insert(w.event, values).unwrap();
        }
        for &(m, b) in &self.team {
            w.db.insert(w.team, vec![Value::Int(m), Value::Int(b)])
                .unwrap();
        }
        w
    }
}

/// Every query class the engine distinguishes: closed/open chains,
/// two-hop, anchor-filtered (with a `Str` filter), constant-decorated,
/// and anchor-dependent decorated.
fn query_classes(w: &World) -> Vec<(&'static str, ChainQuery)> {
    let one_hop = ChainQuery {
        log: w.log,
        lid_col: 0,
        start_col: 2,
        steps: vec![ChainStep::new(w.event, 0, 1)],
        close_col: Some(1),
        anchor_filters: vec![],
    };
    let open = ChainQuery {
        close_col: None,
        ..one_hop.clone()
    };
    let two_hop = ChainQuery {
        steps: vec![ChainStep::new(w.event, 0, 1), ChainStep::new(w.team, 0, 1)],
        ..one_hop.clone()
    };
    let filtered = ChainQuery {
        anchor_filters: vec![(4, CmpOp::Ge, Value::Date(3)), (3, CmpOp::Eq, w.depts[0])],
        ..one_hop.clone()
    };
    let decorated = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(StepFilter {
            col: 2,
            op: CmpOp::Eq,
            rhs: Rhs::Const(w.depts[1]),
        });
        q
    };
    let anchor_dep = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
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

/// Asserts the segmented side and a flat oracle rebuild agree on raw
/// storage (cells, iteration, index probes) and on every query class
/// through both the engine and the reference row evaluator.
fn assert_equivalent(seg: &World, engine: &Engine, oracle: &FlatOracle, what: &str) {
    let flat = oracle.rebuild();
    for (tid, flat_tid) in [
        (seg.log, flat.log),
        (seg.event, flat.event),
        (seg.team, flat.team),
    ] {
        let a = seg.db.table(tid);
        let b = flat.db.table(flat_tid);
        assert_eq!(a.len(), b.len(), "{what}: row count of {}", a.name());
        for (rid, row) in a.iter() {
            assert_eq!(row, b.row(rid), "{what}: {} row {rid}", a.name());
        }
        // Index probes agree (both in ascending row order).
        for col in 0..a.schema().arity() {
            for probe in [
                Value::Int(1),
                Value::Int(3),
                seg.depts[0],
                Value::Null,
                Value::Date(4),
            ] {
                if probe.data_type() == Some(a.schema().col_type(col)) || probe.is_null() {
                    assert_eq!(
                        a.rows_with(col, probe),
                        b.rows_with(col, probe),
                        "{what}: {} rows_with({col})",
                        a.name()
                    );
                }
            }
        }
    }
    let opts = EvalOptions::default();
    for (name, q) in query_classes(seg) {
        let flat_rows = q.explained_rows(&flat.db, opts).unwrap();
        assert_eq!(
            q.explained_rows(&seg.db, opts).unwrap(),
            flat_rows,
            "{what}: {name} row evaluator on segmented storage"
        );
        assert_eq!(
            common::engine_rows(engine, &seg.db, &q, opts).unwrap(),
            flat_rows,
            "{what}: {name} engine on segmented storage"
        );
        assert_eq!(
            common::engine_support(engine, &seg.db, &q, opts).unwrap(),
            q.support(&flat.db, opts).unwrap(),
            "{what}: {name} support"
        );
    }
}

// ------------------------------------------------------------ proptest ops

/// One step of a random storage interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Append a batch of log + event (+ maybe team) rows, then refresh.
    Ingest {
        log: Vec<(i64, i64, u8, i64)>, // (user, patient, dept-or-null, date)
        event: Vec<(i64, i64, u8)>,    // (patient, actor-or-null, tag)
        team: Vec<(i64, i64)>,
    },
    /// Seal every table's tail (share boundary moves; contents must not).
    Seal,
    /// Replace the engine with a fork of itself (the publication path).
    Fork,
    /// Bring the engine up to date (also exercised implicitly by Ingest).
    Refresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The offline proptest shim has no `prop_oneof`; a selector integer
    // picks the op (weighted toward ingests), payloads ride along.
    (
        0u8..7,
        prop::collection::vec((0..6i64, 0..8i64, 0u8..5, 0..9i64), 0..7),
        prop::collection::vec((0..8i64, -1i64..6, 0u8..3), 0..7),
        prop::collection::vec((0..6i64, 0..6i64), 0..3),
    )
        .prop_map(|(sel, log, event, team)| match sel {
            0..=3 => Op::Ingest { log, event, team },
            4 => Op::Seal,
            5 => Op::Fork,
            _ => Op::Refresh,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: random interleavings of
    /// ingest/seal/fork/refresh leave segmented storage byte-identical
    /// to the flat oracle — storage, indexes, and every query class.
    #[test]
    fn segmented_storage_matches_the_flat_oracle(ops in prop::collection::vec(op_strategy(), 1..10)) {
        let mut seg = make_world(SEG_ROWS);
        let mut oracle = FlatOracle::default();
        let mut engine = Engine::new(&seg.db);
        let mut next_lid = 0i64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Ingest { log, event, team } => {
                    for &(user, patient, dept, date) in log {
                        let row = LogRow {
                            lid: next_lid,
                            user,
                            patient,
                            dept: if dept == 4 { usize::MAX } else { dept as usize },
                            date,
                        };
                        next_lid += 1;
                        let values = log_values(&seg, &row);
                        seg.db.insert(seg.log, values).unwrap();
                        oracle.log.push(row);
                    }
                    for &(patient, actor, tag) in event {
                        let row = EventRow { patient, actor, tag: tag as usize };
                        let values = event_values(&seg, &row);
                        seg.db.insert(seg.event, values).unwrap();
                        oracle.event.push(row);
                    }
                    for &(m, b) in team {
                        seg.db.insert(seg.team, vec![Value::Int(m), Value::Int(b)]).unwrap();
                        oracle.team.push((m, b));
                    }
                    engine.refresh(&seg.db).unwrap();
                }
                Op::Seal => seg.db.seal(),
                Op::Fork => engine = engine.fork(),
                Op::Refresh => {
                    engine.refresh(&seg.db).unwrap();
                }
            }
            // Cheap invariant after every op; the full differential
            // check runs at the end (and after every fork, where a
            // publication bug would surface).
            if matches!(op, Op::Fork | Op::Seal) || i + 1 == ops.len() {
                engine.refresh(&seg.db).unwrap();
                assert_equivalent(&seg, &engine, &oracle, &format!("after op {i} ({op:?})"));
            }
        }
        // A cold engine over the final segmented database agrees too.
        let cold = Engine::new(&seg.db);
        assert_equivalent(&seg, &cold, &oracle, "cold engine at end");
    }

    /// Satellite: a refused refresh (`TableShrank` / `CatalogShrank`)
    /// leaves a **segmented** engine answering byte-identically. (The
    /// epoch handle never meets the refusal: a `ShardedBatch` only
    /// appends, so its refresh of a shard's fork cannot be refused.)
    #[test]
    fn refused_refresh_and_rebuild_fallback_on_segmented_storage(
        rows in prop::collection::vec((0..6i64, 0..8i64, 0u8..5, 0..9i64), 1..20),
        extra in prop::collection::vec((0..6i64, 0..8i64, 0u8..5, 0..9i64), 1..10),
    ) {
        let mut seg = make_world(SEG_ROWS);
        let mut next_lid = 0i64;
        let mut push = |seg: &mut World, batch: &[(i64, i64, u8, i64)]| {
            for &(user, patient, dept, date) in batch {
                let row = LogRow {
                    lid: next_lid,
                    user,
                    patient,
                    dept: if dept == 4 { usize::MAX } else { dept as usize },
                    date,
                };
                next_lid += 1;
                let values = log_values(seg, &row);
                seg.db.insert(seg.log, values).unwrap();
            }
        };
        push(&mut seg, &rows);
        seg.db.insert(seg.event, vec![Value::Int(1), Value::Int(2), seg.depts[0]]).unwrap();
        seg.db.seal();
        let shorter = seg.db.clone();
        push(&mut seg, &extra);

        let opts = EvalOptions::default();
        let queries = query_classes(&seg);
        let answers = |engine: &Engine, db: &Database| -> Vec<(Vec<u32>, usize)> {
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

        // TableShrank on segmented storage: engine intact, byte-identical.
        let mut engine = Engine::new(&seg.db);
        let before = answers(&engine, &seg.db);
        let err = engine.refresh(&shorter).unwrap_err();
        prop_assert!(matches!(err, RefreshError::TableShrank { .. }), "{err:?}");
        prop_assert_eq!(&answers(&engine, &seg.db), &before, "TableShrank left damage");
        prop_assert!(engine.refresh(&seg.db).unwrap().delta.is_empty());

        // CatalogShrank: same invariant.
        let mut wider = seg.db.clone();
        let w_extra = wider
            .create_table("Extra", &[("Patient", DataType::Int), ("Y", DataType::Int)])
            .unwrap();
        wider.insert(w_extra, vec![Value::Int(1), Value::Int(2)]).unwrap();
        let mut engine = Engine::new(&wider);
        let before = answers(&engine, &wider);
        let err = engine.refresh(&seg.db).unwrap_err();
        prop_assert!(matches!(err, RefreshError::CatalogShrank { .. }), "{err:?}");
        prop_assert_eq!(&answers(&engine, &wider), &before, "CatalogShrank left damage");
    }
}

// ------------------------------------------------- sharing & publication

/// Fills the world with enough rows to span several sealed segments.
fn populated_world() -> World {
    let mut w = make_world(SEG_ROWS);
    for i in 0..40i64 {
        let row = LogRow {
            lid: i,
            user: i % 5,
            patient: i % 7,
            dept: (i % 3) as usize,
            date: i % 9,
        };
        let values = log_values(&w, &row);
        w.db.insert(w.log, values).unwrap();
    }
    for i in 0..20i64 {
        let row = EventRow {
            patient: i % 7,
            actor: i % 5,
            tag: (i % 3) as usize,
        };
        let values = event_values(&w, &row);
        w.db.insert(w.event, values).unwrap();
    }
    for i in 0..10i64 {
        w.db.insert(w.team, vec![Value::Int(i % 5), Value::Int((i + 1) % 5)])
            .unwrap();
    }
    w
}

/// The epoch handle over the populated world, partitioned by patient at
/// the CI shard count.
fn handle(w: &World) -> ShardedEngine {
    let key = ShardKey {
        table: w.log,
        col: 2,
    };
    ShardedEngine::new(w.db.clone(), key, 1)
}

/// Global explained rows of every query class on a pinned epoch.
fn answers(vec: &EpochVec, queries: &[(&'static str, ChainQuery)]) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|(_, q)| {
            vec.eval_suite(std::slice::from_ref(q), EvalOptions::default())
                .remove(0)
                .unwrap()
                .to_vec()
        })
        .collect()
}

fn append_log_rows(batch: &mut ShardedBatch, first_lid: i64, count: i64) {
    for lid in first_lid..first_lid + count {
        batch
            .insert_log(vec![
                Value::Int(lid),
                Value::Int(lid % 5),
                Value::Int(lid % 7),
                Value::Null,
                Value::Date(lid % 9),
            ])
            .unwrap();
    }
}

#[test]
fn sealed_segments_are_pointer_shared_across_epochs() {
    let w = populated_world();
    let queries = query_classes(&w);
    let opts = EvalOptions::default();
    let shared = handle(&w);

    // Warm the epoch's caches, then pin it and record its answers.
    let pinned = shared.load();
    let pinned_answers = answers(&pinned, &queries);
    assert!(
        pinned
            .shards()
            .iter()
            .any(|s| !s.db().table(w.log).sealed_row_segments().is_empty()),
        "the populated world spans sealed segments"
    );

    let mut prev = shared.load();
    for round in 0..6i64 {
        shared.ingest(|batch| append_log_rows(batch, 1000 + round * 5, 5));
        let next = shared.load();
        for (old, new) in prev.shards().iter().zip(next.shards()) {
            for tid in [w.log, w.event, w.team] {
                // Database row segments: every sealed segment of the
                // prior epoch is present by pointer in the successor.
                common::assert_sealed_segments_shared(
                    old.db().table(tid),
                    new.db().table(tid),
                    &format!("round {round}, table {}", old.db().table(tid).name()),
                );
                // Engine snapshot columns likewise.
                let a = old.engine().snapshot().table(tid);
                let b = new.engine().snapshot().table(tid);
                for (c, (ca, cb)) in a.cols.iter().zip(&b.cols).enumerate() {
                    for (i, (sa, sb)) in ca
                        .sealed_segments()
                        .iter()
                        .zip(cb.sealed_segments())
                        .enumerate()
                    {
                        assert!(
                            Arc::ptr_eq(sa, sb),
                            "round {round}: snapshot col {c} segment {i} copied, not shared"
                        );
                    }
                }
            }
        }
        prev = next;
    }

    // The pinned epoch answered from segments now shared with six newer
    // epochs — its answers must be byte-identical to what it said before
    // any of them existed (catches in-place mutation of a shared chunk).
    assert_eq!(
        answers(&pinned, &queries),
        pinned_answers,
        "pinned epoch answers drifted"
    );
    // And the latest epoch matches fresh engines over everything ingested.
    for shard in shared.load().shards() {
        let fresh = Engine::new(shard.db());
        for (name, q) in &queries {
            assert_eq!(
                common::engine_rows(shard.engine(), shard.db(), q, opts).unwrap(),
                common::engine_rows(&fresh, shard.db(), q, opts).unwrap(),
                "latest epoch diverges from a fresh engine: {name}"
            );
        }
    }
}

#[test]
fn publication_copies_scale_with_the_batch_not_the_database() {
    let w = populated_world();
    let shared = handle(&w);
    // Warm the caches the way a live auditor would.
    answers(&shared.load(), &query_classes(&w));

    // Publication cost of one batch on the small database (median of a
    // few rounds, so tail-fill phase doesn't skew a single reading).
    let cost_of = |round: &mut i64, rounds: i64| -> u64 {
        let mut costs = Vec::new();
        for _ in 0..rounds {
            reset_copied_bytes();
            shared.ingest(|batch| append_log_rows(batch, 10_000 + *round * 8, 8));
            costs.push(copied_bytes());
            *round += 1;
        }
        costs.sort_unstable();
        costs[costs.len() / 2]
    };
    let mut round = 0i64;
    let small_cost = cost_of(&mut round, 5);

    // Grow the database ~10x, then measure the same batch again.
    let before_rows = shared.load().global_log_len();
    for _ in 0..110 {
        shared.ingest(|batch| append_log_rows(batch, 10_000 + round * 8, 8));
        round += 1;
    }
    let grown_rows = shared.load().global_log_len();
    assert!(
        grown_rows >= before_rows * 10,
        "{before_rows} -> {grown_rows}"
    );
    let large_cost = cost_of(&mut round, 5);

    // O(batch): the 10x database publishes the same batch for (nearly)
    // the same copied bytes. Allow 3x slack for tail-fill phase noise.
    assert!(
        large_cost <= small_cost.max(1) * 3,
        "publication copies grew with the database: {small_cost} -> {large_cost} bytes"
    );

    // >=5x below what flat storage would copy per epoch: every Value
    // cell (database clone) plus every interned u32 cell (engine fork).
    let mut flat_bytes = 0u64;
    for shard in shared.load().shards() {
        for tid in [w.log, w.event, w.team] {
            let t = shard.db().table(tid);
            flat_bytes +=
                (t.len() * t.schema().arity()) as u64 * std::mem::size_of::<Value>() as u64;
            let it = shard.engine().snapshot().table(tid);
            flat_bytes += (it.n_rows * it.cols.len()) as u64 * 4;
        }
    }
    assert!(
        large_cost * 5 <= flat_bytes,
        "expected >=5x reduction: segmented {large_cost} vs flat {flat_bytes} bytes"
    );
}
