//! The per-shard **advance core** of the maintained explained/unexplained
//! partition ([`Maintained`]): what one incremental refresh adds to one
//! engine's slice of the partition. [`ShardedEngine`](super::ShardedEngine)
//! runs it once per shard per ingest and merges the deltas in global row
//! ids.
//!
//! # Cost model
//!
//! An ingest pays for what it appended, not for what is already there:
//!
//! 1. an anchor scan and one [`Engine::eval_suite_range`] over the
//!    appended log rows — `O(appended rows × join fan-out)`;
//! 2. a **semi-naive** re-ask of old rows. Tables are append-only and
//!    chain templates are monotone, so an old unexplained row can become
//!    explained only through a witness path that uses *at least one
//!    appended row*. For every template step whose table grew, the enter
//!    values of the appended rows are walked **backwards** through the
//!    earlier steps (rows whose exit column holds the value → their enter
//!    column, over the engine's cached row maps; step filters are ignored,
//!    which only widens the set) down to a set of start values; the old
//!    residue rows holding one of those start values are the only rows
//!    any template can newly explain, and only they are handed to
//!    [`Engine::eval_suite_rows`].
//!
//! Deriving the candidates is itself bounded by the residue: the walk
//! counts every value it starts from and every row it visits (a hub value
//! — a department, a hot patient — is held by many rows), and once that
//! count exceeds the residue's row count the candidate set *is* the
//! residue. An ingest therefore never costs more than the whole-residue
//! re-ask plus as many cheap row visits. The walk reads two more cached
//! row maps than evaluation alone needs — `(table, exit_col)` of every
//! non-final step and `(log, start_col)` — which the engine keeps, like
//! its other row maps, from the first ingest that uses them.

use super::sharded::{Maintained, SuitePin};
use super::{with_scratch_marks, Engine, NULL_ID};
use crate::chain::ChainQuery;
use crate::database::{Database, TableId};
use crate::error::Result;
use crate::rowset::RowSet;
use crate::table::RowId;
use crate::types::ColId;
use std::collections::BTreeMap;

/// What advancing the pinned suite across one ingest cost, as counts (the
/// paper-level cost model: rows that had to be asked about). One per
/// shard, in [`ShardRefresh::advance`](super::ShardRefresh); all zero when
/// no suite is pinned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Appended log rows evaluated against every template.
    pub tail_rows: usize,
    /// Templates stepping into a table that grew — the only ones that can
    /// newly explain an old row.
    pub reasked_templates: usize,
    /// Old residue rows re-asked: the rows sharing a start value with the
    /// backward walk from the appended rows, or the whole residue when
    /// `used_full_residue` is set.
    pub candidate_rows: usize,
    /// Rows in the previous unexplained residue (for a shard: the global
    /// residue, which is what bounds its backward walk).
    pub residue_rows: usize,
    /// Deriving the candidates touched more values and rows than the
    /// residue holds, so the whole residue was re-asked instead.
    pub used_full_residue: bool,
}

/// One engine's view of the previous unexplained residue, in its own
/// (shard-local) log row ids.
pub(super) struct Residue<C, A> {
    /// Rows in the residue — the bound on the backward walk's work.
    pub len: usize,
    /// Whether a local log row is in the residue.
    pub contains: C,
    /// The engine's whole slice of the residue; only called when the walk
    /// outgrows `len`.
    pub all: A,
}

/// What one engine's advance adds to the partition, in local row ids.
pub(super) struct ShardDelta {
    /// Appended log rows passing the pin's anchor filters.
    pub anchors: RowSet,
    /// Newly explained rows: appended ones, and old residue rows a grown
    /// table now explains.
    pub explained: RowSet,
    pub stats: AdvanceStats,
}

/// Advances one engine's slice of `pin`'s partition from `prev` (the
/// engine of the previous epoch) to `engine` (its refreshed fork over
/// `db`). See the module docs for the cost model and the soundness
/// argument.
pub(super) fn advance_shard<C, A>(
    prev: &Engine,
    engine: &Engine,
    db: &Database,
    pin: &SuitePin,
    residue: Residue<C, A>,
) -> ShardDelta
where
    C: Fn(RowId) -> bool,
    A: FnOnce() -> RowSet,
{
    let log = engine.snapshot().table(pin.log);
    let (l0, l1) = (prev.snapshot().rows_in(pin.log), log.n_rows);
    let fresh: Vec<RowId> = (l0..l1)
        .filter(|&r| engine.anchor_passes_filters(&pin.anchor_filters, log, r))
        .map(|r| r as RowId)
        .collect();
    let mut explained = RowSet::new();
    let mut take = |sets: Vec<Result<RowSet>>| {
        for set in sets.into_iter().flatten() {
            explained.union_with(&set);
        }
    };
    // Every template can explain the appended rows — one range
    // evaluation covers them all.
    if l1 > l0 {
        take(engine.eval_suite_range(db, &pin.queries, pin.opts, l0, l1));
    }
    // Only a template stepping into a grown table (the log itself
    // included — self-join templates step back into it) can newly explain
    // an *old* row.
    let grew = |q: &ChainQuery| {
        q.steps
            .iter()
            .any(|s| engine.snapshot().rows_in(s.table) > prev.snapshot().rows_in(s.table))
    };
    let reask: Vec<ChainQuery> = pin
        .queries
        .iter()
        .filter(|q| grew(q) && q.validate(db).is_ok())
        .cloned()
        .collect();
    let mut stats = AdvanceStats {
        tail_rows: l1 - l0,
        reasked_templates: reask.len(),
        residue_rows: residue.len,
        ..AdvanceStats::default()
    };
    if !reask.is_empty() && residue.len > 0 {
        let walk = residue_candidates(
            prev,
            engine,
            pin.log,
            &reask,
            l0,
            residue.len,
            residue.contains,
        );
        let candidates = match walk {
            Some(rows) => RowSet::from_sorted_vec(&rows),
            None => {
                stats.used_full_residue = true;
                (residue.all)()
            }
        };
        stats.candidate_rows = candidates.len();
        if !candidates.is_empty() {
            take(engine.eval_suite_rows(db, &reask, pin.opts, &candidates));
        }
    }
    ShardDelta {
        anchors: RowSet::from_sorted_vec(&fresh),
        explained,
        stats,
    }
}

/// The old (`< l0`) residue rows any of `reask` can newly explain,
/// ascending — or `None` once deriving them has touched more than `budget`
/// values and rows (the caller then re-asks the whole residue).
fn residue_candidates(
    prev: &Engine,
    engine: &Engine,
    log: TableId,
    reask: &[ChainQuery],
    l0: usize,
    budget: usize,
    in_residue: impl Fn(RowId) -> bool,
) -> Option<Vec<RowId>> {
    let snapshot = engine.snapshot();
    // Start values reached by the walk, per anchor start column.
    let mut starts: BTreeMap<ColId, Vec<u32>> = BTreeMap::new();
    // Appended enter values plus every row visited: the walk's real cost.
    let mut work = 0usize;
    let within_budget = with_scratch_marks(snapshot.interner.len(), |marks| {
        for q in reask {
            for (i, step) in q.steps.iter().enumerate() {
                let table = snapshot.table(step.table);
                let old_rows = prev.snapshot().rows_in(step.table);
                if table.n_rows == old_rows {
                    continue;
                }
                // A witness path through an appended row of this step's
                // table enters it on that row's enter value...
                let mut frontier: Vec<u32> = Vec::new();
                for (_, &v) in table.cols[step.enter_col].iter_range(old_rows, table.n_rows) {
                    if v != NULL_ID && marks.insert(v) {
                        frontier.push(v);
                    }
                }
                marks.remove_all(&frontier);
                work += frontier.len();
                // ...which an earlier step must have exited on.
                for back in q.steps[..i].iter().rev() {
                    let exits = engine.rowmap_for(back.table, back.exit_col);
                    let enter = &snapshot.table(back.table).cols[back.enter_col];
                    let mut next: Vec<u32> = Vec::new();
                    'hops: for &v in &frontier {
                        for r in exits.rows_of(v) {
                            work += 1;
                            if work > budget {
                                break 'hops;
                            }
                            let e = enter[r as usize];
                            if e != NULL_ID && marks.insert(e) {
                                next.push(e);
                            }
                        }
                    }
                    marks.remove_all(&next);
                    if work > budget {
                        return false;
                    }
                    frontier = next;
                }
                if work > budget {
                    return false;
                }
                starts.entry(q.start_col).or_default().extend(frontier);
            }
        }
        true
    });
    if !within_budget {
        return None;
    }
    let mut rows: Vec<RowId> = Vec::new();
    for (start_col, mut values) in starts {
        values.sort_unstable();
        values.dedup();
        let by_start = engine.rowmap_for(log, start_col);
        for v in values {
            for r in by_start.rows_of(v).take_while(|&r| (r as usize) < l0) {
                work += 1;
                if work > budget {
                    return None;
                }
                if in_residue(r) {
                    rows.push(r);
                }
            }
        }
    }
    rows.sort_unstable();
    rows.dedup();
    Some(rows)
}

/// `prev` with the per-engine deltas `(anchors, explained)` — already in
/// `prev`'s row-id space — unioned in. Explanation is monotone under
/// append-only growth, so absorbing an ingest never retracts.
pub(super) fn absorb(
    prev: &Maintained,
    deltas: impl IntoIterator<Item = (RowSet, RowSet)>,
    log_len: usize,
) -> Maintained {
    let mut anchors = prev.anchors.clone();
    let mut explained = prev.explained.clone();
    for (a, e) in deltas {
        anchors.union_with(&a);
        explained.union_with(&e);
    }
    let unexplained = anchors.difference(&explained);
    Maintained {
        anchors,
        explained,
        unexplained,
        log_len,
    }
}

#[cfg(test)]
mod tests {
    use super::super::sharded::compute_maintained;
    use super::super::{EpochVec, ShardKey, ShardedEngine};
    use super::*;
    use crate::chain::{ChainStep, CmpOp, EvalOptions, Rhs, StepFilter};
    use crate::types::DataType;
    use crate::value::Value;

    const LID: ColId = 0;
    const USER: ColId = 1;
    const PATIENT: ColId = 2;

    fn schema() -> (Database, TableId, TableId) {
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
        (db, log, event)
    }

    fn access(lid: i64, user: i64, patient: i64) -> Vec<Value> {
        vec![Value::Int(lid), Value::Int(user), Value::Int(patient)]
    }

    /// One one-step template into a dimension table and two **two-step
    /// `Log → Log` self-joins** (one set-based, one anchor-decorated, on
    /// different start columns): an appended log row grows both depths of
    /// each, so an old row can become explained through depth 1 alone.
    fn suite(log: TableId, event: TableId) -> SuitePin {
        // "[L.Patient] had an event with [L.User]."
        let with_event = ChainQuery {
            log,
            lid_col: LID,
            start_col: PATIENT,
            steps: vec![ChainStep::new(event, 0, 1)],
            close_col: Some(USER),
            anchor_filters: vec![],
        };
        // "Someone who opened [L.Patient]'s record is active this era
        // (has an access with Lid >= 100)."
        let mut active = ChainStep::new(log, USER, PATIENT);
        active.filters.push(StepFilter {
            col: LID,
            op: CmpOp::Ge,
            rhs: Rhs::Const(Value::Int(100)),
        });
        let active_colleague = ChainQuery {
            log,
            lid_col: LID,
            start_col: PATIENT,
            steps: vec![ChainStep::new(log, PATIENT, USER), active],
            close_col: None,
            anchor_filters: vec![],
        };
        // "A patient [L.User] has opened was opened again after this
        // access."
        let mut later = ChainStep::new(log, PATIENT, USER);
        later.filters.push(StepFilter {
            col: LID,
            op: CmpOp::Gt,
            rhs: Rhs::AnchorCol(LID),
        });
        let reopened = ChainQuery {
            log,
            lid_col: LID,
            start_col: USER,
            steps: vec![ChainStep::new(log, USER, PATIENT), later],
            close_col: None,
            anchor_filters: vec![],
        };
        SuitePin {
            log,
            anchor_filters: vec![],
            queries: vec![with_event, active_colleague, reopened],
            opts: EvalOptions::default(),
        }
    }

    /// [`suite`]'s event template beside two log self-joins that enter the
    /// log on the shard key at step 0, so every shard answers them from
    /// its own rows: "[L.User] opened [L.Patient]'s record before" (repeat
    /// access) and "... again after this access", which appended rows can
    /// newly explain old rows through.
    fn co_partitioned(log: TableId, event: TableId) -> SuitePin {
        let mut pin = suite(log, event);
        pin.queries.truncate(1);
        for op in [CmpOp::Lt, CmpOp::Gt] {
            let mut step = ChainStep::new(log, PATIENT, USER);
            step.filters.push(StepFilter {
                col: LID,
                op,
                rhs: Rhs::AnchorCol(LID),
            });
            pin.queries.push(ChainQuery {
                log,
                lid_col: LID,
                start_col: PATIENT,
                steps: vec![step],
                close_col: Some(USER),
                anchor_filters: vec![],
            });
        }
        pin
    }

    /// A base log of `loners` never-explainable accesses (each its own
    /// user and patient, nothing after them) and a few shared records.
    fn world(loners: i64) -> (Database, TableId, TableId) {
        let (mut db, log, event) = schema();
        for i in 0..loners {
            db.insert(log, access(i, 1000 + i, 2000 + i)).unwrap();
        }
        // Users 1..=3 share patients 7 and 8; the last access to each is
        // unexplained until someone reopens the record. Users 1500 and
        // 1600 each leave an unexplained access (the second of each pair)
        // that only a depth-1 walk reaches: see `schedule`.
        let shared = [
            (1, 7),
            (2, 7),
            (3, 8),
            (1, 8),
            (1500, 2500),
            (1500, 2501),
            (1601, 2600),
            (1600, 2600),
        ];
        for (i, (u, p)) in shared.into_iter().enumerate() {
            db.insert(log, access(loners + i as i64, u, p)).unwrap();
        }
        db.insert(event, vec![Value::Int(9), Value::Int(1)])
            .unwrap();
        (db, log, event)
    }

    fn assert_same(m: &Maintained, cold: &Maintained, what: &str) {
        assert_eq!(m.anchors, cold.anchors, "{what}: anchors");
        assert_eq!(m.explained, cold.explained, "{what}: explained");
        assert_eq!(m.unexplained, cold.unexplained, "{what}: unexplained");
        assert_eq!(m.log_len, cold.log_len, "{what}: log_len");
    }

    /// What one publication appends: log rows and event rows.
    type Batch = (Vec<Vec<Value>>, Vec<Vec<Value>>);

    /// A deterministic schedule mixing log-only, event-only, mixed and
    /// empty publications over a small value space, so appended rows keep
    /// landing on patients and users old residue rows share.
    fn schedule() -> Vec<Batch> {
        let mut state = 0x9e37_79b9_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m) as i64
        };
        let mut lid = 100;
        (0..24)
            .map(|round| {
                let mut logs = Vec::new();
                let mut events = Vec::new();
                if round % 4 != 3 {
                    for _ in 0..=next(3) {
                        logs.push(access(lid, 1 + next(6), 5 + next(8)));
                        lid += 1;
                    }
                }
                if round % 3 == 2 {
                    events.push(vec![Value::Int(5 + next(8)), Value::Int(1 + next(6))]);
                }
                // Two single-row publications whose only newly explained
                // old row shares neither user nor patient with the
                // appended one — the depth-1 walk alone reaches it.
                if round == 11 {
                    // `reopened`: patient 2500 -> its old user 1500 ->
                    // 1500's access to patient 2501.
                    logs = vec![access(lid, 4, 2500)];
                    lid += 1;
                }
                if round == 13 {
                    // `active_colleague`: user 1601 turns active -> the
                    // patients 1601 opened -> 1600's access to 2600.
                    logs = vec![access(lid, 1601, 2601)];
                    lid += 1;
                }
                if round == 17 {
                    // A surge touching more values than the residue has
                    // rows: the walk gives up and re-asks all of it.
                    for i in 0..90 {
                        logs.push(access(lid, 3000 + i, 4000 + i));
                        lid += 1;
                    }
                }
                (logs, events)
            })
            .collect()
    }

    const KEY: ShardKey = ShardKey {
        table: TableId(0),
        col: PATIENT,
    };

    /// Cold recompute of `pin` over a published vector.
    fn cold(vec: &EpochVec, pin: &SuitePin) -> Maintained {
        compute_maintained(vec.shards(), pin, vec.global_log_len())
    }

    /// `compute_maintained` evaluates through the engine too, so every
    /// round is also checked against the row evaluator over an
    /// independently grown database: `reopened` (`>` at step 1, open)
    /// then tests the max-carrying extremum walk.
    #[test]
    fn self_join_growth_at_two_depths_matches_cold_recompute() {
        let (db, log, event) = world(60);
        let pin = suite(log, event);
        let mut oracle = db.clone();
        let live = ShardedEngine::new(db, KEY, 1);
        let id = live.pin_suite(pin.clone());
        let (mut delta_path, mut full_path) = (0, 0);
        for (round, (logs, events)) in schedule().into_iter().enumerate() {
            let (_, report) = live.ingest(|batch| {
                for row in &logs {
                    batch.insert_log(row.clone()).unwrap();
                }
                for row in &events {
                    batch.insert_dim(event, row.clone()).unwrap();
                }
            });
            for row in &logs {
                oracle.insert(log, row.clone()).unwrap();
            }
            for row in &events {
                oracle.insert(event, row.clone()).unwrap();
            }
            let vec = live.load();
            assert_same(
                vec.maintained(id).unwrap(),
                &cold(&vec, &pin),
                &format!("round {round}"),
            );
            let rows =
                RowSet::union_all(pin.queries.iter().map(|q| {
                    RowSet::from_sorted_vec(&q.explained_rows(&oracle, pin.opts).unwrap())
                }));
            assert_eq!(
                vec.maintained(id).unwrap().explained,
                rows,
                "round {round}: row evaluator"
            );
            let stats = report.shards[0].advance;
            assert_eq!(stats.tail_rows, logs.len());
            if stats.used_full_residue {
                full_path += 1;
            } else if stats.candidate_rows > 0 {
                delta_path += 1;
                assert!(stats.candidate_rows <= stats.residue_rows);
            }
        }
        assert!(delta_path > 0, "the candidate path ran");
        assert!(full_path > 0, "the whole-residue path ran");
    }

    /// The oracle is a cold pin at **one** shard. `reopened` and
    /// `active_colleague` step into the log on the user, which no shard
    /// answers alone: they grow at one shard and are refused above it.
    /// The sharded advance stays covered at {1, 4} shards by the
    /// co-partitioned self-joins.
    #[test]
    fn sharded_self_join_growth_matches_a_cold_pin() {
        let (db, log, event) = world(60);
        let cross = suite(log, event);
        let answers = ShardedEngine::new(db.clone(), KEY, 4)
            .load()
            .eval_suite(&cross.queries, cross.opts);
        assert!(answers[0].is_ok());
        assert!(answers[1..].iter().all(|a| a.is_err()), "{answers:?}");
        let co = co_partitioned(log, event);
        for (pin, n) in [(&cross, 1usize), (&co, 1), (&co, 4)] {
            let mut oracle = db.clone();
            let live = ShardedEngine::new(db.clone(), KEY, n);
            let id = live.pin_suite(pin.clone());
            let mut candidates = 0;
            for (round, (logs, events)) in schedule().into_iter().enumerate() {
                let (_, report) = live.ingest(|batch| {
                    for row in &logs {
                        batch.insert_log(row.clone()).unwrap();
                    }
                    for row in &events {
                        batch.insert_dim(event, row.clone()).unwrap();
                    }
                });
                candidates += report
                    .shards
                    .iter()
                    .map(|s| s.advance.candidate_rows)
                    .sum::<usize>();
                for row in logs {
                    oracle.insert(log, row).unwrap();
                }
                for row in events {
                    oracle.insert(event, row).unwrap();
                }
                let cold = ShardedEngine::new(oracle.clone(), KEY, 1);
                let cold_id = cold.pin_suite(pin.clone());
                assert_same(
                    live.load().maintained(id).unwrap(),
                    cold.load().maintained(cold_id).unwrap(),
                    &format!("{n} shards, round {round}"),
                );
            }
            assert!(candidates > 0, "{n} shards: old rows were re-asked");
        }
    }

    /// The walk's budget is work done, not values started from: one
    /// appended access to a hub patient held by more (explained) rows than
    /// the residue has rows falls back to the whole residue.
    #[test]
    fn a_hub_value_held_by_more_rows_than_the_residue_falls_back() {
        let (mut db, log, event) = world(30);
        // Patient 9 has an event with user 77: explained, never residue.
        db.insert(event, vec![Value::Int(9), Value::Int(77)])
            .unwrap();
        for i in 0..50 {
            db.insert(log, access(40 + i, 77, 9)).unwrap();
        }
        let pin = suite(log, event);
        let live = ShardedEngine::new(db, KEY, 1);
        let id = live.pin_suite(pin.clone());
        let residue = live.load().maintained(id).unwrap().unexplained.len();
        assert!(residue < 50, "{residue}");
        for (patient, full) in [(7, false), (9, true)] {
            let (_, report) = live.ingest(|batch| {
                batch.insert_log(access(500 + patient, 2, patient)).unwrap();
            });
            let stats = report.shards[0].advance;
            assert_eq!(
                stats.used_full_residue, full,
                "patient {patient}: {stats:?}"
            );
            let vec = live.load();
            assert_same(vec.maintained(id).unwrap(), &cold(&vec, &pin), "hub");
        }
    }

    /// The complexity claim as a count: doubling the *untouched* residue
    /// leaves the rows a one-row ingest re-asks unchanged.
    #[test]
    fn candidate_rows_follow_the_batch_not_the_residue() {
        let run = |loners: i64| -> (AdvanceStats, AdvanceStats, Vec<AdvanceStats>) {
            let (db, log, event) = world(loners);
            let advance = |pin: SuitePin, n: usize| -> Vec<AdvanceStats> {
                let live = ShardedEngine::new(db.clone(), KEY, n);
                live.pin_suite(pin);
                let (_, report) = live.ingest(|batch| {
                    batch.insert_log(access(500, 3, 7)).unwrap();
                });
                report.shards.iter().map(|s| s.advance).collect()
            };
            (
                advance(suite(log, event), 1)[0],
                advance(co_partitioned(log, event), 1)[0],
                advance(co_partitioned(log, event), 4),
            )
        };
        let (small, small_co, small_shards) = run(40);
        let (big, big_co, big_shards) = run(80);
        assert!(!small.used_full_residue && !big.used_full_residue);
        assert_eq!(small.tail_rows, 1);
        assert_eq!(small.reasked_templates, 2, "the two self-joins");
        // Patient 7's and user 3's old unexplained accesses, at most.
        assert!((1..=4).contains(&small.candidate_rows), "{small:?}");
        assert_eq!(big.candidate_rows, small.candidate_rows);
        assert!(
            big.residue_rows >= small.residue_rows + 40,
            "{small:?} {big:?}"
        );
        let total = |shards: &[AdvanceStats]| -> usize {
            assert!(shards.iter().all(|s| !s.used_full_residue));
            shards.iter().map(|s| s.candidate_rows).sum()
        };
        // A co-partitioned walk stays in the appended row's shard, so four
        // shards together re-ask exactly the rows one shard re-asks.
        assert!(small_co.candidate_rows > 0, "{small_co:?}");
        assert_eq!(big_co.candidate_rows, small_co.candidate_rows);
        assert_eq!(total(&small_shards), small_co.candidate_rows);
        assert_eq!(total(&big_shards), small_co.candidate_rows);
        assert!(big_shards[0].residue_rows >= small_shards[0].residue_rows + 40);
    }
}
