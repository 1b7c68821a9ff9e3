//! The epoch handle: one database and the warm [`Engine`] over it,
//! published together as one atomically-swapped epoch, so audit queries
//! keep running while the log ingests.
//!
//! * **Readers** call [`ShardedEngine::load`] once per session and get an
//!   immutable [`EpochVec`] frozen at one sequence number; `load` holds a
//!   read lock only for an `Arc` clone.
//! * **The writer** (serialized by an internal mutex) runs
//!   [`ShardedEngine::ingest_with`]: append the batch to a private clone
//!   of the database, refresh a private [`fork`](Engine::fork) of the
//!   engine (same warm `Arc`-shared caches), run the persist hook *before*
//!   publishing (published ⊆ durable), advance the pinned suite, and
//!   publish with one pointer swap. A panic publishes nothing.
//!
//! ```
//! use eba_relational::{Database, DataType, ShardKey, ShardedEngine, Value};
//!
//! let mut db = Database::new();
//! let log = db
//!     .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
//!     .unwrap();
//! db.insert(log, vec![Value::Int(0), Value::Int(7)]).unwrap();
//! let handle = ShardedEngine::new(db, ShardKey { table: log, col: 1 }, 1);
//!
//! std::thread::scope(|scope| {
//!     // Reader session: pin one epoch, answer everything against it.
//!     scope.spawn(|| {
//!         let epochs = handle.load();
//!         assert!(epochs.global_log_len() > 0);
//!         // ... epochs.eval_suite(&queries, opts) ...
//!     });
//!     // Writer: ingest a batch and publish the successor epoch.
//!     scope.spawn(|| {
//!         let (_, report) = handle.ingest(|batch| {
//!             batch.insert_log(vec![Value::Int(1), Value::Int(8)]).unwrap()
//!         });
//!         assert_eq!(report.new_rows(), 1);
//!     });
//! });
//! assert_eq!(handle.load().global_log_len(), 2);
//! ```
//!
//! An explanation template is a path through the *whole* database, so
//! one engine per epoch answers every template. Parallelism comes from the
//! data: [`Engine::eval_suite`] splits each bucket's anchor starts into
//! contiguous ranges, one per core, and unions the per-range sets. The
//! shard count [`ShardedEngine::new`] still takes is ignored; an
//! [`EpochVec`] holds one [`ShardEpoch`], whose row ids are the global ids.
//!
//! Storage is segmented ([`crate::segment`]): the clone and the fork share
//! every sealed segment by pointer and copy only the mutable tails, so
//! publishing is `O(batch)`, not `O(db)`. [`ShardedEngine::new`] seals the
//! database it is given, so the first fork copies only tails too.

use super::advance::{advance, AdvanceStats};
use super::{Engine, RefreshStats};
use crate::chain::{ChainQuery, CmpOp, EvalOptions};
use crate::database::{Database, TableId};
use crate::error::Result;
use crate::rowset::RowSet;
use crate::sync::unpoison;
use crate::table::RowId;
use crate::types::ColId;
use crate::value::Value;
use std::sync::{Arc, Mutex, RwLock};

/// The audited log table. `col` (conventionally `Log.Patient`) is kept
/// for callers and otherwise unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey {
    /// The log table.
    pub table: TableId,
    /// A column of that table.
    pub col: ColId,
}

/// A template suite registered for **incremental maintenance**
/// ([`ShardedEngine::pin_suite`]): every published epoch then carries its
/// [`Maintained`] partition, advanced inside ingest by delta evaluation.
#[derive(Debug, Clone)]
pub struct SuitePin {
    /// The log table the suite audits; every query must anchor on it.
    pub log: TableId,
    /// Anchor filters selecting the audited log rows (same shape as
    /// [`ChainQuery::anchor_filters`]).
    pub anchor_filters: Vec<(ColId, CmpOp, Value)>,
    /// The explanation templates.
    pub queries: Vec<ChainQuery>,
    /// Evaluation options shared by the suite.
    pub opts: EvalOptions,
}

/// The maintained explained/unexplained partition of one [`SuitePin`] at
/// one epoch. At every published epoch each set is **byte-identical to a
/// cold recompute** (the stream-equivalence suite proves it): `anchors`
/// are the log rows passing the pin's anchor filters, `explained` is
/// [`EpochVec::eval_suite`]'s union, `unexplained` is
/// `anchors \ explained`. Explanation is monotone under append-only
/// growth, so an ingest only unions in a delta; the `advance` module has
/// the cost model.
#[derive(Debug, Clone, Default)]
pub struct Maintained {
    /// Log rows matching the pin's anchor filters.
    pub anchors: RowSet,
    /// Rows explained by at least one of the pin's templates.
    pub explained: RowSet,
    /// `anchors \ explained` — the audit residue.
    pub unexplained: RowSet,
    /// Log rows covered (the log's length when this was advanced).
    pub log_len: usize,
}

/// One published database and the warm engine over it.
#[derive(Debug)]
pub struct ShardEpoch {
    db: Database,
    engine: Engine,
    log: TableId,
}

impl ShardEpoch {
    /// The database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The warm engine over [`ShardEpoch::db`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Log rows in this epoch.
    pub fn log_len(&self) -> usize {
        self.db.table(self.log).len()
    }

    /// The global id of log row `local`: the identity, since one epoch
    /// holds the whole log.
    pub fn to_global(&self, local: RowId) -> RowId {
        local
    }
}

/// The atomically-published epoch a reader pins ([`ShardedEngine::load`]).
#[derive(Debug)]
pub struct EpochVec {
    /// `Arc`-shared so [`ShardedEngine::pin_suite`] republishes the same
    /// epoch with a new pinned suite without copying.
    epoch: Arc<ShardEpoch>,
    seq: u64,
    /// The pinned suite and its materialization; the writer advances it
    /// from here on every ingest.
    pinned: Option<(Arc<SuitePin>, Arc<Maintained>)>,
}

impl EpochVec {
    /// Publication sequence number (0 initial, +1 per ingest).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The epoch as a one-element slice.
    pub fn shards(&self) -> &[ShardEpoch] {
        std::slice::from_ref(&self.epoch)
    }

    /// Log rows in this epoch.
    pub fn global_log_len(&self) -> usize {
        self.epoch.log_len()
    }

    /// The maintained materialization of the pinned suite, if this epoch
    /// carries one. `pin` is the id [`ShardedEngine::pin_suite`] returned,
    /// which is always 0; epochs published before the suite was pinned
    /// carry none.
    pub fn maintained(&self, pin: usize) -> Option<&Arc<Maintained>> {
        self.pinned
            .as_ref()
            .filter(|_| pin == 0)
            .map(|(_, maintained)| maintained)
    }

    /// Fused suite evaluation ([`Engine::eval_suite`]).
    pub fn eval_suite(&self, queries: &[ChainQuery], opts: EvalOptions) -> Vec<Result<RowSet>> {
        self.epoch.engine.eval_suite(&self.epoch.db, queries, opts)
    }
}

/// Cold materialization of `pin` over `epoch`: an anchor scan plus one
/// fused suite evaluation. Only [`ShardedEngine::pin_suite`] pays it.
pub(super) fn compute_maintained(epoch: &ShardEpoch, pin: &SuitePin) -> Maintained {
    let engine = epoch.engine();
    let log = engine.snapshot().table(pin.log);
    let anchors: RowSet = (0..log.n_rows)
        .filter(|&r| engine.anchor_passes_filters(&pin.anchor_filters, log, r))
        .map(|r| r as RowId)
        .collect();
    let explained = RowSet::union_all(
        engine
            .eval_suite(epoch.db(), &pin.queries, pin.opts)
            .into_iter()
            .flatten(),
    );
    Maintained {
        unexplained: anchors.difference(&explained),
        anchors,
        explained,
        log_len: log.n_rows,
    }
}

/// What the refresh did during an ingest.
#[derive(Debug, Clone)]
pub struct ShardRefresh {
    /// The incremental refresh stats.
    pub refresh: RefreshStats,
    /// What advancing the pinned suite cost (all zero when no suite is
    /// pinned).
    pub advance: AdvanceStats,
}

/// What one [`ShardedEngine::ingest_with`] published.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Sequence number of the epoch this ingest published.
    pub seq: u64,
    /// The refresh outcome, as a one-element list.
    pub shards: Vec<ShardRefresh>,
}

impl ShardedIngestReport {
    /// Rows appended, across all tables.
    pub fn new_rows(&self) -> usize {
        self.shards.iter().map(|s| s.refresh.delta.new_rows).sum()
    }

    /// The operator-facing line for an ingest whose advance re-asked the
    /// **whole** residue ([`AdvanceStats::used_full_residue`]) instead of
    /// the rows the appended batch could reach; `None` on the delta path.
    pub fn full_residue_notice(&self) -> Option<String> {
        let full = self
            .shards
            .iter()
            .map(|s| &s.advance)
            .find(|a| a.used_full_residue)?;
        Some(format!(
            "epoch {}: the backward walk from the appended rows outgrew the residue; \
             all {} residue rows were re-asked",
            self.seq, full.residue_rows
        ))
    }
}

/// An in-flight ingest: a private, append-only clone of the database.
pub struct ShardedBatch {
    log: TableId,
    db: Database,
}

impl ShardedBatch {
    /// Log rows, counting rows staged so far.
    pub fn global_log_len(&self) -> usize {
        self.db.table(self.log).len()
    }

    /// The batch's database (reads see rows staged so far). `shard` must
    /// be 0, the one epoch's index.
    ///
    /// # Panics
    /// Panics when `shard` is not 0.
    pub fn db(&self, shard: usize) -> &Database {
        assert_eq!(shard, 0, "an epoch holds one database");
        &self.db
    }

    /// Appends one log row and returns its row id.
    pub fn insert_log(&mut self, row: Vec<Value>) -> Result<RowId> {
        self.db.insert(self.log, row)
    }

    /// Appends one row to a dimension table.
    pub fn insert_dim(&mut self, table: TableId, row: Vec<Value>) -> Result<()> {
        self.db.insert(table, row).map(drop)
    }

    /// Interns a string into the batch's pool and returns its value.
    pub fn str_value(&mut self, s: &str) -> Value {
        self.db.str_value(s)
    }
}

/// The snapshot-handoff cell; see the module docs.
#[derive(Debug)]
pub struct ShardedEngine {
    current: RwLock<Arc<EpochVec>>,
    /// Serializes writers; holds the next sequence number.
    writer: Mutex<u64>,
    log: TableId,
}

impl ShardedEngine {
    /// Seals `db` and builds the initial epoch (seq 0): `db` itself plus
    /// one engine over it. Sealing moves only the share boundary, so the
    /// first ingest's fork copies tails, not the log. `_n_shards` is
    /// ignored (see the module docs).
    pub fn new(mut db: Database, key: ShardKey, _n_shards: usize) -> ShardedEngine {
        db.seal();
        let engine = Engine::new(&db);
        ShardedEngine {
            current: RwLock::new(Arc::new(EpochVec {
                epoch: Arc::new(ShardEpoch {
                    db,
                    engine,
                    log: key.table,
                }),
                seq: 0,
                pinned: None,
            })),
            writer: Mutex::new(0),
            log: key.table,
        }
    }

    /// Pins a suite for incremental maintenance and returns its id for
    /// [`EpochVec::maintained`], always 0: a second call replaces the
    /// first. The current epoch is republished (same seq) with the suite's
    /// cold materialization; every later ingest advances it. Serialized
    /// against ingests; a panic publishes nothing.
    pub fn pin_suite(&self, pin: SuitePin) -> usize {
        let _writer = unpoison(self.writer.lock());
        let base = self.load();
        let maintained = compute_maintained(&base.epoch, &pin);
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            epoch: base.epoch.clone(),
            seq: base.seq,
            pinned: Some((Arc::new(pin), Arc::new(maintained))),
        });
        0
    }

    /// Pins the current epoch (a read lock held for one `Arc` clone). Call
    /// once per session: the epoch is the session's consistent view.
    pub fn load(&self) -> Arc<EpochVec> {
        unpoison(self.current.read()).clone()
    }

    /// Sequence number of the current epoch.
    pub fn seq(&self) -> u64 {
        self.load().seq
    }

    /// [`ShardedEngine::ingest_with`] without a persist hook.
    pub fn ingest<R>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
    ) -> (R, ShardedIngestReport) {
        let (out, report) = self
            .ingest_with(mutate, |_, _, _| Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|e| match e {});
        (out, report)
    }

    /// Applies `mutate` to a private [`ShardedBatch`], refreshes a private
    /// fork of the engine, and runs `persist` with the batch, `mutate`'s
    /// output and the would-be seq *before* anything is published. Only if
    /// it returns `Ok` is the pinned suite advanced and the epoch
    /// published, so a service that writes to a
    /// [`DurableStore`](crate::pile::DurableStore) in `persist` publishes
    /// a prefix of its durable history. On `Err` or a panic nothing is
    /// published and the seq is not consumed. A batch only appends, so the
    /// refresh is never refused.
    pub fn ingest_with<R, E>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
        persist: impl FnOnce(&ShardedBatch, &R, u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<(R, ShardedIngestReport), E> {
        let mut next_seq = unpoison(self.writer.lock());
        let base = self.load();
        let mut batch = ShardedBatch {
            log: self.log,
            db: base.epoch.db.clone(),
        };
        let out = mutate(&mut batch);
        let seq = *next_seq + 1;
        let mut engine = base.epoch.engine.fork();
        let refresh = engine
            .refresh(&batch.db)
            .expect("a ShardedBatch only appends, and an append-only refresh is never refused");

        persist(&batch, &out, seq)?;
        *next_seq = seq;

        let epoch = ShardEpoch {
            db: batch.db,
            engine,
            log: self.log,
        };
        let mut stats = AdvanceStats::default();
        let pinned = base.pinned.as_ref().map(|(pin, prev)| {
            let (m, s) = advance(&base.epoch.engine, &epoch.engine, &epoch.db, pin, prev);
            stats = s;
            (pin.clone(), Arc::new(m))
        });
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            epoch: Arc::new(epoch),
            seq,
            pinned,
        });
        Ok((
            out,
            ShardedIngestReport {
                seq,
                shards: vec![ShardRefresh {
                    refresh,
                    advance: stats,
                }],
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainStep, Rhs, StepFilter};
    use crate::types::DataType;

    fn world() -> (Database, TableId, TableId) {
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
        for p in 0..8i64 {
            db.insert(event, vec![Value::Int(p), Value::Int(p % 3)])
                .unwrap();
        }
        for i in 0..20i64 {
            db.insert(
                log,
                vec![Value::Int(i), Value::Int(i % 3), Value::Int(i % 8)],
            )
            .unwrap();
        }
        (db, log, event)
    }

    fn key(db: &Database, log: TableId) -> ShardKey {
        let col = db.table(log).schema().col("Patient").unwrap();
        ShardKey { table: log, col }
    }

    /// Rows `q` explains on a pinned epoch, ascending.
    fn explained(vec: &EpochVec, q: &ChainQuery) -> Vec<RowId> {
        vec.eval_suite(std::slice::from_ref(q), EvalOptions::default())
            .remove(0)
            .unwrap()
            .to_vec()
    }

    fn query(log: TableId, event: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 2,
            steps: vec![ChainStep::new(event, 0, 1)],
            close_col: Some(1),
            anchor_filters: vec![],
        }
    }

    /// Whatever shard count is asked for, `new` publishes one epoch that
    /// answers like the oracle.
    #[test]
    fn partitioning_matches_the_oracle_byte_for_byte() {
        let (db, log, event) = world();
        let q = query(log, event);
        let oracle = q.explained_rows(&db, EvalOptions::default()).unwrap();
        for n in [1usize, 2, 3, 4, 16] {
            let sharded = ShardedEngine::new(db.clone(), key(&db, log), n);
            let vec = sharded.load();
            assert_eq!(vec.shards().len(), 1, "{n} shards asked");
            assert_eq!(vec.global_log_len(), 20);
            assert_eq!(vec.shards()[0].log_len(), 20);
            assert_eq!(explained(&vec, &q), oracle, "{n} shards asked");
        }
    }

    /// `new` seals the database it was given and publishes it: the seq-0
    /// log shares every sealed segment with the caller's copy.
    #[test]
    fn new_publishes_the_database_it_was_given() {
        let (mut db, log, _) = world();
        db.seal();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let vec = sharded.load();
        let given = db.table(log).sealed_row_segments();
        let published = vec.shards()[0].db().table(log).sealed_row_segments();
        assert!(!given.is_empty());
        assert_eq!(given.len(), published.len());
        for (a, b) in given.iter().zip(published) {
            assert!(Arc::ptr_eq(a, b), "the log was copied, not published");
        }
    }

    #[test]
    fn ingest_routes_replicates_and_publishes_one_seq() {
        let (db, log, event) = world();
        let q = query(log, event);
        let k = key(&db, log);
        let mut oracle_db = db.clone();
        let sharded = ShardedEngine::new(db.clone(), k, 3);
        let pinned = sharded.load();

        let (last, report) = sharded.ingest(|batch| {
            batch
                .insert_dim(event, vec![Value::Int(40), Value::Int(1)])
                .unwrap();
            (20..26i64)
                .map(|i| {
                    let g = batch
                        .insert_log(vec![Value::Int(i), Value::Int(1), Value::Int(i % 41)])
                        .unwrap();
                    assert_eq!(g as i64, i, "row ids continue the oracle order");
                    g
                })
                .last()
        });
        assert_eq!(last, Some(25), "ingest returns the mutator's output");
        assert_eq!(report.seq, 1);
        assert_eq!(report.new_rows(), 6 + 1, "6 log rows + 1 dim row");

        // The pinned epoch is untouched; the new one answers like the
        // oracle over the equivalently-grown database.
        assert_eq!(pinned.global_log_len(), 20);
        oracle_db
            .insert(event, vec![Value::Int(40), Value::Int(1)])
            .unwrap();
        for i in 20..26i64 {
            oracle_db
                .insert(log, vec![Value::Int(i), Value::Int(1), Value::Int(i % 41)])
                .unwrap();
        }
        let new = sharded.load();
        assert_eq!(new.seq(), 1);
        assert_eq!(new.global_log_len(), 26);
        assert_eq!(
            explained(&new, &q),
            q.explained_rows(&oracle_db, EvalOptions::default())
                .unwrap()
        );
        assert_eq!(
            explained(&pinned, &q),
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            "the pinned epoch still answers from its frozen state"
        );
    }

    #[test]
    fn failed_persist_publishes_nothing_and_frees_the_seq() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 1);
        let err = sharded
            .ingest_with(
                |batch| {
                    batch
                        .insert_log(vec![Value::Int(99), Value::Int(0), Value::Int(1)])
                        .unwrap();
                },
                |batch, _, seq| {
                    assert_eq!(seq, 1);
                    assert_eq!(batch.global_log_len(), 21, "hook sees the staged rows");
                    Err("disk full")
                },
            )
            .unwrap_err();
        assert_eq!(err, "disk full");
        assert_eq!(sharded.seq(), 0);
        assert_eq!(sharded.load().global_log_len(), 20);
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(99), Value::Int(0), Value::Int(1)])
                .unwrap();
        });
        assert_eq!(report.seq, 1, "the failed attempt's seq is reused");
        assert_eq!(sharded.load().global_log_len(), 21);
    }

    #[test]
    fn panicking_ingest_publishes_nothing_and_recovers() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded.ingest(|batch| {
                batch
                    .insert_log(vec![Value::Int(50), Value::Int(0), Value::Int(3)])
                    .unwrap();
                panic!("ingest source glitched");
            })
        }));
        assert!(panic.is_err());
        assert_eq!(sharded.seq(), 0);
        assert_eq!(sharded.load().global_log_len(), 20);
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(50), Value::Int(0), Value::Int(3)])
                .unwrap();
        });
        assert_eq!(report.seq, 1);
    }

    #[test]
    fn caches_stay_warm_across_epochs() {
        let (db, log, event) = world();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let q = query(log, event);
        let e0 = sharded.load();
        let _ = explained(&e0, &q);
        assert_eq!(e0.shards()[0].engine().cached_step_maps(), 1);
        // Growing only the log leaves the Event step map alone — and the
        // successor inherits it through the fork.
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(99), Value::Int(2), Value::Int(9)])
                .unwrap();
        });
        assert_eq!(report.shards[0].refresh.dropped_step_maps, 0);
        assert_eq!(sharded.load().shards()[0].engine().cached_step_maps(), 1);
    }

    /// The oracle is a cold pin over an independently grown database, so
    /// an advance that changed the answer could not hide behind an equally
    /// wrong cold pin.
    #[test]
    fn maintained_sets_match_cold_scatter_gather_at_every_seq() {
        let (db, log, event) = world();
        let q = query(log, event);
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let mut oracle_db = db.clone();
        let pin = SuitePin {
            log,
            anchor_filters: vec![],
            queries: vec![q.clone()],
            opts: EvalOptions::default(),
        };
        // Epochs published before the pin lack the entry, never lie.
        assert!(sharded.load().maintained(0).is_none());
        let id = sharded.pin_suite(pin.clone());
        let check = |vec: &EpochVec, oracle_db: &Database| {
            let m = vec.maintained(id).expect("pinned epoch carries the sets");
            let one = ShardedEngine::new(oracle_db.clone(), key(&db, log), 1).load();
            let cold = compute_maintained(&one.shards()[0], &pin);
            assert_eq!(m.anchors, cold.anchors);
            assert_eq!(m.explained, cold.explained);
            assert_eq!(m.unexplained, cold.unexplained);
            assert_eq!(m.log_len, vec.global_log_len());
            // The maintained union also matches the reader path over the
            // same epoch.
            assert_eq!(
                m.explained,
                RowSet::union_all(vec.eval_suite(&pin.queries, pin.opts).into_iter().flatten())
            );
        };
        check(&sharded.load(), &oracle_db);
        for i in 0..5i64 {
            let access = vec![Value::Int(100 + i), Value::Int(1), Value::Int(i % 11)];
            let dim = vec![Value::Int(i % 11), Value::Int(1)];
            sharded.ingest(|batch| {
                batch.insert_log(access.clone()).unwrap();
                if i % 2 == 0 {
                    batch.insert_dim(event, dim.clone()).unwrap();
                }
            });
            oracle_db.insert(log, access).unwrap();
            if i % 2 == 0 {
                oracle_db.insert(event, dim).unwrap();
            }
            check(&sharded.load(), &oracle_db);
        }
        // A second pin replaces the first, and ingests advance only it.
        sharded.pin_suite(SuitePin {
            queries: vec![],
            ..pin.clone()
        });
        sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(200), Value::Int(1), Value::Int(3)])
                .unwrap();
        });
        let vec = sharded.load();
        let m = vec.maintained(0).expect("the replacement is pinned");
        assert!(m.explained.is_empty());
        assert_eq!(m.unexplained.len(), vec.global_log_len());
        assert!(vec.maintained(1).is_none());
    }

    #[test]
    fn empty_and_skewed_shards_are_fine() {
        // All rows one patient (one start group holds every anchor), and
        // an empty log: both answer like the oracle.
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
        db.insert(event, vec![Value::Int(7), Value::Int(1)])
            .unwrap();
        for i in 0..5i64 {
            db.insert(log, vec![Value::Int(i), Value::Int(1), Value::Int(7)])
                .unwrap();
        }
        let q = query(log, event);
        let oracle = q.explained_rows(&db, EvalOptions::default()).unwrap();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 4);
        assert_eq!(explained(&sharded.load(), &q), oracle);
        let mut empty = Database::new();
        let elog = empty
            .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
            .unwrap();
        let sharded = ShardedEngine::new(
            empty,
            ShardKey {
                table: elog,
                col: 1,
            },
            3,
        );
        assert_eq!(sharded.load().global_log_len(), 0);
    }

    /// 80 accesses `(Lid = i, User = i % 7, Patient = i % 40)` and "L.User
    /// also opened a patient numbered >= 30": a template that steps into
    /// the log on the user, not the patient. Patient-keyed data shards
    /// could not answer it; one engine per epoch explains every row.
    #[test]
    fn an_off_key_template_answers_in_full_at_every_shard_count() {
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
        for i in 0..80i64 {
            db.insert(
                log,
                vec![Value::Int(i), Value::Int(i % 7), Value::Int(i % 40)],
            )
            .unwrap();
        }
        let mut step = ChainStep::new(log, 1, 2);
        step.filters.push(StepFilter {
            col: 2,
            op: CmpOp::Ge,
            rhs: Rhs::Const(Value::Int(30)),
        });
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 1,
            steps: vec![step],
            close_col: None,
            anchor_filters: vec![],
        };
        let key = ShardKey { table: log, col: 2 };
        for n in [1usize, 2, 4] {
            let sharded = ShardedEngine::new(db.clone(), key, n);
            assert_eq!(explained(&sharded.load(), &q).len(), 80, "{n} shards");
            let id = sharded.pin_suite(SuitePin {
                log,
                anchor_filters: vec![],
                queries: vec![q.clone()],
                opts: EvalOptions::default(),
            });
            let vec = sharded.load();
            let m = vec.maintained(id).unwrap();
            assert_eq!(m.explained.len(), 80, "{n} shards: maintained");
            assert!(m.unexplained.is_empty(), "{n} shards: maintained");
        }
    }
}
