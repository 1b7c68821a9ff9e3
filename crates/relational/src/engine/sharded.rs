//! The epoch handle: the log hash-partitioned into N shards, each with its
//! own segmented storage and warm [`Engine`], published together as one
//! atomically-swapped epoch *vector* — so audit queries keep running while
//! the log ingests.
//!
//! [`Engine::refresh`] takes `&mut Engine`, so a service that holds one
//! engine must serialize every reader against every ingest. A
//! [`ShardedEngine`] decouples the two with an epoch handoff built from
//! `std` parts only (`Arc` + a pointer-swap `RwLock`):
//!
//! * **Readers** call [`ShardedEngine::load`] once per session and get an
//!   immutable [`EpochVec`] — every shard's database plus the engine built
//!   over it, frozen together at one sequence number. Every question the
//!   session asks against that vector sees one consistent state of the
//!   world, no matter how many ingests land meanwhile. `load` is a
//!   read-lock held only for an `Arc` clone, never for a query or a
//!   refresh.
//! * **The writer** (serialized by an internal mutex, so any thread may
//!   call it) runs [`ShardedEngine::ingest_with`], one shape for every
//!   ingest: clone every shard's database and append the batch (a
//!   [`ShardedBatch`] can only append), [`fork`](Engine::fork) every shard
//!   engine — same snapshot, same warm `Arc`-shared caches — and refresh
//!   the forks *privately*, run the persist hook *before* anything is
//!   published (published ⊆ durable), advance the one pinned suite, and
//!   publish the successor vector with one pointer swap. In-flight readers
//!   are never waited on; a panic in the ingest closure discards the
//!   private clones and leaves the published vector untouched.
//!
//! Shard count 1 is the unsharded engine, bit for bit: one part whose
//! local row ids *are* the global ids.
//!
//! ```
//! use eba_relational::{Database, DataType, ShardKey, ShardedEngine, Value};
//!
//! let mut db = Database::new();
//! let log = db
//!     .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
//!     .unwrap();
//! db.insert(log, vec![Value::Int(0), Value::Int(7)]).unwrap();
//! let handle = ShardedEngine::new(db, ShardKey { table: log, col: 1 }, 2);
//!
//! std::thread::scope(|scope| {
//!     // Reader session: pin one epoch vector, answer everything against it.
//!     scope.spawn(|| {
//!         let epochs = handle.load();
//!         assert!(epochs.global_log_len() > 0);
//!         // ... shard.engine().eval_suite(shard.db(), &queries, opts) ...
//!     });
//!     // Writer: ingest a batch and publish the successor vector.
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
//! # Why sharding works here
//!
//! Explanation-based auditing is embarrassingly parallel at access-log
//! granularity: explained/unexplained row sets, misuse metrics, and
//! timeline day buckets all merge associatively. A [`ShardedEngine`]
//! splits the log by a hash of the partition column (conventionally the
//! patient — exactly the attribute the paper's per-patient explanations
//! group by), runs per-shard incremental refresh, and answers suite
//! questions by [`par_map`] across shards plus an associative merge.
//!
//! That holds only while a template's walk stays in the anchor row's
//! shard: a shard holds only its own log rows, so a step into the log on
//! any other column would silently miss the rows other shards hold.
//! [`ShardKey::admits`] is the rule; above one shard a template it refuses
//! gets a typed error from [`EpochVec::eval_suite`] and is not maintained.
//!
//! # What is partitioned and what is replicated
//!
//! Only the log table is partitioned. Every shard database is a clone of
//! the same base, so dimension tables and the string pool share their
//! sealed segments via `Arc` *across shards* as well as across epochs —
//! and, critically, [`Symbol`](crate::pool::Symbol)s are identical in
//! every shard, which is what makes cross-shard `Value` comparison (and
//! the associative merges) sound. All interning during ingest goes
//! through [`ShardedBatch::str_value`], which interns into every shard
//! and asserts the symbols stayed aligned.
//!
//! # Global row ids
//!
//! Readers and the audit layer keep speaking *global* log row ids — the
//! ids the unsharded oracle would assign (insertion order across the
//! whole log). Each shard carries a `local → global` map in a
//! [`SegVec`], so publishing a shard epoch stays `O(batch)`: the map's
//! sealed segments are `Arc`-shared like every other column.
//!
//! # Costs
//!
//! Publishing pays one clone of each shard database and one
//! [`Engine::fork`] per shard per ingest batch, on the writer thread.
//! Storage is segmented ([`crate::segment`]): both operations share every
//! sealed segment by pointer and copy only the small mutable tails, so
//! publication is **`O(batch)`**, not `O(db)` — the storage-equivalence
//! suite and the benchmark's `segment.copied_bytes_per_epoch` probe meter
//! exactly this. The refresh itself is incremental too, so batch your
//! appends: one `ingest` per arriving batch, not per row.

use super::advance::{absorb, advance_shard, AdvanceStats, Residue};
use super::parallel::par_map;
use super::{Engine, RefreshStats};
use crate::chain::{ChainQuery, CmpOp, EvalOptions};
use crate::database::{Database, TableId};
use crate::error::{Error, Result};
use crate::pool::StringPool;
use crate::rowset::RowSet;
use crate::segment::SegVec;
use crate::sync::unpoison;
use crate::table::RowId;
use crate::types::ColId;
use crate::value::Value;
use std::sync::{Arc, Mutex, RwLock};

/// The log partitioning key: which table is sharded, and the column whose
/// hash routes a row to its shard (conventionally `Log.Patient`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey {
    /// The partitioned (log) table. Every other table is replicated.
    pub table: TableId,
    /// The routing column within that table.
    pub col: ColId,
}

impl ShardKey {
    /// Whether one shard answers `q` exactly from its own log rows: `q`
    /// may step into the partitioned table only at step 0, entering on
    /// `col` with `start_col == col`. Every log row such a walk reads then
    /// shares the anchor row's routing value, hence its shard. Repeat
    /// access, every other hand-crafted and group template and every mined
    /// template (which never steps into the log) pass.
    pub fn admits(&self, q: &ChainQuery) -> bool {
        q.steps.iter().enumerate().all(|(i, step)| {
            step.table != self.table
                || (i == 0 && step.enter_col == self.col && q.start_col == self.col)
        })
    }
}

/// Deterministic shard routing: FNV-1a over the value's tag and payload
/// (strings hash their text, not their pool-relative symbol, so routing
/// is stable across pools and restarts). `Null` routes to shard 0.
pub fn shard_of(v: &Value, pool: &StringPool, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    match v {
        Value::Null => return 0,
        Value::Int(i) => {
            eat(&[1]);
            eat(&i.to_le_bytes());
        }
        Value::Str(sym) => {
            eat(&[2]);
            eat(pool.resolve(*sym).as_bytes());
        }
        Value::Date(m) => {
            eat(&[3]);
            eat(&m.to_le_bytes());
        }
    }
    (h % n_shards as u64) as usize
}

/// A template suite registered for **incremental maintenance**: the
/// anchor shape (which log rows are under audit) plus the explanation
/// templates. Once pinned ([`ShardedEngine::pin_suite`]), every published
/// epoch vector carries the suite and a [`Maintained`] materialization of
/// its explained/unexplained partition, advanced inside ingest by delta
/// evaluation instead of recomputed by readers.
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
/// one epoch, in **global** row ids. Invariant (the stream-equivalence
/// suite proves it differentially): at every published epoch, each set is
/// **byte-identical to a cold recompute** over that epoch's database —
///
/// * `anchors`     = log rows passing the pin's anchor filters,
/// * `explained`   = union over the pin's templates of their explained
///   rows (exactly [`EpochVec::eval_suite`]'s union),
/// * `unexplained` = `anchors \ explained`.
///
/// Above one shard the pin's templates are only those the shard key
/// [admits](ShardKey::admits): [`ShardedEngine::pin_suite`] drops the rest,
/// which no shard could answer exactly.
///
/// The maintenance argument is monotonicity: tables are append-only and
/// chain templates are monotone, so a template's explained set only ever
/// grows — an ingest can be absorbed by **unioning in** a delta, never by
/// retracting. Every template can newly explain the appended log rows
/// (one [`Engine::eval_suite_range`] over the tail covers them all); a
/// template whose support tables grew can additionally newly explain
/// *old* anchor rows, but any such row was by definition still
/// unexplained, **and** its new explanation must use an appended row —
/// so only the residue rows a backward walk from the appended rows can
/// reach are re-asked ([`Engine::eval_suite_rows`]). The advance costs
/// O(appended rows × join fan-out); the whole residue is re-asked only
/// when that walk touches more values and rows than the residue holds
/// (see [`super::advance`]).
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

/// One shard of a published [`EpochVec`]: the shard's database and the
/// warm engine over it, frozen together at the vector's seq, plus the
/// shard's `local → global` row id map.
#[derive(Debug)]
pub struct ShardEpoch {
    db: Database,
    engine: Engine,
    to_global: SegVec<RowId>,
}

impl ShardEpoch {
    /// The shard's database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The warm engine over this shard's database.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Local log rows in this shard.
    pub fn log_len(&self) -> usize {
        self.to_global.len()
    }

    /// Maps a shard-local log row id to the global (oracle-order) id.
    ///
    /// # Panics
    /// Panics when `local` is not a log row of this shard.
    pub fn to_global(&self, local: RowId) -> RowId {
        *self.to_global.get(local as usize)
    }

    /// Maps a set of this shard's log rows to global ids. Local ascending
    /// order is a subsequence of global order, so the mapped ids are
    /// already sorted.
    pub fn to_global_set(&self, local: &RowSet) -> RowSet {
        let global: Vec<RowId> = local.iter().map(|r| self.to_global(r)).collect();
        RowSet::from_sorted_vec(&global)
    }

    /// The shard-local id of global log row `global`, if this shard holds
    /// it (a binary search of the shard's sorted map).
    pub fn find_global(&self, global: RowId) -> Option<RowId> {
        let n = self.to_global.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match (*self.to_global.get(mid)).cmp(&global) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as RowId),
            }
        }
        None
    }
}

/// The atomically-published vector of shard epochs, all frozen at one
/// sequence number. Readers pin the whole vector ([`ShardedEngine::load`])
/// and every scatter-gather answer below is computed against it, so a
/// pinned session sees one consistent state of the world across all
/// shards — exactly the single-epoch guarantee, vector-shaped.
#[derive(Debug)]
pub struct EpochVec {
    /// `Arc`-shared so [`ShardedEngine::pin_suite`] republishes the same
    /// shard epochs with a new pinned suite without copying.
    shards: Arc<[ShardEpoch]>,
    key: ShardKey,
    seq: u64,
    global_log_len: usize,
    /// The pinned suite and its materialization in **global** row ids;
    /// the writer advances it from here on every ingest.
    pinned: Option<(Arc<SuitePin>, Arc<Maintained>)>,
}

impl EpochVec {
    /// Publication sequence number (0 initial, +1 per ingest), shared by
    /// every shard in the vector.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard epochs, in shard order.
    pub fn shards(&self) -> &[ShardEpoch] {
        &self.shards
    }

    /// The partitioning key.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// Total log rows across all shards (the global log length).
    pub fn global_log_len(&self) -> usize {
        self.global_log_len
    }

    /// The maintained materialization of the pinned suite in **global**
    /// row ids, if this vector carries one. `pin` is the id
    /// [`ShardedEngine::pin_suite`] returned, which is always 0; vectors
    /// published before the suite was pinned carry none.
    pub fn maintained(&self, pin: usize) -> Option<&Arc<Maintained>> {
        self.pinned
            .as_ref()
            .filter(|_| pin == 0)
            .map(|(_, maintained)| maintained)
    }

    /// Fused suite evaluation across every shard: each shard runs
    /// [`Engine::eval_suite`] (one partition walk / log scan for the
    /// whole suite) and returns its explained rows as **global-id**
    /// [`RowSet`]s; the per-shard bitmaps then fold together with the
    /// associative union — the shard payload needs no re-sort and no
    /// coordinator-side hash set, which is exactly the shape a
    /// multi-node scatter-gather would put on the wire.
    ///
    /// Above one shard, a query the shard key does not
    /// [admit](ShardKey::admits) gets [`Error::InvalidQuery`] in its slot;
    /// the other slots still answer.
    pub fn eval_suite(&self, queries: &[ChainQuery], opts: EvalOptions) -> Vec<Result<RowSet>> {
        let refused = |q: &ChainQuery| self.shards.len() > 1 && !self.key.admits(q);
        if queries.iter().any(refused) {
            let admitted: Vec<ChainQuery> =
                queries.iter().filter(|q| !refused(q)).cloned().collect();
            let mut answers = self.eval_suite(&admitted, opts).into_iter();
            return queries
                .iter()
                .map(|q| {
                    if !refused(q) {
                        return answers.next().expect("one answer per admitted query");
                    }
                    Err(Error::InvalidQuery(format!(
                        "across {n} shards a query may step into the sharded log only at \
                         step 0, entering on the shard key column {col} with start column \
                         {col}: each shard walks only its own log rows",
                        n = self.shards.len(),
                        col = self.key.col
                    )))
                })
                .collect();
        }
        let per_shard: Vec<Vec<Result<RowSet>>> = par_map(&self.shards, |shard| {
            shard
                .engine()
                .eval_suite(shard.db(), queries, opts)
                .into_iter()
                .map(|set| set.map(|s| shard.to_global_set(&s)))
                .collect()
        });
        let mut columns: Vec<std::vec::IntoIter<Result<RowSet>>> =
            per_shard.into_iter().map(|v| v.into_iter()).collect();
        (0..queries.len())
            .map(|_| {
                let row: Vec<Result<RowSet>> = columns
                    .iter_mut()
                    .map(|it| it.next().expect("one result per query per shard"))
                    .collect();
                let mut sets = Vec::with_capacity(row.len());
                for set in row {
                    sets.push(set?);
                }
                Ok(RowSet::union_all(sets))
            })
            .collect()
    }
}

/// Cold (from-scratch) global materialization of `pin`: every shard scans
/// its anchors and evaluates the suite in parallel, then the global-id
/// bitmaps fold with the associative union — the same scatter-gather shape
/// as [`EpochVec::eval_suite`]. Only [`ShardedEngine::pin_suite`] pays it;
/// every ingest after advances the sets instead.
pub(super) fn compute_maintained(
    shards: &[ShardEpoch],
    pin: &SuitePin,
    global_log_len: usize,
) -> Maintained {
    let idx: Vec<usize> = (0..shards.len()).collect();
    let per: Vec<(RowSet, RowSet)> = par_map(&idx, |&s| {
        let shard = &shards[s];
        let engine = shard.engine();
        let log = engine.snapshot().table(pin.log);
        let anchors: Vec<RowId> = (0..log.n_rows)
            .filter(|&r| engine.anchor_passes_filters(&pin.anchor_filters, log, r))
            .map(|r| shard.to_global(r as RowId))
            .collect();
        let explained = RowSet::union_all(
            engine
                .eval_suite(shard.db(), &pin.queries, pin.opts)
                .into_iter()
                .flatten(),
        );
        (
            RowSet::from_sorted_vec(&anchors),
            shard.to_global_set(&explained),
        )
    });
    absorb(&Maintained::default(), per, global_log_len)
}

/// Advances the global materialization across one sharded ingest: each
/// shard runs the advance core ([`advance_shard`]) over its **local**
/// rows, seeing the previous global `unexplained` set through its
/// `local → global` map, and the global-id deltas merge associatively
/// into the previous sets (see [`Maintained`] for the monotonicity
/// argument). Each shard pays O(its appended rows × join fan-out), and
/// re-asks its whole slice of the residue only when its backward walk
/// touches more values and rows than the residue holds. Returns the
/// per-shard advance counts in shard order.
fn advance_maintained(
    prev_shards: &[ShardEpoch],
    shards: &[ShardEpoch],
    pin: &SuitePin,
    prev: &Maintained,
    global_log_len: usize,
) -> (Maintained, Vec<AdvanceStats>) {
    let idx: Vec<usize> = (0..shards.len()).collect();
    let deltas = par_map(&idx, |&s| {
        let shard = &shards[s];
        let delta = advance_shard(
            prev_shards[s].engine(),
            shard.engine(),
            shard.db(),
            pin,
            Residue {
                len: prev.unexplained.len(),
                contains: |r| prev.unexplained.contains(shard.to_global(r)),
                // Global residue ids mapped back through the sorted
                // global-id index.
                all: || {
                    let local: Vec<RowId> = prev
                        .unexplained
                        .iter()
                        .filter_map(|g| shard.find_global(g))
                        .collect();
                    RowSet::from_sorted_vec(&local)
                },
            },
        );
        (
            shard.to_global_set(&delta.anchors),
            shard.to_global_set(&delta.explained),
            delta.stats,
        )
    });
    let stats = deltas.iter().map(|d| d.2).collect();
    let sets = deltas.into_iter().map(|(a, e, _)| (a, e));
    (absorb(prev, sets, global_log_len), stats)
}

/// What one shard's refresh did during a sharded ingest.
#[derive(Debug, Clone)]
pub struct ShardRefresh {
    /// The incremental refresh stats.
    pub refresh: RefreshStats,
    /// What advancing the pinned suite cost in this shard (all zero when
    /// no suite is pinned).
    pub advance: AdvanceStats,
}

/// What one [`ShardedEngine::ingest_with`] published.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Sequence number of the epoch vector this ingest published.
    pub seq: u64,
    /// Per-shard refresh outcomes, in shard order.
    pub shards: Vec<ShardRefresh>,
}

impl ShardedIngestReport {
    /// Total rows appended across all shards.
    pub fn new_rows(&self) -> usize {
        self.shards.iter().map(|s| s.refresh.delta.new_rows).sum()
    }

    /// The operator-facing line for an ingest whose advance re-asked the
    /// **whole** residue in some shard ([`AdvanceStats::used_full_residue`])
    /// instead of the rows the appended batch could reach; `None` on the
    /// delta path.
    pub fn full_residue_notice(&self) -> Option<String> {
        let mut full = self
            .shards
            .iter()
            .map(|s| &s.advance)
            .filter(|a| a.used_full_residue);
        let first = full.next()?;
        Some(format!(
            "epoch {}: the backward walk from the appended rows outgrew the residue; \
             all {} residue rows were re-asked in {} shard(s)",
            self.seq,
            first.residue_rows,
            1 + full.count()
        ))
    }
}

/// The writer's view of an in-flight sharded ingest: one private database
/// clone per shard plus the global row id counter. All mutation of a
/// sharded engine goes through this — it routes log rows, replicates
/// dimension rows, and keeps the shard string pools symbol-aligned.
pub struct ShardedBatch {
    key: ShardKey,
    dbs: Vec<Database>,
    maps: Vec<SegVec<RowId>>,
    global_len: usize,
}

impl ShardedBatch {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.dbs.len()
    }

    /// Total log rows across all shards, counting rows staged so far.
    pub fn global_log_len(&self) -> usize {
        self.global_len
    }

    /// Which shard a routing value lands in.
    pub fn shard_of(&self, v: &Value) -> usize {
        shard_of(v, self.dbs[0].pool(), self.dbs.len())
    }

    /// One shard's database (reads see rows staged so far).
    pub fn db(&self, shard: usize) -> &Database {
        &self.dbs[shard]
    }

    /// The shard-aligned string pool (shard 0's; all shards' pools are
    /// identical by construction).
    pub fn pool(&self) -> &StringPool {
        self.dbs[0].pool()
    }

    /// Inserts one log row, routed by the hash of its partition column.
    /// Returns the row's **global** id (the id the unsharded oracle would
    /// assign).
    pub fn insert_log(&mut self, row: Vec<Value>) -> Result<RowId> {
        let shard = self.shard_of(&row[self.key.col]);
        let local = self.dbs[shard].insert(self.key.table, row)?;
        debug_assert_eq!(local as usize, self.maps[shard].len());
        let global = RowId::try_from(self.global_len).expect("more than u32::MAX log rows");
        self.maps[shard].push(global);
        self.global_len += 1;
        Ok(global)
    }

    /// Inserts one dimension row, replicated into every shard.
    ///
    /// # Panics
    /// Panics when `table` is the partitioned log table — log rows must
    /// go through [`ShardedBatch::insert_log`] to get a global id.
    pub fn insert_dim(&mut self, table: TableId, row: Vec<Value>) -> Result<()> {
        assert!(
            table != self.key.table,
            "log rows must be inserted via insert_log"
        );
        for db in &mut self.dbs {
            db.insert(table, row.clone())?;
        }
        Ok(())
    }

    /// Interns a string into **every** shard pool and returns the (single,
    /// shared) symbol value — the only sound way to mint string values
    /// during a sharded ingest.
    ///
    /// # Panics
    /// Panics if the shard pools have drifted out of alignment (a bug:
    /// all interning is supposed to flow through here).
    pub fn str_value(&mut self, s: &str) -> Value {
        let first = self.dbs[0].intern(s);
        for db in &mut self.dbs[1..] {
            let sym = db.intern(s);
            assert_eq!(sym, first, "shard string pools drifted out of alignment");
        }
        Value::Str(first)
    }
}

/// The snapshot-handoff cell: one serialized writer, wait-free readers,
/// persist-before-publish, over an atomically-swapped [`EpochVec`]. See
/// the module docs for the pattern.
#[derive(Debug)]
pub struct ShardedEngine {
    current: RwLock<Arc<EpochVec>>,
    /// Serializes writers; holds the next sequence number.
    writer: Mutex<u64>,
    key: ShardKey,
}

impl ShardedEngine {
    /// Partitions `db`'s log table into `n_shards` by the hash of
    /// `key.col` and builds the initial epoch vector (seq 0): one
    /// database clone + engine per shard, dimension tables and the pool
    /// `Arc`-shared across all of them.
    ///
    /// # Panics
    /// Panics when `n_shards` is zero.
    pub fn new(db: Database, key: ShardKey, n_shards: usize) -> ShardedEngine {
        assert!(n_shards > 0, "shard count must be positive");
        let shards = Self::partition(&db, key, n_shards);
        ShardedEngine {
            current: RwLock::new(Arc::new(EpochVec {
                shards,
                key,
                seq: 0,
                global_log_len: db.table(key.table).len(),
                pinned: None,
            })),
            writer: Mutex::new(0),
            key,
        }
    }

    /// Pins a suite for incremental maintenance and returns its id for
    /// [`EpochVec::maintained`], which is always 0: an engine maintains
    /// one suite, and a second call replaces the first. The current vector
    /// is republished (same shard epochs, same seq) with the suite and its
    /// cold global materialization, so a reader loading after `pin_suite`
    /// returns already sees the maintained sets; every later ingest
    /// advances them by per-shard deltas merged associatively. Above one
    /// shard only the templates the shard key [admits](ShardKey::admits)
    /// are maintained. Serialized against ingests by the writer lock; a
    /// panic publishes nothing.
    pub fn pin_suite(&self, mut pin: SuitePin) -> usize {
        let _writer = unpoison(self.writer.lock());
        let base = self.load();
        if base.shards.len() > 1 {
            pin.queries.retain(|q| self.key.admits(q));
        }
        let maintained = compute_maintained(&base.shards, &pin, base.global_log_len);
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            shards: base.shards.clone(),
            key: self.key,
            seq: base.seq,
            global_log_len: base.global_log_len,
            pinned: Some((Arc::new(pin), Arc::new(maintained))),
        });
        0
    }

    fn partition(db: &Database, key: ShardKey, n_shards: usize) -> Arc<[ShardEpoch]> {
        // Route every log row once, then build each shard's database and
        // engine in parallel.
        let log = db.table(key.table);
        let mut routed: Vec<Vec<RowId>> = vec![Vec::new(); n_shards];
        for r in 0..log.len() {
            let v = log.cell(r as RowId, key.col);
            routed[shard_of(&v, db.pool(), n_shards)].push(r as RowId);
        }
        let built: Vec<ShardEpoch> = par_map(&routed, |globals| {
            let mut shard_db = db.clone_with_empty_table(key.table);
            let mut map = SegVec::new(shard_db.table(key.table).segment_rows());
            for &g in globals {
                shard_db
                    .insert(key.table, log.row(g).to_vec())
                    .expect("re-inserting a validated log row");
                map.push(g);
            }
            // Seal the rebuilt shard: contents unchanged, but every later
            // ingest fork then clones shared segments instead of copying
            // the whole re-inserted tail — partitioning must not cost the
            // `O(batch)` publication invariant its head start.
            shard_db.seal();
            map.seal();
            let engine = Engine::new(&shard_db);
            ShardEpoch {
                db: shard_db,
                engine,
                to_global: map,
            }
        });
        built.into()
    }

    /// Pins the current epoch vector. Effectively wait-free: the read lock
    /// guards a single `Arc` clone, never a query or a refresh. Call once
    /// per session (or per dashboard recomputation), not once per query —
    /// the vector is the session's consistent view.
    pub fn load(&self) -> Arc<EpochVec> {
        unpoison(self.current.read()).clone()
    }

    /// Sequence number of the current epoch vector.
    pub fn seq(&self) -> u64 {
        self.load().seq
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.load().shard_count()
    }

    /// The partitioning key.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// Applies `mutate` to a private [`ShardedBatch`] (one database clone
    /// per shard), refreshes a private fork of every shard engine, advances
    /// the pinned suite, and publishes the successor epoch vector. Returns
    /// `mutate`'s output and the per-shard report. Writers serialize;
    /// readers never block.
    ///
    /// # Panic safety
    /// A panic in `mutate` or any refresh drops the private clones and
    /// publishes nothing.
    pub fn ingest<R>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
    ) -> (R, ShardedIngestReport) {
        let (out, report) = self
            .ingest_with(mutate, |_, _, _| Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|e| match e {});
        (out, report)
    }

    /// [`ShardedEngine::ingest`] with a **persist hook**: `persist` runs
    /// after every shard has been mutated and refreshed but *before*
    /// anything is published, with the staged batch, `mutate`'s output and
    /// the would-be seq. Only if it returns `Ok` is the pinned suite
    /// advanced and the vector published (and the sequence counter
    /// advanced).
    ///
    /// Every ingest has this one shape. A [`ShardedBatch`] only appends,
    /// so refreshing a shard's fork cannot be refused
    /// ([`RefreshError`](super::RefreshError) names only shrunk or
    /// replaced tables) and the pinned suite always advances by deltas.
    ///
    /// This is the durable-ingest ordering contract: a service that writes
    /// the batch to a [`DurableStore`](crate::pile::DurableStore) inside
    /// `persist` acknowledges only states that are already on disk, so the
    /// **published history is always a prefix of the durable history**,
    /// shard assignment notwithstanding (the durable log is recorded in
    /// global row order and re-partitioned deterministically on recovery).
    /// On `Err` the private clones are dropped, nothing is published, the
    /// seq is not consumed, and the error is returned with the writer lock
    /// released. A panic in `mutate`, a refresh, or `persist` likewise
    /// publishes nothing.
    pub fn ingest_with<R, E>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
        persist: impl FnOnce(&ShardedBatch, &R, u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<(R, ShardedIngestReport), E> {
        let mut next_seq = unpoison(self.writer.lock());
        let base = self.load();
        let mut batch = ShardedBatch {
            key: self.key,
            dbs: base.shards.iter().map(|s| s.db().clone()).collect(),
            maps: base.shards.iter().map(|s| s.to_global.clone()).collect(),
            global_len: base.global_log_len,
        };
        let out = mutate(&mut batch);
        let seq = *next_seq + 1;

        // Fork + refresh every shard in parallel (shards whose tables did
        // not grow refresh in O(1)).
        let idx: Vec<usize> = (0..base.shards.len()).collect();
        let refreshed: Vec<(Engine, RefreshStats)> = par_map(&idx, |&s| {
            let mut engine = base.shards[s].engine().fork();
            let stats = engine
                .refresh(&batch.dbs[s])
                .expect("a ShardedBatch only appends, and an append-only refresh is never refused");
            (engine, stats)
        });

        persist(&batch, &out, seq)?;
        *next_seq = seq;

        let ShardedBatch {
            dbs,
            maps,
            global_len,
            ..
        } = batch;
        let mut report = ShardedIngestReport {
            seq,
            shards: Vec::with_capacity(dbs.len()),
        };
        let shards: Vec<ShardEpoch> = dbs
            .into_iter()
            .zip(maps)
            .zip(refreshed)
            .map(|((db, to_global), (engine, refresh))| {
                report.shards.push(ShardRefresh {
                    refresh,
                    advance: AdvanceStats::default(),
                });
                ShardEpoch {
                    db,
                    engine,
                    to_global,
                }
            })
            .collect();
        // Advance the pinned suite's global materialization by per-shard
        // deltas.
        let pinned = base.pinned.as_ref().map(|(pin, prev)| {
            let (m, stats) = advance_maintained(&base.shards, &shards, pin, prev, global_len);
            for (shard, stats) in report.shards.iter_mut().zip(stats) {
                shard.advance = stats;
            }
            (pin.clone(), Arc::new(m))
        });
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            shards: shards.into(),
            key: self.key,
            seq,
            global_log_len: global_len,
            pinned,
        });
        Ok((out, report))
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

    /// Global rows `q` explains on a pinned vector, ascending.
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

    #[test]
    fn shard_routing_is_deterministic_and_total() {
        let mut pool = StringPool::new();
        let s = Value::Str(pool.intern("Pediatrics"));
        for n in [1usize, 2, 4, 7] {
            for v in [Value::Null, Value::Int(42), Value::Date(99), s] {
                let a = shard_of(&v, &pool, n);
                assert_eq!(a, shard_of(&v, &pool, n));
                assert!(a < n);
            }
            assert_eq!(shard_of(&Value::Null, &pool, n), 0);
        }
        // String routing hashes text, not the pool-relative symbol.
        let mut other = StringPool::new();
        other.intern("something-else-first");
        let s2 = Value::Str(other.intern("Pediatrics"));
        assert_eq!(shard_of(&s, &pool, 4), shard_of(&s2, &other, 4));
    }

    #[test]
    fn partitioning_matches_the_oracle_byte_for_byte() {
        let (db, log, event) = world();
        let q = query(log, event);
        let oracle = q.explained_rows(&db, EvalOptions::default()).unwrap();
        for n in [1usize, 2, 3, 4, 16] {
            let sharded = ShardedEngine::new(db.clone(), key(&db, log), n);
            let vec = sharded.load();
            assert_eq!(vec.shard_count(), n);
            assert_eq!(vec.global_log_len(), 20);
            assert_eq!(
                vec.shards().iter().map(ShardEpoch::log_len).sum::<usize>(),
                20,
                "shards partition the log"
            );
            assert_eq!(explained(&vec, &q), oracle, "{n} shards");
        }
    }

    #[test]
    fn global_ids_round_trip_through_find_global() {
        let (db, log, _) = world();
        let sharded = ShardedEngine::new(db, key_of(log), 4);
        let vec = sharded.load();
        let holders = |g: RowId| -> Vec<RowId> {
            vec.shards()
                .iter()
                .filter_map(|s| s.find_global(g).map(|local| s.to_global(local)))
                .collect()
        };
        for g in 0..20u32 {
            assert_eq!(holders(g), vec![g], "exactly one shard holds {g}");
        }
        assert!(holders(20).is_empty());

        fn key_of(log: TableId) -> ShardKey {
            ShardKey { table: log, col: 2 }
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
                    assert_eq!(g as i64, i, "global ids continue the oracle order");
                    g
                })
                .last()
        });
        assert_eq!(last, Some(25), "ingest returns the mutator's output");
        assert_eq!(report.seq, 1);
        assert_eq!(report.new_rows(), 6 + 3, "6 log rows + dim row x3 shards");

        // The pinned vector is untouched; the new one answers like the
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
            "the pinned vector still answers from its frozen state"
        );
    }

    #[test]
    fn failed_persist_publishes_nothing_and_frees_the_seq() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 2);
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
        let _ = log;
    }

    #[test]
    fn panicking_ingest_publishes_nothing_and_recovers() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 2);
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
        let _ = log;
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

    /// The oracle is a cold recompute at **one** shard over an
    /// independently grown database, so a shard count that changed the
    /// answer could not hide behind an equally wrong cold pin.
    #[test]
    fn maintained_sets_match_cold_scatter_gather_at_every_seq() {
        let (db, log, event) = world();
        let q = query(log, event);
        for n in [1usize, 4] {
            let sharded = ShardedEngine::new(db.clone(), key(&db, log), n);
            let mut oracle_db = db.clone();
            let pin = SuitePin {
                log,
                anchor_filters: vec![],
                queries: vec![q.clone()],
                opts: EvalOptions::default(),
            };
            // Vectors published before the pin lack the entry, never lie.
            assert!(sharded.load().maintained(0).is_none());
            let id = sharded.pin_suite(pin.clone());
            let check = |vec: &EpochVec, oracle_db: &Database| {
                let m = vec.maintained(id).expect("pinned vector carries the sets");
                let one = ShardedEngine::new(oracle_db.clone(), key(&db, log), 1).load();
                let cold = compute_maintained(one.shards(), &pin, one.global_log_len());
                assert_eq!(m.anchors, cold.anchors, "{n} shards");
                assert_eq!(m.explained, cold.explained, "{n} shards");
                assert_eq!(m.unexplained, cold.unexplained, "{n} shards");
                assert_eq!(m.log_len, vec.global_log_len());
                // The maintained union also matches the reader-path
                // scatter-gather over the same vector.
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
            assert!(m.explained.is_empty(), "{n} shards");
            assert_eq!(m.unexplained.len(), vec.global_log_len(), "{n} shards");
            assert!(vec.maintained(1).is_none());
        }
    }

    #[test]
    fn str_value_keeps_shard_pools_aligned() {
        let mut db = Database::new();
        let log = db
            .create_table("Log", &[("Lid", DataType::Int), ("Dept", DataType::Str)])
            .unwrap();
        let dept = db.str_value("Radiology");
        db.insert(log, vec![Value::Int(0), dept]).unwrap();
        let k = ShardKey { table: log, col: 1 };
        let sharded = ShardedEngine::new(db, k, 3);
        let ((), _) = sharded.ingest(|batch| {
            let a = batch.str_value("Radiology");
            assert_eq!(a, dept, "existing strings resolve to the same symbol");
            let b = batch.str_value("Pediatrics");
            batch.insert_log(vec![Value::Int(1), b]).unwrap();
            batch.insert_log(vec![Value::Int(2), a]).unwrap();
        });
        let vec = sharded.load();
        assert_eq!(vec.global_log_len(), 3);
        // Every shard pool resolves the new symbol identically.
        for shard in vec.shards() {
            assert!(shard.db().pool().get("Pediatrics").is_some());
        }
        // The two new rows may land in different shards but keep global order.
        for g in [1, 2] {
            assert!(vec.shards().iter().any(|s| s.find_global(g).is_some()));
        }
    }

    #[test]
    fn empty_and_skewed_shards_are_fine() {
        // All rows one patient: every row lands in one shard, the rest
        // stay empty — and answers still match the oracle.
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
        let vec = sharded.load();
        let lens: Vec<usize> = vec.shards().iter().map(ShardEpoch::log_len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 5);
        assert_eq!(lens.iter().filter(|&&l| l == 0).count(), 3, "{lens:?}");
        assert_eq!(explained(&vec, &q), oracle);
        // An entirely empty log partitions into all-empty shards.
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

    /// 80 accesses `(Lid = i, User = i % 7, Patient = i % 40)` sharded by
    /// patient, and "L.User also opened a patient numbered >= 30": a
    /// template that steps into the log on the user, not the shard key.
    fn cross_shard_world() -> (Database, ShardKey, ChainQuery) {
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
        (db, ShardKey { table: log, col: 2 }, q)
    }

    /// A shard walks only its own log rows, so above one shard a template
    /// stepping into the log off the shard key would explain fewer rows
    /// than one engine does. It gets a typed error instead.
    #[test]
    fn a_template_stepping_off_the_shard_key_is_refused_above_one_shard() {
        let (db, key, q) = cross_shard_world();
        let one = ShardedEngine::new(db.clone(), key, 1).load();
        assert_eq!(explained(&one, &q).len(), 80);
        for n in [2usize, 4] {
            let vec = ShardedEngine::new(db.clone(), key, n).load();
            let answer = vec.eval_suite(std::slice::from_ref(&q), EvalOptions::default());
            match &answer[0] {
                Err(Error::InvalidQuery(msg)) => {
                    assert!(msg.contains("only at step 0"), "{n} shards: {msg}")
                }
                other => panic!("{n} shards answered {other:?} instead of refusing"),
            }
        }
    }

    #[test]
    fn admits_lets_only_the_anchor_shards_rows_into_the_walk() {
        let (db, key, q) = cross_shard_world();
        let log = key.table;
        assert!(!key.admits(&q), "steps into the log on the user");
        // Repeat access: step 0 enters the log on the patient.
        let mut earlier = ChainStep::new(log, 2, 1);
        earlier.filters.push(StepFilter {
            col: 0,
            op: CmpOp::Lt,
            rhs: Rhs::AnchorCol(0),
        });
        let repeat = ChainQuery {
            log,
            lid_col: 0,
            start_col: 2,
            steps: vec![earlier],
            close_col: Some(1),
            anchor_filters: vec![],
        };
        assert!(key.admits(&repeat));
        // The same step from the user's start column, or entering on the
        // user, or into the log at step 1, is refused.
        assert!(!key.admits(&ChainQuery {
            start_col: 1,
            ..repeat.clone()
        }));
        let mut on_user = repeat.clone();
        on_user.steps[0].enter_col = 1;
        assert!(!key.admits(&on_user));
        let mut second = repeat.clone();
        second.steps.push(ChainStep::new(log, 1, 2));
        assert!(!key.admits(&second));
        // At two shards the suite's admitted slot answers as at one shard,
        // and `pin_suite` maintains only the admitted template.
        let suite = [q.clone(), repeat.clone()];
        let one = ShardedEngine::new(db.clone(), key, 1).load();
        let two = ShardedEngine::new(db.clone(), key, 2);
        let answers = two.load().eval_suite(&suite, EvalOptions::default());
        assert!(answers[0].is_err());
        assert_eq!(
            answers[1].as_ref().unwrap().to_vec(),
            explained(&one, &repeat)
        );
        let id = two.pin_suite(SuitePin {
            log,
            anchor_filters: vec![],
            queries: suite.to_vec(),
            opts: EvalOptions::default(),
        });
        assert_eq!(
            two.load().maintained(id).unwrap().explained.to_vec(),
            explained(&one, &repeat)
        );
    }
}
