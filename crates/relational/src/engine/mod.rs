//! The batch chain-query evaluation engine.
//!
//! [`ChainQuery::support`](crate::ChainQuery::support) is correct but
//! rebuilds every step's `enter → {exits}` map from a full table scan on
//! every call, keys its frontiers on full tagged [`Value`](crate::Value)s,
//! and evaluates one query at a time. Template mining evaluates thousands
//! of candidate queries against the *same* database, and candidate paths
//! overwhelmingly share steps — exactly the redundancy this module removes.
//! Three layers (see the crate docs for the architecture overview):
//!
//! 1. **Interning** ([`interner`]): one scan snapshots the database into
//!    columnar dense-`u32` form; frontier sets become bitset-deduplicated
//!    `Vec<u32>`s.
//! 2. **Step-map cache** ([`stepmap`]): each distinct step — keyed on
//!    `(table, enter_col, exit_col, const-filters, dedup)` — is built once
//!    per [`Engine`] and shared by every query that uses it.
//! 3. **One fused driver** ([`parallel`]): [`Engine::eval_suite`]
//!    evaluates a whole batch — a mining frontier, or an auditor's entire
//!    template suite — against one cache, paying each shared log
//!    partition or log scan once and fanning out over scoped threads.
//!    [`Engine::eval_suite_range`] and [`Engine::eval_suite_rows`] are
//!    the same driver over a row range or a row list, and
//!    [`Engine::support_many`] is its answer plus a distinct-lid count.
//!
//! Results are **identical** to the row evaluator's — the same
//! `explained_rows` and `support` for every query class (the
//! `engine_equivalence` integration test enforces this differentially).
//! A decoration that references the anchor log row (`w.col < L.col`) has
//! no shareable *step* map, yet the template walks the same grouped path
//! as every other: "some witness `w` has `w.col < L.col`" holds iff the
//! witnesses' `min(col)` does (`max` for `>`/`>=`). The decorated step
//! folds that extremum per exit value over the shared, filter-free
//! `(table, enter_col) → rows` **row map** ([`stepmap::RowMap`]), later
//! steps carry the best extremum forward, and each anchor row of a
//! `(start, close)` group costs one comparison at the close.
//!
//! # Snapshot lifecycle
//!
//! The engine snapshots at construction and answers from that snapshot
//! only: rows inserted into the `Database` afterwards are **not** visible
//! until [`Engine::refresh`] is called. Because tables are structurally
//! append-only (there is no update/delete API), a refresh is incremental:
//! it scans only the appended rows, extends the interner (existing ids are
//! never reassigned) and the columnar tables in place, and then invalidates
//! exactly the caches the append touched.
//!
//! # Cache invalidation rules
//!
//! On refresh, for every table that gained rows (or was created since the
//! last snapshot):
//!
//! * **step maps over that table** are dropped — their CSR arrays
//!   describe the old rows — and are lazily rebuilt on next use;
//! * **row maps and log partitions over that table** are **kept**: they
//!   are chunked by row range ([`stepmap::RowMapChunks`],
//!   [`GroupChunks`]), and because tables are append-only a chunk over
//!   old rows stays exact forever — growth appends one chunk over just
//!   the new rows on next use, merging adjacent chunks size-tiered
//!   ([`stepmap::Chunks::extend_to`]) so the chunk count stays
//!   logarithmic and the rows already covered are rebuilt only once the
//!   appended tail has grown to half of them;
//! * everything else is **kept**: a step/row map over an un-grown table
//!   stays exact even though the id space grew, because a newly-interned
//!   value cannot occur in rows that have not changed (probing such a map
//!   with a new id yields the empty slice — see
//!   [`StepMap::exits_of`](stepmap::StepMap)).
//!
//! # When to hold a warm engine
//!
//! Construction costs one full database scan that hashes each cell once
//! (the interner's lookup is one layer while nothing shares it): about
//! 46 ms on the benchmark's 56k-row `mine` world and 133 ms on its 157k-row
//! `stream_large` world on a 2-core box, first suite pass included. Each
//! distinct step map costs one table scan on first use. Those costs only
//! amortize across queries, so hold **one engine per logical session** and
//! refresh it as the log grows, rather than constructing one per call:
//!
//! * a mining run (thousands of candidates sharing steps),
//! * an interactive audit session (every "which accesses does this suite
//!   explain?" question re-uses the suite's step maps),
//! * a long-running service over an append-only log ([`Engine::refresh`]
//!   after each ingest batch keeps the snapshot warm at the cost of
//!   scanning only the new rows).
//!
//! Do **not** share one engine across databases: a snapshot refreshed
//! against a database it was not built from fails with a typed
//! [`RefreshError`] (table shrank) or silently diverges. Clones of a
//! database count as different databases once either side mutates.
//!
//! # Serving queries while the log ingests
//!
//! [`Engine::refresh`] takes `&mut Engine`, so a service that refreshes
//! the engine readers are using must serialize readers against every
//! ingest. [`ShardedEngine`] removes that coupling with an epoch-style
//! snapshot handoff: readers [`load`](ShardedEngine::load) an immutable
//! [`EpochVec`] (per shard: database + engine) and evaluate against it for
//! their whole session, while the single writer forks the current engines
//! ([`Engine::fork`]), refreshes the forks privately, and publishes them
//! as the next epoch vector — a pointer swap, never a wait for in-flight
//! queries. See [`sharded`]'s module docs for the writer/reader pattern.
//!
//! # Panic hygiene
//!
//! The engine's caches are guarded by poison-tolerant locks
//! ([`crate::sync::unpoison`]): they hold only memoized, immutable-once-
//! inserted results, so a panicking query can never leave them in a state
//! that is unsafe to read, and recovering the guard is always correct. A
//! long-running auditor therefore survives a panicking query — subsequent
//! queries keep answering (the `catch_unwind` regression tests below and
//! in `tests/engine_equivalence.rs` enforce this).

mod advance;
mod interner;
mod parallel;
mod sharded;
mod stepmap;

pub use advance::AdvanceStats;
pub use interner::{InternedDb, InternedTable, Interner, RefreshDelta, RefreshError, NULL_ID};
pub use parallel::{par_map, par_map_with};
pub use sharded::{
    shard_of, EpochVec, Maintained, ShardEpoch, ShardKey, ShardRefresh, ShardedBatch,
    ShardedEngine, ShardedIngestReport, SuitePin,
};

use crate::chain::{ChainQuery, ChainStep, CmpOp, EvalOptions, Rhs};
use crate::database::{Database, TableId};
use crate::error::Result;
use crate::rowset::RowSet;
use crate::sync::unpoison;
use crate::table::RowId;
use crate::types::ColId;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use stepmap::{Chunks, RowMap, RowMapChunks, StepKey, StepMap};

/// A shared evaluation engine over one database snapshot. See the module
/// docs.
#[derive(Debug)]
pub struct Engine {
    snapshot: InternedDb,
    cache: Mutex<HashMap<StepKey, Arc<StepMap>>>,
    groups: Mutex<HashMap<GroupKey, GroupChunks>>,
    /// `(table, enter_col) → rows` maps, read by the extremum fold of an
    /// anchor-decorated step and by the advance core's backward walk;
    /// filter-free identity, so every decorated query shares them.
    /// Chunked by row range: growth appends a chunk over the new rows.
    rowmaps: Mutex<HashMap<(TableId, ColId), RowMapChunks>>,
}

/// What one [`Engine::refresh`] did: the snapshot delta, how many step
/// maps had to be dropped, and how many chunked caches merely went stale
/// (they extend themselves over just the appended rows on next use —
/// `O(batch)`, not a rebuild).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Which tables grew, how many rows/values were appended.
    pub delta: RefreshDelta,
    /// Step maps dropped because their table grew (rebuilt lazily from a
    /// full scan on next use — their CSR identity is whole-table).
    pub dropped_step_maps: usize,
    /// Log partitions left stale by the append: **kept**, and extended
    /// over only the new rows when next queried.
    pub stale_partitions: usize,
    /// Row maps left stale by the append: **kept**, and extended over
    /// only the new rows when next queried.
    pub stale_row_maps: usize,
}

/// Identity of a log grouping: all queries sharing the anchor shape (same
/// log table, start/close columns and anchor filters) walk the same
/// `(start, close) → rows` partition, so it is computed once per engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    log: TableId,
    start_col: ColId,
    close_col: Option<ColId>,
    anchor_filters: Vec<(ColId, CmpOp, Value)>,
}

impl GroupKey {
    fn of(q: &ChainQuery) -> GroupKey {
        GroupKey {
            log: q.log,
            start_col: q.start_col,
            close_col: q.close_col,
            anchor_filters: q.anchor_filters.clone(),
        }
    }
}

/// One chunk of a log partition: a contiguous row range grouped by
/// `(start id, close id)`, stored flat (a few allocations per chunk, not
/// several per group). Chunks over already-partitioned rows are immutable and
/// `Arc`-shared across engine forks; growth appends a new chunk over just
/// the appended rows ([`GroupChunks`]).
#[derive(Debug)]
struct GroupChunk {
    /// `start → [lo, hi)` into `closes`: the start's close buckets.
    by_start: HashMap<u32, (u32, u32)>,
    /// `(close id, [lo, hi) into rows)` per bucket; for open queries the
    /// close id is [`NULL_ID`] (one bucket per start).
    closes: Vec<(u32, u32, u32)>,
    /// The chunk's rows, ascending within each bucket.
    rows: Vec<RowId>,
}

impl GroupChunk {
    /// The `(close id, rows)` buckets of `start` within this chunk.
    fn buckets(&self, start: u32) -> impl Iterator<Item = (u32, &[RowId])> {
        let (lo, hi) = self.by_start.get(&start).copied().unwrap_or_default();
        self.closes[lo as usize..hi as usize]
            .iter()
            .map(|&(close, a, z)| (close, &self.rows[a as usize..z as usize]))
    }
}

/// The chunked per-anchor-shape log partition.
type GroupChunks = Chunks<GroupChunk>;

/// One template of a fused-suite bucket: its result slot, the warm step
/// maps of its undecorated prefix, and its anchor-decorated step, if any.
struct GroupedTemplate<'q> {
    slot: usize,
    q: &'q ChainQuery,
    /// Step maps of every step before the anchor-decorated one (of every
    /// step when there is none) — the only maps prefix sharing compares.
    maps: Vec<Arc<StepMap>>,
    extremum: Option<ExtremumStep<'q>>,
}

/// The anchor-decorated step `w.col op L.col` of a template and the steps
/// after it, walked as an extremum: min of `col` for `<`/`<=`, max for
/// `>`/`>=`, since some witness passes iff the extremum does.
struct ExtremumStep<'q> {
    step: &'q ChainStep,
    /// The witness column `col`, the operator, and the anchor column.
    col: ColId,
    op: CmpOp,
    anchor_col: ColId,
    /// The step table's row map on its enter column (never a step map:
    /// `StepKey::of` drops the anchor filter from the identity).
    rows: RowMapChunks,
    /// Step maps of the steps after the decorated one.
    tail: Vec<Arc<StepMap>>,
}

impl ExtremumStep<'_> {
    /// Whether extremum `a` beats `b` (NULLs never do: SQL comparison).
    fn better(&self, a: &Value, b: &Value) -> bool {
        match self.op {
            CmpOp::Lt | CmpOp::Le => CmpOp::Lt.eval(a, b),
            _ => CmpOp::Gt.eval(a, b),
        }
    }

    /// Sorts `(value, extremum)` pairs by value and keeps one pair per
    /// value, with the best extremum.
    fn fold_best(&self, pairs: &mut Vec<(u32, Value)>) {
        pairs.sort_unstable_by_key(|&(v, _)| v);
        pairs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same && self.better(&later.1, &kept.1) {
                kept.1 = later.1;
            }
            same
        });
    }
}

/// One anchor-shape bucket of a fused suite: the shared log partition,
/// its distinct starts (gathered once), and every template walking it.
struct GroupedBucket<'q> {
    groups: GroupChunks,
    starts: Vec<u32>,
    templates: Vec<GroupedTemplate<'q>>,
}

/// The anchor rows a fused evaluation answers for: the whole log, a row
/// range `[lo, hi)`, or an ascending row list.
#[derive(Clone, Copy)]
enum Anchors<'a> {
    All,
    Range(usize, usize),
    Rows(&'a [u32]),
}

impl Anchors<'_> {
    /// The anchor rows below `n_rows`, as positions `[lo, hi)` into the
    /// log (`All`, `Range`) or into the row list (`Rows`).
    fn span(self, n_rows: usize) -> (usize, usize) {
        match self {
            Anchors::All => (0, n_rows),
            Anchors::Range(lo, hi) => {
                let hi = hi.min(n_rows);
                (lo.min(hi), hi)
            }
            Anchors::Rows(rows) => (0, rows.partition_point(|&r| (r as usize) < n_rows)),
        }
    }
}

/// Splits `[0, n)` into at most `parts` contiguous near-even ranges
/// (none empty).
fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let hi = lo + base + usize::from(i < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

impl Engine {
    /// Snapshots `db` (one scan of every table) and starts with an empty
    /// step-map cache.
    pub fn new(db: &Database) -> Self {
        Engine {
            snapshot: InternedDb::snapshot(db),
            cache: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            rowmaps: Mutex::new(HashMap::new()),
        }
    }

    /// The interned snapshot (exposed for diagnostics and tests).
    pub fn snapshot(&self) -> &InternedDb {
        &self.snapshot
    }

    /// Number of distinct step maps built so far.
    pub fn cached_step_maps(&self) -> usize {
        unpoison(self.cache.lock()).len()
    }

    /// Number of distinct log partitions built so far.
    pub fn cached_partitions(&self) -> usize {
        unpoison(self.groups.lock()).len()
    }

    /// Number of distinct row maps built so far (what an anchor-decorated
    /// step's extremum fold reads instead of a step map).
    pub fn cached_row_maps(&self) -> usize {
        unpoison(self.rowmaps.lock()).len()
    }

    /// Brings the engine up to date with `db` incrementally: scans only
    /// the rows appended since construction (or the previous refresh) and
    /// drops only the step maps and log partitions over tables that grew.
    /// See the module docs for the invalidation rules.
    ///
    /// `db` must be the database this engine was built from (tables are
    /// append-only, so "the same database, possibly longer"). Refreshing
    /// against a database where a table shrank returns a typed
    /// [`RefreshError`] and leaves the engine untouched — it keeps
    /// answering from its current snapshot — so a long-running service can
    /// log the mismatch and rebuild instead of dying.
    pub fn refresh(&mut self, db: &Database) -> std::result::Result<RefreshStats, RefreshError> {
        let delta = self.snapshot.refresh(db)?;
        if delta.is_empty() {
            return Ok(RefreshStats {
                delta,
                ..RefreshStats::default()
            });
        }
        let grown: std::collections::HashSet<TableId> = delta.grown.iter().copied().collect();
        let cache = unpoison(self.cache.get_mut());
        let maps_before = cache.len();
        cache.retain(|key, _| !grown.contains(&key.table));
        let dropped_step_maps = maps_before - cache.len();
        // Chunked caches are *kept*: a partition or row map over rows that
        // existed before the append is still exact (tables are
        // append-only), so growth only marks them stale — they extend
        // themselves over the new rows on next use, in `O(batch)`.
        let stale_partitions = unpoison(self.groups.get_mut())
            .keys()
            .filter(|key| grown.contains(&key.log))
            .count();
        let stale_row_maps = unpoison(self.rowmaps.get_mut())
            .keys()
            .filter(|(table, _)| grown.contains(table))
            .count();
        Ok(RefreshStats {
            delta,
            dropped_step_maps,
            stale_partitions,
            stale_row_maps,
        })
    }

    /// A private successor of this engine: same snapshot, same warm caches
    /// (the cached maps are immutable and `Arc`-shared, so this is a
    /// columnar memcpy plus cache-map clones — no re-interning, no map
    /// rebuilds).
    ///
    /// This is the writer half of [`ShardedEngine`]'s epoch handoff: the
    /// published engine stays frozen for its readers while the fork is
    /// refreshed against the grown database and published as the next
    /// epoch.
    pub fn fork(&self) -> Engine {
        Engine {
            snapshot: self.snapshot.clone(),
            cache: Mutex::new(unpoison(self.cache.lock()).clone()),
            groups: Mutex::new(unpoison(self.groups.lock()).clone()),
            rowmaps: Mutex::new(unpoison(self.rowmaps.lock()).clone()),
        }
    }

    /// Support of every query (distinct explained log ids), identical to
    /// [`ChainQuery::support`] per query, in input order; invalid queries
    /// report their error in place.
    ///
    /// This is [`Engine::eval_suite`] plus a distinct-lid count over each
    /// answer, and the entry point mining rounds call once per candidate
    /// frontier.
    pub fn support_many(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<usize>> {
        self.eval_suite(db, queries, opts)
            .into_iter()
            .zip(queries)
            .map(|(rows, q)| rows.map(|rows| self.distinct_lids(q, &rows)))
            .collect()
    }

    /// Evaluates **all** templates against each log chunk before moving
    /// on, returning one compressed [`RowSet`] of explained rows per query
    /// (input order; invalid queries report their error in place).
    ///
    /// The suite is grouped first, so each shared scan is paid once, not
    /// once per template: templates are bucketed by anchor shape
    /// ([`GroupKey`]); per bucket, the distinct starts and each start's
    /// close buckets are gathered once, then every template's chain is
    /// walked against them (shared scratch bitset, warm step maps).
    /// An anchor-decorated template walks the same partition: its
    /// decorated step folds the witnesses' extremum over a row map, and
    /// each anchor row of a group is one comparison with it. Parallelism
    /// is over *start ranges*, not templates, so a one-template suite
    /// still uses every core.
    ///
    /// Workers emit per-template [`RowSet`]s that merge associatively,
    /// so the fan-out/fan-in never re-sorts: results are identical to
    /// [`ChainQuery::explained_rows`] per query (the
    /// `rowset_equivalence` suite enforces this differentially).
    pub fn eval_suite(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<RowSet>> {
        self.eval_fused(db, queries, opts, Anchors::All)
    }

    /// [`Engine::eval_suite`] restricted to **anchor rows** `[lo, hi)` of
    /// each query's log table: only log rows in that range can appear in
    /// the answers, while chain steps still walk the *whole* support
    /// tables. This is the delta evaluator behind the maintained
    /// explained/unexplained materializations
    /// ([`ShardedEngine::pin_suite`]): after an append grows the log by
    /// `[lo, hi)`, evaluating just that range answers "which of the new
    /// accesses are explained?" without re-scanning history.
    ///
    /// The range partition is built fresh per call and **not cached** —
    /// it covers an arbitrary slice, not the `[0, covered)` prefix the
    /// chunked cache extends — so reserve this for genuine deltas. Per
    /// query, the result equals the `eval_suite` answer intersected with
    /// `[lo, hi)` (the stream-equivalence suite enforces this
    /// differentially), because a log row is anchored independently of
    /// every other log row.
    pub fn eval_suite_range(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        lo: usize,
        hi: usize,
    ) -> Vec<Result<RowSet>> {
        self.eval_fused(db, queries, opts, Anchors::Range(lo, hi))
    }

    /// [`Engine::eval_suite`] restricted to an explicit **anchor row
    /// set**: only rows in `rows` can appear in the answers, while chain
    /// steps still walk the whole support tables. This is the
    /// *scattered-rows* delta evaluator behind the maintained partition:
    /// when a support table grows, a template stepping into it can
    /// newly explain old anchor rows — but explanation is monotone under
    /// append-only growth, so only *previously unexplained* rows need
    /// re-asking, and of those only the ones an appended row can reach
    /// (the advance core's candidate set, a scattered handful of
    /// the log). Per query, the result
    /// equals the `eval_suite` answer intersected with `rows` (the
    /// stream-equivalence suite enforces this differentially).
    ///
    /// Like [`Engine::eval_suite_range`], the partition over `rows` is
    /// built fresh (one grouped chunk straight from the row list, so a
    /// scattered set costs `O(rows)`) and not cached — reserve this for
    /// genuine deltas.
    pub fn eval_suite_rows(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        rows: &RowSet,
    ) -> Vec<Result<RowSet>> {
        self.eval_fused(db, queries, opts, Anchors::Rows(&rows.to_vec()))
    }

    /// The one evaluation driver behind [`Engine::eval_suite`],
    /// [`Engine::eval_suite_range`] and [`Engine::eval_suite_rows`]:
    /// validate in place, build the suite's missing step maps, bucket the
    /// templates, and walk every bucket in parallel slices. `anchors`
    /// decides only which partition a bucket walks ([`Engine::partition`]).
    fn eval_fused(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        anchors: Anchors,
    ) -> Vec<Result<RowSet>> {
        let mut results: Vec<Option<Result<RowSet>>> = queries
            .iter()
            .map(|q| q.validate(db).err().map(Err))
            .collect();
        let valid: Vec<(usize, &ChainQuery)> = results
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none())
            .map(|(i, _)| (i, &queries[i]))
            .collect();
        self.build_missing_maps(valid.iter().map(|(_, q)| *q), opts);

        // Bucket templates by anchor shape; each bucket owns the shared
        // partition and its distinct starts, gathered once.
        let mut grouped: Vec<GroupedBucket> = Vec::new();
        let mut bucket_ix: HashMap<GroupKey, usize> = HashMap::new();
        for &(slot, q) in &valid {
            let key = GroupKey::of(q);
            let ix = match bucket_ix.get(&key) {
                Some(&ix) => ix,
                None => {
                    let (groups, starts) = self.partition(q, &key, anchors);
                    grouped.push(GroupedBucket {
                        groups,
                        starts,
                        templates: Vec::new(),
                    });
                    bucket_ix.insert(key, grouped.len() - 1);
                    grouped.len() - 1
                }
            };
            grouped[ix]
                .templates
                .push(self.grouped_template(slot, q, opts));
        }

        // Templates holding pointer-equal map prefixes walk as one: sort
        // each bucket by map identity so shared prefixes are adjacent
        // (slice results carry their slot, so output order is free).
        for bucket in &mut grouped {
            bucket.templates.sort_by(|a, b| {
                let ptrs = |t: &GroupedTemplate| -> Vec<usize> {
                    t.maps.iter().map(|m| Arc::as_ptr(m) as usize).collect()
                };
                ptrs(a).cmp(&ptrs(b))
            });
        }

        // One work item per (bucket, start-range slice): parallelism is
        // over the data, so even a single-template suite fans out.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut work: Vec<(usize, usize, usize)> = Vec::new();
        for (b, bucket) in grouped.iter().enumerate() {
            for (lo, hi) in split_ranges(bucket.starts.len(), threads) {
                work.push((b, lo, hi));
            }
        }
        let outputs = par_map(&work, |&(bucket, lo, hi)| {
            self.eval_grouped_slice(&grouped[bucket], lo, hi)
        });

        // Fan-in: a query's first slice result is moved in and later ones
        // are unioned into it — the union is associative, so slice order
        // is free. A valid query without work items (its bucket has no
        // anchor rows) answers the empty set.
        for slice in outputs {
            for (slot, set) in slice {
                match &mut results[slot] {
                    Some(Ok(acc)) => acc.union_with(&set),
                    unset => *unset = Some(Ok(set)),
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Ok(RowSet::new())))
            .collect()
    }

    /// The log partition a grouped bucket walks, and its distinct starts.
    /// Over [`Anchors::All`] it is the cached, chunked partition
    /// ([`Engine::groups_for`]), whose starts can recur across chunks;
    /// over a range or a row list it is one fresh, uncached chunk over
    /// just those anchors, whose `by_start` keys are already distinct.
    fn partition(
        &self,
        q: &ChainQuery,
        key: &GroupKey,
        anchors: Anchors,
    ) -> (GroupChunks, Vec<u32>) {
        let log = self.snapshot.table(key.log);
        let start_col = &log.cols[key.start_col];
        let (lo, hi) = anchors.span(log.n_rows);
        let chunk = match anchors {
            Anchors::All => {
                let groups = self.groups_for(q);
                let mut starts: Vec<u32> = Vec::new();
                with_scratch_marks(self.snapshot.interner.len(), |marks| {
                    for chunk in &groups.chunks {
                        for &start in chunk.by_start.keys() {
                            if marks.insert(start) {
                                starts.push(start);
                            }
                        }
                    }
                    marks.remove_all(&starts);
                });
                return (groups, starts);
            }
            Anchors::Range(..) => self.build_group_chunk(key, start_col.iter_range(lo, hi)),
            Anchors::Rows(rows) => self.build_group_chunk(
                key,
                rows[lo..hi]
                    .iter()
                    .map(|&r| (r as usize, &start_col[r as usize])),
            ),
        };
        let starts: Vec<u32> = chunk.by_start.keys().copied().collect();
        (Chunks::one(chunk, log.n_rows), starts)
    }

    /// Walks every template of one grouped bucket over the starts in
    /// `[lo, hi)`. Two redundancies the per-query path pays N times are
    /// paid at most once per start here:
    ///
    /// * **close buckets** are gathered across chunks lazily, on the
    ///   first template whose walk survives — a start every template
    ///   dies on costs no bucket lookups at all;
    /// * **shared chain prefixes** are walked once. Step maps are
    ///   cache-shared `Arc`s, so templates whose chains begin with the
    ///   same steps hold pointer-equal maps; the bucket's templates are
    ///   pre-sorted to make such prefixes adjacent, and a per-depth
    ///   frontier stack lets each template resume from the deepest
    ///   frontier its predecessor already computed.
    ///
    /// Hits accumulate in a plain vector per template (a log row belongs
    /// to exactly one start group, so no deduplication is needed) and
    /// compress to a [`RowSet`] in one sort at the end — per-row set
    /// inserts would pay a container search each, the sort pays once.
    fn eval_grouped_slice(
        &self,
        bucket: &GroupedBucket,
        lo: usize,
        hi: usize,
    ) -> Vec<(usize, RowSet)> {
        let mut hits: Vec<Vec<RowId>> = vec![Vec::new(); bucket.templates.len()];
        with_scratch_marks(self.snapshot.interner.len(), |marks| {
            // frontiers[d] = the frontier after step d of the chain most
            // recently walked from the current start (valid to `computed`).
            let mut frontiers: Vec<Vec<u32>> = Vec::new();
            let mut close_rows: Vec<(u32, &[RowId])> = Vec::new();
            // An extremum walk's `(value, extremum)` frontier and spare.
            let (mut best, mut spare) = (Vec::new(), Vec::new());
            for &start in &bucket.starts[lo..hi] {
                let mut gathered = false;
                let mut computed = 0usize;
                let mut prev_maps: &[Arc<StepMap>] = &[];
                for (t, tmpl) in bucket.templates.iter().enumerate() {
                    let mut depth = 0;
                    while depth < computed
                        && depth < tmpl.maps.len()
                        && Arc::ptr_eq(&tmpl.maps[depth], &prev_maps[depth])
                    {
                        depth += 1;
                    }
                    prev_maps = &tmpl.maps;
                    let mut dead = depth > 0 && frontiers[depth - 1].is_empty();
                    while !dead && depth < tmpl.maps.len() {
                        if frontiers.len() == depth {
                            frontiers.push(Vec::new());
                        }
                        let (done, rest) = frontiers.split_at_mut(depth);
                        let next = &mut rest[0];
                        next.clear();
                        let from: &[u32] = match depth {
                            0 => std::slice::from_ref(&start),
                            d => &done[d - 1],
                        };
                        for &v in from {
                            for &exit in tmpl.maps[depth].exits_of(v) {
                                if marks.insert(exit) {
                                    next.push(exit);
                                }
                            }
                        }
                        marks.remove_all(next);
                        dead = next.is_empty();
                        depth += 1;
                    }
                    computed = depth;
                    if dead {
                        continue;
                    }
                    let frontier: &[u32] = match tmpl.maps.len() {
                        0 => std::slice::from_ref(&start),
                        d => &frontiers[d - 1],
                    };
                    if let Some(ext) = &tmpl.extremum {
                        self.walk_extremum(ext, frontier, &mut best, &mut spare);
                        if tmpl.q.close_col.is_none() {
                            // An open template's buckets all close on
                            // NULL_ID: fold the whole frontier into one.
                            best.iter_mut().for_each(|p| p.0 = NULL_ID);
                            ext.fold_best(&mut best);
                        }
                        if best.is_empty() {
                            continue;
                        }
                    }
                    if !gathered {
                        gathered = true;
                        close_rows.clear();
                        for chunk in &bucket.groups.chunks {
                            close_rows.extend(chunk.buckets(start));
                        }
                    }
                    match (&tmpl.extremum, tmpl.q.close_col) {
                        (Some(ext), _) => {
                            self.extremum_hits(ext, tmpl.q.log, &best, &close_rows, &mut hits[t])
                        }
                        (None, None) => {
                            for &(_, rows) in &close_rows {
                                hits[t].extend_from_slice(rows);
                            }
                        }
                        (None, Some(_)) => {
                            for &v in frontier {
                                marks.insert(v);
                            }
                            for &(close, rows) in &close_rows {
                                if marks.contains(close) {
                                    hits[t].extend_from_slice(rows);
                                }
                            }
                            marks.remove_all(frontier);
                        }
                    }
                }
            }
        });
        bucket
            .templates
            .iter()
            .zip(hits)
            .map(|(tmpl, mut rows)| {
                rows.sort_unstable();
                (tmpl.slot, RowSet::from_sorted_vec(&rows))
            })
            .collect()
    }

    /// Walks `ext` from the prefix frontier `from`. The decorated step
    /// reads its row map and folds, per exit value, the extremum of the
    /// witness column over the rows passing the step's `Const` filters
    /// (NULL witnesses never count); each later step carries the best
    /// extremum over all paths into its exits. Leaves `best` holding
    /// `(value, extremum)` pairs, ascending by value.
    fn walk_extremum(
        &self,
        ext: &ExtremumStep,
        from: &[u32],
        best: &mut Vec<(u32, Value)>,
        next: &mut Vec<(u32, Value)>,
    ) {
        let interner = &self.snapshot.interner;
        let table = self.snapshot.table(ext.step.table);
        best.clear();
        for &v in from {
            'rows: for row in ext.rows.rows_of(v) {
                let row = row as usize;
                let (w, exit) = (table.cols[ext.col][row], table.cols[ext.step.exit_col][row]);
                if w == NULL_ID || exit == NULL_ID {
                    continue;
                }
                for f in &ext.step.filters {
                    if let Rhs::Const(c) = f.rhs {
                        if !f.op.eval(&interner.value(table.cols[f.col][row]), &c) {
                            continue 'rows;
                        }
                    }
                }
                best.push((exit, interner.value(w)));
            }
        }
        ext.fold_best(best);
        for map in &ext.tail {
            next.clear();
            for &(v, e) in best.iter() {
                next.extend(map.exits_of(v).iter().map(|&exit| (exit, e)));
            }
            ext.fold_best(next);
            std::mem::swap(best, next);
        }
    }

    /// The rows of one start's close buckets that an extremum walk's
    /// `best` explains: one comparison per row, `op(extremum, L.col)`,
    /// with the extremum of the bucket's close value.
    fn extremum_hits(
        &self,
        ext: &ExtremumStep,
        log: TableId,
        best: &[(u32, Value)],
        close_rows: &[(u32, &[RowId])],
        hits: &mut Vec<RowId>,
    ) {
        let interner = &self.snapshot.interner;
        let anchor = &self.snapshot.table(log).cols[ext.anchor_col];
        for &(close, rows) in close_rows {
            if let Ok(i) = best.binary_search_by_key(&close, |&(v, _)| v) {
                let e = best[i].1;
                hits.extend(
                    rows.iter()
                        .filter(|&&r| ext.op.eval(&e, &interner.value(anchor[r as usize]))),
                );
            }
        }
    }

    // ----------------------------------------------------------- step maps

    /// Builds (in parallel) every step map the batch needs that is not in
    /// the cache yet.
    fn build_missing_maps<'q>(
        &self,
        queries: impl Iterator<Item = &'q ChainQuery>,
        opts: EvalOptions,
    ) {
        let mut missing: Vec<StepKey> = Vec::new();
        {
            let cache = unpoison(self.cache.lock());
            let mut seen = std::collections::HashSet::new();
            for q in queries {
                // The decorated step never has a step map.
                for step in q.steps.iter().filter(|s| !s.has_anchor_filter()) {
                    let key = StepKey::of(step, opts.dedup);
                    if !cache.contains_key(&key) && seen.insert(key.clone()) {
                        missing.push(key);
                    }
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let built = par_map(&missing, |key| StepMap::build(key, &self.snapshot));
        let mut cache = unpoison(self.cache.lock());
        for (key, map) in missing.into_iter().zip(built) {
            cache.entry(key).or_insert_with(|| Arc::new(map));
        }
    }

    /// `q` as a template of a grouped bucket: the step maps of its
    /// undecorated prefix and, if a step carries the anchor decoration,
    /// that step's row map and the step maps of the steps after it.
    /// `validate` admits at most one anchor decoration, never `=`.
    fn grouped_template<'q>(
        &self,
        slot: usize,
        q: &'q ChainQuery,
        opts: EvalOptions,
    ) -> GroupedTemplate<'q> {
        let Some(d) = q.steps.iter().position(ChainStep::has_anchor_filter) else {
            return GroupedTemplate {
                slot,
                q,
                maps: self.maps_for(&q.steps, opts),
                extremum: None,
            };
        };
        let step = &q.steps[d];
        let (col, op, anchor_col) = step
            .filters
            .iter()
            .find_map(|f| match f.rhs {
                Rhs::AnchorCol(a) => Some((f.col, f.op, a)),
                Rhs::Const(_) => None,
            })
            .expect("the decorated step has an anchor filter");
        GroupedTemplate {
            slot,
            q,
            maps: self.maps_for(&q.steps[..d], opts),
            extremum: Some(ExtremumStep {
                step,
                col,
                op,
                anchor_col,
                rows: self.rowmap_for(step.table, step.enter_col),
                tail: self.maps_for(&q.steps[d + 1..], opts),
            }),
        }
    }

    /// The step maps of `steps`, building any that are missing.
    fn maps_for(&self, steps: &[ChainStep], opts: EvalOptions) -> Vec<Arc<StepMap>> {
        steps
            .iter()
            .map(|step| {
                let key = StepKey::of(step, opts.dedup);
                if let Some(map) = unpoison(self.cache.lock()).get(&key) {
                    return map.clone();
                }
                let built = Arc::new(StepMap::build(&key, &self.snapshot));
                unpoison(self.cache.lock())
                    .entry(key)
                    .or_insert(built)
                    .clone()
            })
            .collect()
    }

    /// The row map of `table` on `col`, building or **extending** it when
    /// missing or stale: a stale entry gains one chunk over just the
    /// appended rows.
    fn rowmap_for(&self, table: TableId, col: ColId) -> RowMapChunks {
        let key = (table, col);
        let it = self.snapshot.table(table);
        let n_rows = it.n_rows;
        let mut state = match unpoison(self.rowmaps.lock()).get(&key) {
            Some(state) if state.covered() == n_rows => return state.clone(),
            Some(state) => state.clone(),
            None => RowMapChunks::default(),
        };
        // Extend outside the lock: scan only the uncovered suffix (plus
        // whatever recent chunks the size-tiered merge absorbs).
        state.extend_to(n_rows, |from, to| RowMap::build_range(it, col, from, to));
        let mut cache = unpoison(self.rowmaps.lock());
        // A concurrent extender that got at least as far wins.
        match cache.get(&key) {
            Some(existing) if existing.covered() >= n_rows => existing.clone(),
            _ => {
                cache.insert(key, state.clone());
                state
            }
        }
    }

    // ----------------------------------------------------------- evaluation

    #[inline]
    fn anchor_passes_filters(
        &self,
        filters: &[(ColId, CmpOp, Value)],
        log: &InternedTable,
        r: usize,
    ) -> bool {
        filters.iter().all(|(col, op, v)| {
            let lhs = self.snapshot.interner.value(log.cols[*col][r]);
            op.eval(&lhs, v)
        })
    }

    /// Builds one partition chunk over `rows` of the key's log: ascending
    /// `(row, start id)` pairs — a contiguous range read chunk-wise off
    /// the start column (no per-element segment resolution), or an
    /// explicit row list. Close/filter columns are probed per surviving
    /// row.
    fn build_group_chunk<'a>(
        &self,
        key: &GroupKey,
        rows: impl Iterator<Item = (usize, &'a u32)>,
    ) -> GroupChunk {
        let log = self.snapshot.table(key.log);
        // (start id, close id or NULL_ID for open queries, row), grouped
        // by one sort, which also keeps each bucket's rows ascending.
        let mut keyed: Vec<(u32, u32, RowId)> = Vec::new();
        for (r, &start) in rows {
            if start == NULL_ID || !self.anchor_passes_filters(&key.anchor_filters, log, r) {
                continue;
            }
            let close = match key.close_col {
                Some(c) => match log.cols[c][r] {
                    NULL_ID => continue,
                    v => v,
                },
                None => NULL_ID,
            };
            keyed.push((start, close, r as RowId));
        }
        keyed.sort_unstable();
        let mut chunk = GroupChunk {
            by_start: HashMap::new(),
            closes: Vec::new(),
            rows: Vec::with_capacity(keyed.len()),
        };
        for run in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (start, close, _) = run[0];
            let lo = chunk.rows.len() as u32;
            chunk.rows.extend(run.iter().map(|&(_, _, r)| r));
            let b = chunk.closes.len() as u32;
            chunk.closes.push((close, lo, chunk.rows.len() as u32));
            chunk.by_start.entry(start).or_insert((b, b)).1 = b + 1;
        }
        chunk
    }

    /// The `(start, close) → rows` partition of a query's anchor shape,
    /// computed once per engine and shared by every query with the same
    /// shape (one scan of the log instead of one per candidate). When the
    /// log has grown since the partition was built, it is **extended** by
    /// a chunk over just the new rows — `O(batch)`, with the old chunks
    /// still shared across forks.
    fn groups_for(&self, q: &ChainQuery) -> GroupChunks {
        let key = GroupKey::of(q);
        let n_rows = self.snapshot.table(q.log).n_rows;
        let mut state = match unpoison(self.groups.lock()).get(&key) {
            Some(state) if state.covered() == n_rows => return state.clone(),
            Some(state) => state.clone(),
            None => GroupChunks::default(),
        };
        let start_col = &self.snapshot.table(key.log).cols[key.start_col];
        state.extend_to(n_rows, |from, to| {
            self.build_group_chunk(&key, start_col.iter_range(from, to))
        });
        let mut cache = unpoison(self.groups.lock());
        // See `rowmap_for`: a concurrent extender that got as far wins.
        match cache.get(&key) {
            Some(existing) if existing.covered() >= n_rows => existing.clone(),
            _ => {
                cache.insert(key, state.clone());
                state
            }
        }
    }

    /// Distinct log-id count over a set of explained rows (interning is
    /// exact, so distinct ids are exactly distinct values).
    fn distinct_lids(&self, q: &ChainQuery, rows: &RowSet) -> usize {
        let lid_col = &self.snapshot.table(q.log).cols[q.lid_col];
        let mut lids = std::collections::HashSet::with_capacity(rows.len());
        for r in rows.iter() {
            lids.insert(lid_col[r as usize]);
        }
        lids.len()
    }
}

std::thread_local! {
    /// Per-thread scratch bitset for chain walks. Every evaluation leaves
    /// it fully cleared (incremental `remove_all`), so reusing it across
    /// queries avoids re-zeroing `O(id-space)` words per candidate.
    static SCRATCH_MARKS: std::cell::RefCell<BitMarks> =
        const { std::cell::RefCell::new(BitMarks { words: Vec::new() }) };
}

/// Runs `f` with the thread's scratch bitset, grown to cover `n_ids`.
///
/// If `f` panics mid-walk the bitset is torn (bits left set), which would
/// silently corrupt the *next* query on this thread once the panic is
/// caught (a long-running service catches panics per request). The guard
/// re-zeroes the whole bitset on unwind — the `O(id-space)` cost is paid
/// only on the panic path.
fn with_scratch_marks<R>(n_ids: usize, f: impl FnOnce(&mut BitMarks) -> R) -> R {
    SCRATCH_MARKS.with(|cell| {
        let mut marks = cell.borrow_mut();
        marks.reserve_ids(n_ids);
        struct ClearOnUnwind<'a>(&'a mut BitMarks);
        impl Drop for ClearOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.words.fill(0);
                }
            }
        }
        let guard = ClearOnUnwind(&mut marks);
        f(guard.0)
    })
}

/// A reusable bitset over the dense id space, cleared incrementally so a
/// long mining run never pays `O(id-space)` per frontier step (nor, via
/// [`SCRATCH_MARKS`], an `O(id-space)` re-zeroing per candidate query).
struct BitMarks {
    words: Vec<u64>,
}

impl BitMarks {
    /// Grows (zero-filled) to cover `n_ids`; never shrinks.
    fn reserve_ids(&mut self, n_ids: usize) {
        let need = n_ids.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Sets the bit; returns true when it was previously clear.
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let bit = 1u64 << b;
        let was_clear = self.words[w] & bit == 0;
        self.words[w] |= bit;
        was_clear
    }

    #[inline]
    fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// Clears exactly the given ids.
    #[inline]
    fn remove_all(&mut self, ids: &[u32]) {
        for &id in ids {
            let (w, b) = (id as usize / 64, id as usize % 64);
            self.words[w] &= !(1u64 << b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainStep, CmpOp, Rhs, StepFilter};
    use crate::database::TableId;
    use crate::types::DataType;
    use crate::value::Value;

    /// Figure 3's database (same shape as the chain evaluator's tests).
    fn figure3_db() -> (Database, TableId, TableId, TableId) {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("Date", DataType::Date),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let appt = db
            .create_table(
                "Appointments",
                &[
                    ("Patient", DataType::Int),
                    ("Date", DataType::Date),
                    ("Doctor", DataType::Int),
                ],
            )
            .unwrap();
        let info = db
            .create_table(
                "Doctor_Info",
                &[("Doctor", DataType::Int), ("Department", DataType::Str)],
            )
            .unwrap();
        let ped = db.str_value("Pediatrics");
        db.insert(appt, vec![Value::Int(10), Value::Date(1), Value::Int(1)])
            .unwrap();
        db.insert(appt, vec![Value::Int(11), Value::Date(2), Value::Int(2)])
            .unwrap();
        db.insert(info, vec![Value::Int(2), ped]).unwrap();
        db.insert(info, vec![Value::Int(1), ped]).unwrap();
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(1), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(2), Value::Int(1), Value::Int(11)],
        )
        .unwrap();
        (db, log, appt, info)
    }

    /// One query's explained rows through the fused driver, in the cold
    /// evaluator's sorted form.
    pub(super) fn rows_of(
        engine: &Engine,
        db: &Database,
        q: &ChainQuery,
        opts: EvalOptions,
    ) -> Result<Vec<RowId>> {
        engine
            .eval_suite(db, std::slice::from_ref(q), opts)
            .remove(0)
            .map(|rows| rows.to_vec())
    }

    /// One query's support through [`Engine::support_many`].
    fn support_of(
        engine: &Engine,
        db: &Database,
        q: &ChainQuery,
        opts: EvalOptions,
    ) -> Result<usize> {
        engine
            .support_many(db, std::slice::from_ref(q), opts)
            .remove(0)
    }

    fn template_a(log: TableId, appt: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(appt, 0, 2)],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    fn template_b(log: TableId, appt: TableId, info: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![
                ChainStep::new(appt, 0, 2),
                ChainStep::new(info, 0, 1),
                ChainStep::new(info, 1, 0),
            ],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    #[test]
    fn matches_row_evaluator_on_figure3() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        for q in [template_a(log, appt), template_b(log, appt, info)] {
            assert_eq!(
                rows_of(&engine, &db, &q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
            assert_eq!(
                support_of(&engine, &db, &q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }
    }

    #[test]
    fn eval_suite_range_partitions_by_anchor_row() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let mut decorated = template_a(log, appt);
        decorated.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            decorated,
        ];
        let full: Vec<RowSet> = engine
            .eval_suite(&db, &queries, opts)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let n = db.table(log).len();
        // The whole range is the whole answer...
        let whole: Vec<RowSet> = engine
            .eval_suite_range(&db, &queries, opts, 0, n)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(whole, full);
        // ...and any split's union reassembles it, because each anchor
        // row is evaluated independently of every other log row. An
        // out-of-bounds hi is clamped, never a panic.
        for k in 0..=n {
            let head = engine.eval_suite_range(&db, &queries, opts, 0, k);
            let tail = engine.eval_suite_range(&db, &queries, opts, k, n + 7);
            for ((h, t), f) in head.into_iter().zip(tail).zip(&full) {
                let mut acc = h.unwrap();
                acc.union_with(&t.unwrap());
                assert_eq!(&acc, f);
            }
        }
    }

    #[test]
    fn open_and_filtered_queries_match() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let open = ChainQuery {
            close_col: None,
            ..template_a(log, appt)
        };
        assert_eq!(
            rows_of(&engine, &db, &open, opts).unwrap(),
            open.explained_rows(&db, opts).unwrap()
        );
        let mut filtered = template_a(log, appt);
        filtered.anchor_filters = vec![(1, CmpOp::Ge, Value::Date(2))];
        assert_eq!(
            rows_of(&engine, &db, &filtered, opts).unwrap(),
            filtered.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn anchor_dependent_queries_take_the_row_map_path() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let mut q = template_a(log, appt);
        q.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        assert!(q.is_anchor_dependent());
        let opts = EvalOptions::default();
        assert_eq!(
            rows_of(&engine, &db, &q, opts).unwrap(),
            q.explained_rows(&db, opts).unwrap()
        );
        assert_eq!(
            support_of(&engine, &db, &q, opts).unwrap(),
            q.support(&db, opts).unwrap()
        );
        // The decorated step folds its extremum over the row-map cache,
        // never a step map (its identity would drop the decoration).
        assert_eq!(engine.cached_step_maps(), 0);
        assert_eq!(engine.cached_row_maps(), 1);
        // The undecorated variant shares nothing with it.
        let plain = template_a(log, appt);
        let _ = rows_of(&engine, &db, &plain, opts).unwrap();
        assert_eq!(engine.cached_step_maps(), 1);
        assert_eq!(engine.cached_row_maps(), 1);
    }

    #[test]
    fn step_maps_are_shared_across_queries() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            ChainQuery {
                close_col: None,
                ..template_a(log, appt)
            },
        ];
        let supports = engine.support_many(&db, &queries, opts);
        // A and B share the Appointments step: 1 + 2 extra for B, 0 new for
        // the open variant = 3 distinct maps.
        assert_eq!(engine.cached_step_maps(), 3);
        let expect: Vec<usize> = queries
            .iter()
            .map(|q| q.support(&db, opts).unwrap())
            .collect();
        let got: Vec<usize> = supports.into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn support_many_reports_invalid_queries_in_place() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let good = template_a(log, appt);
        let bad = ChainQuery {
            start_col: 9,
            ..template_a(log, appt)
        };
        let results = engine.support_many(&db, &[bad, good.clone()], EvalOptions::default());
        assert!(results[0].is_err());
        assert_eq!(*results[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn eval_suite_matches_one_by_one() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            ChainQuery {
                close_col: None,
                ..template_a(log, appt)
            },
            ChainQuery {
                start_col: 9, // invalid
                ..template_a(log, appt)
            },
        ];
        let batch = engine.eval_suite(&db, &queries, opts);
        for (q, got) in queries.iter().take(3).zip(&batch) {
            assert_eq!(
                got.as_ref().unwrap().to_vec(),
                q.explained_rows(&db, opts).unwrap()
            );
        }
        assert!(batch[3].is_err());
    }

    #[test]
    fn refresh_tracks_appends_and_invalidates_selectively() {
        let (mut db, log, appt, info) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let qa = template_a(log, appt);
        let qb = template_b(log, appt, info);
        // Warm the caches: A and B share the Appointments map; B adds two
        // Doctor_Info maps. One log partition (shared anchor shape).
        let _ = engine.support_many(&db, &[qa.clone(), qb.clone()], opts);
        assert_eq!(engine.cached_step_maps(), 3);
        assert_eq!(engine.cached_partitions(), 1);

        // Append an appointment: patient 11 now also sees doctor 1.
        db.insert(appt, vec![Value::Int(11), Value::Date(3), Value::Int(1)])
            .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![appt]);
        assert_eq!(stats.delta.new_rows, 1);
        // Only the Appointments map is dropped; Doctor_Info maps and the
        // log partition stay warm.
        assert_eq!(stats.dropped_step_maps, 1);
        assert_eq!(stats.stale_partitions, 0);
        assert_eq!(engine.cached_step_maps(), 2);
        assert_eq!(engine.cached_partitions(), 1);
        for q in [&qa, &qb] {
            assert_eq!(
                rows_of(&engine, &db, q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
        }

        // Append a log row: the partition goes stale (kept, extended
        // over just the new row on next use); the step maps stay.
        db.insert(
            log,
            vec![Value::Int(3), Value::Date(3), Value::Int(2), Value::Int(10)],
        )
        .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![log]);
        assert_eq!(stats.stale_partitions, 1);
        assert_eq!(stats.dropped_step_maps, 0);
        assert_eq!(
            engine.cached_partitions(),
            1,
            "the stale partition is kept, not dropped"
        );
        for q in [&qa, &qb] {
            assert_eq!(
                rows_of(&engine, &db, q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
            assert_eq!(
                support_of(&engine, &db, q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }

        // Nothing appended: a refresh is a cheap no-op.
        let stats = engine.refresh(&db).unwrap();
        assert!(stats.delta.is_empty());
        assert_eq!(engine.cached_step_maps(), 3);
    }

    #[test]
    fn refresh_picks_up_tables_created_after_construction() {
        let (mut db, log, appt, _) = figure3_db();
        let mut engine = Engine::new(&db);
        let extra = db
            .create_table(
                "Extra",
                &[("Patient", DataType::Int), ("Owner", DataType::Int)],
            )
            .unwrap();
        db.insert(extra, vec![Value::Int(11), Value::Int(1)])
            .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![extra]);
        let q = ChainQuery {
            steps: vec![ChainStep::new(extra, 0, 1)],
            ..template_a(log, appt)
        };
        assert_eq!(
            rows_of(&engine, &db, &q, EvalOptions::default()).unwrap(),
            q.explained_rows(&db, EvalOptions::default()).unwrap()
        );
    }

    #[test]
    fn stale_step_maps_tolerate_ids_interned_after_refresh() {
        let (mut db, log, appt, info) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let qb = template_b(log, appt, info);
        let _ = rows_of(&engine, &db, &qb, opts).unwrap();
        // Appending a log row with brand-new values grows the id space;
        // the retained Appointments/Doctor_Info maps must treat those new
        // ids as "no exits" rather than indexing out of bounds.
        db.insert(
            log,
            vec![
                Value::Int(99),
                Value::Date(9),
                Value::Int(77),
                Value::Int(88),
            ],
        )
        .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.dropped_step_maps, 0);
        assert_eq!(
            rows_of(&engine, &db, &qb, opts).unwrap(),
            qb.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn poisoned_cache_locks_do_not_kill_subsequent_queries() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_b(log, appt, info);
        let expected = q.explained_rows(&db, opts).unwrap();
        // Poison every internal cache lock the way a panicking query
        // would: panic on another thread while holding the guard.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _cache = engine.cache.lock().unwrap();
                    let _groups = engine.groups.lock().unwrap();
                    let _rowmaps = engine.rowmaps.lock().unwrap();
                    panic!("simulated mid-query panic");
                })
                .join()
                .unwrap_err();
        });
        assert!(engine.cache.lock().is_err(), "cache lock is poisoned");
        // The engine recovers the guards and keeps answering correctly,
        // including cache misses (inserts into the poisoned maps).
        assert_eq!(rows_of(&engine, &db, &q, opts).unwrap(), expected);
        assert_eq!(
            support_of(&engine, &db, &q, opts).unwrap(),
            q.support(&db, opts).unwrap()
        );
        let mut decorated = template_a(log, appt);
        decorated.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        assert_eq!(
            rows_of(&engine, &db, &decorated, opts).unwrap(),
            decorated.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn panicking_evaluation_leaves_the_engine_usable() {
        // An engine snapshotted before a table existed: evaluating a query
        // over the new table against the *stale* snapshot panics (the
        // misuse the docs warn about). The panic must not corrupt the
        // engine for well-formed queries that follow.
        let (mut db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_a(log, appt);
        let expected = q.explained_rows(&db, opts).unwrap();
        let extra = db
            .create_table(
                "Extra",
                &[("Patient", DataType::Int), ("Owner", DataType::Int)],
            )
            .unwrap();
        db.insert(extra, vec![Value::Int(10), Value::Int(1)])
            .unwrap();
        let stale = ChainQuery {
            steps: vec![ChainStep::new(extra, 0, 1)],
            ..template_a(log, appt)
        };
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rows_of(&engine, &db, &stale, opts)
            }));
            assert!(caught.is_err(), "stale-snapshot evaluation panics");
            // Same thread, same scratch state: results stay exact.
            assert_eq!(rows_of(&engine, &db, &q, opts).unwrap(), expected);
            assert_eq!(
                support_of(&engine, &db, &q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }
        // The batch path recovers too (the panic crosses par_map).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.support_many(&db, std::slice::from_ref(&stale), opts)
        }));
        assert!(caught.is_err());
        let batch = engine.support_many(&db, std::slice::from_ref(&q), opts);
        assert_eq!(*batch[0].as_ref().unwrap(), q.support(&db, opts).unwrap());
    }

    #[test]
    fn refresh_error_leaves_the_engine_answering() {
        let (db, log, appt, _) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_a(log, appt);
        let expected = rows_of(&engine, &db, &q, opts).unwrap();
        // Refreshing against an unrelated, shorter database is refused...
        let (other, ..) = {
            let mut other = Database::new();
            let l = other
                .create_table("OnlyLog", &[("Lid", DataType::Int)])
                .unwrap();
            (other, l)
        };
        let err = engine.refresh(&other).unwrap_err();
        assert!(matches!(err, RefreshError::CatalogShrank { .. }));
        // ...and the engine still answers from its intact snapshot.
        assert_eq!(rows_of(&engine, &db, &q, opts).unwrap(), expected);
    }

    /// ⌈log2 n⌉ + 1: the chunk-count bound after `n` extensions.
    fn chunk_bound(n: usize) -> usize {
        n.next_power_of_two().trailing_zeros() as usize + 1
    }

    #[test]
    fn tiered_merging_never_rebuilds_the_base_before_the_tail_is_half_of_it() {
        // The merge policy alone, with chunks that just record their range.
        let mut chunks: Chunks<(usize, usize)> = Chunks::default();
        chunks.extend_to(1000, |from, to| (from, to));
        assert_eq!(chunks.chunks.len(), 1);
        let mut base_rebuilt_at = None;
        for n in 1001..=2000 {
            let mut built = None;
            chunks.extend_to(n, |from, to| {
                built = Some((from, to));
                (from, to)
            });
            let (from, to) = built.expect("one build per extension");
            assert_eq!(to, n);
            if from == 0 && base_rebuilt_at.is_none() {
                base_rebuilt_at = Some(n);
            }
            // The chunks tile `[0, n)` in row order.
            let mut at = 0;
            for c in &chunks.chunks {
                assert_eq!(c.0, at);
                at = c.1;
            }
            assert_eq!((at, chunks.covered()), (n, n));
            assert!(chunks.chunks.len() <= 1 + chunk_bound(n - 1000), "n = {n}");
        }
        // `[0, 1000)` is rebuilt only once the tail has grown to half of
        // it — and before the tail outgrows it.
        assert!(
            base_rebuilt_at.is_some_and(|n| n >= 1500),
            "{base_rebuilt_at:?}"
        );
    }

    #[test]
    fn merged_chunks_answer_like_a_cold_build() {
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
        // "Someone else opened [L.Patient]'s record before": grouped...
        let grouped = ChainQuery {
            log,
            lid_col: 0,
            start_col: 2,
            steps: vec![ChainStep::new(log, 2, 1)],
            close_col: Some(1),
            anchor_filters: vec![],
        };
        // ...and decorated (an extremum walk over the row map).
        let mut earlier = ChainStep::new(log, 2, 1);
        earlier.filters.push(StepFilter {
            col: 0,
            op: CmpOp::Lt,
            rhs: Rhs::AnchorCol(0),
        });
        let decorated = ChainQuery {
            steps: vec![earlier],
            ..grouped.clone()
        };
        let opts = EvalOptions::default();
        let mut engine = Engine::new(&db);
        for n in 1..=70usize {
            let i = n as i64;
            db.insert(
                log,
                vec![Value::Int(i), Value::Int(i % 5), Value::Int((i * 7) % 11)],
            )
            .unwrap();
            engine.refresh(&db).unwrap();
            let rowmap = engine.rowmap_for(log, 2);
            let partition = engine.groups_for(&grouped);
            assert_eq!((rowmap.covered(), partition.covered()), (n, n));
            assert!(rowmap.chunks.len() <= chunk_bound(n), "row map, n = {n}");
            assert!(
                partition.chunks.len() <= chunk_bound(n),
                "partition, n = {n}"
            );

            // Row lists read ascending across merged chunks, exactly as a
            // single cold chunk lists them.
            let cold = Engine::new(&db);
            let cold_map = cold.rowmap_for(log, 2);
            assert_eq!(cold_map.chunks.len(), 1);
            for id in 0..engine.snapshot.interner.len() as u32 {
                let merged: Vec<u32> = rowmap.rows_of(id).collect();
                assert_eq!(merged, cold_map.rows_of(id).collect::<Vec<u32>>());
            }
            // Plain and decorated answers over the merged caches match the
            // row evaluator, full-log and over a scattered row set.
            let every_third =
                RowSet::from_sorted_vec(&(0..n as u32).step_by(3).collect::<Vec<_>>());
            for q in [&grouped, &decorated] {
                let oracle = q.explained_rows(&db, opts).unwrap();
                assert_eq!(rows_of(&engine, &db, q, opts).unwrap(), oracle);
                let scattered = engine
                    .eval_suite_rows(&db, std::slice::from_ref(q), opts, &every_third)
                    .remove(0)
                    .unwrap();
                let expect: Vec<u32> = oracle.into_iter().filter(|r| r % 3 == 0).collect();
                assert_eq!(scattered.to_vec(), expect, "n = {n}");
            }
        }
    }

    /// The extremum after the decorated step is the best over every
    /// path: both actors of each patient reach the accessing user through
    /// one `Team` row, and only one of them has an event dated before the
    /// access — the other actor on one patient, so keeping any single
    /// path loses one of the two rows.
    #[test]
    fn carried_extremum_is_the_best_over_every_path() {
        let mut db = Database::new();
        let int = |cols: &[&'static str]| -> Vec<(&'static str, DataType)> {
            cols.iter().map(|&c| (c, DataType::Int)).collect()
        };
        let log = db
            .create_table("Log", &int(&["Lid", "User", "Patient", "Date"]))
            .unwrap();
        let event = db
            .create_table("Event", &int(&["Patient", "Actor", "Date"]))
            .unwrap();
        let team = db.create_table("Team", &int(&["Member", "Buddy"])).unwrap();
        let ints = |vals: &[i64]| vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        for row in [[1, 10, 5], [1, 11, 1], [2, 10, 1], [2, 11, 5]] {
            db.insert(event, ints(&row)).unwrap();
        }
        for row in [[10, 7], [11, 7]] {
            db.insert(team, ints(&row)).unwrap();
        }
        for row in [[0, 7, 1, 3], [1, 7, 2, 3], [2, 7, 1, 1]] {
            db.insert(log, ints(&row)).unwrap();
        }
        let mut earlier = ChainStep::new(event, 0, 1);
        earlier.filters.push(StepFilter {
            col: 2,
            op: CmpOp::Lt,
            rhs: Rhs::AnchorCol(3),
        });
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 2,
            steps: vec![earlier, ChainStep::new(team, 0, 1)],
            close_col: Some(1),
            anchor_filters: vec![],
        };
        let engine = Engine::new(&db);
        for dedup in [true, false] {
            let opts = EvalOptions { dedup };
            assert_eq!(q.explained_rows(&db, opts).unwrap(), vec![0, 1]);
            assert_eq!(rows_of(&engine, &db, &q, opts).unwrap(), vec![0, 1]);
        }
    }

    #[test]
    fn dedup_toggle_changes_maps_not_results() {
        let (mut db, log, appt, info) = figure3_db();
        db.insert(appt, vec![Value::Int(10), Value::Date(5), Value::Int(1)])
            .unwrap();
        let engine = Engine::new(&db);
        let q = template_b(log, appt, info);
        let with = support_of(&engine, &db, &q, EvalOptions { dedup: true }).unwrap();
        let without = support_of(&engine, &db, &q, EvalOptions { dedup: false }).unwrap();
        assert_eq!(with, without);
        // Both dedup settings cached their own maps.
        assert_eq!(engine.cached_step_maps(), 6);
    }
}
