//! Epoch-style snapshot handoff: audit queries keep running while the log
//! ingests.
//!
//! [`Engine::refresh`] takes `&mut Engine`, so a service that holds one
//! engine must serialize every reader against every ingest — and one
//! slow refresh stalls every "is this access explained?" question behind
//! it. [`SharedEngine`] decouples the two with an epoch handoff built
//! from `std` parts only (`Arc` + a pointer-swap `RwLock`):
//!
//! * **Readers** call [`SharedEngine::load`] once per session and get an
//!   immutable [`Epoch`] — the database plus the engine built over it,
//!   frozen together. Every question the session asks against that epoch
//!   sees one consistent state of the world, no matter how many ingests
//!   land meanwhile. `load` is a read-lock held only for an `Arc` clone
//!   (a few instructions — never for the duration of a query, let alone a
//!   refresh).
//! * **The writer** (serialized by an internal mutex, so any thread may
//!   call it) runs [`SharedEngine::ingest`]: clone the current epoch's
//!   database, apply the batch, [`fork`](Engine::fork) the current engine
//!   — same snapshot, same warm `Arc`-shared caches — refresh the fork
//!   *privately*, and publish the successor epoch with a pointer swap.
//!   In-flight readers are never waited on and never blocked; they finish
//!   on the epoch they pinned and pick up the new one on their next
//!   `load`.
//!
//! A failed refresh (the typed [`RefreshError`], e.g. a table shrank) is
//! recovered by rebuilding the successor engine from scratch and recorded
//! in the [`IngestReport`]; a panic inside the ingest closure discards the
//! private clone and leaves the published epoch untouched (and the writer
//! mutex, though poisoned, recovers on the next ingest). One bad ingest —
//! like one panicking query — cannot take the auditor offline.
//!
//! # The writer/reader pattern
//!
//! This is the shape the `compliance_dashboard` / `misuse_detection`
//! examples and the `audit-bench` concurrent workload use:
//!
//! ```
//! use eba_relational::{Database, DataType, SharedEngine, Value};
//!
//! let mut db = Database::new();
//! let log = db
//!     .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
//!     .unwrap();
//! db.insert(log, vec![Value::Int(0), Value::Int(7)]).unwrap();
//! let shared = SharedEngine::new(db);
//!
//! std::thread::scope(|scope| {
//!     // Reader session: pin one epoch, answer everything against it.
//!     scope.spawn(|| {
//!         let epoch = shared.load();
//!         assert_eq!(epoch.db().table(log).len() > 0, true);
//!         // ... epoch.engine().explained_rows(epoch.db(), &query, opts) ...
//!     });
//!     // Writer: ingest a batch and publish the successor epoch.
//!     scope.spawn(|| {
//!         let (_, report) = shared.ingest(|db| {
//!             db.insert(log, vec![Value::Int(1), Value::Int(8)]).unwrap()
//!         });
//!         assert_eq!(report.refresh.delta.new_rows, 1);
//!     });
//! });
//! assert_eq!(shared.load().db().table(log).len(), 2);
//! ```
//!
//! # Costs
//!
//! Publishing pays one clone of the database and one [`Engine::fork`]
//! per ingest batch, on the writer thread. Storage is segmented
//! ([`crate::segment`]): both operations share every sealed segment by
//! pointer and copy only the small mutable tails, so publication is
//! **`O(batch)`**, not `O(db)` — the storage-equivalence suite and
//! `audit-bench`'s `publish/ingest_epoch_cost*` workloads meter exactly
//! this. The refresh itself is incremental too (only appended rows are
//! scanned; caches over un-grown tables stay warm across epochs, and
//! log partitions / row maps extend chunk-wise), so batch your appends:
//! one `ingest` per arriving batch, not per row.

use super::advance::{absorb, advance_shard, AdvanceStats, Residue};
use super::{Engine, RefreshError, RefreshStats};
use crate::chain::{ChainQuery, CmpOp, EvalOptions};
use crate::database::{Database, TableId};
use crate::rowset::RowSet;
use crate::sync::unpoison;
use crate::types::ColId;
use crate::value::Value;
use std::sync::{Arc, Mutex, RwLock};

/// A template suite registered for **incremental maintenance**: the
/// anchor shape (which log rows are under audit) plus the explanation
/// templates. Once pinned ([`SharedEngine::pin_suite`] /
/// [`super::ShardedEngine::pin_suite`]), every published epoch carries a
/// [`Maintained`] materialization of the suite's explained/unexplained
/// partition, advanced inside ingest by delta evaluation instead of
/// recomputed by readers.
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
/// one epoch. Invariant (the stream-equivalence suite proves it
/// differentially): at every published epoch, each set is **byte-identical
/// to a cold recompute** over that epoch's database —
///
/// * `anchors`     = log rows passing the pin's anchor filters,
/// * `explained`   = union over the pin's templates of their explained
///   rows (exactly [`Engine::eval_suite`]'s union),
/// * `unexplained` = `anchors \ explained`.
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

/// Cold (from-scratch) materialization of `pin` over one epoch's state.
/// Also the fallback whenever the incremental path is unavailable: a
/// rebuild, a [`SharedEngine::replace`], or a freshly registered pin.
pub(super) fn compute_maintained(engine: &Engine, db: &Database, pin: &SuitePin) -> Maintained {
    let log = engine.snapshot().table(pin.log);
    let mut anchors: Vec<u32> = Vec::new();
    for r in 0..log.n_rows {
        if engine.anchor_passes_filters(&pin.anchor_filters, log, r) {
            anchors.push(r as u32);
        }
    }
    let anchors = RowSet::from_sorted_vec(&anchors);
    let mut explained = RowSet::new();
    for set in engine
        .eval_suite(db, &pin.queries, pin.opts)
        .into_iter()
        .flatten()
    {
        explained.union_with(&set);
    }
    let unexplained = anchors.difference(&explained);
    Maintained {
        anchors,
        explained,
        unexplained,
        log_len: log.n_rows,
    }
}

/// Advances `prev` across one incremental refresh from `base` (the
/// previous epoch's engine) to its refreshed fork `engine`: the advance
/// core ([`advance_shard`]) over the whole log, unioned into the previous
/// sets (see [`Maintained`] for why that is enough).
pub(super) fn advance_maintained(
    base: &Engine,
    engine: &Engine,
    db: &Database,
    pin: &SuitePin,
    prev: &Maintained,
) -> (Maintained, AdvanceStats) {
    let delta = advance_shard(
        base,
        engine,
        db,
        pin,
        Residue {
            len: prev.unexplained.len(),
            contains: |r| prev.unexplained.contains(r),
            all: || prev.unexplained.clone(),
        },
    );
    let log_len = engine.snapshot().table(pin.log).n_rows;
    (
        absorb(prev, [(delta.anchors, delta.explained)], log_len),
        delta.stats,
    )
}

/// One immutable published state of the world: the database and the
/// engine built over it, frozen together at a sequence number.
///
/// Readers obtain epochs from [`SharedEngine::load`] and keep them for a
/// whole session — every audit-layer question asked with this epoch's
/// `db`/`engine` pair sees the same log, so an explanation, the timeline
/// it appears in, and the misuse summary next to it can never disagree
/// about which accesses exist.
#[derive(Debug)]
pub struct Epoch {
    db: Database,
    engine: Engine,
    seq: u64,
    /// Maintained materializations, one per pinned suite in registration
    /// order ([`SharedEngine::pin_suite`]). Epochs published before a pin
    /// was registered simply lack its entry — readers fall back to cold
    /// evaluation.
    maintained: Vec<Arc<Maintained>>,
}

impl Epoch {
    /// Assembles an epoch from parts. Crate-internal: this is how the
    /// sharded engine ([`super::ShardedEngine`]) publishes one epoch per
    /// shard under the vector's shared sequence number (per-shard epochs
    /// carry no maintained entries — the sharded vector maintains the
    /// global sets itself).
    pub(super) fn assemble(db: Database, engine: Engine, seq: u64) -> Epoch {
        Epoch {
            db,
            engine,
            seq,
            maintained: Vec::new(),
        }
    }

    /// The maintained materialization of pin `pin` (the id returned by
    /// [`SharedEngine::pin_suite`]), if this epoch carries one.
    pub fn maintained(&self, pin: usize) -> Option<&Arc<Maintained>> {
        self.maintained.get(pin)
    }

    /// The epoch's database state (pass as the `db` argument of the
    /// audit-layer `*_with` functions).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The warm engine over [`Epoch::db`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Publication sequence number (0 for the initial epoch, +1 per
    /// ingest). Strictly increasing across [`SharedEngine::load`] calls.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// What one [`SharedEngine::ingest`] published.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Sequence number of the epoch this ingest published.
    pub seq: u64,
    /// What the incremental refresh did (empty when `rebuilt` is set —
    /// the successor was built from scratch instead).
    pub refresh: RefreshStats,
    /// Set when the incremental refresh was refused and the writer
    /// recovered by rebuilding the successor engine from scratch; holds
    /// the error so the caller can log it.
    pub rebuilt: Option<RefreshError>,
    /// What advancing each pinned suite's [`Maintained`] partition cost,
    /// indexed by pin id.
    pub advance: Vec<AdvanceStats>,
}

impl IngestReport {
    /// The operator-facing warning every caller should surface when the
    /// writer fell back to a full rebuild (`None` on the normal
    /// incremental path). The fallback keeps the service publishing, but
    /// it costs a whole re-snapshot and usually means the ingest source
    /// replaced state instead of appending — exactly the situation an
    /// operator wants to hear about rather than have silently absorbed.
    pub fn fallback_warning(&self) -> Option<String> {
        self.rebuilt.as_ref().map(|err| {
            format!(
                "epoch {}: incremental refresh refused ({err}); \
                 recovered by rebuilding the engine from scratch",
                self.seq
            )
        })
    }
}

/// The snapshot-handoff cell. See the module docs for the pattern.
#[derive(Debug)]
pub struct SharedEngine {
    /// The published epoch. Write-locked only for the publish pointer
    /// swap; read-locked only for the `Arc` clone in [`SharedEngine::load`].
    current: RwLock<Arc<Epoch>>,
    /// Serializes writers; holds the next sequence number. Poison-tolerant:
    /// a panicking ingest closure leaves the published epoch untouched.
    writer: Mutex<u64>,
    /// Pinned suites, in registration order; index = pin id.
    pins: Mutex<Vec<Arc<SuitePin>>>,
}

impl SharedEngine {
    /// Builds the initial epoch (seq 0) over `db` — one full snapshot
    /// scan, exactly [`Engine::new`].
    pub fn new(db: Database) -> SharedEngine {
        let engine = Engine::new(&db);
        SharedEngine {
            current: RwLock::new(Arc::new(Epoch {
                db,
                engine,
                seq: 0,
                maintained: Vec::new(),
            })),
            writer: Mutex::new(0),
            pins: Mutex::new(Vec::new()),
        }
    }

    /// Registers a suite for incremental maintenance and returns its pin
    /// id (an index into every later epoch's maintained entries). The
    /// current epoch is republished — same database, same sequence number,
    /// warm [`Engine::fork`] — with the pin's cold materialization added,
    /// so a reader loading after `pin_suite` returns already sees the
    /// maintained sets. Serialized against ingests by the writer lock.
    pub fn pin_suite(&self, pin: SuitePin) -> usize {
        let _writer = unpoison(self.writer.lock());
        let base = self.load();
        let pin = Arc::new(pin);
        let mut pins = unpoison(self.pins.lock());
        let id = pins.len();
        pins.push(pin.clone());
        drop(pins);
        let mut maintained = base.maintained.clone();
        maintained.push(Arc::new(compute_maintained(&base.engine, &base.db, &pin)));
        *unpoison(self.current.write()) = Arc::new(Epoch {
            db: base.db.clone(),
            engine: base.engine.fork(),
            seq: base.seq,
            maintained,
        });
        id
    }

    /// Pins the current epoch. Effectively wait-free: the read lock guards
    /// a single `Arc` clone, never a query or a refresh. Call once per
    /// session (or per dashboard recomputation), not once per query —
    /// the epoch is the session's consistent view.
    pub fn load(&self) -> Arc<Epoch> {
        unpoison(self.current.read()).clone()
    }

    /// Sequence number of the current epoch.
    pub fn seq(&self) -> u64 {
        self.load().seq
    }

    /// Applies `mutate` to a private clone of the current epoch's
    /// database, brings a private fork of its engine up to date, and
    /// publishes the result as the next epoch. Returns `mutate`'s output
    /// and what was published.
    ///
    /// Writers are serialized (concurrent `ingest` calls queue); readers
    /// are never blocked — they keep answering from the epoch they
    /// pinned, and observe the new epoch on their next [`load`].
    ///
    /// # Panic safety
    /// If `mutate` (or the refresh) panics, the private clone is dropped
    /// and **nothing is published**: the current epoch stays exactly as
    /// it was, and subsequent ingests proceed normally.
    pub fn ingest<R>(&self, mutate: impl FnOnce(&mut Database) -> R) -> (R, IngestReport) {
        let (out, report) = self
            .ingest_with(mutate, |_, _, _| Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|e| match e {});
        (out, report)
    }

    /// [`SharedEngine::ingest`] with a **persist hook**: after `mutate`
    /// has been applied and the successor engine refreshed — but *before*
    /// anything is published — `persist` is called with the mutated
    /// database, `mutate`'s output, and the sequence number the epoch
    /// would publish as. Only if it returns `Ok` is the epoch published
    /// (and the sequence counter advanced).
    ///
    /// This is the durable-ingest ordering contract: a service that
    /// writes the batch to a [`DurableStore`](crate::pile::DurableStore)
    /// inside `persist` acknowledges only states that are already on
    /// disk, so the **published history is always a prefix of the durable
    /// history** — a crash can lose an un-acknowledged batch, never
    /// acknowledge an un-durable one.
    ///
    /// On `Err` the private clone is dropped, nothing is published, the
    /// sequence number is not consumed, and the error is returned with
    /// the writer lock released — the next ingest proceeds normally.
    ///
    /// # Panic safety
    /// Exactly as [`SharedEngine::ingest`]: a panic in `mutate`,
    /// the refresh, or `persist` publishes nothing.
    pub fn ingest_with<R, E>(
        &self,
        mutate: impl FnOnce(&mut Database) -> R,
        persist: impl FnOnce(&Database, &R, u64) -> Result<(), E>,
    ) -> Result<(R, IngestReport), E> {
        let mut next_seq = unpoison(self.writer.lock());
        let base = self.load();
        let mut db = base.db.clone();
        let out = mutate(&mut db);
        let mut engine = base.engine.fork();
        let (refresh, rebuilt) = match engine.refresh(&db) {
            Ok(stats) => (stats, None),
            Err(err) => {
                // The incremental path was refused (e.g. `mutate` replaced
                // state in a way that shrank a table); fall back to a full
                // rebuild so the service keeps publishing.
                engine = Engine::new(&db);
                (RefreshStats::default(), Some(err))
            }
        };
        let seq = *next_seq + 1;
        persist(&db, &out, seq)?;
        *next_seq = seq;
        // Advance every pinned suite's materialization: O(delta) on the
        // incremental path, cold recompute when the engine was rebuilt
        // (or the pin was registered against a newer epoch than `base`).
        let pins = unpoison(self.pins.lock()).clone();
        let (maintained, advance) = pins
            .iter()
            .enumerate()
            .map(|(i, pin)| match base.maintained.get(i) {
                Some(prev) if rebuilt.is_none() => {
                    let (m, stats) = advance_maintained(&base.engine, &engine, &db, pin, prev);
                    (Arc::new(m), stats)
                }
                _ => (
                    Arc::new(compute_maintained(&engine, &db, pin)),
                    AdvanceStats::default(),
                ),
            })
            .unzip();
        let report = IngestReport {
            seq,
            refresh,
            rebuilt,
            advance,
        };
        *unpoison(self.current.write()) = Arc::new(Epoch {
            db,
            engine,
            seq,
            maintained,
        });
        Ok((out, report))
    }

    /// Replaces the published database **wholesale** (an operator reload
    /// of a corrected dataset) and publishes the successor epoch.
    ///
    /// Unlike [`SharedEngine::ingest`], this never attempts the
    /// incremental refresh: an incremental pass only rescans rows
    /// *appended* since the snapshot, so a replacement whose row counts
    /// happen to line up with the published epoch's would keep the
    /// engine answering from the replaced cells. The engine is rebuilt
    /// from scratch unconditionally and the report carries
    /// [`RefreshError::Replaced`] as the rebuild reason, so
    /// [`IngestReport::fallback_warning`] fires exactly like an
    /// ingest-path fallback — a reload is an operator-visible event,
    /// never silently absorbed. Readers pinned to older epochs are
    /// untouched until their next load.
    pub fn replace(&self, db: Database) -> IngestReport {
        let mut next_seq = unpoison(self.writer.lock());
        let engine = Engine::new(&db);
        *next_seq += 1;
        let seq = *next_seq;
        // A replacement invalidates every maintained set: recompute cold.
        let pins = unpoison(self.pins.lock()).clone();
        let report = IngestReport {
            seq,
            refresh: RefreshStats::default(),
            rebuilt: Some(RefreshError::Replaced),
            advance: vec![AdvanceStats::default(); pins.len()],
        };
        let maintained = pins
            .iter()
            .map(|pin| Arc::new(compute_maintained(&engine, &db, pin)))
            .collect();
        *unpoison(self.current.write()) = Arc::new(Epoch {
            db,
            engine,
            seq,
            maintained,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainQuery, ChainStep, EvalOptions};
    use crate::database::TableId;
    use crate::types::DataType;
    use crate::value::Value;

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
        db.insert(event, vec![Value::Int(7), Value::Int(1)])
            .unwrap();
        db.insert(log, vec![Value::Int(0), Value::Int(1), Value::Int(7)])
            .unwrap();
        (db, log, event)
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
    fn readers_pin_an_immutable_epoch() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let q = query(log, event);
        let old = shared.load();
        assert_eq!(old.seq(), 0);
        let rows_before = old
            .engine()
            .explained_rows(old.db(), &q, EvalOptions::default())
            .unwrap();

        let (_, report) = shared.ingest(|db| {
            db.insert(log, vec![Value::Int(1), Value::Int(1), Value::Int(7)])
                .unwrap();
        });
        assert_eq!(report.seq, 1);
        assert!(report.rebuilt.is_none());
        assert_eq!(report.refresh.delta.new_rows, 1);

        // The pinned epoch still answers from its frozen state...
        assert_eq!(old.db().table(log).len(), 1);
        assert_eq!(
            old.engine()
                .explained_rows(old.db(), &q, EvalOptions::default())
                .unwrap(),
            rows_before
        );
        // ...while a fresh load sees the ingested batch.
        let new = shared.load();
        assert_eq!(new.seq(), 1);
        assert_eq!(new.db().table(log).len(), 2);
        assert_eq!(
            new.engine()
                .explained_rows(new.db(), &q, EvalOptions::default())
                .unwrap(),
            q.explained_rows(new.db(), EvalOptions::default()).unwrap()
        );
    }

    #[test]
    fn caches_stay_warm_across_epochs() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let q = query(log, event);
        let e0 = shared.load();
        let _ = e0
            .engine()
            .explained_rows(e0.db(), &q, EvalOptions::default())
            .unwrap();
        assert_eq!(e0.engine().cached_step_maps(), 1);
        // Growing only the log drops partitions, not the Event step map —
        // and the successor inherits it through the fork.
        let (_, report) = shared.ingest(|db| {
            db.insert(log, vec![Value::Int(1), Value::Int(2), Value::Int(9)])
                .unwrap();
        });
        assert_eq!(report.refresh.dropped_step_maps, 0);
        assert_eq!(shared.load().engine().cached_step_maps(), 1);
    }

    #[test]
    fn panicking_ingest_publishes_nothing_and_recovers() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let before = shared.load();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.ingest(|db| {
                db.insert(log, vec![Value::Int(9), Value::Int(9), Value::Int(9)])
                    .unwrap();
                panic!("ingest source glitched");
            })
        }));
        assert!(panic.is_err());
        // Nothing was published: same epoch, same contents.
        let after = shared.load();
        assert_eq!(after.seq(), before.seq());
        assert_eq!(after.db().table(log).len(), 1);
        // And the writer recovers: the next ingest publishes normally.
        let (_, report) = shared.ingest(|db| {
            db.insert(event, vec![Value::Int(9), Value::Int(2)])
                .unwrap();
        });
        assert_eq!(report.seq, 1);
        assert_eq!(shared.load().db().table(event).len(), 2);
    }

    #[test]
    fn rebuild_fallback_is_reported_with_a_warning() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        // A mutator that *replaces* the database (shrinking the catalog)
        // refuses the incremental path; the writer must still publish.
        let (_, report) = shared.ingest(|db| {
            let mut fresh = Database::new();
            let log2 = fresh
                .create_table("Log", &[("Lid", DataType::Int)])
                .unwrap();
            fresh.insert(log2, vec![Value::Int(0)]).unwrap();
            *db = fresh;
        });
        assert!(report.rebuilt.is_some());
        let warning = report.fallback_warning().expect("fallback warns");
        assert!(warning.contains("epoch 1"), "{warning}");
        assert!(warning.contains("rebuilding"), "{warning}");
        // The published epoch is the rebuilt one.
        let epoch = shared.load();
        assert_eq!(epoch.seq(), 1);
        assert_eq!(epoch.db().table_id("Log").unwrap().0, 0);
        // The normal path stays warning-free.
        let shared = SharedEngine::new({
            let (db, _, _) = world();
            db
        });
        let (_, report) = shared.ingest(|db| {
            db.insert(log, vec![Value::Int(1), Value::Int(1), Value::Int(7)])
                .unwrap();
            let _ = event;
        });
        assert!(report.fallback_warning().is_none());
    }

    #[test]
    fn replace_rebuilds_even_when_nothing_shrank() {
        // The hole `replace` exists to close: a replacement whose row
        // counts line up with the published epoch's would pass the
        // incremental refresh's shrink checks, yet its *cells* differ —
        // an incremental pass would keep answering from the old data.
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let q = query(log, event);
        let before = shared
            .load()
            .engine()
            .explained_rows(shared.load().db(), &q, EvalOptions::default())
            .unwrap();
        // Same shape, same row counts, different cells: the event now
        // names actor 2, not 1, so the old answer is wrong for it.
        let mut corrected = Database::new();
        let log2 = corrected
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let event2 = corrected
            .create_table(
                "Event",
                &[("Patient", DataType::Int), ("Actor", DataType::Int)],
            )
            .unwrap();
        corrected
            .insert(event2, vec![Value::Int(7), Value::Int(2)])
            .unwrap();
        corrected
            .insert(log2, vec![Value::Int(0), Value::Int(1), Value::Int(7)])
            .unwrap();
        let report = shared.replace(corrected);
        assert_eq!(report.seq, 1);
        assert_eq!(report.rebuilt, Some(RefreshError::Replaced));
        let warning = report.fallback_warning().expect("reload warns");
        assert!(warning.contains("replaced"), "{warning}");
        // The published epoch answers from the *corrected* data, exactly
        // like a from-scratch engine would.
        let epoch = shared.load();
        let after = epoch
            .engine()
            .explained_rows(epoch.db(), &q, EvalOptions::default())
            .unwrap();
        assert_eq!(
            after,
            q.explained_rows(epoch.db(), EvalOptions::default())
                .unwrap()
        );
        assert_ne!(after, before, "the corrected cells change the answer");
    }

    #[test]
    fn failed_persist_publishes_nothing_and_frees_the_seq() {
        let (db, log, _) = world();
        let shared = SharedEngine::new(db);
        // The hook sees the mutated database and the would-be seq...
        let err = shared
            .ingest_with(
                |db| {
                    db.insert(log, vec![Value::Int(1), Value::Int(1), Value::Int(7)])
                        .unwrap();
                },
                |db, _, seq| {
                    assert_eq!(seq, 1);
                    assert_eq!(db.table(log).len(), 2, "hook sees the mutation");
                    Err("disk full")
                },
            )
            .unwrap_err();
        assert_eq!(err, "disk full");
        // ...but nothing was published and the seq was not consumed.
        assert_eq!(shared.seq(), 0);
        assert_eq!(shared.load().db().table(log).len(), 1);
        let (_, report) = shared
            .ingest_with(
                |db| {
                    db.insert(log, vec![Value::Int(1), Value::Int(1), Value::Int(7)])
                        .unwrap();
                },
                |_, _, seq| {
                    assert_eq!(seq, 1, "the failed attempt's seq is reused");
                    Ok::<(), &str>(())
                },
            )
            .unwrap();
        assert_eq!(report.seq, 1);
        assert_eq!(shared.load().db().table(log).len(), 2);
    }

    #[test]
    fn maintained_sets_track_every_epoch() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let pin = SuitePin {
            log,
            anchor_filters: vec![],
            queries: vec![query(log, event)],
            opts: EvalOptions::default(),
        };
        let id = shared.pin_suite(pin.clone());
        let check = |epoch: &Epoch| {
            let m = epoch.maintained(id).expect("pinned epoch carries the sets");
            let cold = compute_maintained(epoch.engine(), epoch.db(), &pin);
            assert_eq!(m.anchors, cold.anchors);
            assert_eq!(m.explained, cold.explained);
            assert_eq!(m.unexplained, cold.unexplained);
            assert_eq!(m.log_len, cold.log_len);
        };
        check(&shared.load());
        // Log-only appends take the tail path; event appends force a full
        // re-eval (the template's support grew); mixed batches do both.
        for i in 0..6i64 {
            shared.ingest(|db| {
                db.insert(
                    log,
                    vec![Value::Int(10 + i), Value::Int(1), Value::Int(7 + i % 2)],
                )
                .unwrap();
                if i % 2 == 0 {
                    db.insert(event, vec![Value::Int(7 + i), Value::Int(1)])
                        .unwrap();
                }
            });
            check(&shared.load());
        }
        // A wholesale replacement recomputes the sets cold.
        let (corrected, ..) = world();
        shared.replace(corrected);
        check(&shared.load());
        // Epochs published before the pin lack the entry, never lie.
        let unpinned = SharedEngine::new({
            let (db, ..) = world();
            db
        });
        assert!(unpinned.load().maintained(0).is_none());
    }

    #[test]
    fn ingest_returns_the_mutators_output() {
        let (db, log, _) = world();
        let shared = SharedEngine::new(db);
        let (rid, _) = shared.ingest(|db| {
            db.insert(log, vec![Value::Int(1), Value::Int(3), Value::Int(7)])
                .unwrap()
        });
        assert_eq!(rid, 1);
    }

    #[test]
    fn concurrent_readers_always_observe_a_published_epoch() {
        let (db, log, event) = world();
        let shared = SharedEngine::new(db);
        let q = query(log, event);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last_seq = 0;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let epoch = shared.load();
                        assert!(epoch.seq() >= last_seq, "epochs move forward");
                        last_seq = epoch.seq();
                        // The epoch is internally consistent: the engine
                        // answers exactly like the row evaluator over the
                        // epoch's own database.
                        assert_eq!(
                            epoch
                                .engine()
                                .explained_rows(epoch.db(), &q, EvalOptions::default())
                                .unwrap(),
                            q.explained_rows(epoch.db(), EvalOptions::default())
                                .unwrap()
                        );
                    }
                });
            }
            for i in 0..5i64 {
                shared.ingest(|db| {
                    db.insert(log, vec![Value::Int(10 + i), Value::Int(1), Value::Int(7)])
                        .unwrap();
                    db.insert(event, vec![Value::Int(7), Value::Int(10 + i)])
                        .unwrap();
                });
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(shared.seq(), 5);
    }
}
