//! # eba-server
//!
//! The always-on audit service the paper frames — the access log grows
//! continuously while compliance officers and the patient portal issue
//! audit questions against it. `eba serve --data DIR` is its one front
//! end (`eba synth --out DIR` writes a synthetic hospital to serve), and
//! it greets every connection as `eba-serve`. The hard concurrency
//! substrate is [`eba_relational::ShardedEngine`] (the log hash-
//! partitioned by patient into `--shards N` engines, published together
//! as one atomically-swapped epoch vector); this crate wires a TCP
//! listener onto it:
//!
//! * **one session per connection**, thread-per-connection, std-only;
//! * **epoch-vector pinning per session**: a connection pins an
//!   [`EpochVec`](eba_relational::EpochVec) when it opens and every audit
//!   question ([`EXPLAIN`](protocol::Command::Explain),
//!   `UNEXPLAINED`, `METRICS`, `TIMELINE`, `MISUSE`) answers from that
//!   frozen vector of shard snapshots — the four suite commands from the
//!   maintained explained/unexplained partition it carries, never by
//!   re-evaluating the suite — byte-stable no matter how many ingests
//!   land meanwhile, and byte-identical at every shard count, until the
//!   session says `REPIN` (`SHARDS` reports the partition layout);
//! * **a single-writer ingest path**: `INGEST` batches go through
//!   [`ShardedEngine::ingest`](eba_relational::ShardedEngine::ingest) —
//!   rows routed to their shard by the patient hash, every shard
//!   refreshed incrementally in parallel — and the reply carries the
//!   published seq;
//! * **typed protocol errors and a panic barrier**: malformed input gets
//!   `ERR bad-request ...`; a panicking handler is recovered into
//!   `ERR internal ...` and the session keeps serving (PR 3's poison
//!   recovery guarantees the engine survives it);
//! * **opt-in durability**: [`AuditService::new_durable_sharded`] wires a
//!   [`DurableStore`] (segment pile + WAL,
//!   [`eba_relational::pile`]) into the ingest path — the batch is on
//!   disk *before* the epoch publishes, so an acknowledged `INGEST`
//!   survives a crash, and startup replays the store back into the
//!   engine (`RECOVERY` reports what was recovered);
//! * **graceful shutdown**: [`Server::shutdown`] stops the listener,
//!   unblocks in-flight sessions, and joins every thread.
//!
//! See [`protocol`] for the full command grammar and framing rules, and
//! the repository `README.md` for the same, prose-first.

pub mod client;
pub mod frame;
pub mod listener;
pub mod protocol;
pub mod push;
pub mod session;

pub use client::{Client, ClientConfig, Reply, RetryPolicy};
pub use frame::{BoundedLineReader, FrameLine};
pub use listener::{Server, ServerConfig};
pub use protocol::{Command, IngestRow, ProtocolError, Response};
pub use push::{Event, SubscriptionKind, EVENT_QUEUE_CAP, EVENT_ROWS_CAP};
pub use session::Session;

use eba_audit::handcrafted::HandcraftedTemplates;
use eba_audit::Explainer;
use eba_core::LogSpec;
use eba_relational::pile::{self, Durability, DurableStore, RecoveryReport};
use eba_relational::{
    Database, PileError, ShardKey, ShardedBatch, ShardedEngine, ShardedIngestReport, TableId, Value,
};
use eba_synth::LogColumns;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The service's default shard count: `EBA_SHARDS` when set to a
/// positive integer, else 1. One shard is the exact unsharded engine — the
/// `shard_equivalence` suite proves the two indistinguishable — so
/// sharding is pure opt-in.
pub fn default_shard_count() -> usize {
    std::env::var("EBA_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Default cap on concurrent `INGEST` batches (one writing + waiters)
/// before new batches are shed with `ERR overloaded`. Writers serialize
/// on the `ShardedEngine` writer lock, so queue depth is pure added
/// latency: beyond a few waiters, telling the client to come back later
/// beats making it wait out the whole queue against its own deadline.
pub const DEFAULT_INGEST_QUEUE: usize = 4;

/// Cap on the retained operator warning log: the service keeps serving
/// under a warning storm (every warning still reaches stderr) instead of
/// growing a `Vec` without bound for the life of the process.
const MAX_WARNINGS: usize = 1_000;

/// Everything the server shares across sessions: the snapshot-handoff
/// cell, the log layout, and the explanation suite.
pub struct AuditService {
    sharded: ShardedEngine,
    /// The engine-side pin id of the explanation suite: every published
    /// epoch vector carries the maintained anchors/explained/unexplained
    /// [`eba_relational::Maintained`] partition for it, so `UNEXPLAINED`,
    /// `METRICS`, `TIMELINE` and `MISUSE` are reads of O(delta)-maintained
    /// sets, not recomputations.
    pin_id: usize,
    /// The audit anchor (log table + lid/user/patient columns + filters).
    pub spec: LogSpec,
    /// The materialized log's column layout.
    pub cols: LogColumns,
    /// The template suite every session answers with.
    pub explainer: Explainer,
    /// The reporting window (1-based days) for `TIMELINE`.
    pub days: u32,
    warnings: Mutex<Vec<String>>,
    /// The `INGEST` writer's incremental state (next fresh `Lid`, pairs
    /// already seen) — without it every batch would rescan the whole log,
    /// making cumulative ingest cost quadratic in log size.
    writer_state: Mutex<Option<WriterState>>,
    /// The durable store every acknowledged `INGEST` is appended to
    /// (`None` for a volatile service). Locked only on the writer path,
    /// inside the `ShardedEngine` writer serialization.
    persist: Mutex<Option<DurableStore>>,
    /// What startup recovery replayed (set only by the durable
    /// constructors; surfaced by the `RECOVERY` command).
    recovery: Mutex<Option<RecoveryReport>>,
    /// `INGEST` batches currently inside the writer path (one holding
    /// the writer lock, the rest waiting on it) — the saturation gauge
    /// [`AuditService::try_ingest_rows`] sheds against.
    ingest_in_flight: AtomicUsize,
    /// Cap on `ingest_in_flight` before new batches are shed
    /// (0 = never shed). [`DEFAULT_INGEST_QUEUE`] by default; the
    /// listener applies `ServerConfig::max_ingest_queue` at spawn.
    max_ingest_queue: AtomicUsize,
    /// Batches shed so far (the overload counter the operator log and
    /// the bench's storm workload report).
    shed_ingests: AtomicU64,
    /// Live `SUBSCRIBE` registrations ([`push`]): each publish diffs the
    /// maintained unexplained set and enqueues typed events here.
    subscribers: Mutex<Vec<push::Subscriber>>,
    /// Subscription id source (ids are never reused, so a shed warning
    /// names a subscriber unambiguously for the life of the process).
    next_subscriber: AtomicU64,
    /// Subscribers shed as slow consumers since startup.
    shed_subscribers: AtomicU64,
}

/// Why [`AuditService::try_ingest_rows`] refused a batch.
#[derive(Debug)]
pub enum IngestRejected {
    /// The writer path is saturated: the batch was shed before doing any
    /// work. Nothing was published, nothing is durable; retry later.
    Overloaded {
        /// Batches already in flight when this one was refused.
        in_flight: usize,
    },
    /// The durable store refused the batch (same contract as
    /// [`AuditService::ingest_rows`]'s `Err`: nothing published).
    Persist(PileError),
}

/// RAII occupancy of the ingest-in-flight gauge: entering bumps the
/// gauge, dropping (on every exit path, shed ones included) restores it.
struct InflightSlot<'a> {
    gauge: &'a AtomicUsize,
    /// The gauge value *including* this slot, at entry.
    occupancy: usize,
}

impl<'a> InflightSlot<'a> {
    fn enter(gauge: &'a AtomicUsize) -> InflightSlot<'a> {
        let occupancy = gauge.fetch_add(1, Ordering::SeqCst) + 1;
        InflightSlot { gauge, occupancy }
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Incrementally-maintained writer state. `log_len` is the published log
/// length the state was derived from: if it doesn't match (an ingest went
/// through [`ShardedEngine::ingest`] directly, or a publish failed after
/// the state advanced), the state is stale and gets rebuilt by one scan.
struct WriterState {
    next_lid: i64,
    seen: HashSet<(Value, Value)>,
    /// The **global** (cross-shard) log length the state was derived from.
    log_len: usize,
}

impl WriterState {
    fn scan(batch: &ShardedBatch, table: TableId, cols: &LogColumns) -> WriterState {
        let mut next_lid = 1;
        let mut seen = HashSet::new();
        for shard in 0..batch.shard_count() {
            let log = batch.db(shard).table(table);
            for (_, row) in log.iter() {
                if let Value::Int(i) = row[cols.lid] {
                    next_lid = next_lid.max(i + 1);
                }
                seen.insert((row[cols.user], row[cols.patient]));
            }
        }
        WriterState {
            next_lid,
            seen,
            log_len: batch.global_log_len(),
        }
    }
}

impl AuditService {
    /// Assembles a service over a database with `n_shards` shards
    /// (`--shards N`, else [`default_shard_count`]): the log is
    /// hash-partitioned by patient into `n_shards` engines published
    /// together as one epoch vector; every audit question scatter-gathers
    /// across them with answers byte-identical to one shard's. The initial
    /// epoch vector (seq 0) is built here — one full partition-and-snapshot
    /// pass.
    pub fn new_sharded(
        db: Database,
        spec: LogSpec,
        cols: LogColumns,
        explainer: Explainer,
        days: u32,
        n_shards: usize,
    ) -> AuditService {
        let key = ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        let sharded = ShardedEngine::new(db, key, n_shards.max(1));
        // Pin the suite before the first session can connect: every epoch
        // this service ever publishes carries the maintained partition.
        let pin_id = sharded.pin_suite(explainer.suite_pin(&spec));
        AuditService {
            sharded,
            pin_id,
            spec,
            cols,
            explainer,
            days,
            warnings: Mutex::new(Vec::new()),
            writer_state: Mutex::new(None),
            persist: Mutex::new(None),
            recovery: Mutex::new(None),
            ingest_in_flight: AtomicUsize::new(0),
            max_ingest_queue: AtomicUsize::new(DEFAULT_INGEST_QUEUE),
            shed_ingests: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            next_subscriber: AtomicU64::new(1),
            shed_subscribers: AtomicU64::new(0),
        }
    }

    /// The engine pin id of the service's explanation suite — the key
    /// into [`eba_relational::EpochVec::maintained`] for the partition
    /// the suite commands read.
    pub fn pin_id(&self) -> usize {
        self.pin_id
    }

    /// [`AuditService::new_sharded`] over a **durable** store: opens
    /// (creating if absent) the segment pile at `pile_path` and its WAL,
    /// replays every recovered batch into `db` *before* the initial epoch
    /// is built (one bulk insert pass, one engine build — the cold-start
    /// path the benchmark meters as `restart_ms` / `pile.replay_ms`), and
    /// wires the store into the ingest path so every acknowledged `INGEST`
    /// is durable under `policy`.
    ///
    /// `db` must be the same base data the store was built over (the
    /// CSVs / synthetic seed from before any durable ingest) — a store
    /// whose row offsets don't line up is a typed
    /// [`PileError::BaseMismatch`], never a silently wrong log.
    ///
    /// Recovery drops (torn tails, discontinuities) become operator
    /// warnings immediately; the full report stays available through
    /// [`AuditService::recovery_report`] / the `RECOVERY` command.
    ///
    /// The durable layout is shard-agnostic — one global pile/WAL
    /// recording batches in global row order — so the same store can be
    /// reopened with a *different* `n_shards` and recovery still
    /// reproduces the acknowledged log exactly: the replayed database is
    /// re-partitioned deterministically by the routing hash. `RECOVERY`
    /// reports how the recovered rows landed per shard.
    #[allow(clippy::too_many_arguments)]
    pub fn new_durable_sharded(
        mut db: Database,
        spec: LogSpec,
        cols: LogColumns,
        explainer: Explainer,
        days: u32,
        pile_path: &Path,
        policy: Durability,
        n_shards: usize,
    ) -> Result<AuditService, PileError> {
        let (store, batches, mut report) =
            DurableStore::open(pile_path, policy, pile::default_checkpoint_rows())?;
        pile::replay_into(&mut db, &batches)?;
        let days = days.max(days_in_log(&db, spec.table, &cols));
        let svc = Self::new_sharded(db, spec, cols, explainer, days, n_shards);
        for w in report.warnings() {
            svc.record_warning(w);
        }
        // Per-shard recovery accounting: where the recovered log landed
        // after deterministic re-partitioning.
        let epochs = svc.sharded.load();
        for (i, shard) in epochs.shards().iter().enumerate() {
            report
                .notes
                .push(format!("shard {i}: {} log rows", shard.log_len()));
        }
        *svc.persist.lock().unwrap_or_else(|e| e.into_inner()) = Some(store);
        *svc.recovery.lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
        Ok(svc)
    }

    /// What startup recovery replayed, if this service is durable.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Whether acknowledged ingests are persisted to a durable store.
    pub fn is_durable(&self) -> bool {
        self.persist
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Appends an `INGEST` batch to the log through the single-writer
    /// path and publishes the successor epoch. Rows are materialized the
    /// way the fake-log injector builds them: fresh consecutive `Lid`s, a
    /// timestamp at midnight of the row's day (epoch 0 for a missing
    /// day), the interned `view` action, and `IsFirst` computed against
    /// the pairs already present.
    ///
    /// The lid/pair bookkeeping is maintained incrementally across
    /// batches (one log scan the first time, or after an out-of-band
    /// ingest made it stale), so a batch costs `O(batch)`, not `O(log)`.
    ///
    /// On a durable service the batch is appended to the store **before**
    /// the epoch is published ([`ShardedEngine::ingest_with`]'s ordering
    /// contract): an `Err` means nothing was published and nothing was
    /// acknowledged — the client may retry once the disk recovers (the
    /// writer's incremental state self-heals by rescanning).
    ///
    /// Panics only if the log schema rejects a constructed row (the
    /// CareWeb shape never does); a panic inside the ingest closure
    /// publishes nothing, and the session layer reports `ERR internal`.
    ///
    /// This library path always queues (it maintains the in-flight gauge
    /// but never sheds); the serving path uses
    /// [`AuditService::try_ingest_rows`], which sheds at the cap.
    pub fn ingest_rows(
        &self,
        rows: &[protocol::IngestRow],
    ) -> Result<ShardedIngestReport, PileError> {
        let _slot = InflightSlot::enter(&self.ingest_in_flight);
        self.ingest_rows_inner(rows)
    }

    /// [`AuditService::ingest_rows`] with graceful load shedding: when
    /// the writer path already has `max_ingest_queue` batches in flight
    /// (one writing + waiters), the batch is refused up front with
    /// [`IngestRejected::Overloaded`] — a cheap, typed refusal instead of
    /// an unbounded queue of sessions blocked on the writer lock. Reads
    /// are untouched: they answer from pinned epochs and never shed.
    pub fn try_ingest_rows(
        &self,
        rows: &[protocol::IngestRow],
    ) -> Result<ShardedIngestReport, IngestRejected> {
        let limit = self.max_ingest_queue.load(Ordering::SeqCst);
        let slot = InflightSlot::enter(&self.ingest_in_flight);
        if limit > 0 && slot.occupancy > limit {
            let in_flight = slot.occupancy - 1;
            let shed = self.shed_ingests.fetch_add(1, Ordering::SeqCst) + 1;
            // Power-of-two streak logging, same cadence as the accept
            // backoff: loud enough to see, quiet under a sustained storm.
            if shed.is_power_of_two() {
                self.record_warning(format!(
                    "ingest shed: writer saturated ({in_flight} batch(es) in flight, \
                     cap {limit}); {shed} shed so far"
                ));
            }
            return Err(IngestRejected::Overloaded { in_flight });
        }
        self.ingest_rows_inner(rows)
            .map_err(IngestRejected::Persist)
    }

    /// The ingest-queue cap ([`DEFAULT_INGEST_QUEUE`] unless configured;
    /// 0 = never shed).
    pub fn max_ingest_queue(&self) -> usize {
        self.max_ingest_queue.load(Ordering::SeqCst)
    }

    /// Reconfigures the ingest-queue cap (the listener applies
    /// `ServerConfig::max_ingest_queue` here at spawn).
    pub fn set_max_ingest_queue(&self, limit: usize) {
        self.max_ingest_queue.store(limit, Ordering::SeqCst);
    }

    /// `INGEST` batches currently inside the writer path.
    pub fn ingest_in_flight(&self) -> usize {
        self.ingest_in_flight.load(Ordering::SeqCst)
    }

    /// Batches shed with `ERR overloaded` since startup.
    pub fn shed_ingest_count(&self) -> u64 {
        self.shed_ingests.load(Ordering::SeqCst)
    }

    fn ingest_rows_inner(
        &self,
        rows: &[protocol::IngestRow],
    ) -> Result<ShardedIngestReport, PileError> {
        let mut guard = self.writer_state.lock().unwrap_or_else(|e| e.into_inner());
        // Publishes are serialized under the writer-state lock, so the
        // epoch loaded here is exactly the one this ingest succeeds: the
        // before/after diff feeding SUBSCRIBE events never skips or
        // double-counts a publish. Loaded only when someone is watching.
        let before = self.has_subscribers().then(|| self.sharded.load());
        let mut store = self.persist.lock().unwrap_or_else(|e| e.into_inner());
        let (_, report) = self.sharded.ingest_with(
            |batch| {
                // Validate the cached state against the writer's private
                // clones (same contents as the published epoch vector,
                // under the writer lock — no TOCTOU with other ingests).
                if guard
                    .as_ref()
                    .is_none_or(|s| s.log_len != batch.global_log_len())
                {
                    *guard = Some(WriterState::scan(batch, self.spec.table, &self.cols));
                }
                let state = guard.as_mut().expect("just ensured");
                let arity = batch.db(0).table(self.spec.table).schema().arity();
                let first_row = batch.global_log_len() as u64;
                // Materialize every row before inserting, so a mid-batch
                // insert panic cannot leave the state half-advanced.
                let mut staged = Vec::with_capacity(rows.len());
                let mut overlay: HashSet<(Value, Value)> = HashSet::new();
                for (offset, r) in rows.iter().enumerate() {
                    let user = Value::Int(r.user);
                    let patient = Value::Int(r.patient);
                    let is_first =
                        !state.seen.contains(&(user, patient)) && overlay.insert((user, patient));
                    let (day, date) = match r.day {
                        Some(d) => (Value::Int(d), Value::Date(d.max(0) * 24 * 60)),
                        None => (Value::Null, Value::Date(0)),
                    };
                    let mut row = vec![Value::Null; arity];
                    row[self.cols.lid] = Value::Int(state.next_lid + offset as i64);
                    row[self.cols.date] = date;
                    row[self.cols.user] = user;
                    row[self.cols.patient] = patient;
                    row[self.cols.day] = day;
                    row[self.cols.is_first] = Value::Int(i64::from(is_first));
                    staged.push(row);
                }
                let action = batch.str_value("view");
                for row in &mut staged {
                    row[self.cols.action] = action;
                    // Routed to its shard by the patient hash; the batch
                    // assigns the same global row id the unsharded log
                    // would, which is what the durable store records.
                    batch
                        .insert_log(row.clone())
                        .expect("ingest row matches the log schema");
                }
                // Commit the bookkeeping only once the whole batch is in.
                // (If the persist hook then refuses, the published log
                // length won't match `log_len` and the next ingest
                // rescans — the staleness guard self-heals the state.)
                let state = guard.as_mut().expect("still present");
                state.next_lid += rows.len() as i64;
                state.seen.extend(overlay);
                state.log_len = batch.global_log_len();
                (first_row, staged)
            },
            |batch, (first_row, staged), seq| {
                let Some(store) = store.as_mut() else {
                    return Ok(());
                };
                // Shard-agnostic durable layout: one pile, batches in
                // global row order. Any shard's database resolves the
                // staged symbols (the pools are aligned by construction).
                let db = batch.db(0);
                let table = &db.table(self.spec.table).schema().name;
                store.append(pile::plain_batch(db, seq, table, *first_row, staged))
            },
        )?;
        if let Some(before) = before {
            self.publish_events(&before, &self.sharded.load());
        }
        // The operator sees when ingest cost followed the residue
        // instead of the batch.
        if let Some(notice) = report.full_residue_notice() {
            self.record_warning(notice);
        }
        Ok(report)
    }

    /// A tiny synthetic-hospital service with the hand-crafted template
    /// suite at [`default_shard_count`] shards — the zero-setup fixture of
    /// the unit tests.
    pub fn tiny_synthetic(seed: u64) -> AuditService {
        let config = eba_synth::SynthConfig {
            seed,
            ..eba_synth::SynthConfig::tiny()
        };
        Self::from_hospital_sharded(eba_synth::Hospital::generate(config), default_shard_count())
    }

    /// Wraps a generated hospital with the hand-crafted suite, at
    /// `n_shards` shards.
    pub fn from_hospital_sharded(h: eba_synth::Hospital, n_shards: usize) -> AuditService {
        let (spec, explainer) = handcrafted_suite(&h.db);
        Self::new_sharded(h.db, spec, h.log_cols, explainer, h.config.days, n_shards)
    }

    /// [`AuditService::from_hospital_sharded`] with a durable store:
    /// previously acknowledged ingests are recovered from `pile_path`
    /// (same seed ⇒ same base data ⇒ the store's row offsets line up) and
    /// every new acknowledged `INGEST` is persisted under `policy`. The
    /// store layout is shard-agnostic, so any count works over an existing
    /// pile.
    pub fn from_hospital_durable_sharded(
        h: eba_synth::Hospital,
        pile_path: &Path,
        policy: Durability,
        n_shards: usize,
    ) -> Result<AuditService, PileError> {
        let (spec, explainer) = handcrafted_suite(&h.db);
        Self::new_durable_sharded(
            h.db,
            spec,
            h.log_cols,
            explainer,
            h.config.days,
            pile_path,
            policy,
            n_shards,
        )
    }

    /// The sharded snapshot-handoff cell (readers `load` the epoch
    /// vector, the writer `ingest`s).
    pub fn sharded(&self) -> &ShardedEngine {
        &self.sharded
    }

    /// Number of log shards this service partitions across.
    pub fn shard_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Operator warnings recorded so far (oldest first): recovery notes,
    /// shed ingests, connections and slow subscribers, ingests that failed
    /// to persist, advances that re-asked the whole residue, and stalled
    /// sessions.
    pub fn warnings(&self) -> Vec<String> {
        lock_plain(&self.warnings).clone()
    }

    /// Records an operator warning (also mirrored to stderr). The
    /// retained log is capped at 1 000 entries — the cap itself is
    /// recorded once, and later warnings still reach stderr — so a
    /// warning storm cannot grow process memory without bound.
    pub fn record_warning(&self, warning: String) {
        eprintln!("eba-serve: warning: {warning}");
        let mut warnings = lock_plain(&self.warnings);
        match warnings.len().cmp(&MAX_WARNINGS) {
            std::cmp::Ordering::Less => warnings.push(warning),
            std::cmp::Ordering::Equal => warnings.push(format!(
                "warning log capped at {MAX_WARNINGS} entries; \
                 further warnings go to stderr only"
            )),
            std::cmp::Ordering::Greater => {}
        }
    }
}

/// A synthetic hospital's log spec and its hand-crafted explanation suite.
fn handcrafted_suite(db: &Database) -> (LogSpec, Explainer) {
    let spec = LogSpec::conventional(db).expect("synthetic Log table");
    let t = HandcraftedTemplates::build(db, &spec).expect("CareWeb schema");
    let explainer = Explainer::new(t.all().into_iter().cloned().collect());
    (spec, explainer)
}

/// Locks a plain-state mutex, recovering a poisoned guard (warnings and
/// the subscriber list are both append/retain lists a panicking holder
/// cannot leave torn).
pub(crate) fn lock_plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resolves the CareWeb log column layout from a log table's schema — the
/// bridge a CSV-loaded deployment needs between [`LogSpec`] (which knows
/// lid/user/patient) and the timeline's extra derived columns.
pub fn log_columns(db: &Database, log: TableId) -> LogColumns {
    let schema = db.table(log).schema();
    let col = |name: &str| schema.col(name).expect("CareWeb log column");
    LogColumns {
        lid: col("Lid"),
        date: col("Date"),
        user: col("User"),
        patient: col("Patient"),
        action: col("Action"),
        day: col("Day"),
        is_first: col("IsFirst"),
    }
}

/// The reporting window implied by a log: the maximum in-range `Day`
/// value (at least 1). Rows with absurd or missing days don't widen the
/// window — they are exactly what the overflow bucket is for.
pub fn days_in_log(db: &Database, log: TableId, cols: &LogColumns) -> u32 {
    db.table(log)
        .iter()
        .filter_map(|(_, row)| match row[cols.day] {
            Value::Int(d) if (1..=3_650).contains(&d) => Some(d as u32),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_service_builds_and_serves_an_epoch() {
        let svc = AuditService::tiny_synthetic(1);
        let epochs = svc.sharded().load();
        assert_eq!(epochs.seq(), 0);
        assert!(epochs.global_log_len() > 0);
        assert_eq!(
            epochs
                .shards()
                .iter()
                .map(|s| s.db().table(svc.spec.table).len())
                .sum::<usize>(),
            epochs.global_log_len()
        );
        assert!(!svc.explainer.templates().is_empty());
        assert!(svc.days >= 1);
        assert!(svc.warnings().is_empty());
    }

    #[test]
    fn shard_count_follows_the_explicit_request() {
        let h = eba_synth::Hospital::generate(eba_synth::SynthConfig {
            seed: 1,
            ..eba_synth::SynthConfig::tiny()
        });
        let svc = AuditService::from_hospital_sharded(h, 3);
        assert_eq!(svc.shard_count(), 3);
        let epochs = svc.sharded().load();
        assert_eq!(epochs.shard_count(), 3);
        assert_eq!(
            epochs.shards().iter().map(|s| s.log_len()).sum::<usize>(),
            epochs.global_log_len(),
            "shards partition the log"
        );
    }

    #[test]
    fn writer_state_survives_out_of_band_ingests() {
        use crate::protocol::IngestRow;
        let svc = AuditService::tiny_synthetic(2);
        let row = |u: i64, p: i64| IngestRow {
            user: u,
            patient: p,
            day: Some(1),
        };
        // Two protocol batches build up the incremental writer state.
        svc.ingest_rows(&[row(1, 10_000), row(1, 10_000)]).unwrap();
        svc.ingest_rows(&[row(2, 10_001)]).unwrap();
        // An out-of-band ingest bypasses the cache entirely and plants a
        // high lid the cache knows nothing about.
        let table = svc.spec.table;
        let cols = svc.cols;
        svc.sharded().ingest(|batch| {
            let arity = batch.db(0).table(table).schema().arity();
            let mut r = vec![Value::Null; arity];
            r[cols.lid] = Value::Int(5_000_000);
            r[cols.date] = Value::Date(0);
            r[cols.user] = Value::Int(9);
            r[cols.patient] = Value::Int(10_001);
            r[cols.day] = Value::Int(1);
            r[cols.is_first] = Value::Int(0);
            batch.insert_log(r).unwrap();
        });
        // The staleness check (published log length moved under the
        // cache) forces a rescan: no lid may ever be issued twice.
        svc.ingest_rows(&[row(3, 10_002)]).unwrap();
        let epochs = svc.sharded().load();
        let mut lids = std::collections::HashSet::new();
        for shard in epochs.shards() {
            for (_, r) in shard.db().table(table).iter() {
                assert!(lids.insert(r[cols.lid]), "duplicate lid: {:?}", r[cols.lid]);
            }
        }
        assert!(
            lids.contains(&Value::Int(5_000_001)),
            "fresh lids continue above the out-of-band maximum"
        );
    }

    #[test]
    fn durable_service_recovers_acknowledged_ingests() {
        let pile =
            std::env::temp_dir().join(format!("eba-durable-lib-test-{}.pile", std::process::id()));
        let _ = std::fs::remove_file(&pile);
        let _ = std::fs::remove_file(DurableStore::wal_path(&pile));
        let hospital = |seed| {
            eba_synth::Hospital::generate(eba_synth::SynthConfig {
                seed,
                ..eba_synth::SynthConfig::tiny()
            })
        };
        let row = |u: i64, p: i64| crate::protocol::IngestRow {
            user: u,
            patient: p,
            day: Some(1),
        };
        let anchor = {
            let svc = AuditService::from_hospital_durable_sharded(
                hospital(3),
                &pile,
                Durability::Strict,
                default_shard_count(),
            )
            .unwrap();
            assert!(svc.is_durable());
            assert_eq!(svc.recovery_report().unwrap().batches(), 0);
            svc.ingest_rows(&[row(1, 10_000), row(2, 10_001)]).unwrap();
            svc.ingest_rows(&[row(3, 10_002)]).unwrap();
            svc.sharded().load().global_log_len()
        };
        // "Restart": the same base data plus the recovered store must
        // reproduce the acknowledged log exactly.
        let svc = AuditService::from_hospital_durable_sharded(
            hospital(3),
            &pile,
            Durability::Strict,
            default_shard_count(),
        )
        .unwrap();
        let report = svc.recovery_report().expect("durable service");
        assert_eq!(report.batches(), 2);
        assert_eq!(report.rows, 3);
        assert!(!report.lost_data());
        assert_eq!(svc.sharded().load().global_log_len(), anchor);
        assert!(
            report.notes.iter().any(|n| n.starts_with("shard 0:")),
            "recovery reports per-shard placement: {:?}",
            report.notes
        );
        let _ = std::fs::remove_file(&pile);
        let _ = std::fs::remove_file(DurableStore::wal_path(&pile));
    }

    #[test]
    fn days_in_log_ignores_skewed_stamps() {
        let svc = AuditService::tiny_synthetic(1);
        let epochs = svc.sharded().load();
        let days = epochs
            .shards()
            .iter()
            .map(|s| days_in_log(s.db(), svc.spec.table, &svc.cols))
            .max()
            .unwrap();
        assert!(
            (1..=svc.days).contains(&days),
            "well-formed log ⇒ within the config window ({days} vs {})",
            svc.days
        );
    }
}
