//! Shared scaffolding for the concurrency suites: the synthetic audit
//! world, the readers-vs-writer thread harness, and the epoch-agreement
//! log. Used by both the library-level stress test
//! (`tests/engine_equivalence.rs`) and the socket-level server suite
//! (`tests/server_e2e.rs`) — the same invariants, checked at two layers.

#![allow(dead_code)] // each test binary uses the subset it needs

pub mod chaos;
pub mod mining;

use eba::audit::explain::{anchors, explained, unexplained};
use eba::audit::handcrafted::HandcraftedTemplates;
use eba::audit::{metrics, portal, timeline, AuditView, Explainer};
use eba::core::LogSpec;
use eba::relational::{
    ChainQuery, Database, Engine, EpochVec, EvalOptions, ShardKey, ShardedBatch, ShardedEngine,
    ShardedIngestReport, StringPool, Table, TableId, Value,
};
use eba::synth::{Hospital, SynthConfig};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count the concurrency suites run at: `EBA_SHARDS` (CI runs the
/// workspace at both `1` and `4`), else 1, so a plain `cargo test`
/// exercises the degenerate single-shard engine. It is
/// [`eba::server::default_shard_count`], the same parser `eba serve`
/// uses, so the library- and socket-level suites agree on the partition
/// layout.
pub fn test_shards() -> usize {
    eba::server::default_shard_count()
}

/// One query's explained rows through the engine's fused driver
/// ([`Engine::eval_suite`]), in the cold evaluator's sorted form.
pub fn engine_rows(
    engine: &Engine,
    db: &Database,
    q: &ChainQuery,
    opts: EvalOptions,
) -> eba::relational::Result<Vec<u32>> {
    engine
        .eval_suite(db, std::slice::from_ref(q), opts)
        .remove(0)
        .map(|rows| rows.to_vec())
}

/// One query's support through [`Engine::support_many`].
pub fn engine_support(
    engine: &Engine,
    db: &Database,
    q: &ChainQuery,
    opts: EvalOptions,
) -> eba::relational::Result<usize> {
    engine
        .support_many(db, std::slice::from_ref(q), opts)
        .remove(0)
}

/// The standard concurrency-test world: a tiny synthetic hospital, its
/// conventional log spec, the hand-crafted template suite, and the
/// user/patient pools an ingesting writer samples from.
pub struct AuditWorld {
    pub hospital: Hospital,
    pub spec: LogSpec,
    pub explainer: Explainer,
    pub users: Vec<Value>,
    pub patients: Vec<Value>,
}

impl AuditWorld {
    /// Builds the world at `tiny` scale with the given seed.
    pub fn tiny(seed: u64) -> AuditWorld {
        Self::from_config(SynthConfig {
            seed,
            ..SynthConfig::tiny()
        })
    }

    /// [`AuditWorld::tiny`] with the paper's `Mapping(AuditId,
    /// CaregiverId)` artifact: the data-set-B templates become two-step
    /// chains (`Labs → Mapping`), so a support table sits at depth 1.
    pub fn tiny_mapped(seed: u64) -> AuditWorld {
        Self::from_config(SynthConfig {
            seed,
            use_mapping_table: true,
            ..SynthConfig::tiny()
        })
    }

    /// Builds the world over a hospital generated from `config`.
    pub fn from_config(config: SynthConfig) -> AuditWorld {
        let hospital = Hospital::generate(config);
        let spec = LogSpec::conventional(&hospital.db).expect("synthetic Log table");
        let t = HandcraftedTemplates::build(&hospital.db, &spec).expect("CareWeb schema");
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        let users = eba::audit::fake::user_pool(&hospital.db);
        let patients: Vec<Value> = (0..hospital.world.n_patients())
            .map(|p| hospital.patient_value(p))
            .collect();
        AuditWorld {
            hospital,
            spec,
            explainer,
            users,
            patients,
        }
    }

    /// The partition key every suite shards by — the spec's patient
    /// column, exactly what the serving layer uses.
    pub fn key(&self) -> ShardKey {
        ShardKey {
            table: self.spec.table,
            col: self.spec.patient_col,
        }
    }

    /// The unsharded oracle over the world's base data.
    pub fn oracle(&self) -> Oracle {
        Oracle::new(self.hospital.db.clone(), self.spec.table)
    }

    /// The suite lowered to chain queries, in template order.
    pub fn suite(&self) -> Vec<ChainQuery> {
        self.explainer
            .templates()
            .iter()
            .map(|t| t.path.to_chain_query(&self.spec))
            .collect()
    }

    /// Appends one batch of fake accesses to `db` (the writer's ingest
    /// payload; deterministic per `seed`).
    pub fn inject_batch(&self, db: &mut Database, count: usize, seed: u64) {
        eba::audit::fake::FakeLog::inject(
            db,
            self.hospital.t_log,
            &self.hospital.log_cols,
            &self.users,
            &self.patients,
            count,
            self.hospital.config.days,
            seed,
        );
    }
}

/// The unsharded **oracle** of the differential suites: a plain
/// [`Database`] the test mutates, counted in epochs, with a cold
/// [`Engine::new`] built per epoch it is asked about. It shares no
/// `fork`/`refresh`/advance code with the [`ShardedEngine`] under test —
/// every answer it gives comes from a from-scratch snapshot.
pub struct Oracle {
    pub db: Database,
    /// Epochs published so far (0 = the base data).
    pub seq: u64,
    log: TableId,
}

impl Oracle {
    pub fn new(db: Database, log: TableId) -> Oracle {
        Oracle { db, seq: 0, log }
    }

    /// Applies `mutate` as one epoch and returns the log rows it
    /// appended, ready for [`ingest_rows`] to feed the subject.
    pub fn ingest(&mut self, mutate: impl FnOnce(&mut Database)) -> Vec<Vec<Value>> {
        let before = self.log_len();
        mutate(&mut self.db);
        self.seq += 1;
        let log = self.db.table(self.log);
        (before..log.len())
            .map(|r| log.row(r as u32).to_vec())
            .collect()
    }

    pub fn log_len(&self) -> usize {
        self.db.table(self.log).len()
    }

    /// A cold engine over the oracle's current state.
    pub fn engine(&self) -> Engine {
        Engine::new(&self.db)
    }
}

/// Stages log `rows` (valid against `source`) into an in-flight batch,
/// strings re-interned through the batch so shard pools stay aligned.
/// Returns the rows as inserted (what a persist hook records).
pub fn stage_rows(
    batch: &mut ShardedBatch,
    source: &Database,
    rows: &[Vec<Value>],
) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| {
            let mapped: Vec<Value> = row
                .iter()
                .map(|v| match v {
                    Value::Str(s) => batch.str_value(source.pool().resolve(*s)),
                    other => *other,
                })
                .collect();
            batch.insert_log(mapped.clone()).expect("valid log row");
            mapped
        })
        .collect()
}

/// Ingests log `rows` (valid against `source`) into `sharded` as one
/// epoch.
pub fn ingest_rows(
    sharded: &ShardedEngine,
    source: &Database,
    rows: &[Vec<Value>],
) -> ShardedIngestReport {
    sharded
        .ingest(|batch| {
            stage_rows(batch, source, rows);
        })
        .1
}

// ------------------------------------------------ differential transcripts
//
// Every differential suite renders the full audit answer — per-query
// support and explained global row ids, the unexplained list, the
// recall/precision confusion counts, the day-bucketed timeline, the
// misuse triage queue, and per-patient portal reports — to one string,
// and compares the subject's string with the oracle's.

/// Patients whose portal reports the transcript includes (first, middle,
/// last of the pool — enough to cross shard boundaries at any count).
pub fn report_patients(world: &AuditWorld) -> Vec<Value> {
    let p = &world.patients;
    vec![p[0], p[p.len() / 2], p[p.len() - 1]]
}

/// Renders the audit transcript of one view. The oracle and the
/// scatter-gather path share this rendering *and* the audit layer's one
/// function per question; what differs is everything underneath — a cold
/// engine over one flat database versus forked, incrementally refreshed
/// shard engines behind local→global maps — plus the per-query rows,
/// which the caller supplies (the oracle's come from the cold
/// per-template walk, not from any engine).
fn render(
    world: &AuditWorld,
    log_len: usize,
    per_query: Vec<(usize, Vec<u32>)>,
    view: &AuditView,
) -> String {
    let spec = &world.spec;
    let cols = &world.hospital.log_cols;
    let mut out = format!("log {log_len}\n");
    for (i, (support, rows)) in per_query.iter().enumerate() {
        out.push_str(&format!("q{i} support {support} rows {rows:?}\n"));
    }
    let explained = explained(view, spec, world.explainer.templates());
    let residue = unexplained(view, spec, &explained);
    out.push_str(&format!("unexplained {:?}\n", residue.to_vec()));
    let confusion = metrics::evaluate(&anchors(view, spec), &explained, None, None);
    out.push_str(&format!(
        "confusion real {}/{} fake {}/{} with_events {}\n",
        confusion.real_explained,
        confusion.real_total,
        confusion.fake_explained,
        confusion.fake_total,
        confusion.real_with_events
    ));
    let t = timeline::daily_stats(view, spec, cols, world.hospital.config.days, &explained);
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
    for p in report_patients(world) {
        out.push_str(&format!("report {p:?}\n"));
        let report = portal::patient_report(view, spec, cols, &world.explainer, p)
            .expect("report evaluates");
        for e in report {
            out.push_str(&format!(
                "  {} {:?} {:?} {:?} {}\n",
                e.row,
                e.lid,
                e.date,
                e.user,
                e.display_text()
            ));
        }
    }
    out
}

/// The oracle's full audit transcript at its current epoch: per-query answers from
/// the reference row evaluator on the bare database, everything else
/// from a cold engine built for this call.
pub fn oracle_transcript(world: &AuditWorld, oracle: &Oracle) -> String {
    let per_query = world
        .suite()
        .iter()
        .map(|q| {
            (
                q.support(&oracle.db, EvalOptions::default())
                    .expect("suite evaluates"),
                q.explained_rows(&oracle.db, EvalOptions::default())
                    .expect("suite evaluates"),
            )
        })
        .collect();
    let engine = oracle.engine();
    render(
        world,
        oracle.log_len(),
        per_query,
        &AuditView::warm(&oracle.db, &engine),
    )
}

/// The scatter-gather transcript at one epoch vector. Row ids are global,
/// so a correct implementation renders byte-identically to the oracle.
pub fn sharded_transcript(world: &AuditWorld, epochs: &EpochVec) -> String {
    let view = AuditView::pinned(epochs);
    let per_query = world
        .suite()
        .iter()
        .map(|q| {
            let rows = view.eval_suite(std::slice::from_ref(q)).to_vec();
            let lids: HashSet<Value> = rows
                .iter()
                .map(|&r| view.log_row(q.log, r).1[q.lid_col])
                .collect();
            (lids.len(), rows)
        })
        .collect();
    render(world, epochs.global_log_len(), per_query, &view)
}

/// Observations of published epochs, keyed by sequence number: whoever
/// sees an epoch first records its log length, and every later observer
/// of the same seq must agree — epochs are immutable, so disagreement
/// means a torn snapshot.
#[derive(Default)]
pub struct EpochLog {
    observed: Mutex<HashMap<u64, usize>>,
}

impl EpochLog {
    pub fn new() -> EpochLog {
        EpochLog::default()
    }

    /// Records one observation of epoch `seq` with `log_len` rows.
    pub fn observe(&self, seq: u64, log_len: usize) {
        let mut map = self.observed.lock().unwrap();
        let prior = map.insert(seq, log_len);
        assert!(
            prior.is_none_or(|len| len == log_len),
            "seq {seq}: observers disagree on the epoch's log length \
             ({prior:?} vs {log_len})"
        );
    }

    /// Asserts that exactly epochs `0..=rounds` were observed and that
    /// the log grew strictly with every publication.
    pub fn assert_log_grew_each_epoch(self, rounds: u64) {
        let map = self.observed.into_inner().unwrap();
        let mut lens: Vec<(u64, usize)> = map.into_iter().collect();
        lens.sort_unstable();
        assert_eq!(lens.len() as u64, rounds + 1, "every epoch was observed");
        for w in lens.windows(2) {
            assert!(w[0].1 < w[1].1, "log grows with every epoch: {lens:?}");
        }
    }
}

/// Asserts the segmented-storage epoch-sharing invariant: every sealed
/// row segment `older` had is present — **by pointer** (`Arc::ptr_eq`) —
/// at the same position in `newer`. A pinned old epoch and the freshly
/// published one thus share all but the newest rows; a failure means a
/// publication copied (or worse, mutated a clone of) sealed data.
pub fn assert_sealed_segments_shared(older: &Table, newer: &Table, what: &str) {
    let old_segs = older.sealed_row_segments();
    let new_segs = newer.sealed_row_segments();
    assert!(
        old_segs.len() <= new_segs.len(),
        "{what}: the newer epoch lost sealed segments ({} -> {})",
        old_segs.len(),
        new_segs.len()
    );
    for (i, (a, b)) in old_segs.iter().zip(new_segs).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: sealed segment {i} was copied instead of shared"
        );
    }
}

/// The same invariant for the string interner: every sealed symbol
/// segment and every sealed lookup layer of `older` is present by
/// pointer in `newer`. Interned strings dominate a long-lived log's
/// heap, so a publication that silently copied the pool would turn the
/// `O(batch)` epoch cost into `O(total strings)` without any row-segment
/// assertion noticing.
pub fn assert_interner_shared(older: &StringPool, newer: &StringPool, what: &str) {
    let old_segs = older.sealed_segments();
    let new_segs = newer.sealed_segments();
    assert!(
        old_segs.len() <= new_segs.len(),
        "{what}: the newer pool lost sealed symbol segments ({} -> {})",
        old_segs.len(),
        new_segs.len()
    );
    for (i, (a, b)) in old_segs.iter().zip(new_segs).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: interner symbol segment {i} was copied instead of shared"
        );
    }
    let old_layers = older.lookup_layers();
    let new_layers = newer.lookup_layers();
    assert!(
        old_layers.len() <= new_layers.len(),
        "{what}: the newer pool lost lookup layers ({} -> {})",
        old_layers.len(),
        new_layers.len()
    );
    for (i, (a, b)) in old_layers.iter().zip(new_layers).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: interner lookup layer {i} was copied instead of shared"
        );
    }
}

/// Runs `readers` concurrent reader loops against one writer: each
/// reader is called with the shared done flag and must keep observing
/// until it is set (observing at least once *after* it is set, so the
/// final epoch is always covered); the writer runs to completion on the
/// harness thread, then the flag flips. Panics in any thread fail the
/// test.
pub fn readers_vs_writer(
    readers: usize,
    reader: impl Fn(usize, &AtomicBool) + Sync,
    writer: impl FnOnce(),
) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for i in 0..readers {
            let done = &done;
            let reader = &reader;
            scope.spawn(move || reader(i, done));
        }
        writer();
        done.store(true, Ordering::Relaxed);
    });
}

/// The canonical reader loop shape: `body` runs once per iteration until
/// the done flag is observed set, and exactly once more afterwards (the
/// pre-read snapshot of the flag decides the exit, so the iteration that
/// sees `done` still runs in full).
pub fn reader_loop(done: &AtomicBool, mut body: impl FnMut(usize)) {
    let mut iterations = 0usize;
    loop {
        let finished = done.load(Ordering::Relaxed);
        body(iterations);
        iterations += 1;
        if finished {
            break;
        }
    }
    assert!(iterations > 0);
}
