//! # eba-relational
//!
//! A small, self-contained, in-memory relational engine. It is the substrate
//! that `eba-core` runs explanation-template queries against, playing the
//! role PostgreSQL played in the original *Explanation-Based Auditing* system
//! (Fabbri & LeFevre, VLDB 2011).
//!
//! The engine provides exactly the capabilities the paper's SQL layer uses:
//!
//! * typed tables with named columns ([`TableSchema`], [`Table`]),
//! * key/foreign-key and administrator-declared relationship metadata, plus
//!   attributes explicitly allowed in self-joins ([`Database`]),
//! * hash indexes built lazily per column ([`table::Table::index`]),
//! * evaluation of *path-shaped* conjunctive equi-join queries, including the
//!   paper's support query `SELECT COUNT(DISTINCT Log.Lid) ...`
//!   ([`chain::ChainQuery`]),
//! * `SELECT DISTINCT` per-table de-duplication (the paper's "reducing result
//!   multiplicity" optimization is the default evaluation strategy),
//! * System-R-style cardinality estimation used by the paper's "skipping
//!   non-selective paths" optimization ([`stats`], [`chain::estimate_support`]).
//!
//! Strings are interned in a per-database [`StringPool`]; a [`Value`] is a
//! small, `Copy`, hashable scalar which keeps join evaluation allocation-free
//! on the hot path.
//!
//! Storage is **segmented and append-only** ([`segment`]): table row
//! heaps, interned engine columns, and the interner's lookup maps live
//! in immutable `Arc`-shared sealed segments plus a small mutable tail,
//! so cloning a [`Database`] or forking an [`Engine`] — epoch
//! publication — copies only the tails (`O(batch)`), and per-column hash
//! indexes are cached per segment so appends never drop warm indexes
//! over sealed data.
//!
//! # The evaluation engine
//!
//! [`ChainQuery`] evaluates one query at a time against the live tables.
//! Template mining instead evaluates *thousands* of candidate queries that
//! overwhelmingly share structure, so the [`engine`] module layers a shared
//! evaluation substrate on top:
//!
//! 1. **Value interner** ([`engine::InternedDb`]): one scan snapshots every
//!    table into columnar dense-`u32` form (`Value` ↔ id bijection, NULL as
//!    a sentinel), so frontier sets become bitset-deduplicated `Vec<u32>`s
//!    instead of `HashSet<Value>`s and the snapshot is `Send + Sync`.
//! 2. **Step-map cache** ([`Engine`]): each distinct step —
//!    `(table, enter_col, exit_col, const-filters, dedup)` — gets its
//!    `enter → {exits}` CSR map built **once** per engine and shared by
//!    every query that traverses it; the `(start, close) → rows` partition
//!    of the log is likewise computed once per anchor shape.
//! 3. **One fused driver** ([`Engine::eval_suite`], its restricted forms
//!    [`Engine::eval_suite_range`] and [`Engine::eval_suite_rows`], and
//!    [`Engine::support_many`] on top): a whole candidate frontier or
//!    template suite is evaluated in one pass against one cache, fanned
//!    out across threads ([`engine::par_map`]).
//! 4. **Incremental refresh** ([`Engine::refresh`]): tables are
//!    append-only, so a warm engine follows the growing log by scanning
//!    only the appended rows and dropping only the caches over tables that
//!    grew — a long-running auditing service keeps one engine per session
//!    instead of re-snapshotting per query.
//! 5. **Snapshot handoff** ([`ShardedEngine`], the one epoch handle): a
//!    service answering audit queries *while* the log ingests publishes
//!    immutable [`EpochVec`]s (per log shard: database + engine, frozen
//!    together under one sequence number; one shard is the unsharded
//!    engine); readers pin one vector per session and are never blocked
//!    by a refresh, the single writer refreshes private forks and swaps
//!    them in atomically. The [`Database`] itself is `Send + Sync`
//!    (poison-tolerant lazily-built caches, [`sync::unpoison`]), so one
//!    epoch serves any number of concurrent sessions — and a panicking
//!    query or ingest cannot poison the service into permanent failure.
//!
//! The engine returns **byte-identical** results to [`ChainQuery`] for
//! every query class (enforced differentially by the `engine_equivalence`
//! integration test); an anchor-decorated query walks the same grouped
//! path, its decorated step folding the min or max of the decorated
//! column, and each anchor row is compared with it once. `eba-core`'s
//! miner evaluates every bottom-up round and every decoration refinement
//! through it (its only evaluation path; the cold [`ChainQuery`] is the
//! tests' reference), and
//! `eba-audit`'s explainer, metrics, timeline, and portal layers batch
//! whole template suites through it.
//!
//! ```
//! use eba_relational::{Database, DataType, Value};
//!
//! let mut db = Database::new();
//! let t = db.create_table(
//!     "Appointments",
//!     &[("Patient", DataType::Int), ("Date", DataType::Date), ("Doctor", DataType::Int)],
//! ).unwrap();
//! db.insert(t, vec![Value::Int(1), Value::Date(10), Value::Int(7)]).unwrap();
//! assert_eq!(db.table(t).len(), 1);
//! ```

pub mod chain;
pub mod csv;
pub mod database;
pub mod engine;
pub mod error;
pub mod index;
pub mod pile;
pub mod pool;
pub mod rowset;
pub mod segment;
pub mod stats;
pub mod sync;
pub mod table;
pub mod types;
pub mod value;
pub mod wal;

pub use chain::{
    estimate_support, estimate_support_hinted, ChainQuery, ChainStep, CmpOp, EvalOptions, Instance,
    Rhs, StepFilter, StepTrace,
};
pub use database::{AttrRef, Database, RelationshipKind, TableId};
pub use engine::{
    shard_of, AdvanceStats, Engine, EpochVec, Maintained, RefreshDelta, RefreshError, RefreshStats,
    ShardEpoch, ShardKey, ShardRefresh, ShardedBatch, ShardedEngine, ShardedIngestReport, SuitePin,
};
pub use error::{Error, PileError, Result};
pub use index::{HashIndex, TableIndex};
pub use pile::{Batch, Durability, DurableStore, PlainValue, RecoveryReport};
pub use pool::{StringPool, Symbol};
pub use rowset::RowSet;
pub use segment::{SegVec, DEFAULT_SEGMENT_ROWS};
pub use stats::ColumnStats;
pub use table::{Row, RowId, Table};
pub use types::{ColId, Column, DataType, TableSchema};
pub use value::Value;
pub use wal::{FaultAfter, Media, RecordFile, ScanReport, SharedMem};
