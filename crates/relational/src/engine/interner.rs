//! Value interning and columnar interned table storage.
//!
//! The [`Engine`](super::Engine) never joins on [`Value`]s directly: at
//! construction it scans the database once, assigns every distinct non-null
//! cell value a dense `u32` id, and stores each table column-major as
//! `Vec<u32>`. Join evaluation then works purely on dense ids — frontier
//! sets are bitset-deduplicated `Vec<u32>`s instead of `HashSet<Value>`s,
//! and step maps are CSR arrays indexed by id ([`super::stepmap`]).
//!
//! Interning is *exact*: two cells get the same id iff their `Value`s are
//! equal (`Int(3)` and `Date(3)` stay distinct), so id equality is exactly
//! SQL equality for non-null values. NULL cells are stored as the reserved
//! [`NULL_ID`] sentinel, which no join ever matches — the same "NULL never
//! equi-joins" rule the row evaluator applies.

use crate::database::Database;
use crate::segment::{LayeredMap, SegVec};
use crate::value::Value;

/// Reserved id for SQL NULL. Never joins, never enters step maps.
pub const NULL_ID: u32 = u32::MAX;

/// Bijection between distinct non-null [`Value`]s and dense `u32` ids.
///
/// Both directions are stored in epoch-shareable form: `id → value` is a
/// segmented [`SegVec`] (sealed segments `Arc`-shared between forks),
/// `value → id` an LSM-style [`LayeredMap`] (immutable layers shared,
/// only the small tail copied). Cloning the interner — half of what
/// [`Engine::fork`](super::Engine::fork) does — is therefore `O(recent
/// values)`, not `O(distinct values)`; without this the reverse map alone
/// would make every epoch publication `O(database)` again (log ids are
/// distinct per row).
///
/// Construction costs one SipHash per non-null cell. [`InternedDb::snapshot`]
/// interns into a lookup map nothing else holds yet, so the map stays one
/// layer and each probe hashes the value once (see [`LayeredMap`]). On a
/// 2-core box the benchmark's `engine.cold_build_ms`, which is a snapshot
/// plus one pass of the served suite, reads about 46 ms on the 56k-row
/// `mine` world and 133 ms on the 157k-row `stream_large` world. A fork
/// shares that layer and interns new values into its own tail.
#[derive(Debug, Clone)]
pub struct Interner {
    ids: LayeredMap<Value, u32>,
    values: SegVec<Value>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::with_granularity(crate::segment::DEFAULT_SEGMENT_ROWS)
    }
}

impl Interner {
    /// An empty interner sealing its value segments (and lookup layers)
    /// every `granularity` entries. [`InternedDb::snapshot`] mirrors the
    /// source database's segment capacity so publication cost bounds
    /// track the database's own.
    pub fn with_granularity(granularity: usize) -> Self {
        Interner {
            ids: LayeredMap::with_tail_cap(granularity.max(1)),
            values: SegVec::new(granularity.max(1)),
        }
    }
    /// Interns `v`, returning its dense id.
    ///
    /// # Panics
    /// Panics on [`Value::Null`] (NULL has the reserved [`NULL_ID`]) and
    /// when the id space is exhausted.
    fn intern(&mut self, v: Value) -> u32 {
        debug_assert!(!v.is_null(), "NULL is represented by NULL_ID");
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("more than u32::MAX - 1 distinct values");
        assert!(id != NULL_ID, "id space exhausted");
        self.values.push(v);
        self.ids.insert(v, id);
        id
    }

    /// The id of `v`, if it occurs anywhere in the snapshot.
    pub fn id_of(&self, v: &Value) -> Option<u32> {
        self.ids.get(v).copied()
    }

    /// The value behind an id ([`NULL_ID`] resolves to [`Value::Null`]).
    ///
    /// # Panics
    /// Panics if `id` is neither [`NULL_ID`] nor an id this interner issued.
    pub fn value(&self, id: u32) -> Value {
        if id == NULL_ID {
            Value::Null
        } else {
            *self.values.get(id as usize)
        }
    }

    /// Number of distinct interned values — the size of the dense id space.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One table stored column-major as interned ids, each column a
/// segmented [`SegVec`]: sealed segments are immutable and `Arc`-shared
/// between engine forks (epochs), the tail is what a fork copies.
#[derive(Debug, Clone)]
pub struct InternedTable {
    /// `cols[c][r]` is the interned id of cell `(r, c)`. Full scans
    /// should iterate [`SegVec::chunks`]/[`SegVec::iter`] rather than
    /// index row-by-row.
    pub cols: Vec<SegVec<u32>>,
    /// Number of rows.
    pub n_rows: usize,
}

impl InternedTable {
    /// The interned id at `(row, col)`.
    #[inline]
    pub fn id(&self, row: usize, col: usize) -> u32 {
        self.cols[col][row]
    }
}

/// A full interned, columnar snapshot of a [`Database`].
///
/// The snapshot is immutable between refreshes and self-contained
/// (`Send + Sync`), which is what lets batch evaluation fan out across
/// threads without ever touching the live `Database` (itself also
/// `Send + Sync` now, but contended differently: its lazily-built index
/// caches are lock-guarded, while the snapshot's columns are plain
/// shared memory).
///
/// Because [`Table`](crate::Table)s are structurally append-only (there is
/// no row update or delete API), a snapshot can be brought up to date
/// *incrementally*: [`InternedDb::refresh`] scans only the rows appended
/// since the last snapshot/refresh and interns only values it has never
/// seen — existing ids are never reassigned, so data structures keyed on
/// old ids (step maps over tables that did not grow, scratch bitsets)
/// remain valid.
#[derive(Debug, Clone)]
pub struct InternedDb {
    /// One interned table per catalog table, in [`crate::TableId`] order.
    pub tables: Vec<InternedTable>,
    /// The shared id space.
    pub interner: Interner,
}

/// Why a refresh was refused. Refreshing is only defined against the
/// append-only database a snapshot was built from; a shrinking table is the
/// telltale of refreshing against an unrelated (or rolled-back) database.
///
/// A failed refresh leaves the snapshot **untouched** — shrinkage is
/// detected in a read-only pre-pass before anything is interned — so the
/// caller can keep serving from the old snapshot, or rebuild from scratch
/// (what [`ShardedEngine`](super::ShardedEngine)'s writer does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshError {
    /// A table has fewer rows than the snapshot recorded.
    TableShrank {
        /// Name of the offending table.
        table: String,
        /// Rows the snapshot holds.
        had: usize,
        /// Rows the database now reports.
        now: usize,
    },
    /// The database has fewer tables than the snapshot recorded.
    CatalogShrank {
        /// Tables the snapshot holds.
        had: usize,
        /// Tables the database now reports.
        now: usize,
    },
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::TableShrank { table, had, now } => write!(
                f,
                "table `{table}` shrank ({had} -> {now} rows): snapshots only refresh \
                 against the append-only database they were built from"
            ),
            RefreshError::CatalogShrank { had, now } => write!(
                f,
                "catalog shrank ({had} -> {now} tables): snapshots only refresh \
                 against the append-only database they were built from"
            ),
        }
    }
}

impl std::error::Error for RefreshError {}

/// What a [`InternedDb::refresh`] changed — the engine uses this to
/// invalidate exactly the caches the append touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshDelta {
    /// Tables that gained rows (including tables created after the last
    /// snapshot, which arrive with all their rows "new").
    pub grown: Vec<crate::database::TableId>,
    /// Total rows appended across all tables.
    pub new_rows: usize,
    /// Distinct values interned for the first time.
    pub new_values: usize,
}

impl RefreshDelta {
    /// True when the refresh found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.grown.is_empty()
    }
}

impl InternedDb {
    /// Scans `db` once and interns every cell of every table.
    pub fn snapshot(db: &Database) -> Self {
        let mut snap = InternedDb {
            tables: Vec::new(),
            interner: Interner::with_granularity(db.segment_rows()),
        };
        snap.refresh(db)
            .expect("a fresh snapshot has nothing to shrink");
        snap
    }

    /// Brings the snapshot up to date with `db`, scanning **only** the
    /// rows appended since the last snapshot/refresh (plus any tables
    /// created since). Returns which tables grew so callers can invalidate
    /// dependent caches selectively.
    ///
    /// Interning is append-only: ids issued earlier keep their values, so
    /// anything built against an un-grown table stays exact.
    ///
    /// # Errors
    /// Returns a [`RefreshError`] — and leaves the snapshot untouched — if
    /// a table (or the catalog) shrank: the `Table` API is append-only, so
    /// a shorter table means `db` is not the database this snapshot was
    /// built from.
    pub fn refresh(&mut self, db: &Database) -> Result<RefreshDelta, RefreshError> {
        // Read-only pre-pass: refuse (without mutating anything) before a
        // partial refresh could tear the snapshot.
        if db.table_count() < self.tables.len() {
            return Err(RefreshError::CatalogShrank {
                had: self.tables.len(),
                now: db.table_count(),
            });
        }
        for tid in db.table_ids() {
            if tid.0 < self.tables.len() && db.table(tid).len() < self.tables[tid.0].n_rows {
                return Err(RefreshError::TableShrank {
                    table: db.table(tid).name().to_string(),
                    had: self.tables[tid.0].n_rows,
                    now: db.table(tid).len(),
                });
            }
        }
        let mut delta = RefreshDelta::default();
        let values_before = self.interner.len();
        for tid in db.table_ids() {
            let table = db.table(tid);
            let it = if tid.0 < self.tables.len() {
                &mut self.tables[tid.0]
            } else {
                debug_assert_eq!(tid.0, self.tables.len(), "table ids are dense");
                self.tables.push(InternedTable {
                    // Mirror the source table's segment capacity so the
                    // snapshot's share boundaries track the database's.
                    cols: (0..table.schema().arity())
                        .map(|_| SegVec::new(table.segment_rows()))
                        .collect(),
                    n_rows: 0,
                });
                self.tables.last_mut().expect("just pushed")
            };
            if table.len() == it.n_rows {
                continue;
            }
            for r in it.n_rows..table.len() {
                for (c, v) in table.row(r as crate::table::RowId).iter().enumerate() {
                    it.cols[c].push(if v.is_null() {
                        NULL_ID
                    } else {
                        self.interner.intern(*v)
                    });
                }
            }
            delta.new_rows += table.len() - it.n_rows;
            it.n_rows = table.len();
            delta.grown.push(tid);
        }
        delta.new_values = self.interner.len() - values_before;
        Ok(delta)
    }

    /// The interned table behind a catalog id.
    #[inline]
    pub fn table(&self, id: crate::database::TableId) -> &InternedTable {
        &self.tables[id.0]
    }

    /// Rows of table `id` in this snapshot; 0 for a table created after
    /// it was taken.
    pub(crate) fn rows_in(&self, id: crate::database::TableId) -> usize {
        self.tables.get(id.0).map_or(0, |t| t.n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use std::sync::Arc;

    #[test]
    fn snapshot_interns_exactly() {
        let mut db = Database::new();
        let t = db
            .create_table("T", &[("A", DataType::Int), ("B", DataType::Date)])
            .unwrap();
        db.insert(t, vec![Value::Int(3), Value::Date(3)]).unwrap();
        db.insert(t, vec![Value::Int(3), Value::Null]).unwrap();
        let snap = InternedDb::snapshot(&db);
        let it = snap.table(t);
        // Int(3) and Date(3) are distinct values, hence distinct ids.
        assert_ne!(it.id(0, 0), it.id(0, 1));
        // The repeated Int(3) shares its id.
        assert_eq!(it.id(0, 0), it.id(1, 0));
        // NULL is the sentinel.
        assert_eq!(it.id(1, 1), NULL_ID);
        assert_eq!(snap.interner.value(NULL_ID), Value::Null);
        assert_eq!(snap.interner.value(it.id(0, 0)), Value::Int(3));
        assert_eq!(snap.interner.len(), 2);
    }

    #[test]
    fn refresh_extends_without_reassigning_ids() {
        let mut db = Database::new();
        let t = db.create_table("T", &[("A", DataType::Int)]).unwrap();
        db.insert(t, vec![Value::Int(1)]).unwrap();
        let mut snap = InternedDb::snapshot(&db);
        let id1 = snap.interner.id_of(&Value::Int(1)).unwrap();

        // Appending an existing value grows the table but not the id space.
        db.insert(t, vec![Value::Int(1)]).unwrap();
        // A new value and a new table both extend the id space.
        db.insert(t, vec![Value::Int(2)]).unwrap();
        let u = db.create_table("U", &[("B", DataType::Int)]).unwrap();
        db.insert(u, vec![Value::Int(2)]).unwrap();
        db.insert(u, vec![Value::Int(3)]).unwrap();

        let delta = snap.refresh(&db).unwrap();
        assert_eq!(delta.grown, vec![t, u]);
        assert_eq!(delta.new_rows, 4);
        assert_eq!(delta.new_values, 2); // Int(2), Int(3)
        assert_eq!(snap.interner.id_of(&Value::Int(1)), Some(id1));
        assert_eq!(snap.table(t).n_rows, 3);
        assert_eq!(snap.table(t).id(1, 0), id1);
        // The shared id space: U's Int(2) matches T's Int(2).
        assert_eq!(snap.table(u).id(0, 0), snap.table(t).id(2, 0));

        // A second refresh with nothing appended is a no-op.
        let delta = snap.refresh(&db).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.new_rows, 0);
    }

    #[test]
    fn refresh_against_a_shrunk_database_fails_without_tearing() {
        let mut db = Database::new();
        let t = db.create_table("T", &[("A", DataType::Int)]).unwrap();
        db.insert(t, vec![Value::Int(1)]).unwrap();
        db.insert(t, vec![Value::Int(2)]).unwrap();
        let mut snap = InternedDb::snapshot(&db);

        // An unrelated database whose T has fewer rows.
        let mut other = Database::new();
        let ot = other.create_table("T", &[("A", DataType::Int)]).unwrap();
        other.insert(ot, vec![Value::Int(9)]).unwrap();
        let err = snap.refresh(&other).unwrap_err();
        assert_eq!(
            err,
            RefreshError::TableShrank {
                table: "T".into(),
                had: 2,
                now: 1
            }
        );
        assert!(err.to_string().contains("shrank"));
        // The snapshot is untouched and still refreshes against its own db.
        assert_eq!(snap.table(t).n_rows, 2);
        assert_eq!(snap.interner.len(), 2);
        db.insert(t, vec![Value::Int(3)]).unwrap();
        assert_eq!(snap.refresh(&db).unwrap().new_rows, 1);
        assert_eq!(snap.table(t).n_rows, 3);
    }

    #[test]
    fn refresh_against_a_shrunk_catalog_fails() {
        let mut db = Database::new();
        db.create_table("T", &[("A", DataType::Int)]).unwrap();
        db.create_table("U", &[("B", DataType::Int)]).unwrap();
        let mut snap = InternedDb::snapshot(&db);
        let mut other = Database::new();
        other.create_table("T", &[("A", DataType::Int)]).unwrap();
        assert_eq!(
            snap.refresh(&other).unwrap_err(),
            RefreshError::CatalogShrank { had: 2, now: 1 }
        );
    }

    #[test]
    fn refresh_interns_appended_nulls_as_sentinel() {
        let mut db = Database::new();
        let t = db.create_table("T", &[("A", DataType::Int)]).unwrap();
        let mut snap = InternedDb::snapshot(&db);
        db.insert(t, vec![Value::Null]).unwrap();
        let delta = snap.refresh(&db).unwrap();
        assert_eq!(delta.new_values, 0);
        assert_eq!(snap.table(t).id(0, 0), NULL_ID);
    }

    /// A cold snapshot is never cloned while it interns, so its lookup
    /// ends as one layer (one hash per probe); a fork refreshed later
    /// shares that layer and writes only its own tail.
    #[test]
    fn snapshot_lookup_is_one_layer_until_forked() {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                    ("Date", DataType::Date),
                ],
            )
            .unwrap();
        let users = db
            .create_table("Users", &[("User", DataType::Int), ("Dept", DataType::Str)])
            .unwrap();
        for u in 0..40i64 {
            let dept = db.str_value(&format!("dept-{}", u % 6));
            db.insert(users, vec![Value::Int(u), dept]).unwrap();
        }
        for i in 0..3_000i64 {
            db.insert(
                log,
                vec![
                    Value::Int(100_000 + i),
                    Value::Int(i % 40),
                    Value::Int(i % 700),
                    Value::Date(i / 7),
                ],
            )
            .unwrap();
        }
        let snap = InternedDb::snapshot(&db);
        let n = snap.interner.len();
        assert!(n > 2 * db.segment_rows(), "{n} ids");
        assert_eq!(snap.interner.ids.layer_count(), 1);
        assert_eq!(snap.interner.ids.layers()[0].len(), n, "no tail left");

        let mut fork = snap.clone();
        db.insert(
            log,
            vec![
                Value::Int(-1),
                Value::Int(-2),
                Value::Int(-3),
                Value::Date(-4),
            ],
        )
        .unwrap();
        assert_eq!(fork.refresh(&db).unwrap().new_values, 4);
        assert!(Arc::ptr_eq(
            &snap.interner.ids.layers()[0],
            &fork.interner.ids.layers()[0]
        ));
        assert_eq!(snap.interner.ids.layers()[0].len(), n);
        assert_eq!(snap.interner.id_of(&Value::Int(-1)), None);
        assert_eq!(fork.interner.id_of(&Value::Int(-1)), Some(n as u32));
    }

    #[test]
    fn id_lookup_round_trips() {
        let mut db = Database::new();
        let t = db.create_table("T", &[("A", DataType::Int)]).unwrap();
        for i in 0..10 {
            db.insert(t, vec![Value::Int(i % 4)]).unwrap();
        }
        let snap = InternedDb::snapshot(&db);
        for i in 0..4 {
            let id = snap.interner.id_of(&Value::Int(i)).unwrap();
            assert_eq!(snap.interner.value(id), Value::Int(i));
        }
        assert_eq!(snap.interner.id_of(&Value::Int(99)), None);
        assert_eq!(snap.interner.len(), 4);
    }
}
