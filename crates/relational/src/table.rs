//! Row storage.

use crate::error::{Error, Result};
use crate::index::{HashIndex, TableIndex};
use crate::segment::{SegVec, DEFAULT_SEGMENT_ROWS};
use crate::sync::unpoison;
use crate::types::{ColId, TableSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A row is a boxed slice of values, one per schema column.
pub type Row = Box<[Value]>;

/// Index of a row within its table.
pub type RowId = u32;

/// Cached per-column index state: one immutable index per sealed row
/// segment (aligned with [`SegVec::sealed_segments`]) plus one over the
/// tail rows covered at build time. Sealed parts stay valid forever
/// (segments are immutable); only the tail part goes stale on append.
#[derive(Debug, Clone)]
struct ColIndexCache {
    sealed: Vec<Arc<HashIndex>>,
    tail: Arc<HashIndex>,
    /// Rows covered when the tail part was built (`== table.len()` at
    /// build time; a smaller value means the tail part is stale).
    covered: usize,
}

/// A heap of rows plus lazily-built per-column hash indexes.
///
/// Tables are **append-only**: the auditing workload never updates or
/// deletes (access logs are immutable by design). Rows therefore live in
/// a [`SegVec`]: immutable sealed segments shared via `Arc` between
/// clones — i.e. between published [`EpochVec`](crate::engine::EpochVec)s —
/// plus a small mutable tail, which is all a clone copies. That makes
/// epoch publication `O(batch)`, not `O(table)`.
///
/// The index cache is segmented the same way ([`ColIndexCache`]): an
/// append leaves every index over sealed data warm and shared; only the
/// small tail part is rebuilt on next use. The cache sits behind a
/// poison-tolerant `RwLock` so that read-only query evaluation
/// (`&Table`) can populate it from any thread — a pinned epoch is read
/// concurrently by every auditing session that loaded it.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    rows: SegVec<Row>,
    indexes: RwLock<HashMap<ColId, ColIndexCache>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            // Sealed segments are Arc-shared; only the tail is copied.
            rows: self.rows.clone(),
            // Index parts are immutable; the clone shares them and each
            // side extends its own cache as its rows grow.
            indexes: RwLock::new(unpoison(self.indexes.read()).clone()),
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema and the default
    /// segment capacity.
    pub fn new(schema: TableSchema) -> Self {
        Self::with_segment_rows(schema, DEFAULT_SEGMENT_ROWS)
    }

    /// Creates an empty table sealing row segments at `seg_rows` rows
    /// (tests use tiny capacities to exercise segmentation on small
    /// data).
    pub fn with_segment_rows(schema: TableSchema, seg_rows: usize) -> Self {
        Table {
            schema,
            rows: SegVec::new(seg_rows),
            indexes: RwLock::new(HashMap::new()),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row-segment capacity this table seals at.
    pub fn segment_rows(&self) -> usize {
        self.rows.segment_rows()
    }

    /// The sealed (immutable, `Arc`-shared) row segments, oldest first.
    /// Clones of this table share them by pointer — the storage
    /// equivalence suite asserts exactly that across epochs.
    pub fn sealed_row_segments(&self) -> &[Arc<[Row]>] {
        self.rows.sealed_segments()
    }

    /// Seals the mutable tail into an immutable shared segment (contents
    /// and row ids are unchanged; only the share boundary moves). The
    /// append path seals automatically at the segment capacity; this is
    /// the explicit form for snapshot/ops flows and tests.
    pub fn seal(&mut self) {
        self.rows.seal();
    }

    /// Validates and appends a row. Indexes over sealed segments stay
    /// warm; only the tail part of each column's index goes stale (and is
    /// rebuilt on next use).
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        if values.len() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            if let Some(dt) = v.data_type() {
                if dt != self.schema.col_type(i) {
                    return Err(Error::TypeMismatch {
                        table: self.schema.name.clone(),
                        column: self.schema.col_name(i).to_string(),
                        expected: self.schema.col_type(i).name(),
                        got: v.type_name(),
                    });
                }
            }
        }
        let id = u32::try_from(self.rows.len()).expect("more than u32::MAX rows");
        self.rows.push(values.into_boxed_slice());
        Ok(id)
    }

    /// Bulk insert; stops at the first invalid row.
    pub fn insert_all<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Borrow a row by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn row(&self, id: RowId) -> &[Value] {
        self.rows.get(id as usize)
    }

    /// A single cell.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn cell(&self, id: RowId, col: ColId) -> Value {
        self.rows.get(id as usize)[col]
    }

    /// Iterate over `(RowId, &row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as RowId, r.as_ref()))
    }

    /// Returns (building what is missing) the composed hash index for
    /// `col`.
    ///
    /// The view is assembled from per-segment parts: parts over sealed
    /// segments are cached forever (and shared with clones of this
    /// table); the tail part is rebuilt only when rows were appended
    /// since it was built. The returned [`TableIndex`] is a cheap handle
    /// callers can keep across lookups without re-entering the cache.
    pub fn index(&self, col: ColId) -> TableIndex {
        let n_segments = self.rows.sealed_segments().len();
        let len = self.rows.len();
        if let Some(cached) = unpoison(self.indexes.read()).get(&col) {
            if cached.sealed.len() == n_segments && cached.covered == len {
                return self.compose(cached);
            }
        }
        // Reconcile: reuse every cached sealed part, build indexes for
        // segments sealed since, rebuild the tail part.
        let cached_sealed: Vec<Arc<HashIndex>> = unpoison(self.indexes.read())
            .get(&col)
            .map(|c| c.sealed.clone())
            .unwrap_or_default();
        let mut sealed = cached_sealed;
        sealed.truncate(n_segments);
        for (i, seg) in self
            .rows
            .sealed_segments()
            .iter()
            .enumerate()
            .skip(sealed.len())
        {
            let (start, _) = self.rows.segment_bounds(i);
            sealed.push(Arc::new(HashIndex::build_offset(
                seg.iter().map(|r| r[col]),
                start as RowId,
            )));
        }
        let tail_base = self.rows.sealed_len();
        let tail = Arc::new(HashIndex::build_offset(
            self.rows.tail().iter().map(|r| r[col]),
            tail_base as RowId,
        ));
        let fresh = ColIndexCache {
            sealed,
            tail,
            covered: len,
        };
        let view = self.compose(&fresh);
        let mut cache = unpoison(self.indexes.write());
        // Another thread may have reconciled meanwhile; the newer state
        // (more coverage) wins — both are correct for their coverage.
        match cache.get(&col) {
            Some(existing) if existing.covered >= len && existing.sealed.len() >= n_segments => {}
            _ => {
                cache.insert(col, fresh);
            }
        }
        view
    }

    fn compose(&self, cache: &ColIndexCache) -> TableIndex {
        let mut parts = Vec::with_capacity(cache.sealed.len() + 1);
        parts.extend(cache.sealed.iter().cloned());
        if cache.tail.entry_count() > 0 {
            parts.push(cache.tail.clone());
        }
        TableIndex::new(parts)
    }

    /// Row ids whose `col` equals `value`, ascending (empty for NULL
    /// probes, per SQL equality).
    pub fn rows_with(&self, col: ColId, value: Value) -> Vec<RowId> {
        if value.is_null() {
            return Vec::new();
        }
        self.index(col).rows_of(value).collect()
    }

    /// Number of distinct non-null values in `col`.
    pub fn distinct_count(&self, col: ColId) -> usize {
        self.index(col).distinct_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn log_table() -> Table {
        Table::new(TableSchema::new(
            "Log",
            &[
                ("Lid", DataType::Int),
                ("User", DataType::Int),
                ("Patient", DataType::Int),
            ],
        ))
    }

    fn tiny_seg_table(seg_rows: usize) -> Table {
        Table::with_segment_rows(
            TableSchema::new(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            ),
            seg_rows,
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = log_table();
        let id = t
            .insert(vec![Value::Int(1), Value::Int(10), Value::Int(100)])
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(t.row(0), &[Value::Int(1), Value::Int(10), Value::Int(100)]);
        assert_eq!(t.cell(0, 2), Value::Int(100));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_is_checked() {
        let mut t = log_table();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            Error::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn types_are_checked_but_null_is_allowed() {
        let mut t = log_table();
        let err = t
            .insert(vec![Value::Int(1), Value::Date(0), Value::Int(2)])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        // NULL fits any column.
        t.insert(vec![Value::Int(1), Value::Null, Value::Int(2)])
            .unwrap();
    }

    #[test]
    fn index_lookup_finds_all_matches() {
        let mut t = log_table();
        for (lid, user, patient) in [(1, 10, 100), (2, 11, 100), (3, 10, 101)] {
            t.insert(vec![Value::Int(lid), Value::Int(user), Value::Int(patient)])
                .unwrap();
        }
        assert_eq!(t.rows_with(2, Value::Int(100)), vec![0, 1]);
        assert_eq!(t.rows_with(1, Value::Int(10)), vec![0, 2]);
        assert_eq!(t.rows_with(1, Value::Int(99)), Vec::<RowId>::new());
        assert_eq!(t.distinct_count(1), 2);
    }

    #[test]
    fn null_probe_matches_nothing() {
        let mut t = log_table();
        t.insert(vec![Value::Int(1), Value::Null, Value::Int(2)])
            .unwrap();
        assert!(t.rows_with(1, Value::Null).is_empty());
    }

    #[test]
    fn appends_are_visible_through_a_warm_index() {
        let mut t = log_table();
        t.insert(vec![Value::Int(1), Value::Int(5), Value::Int(9)])
            .unwrap();
        assert_eq!(t.rows_with(1, Value::Int(5)).len(), 1);
        t.insert(vec![Value::Int(2), Value::Int(5), Value::Int(9)])
            .unwrap();
        assert_eq!(t.rows_with(1, Value::Int(5)).len(), 2);
    }

    #[test]
    fn warm_index_over_sealed_segments_survives_an_ingest() {
        // Regression for the coarse invalidation this cache replaced: an
        // append used to drop *every* cached index; now only the tail
        // part is rebuilt and the sealed parts are reused by pointer.
        let mut t = tiny_seg_table(2);
        for i in 0..5i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 2), Value::Int(9)])
                .unwrap();
        }
        assert_eq!(t.sealed_row_segments().len(), 2);
        let warm = t.index(1);
        assert_eq!(warm.parts().len(), 3, "two sealed parts + tail");
        // Ingest one more row (still in the tail).
        t.insert(vec![Value::Int(5), Value::Int(1), Value::Int(9)])
            .unwrap();
        let after = t.index(1);
        for (w, a) in warm.parts().iter().zip(after.parts()) {
            if w.get(Value::Int(0)).iter().any(|&r| r < 4) {
                assert!(Arc::ptr_eq(w, a), "sealed index part was rebuilt");
            }
        }
        assert!(
            Arc::ptr_eq(&warm.parts()[0], &after.parts()[0]),
            "first sealed part survives the ingest"
        );
        assert!(
            Arc::ptr_eq(&warm.parts()[1], &after.parts()[1]),
            "second sealed part survives the ingest"
        );
        // And results are exact: old rows plus the appended one.
        assert_eq!(t.rows_with(1, Value::Int(1)), vec![1, 3, 5]);
        // Crossing a segment boundary promotes tail rows into a new
        // sealed part; earlier sealed parts are *still* reused.
        t.insert(vec![Value::Int(6), Value::Int(0), Value::Int(9)])
            .unwrap();
        let promoted = t.index(1);
        assert!(Arc::ptr_eq(&after.parts()[0], &promoted.parts()[0]));
        assert!(Arc::ptr_eq(&after.parts()[1], &promoted.parts()[1]));
        assert_eq!(t.rows_with(1, Value::Int(0)), vec![0, 2, 4, 6]);
    }

    #[test]
    fn clones_share_sealed_segments_and_diverge_in_the_tail() {
        let mut t = tiny_seg_table(2);
        for i in 0..5i64 {
            t.insert(vec![Value::Int(i), Value::Int(0), Value::Int(0)])
                .unwrap();
        }
        let epoch = t.clone();
        for (a, b) in t
            .sealed_row_segments()
            .iter()
            .zip(epoch.sealed_row_segments())
        {
            assert!(Arc::ptr_eq(a, b), "clone shares sealed segments");
        }
        t.insert(vec![Value::Int(9), Value::Int(0), Value::Int(0)])
            .unwrap();
        assert_eq!(epoch.len(), 5, "the clone is frozen");
        assert_eq!(t.len(), 6);
        assert_eq!(epoch.cell(4, 0), Value::Int(4));
    }

    #[test]
    fn explicit_seal_keeps_contents_and_indexes_exact() {
        let mut t = log_table();
        t.insert(vec![Value::Int(1), Value::Int(5), Value::Int(9)])
            .unwrap();
        let before = t.rows_with(1, Value::Int(5));
        t.seal();
        assert_eq!(t.sealed_row_segments().len(), 1);
        assert_eq!(t.rows_with(1, Value::Int(5)), before);
        assert_eq!(t.row(0), &[Value::Int(1), Value::Int(5), Value::Int(9)]);
        t.insert(vec![Value::Int(2), Value::Int(5), Value::Int(9)])
            .unwrap();
        assert_eq!(t.rows_with(1, Value::Int(5)), vec![0, 1]);
    }
}
