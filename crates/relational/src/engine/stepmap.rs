//! Memoized per-step join maps in CSR form.
//!
//! A [`ChainQuery`](crate::ChainQuery) step is characterized — for
//! anchor-independent evaluation — by `(table, enter_col, exit_col,
//! const-filters, dedup)`. Candidate paths generated during one mining run
//! overwhelmingly share steps (every extension of a frontier path repeats
//! all of the parent's steps), so the engine builds each distinct step's
//! `enter → {exits}` map **once** and shares it across all queries via the
//! [`Engine`](super::Engine) cache.
//!
//! The map itself is a CSR array over the dense id space: `offsets` has one
//! slot per interned id (plus one), `exits` concatenates the exit-id lists.
//! Probing is two array loads — no hashing on the join hot path.

use super::interner::{InternedDb, InternedTable, NULL_ID};
use crate::chain::{ChainStep, CmpOp, Rhs};
use crate::database::TableId;
use crate::types::ColId;
use crate::value::Value;
use std::sync::Arc;

/// Identity of a shareable step map.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct StepKey {
    pub table: TableId,
    pub enter_col: ColId,
    pub exit_col: ColId,
    /// Constant filters in declaration order (order matters for identity
    /// only, not results; canonicalizing it would merely improve sharing).
    pub const_filters: Vec<(ColId, CmpOp, Value)>,
    /// Whether distinct `(enter, exit)` projection is applied.
    pub dedup: bool,
}

impl StepKey {
    /// The key of a step under the given dedup setting.
    ///
    /// The key drops anchor-dependent filters, so it must never key the
    /// anchor-decorated step: the engine walks that step over its
    /// [`RowMap`] as an extremum fold, and stops prefix sharing before it.
    pub fn of(step: &ChainStep, dedup: bool) -> StepKey {
        StepKey {
            table: step.table,
            enter_col: step.enter_col,
            exit_col: step.exit_col,
            const_filters: step
                .filters
                .iter()
                .filter_map(|f| match f.rhs {
                    Rhs::Const(c) => Some((f.col, f.op, c)),
                    Rhs::AnchorCol(_) => None,
                })
                .collect(),
            dedup,
        }
    }
}

/// A built `enter → exits` map (CSR over the dense id space).
#[derive(Debug)]
pub(crate) struct StepMap {
    offsets: Vec<u32>,
    exits: Vec<u32>,
}

impl StepMap {
    /// Exit ids reachable from `enter` (with multiplicities unless the map
    /// was built with dedup).
    ///
    /// Ids interned *after* this map was built (an incremental refresh grew
    /// some other table) fall past `offsets` and resolve to the empty
    /// slice. That is exact, not an approximation: the map's own table did
    /// not grow (else the engine would have dropped the map), so a value
    /// unseen at build time cannot occur in any of its rows.
    #[inline]
    pub fn exits_of(&self, enter: u32) -> &[u32] {
        let i = enter as usize;
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.exits[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of stored `(enter, exit)` pairs.
    #[cfg(test)]
    pub fn pair_count(&self) -> usize {
        self.exits.len()
    }

    /// Builds the map for `key` from the interned snapshot.
    pub fn build(key: &StepKey, snapshot: &InternedDb) -> StepMap {
        let table = snapshot.table(key.table);
        let enter_col = &table.cols[key.enter_col];
        let exit_col = &table.cols[key.exit_col];

        let mut pairs: Vec<(u32, u32)> = Vec::new();
        // Sequential scan over the segmented columns: chained chunk
        // iteration, no per-row segment lookup.
        'rows: for (r, (&enter, &exit)) in enter_col.iter().zip(exit_col.iter()).enumerate() {
            if enter == NULL_ID || exit == NULL_ID {
                continue;
            }
            for &(col, op, rhs) in &key.const_filters {
                let lhs = snapshot.interner.value(table.cols[col][r]);
                if !op.eval(&lhs, &rhs) {
                    continue 'rows;
                }
            }
            pairs.push((enter, exit));
        }
        if key.dedup {
            pairs.sort_unstable();
            pairs.dedup();
        }

        // Counting sort into CSR (pairs may arrive in row order when dedup
        // is off; exit-list order never affects set-semantics evaluation).
        let n_ids = snapshot.interner.len();
        let mut counts = vec![0u32; n_ids + 1];
        for &(enter, _) in &pairs {
            counts[enter as usize + 1] += 1;
        }
        for i in 0..n_ids {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut exits = vec![0u32; pairs.len()];
        for &(enter, exit) in &pairs {
            let slot = &mut cursor[enter as usize];
            exits[*slot as usize] = exit;
            *slot += 1;
        }
        StepMap { offsets, exits }
    }
}

/// A built `enter → row indexes` map (CSR over the dense id space) for one
/// `(table, enter_col)` pair and one contiguous **row range** — what an
/// *anchor-decorated* step reads to fold, per exit value, the extremum of
/// its decorated column over the rows passing its `Const` filters (and
/// what the advance core walks backward).
///
/// Unlike [`StepMap`] it carries no filters in its identity: the map only
/// pre-groups the table's rows by enter id, the walk applies the step's
/// filters per row, and one map serves **every** decorated query entering
/// the table on that column, under either dedup setting.
///
/// Because tables are append-only, a map over rows `[from, to)` stays
/// valid forever — growth appends *new* chunks instead of invalidating
/// old ones ([`RowMapChunks`]), so bringing the cache up to date after an
/// ingest scans only the appended rows.
#[derive(Debug)]
pub(crate) struct RowMap {
    /// First enter id the CSR covers; ids below (or past the end) probe
    /// empty. Offset-compressing to the `[base, base + span)` id range
    /// actually present keeps a chunk's memory and build cost
    /// proportional to the *chunk*, not to the whole (ever-growing)
    /// interner id space.
    base: u32,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl RowMap {
    /// Row indexes (global table row ids) whose `enter_col` equals
    /// `enter` within this chunk's range (empty for ids outside the
    /// chunk's id span — exact for the same reason as
    /// [`StepMap::exits_of`]: an id absent at build time cannot occur in
    /// rows that have not changed).
    #[inline]
    pub fn rows_of(&self, enter: u32) -> &[u32] {
        if enter < self.base {
            return &[];
        }
        let i = (enter - self.base) as usize;
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Builds the map over all rows of one column of an interned table.
    #[cfg(test)]
    pub fn build(table: &InternedTable, enter_col: ColId) -> RowMap {
        Self::build_range(table, enter_col, 0, table.n_rows)
    }

    /// Builds the map over rows `[from, to)`, storing *global* row ids.
    /// NULL enters are skipped (NULL never equi-joins). Scans are
    /// chunk-wise ([`crate::segment::SegVec::iter_range`]) so neither
    /// extension nor a tier merge pays per-element segment resolution.
    pub fn build_range(table: &InternedTable, enter_col: ColId, from: usize, to: usize) -> RowMap {
        let enter = &table.cols[enter_col];
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for (_, &e) in enter.iter_range(from, to) {
            if e != NULL_ID {
                lo = lo.min(e);
                hi = hi.max(e);
            }
        }
        if lo > hi {
            // No non-null enters in the range.
            return RowMap {
                base: 0,
                offsets: vec![0],
                rows: Vec::new(),
            };
        }
        let span = (hi - lo) as usize + 1;
        let mut counts = vec![0u32; span + 1];
        for (_, &e) in enter.iter_range(from, to) {
            if e != NULL_ID {
                counts[(e - lo) as usize + 1] += 1;
            }
        }
        for i in 0..span {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let total = offsets[span] as usize;
        let mut rows = vec![0u32; total];
        for (r, &e) in enter.iter_range(from, to) {
            if e != NULL_ID {
                let slot = &mut cursor[(e - lo) as usize];
                rows[*slot as usize] = r as u32;
                *slot += 1;
            }
        }
        RowMap {
            base: lo,
            offsets,
            rows,
        }
    }
}

/// A chunked cache entry: `Arc`-shared chunks over disjoint, contiguous
/// row ranges covering `[0, covered)` of one append-only table. Chunks
/// over old rows stay exact forever and are shared with every engine fork
/// that inherited them; growth rebuilds only a suffix of the stack.
#[derive(Debug)]
pub(crate) struct Chunks<C> {
    pub chunks: Vec<Arc<C>>,
    /// `ends[i]` = one past the last row chunk `i` covers (chunk `i`
    /// starts where chunk `i - 1` ends, chunk 0 at row 0).
    ends: Vec<usize>,
}

impl<C> Default for Chunks<C> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<C> Clone for Chunks<C> {
    fn clone(&self) -> Self {
        Chunks {
            chunks: self.chunks.clone(),
            ends: self.ends.clone(),
        }
    }
}

impl<C> Chunks<C> {
    /// A single chunk covering rows `[0, to)` (or an uncached slice of
    /// them — the fused driver's range and row-set evaluators).
    pub fn one(chunk: C, to: usize) -> Self {
        Chunks {
            chunks: vec![Arc::new(chunk)],
            ends: vec![to],
        }
    }

    /// Rows covered by the chunks (the table's `n_rows` when last
    /// extended).
    pub fn covered(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Extends coverage to `[0, n_rows)` with **size-tiered merging**:
    /// the appended tail absorbs the newest chunk while that chunk is no
    /// more than twice the tail's size, and `build(from, to)` then runs
    /// once over the joined range. Every older chunk stays more than
    /// twice as large as its successor, so `N` extensions leave at most
    /// `log2(N) + 1` chunks, each row is rebuilt `O(log N)` times over
    /// its life, and `[0, covered)` is never rebuilt before the tail has
    /// grown to half of it.
    pub fn extend_to(&mut self, n_rows: usize, build: impl FnOnce(usize, usize) -> C) {
        // The tail is `[from, n_rows)`; the newest chunk is `[start, from)`.
        let mut from = self.covered();
        while let Some(i) = self.ends.len().checked_sub(1) {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            if from - start > 2 * (n_rows - from) {
                break;
            }
            self.ends.pop();
            self.chunks.pop();
            from = start;
        }
        self.chunks.push(Arc::new(build(from, n_rows)));
        self.ends.push(n_rows);
    }
}

/// The chunked per-`(table, enter_col)` row-map cache entry.
pub(crate) type RowMapChunks = Chunks<RowMap>;

impl Chunks<RowMap> {
    /// Candidate rows for `enter`, across all chunks (ascending: chunks
    /// are in row order and each chunk's lists are ascending).
    #[inline]
    pub fn rows_of(&self, enter: u32) -> impl Iterator<Item = u32> + '_ {
        self.chunks
            .iter()
            .flat_map(move |c| c.rows_of(enter).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::types::DataType;

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "E",
                &[
                    ("Enter", DataType::Int),
                    ("Exit", DataType::Int),
                    ("Tag", DataType::Int),
                ],
            )
            .unwrap();
        for (e, x, tag) in [(1, 10, 0), (1, 10, 1), (1, 11, 0), (2, 10, 0)] {
            db.insert(t, vec![Value::Int(e), Value::Int(x), Value::Int(tag)])
                .unwrap();
        }
        db.insert(t, vec![Value::Null, Value::Int(9), Value::Int(0)])
            .unwrap();
        db.insert(t, vec![Value::Int(3), Value::Null, Value::Int(0)])
            .unwrap();
        (db, t)
    }

    fn ids(snap: &InternedDb, vals: &[i64]) -> Vec<u32> {
        vals.iter()
            .map(|&v| snap.interner.id_of(&Value::Int(v)).unwrap())
            .collect()
    }

    #[test]
    fn dedup_collapses_duplicate_pairs() {
        let (db, t) = setup();
        let snap = InternedDb::snapshot(&db);
        let step = ChainStep::new(t, 0, 1);
        let with = StepMap::build(&StepKey::of(&step, true), &snap);
        let without = StepMap::build(&StepKey::of(&step, false), &snap);
        let [e1] = ids(&snap, &[1])[..] else { panic!() };
        // (1,10) appears twice in the data: kept once with dedup.
        assert_eq!(with.exits_of(e1).len(), 2);
        assert_eq!(without.exits_of(e1).len(), 3);
        assert_eq!(with.pair_count(), 3);
        assert_eq!(without.pair_count(), 4);
    }

    #[test]
    fn nulls_never_enter_the_map() {
        let (db, t) = setup();
        let snap = InternedDb::snapshot(&db);
        let map = StepMap::build(&StepKey::of(&ChainStep::new(t, 0, 1), true), &snap);
        let [e3] = ids(&snap, &[3])[..] else { panic!() };
        // Row (3, NULL) contributes nothing; NULL enters are absent too.
        assert!(map.exits_of(e3).is_empty());
    }

    #[test]
    fn const_filters_restrict_rows() {
        let (db, t) = setup();
        let snap = InternedDb::snapshot(&db);
        let mut step = ChainStep::new(t, 0, 1);
        step.filters.push(crate::chain::StepFilter {
            col: 2,
            op: CmpOp::Eq,
            rhs: Rhs::Const(Value::Int(1)),
        });
        let map = StepMap::build(&StepKey::of(&step, true), &snap);
        let [e1, e2] = ids(&snap, &[1, 2])[..] else {
            panic!()
        };
        assert_eq!(map.exits_of(e1).len(), 1); // only the Tag=1 row
        assert!(map.exits_of(e2).is_empty());
    }

    #[test]
    fn row_map_groups_rows_by_enter_id() {
        let (db, _t) = setup();
        let snap = InternedDb::snapshot(&db);
        let table = snap.table(crate::database::TableId(0));
        let map = RowMap::build(table, 0);
        let [e1, e2, e3] = ids(&snap, &[1, 2, 3])[..] else {
            panic!()
        };
        // Rows 0..=2 have Enter=1; row 3 has Enter=2; row 5 (Enter=3) has a
        // NULL exit but is still listed (the walk checks exits per row).
        assert_eq!(map.rows_of(e1), &[0, 1, 2]);
        assert_eq!(map.rows_of(e2), &[3]);
        assert_eq!(map.rows_of(e3), &[5]);
        // NULL enters (row 4) are in no bucket; out-of-range ids are empty.
        assert_eq!(map.rows.len(), 5);
        assert!(map.rows_of(snap.interner.len() as u32 + 7).is_empty());
    }

    #[test]
    fn range_chunks_are_offset_compressed_and_exact() {
        let (db, t) = setup();
        let snap = InternedDb::snapshot(&db);
        let table = snap.table(t);
        // A chunk over the last two rows only (the NULL-enter row and
        // Enter=3); its CSR covers just the id span present, and probes
        // outside that span — below base or past the end — are empty.
        let chunk = RowMap::build_range(table, 0, 4, 6);
        let [e1, e3] = ids(&snap, &[1, 3])[..] else {
            panic!()
        };
        assert_eq!(chunk.rows_of(e3), &[5]);
        assert!(chunk.rows_of(e1).is_empty(), "id below the chunk's base");
        assert!(chunk.rows_of(u32::MAX - 1).is_empty());
        assert_eq!(chunk.offsets.len(), 2, "CSR sized to the span, not n_ids");
        // An all-NULL (or empty) range yields an empty chunk.
        let empty = RowMap::build_range(table, 0, 4, 5);
        assert!(empty.rows.is_empty());
        assert!(empty.rows_of(e1).is_empty());
        // Chunks over [0,4) + [4,6) together equal the full build.
        let full = RowMap::build(table, 0);
        let head = RowMap::build_range(table, 0, 0, 4);
        for &e in &ids(&snap, &[1, 2, 3]) {
            let mut merged: Vec<u32> = head.rows_of(e).to_vec();
            merged.extend_from_slice(chunk.rows_of(e));
            assert_eq!(merged, full.rows_of(e));
        }
    }

    #[test]
    fn anchor_filters_are_excluded_from_keys() {
        let (_, t) = setup();
        let mut step = ChainStep::new(t, 0, 1);
        step.filters.push(crate::chain::StepFilter {
            col: 2,
            op: CmpOp::Lt,
            rhs: Rhs::AnchorCol(0),
        });
        // The anchor-dependent filter is not part of the shareable identity.
        assert_eq!(
            StepKey::of(&step, true),
            StepKey::of(&ChainStep::new(t, 0, 1), true)
        );
    }
}
