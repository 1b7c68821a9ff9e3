//! The catalog: tables, relationship metadata, and the string pool.

use crate::error::{Error, Result};
use crate::pool::{StringPool, Symbol};
use crate::stats::ColumnStats;
use crate::sync::unpoison;
use crate::table::{RowId, Table};
use crate::types::{ColId, DataType, TableSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::RwLock;

/// Identifier of a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// A fully-qualified attribute: `table.column`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// Owning table.
    pub table: TableId,
    /// Column within the table.
    pub col: ColId,
}

impl AttrRef {
    /// Convenience constructor.
    pub fn new(table: TableId, col: ColId) -> Self {
        AttrRef { table, col }
    }
}

/// Why two attributes are declared joinable (Def. 5 restricts explanation
/// edges to exactly these three sources, plus self-joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationshipKind {
    /// Key–foreign-key relationship derived from the schema.
    ForeignKey,
    /// Relationship explicitly provided by the administrator.
    Administrator,
}

/// A declared equi-join relationship between two attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relationship {
    /// One endpoint.
    pub from: AttrRef,
    /// Other endpoint.
    pub to: AttrRef,
    /// Declaration source.
    pub kind: RelationshipKind,
}

/// An in-memory database: tables, join metadata, and interned strings.
///
/// `Database` is `Send + Sync`: its lazily-populated caches (per-column
/// hash indexes, column statistics) sit behind poison-tolerant locks, so a
/// read-only snapshot — e.g. the one pinned inside an
/// [`EpochVec`](crate::engine::EpochVec) — can serve query evaluation from many
/// auditing sessions concurrently.
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    relationships: Vec<Relationship>,
    self_join_attrs: Vec<AttrRef>,
    pool: StringPool,
    stats_cache: RwLock<HashMap<AttrRef, ColumnStats>>,
    seg_rows: usize,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            // Tables are segmented ([`crate::segment::SegVec`]): the
            // clone shares every sealed row segment by pointer and copies
            // only each table's small mutable tail — this is what makes
            // epoch publication `O(batch)`.
            tables: self.tables.clone(),
            by_name: self.by_name.clone(),
            relationships: self.relationships.clone(),
            self_join_attrs: self.self_join_attrs.clone(),
            pool: self.pool.clone(),
            stats_cache: RwLock::new(unpoison(self.stats_cache.read()).clone()),
            seg_rows: self.seg_rows,
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            tables: Vec::new(),
            by_name: HashMap::new(),
            relationships: Vec::new(),
            self_join_attrs: Vec::new(),
            pool: StringPool::new(),
            stats_cache: RwLock::new(HashMap::new()),
            seg_rows: crate::segment::DEFAULT_SEGMENT_ROWS,
        }
    }

    /// Sets the row-segment capacity used by tables created *after* this
    /// call (existing tables keep theirs). Tests use tiny capacities to
    /// exercise segment sealing and cross-epoch sharing on small data.
    pub fn set_segment_rows(&mut self, seg_rows: usize) {
        assert!(seg_rows > 0, "segment capacity must be positive");
        self.seg_rows = seg_rows;
        // The string pool shares the granularity so its sealing cadence
        // tracks the tables'; it can only be re-granulated while empty
        // (symbols are indexes into the existing segments).
        if self.pool.is_empty() {
            self.pool = StringPool::with_granularity(seg_rows);
        }
    }

    /// The row-segment capacity tables created next will use.
    pub fn segment_rows(&self) -> usize {
        self.seg_rows
    }

    /// Seals every table's mutable tail into immutable shared segments
    /// (contents and row ids unchanged — only the share boundary moves),
    /// so the next clone of this database copies nothing but empty
    /// tails.
    pub fn seal(&mut self) {
        for t in &mut self.tables {
            t.seal();
        }
        self.pool.seal();
    }

    // ---------------------------------------------------------------- schema

    /// Creates a table from `(column, type)` pairs and registers it.
    pub fn create_table(&mut self, name: &str, columns: &[(&str, DataType)]) -> Result<TableId> {
        if self.by_name.contains_key(name) {
            return Err(Error::DuplicateTable(name.to_string()));
        }
        let id = TableId(self.tables.len());
        self.tables.push(Table::with_segment_rows(
            TableSchema::new(name, columns),
            self.seg_rows,
        ));
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks a table up by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Borrows a table.
    ///
    /// # Panics
    /// Panics if `id` is not a valid table id for this database.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Mutably borrows a table (invalidates cached statistics for it).
    ///
    /// # Panics
    /// Panics if `id` is not a valid table id for this database.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        unpoison(self.stats_cache.write()).retain(|attr, _| attr.table != id);
        &mut self.tables[id.0]
    }

    /// All table ids in creation order.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len()).map(TableId)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Resolves `"Table.Column"`-style references.
    pub fn attr(&self, table: &str, column: &str) -> Result<AttrRef> {
        let tid = self.table_id(table)?;
        let col = self
            .table(tid)
            .schema()
            .col(column)
            .ok_or_else(|| Error::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(AttrRef::new(tid, col))
    }

    /// Human-readable `Table.Column` name of an attribute.
    pub fn attr_name(&self, attr: AttrRef) -> String {
        let t = self.table(attr.table);
        format!("{}.{}", t.name(), t.schema().col_name(attr.col))
    }

    // ------------------------------------------------------------------ data

    /// Inserts a row into `table`.
    pub fn insert(&mut self, table: TableId, values: Vec<Value>) -> Result<RowId> {
        self.table_mut(table).insert(values)
    }

    /// Interns a string, returning its symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.pool.intern(s)
    }

    /// Interns a string and wraps it as a [`Value`].
    pub fn str_value(&mut self, s: &str) -> Value {
        Value::Str(self.pool.intern(s))
    }

    /// The string pool (for display).
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }

    // --------------------------------------------------------- relationships

    /// Declares an equi-join relationship between two attributes. Both
    /// directions become usable as explanation edges.
    pub fn add_relationship(
        &mut self,
        from: AttrRef,
        to: AttrRef,
        kind: RelationshipKind,
    ) -> Result<()> {
        let ft = self.table(from.table).schema().col_type(from.col);
        let tt = self.table(to.table).schema().col_type(to.col);
        if ft != tt {
            return Err(Error::IncompatibleRelationship(format!(
                "{} ({ft}) vs {} ({tt})",
                self.attr_name(from),
                self.attr_name(to)
            )));
        }
        self.relationships.push(Relationship { from, to, kind });
        Ok(())
    }

    /// Declares a key–foreign-key relationship by name.
    pub fn add_fk(
        &mut self,
        from_table: &str,
        from_col: &str,
        to_table: &str,
        to_col: &str,
    ) -> Result<()> {
        let from = self.attr(from_table, from_col)?;
        let to = self.attr(to_table, to_col)?;
        self.add_relationship(from, to, RelationshipKind::ForeignKey)
    }

    /// Marks an attribute as allowed in self-joins (Def. 5 restriction 3:
    /// "an attribute and table can only be used in a self-join if the
    /// administrator explicitly allows" it).
    pub fn allow_self_join(&mut self, table: &str, column: &str) -> Result<()> {
        let attr = self.attr(table, column)?;
        if !self.self_join_attrs.contains(&attr) {
            self.self_join_attrs.push(attr);
        }
        Ok(())
    }

    /// All declared relationships.
    pub fn relationships(&self) -> &[Relationship] {
        &self.relationships
    }

    /// All attributes allowed in self-joins.
    pub fn self_join_attrs(&self) -> &[AttrRef] {
        &self.self_join_attrs
    }

    // ----------------------------------------------------------------- stats

    /// Cached column statistics for `attr`.
    pub fn stats(&self, attr: AttrRef) -> ColumnStats {
        if let Some(s) = unpoison(self.stats_cache.read()).get(&attr) {
            return *s;
        }
        let s = ColumnStats::compute(self.table(attr.table), attr.col);
        unpoison(self.stats_cache.write()).insert(attr, s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Log",
            &[
                ("Lid", DataType::Int),
                ("User", DataType::Int),
                ("Patient", DataType::Int),
            ],
        )
        .unwrap();
        db.create_table(
            "Appointments",
            &[
                ("Patient", DataType::Int),
                ("Date", DataType::Date),
                ("Doctor", DataType::Int),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup_tables() {
        let db = db();
        assert_eq!(db.table_count(), 2);
        let log = db.table_id("Log").unwrap();
        assert_eq!(db.table(log).name(), "Log");
        assert!(db.table_id("Nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db.create_table("Log", &[("X", DataType::Int)]).unwrap_err();
        assert_eq!(err, Error::DuplicateTable("Log".into()));
    }

    #[test]
    fn attr_resolution() {
        let db = db();
        let a = db.attr("Appointments", "Doctor").unwrap();
        assert_eq!(db.attr_name(a), "Appointments.Doctor");
        assert!(db.attr("Appointments", "Nope").is_err());
        assert!(db.attr("Nope", "X").is_err());
    }

    #[test]
    fn fk_requires_matching_types() {
        let mut db = db();
        db.add_fk("Log", "Patient", "Appointments", "Patient")
            .unwrap();
        assert_eq!(db.relationships().len(), 1);
        let err = db
            .add_fk("Log", "Patient", "Appointments", "Date")
            .unwrap_err();
        assert!(matches!(err, Error::IncompatibleRelationship(_)));
    }

    #[test]
    fn self_join_attrs_deduplicate() {
        let mut db = db();
        db.allow_self_join("Appointments", "Doctor").unwrap();
        db.allow_self_join("Appointments", "Doctor").unwrap();
        assert_eq!(db.self_join_attrs().len(), 1);
    }

    #[test]
    fn stats_cache_invalidated_on_write() {
        let mut db = db();
        let log = db.table_id("Log").unwrap();
        db.insert(log, vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap();
        let attr = db.attr("Log", "User").unwrap();
        assert_eq!(db.stats(attr).row_count, 1);
        db.insert(log, vec![Value::Int(2), Value::Int(2), Value::Int(4)])
            .unwrap();
        assert_eq!(db.stats(attr).row_count, 2);
        assert_eq!(db.stats(attr).distinct_count, 1);
    }

    #[test]
    fn interning_round_trips_through_values() {
        let mut db = db();
        let v = db.str_value("Pediatrics");
        match v {
            Value::Str(sym) => assert_eq!(db.pool().resolve(sym), "Pediatrics"),
            _ => panic!("expected Str"),
        }
    }
}
