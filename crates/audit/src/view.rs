//! The one read-side view every audit question is asked of.
//!
//! An [`AuditView`] is a slice of *parts*, each a database, the warm
//! [`Engine`] over it, and a `local → global` log row map. A warm
//! `(&Database, &Engine)` pair is one part with the identity map; a pinned
//! [`EpochVec`] is one part per shard. Everything above speaks **global**
//! row ids (the ids the unsharded log would assign), so a question written
//! once over the view answers identically for both.
//!
//! The view has two primitives only:
//!
//! * [`AuditView::eval_suite`] — a query suite to the global-id [`RowSet`]
//!   of rows any of it explains (per-part [`Engine::eval_suite`], folded
//!   with the associative [`RowSet::union_all`]);
//! * log-row access per part — [`AuditView::parts`] for scans,
//!   [`AuditView::log_row`] for one global id.

use eba_core::LogSpec;
use eba_relational::engine::par_map;
use eba_relational::{
    ChainQuery, Database, Engine, EpochVec, EvalOptions, RowId, RowSet, ShardEpoch, TableId, Value,
};

/// Whether a log row passes `spec`'s anchor filters.
pub(crate) fn is_anchor(spec: &LogSpec, row: &[Value]) -> bool {
    spec.anchor_filters
        .iter()
        .all(|(col, op, v)| op.eval(&row[*col], v))
}

/// One part of an [`AuditView`].
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    db: &'a Database,
    engine: &'a Engine,
    /// `None` is the identity map (local ids are the global ids).
    shard: Option<&'a ShardEpoch>,
}

impl<'a> Part<'a> {
    /// The part's database.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// Maps one of this part's log row ids to the global id. Ascending
    /// local ids map to ascending global ids.
    pub fn to_global(&self, local: RowId) -> RowId {
        self.shard.map_or(local, |s| s.to_global(local))
    }

    /// The part's log rows passing `spec`'s anchor filters, as
    /// `(local id, row)` in ascending order.
    pub fn anchor_rows<'s>(
        &self,
        spec: &'s LogSpec,
    ) -> impl Iterator<Item = (RowId, &'a [Value])> + 's
    where
        'a: 's,
    {
        self.db
            .table(spec.table)
            .iter()
            .filter(move |(_, row)| is_anchor(spec, row))
    }

    fn global_set(&self, local: RowSet) -> RowSet {
        match self.shard {
            None => local,
            Some(s) => s.to_global_set(&local),
        }
    }
}

/// A consistent log state to ask audit questions of. See the module docs.
#[derive(Debug, Clone)]
pub struct AuditView<'a> {
    parts: Vec<Part<'a>>,
}

impl<'a> AuditView<'a> {
    /// The view of a warm engine over `db` (`engine` must have been built
    /// from, or refreshed against, `db`).
    pub fn warm(db: &'a Database, engine: &'a Engine) -> AuditView<'a> {
        AuditView {
            parts: vec![Part {
                db,
                engine,
                shard: None,
            }],
        }
    }

    /// The view of a pinned epoch vector: one part per shard.
    pub fn pinned(epochs: &'a EpochVec) -> AuditView<'a> {
        AuditView {
            parts: epochs
                .shards()
                .iter()
                .map(|s| Part {
                    db: s.db(),
                    engine: s.engine(),
                    shard: Some(s),
                })
                .collect(),
        }
    }

    /// The parts, in shard order.
    pub fn parts(&self) -> &[Part<'a>] {
        &self.parts
    }

    /// The global rows explained by at least one of `queries`: every part
    /// evaluates the whole suite fused against its warm engine (in
    /// parallel across parts) and the global-id sets fold associatively.
    ///
    /// # Panics
    /// Panics when a query does not validate against the database.
    pub fn eval_suite(&self, queries: &[ChainQuery]) -> RowSet {
        let per_part = par_map(&self.parts, |part| {
            let per_query = part
                .engine
                .eval_suite(part.db, queries, EvalOptions::default());
            part.global_set(RowSet::union_all(
                per_query
                    .into_iter()
                    .map(|set| set.expect("templates lower to valid queries")),
            ))
        });
        RowSet::union_all(per_part)
    }

    /// The part holding global log row `global`, and the row itself.
    ///
    /// # Panics
    /// Panics when `global` is not a log row of this view.
    pub fn log_row(&self, log: TableId, global: RowId) -> (&Part<'a>, &'a [Value]) {
        self.parts
            .iter()
            .find_map(|part| {
                let local = match part.shard {
                    None => global,
                    Some(s) => s.find_global(global)?,
                };
                Some((part, part.db.table(log).row(local)))
            })
            .expect("global id came from this view")
    }
}
