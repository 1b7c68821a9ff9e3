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
//!   of rows any of it explains ([`Engine::eval_suite`] on a warm view,
//!   [`EpochVec::eval_suite`] on a pinned one, folded with the associative
//!   [`RowSet::union_all`]);
//! * log-row access per part — [`AuditView::parts`] for scans,
//!   [`AuditView::log_row`] for one global id.

use eba_core::LogSpec;
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
}

/// A consistent log state to ask audit questions of. See the module docs.
#[derive(Debug, Clone)]
pub struct AuditView<'a> {
    parts: Vec<Part<'a>>,
    /// The pinned vector the parts come from (`None` for a warm view).
    epochs: Option<&'a EpochVec>,
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
            epochs: None,
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
            epochs: Some(epochs),
        }
    }

    /// The parts, in shard order.
    pub fn parts(&self) -> &[Part<'a>] {
        &self.parts
    }

    /// The global rows explained by at least one of `queries`: the warm
    /// engine evaluates the whole suite fused, or, on a pinned view,
    /// [`EpochVec::eval_suite`] does so on every shard in parallel, and the
    /// global-id sets fold associatively.
    ///
    /// # Panics
    /// Panics when a query does not validate against the database, and,
    /// above one shard, when the shard key does not
    /// [admit](eba_relational::ShardKey::admits) a query: no shard could
    /// answer it exactly, so the view refuses rather than answer part of it.
    pub fn eval_suite(&self, queries: &[ChainQuery]) -> RowSet {
        let opts = EvalOptions::default();
        let per_query = match self.epochs {
            Some(epochs) => epochs.eval_suite(queries, opts),
            // A warm view is one part.
            None => self.parts[0]
                .engine
                .eval_suite(self.parts[0].db, queries, opts),
        };
        RowSet::union_all(
            per_query
                .into_iter()
                .map(|set| set.expect("templates lower to valid queries")),
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use eba_relational::{ChainStep, CmpOp, DataType, Rhs, ShardKey, ShardedEngine, StepFilter};

    /// 80 accesses `(Lid = i, User = i % 7, Patient = i % 40)` sharded by
    /// patient, and "L.User also opened a patient numbered >= 30": a
    /// template that steps into the log on the user, not the shard key.
    fn cross_shard_world() -> (Database, ShardKey, ChainQuery) {
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
        for i in 0..80i64 {
            db.insert(
                log,
                vec![Value::Int(i), Value::Int(i % 7), Value::Int(i % 40)],
            )
            .unwrap();
        }
        let mut step = ChainStep::new(log, 1, 2);
        step.filters.push(StepFilter {
            col: 2,
            op: CmpOp::Ge,
            rhs: Rhs::Const(Value::Int(30)),
        });
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 1,
            steps: vec![step],
            close_col: None,
            anchor_filters: vec![],
        };
        (db, ShardKey { table: log, col: 2 }, q)
    }

    /// A pinned view refuses what its epoch vector refuses: above one
    /// shard each shard would answer the off-key template from its own
    /// rows only (70 and 60 of 80 at 2 and 4 shards).
    #[test]
    fn a_pinned_view_refuses_an_off_key_template_above_one_shard() {
        let (db, key, q) = cross_shard_world();
        let one = ShardedEngine::new(db.clone(), key, 1).load();
        let view = AuditView::pinned(&one);
        assert_eq!(view.eval_suite(std::slice::from_ref(&q)).len(), 80);
        for n in [2usize, 4] {
            let epochs = ShardedEngine::new(db.clone(), key, n).load();
            let view = AuditView::pinned(&epochs);
            let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                view.eval_suite(std::slice::from_ref(&q)).len()
            }));
            let err = answer.expect_err(&format!("{n} shards answered instead of refusing"));
            let msg = err
                .downcast_ref::<String>()
                .expect("an `expect` panic carries a String");
            assert!(msg.contains("only at step 0"), "{n} shards: {msg}");
        }
    }
}
