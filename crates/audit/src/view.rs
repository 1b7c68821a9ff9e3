//! The one read-side view every audit question is asked of.
//!
//! An [`AuditView`] is a database and the warm [`Engine`] over it: a warm
//! `(&Database, &Engine)` pair, or the one epoch a pinned [`EpochVec`]
//! holds. Everything above speaks log row ids of that database, so a
//! question written once over the view answers identically for both.
//!
//! The view has two primitives only:
//!
//! * [`AuditView::eval_suite`] — a query suite to the [`RowSet`] of rows
//!   any of it explains ([`Engine::eval_suite`], folded with the
//!   associative [`RowSet::union_all`]);
//! * log-row access — [`AuditView::anchor_rows`] for scans,
//!   [`AuditView::db`] for everything else.

use eba_core::LogSpec;
use eba_relational::{ChainQuery, Database, Engine, EpochVec, EvalOptions, RowId, RowSet, Value};

/// Whether a log row passes `spec`'s anchor filters.
pub(crate) fn is_anchor(spec: &LogSpec, row: &[Value]) -> bool {
    spec.anchor_filters
        .iter()
        .all(|(col, op, v)| op.eval(&row[*col], v))
}

/// A consistent log state to ask audit questions of. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct AuditView<'a> {
    db: &'a Database,
    engine: &'a Engine,
}

impl<'a> AuditView<'a> {
    /// The view of a warm engine over `db` (`engine` must have been built
    /// from, or refreshed against, `db`).
    pub fn warm(db: &'a Database, engine: &'a Engine) -> AuditView<'a> {
        AuditView { db, engine }
    }

    /// The view of a pinned epoch.
    pub fn pinned(epochs: &'a EpochVec) -> AuditView<'a> {
        let epoch = &epochs.shards()[0];
        AuditView::warm(epoch.db(), epoch.engine())
    }

    /// The view's database.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The log rows passing `spec`'s anchor filters, as `(row id, row)` in
    /// ascending order.
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

    /// The rows explained by at least one of `queries`: the engine
    /// evaluates the whole suite fused.
    ///
    /// # Panics
    /// Panics when a query does not validate against the database.
    pub fn eval_suite(&self, queries: &[ChainQuery]) -> RowSet {
        RowSet::union_all(
            self.engine
                .eval_suite(self.db, queries, EvalOptions::default())
                .into_iter()
                .map(|set| set.expect("templates lower to valid queries")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_relational::{ChainStep, CmpOp, DataType, Rhs, ShardKey, ShardedEngine, StepFilter};

    /// A pinned view answers a template that steps into the log off the
    /// patient column — 80 accesses `(Lid = i, User = i % 7, Patient =
    /// i % 40)` and "L.User also opened a patient numbered >= 30" — in
    /// full, whatever shard count the engine was built with.
    #[test]
    fn a_pinned_view_answers_an_off_key_template_at_every_shard_count() {
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
        let key = ShardKey { table: log, col: 2 };
        for n in [1usize, 2, 4] {
            let epochs = ShardedEngine::new(db.clone(), key, n).load();
            let view = AuditView::pinned(&epochs);
            assert_eq!(
                view.eval_suite(std::slice::from_ref(&q)).len(),
                80,
                "{n} shards"
            );
        }
    }
}
