//! Path-shaped conjunctive query evaluation.
//!
//! An explanation template (Def. 1 of the paper) is a stylized SQL query
//! whose selection conditions form a *path* from the data that was accessed
//! (`Log.Patient`) back to the user who accessed it (`Log.User`). This module
//! evaluates exactly that query class:
//!
//! ```sql
//! SELECT COUNT(DISTINCT Log.Lid)
//! FROM Log, T_1, ..., T_n
//! WHERE Log.<start> = T_1.<enter>
//!   AND T_1.<exit> = T_2.<enter>
//!   AND ...
//!   AND T_n.<exit> = Log.<close>   -- only for completed explanations
//! ```
//!
//! A [`ChainQuery`] is the normalized form: an anchor log table, a start
//! column, a sequence of [`ChainStep`]s (one per joined tuple variable), and
//! an optional closing column. Each step may carry extra selection conditions
//! ([`StepFilter`]) against constants or against the anchor log row — the
//! latter is how *decorated* templates (Def. 3) such as
//! `L2.Date < L1.Date` (repeat access) are expressed.
//!
//! # Evaluation strategy
//!
//! The truth of an undecorated template for a log record depends only on the
//! record's `(start, close)` value pair, so the evaluator groups the log by
//! distinct pair — the same effect as the paper's
//! `COUNT(DISTINCT Log.Lid)` over a de-duplicated join — and walks a
//! *semijoin chain*: a frontier of distinct values is pushed through a
//! per-step `enter → {exit}` map built from a `SELECT DISTINCT` projection
//! of the step's table (the paper's "reducing result multiplicity"
//! optimization, on by default and toggleable via [`EvalOptions`]; it never
//! changes an answer). Decorated queries that reference the anchor row
//! fall back to per-row evaluation.

use crate::database::{Database, TableId};
use crate::error::{Error, Result};
use crate::table::RowId;
use crate::types::ColId;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Comparison operator usable in a [`StepFilter`] (the paper's condition
/// language allows `{<, <=, =, >=, >}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Evaluates `lhs op rhs` under SQL semantics (NULL ⇒ false).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if self == CmpOp::Eq {
            return lhs.sql_eq(rhs);
        }
        match lhs.sql_cmp(rhs) {
            None => false,
            Some(ord) => match self {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Gt => ord.is_gt(),
            },
        }
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }
}

/// Right-hand side of a [`StepFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rhs {
    /// A constant.
    Const(Value),
    /// A column of the *anchor* log row (the `L` tuple variable). This is
    /// what makes a template decorated in a way that depends on the
    /// individual access, e.g. `L2.Date < L.Date`.
    AnchorCol(ColId),
}

/// An extra selection condition on one step's tuple variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepFilter {
    /// Column of the step's table the condition applies to.
    pub col: ColId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Rhs,
}

/// One joined tuple variable on the path.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// Table of this tuple variable (may repeat: self-joins get one step per
    /// alias).
    pub table: TableId,
    /// Column joined to the previous tuple variable's exit.
    pub enter_col: ColId,
    /// Column the next join leaves from (equals `enter_col` when the path
    /// has not yet moved within the table).
    pub exit_col: ColId,
    /// Extra selection conditions (decorations).
    pub filters: Vec<StepFilter>,
}

impl ChainStep {
    /// An undecorated step.
    pub fn new(table: TableId, enter_col: ColId, exit_col: ColId) -> Self {
        ChainStep {
            table,
            enter_col,
            exit_col,
            filters: Vec::new(),
        }
    }

    fn passes_const_filters(&self, row: &[Value]) -> bool {
        self.filters.iter().all(|f| match f.rhs {
            Rhs::Const(c) => f.op.eval(&row[f.col], &c),
            Rhs::AnchorCol(_) => true,
        })
    }

    fn passes_all_filters(&self, row: &[Value], anchor: &[Value]) -> bool {
        self.filters.iter().all(|f| {
            let rhs = match f.rhs {
                Rhs::Const(c) => c,
                Rhs::AnchorCol(col) => anchor[col],
            };
            f.op.eval(&row[f.col], &rhs)
        })
    }

    pub(crate) fn has_anchor_filter(&self) -> bool {
        self.filters
            .iter()
            .any(|f| matches!(f.rhs, Rhs::AnchorCol(_)))
    }
}

/// Evaluation knobs. The default enables the paper's optimizations.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Project each step's table to its distinct `(enter, exit)` pairs before
    /// joining (paper §3.2.1, "Reducing Result Multiplicity"). Turning this
    /// off changes performance, never results.
    pub dedup: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { dedup: true }
    }
}

/// A path-shaped conjunctive query anchored at a log table. See the module
/// docs for the SQL form.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainQuery {
    /// The anchor log table (`L`).
    pub log: TableId,
    /// Column holding the log-record id, counted distinctly for support.
    pub lid_col: ColId,
    /// Column of `L` where the path begins (e.g. `Log.Patient`; for
    /// backward partial paths in two-way mining this is `Log.User`).
    pub start_col: ColId,
    /// Joined tuple variables, in path order. Must be non-empty.
    pub steps: Vec<ChainStep>,
    /// When `Some(c)`, the last step's exit value must equal the anchor
    /// row's column `c` — this closes the path back at the log and makes the
    /// query a (candidate) explanation template.
    pub close_col: Option<ColId>,
    /// Conjunctive filters on the *anchor* log rows, restricting which
    /// accesses the query is asked to explain (e.g. `Day <= 6 AND
    /// IsFirst = 1` to mine on the first six days' first accesses, as the
    /// paper's experiments do). Support is counted over passing rows only.
    pub anchor_filters: Vec<(ColId, CmpOp, Value)>,
}

/// One witness of an explanation: the specific rows bound to each step's
/// tuple variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// `step_rows[i]` is the row of `steps[i].table` used by this witness.
    pub step_rows: Vec<RowId>,
}

/// Result of [`ChainQuery::trace`]: per-step frontier sizes for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// Distinct values surviving after each step (0 once the chain dies).
    pub survivors: Vec<usize>,
    /// Whether the chain finally explained the row.
    pub closed: bool,
    /// Whether the row passed the anchor filters at all.
    pub anchor_matches: bool,
}

impl StepTrace {
    /// Index of the first step with no survivors, if the chain died.
    pub fn died_at(&self) -> Option<usize> {
        self.survivors.iter().position(|&n| n == 0)
    }

    /// How far the chain progressed: the number of steps with at least one
    /// survivor (equals `survivors.len()` when the chain reached the end).
    pub fn progress(&self) -> usize {
        self.died_at().unwrap_or(self.survivors.len())
    }
}

impl ChainQuery {
    /// Structural validation against a database.
    pub fn validate(&self, db: &Database) -> Result<()> {
        if self.steps.is_empty() {
            return Err(Error::InvalidQuery("chain has no steps".into()));
        }
        let check_col = |table: TableId, col: ColId| -> Result<()> {
            if table.0 >= db.table_count() {
                return Err(Error::InvalidTableId(table.0));
            }
            let arity = db.table(table).schema().arity();
            if col >= arity {
                return Err(Error::InvalidQuery(format!(
                    "column {col} out of range for table `{}`",
                    db.table(table).name()
                )));
            }
            Ok(())
        };
        check_col(self.log, self.lid_col)?;
        check_col(self.log, self.start_col)?;
        if let Some(c) = self.close_col {
            check_col(self.log, c)?;
        }
        for (col, _, _) in &self.anchor_filters {
            check_col(self.log, *col)?;
        }
        let mut anchor_decorations = 0;
        for s in &self.steps {
            check_col(s.table, s.enter_col)?;
            check_col(s.table, s.exit_col)?;
            for f in &s.filters {
                check_col(s.table, f.col)?;
                if let Rhs::AnchorCol(c) = f.rhs {
                    check_col(self.log, c)?;
                    // An anchor decoration is an order test against the
                    // witnesses' extremum, which `=` has no equivalent of.
                    if f.op == CmpOp::Eq {
                        return Err(Error::InvalidQuery(
                            "an anchor decoration must compare with <, <=, > or >=".into(),
                        ));
                    }
                    anchor_decorations += 1;
                }
            }
        }
        if anchor_decorations > 1 {
            return Err(Error::InvalidQuery(
                "a template carries at most one anchor decoration".into(),
            ));
        }
        Ok(())
    }

    /// True when some filter references the anchor log row, so explained-ness
    /// is not a function of the `(start, close)` pair alone.
    pub fn is_anchor_dependent(&self) -> bool {
        self.steps.iter().any(ChainStep::has_anchor_filter)
    }

    /// Whether a log row passes the anchor filters.
    fn anchor_passes(&self, row: &[Value]) -> bool {
        self.anchor_filters
            .iter()
            .all(|(col, op, v)| op.eval(&row[*col], v))
    }

    /// Number of distinct log ids passing the anchor filters — the
    /// denominator for support fractions and recall.
    pub fn anchor_lid_count(&self, db: &Database) -> usize {
        let log = db.table(self.log);
        let mut lids = HashSet::new();
        for (_, row) in log.iter() {
            if self.anchor_passes(row) {
                lids.insert(row[self.lid_col]);
            }
        }
        lids.len()
    }

    /// Log row ids explained by this query, in ascending order.
    pub fn explained_rows(&self, db: &Database, opts: EvalOptions) -> Result<Vec<RowId>> {
        self.validate(db)?;
        if self.is_anchor_dependent() {
            self.explained_rows_per_row(db)
        } else {
            self.explained_rows_grouped(db, opts)
        }
    }

    /// Support: the number of distinct log ids explained — the paper's
    /// `SELECT COUNT(DISTINCT Log.Lid)`.
    pub fn support(&self, db: &Database, opts: EvalOptions) -> Result<usize> {
        let rows = self.explained_rows(db, opts)?;
        let log = db.table(self.log);
        let mut lids = HashSet::with_capacity(rows.len());
        for r in rows {
            lids.insert(log.cell(r, self.lid_col));
        }
        Ok(lids.len())
    }

    // ------------------------------------------------------------- grouped

    /// Pair-invariant evaluation: group the log by distinct
    /// `(start[, close])` values and walk the semijoin chain once per group.
    fn explained_rows_grouped(&self, db: &Database, opts: EvalOptions) -> Result<Vec<RowId>> {
        let log = db.table(self.log);
        // start value -> (close value or Null) -> rows
        let mut groups: HashMap<Value, HashMap<Value, Vec<RowId>>> = HashMap::new();
        for (rid, row) in log.iter() {
            if !self.anchor_passes(row) {
                continue;
            }
            let start = row[self.start_col];
            if start.is_null() {
                continue;
            }
            let close = match self.close_col {
                Some(c) => {
                    let v = row[c];
                    if v.is_null() {
                        continue;
                    }
                    v
                }
                None => Value::Null,
            };
            groups
                .entry(start)
                .or_default()
                .entry(close)
                .or_default()
                .push(rid);
        }

        let maps = self.build_step_maps(db, opts);
        let mut out = Vec::new();
        let mut frontier: HashSet<Value> = HashSet::new();
        let mut next: HashSet<Value> = HashSet::new();
        for (start, closes) in &groups {
            frontier.clear();
            frontier.insert(*start);
            let mut dead = false;
            for map in &maps {
                next.clear();
                for v in frontier.iter() {
                    if let Some(exits) = map.get(v) {
                        next.extend(exits.iter().copied());
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                if frontier.is_empty() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            match self.close_col {
                None => {
                    for rows in closes.values() {
                        out.extend_from_slice(rows);
                    }
                }
                Some(_) => {
                    for (user, rows) in closes {
                        if frontier.contains(user) {
                            out.extend_from_slice(rows);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Builds, per step, the `enter → distinct exits` map (with constant
    /// filters applied). Without `dedup` the exit lists keep multiplicities,
    /// modelling the extra intermediate rows the paper's unoptimized SQL
    /// produces.
    fn build_step_maps(&self, db: &Database, opts: EvalOptions) -> Vec<HashMap<Value, Vec<Value>>> {
        self.steps
            .iter()
            .map(|step| {
                let table = db.table(step.table);
                let mut map: HashMap<Value, Vec<Value>> = HashMap::new();
                let mut seen: HashSet<(Value, Value)> = HashSet::new();
                for (_, row) in table.iter() {
                    let enter = row[step.enter_col];
                    let exit = row[step.exit_col];
                    if enter.is_null() || exit.is_null() {
                        continue;
                    }
                    if !step.passes_const_filters(row) {
                        continue;
                    }
                    if opts.dedup && !seen.insert((enter, exit)) {
                        continue;
                    }
                    map.entry(enter).or_default().push(exit);
                }
                map
            })
            .collect()
    }

    // -------------------------------------------------------------- per row

    /// Fallback for decorated queries: evaluate each log row independently,
    /// probing per-step hash indexes.
    fn explained_rows_per_row(&self, db: &Database) -> Result<Vec<RowId>> {
        let log = db.table(self.log);
        let indexes: Vec<_> = self
            .steps
            .iter()
            .map(|s| db.table(s.table).index(s.enter_col))
            .collect();
        let mut out = Vec::new();
        let mut frontier: HashSet<Value> = HashSet::new();
        let mut next: HashSet<Value> = HashSet::new();
        for (rid, anchor) in log.iter() {
            if !self.anchor_passes(anchor) {
                continue;
            }
            let start = anchor[self.start_col];
            if start.is_null() {
                continue;
            }
            frontier.clear();
            frontier.insert(start);
            let mut dead = false;
            for (step, index) in self.steps.iter().zip(&indexes) {
                let table = db.table(step.table);
                next.clear();
                for v in frontier.iter() {
                    for cand in index.rows_of(*v) {
                        // Self-join on the log itself must not bind the
                        // anchor row as its own witness when the decoration
                        // compares the anchor to the step (e.g. repeat
                        // access: a row does not precede itself) — the
                        // filters take care of that; no special case needed.
                        let row = table.row(cand);
                        if step.passes_all_filters(row, anchor) {
                            let exit = row[step.exit_col];
                            if !exit.is_null() {
                                next.insert(exit);
                            }
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                if frontier.is_empty() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            let explained = match self.close_col {
                None => true,
                Some(c) => {
                    let user = anchor[c];
                    !user.is_null() && frontier.contains(&user)
                }
            };
            if explained {
                out.push(rid);
            }
        }
        Ok(out)
    }

    // ---------------------------------------------------------------- trace

    /// Step-by-step evaluation trace for one log row: how many distinct
    /// values survive after each step, and whether the chain finally closes
    /// on the anchor's user. This is the "how close did this template come"
    /// view used by investigation tooling — a template that dies at step 1
    /// (no event at all) tells a different story than one whose frontier
    /// reaches the final step but misses the user.
    pub fn trace(&self, db: &Database, log_row: RowId) -> Result<StepTrace> {
        self.validate(db)?;
        let log = db.table(self.log);
        let anchor = log.row(log_row);
        if !self.anchor_passes(anchor) || anchor[self.start_col].is_null() {
            return Ok(StepTrace {
                survivors: vec![0; self.steps.len()],
                closed: false,
                anchor_matches: false,
            });
        }
        let mut frontier: HashSet<Value> = HashSet::new();
        frontier.insert(anchor[self.start_col]);
        let mut survivors = Vec::with_capacity(self.steps.len());
        let mut next: HashSet<Value> = HashSet::new();
        for step in &self.steps {
            let table = db.table(step.table);
            let index = table.index(step.enter_col);
            next.clear();
            for v in frontier.iter() {
                for cand in index.rows_of(*v) {
                    let row = table.row(cand);
                    if step.passes_all_filters(row, anchor) {
                        let exit = row[step.exit_col];
                        if !exit.is_null() {
                            next.insert(exit);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            survivors.push(frontier.len());
            if frontier.is_empty() {
                survivors.resize(self.steps.len(), 0);
                return Ok(StepTrace {
                    survivors,
                    closed: false,
                    anchor_matches: true,
                });
            }
        }
        let closed = match self.close_col {
            None => true,
            Some(c) => !anchor[c].is_null() && frontier.contains(&anchor[c]),
        };
        Ok(StepTrace {
            survivors,
            closed,
            anchor_matches: true,
        })
    }

    // ------------------------------------------------------------ instances

    /// Enumerates up to `limit` witnesses of this query for one specific log
    /// row: the concrete step rows that justify the explanation. These are
    /// the paper's *explanation instances*, ready to be rendered as natural
    /// language.
    pub fn instances(&self, db: &Database, log_row: RowId, limit: usize) -> Result<Vec<Instance>> {
        self.validate(db)?;
        let log = db.table(self.log);
        let anchor = log.row(log_row);
        if !self.anchor_passes(anchor) {
            return Ok(Vec::new());
        }
        let start = anchor[self.start_col];
        if start.is_null() {
            return Ok(Vec::new());
        }
        let close = match self.close_col {
            Some(c) => {
                let v = anchor[c];
                if v.is_null() {
                    return Ok(Vec::new());
                }
                Some(v)
            }
            None => None,
        };
        let mut out = Vec::new();
        let mut stack = Vec::with_capacity(self.steps.len());
        self.search_instances(db, anchor, start, close, 0, limit, &mut stack, &mut out);
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn search_instances(
        &self,
        db: &Database,
        anchor: &[Value],
        current: Value,
        close: Option<Value>,
        depth: usize,
        limit: usize,
        stack: &mut Vec<RowId>,
        out: &mut Vec<Instance>,
    ) {
        if out.len() >= limit {
            return;
        }
        if depth == self.steps.len() {
            let ok = match close {
                None => true,
                Some(user) => current.sql_eq(&user),
            };
            if ok {
                out.push(Instance {
                    step_rows: stack.clone(),
                });
            }
            return;
        }
        let step = &self.steps[depth];
        let table = db.table(step.table);
        let index = table.index(step.enter_col);
        for cand in index.rows_of(current) {
            if out.len() >= limit {
                return;
            }
            let row = table.row(cand);
            if !step.passes_all_filters(row, anchor) {
                continue;
            }
            let exit = row[step.exit_col];
            if exit.is_null() {
                continue;
            }
            stack.push(cand);
            self.search_instances(db, anchor, exit, close, depth + 1, limit, stack, out);
            stack.pop();
        }
    }
}

// ------------------------------------------------------------------ estimate

/// Estimates the number of distinct log ids a chain query would explain,
/// using only column statistics (System-R style containment and fan-out
/// assumptions). This is what the paper's "skipping non-selective paths"
/// optimization asks the optimizer for; estimation error affects only
/// mining *performance*, never its output (skipped paths are re-tested in
/// the next round).
pub fn estimate_support(db: &Database, q: &ChainQuery) -> f64 {
    estimate_support_hinted(db, q, 1.0)
}

/// Like [`estimate_support`], but scales the log size by `anchor_frac`, the
/// (externally computed, e.g. once per mining run) fraction of log rows
/// passing the query's anchor filters.
pub fn estimate_support_hinted(db: &Database, q: &ChainQuery, anchor_frac: f64) -> f64 {
    let log = db.table(q.log);
    if log.is_empty() || q.steps.is_empty() {
        return 0.0;
    }
    let n_lids = db
        .stats(crate::database::AttrRef::new(q.log, q.lid_col))
        .distinct_count as f64
        * anchor_frac.clamp(0.0, 1.0);
    let start_stats = db.stats(crate::database::AttrRef::new(q.log, q.start_col));

    // Fraction of start values whose semijoin chain survives, and the
    // expected number of distinct values in the frontier per survivor.
    let mut survive = 1.0f64;
    let mut frontier = 1.0f64;
    let mut domain = start_stats.distinct_count.max(1) as f64;

    for step in &q.steps {
        let enter = db.stats(crate::database::AttrRef::new(step.table, step.enter_col));
        let exit = db.stats(crate::database::AttrRef::new(step.table, step.exit_col));
        if enter.distinct_count == 0 || exit.distinct_count == 0 {
            return 0.0;
        }
        // Probability one frontier value matches the step's enter column
        // (containment assumption), lifted to "any of `frontier` values".
        let p_one = enter.containment_match_prob(domain.max(1.0) as usize);
        let p_any = 1.0 - (1.0 - p_one).powf(frontier.max(1.0));
        survive *= p_any.clamp(0.0, 1.0);
        // Distinct exits per matching enter value: assume the distinct pairs
        // spread evenly, then cap by the exit column's distinct count.
        let pairs_per_enter = exit.avg_fanout().min(enter.avg_fanout()).max(1.0);
        frontier = (frontier * p_one.max(1.0 / domain.max(1.0)) * enter.avg_fanout().max(1.0))
            .min(exit.distinct_count as f64)
            .max(pairs_per_enter.min(exit.distinct_count as f64));
        domain = exit.distinct_count as f64;
    }

    match q.close_col {
        None => (n_lids * survive).min(n_lids),
        Some(c) => {
            let close_stats = db.stats(crate::database::AttrRef::new(q.log, c));
            let d_close = close_stats.distinct_count.max(1) as f64;
            // Probability the anchor row's user falls in the reached set.
            let p_hit = (frontier / d_close).min(1.0);
            (n_lids * survive * p_hit).min(n_lids)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::types::DataType;

    /// Builds the example database of Figure 3 of the paper:
    /// Appointments(Patient, Date, Doctor), Doctor_Info(Doctor, Dept),
    /// Log(Lid, Date, User, Patient).
    fn figure3_db() -> (Database, TableId, TableId, TableId) {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("Date", DataType::Date),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let appt = db
            .create_table(
                "Appointments",
                &[
                    ("Patient", DataType::Int),
                    ("Date", DataType::Date),
                    ("Doctor", DataType::Int),
                ],
            )
            .unwrap();
        let info = db
            .create_table(
                "Doctor_Info",
                &[("Doctor", DataType::Int), ("Department", DataType::Str)],
            )
            .unwrap();
        // Users: Dave=1, Mike=2. Patients: Alice=10, Bob=11.
        let ped = db.str_value("Pediatrics");
        db.insert(appt, vec![Value::Int(10), Value::Date(1), Value::Int(1)])
            .unwrap();
        db.insert(appt, vec![Value::Int(11), Value::Date(2), Value::Int(2)])
            .unwrap();
        db.insert(info, vec![Value::Int(2), ped]).unwrap();
        db.insert(info, vec![Value::Int(1), ped]).unwrap();
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(1), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(2), Value::Int(1), Value::Int(11)],
        )
        .unwrap();
        (db, log, appt, info)
    }

    /// Template (A): patient had an appointment with the accessing user.
    fn template_a(log: TableId, appt: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(appt, 0, 2)],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    /// Template (B): appointment with a doctor in the same department as the
    /// accessing user.
    fn template_b(log: TableId, appt: TableId, info: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![
                ChainStep::new(appt, 0, 2),
                ChainStep::new(info, 0, 1),
                ChainStep::new(info, 1, 0),
            ],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    #[test]
    fn example_3_1_template_a_has_support_one_of_two() {
        // Paper Example 3.1: template (A) has support 50% (only L1).
        let (db, log, appt, _) = figure3_db();
        let q = template_a(log, appt);
        assert_eq!(
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            vec![0]
        );
        assert_eq!(q.support(&db, EvalOptions::default()).unwrap(), 1);
    }

    #[test]
    fn example_3_1_template_b_has_support_two_of_two() {
        // Paper Example 3.1: template (B) has support 100% (L1 and L2).
        let (db, log, appt, info) = figure3_db();
        let q = template_b(log, appt, info);
        assert_eq!(
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            vec![0, 1]
        );
        assert_eq!(q.support(&db, EvalOptions::default()).unwrap(), 2);
    }

    #[test]
    fn open_partial_path_counts_patients_with_any_event() {
        // Path `Log.Patient = Appointments.Patient` (Example 3.2: support
        // 100% — both log entries reference patients with appointments).
        let (db, log, appt, _) = figure3_db();
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(appt, 0, 0)],
            close_col: None,
            anchor_filters: vec![],
        };
        assert_eq!(q.support(&db, EvalOptions::default()).unwrap(), 2);
    }

    #[test]
    fn dedup_toggle_does_not_change_results() {
        let (mut db, log, appt, info) = figure3_db();
        // Duplicate appointment rows: multiplicity must not change support.
        db.insert(appt, vec![Value::Int(10), Value::Date(5), Value::Int(1)])
            .unwrap();
        db.insert(appt, vec![Value::Int(10), Value::Date(6), Value::Int(1)])
            .unwrap();
        let q = template_b(log, appt, info);
        let with = q.support(&db, EvalOptions { dedup: true }).unwrap();
        let without = q.support(&db, EvalOptions { dedup: false }).unwrap();
        assert_eq!(with, without);
    }

    #[test]
    fn decorated_repeat_access_requires_strictly_earlier_date() {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("Date", DataType::Date),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        // Same user/patient accessed at t=1 and t=5.
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(1), Value::Int(7), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(5), Value::Int(7), Value::Int(10)],
        )
        .unwrap();
        // Repeat access: Log L2 with same patient & user, L2.Date < L.Date.
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep {
                table: log,
                enter_col: 3,
                exit_col: 2,
                filters: vec![StepFilter {
                    col: 1,
                    op: CmpOp::Lt,
                    rhs: Rhs::AnchorCol(1),
                }],
            }],
            close_col: Some(2),
            anchor_filters: vec![],
        };
        assert!(q.is_anchor_dependent());
        // Only the *second* access is a repeat.
        assert_eq!(
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            vec![1]
        );
    }

    #[test]
    fn instances_enumerate_witness_rows() {
        let (mut db, log, appt, _) = figure3_db();
        // A second appointment Alice↔Dave: L1 now has two instances.
        db.insert(appt, vec![Value::Int(10), Value::Date(9), Value::Int(1)])
            .unwrap();
        let q = template_a(log, appt);
        let inst = q.instances(&db, 0, 16).unwrap();
        assert_eq!(inst.len(), 2);
        assert!(inst.iter().all(|i| i.step_rows.len() == 1));
        // Limit caps enumeration.
        assert_eq!(q.instances(&db, 0, 1).unwrap().len(), 1);
        // L2 (Bob accessed by Dave) has no instance under template (A).
        assert!(q.instances(&db, 1, 16).unwrap().is_empty());
    }

    #[test]
    fn validate_rejects_bad_queries() {
        let (db, log, appt, _) = figure3_db();
        let empty = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![],
            close_col: None,
            anchor_filters: vec![],
        };
        assert!(empty.validate(&db).is_err());
        let bad_col = ChainQuery {
            log,
            lid_col: 0,
            start_col: 9,
            steps: vec![ChainStep::new(appt, 0, 0)],
            close_col: None,
            anchor_filters: vec![],
        };
        assert!(bad_col.validate(&db).is_err());
    }

    /// An `=` anchor decoration and a second anchor decoration have no
    /// extremum walk: the row evaluator and the engine both refuse them
    /// as invalid, and the engine answers the rest of the suite.
    #[test]
    fn validate_refuses_anchor_decorations_without_an_extremum() {
        let (db, log, appt, info) = figure3_db();
        let decorate = |mut q: ChainQuery, at: &[(usize, CmpOp)]| {
            for &(step, op) in at {
                q.steps[step].filters.push(StepFilter {
                    col: 0,
                    op,
                    rhs: Rhs::AnchorCol(1),
                });
            }
            q
        };
        let refused = [
            decorate(template_a(log, appt), &[(0, CmpOp::Eq)]),
            decorate(template_a(log, appt), &[(0, CmpOp::Lt), (0, CmpOp::Ge)]),
            decorate(
                template_b(log, appt, info),
                &[(0, CmpOp::Le), (2, CmpOp::Gt)],
            ),
        ];
        let accepted = decorate(template_b(log, appt, info), &[(1, CmpOp::Ge)]);
        let opts = EvalOptions::default();
        fn invalid<T>(r: &Result<T>) -> bool {
            matches!(r, Err(Error::InvalidQuery(_)))
        }
        for q in &refused {
            assert!(invalid(&q.validate(&db)), "{q:?}");
            assert!(invalid(&q.explained_rows(&db, opts)), "{q:?}");
        }
        assert!(accepted.validate(&db).is_ok());
        let engine = crate::Engine::new(&db);
        let mut suite = vec![template_a(log, appt)];
        suite.extend(refused.iter().cloned());
        suite.push(accepted);
        let answers = engine.eval_suite(&db, &suite, opts);
        assert_eq!(answers.len(), suite.len());
        for (q, answer) in suite.iter().zip(&answers) {
            match q.explained_rows(&db, opts) {
                Ok(rows) => assert_eq!(answer.as_ref().unwrap().to_vec(), rows),
                Err(_) => assert!(invalid(answer), "{q:?}"),
            }
        }
        assert!(
            !answers[0].as_ref().unwrap().is_empty(),
            "template (A) answers"
        );
    }

    #[test]
    fn estimate_is_positive_for_satisfiable_chains_and_bounded() {
        let (db, log, appt, info) = figure3_db();
        let est_a = estimate_support(&db, &template_a(log, appt));
        let est_b = estimate_support(&db, &template_b(log, appt, info));
        assert!(est_a > 0.0);
        assert!(est_b > 0.0);
        assert!(est_a <= 2.0 + 1e-9);
        assert!(est_b <= 2.0 + 1e-9);
    }

    #[test]
    fn estimate_zero_for_empty_tables() {
        let (mut db, log, _, _) = figure3_db();
        let empty = db.create_table("Empty", &[("X", DataType::Int)]).unwrap();
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(empty, 0, 0)],
            close_col: None,
            anchor_filters: vec![],
        };
        assert_eq!(estimate_support(&db, &q), 0.0);
        let _ = db;
    }

    #[test]
    fn anchor_filters_restrict_the_rows_considered() {
        let (db, log, appt, _) = figure3_db();
        let mut q = template_a(log, appt);
        // Unfiltered: L1 explained, 2 anchor rows total.
        assert_eq!(q.anchor_lid_count(&db), 2);
        // Restrict to Date >= 2: only L2 is an anchor row, and it is not
        // explained by template (A).
        q.anchor_filters = vec![(1, CmpOp::Ge, Value::Date(2))];
        assert_eq!(q.anchor_lid_count(&db), 1);
        assert!(q
            .explained_rows(&db, EvalOptions::default())
            .unwrap()
            .is_empty());
        // Restrict to Date <= 1: only L1, which is explained.
        q.anchor_filters = vec![(1, CmpOp::Le, Value::Date(1))];
        assert_eq!(
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            vec![0]
        );
        // Instances respect anchor filters too.
        assert!(q.instances(&db, 1, 8).unwrap().is_empty());
    }

    #[test]
    fn hinted_estimate_scales_with_anchor_fraction() {
        let (db, log, appt, _) = figure3_db();
        let q = template_a(log, appt);
        let full = estimate_support_hinted(&db, &q, 1.0);
        let half = estimate_support_hinted(&db, &q, 0.5);
        assert!(half <= full);
        assert!(half > 0.0);
    }

    #[test]
    fn trace_reports_progress_and_death() {
        let (db, log, appt, info) = figure3_db();
        // Template (A) on L1 (explained): one step, survivors ≥ 1, closed.
        let a = template_a(log, appt);
        let t = a.trace(&db, 0).unwrap();
        assert!(t.anchor_matches);
        assert!(t.closed);
        assert_eq!(t.survivors.len(), 1);
        assert!(t.survivors[0] >= 1);
        assert_eq!(t.died_at(), None);
        assert_eq!(t.progress(), 1);
        // Template (A) on L2 (Bob accessed by Dave): the frontier reaches
        // the end (Bob has an appointment) but misses the user.
        let t = a.trace(&db, 1).unwrap();
        assert!(!t.closed);
        assert_eq!(t.progress(), 1);
        assert!(t.survivors[0] >= 1);
        // Template (B) on L2 closes (same department).
        let b = template_b(log, appt, info);
        let t = b.trace(&db, 1).unwrap();
        assert!(t.closed);
        assert_eq!(t.survivors.len(), 3);
    }

    #[test]
    fn trace_dies_at_first_unmatched_step() {
        let (mut db, log, _, info) = figure3_db();
        // A chain forced through an empty table dies at step 1.
        let empty = db.create_table("Empty", &[("X", DataType::Int)]).unwrap();
        let q = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(empty, 0, 0), ChainStep::new(info, 0, 1)],
            close_col: Some(2),
            anchor_filters: vec![],
        };
        let t = q.trace(&db, 0).unwrap();
        assert_eq!(t.died_at(), Some(0));
        assert_eq!(t.progress(), 0);
        assert_eq!(t.survivors, vec![0, 0]);
        assert!(!t.closed);
    }

    #[test]
    fn trace_respects_anchor_filters() {
        let (db, log, appt, _) = figure3_db();
        let mut q = template_a(log, appt);
        q.anchor_filters = vec![(1, CmpOp::Ge, Value::Date(100))];
        let t = q.trace(&db, 0).unwrap();
        assert!(!t.anchor_matches);
        assert!(!t.closed);
    }

    #[test]
    fn null_start_values_are_never_explained() {
        let (mut db, log, appt, _) = figure3_db();
        db.insert(
            log,
            vec![Value::Int(3), Value::Date(3), Value::Int(1), Value::Null],
        )
        .unwrap();
        let q = template_a(log, appt);
        assert_eq!(
            q.explained_rows(&db, EvalOptions::default()).unwrap(),
            vec![0]
        );
    }
}
