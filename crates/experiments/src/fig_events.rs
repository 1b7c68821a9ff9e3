//! Figures 6 and 8: how often accessed patients have events in the
//! database ("recall of events").

use crate::figure::FigureResult;
use crate::scenario::Scenario;
use eba_audit::explain::anchors;
use eba_audit::handcrafted::event_predicates;
use eba_audit::{split, AuditView};
use eba_core::LogSpec;
use eba_relational::{ChainQuery, Database, EvalOptions, RowSet};

/// Union of rows whose patient has any data-set-A or B event, evaluated
/// as one batch on `view` (a warm engine over `db`).
pub fn rows_with_any_event(view: &AuditView, db: &Database, spec: &LogSpec) -> RowSet {
    let preds = event_predicates(db, spec).expect("schema is CareWeb-shaped");
    let queries: Vec<ChainQuery> = preds.iter().map(|(_, p)| p.to_chain_query(spec)).collect();
    view.eval_suite(&queries)
}

fn event_figure(
    s: &Scenario,
    spec: &LogSpec,
    id: &str,
    title: &str,
    include_repeat: bool,
    paper: &[(&str, f64)],
) -> FigureResult {
    let db = &s.hospital.db;
    let view = s.view();
    let denominator = anchors(&view, spec).len().max(1) as f64;
    let mut fig = FigureResult::new(id, title, &["Recall", "Paper"]);
    let preds = event_predicates(db, spec).expect("schema is CareWeb-shaped");
    let mut all = RowSet::new();
    let paper_of = |label: &str| paper.iter().find(|(l, _)| *l == label).map(|(_, v)| *v);

    let mut labels: Vec<&str> = preds.iter().map(|(label, _)| *label).collect();
    let mut queries: Vec<ChainQuery> = preds.iter().map(|(_, p)| p.to_chain_query(spec)).collect();
    if include_repeat {
        labels.push("Repeat Access");
        queries.push(s.handcrafted.repeat_access.path.to_chain_query(spec));
    }
    // One fused engine batch answers every bar of the figure.
    let per_bar = s.engine().eval_suite(db, &queries, EvalOptions::default());
    for (label, rows) in labels.into_iter().zip(per_bar) {
        let rows = rows.expect("valid predicate");
        fig.rows.push(crate::figure::FigureRow::sparse(
            label.to_string(),
            vec![Some(rows.len() as f64 / denominator), paper_of(label)],
        ));
        all.union_with(&rows);
    }
    fig.rows.push(crate::figure::FigureRow::sparse(
        "All".to_string(),
        vec![Some(all.len() as f64 / denominator), paper_of("All")],
    ));
    fig
}

/// Figure 6: frequency of events in the database for **all** accesses.
/// Paper: appointments and documents are common, visits rare, repeats a
/// majority, and ~97% of accesses reference a patient with *some* event.
pub fn fig06(s: &Scenario) -> FigureResult {
    let mut fig = event_figure(
        s,
        &s.spec,
        "Figure 6",
        "Frequency of events in the database (all accesses)",
        true,
        &[
            ("Appt", 0.60),
            ("Visit", 0.07),
            ("Document", 0.55),
            ("Repeat Access", 0.62),
            ("All", 0.97),
        ],
    );
    fig.note("paper reference values are approximate bar heights; the residue reflects the truncated data set".to_string());
    fig
}

/// Figure 8: the same measurement restricted to **first** accesses.
/// Paper: ~75% of first accesses reference a patient with some event.
pub fn fig08(s: &Scenario) -> FigureResult {
    let spec = s.spec.with_filters(split::first_only(&s.hospital.log_cols));
    let mut fig = event_figure(
        s,
        &spec,
        "Figure 8",
        "Frequency of events in the database (first accesses)",
        false,
        &[
            ("Appt", 0.55),
            ("Visit", 0.06),
            ("Document", 0.50),
            ("All", 0.75),
        ],
    );
    fig.note("the ~25% residue is attributed to the incomplete (truncated) data set".to_string());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_synth::SynthConfig;

    fn scenario() -> Scenario {
        Scenario::build(SynthConfig::tiny())
    }

    #[test]
    fn fig06_shape_matches_paper() {
        let s = scenario();
        let fig = fig06(&s);
        let all = fig.value("All", 0).unwrap();
        let appt = fig.value("Appt", 0).unwrap();
        let visit = fig.value("Visit", 0).unwrap();
        // All ≥ every individual bar; visits rare; most accesses covered.
        assert!(all >= appt && all >= visit);
        assert!(visit < appt, "visits must be rarer than appointments");
        assert!(all > 0.8, "All = {all}, expected the vast majority covered");
    }

    #[test]
    fn fig08_first_access_coverage_is_lower_than_fig06() {
        let s = scenario();
        let all6 = fig06(&s).value("All", 0).unwrap();
        let all8 = fig08(&s).value("All", 0).unwrap();
        assert!(
            all8 <= all6 + 1e-9,
            "first-access coverage ({all8}) cannot exceed all-access coverage ({all6})"
        );
        // Truncation leaves a visible residue among first accesses.
        assert!(all8 < 0.95, "All (first) = {all8}");
        assert!(all8 > 0.4, "All (first) = {all8}");
    }

    #[test]
    fn repeat_bar_only_in_fig06() {
        let s = scenario();
        assert!(fig06(&s).value("Repeat Access", 0).is_some());
        assert!(fig08(&s).value("Repeat Access", 0).is_none());
    }
}
