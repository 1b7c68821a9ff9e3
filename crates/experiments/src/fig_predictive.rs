//! Figure 14: predictive power of the *mined* templates.

use crate::fig_events::rows_with_any_event;
use crate::fig_mining::mining_config_for;
use crate::figure::FigureResult;
use crate::scenario::Scenario;
use eba_audit::explain::anchors;
use eba_audit::fake::{user_pool, FakeLog};
use eba_audit::{metrics, split, AuditView};
use eba_core::mine_one_way;
use eba_core::MinedTemplate;
use eba_relational::{ChainQuery, Engine, RowSet, Value};

/// Figure 14: templates are mined from the first accesses of days 1–6 (with
/// group information), then tested on day-7 first accesses combined with a
/// fake log. Paper shape: length-2 templates have the best precision and
/// ~34% recall (42% normalized); length 3 raises recall to ~51% (65%);
/// length 4 (groups) to ~73% (89%) at lower precision; "All" is close to
/// length 4 because longer templates subsume shorter ones.
pub fn fig14(s: &Scenario) -> FigureResult {
    let mined = mine_one_way(
        &s.hospital.db,
        &s.train_spec(),
        &mining_config_for(&s.hospital),
    );

    // Build the combined (real + fake) test database.
    let mut db = s.hospital.db.clone();
    let users = user_pool(&db);
    let patients: Vec<Value> = (0..s.hospital.world.n_patients())
        .map(|p| s.hospital.patient_value(p))
        .collect();
    let fake = FakeLog::inject(
        &mut db,
        s.hospital.t_log,
        &s.hospital.log_cols,
        &users,
        &patients,
        s.hospital.log_len(),
        s.hospital.config.days,
        0xF1614,
    );
    let spec = s
        .spec
        .with_filters(split::days_first(&s.hospital.log_cols, 7, 7));
    // One warm engine over the combined database serves every template
    // group of the figure (and the event-coverage denominator).
    let engine = Engine::new(&db);
    let view = AuditView::warm(&db, &engine);
    let first_accesses = anchors(&view, &spec);
    let with_events = rows_with_any_event(&view, &db, &spec);

    let mut fig = FigureResult::new(
        "Figure 14",
        "Mined explanations' predictive power for first accesses (trained days 1-6, tested day 7)",
        &["Precision", "Recall", "Recall Normalized"],
    );
    let lengths: Vec<usize> = {
        let mut ls: Vec<usize> = mined.templates.iter().map(|t| t.length()).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    let mut eval_group = |label: String, rows: RowSet| {
        let c = metrics::evaluate(&first_accesses, &rows, Some(&fake), Some(&with_events));
        fig.push_row(label, &[c.precision(), c.recall(), c.normalized_recall()]);
    };

    let explained_union = |templates: Vec<&MinedTemplate>| -> RowSet {
        let queries: Vec<ChainQuery> = templates
            .iter()
            .map(|t| t.path.to_chain_query(&spec))
            .collect();
        view.eval_suite(&queries)
    };
    for length in &lengths {
        eval_group(
            format!("Length {length}"),
            explained_union(mined.of_length(*length).collect()),
        );
    }
    eval_group(
        "All".to_string(),
        explained_union(mined.templates.iter().collect()),
    );

    // Context: how much of the test split is even explainable.
    let coverage = rows_with_any_event(&s.view(), &s.hospital.db, &spec);
    let real_anchor = first_accesses.iter().filter(|&r| !fake.is_fake(r)).count();
    let covered = first_accesses
        .iter()
        .filter(|&r| !fake.is_fake(r) && coverage.contains(r))
        .count();
    fig.note(format!(
        "{} templates mined on days 1-6; {covered}/{real_anchor} day-7 first accesses reference a patient with events",
        mined.templates.len()
    ));
    fig.note("paper: precision falls and recall rises with length (34%→51%→73%); All ≈ length 4 because longer templates subsume shorter ones".to_string());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_synth::SynthConfig;

    #[test]
    fn fig14_recall_rises_precision_falls_with_length() {
        let s = Scenario::build(SynthConfig::tiny());
        let fig = fig14(&s);
        // The shape assertions of the paper: longer templates explain more
        // (weakly) and "All" matches the most permissive group.
        let lengths: Vec<&crate::figure::FigureRow> = fig
            .rows
            .iter()
            .filter(|r| r.label.starts_with("Length"))
            .collect();
        assert!(lengths.len() >= 2, "expected several template lengths");
        let first_recall = lengths.first().unwrap().values[1].unwrap();
        let last_recall = lengths.last().unwrap().values[1].unwrap();
        assert!(
            last_recall >= first_recall,
            "recall should rise with length ({first_recall} → {last_recall})"
        );
        let first_precision = lengths.first().unwrap().values[0].unwrap();
        let last_precision = lengths.last().unwrap().values[0].unwrap();
        assert!(
            first_precision >= last_precision - 0.05,
            "short templates should be at least as precise ({first_precision} vs {last_precision})"
        );
        let all_recall = fig.value("All", 1).unwrap();
        assert!(all_recall + 1e-9 >= last_recall);
    }

    #[test]
    fn fig14_normalized_recall_dominates_recall() {
        let s = Scenario::build(SynthConfig::tiny());
        let fig = fig14(&s);
        for row in &fig.rows {
            let (Some(recall), Some(norm)) = (row.values[1], row.values[2]) else {
                continue;
            };
            assert!(
                norm + 1e-9 >= recall,
                "normalized recall must be ≥ recall ({})",
                row.label
            );
        }
    }
}
