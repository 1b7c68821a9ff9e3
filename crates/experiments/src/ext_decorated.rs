//! Extension experiment: mining decorated group templates.
//!
//! §5.3.4 closes with the paper's future work: "we will consider how to
//! mine decorated explanation templates that restrict the groups that can
//! be used to better control precision" — motivated by their observation
//! that group information at one hierarchy depth suits appointment
//! explanations while another depth suits medication ones. This experiment
//! implements and evaluates that idea with
//! [`eba_core::mining::decorate::refine`]: every mined template that
//! traverses the `Groups` table is pinned to the deepest hierarchy level
//! that keeps its training support, then both template sets are compared on
//! the day-7 test split with the fake log.

use crate::fig_mining::mining_config_for;
use crate::figure::FigureResult;
use crate::scenario::Scenario;
use eba_audit::explain::anchors;
use eba_audit::fake::{user_pool, FakeLog};
use eba_audit::{metrics, split, AuditView};
use eba_core::mine_one_way;
use eba_core::mining::decorate::{refine_with, DecorationCandidate};
use eba_relational::{ChainQuery, Engine, Value};

/// Compares plain mined group templates against their depth-refined
/// decorated variants. Expected shape: precision rises, recall gives up a
/// little — the knob the paper wanted.
pub fn ext_decorated(s: &Scenario) -> FigureResult {
    let train_spec = s.train_spec();
    let config = mining_config_for(&s.hospital);
    let mined = mine_one_way(&s.hospital.db, &train_spec, &config);
    let groups_t = s
        .hospital
        .db
        .table_id("Groups")
        .expect("scenario installs groups");

    // Partition the mined set: templates using Groups vs the rest.
    let (group_templates, other_templates): (Vec<_>, Vec<_>) = mined
        .templates
        .iter()
        .cloned()
        .partition(|t| t.path.tuple_vars().contains(&groups_t));

    let max_depth = s.groups.hierarchy.depth_count() - 1;
    let candidate =
        DecorationCandidate::group_depths(&s.hospital.db, max_depth).expect("Groups installed");
    // Refinement re-evaluates the mined set against the *training*
    // database — the scenario's warm engine already holds those step maps.
    let refined = refine_with(
        &s.hospital.db,
        &train_spec,
        &group_templates,
        &candidate,
        mined.threshold,
        &config,
        s.engine(),
    );

    // Test environment: day-7 first accesses plus the fake log.
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
        0xDEC0,
    );
    let spec = s
        .spec
        .with_filters(split::days_first(&s.hospital.log_cols, 7, 7));

    // One warm engine over the combined test database serves all four
    // template-set evaluations below.
    let test_engine = Engine::new(&db);
    let view = AuditView::warm(&db, &test_engine);
    let first_accesses = anchors(&view, &spec);
    let eval_paths = |paths: Vec<&eba_core::Path>| -> (f64, f64) {
        let queries: Vec<ChainQuery> = paths.iter().map(|p| p.to_chain_query(&spec)).collect();
        let c = metrics::evaluate(
            &first_accesses,
            &view.eval_suite(&queries),
            Some(&fake),
            None,
        );
        (c.precision(), c.recall())
    };

    let mut fig = FigureResult::new(
        "Extension (decorated mining)",
        "Depth-refined group templates vs plain mined templates (day-7 first accesses)",
        &["Precision", "Recall"],
    );
    let (p_plain, r_plain) = eval_paths(group_templates.iter().map(|t| &t.path).collect());
    fig.push_row("Group templates, any depth", &[p_plain, r_plain]);
    let (p_ref, r_ref) = eval_paths(refined.iter().map(|d| &d.path).collect());
    fig.push_row("Group templates, depth-refined", &[p_ref, r_ref]);
    let (p_all, r_all) = eval_paths(
        other_templates
            .iter()
            .map(|t| &t.path)
            .chain(group_templates.iter().map(|t| &t.path))
            .collect(),
    );
    fig.push_row("Full mined set (baseline)", &[p_all, r_all]);
    let (p_all_ref, r_all_ref) = eval_paths(
        other_templates
            .iter()
            .map(|t| &t.path)
            .chain(refined.iter().map(|d| &d.path))
            .collect(),
    );
    fig.push_row("Full set with refined groups", &[p_all_ref, r_all_ref]);
    fig.note(format!(
        "{} of {} group templates kept a depth decoration; chosen depths: {:?}",
        refined.len(),
        group_templates.len(),
        {
            let mut depths: Vec<i64> = refined
                .iter()
                .map(|d| match d.pinned {
                    Value::Int(i) => i,
                    _ => -1,
                })
                .collect();
            depths.sort_unstable();
            depths.dedup();
            depths
        }
    ));
    fig.note(
        "implements the paper's §5.3.4 future work: restricting group depth to control precision"
            .to_string(),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_synth::SynthConfig;

    #[test]
    fn refinement_does_not_hurt_precision() {
        let s = Scenario::build(SynthConfig::tiny());
        let fig = ext_decorated(&s);
        let plain_p = fig.value("Group templates, any depth", 0).unwrap();
        let refined_p = fig.value("Group templates, depth-refined", 0).unwrap();
        assert!(
            refined_p + 1e-9 >= plain_p,
            "refined precision {refined_p} < plain {plain_p}"
        );
        // Refinement can only shrink the explained set.
        let plain_r = fig.value("Group templates, any depth", 1).unwrap();
        let refined_r = fig.value("Group templates, depth-refined", 1).unwrap();
        assert!(refined_r <= plain_r + 1e-9);
    }
}
