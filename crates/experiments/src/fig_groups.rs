//! Figures 10–12: collaborative groups — their composition and their
//! predictive power.

use crate::fig_events::rows_with_any_event;
use crate::figure::{FigureResult, FigureRow};
use crate::scenario::Scenario;
use eba_audit::explain::{anchors, explained};
use eba_audit::fake::{user_pool, FakeLog};
use eba_audit::handcrafted::{same_department, same_group, EventTable};
use eba_audit::{metrics, split, AuditView};
use eba_core::ExplanationTemplate;
use eba_relational::{Engine, Value};
use std::collections::HashMap;

/// Figures 10 and 11: department-code composition of discovered top-level
/// groups. The paper showcases a Cancer Center group (oncology physicians,
/// radiology, pathology, clinical trials, pharmacy...) and a Psychiatry
/// group (psychiatry physicians, psych nursing, social work, medical
/// students on rotation) — the point being that collaborative groups cut
/// *across* department codes.
pub fn fig10_11(s: &Scenario) -> Vec<FigureResult> {
    ["Cancer Center", "Psychiatry"]
        .iter()
        .enumerate()
        .map(|(i, specialty)| {
            let fig_id = format!("Figure {}", 10 + i);
            group_composition(s, specialty, &fig_id)
        })
        .collect()
}

fn group_composition(s: &Scenario, specialty: &str, fig_id: &str) -> FigureResult {
    let depth = 1;
    let assignment = s.groups.hierarchy.assignment(depth);
    // Find the depth-1 group holding the most users of this specialty's
    // physician department.
    let mut votes: HashMap<u32, usize> = HashMap::new();
    for (node, &gid) in assignment.iter().enumerate() {
        let user_value = s.groups.user_values[node];
        if let Some(idx) = s.hospital.user_index(user_value) {
            if s.hospital.world.users[idx].department.contains(specialty) {
                *votes.entry(gid).or_default() += 1;
            }
        }
    }
    let mut fig = FigureResult::new(
        fig_id,
        format!("Collaborative group composition ({specialty})"),
        &["Members", "Share"],
    );
    let Some((&gid, _)) = votes.iter().max_by_key(|(_, n)| **n) else {
        fig.note(format!("no users with department containing {specialty:?}"));
        return fig;
    };
    let mut dept_counts: HashMap<&str, usize> = HashMap::new();
    let mut total = 0usize;
    for (node, &g) in assignment.iter().enumerate() {
        if g != gid {
            continue;
        }
        if let Some(idx) = s.hospital.user_index(s.groups.user_values[node]) {
            *dept_counts
                .entry(s.hospital.world.users[idx].department.as_str())
                .or_default() += 1;
            total += 1;
        }
    }
    let mut rows: Vec<(&str, usize)> = dept_counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (dept, n) in rows {
        fig.push_row(dept, &[n as f64, n as f64 / total.max(1) as f64]);
    }
    fig.note("groups were trained on days 1-6; note the mix of physician, nursing, consult and student codes".to_string());
    fig
}

/// Figure 12: group predictive power on day-7 first accesses, with the
/// fake log of §5.3.2. Depth 0 is the all-users baseline (recall = event
/// coverage, low precision); deeper groups trade recall for precision.
/// `Same Dept.` uses department codes instead of groups and, as in the
/// paper, under-performs them.
pub fn fig12(s: &Scenario) -> FigureResult {
    // Work on a copy: the fake log must not leak into other experiments.
    let mut db = s.hospital.db.clone();
    let n_fake = s.hospital.log_len();
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
        n_fake,
        s.hospital.config.days,
        0xF1612,
    );

    let spec = s
        .spec
        .with_filters(split::days_first(&s.hospital.log_cols, 7, 7));
    // One warm engine over the combined database serves every depth's
    // template set, the department baseline, and the headline rows.
    let engine = Engine::new(&db);
    let view = AuditView::warm(&db, &engine);
    let first_accesses = anchors(&view, &spec);
    let with_events = rows_with_any_event(&view, &db, &spec);

    let mut fig = FigureResult::new(
        "Figure 12",
        "Group predictive power for first accesses (trained days 1-6, tested day 7)",
        &["Precision", "Recall", "Recall Normalized"],
    );

    // Depth 0: everyone in one group — an access is "explained" iff the
    // patient has any event.
    let c0 = metrics::evaluate(
        &first_accesses,
        &with_events,
        Some(&fake),
        Some(&with_events),
    );
    fig.push_row(
        "Depth 0",
        &[c0.precision(), c0.recall(), c0.normalized_recall()],
    );

    for depth in 1..s.groups.hierarchy.depth_count() {
        let templates: Vec<ExplanationTemplate> = EventTable::ALL
            .iter()
            .map(|e| same_group(&db, &spec, *e, Some(depth as i64)).expect("Groups installed"))
            .collect();
        let c = metrics::evaluate(
            &first_accesses,
            &explained(&view, &spec, &templates),
            Some(&fake),
            Some(&with_events),
        );
        fig.push_row(
            format!("Depth {depth}"),
            &[c.precision(), c.recall(), c.normalized_recall()],
        );
    }

    let dept_templates: Vec<ExplanationTemplate> = EventTable::ALL
        .iter()
        .map(|e| same_department(&db, &spec, *e).expect("Users table exists"))
        .collect();
    let c = metrics::evaluate(
        &first_accesses,
        &explained(&view, &spec, &dept_templates),
        Some(&fake),
        Some(&with_events),
    );
    fig.push_row(
        "Same Dept.",
        &[c.precision(), c.recall(), c.normalized_recall()],
    );

    // The paper's headline: combining the hand-crafted set with depth-1
    // groups explains over 94% of all day-7 accesses.
    let day7_all = s
        .spec
        .with_filters(split::day_range(&s.hospital.log_cols, 7, 7));
    let day7 = anchors(&view, &day7_all);
    let basic = explained(&view, &day7_all, s.handcrafted.all_with_repeat());
    let base_recall = metrics::evaluate(&day7, &basic, Some(&fake), None).recall();
    let with_groups_recall = {
        let mut extra: Vec<ExplanationTemplate> = EventTable::ALL
            .iter()
            .map(|e| same_group(&db, &day7_all, *e, Some(1)).expect("Groups installed"))
            .collect();
        extra.extend(s.handcrafted.consult().into_iter().cloned());
        let mut all = basic;
        all.union_with(&explained(&view, &day7_all, &extra));
        metrics::evaluate(&day7, &all, Some(&fake), None).recall()
    };
    fig.rows.push(FigureRow::sparse(
        "Day-7 all accesses: basic set",
        vec![None, Some(base_recall), None],
    ));
    fig.rows.push(FigureRow::sparse(
        "Day-7 all accesses: + groups@1 + consults",
        vec![None, Some(with_groups_recall), None],
    ));
    fig.note("paper: depth 0 explains 81% of first accesses; depth 1 balances precision >90%; combined set explains >94% of all day-7 accesses".to_string());
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
    fn fig10_11_groups_mix_department_codes() {
        let s = scenario();
        let figs = fig10_11(&s);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            assert!(
                fig.rows.len() >= 2,
                "{} should mix several department codes, got {}",
                fig.id,
                fig.rows.len()
            );
            // Shares sum to ~1.
            let total: f64 = fig.rows.iter().filter_map(|r| r.values[1]).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig12_depth_tradeoff() {
        let s = scenario();
        let fig = fig12(&s);
        let d0_recall = fig.value("Depth 0", 1).unwrap();
        let d0_precision = fig.value("Depth 0", 0).unwrap();
        let d1_recall = fig.value("Depth 1", 1).unwrap();
        let d1_precision = fig.value("Depth 1", 0).unwrap();
        // Depth 0 has the highest recall (it is the upper bound: any-event).
        assert!(d0_recall >= d1_recall - 1e-9);
        // Restricting to real groups improves precision.
        assert!(
            d1_precision >= d0_precision - 1e-9,
            "depth-1 precision {d1_precision} < depth-0 {d0_precision}"
        );
        // Recall decreases (weakly) with depth.
        let mut prev = d1_recall;
        for depth in 2..s.groups.hierarchy.depth_count() {
            if let Some(r) = fig.value(&format!("Depth {depth}"), 1) {
                assert!(r <= prev + 1e-9, "recall must not grow with depth");
                prev = r;
            }
        }
    }

    #[test]
    fn fig12_groups_beat_department_codes() {
        let s = scenario();
        let fig = fig12(&s);
        let d1_recall = fig.value("Depth 1", 1).unwrap();
        let dept_recall = fig.value("Same Dept.", 1).unwrap();
        assert!(
            d1_recall >= dept_recall,
            "groups ({d1_recall}) should outperform department codes ({dept_recall})"
        );
    }

    #[test]
    fn fig12_headline_grows_with_groups() {
        let s = scenario();
        let fig = fig12(&s);
        let base = fig.value("Day-7 all accesses: basic set", 1).unwrap();
        let full = fig
            .value("Day-7 all accesses: + groups@1 + consults", 1)
            .unwrap();
        assert!(full >= base);
        assert!(full > 0.75, "headline day-7 recall {full} too low");
    }
}
