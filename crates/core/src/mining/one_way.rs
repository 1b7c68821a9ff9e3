//! Algorithm 1: one-way bottom-up template mining.

use crate::edge::EdgeSet;
use crate::log_spec::LogSpec;
use crate::mining::shared::{expand_frontier, finish, seed_frontier, Ctx};
use crate::mining::{MiningConfig, MiningResult};
use crate::path::Direction;
use eba_relational::Database;
use std::collections::HashMap;

/// Mines supported explanation templates by growing paths from the start
/// attribute (`Log.Patient`) one edge per round, exactly as the paper's
/// Algorithm 1:
///
/// 1. seed with the edges that begin at `Log.Patient`;
/// 2. each round, append every connected edge to every frontier path;
/// 3. keep candidates that are restricted simple paths with support ≥ S
///    (support is monotone, so unsupported paths prune their extensions);
/// 4. candidates landing on `Log.User` are explanation templates.
pub fn mine_one_way(db: &Database, spec: &LogSpec, config: &MiningConfig) -> MiningResult {
    let edges = EdgeSet::build(db);
    let mut ctx = Ctx::new(db, spec, config);
    let mut explanations = HashMap::new();
    let mut frontier = seed_frontier(&mut ctx, &edges, Direction::Forward);
    for len in 1..config.max_length {
        // Open paths of length M−1 can still close (making length-M
        // explanations) but their continuations would exceed M.
        let keep_open = len + 1 < config.max_length;
        frontier = expand_frontier(
            &mut ctx,
            &edges,
            &frontier,
            len,
            keep_open,
            &mut explanations,
        );
        if frontier.is_empty() && len + 1 < config.max_length {
            // The remaining explanations (if any) can only come from this
            // frontier; nothing left to extend.
            break;
        }
    }
    finish(ctx, explanations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_relational::{DataType, Value};

    /// Figure 3's database with FK metadata and data; template (A) has
    /// support 1/2, template (B) 2/2.
    fn figure3() -> (Database, LogSpec) {
        let mut db = Database::new();
        db.create_table(
            "Log",
            &[
                ("Lid", DataType::Int),
                ("Date", DataType::Date),
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
        db.create_table(
            "Doctor_Info",
            &[("Doctor", DataType::Int), ("Department", DataType::Str)],
        )
        .unwrap();
        db.add_fk("Log", "Patient", "Appointments", "Patient")
            .unwrap();
        db.add_fk("Appointments", "Doctor", "Log", "User").unwrap();
        db.add_fk("Appointments", "Doctor", "Doctor_Info", "Doctor")
            .unwrap();
        db.add_fk("Doctor_Info", "Doctor", "Log", "User").unwrap();
        db.allow_self_join("Doctor_Info", "Department").unwrap();

        let ped = db.str_value("Pediatrics");
        let appt = db.table_id("Appointments").unwrap();
        let info = db.table_id("Doctor_Info").unwrap();
        let log = db.table_id("Log").unwrap();
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
        let spec = LogSpec::conventional(&db).unwrap();
        (db, spec)
    }

    #[test]
    fn finds_templates_a_and_b_at_50_percent_support() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let result = mine_one_way(&db, &spec, &config);
        // Template (A) at length 2 (support 1 = 50%), template (B) at
        // length 4 (support 2), plus the Doctor_Info variant of (A) at
        // length 3 (appointment with a doctor, doctor in Doctor_Info,
        // doctor accessed) — all supported.
        let lengths: Vec<usize> = result.templates.iter().map(|t| t.length()).collect();
        assert!(lengths.contains(&2), "lengths: {lengths:?}");
        assert!(lengths.contains(&4), "lengths: {lengths:?}");
        let a = result.of_length(2).next().unwrap();
        assert_eq!(a.support, 1);
        // Support threshold: ceil(0.5 * 2) = 1.
        assert_eq!(result.threshold, 1);
        assert_eq!(result.anchor_lids, 2);
    }

    #[test]
    fn higher_threshold_prunes_template_a() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.9,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let result = mine_one_way(&db, &spec, &config);
        // Only templates explaining both accesses survive (threshold 2).
        assert_eq!(result.threshold, 2);
        assert!(result.templates.iter().all(|t| t.support == 2));
        assert!(result.of_length(2).next().is_none());
        // Template (B) survives.
        assert!(result.of_length(4).next().is_some());
    }

    #[test]
    fn max_length_truncates_discovery() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 2,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let result = mine_one_way(&db, &spec, &config);
        assert!(result.templates.iter().all(|t| t.length() <= 2));
        assert!(result.of_length(2).next().is_some());
    }

    #[test]
    fn max_tables_excludes_wide_templates() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 2,
            ..MiningConfig::default()
        };
        let result = mine_one_way(&db, &spec, &config);
        // Every mined template respects the limit (template (B), which
        // needs Log + Appointments + Doctor_Info = 3 tables, is excluded;
        // length-4 chains through a fresh Log alias use only 2 tables and
        // may remain).
        assert!(result
            .templates
            .iter()
            .all(|t| t.path.table_count(spec.table, &[]) <= 2));
        let info = db.table_id("Doctor_Info").unwrap();
        assert!(result
            .templates
            .iter()
            .all(|t| !t.path.tuple_vars().contains(&info)));
        // Template (A) needs only 2 tables and is found.
        assert!(result.of_length(2).next().is_some());
    }

    #[test]
    fn stats_track_rounds() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            ..MiningConfig::default()
        };
        let result = mine_one_way(&db, &spec, &config);
        assert!(!result.stats.per_length.is_empty());
        assert!(result.stats.support_queries() > 0);
        let cumulative = result.stats.cumulative();
        // Cumulative times are non-decreasing.
        for w in cumulative.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn empty_log_mines_nothing() {
        let (mut db, _) = figure3();
        // Recreate an empty-log database.
        let mut fresh = Database::new();
        fresh
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
        fresh
            .create_table(
                "Appointments",
                &[("Patient", DataType::Int), ("Doctor", DataType::Int)],
            )
            .unwrap();
        fresh
            .add_fk("Log", "Patient", "Appointments", "Patient")
            .unwrap();
        fresh
            .add_fk("Appointments", "Doctor", "Log", "User")
            .unwrap();
        let spec = LogSpec::conventional(&fresh).unwrap();
        let result = mine_one_way(&fresh, &spec, &MiningConfig::default());
        assert!(result.templates.is_empty());
        let _ = &mut db;
    }
}
