//! Two-way template mining (§3.3).
//!
//! "The two-way algorithm constructs paths in two directions: from the
//! start to the end, and from the end to the start." Both frontiers grow
//! one edge per round; a path from either frontier that lands on the
//! anchor's opposite attribute is an explanation template (closed backward
//! paths are normalized into forward form, and the canonical-form key
//! deduplicates templates discovered from both sides).
//!
//! On its own the two-way algorithm explores strictly more paths than
//! one-way (every supported backward path in addition to the forward
//! ones) — the paper's Figure 13 indeed measures it slower. Its value is
//! as the first phase of [`crate::mining::mine_bridge`].

use crate::edge::EdgeSet;
use crate::log_spec::LogSpec;
use crate::mining::shared::{expand_frontier, finish, seed_frontier, Ctx};
use crate::mining::{MiningConfig, MiningResult};
use crate::path::Direction;
use eba_relational::Database;
use std::collections::HashMap;

/// Mines supported explanation templates growing paths from both
/// `Log.Patient` (forward) and `Log.User` (backward).
pub fn mine_two_way(db: &Database, spec: &LogSpec, config: &MiningConfig) -> MiningResult {
    let (result, _, _) = mine_two_way_with_frontiers(db, spec, config, config.max_length);
    result
}

/// Two-way mining that also returns the final open frontiers (all supported
/// open paths of length exactly `frontier_len`), for bridging.
pub(crate) fn mine_two_way_with_frontiers(
    db: &Database,
    spec: &LogSpec,
    config: &MiningConfig,
    frontier_len: usize,
) -> (MiningResult, Vec<crate::path::Path>, Vec<crate::path::Path>) {
    let edges = EdgeSet::build(db);
    let mut ctx = Ctx::new(db, spec, config);
    let mut explanations = HashMap::new();
    let mut fwd = seed_frontier(&mut ctx, &edges, Direction::Forward);
    let mut bwd = seed_frontier(&mut ctx, &edges, Direction::Backward);
    for len in 1..frontier_len.max(1) {
        let keep_open = len < frontier_len;
        fwd = expand_frontier(&mut ctx, &edges, &fwd, len, keep_open, &mut explanations);
        bwd = expand_frontier(&mut ctx, &edges, &bwd, len, keep_open, &mut explanations);
        if fwd.is_empty() && bwd.is_empty() {
            break;
        }
    }
    (finish(ctx, explanations), fwd, bwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::mine_one_way;
    use eba_relational::{DataType, Value};

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
    fn agrees_with_one_way() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let one = mine_one_way(&db, &spec, &config);
        let two = mine_two_way(&db, &spec, &config);
        assert_eq!(one.key_set(), two.key_set());
        assert_eq!(one.templates.len(), two.templates.len());
        // Same supports per key.
        for (a, b) in one.templates.iter().zip(&two.templates) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.support, b.support);
        }
    }

    #[test]
    fn considers_more_initial_edges_than_one_way() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 3,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let one = mine_one_way(&db, &spec, &config);
        let two = mine_two_way(&db, &spec, &config);
        // The paper: "the one-way algorithm was faster than the two-way
        // algorithm because the two-way algorithm considers more initial
        // edges". Our proxy: candidate counts.
        let c1: usize = one.stats.per_length.iter().map(|s| s.candidates).sum();
        let c2: usize = two.stats.per_length.iter().map(|s| s.candidates).sum();
        assert!(c2 > c1, "two-way candidates {c2} ≤ one-way {c1}");
    }

    #[test]
    fn frontiers_contain_supported_open_paths() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let (_, fwd, bwd) = mine_two_way_with_frontiers(&db, &spec, &config, 2);
        assert!(fwd.iter().all(|p| p.length() == 2 && !p.is_closed()));
        assert!(bwd.iter().all(|p| p.length() == 2 && !p.is_closed()));
        assert!(!fwd.is_empty());
        assert!(!bwd.is_empty());
    }
}
