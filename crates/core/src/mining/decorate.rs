//! Mining *decorated* templates — the paper's stated future work.
//!
//! §3.1 leaves "developing algorithms for mining more complex (decorated)
//! explanation templates to future work", and §5.3.4 sketches the use case:
//! "in the future, we will consider how to mine decorated explanation
//! templates that restrict the groups that can be used to better control
//! precision" — e.g. group information at one hierarchy depth suffices for
//! appointment-based explanations, while another depth is needed for
//! medication-based ones.
//!
//! This module implements that refinement: given mined (simple) templates
//! and a *decoration candidate* — a column of some table together with the
//! constants it may be pinned to, ordered from most to least restrictive —
//! [`refine`] produces, for each template that traverses the candidate's
//! table, the most restrictive decorated variant that still meets the
//! support threshold. Support monotonicity makes the scan sound: once a
//! decoration value meets the threshold, looser values can only explain
//! more.

use crate::canonical::canonical_key;
use crate::log_spec::LogSpec;
use crate::mining::{MinedTemplate, MiningConfig};
use crate::path::Path;
use eba_relational::{
    ChainQuery, CmpOp, ColId, Database, Engine, EvalOptions, Rhs, StepFilter, TableId, Value,
};

/// A column that may be pinned to a constant on every tuple variable of its
/// table (e.g. `Groups.Depth` pinned to one hierarchy level).
#[derive(Debug, Clone)]
pub struct DecorationCandidate {
    /// Table whose tuple variables receive the decoration.
    pub table: TableId,
    /// Column to pin.
    pub col: ColId,
    /// Constants to try, **most restrictive first** (for `Groups.Depth`,
    /// deepest level first). The first value meeting the threshold wins.
    pub values: Vec<Value>,
}

impl DecorationCandidate {
    /// The candidate for a `Groups(Depth, Group_id, User)` table: depths
    /// from deepest to shallowest (excluding the degenerate depth 0, which
    /// the table does not store).
    pub fn group_depths(db: &Database, max_depth: usize) -> eba_relational::Result<Self> {
        let table = db.table_id("Groups")?;
        let col = db.table(table).schema().col("Depth").ok_or_else(|| {
            eba_relational::Error::UnknownColumn {
                table: "Groups".into(),
                column: "Depth".into(),
            }
        })?;
        Ok(DecorationCandidate {
            table,
            col,
            values: (1..=max_depth)
                .rev()
                .map(|d| Value::Int(d as i64))
                .collect(),
        })
    }
}

/// One refined template: the decorated path plus its provenance.
#[derive(Debug, Clone)]
pub struct DecoratedTemplate {
    /// The decorated path.
    pub path: Path,
    /// Support of the decorated template.
    pub support: usize,
    /// The decoration constant that was chosen.
    pub pinned: Value,
    /// Canonical key of the *undecorated* template it refines.
    pub base_key: crate::canonical::CanonicalKey,
}

/// Refines `templates` with `candidate`: every template whose path visits
/// the candidate's table gets the most restrictive decoration that keeps
/// support at or above `threshold`. Templates not touching the table (or
/// where even the loosest value fails) are omitted from the output.
///
/// Evaluation proceeds value-round by value-round (most restrictive value
/// first, across all still-unresolved templates), so each round is one
/// batch the shared [`Engine`] evaluates in parallel — the same queries,
/// in the same monotone order, as the one-at-a-time scan.
pub fn refine(
    db: &Database,
    spec: &LogSpec,
    templates: &[MinedTemplate],
    candidate: &DecorationCandidate,
    threshold: usize,
    config: &MiningConfig,
) -> Vec<DecoratedTemplate> {
    refine_with(
        db,
        spec,
        templates,
        candidate,
        threshold,
        config,
        &Engine::new(db),
    )
}

/// [`refine`] against a caller-provided engine: a caller that already
/// holds an [`Engine`] over this database (e.g. one built per auditing
/// session and used for several refinements) reuses its warm snapshot and
/// step-map cache instead of paying [`refine`]'s fresh full-database scan.
pub fn refine_with(
    db: &Database,
    spec: &LogSpec,
    templates: &[MinedTemplate],
    candidate: &DecorationCandidate,
    threshold: usize,
    config: &MiningConfig,
    engine: &Engine,
) -> Vec<DecoratedTemplate> {
    let opts = EvalOptions {
        dedup: config.opt_dedup,
    };
    // Templates still looking for their decoration value, with the aliases
    // (1-based) of the candidate table on their path.
    let mut pending: Vec<(&MinedTemplate, Vec<usize>)> = templates
        .iter()
        .filter_map(|t| {
            let aliases: Vec<usize> = t
                .path
                .tuple_vars()
                .iter()
                .enumerate()
                .filter(|(_, table)| **table == candidate.table)
                .map(|(i, _)| i + 1)
                .collect();
            (!aliases.is_empty()).then_some((t, aliases))
        })
        .collect();

    let mut out = Vec::new();
    for v in &candidate.values {
        if pending.is_empty() {
            break;
        }
        let decorated: Vec<Path> = pending
            .iter()
            .map(|(t, aliases)| {
                let mut path = t.path.clone();
                for &alias in aliases {
                    path = path
                        .decorated(
                            alias,
                            StepFilter {
                                col: candidate.col,
                                op: CmpOp::Eq,
                                rhs: Rhs::Const(*v),
                            },
                        )
                        .expect("alias indexes come from the path itself");
                }
                path
            })
            .collect();
        let queries: Vec<ChainQuery> = decorated.iter().map(|p| p.to_chain_query(spec)).collect();
        let supports: Vec<usize> = engine
            .support_many(db, &queries, opts)
            .into_iter()
            .map(|r| r.expect("decorating a valid path keeps it valid"))
            .collect();

        let mut still_pending = Vec::with_capacity(pending.len());
        for (((t, aliases), path), support) in pending.into_iter().zip(decorated).zip(supports) {
            if support >= threshold {
                out.push(DecoratedTemplate {
                    path,
                    support,
                    pinned: *v,
                    base_key: t.key.clone(),
                });
            } else {
                still_pending.push((t, aliases));
            }
        }
        pending = still_pending;
    }
    out.sort_by(|a, b| {
        (a.path.length(), canonical_key(&a.path, spec))
            .cmp(&(b.path.length(), canonical_key(&b.path, spec)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{mine_one_way, MiningConfig};
    use eba_relational::DataType;

    /// A database where depth-2 groups explain fewer accesses than
    /// depth-1: patients 1..4, users 1..4; user 1 has appointments; users
    /// 2..4 access because they share a (depth-dependent) group with
    /// user 1.
    fn grouped_db() -> (Database, LogSpec) {
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
            &[("Patient", DataType::Int), ("Doctor", DataType::Int)],
        )
        .unwrap();
        db.create_table(
            "Groups",
            &[
                ("Depth", DataType::Int),
                ("Group_id", DataType::Int),
                ("User", DataType::Int),
            ],
        )
        .unwrap();
        let log = db.table_id("Log").unwrap();
        let appt = db.table_id("Appointments").unwrap();
        let groups = db.table_id("Groups").unwrap();
        // Appointments: every patient with doctor (user 1).
        for p in 1..=4i64 {
            db.insert(appt, vec![Value::Int(p), Value::Int(1)]).unwrap();
        }
        // Groups: depth 1 = {1,2,3} and {4}; depth 2 = {1,2} and {3} and {4}.
        for (depth, gid, user) in [
            (1, 10, 1),
            (1, 10, 2),
            (1, 10, 3),
            (1, 11, 4),
            (2, 20, 1),
            (2, 20, 2),
            (2, 21, 3),
            (2, 22, 4),
        ] {
            db.insert(
                groups,
                vec![Value::Int(depth), Value::Int(gid), Value::Int(user)],
            )
            .unwrap();
        }
        // Log: users 2 and 3 access patients (team accesses).
        for (lid, user, patient) in [(1, 2, 1), (2, 3, 2), (3, 2, 3), (4, 3, 4)] {
            db.insert(
                log,
                vec![
                    Value::Int(lid),
                    Value::Date(lid),
                    Value::Int(user),
                    Value::Int(patient),
                ],
            )
            .unwrap();
        }
        db.add_fk("Log", "Patient", "Appointments", "Patient")
            .unwrap();
        db.add_fk("Appointments", "Doctor", "Log", "User").unwrap();
        db.add_fk("Appointments", "Doctor", "Groups", "User")
            .unwrap();
        db.add_fk("Groups", "User", "Log", "User").unwrap();
        db.allow_self_join("Groups", "Group_id").unwrap();
        let spec = LogSpec::conventional(&db).unwrap();
        (db, spec)
    }

    fn mined(db: &Database, spec: &LogSpec) -> (Vec<MinedTemplate>, MiningConfig) {
        let config = MiningConfig {
            support_frac: 0.5, // threshold = 2 of 4 accesses
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let result = mine_one_way(db, spec, &config);
        (result.templates, config)
    }

    #[test]
    fn refinement_pins_the_deepest_supported_depth() {
        let (db, spec) = grouped_db();
        let (templates, config) = mined(&db, &spec);
        // The undecorated group template (length 4) is supported: all four
        // accesses go through depth-1 group 10.
        assert!(templates.iter().any(|t| t.length() == 4));
        let candidate = DecorationCandidate::group_depths(&db, 2).unwrap();
        let refined = refine(&db, &spec, &templates, &candidate, 2, &config);
        assert!(!refined.is_empty());
        // Depth 2 only explains accesses by user 2 (group {1,2}): support 2
        // — exactly at threshold, so depth 2 is chosen over depth 1.
        let group_refined = refined
            .iter()
            .find(|d| d.path.length() == 4)
            .expect("group template refined");
        assert_eq!(group_refined.pinned, Value::Int(2));
        assert_eq!(group_refined.support, 2);
    }

    #[test]
    fn higher_threshold_falls_back_to_shallower_depth() {
        let (db, spec) = grouped_db();
        let (templates, config) = mined(&db, &spec);
        let candidate = DecorationCandidate::group_depths(&db, 2).unwrap();
        // Threshold 4: only depth 1 explains all four accesses.
        let refined = refine(&db, &spec, &templates, &candidate, 4, &config);
        let group_refined = refined
            .iter()
            .find(|d| d.path.length() == 4)
            .expect("group template refined");
        assert_eq!(group_refined.pinned, Value::Int(1));
        assert_eq!(group_refined.support, 4);
    }

    #[test]
    fn templates_without_the_table_are_skipped() {
        let (db, spec) = grouped_db();
        let (templates, config) = mined(&db, &spec);
        let candidate = DecorationCandidate::group_depths(&db, 2).unwrap();
        let refined = refine(&db, &spec, &templates, &candidate, 1, &config);
        // Every refined path traverses Groups.
        let groups = db.table_id("Groups").unwrap();
        for d in &refined {
            assert!(d.path.tuple_vars().contains(&groups));
            assert!(!d.path.decorations().is_empty());
        }
        // And none of the non-Groups templates appear.
        assert!(refined.len() <= templates.len());
    }

    #[test]
    fn unsatisfiable_thresholds_yield_nothing() {
        let (db, spec) = grouped_db();
        let (templates, config) = mined(&db, &spec);
        let candidate = DecorationCandidate::group_depths(&db, 2).unwrap();
        let refined = refine(&db, &spec, &templates, &candidate, 100, &config);
        assert!(refined.is_empty());
    }

    #[test]
    fn decorated_support_never_exceeds_base_support() {
        let (db, spec) = grouped_db();
        let (templates, config) = mined(&db, &spec);
        let by_key: std::collections::HashMap<_, usize> = templates
            .iter()
            .map(|t| (t.key.clone(), t.support))
            .collect();
        let candidate = DecorationCandidate::group_depths(&db, 2).unwrap();
        for d in refine(&db, &spec, &templates, &candidate, 1, &config) {
            assert!(d.support <= by_key[&d.base_key]);
        }
    }
}
