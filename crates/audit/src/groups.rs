//! Building and installing collaborative groups (§4).
//!
//! The access log itself reveals which users work together: users who
//! access the same records are likely collaborators. [`collaborative_groups`]
//! builds the paper's access matrix from a (typically train-period) slice
//! of the log, clusters the user-similarity graph `W = AᵀA` hierarchically,
//! and [`install_groups`] materializes the result as the
//! `Groups(Depth, Group_id, User)` table with all join metadata, after
//! which both hand-crafted and *mined* templates can traverse it.

use eba_cluster::{AccessMatrix, Hierarchy, HierarchyConfig};
use eba_core::LogSpec;
use eba_relational::{DataType, Database, RelationshipKind, Result, TableId, Value};
use std::collections::HashMap;

/// A computed collaborative-group hierarchy over the database's users.
#[derive(Debug, Clone)]
pub struct GroupsModel {
    /// The hierarchy (depth 0 is the single all-users group).
    pub hierarchy: Hierarchy,
    /// Node index → user value (as stored in `Log.User` / `Users.User`).
    pub user_values: Vec<Value>,
}

impl GroupsModel {
    /// Group id of `user_value` at `depth`, if the user is known.
    pub fn group_of(&self, user_value: Value, depth: usize) -> Option<u32> {
        let idx = self.user_values.iter().position(|&v| v == user_value)?;
        Some(self.hierarchy.assignment(depth)[idx])
    }
}

/// Derives collaborative groups from the log rows selected by `spec`
/// (train-period filters included). The user universe is the `Users`
/// table; patients are the distinct patients appearing in the selected
/// rows. `max_accessors` caps the per-record accessor count fed into
/// `W = AᵀA` (see [`AccessMatrix::similarity_graph`]).
pub fn collaborative_groups(
    db: &Database,
    spec: &LogSpec,
    config: HierarchyConfig,
    max_accessors: usize,
) -> Result<GroupsModel> {
    let users_t = db.table_id("Users")?;
    let users = db.table(users_t);
    let user_col =
        users
            .schema()
            .col("User")
            .ok_or_else(|| eba_relational::Error::UnknownColumn {
                table: "Users".into(),
                column: "User".into(),
            })?;
    let mut user_values: Vec<Value> = users.iter().map(|(_, row)| row[user_col]).collect();
    user_values.sort_unstable_by_key(|v| match v {
        Value::Int(i) => *i,
        _ => i64::MAX,
    });
    user_values.dedup();
    let user_index: HashMap<Value, u32> = user_values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();

    // Distinct (patient, user) pairs from the selected log rows.
    let log = db.table(spec.table);
    let mut patient_index: HashMap<Value, u32> = HashMap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (_, row) in log.iter() {
        if !spec
            .anchor_filters
            .iter()
            .all(|(col, op, v)| op.eval(&row[*col], v))
        {
            continue;
        }
        let (p, u) = (row[spec.patient_col], row[spec.user_col]);
        let Some(&ui) = user_index.get(&u) else {
            continue;
        };
        let next = patient_index.len() as u32;
        let pi = *patient_index.entry(p).or_insert(next);
        pairs.push((pi, ui));
    }

    let matrix = AccessMatrix::from_pairs(patient_index.len(), user_values.len(), pairs);
    let graph = matrix.similarity_graph(max_accessors);
    let hierarchy = Hierarchy::build(&graph, config);
    Ok(GroupsModel {
        hierarchy,
        user_values,
    })
}

/// Materializes `Groups(Depth, Group_id, User)` (hierarchy depths ≥ 1;
/// depth 0 — everyone in one group — is the degenerate baseline and would
/// make *any-depth* group joins vacuous, so it is evaluated separately),
/// declares `Groups.User` joinable with `Log.User` and with every
/// attribute already related to `Log.User`, and allows the `Group_id`
/// self-join the paper's Example 4.2 relies on.
pub fn install_groups(db: &mut Database, model: &GroupsModel) -> Result<TableId> {
    let groups_t = db.create_table(
        "Groups",
        &[
            ("Depth", DataType::Int),
            ("Group_id", DataType::Int),
            ("User", DataType::Int),
        ],
    )?;
    for depth in 1..model.hierarchy.depth_count() {
        let assignment = model.hierarchy.assignment(depth);
        for (node, &gid) in assignment.iter().enumerate() {
            db.insert(
                groups_t,
                vec![
                    Value::Int(depth as i64),
                    Value::Int(i64::from(gid)),
                    model.user_values[node],
                ],
            )?;
        }
    }

    let group_user = db.attr("Groups", "User")?;
    let log_user = db.attr("Log", "User")?;
    // Everything already known to join with Log.User is user-typed;
    // relate it to Groups.User too (snapshot first — we are mutating the
    // relationship list).
    let existing: Vec<_> = db
        .relationships()
        .iter()
        .filter_map(|r| {
            if r.from == log_user && r.to != log_user {
                Some(r.to)
            } else if r.to == log_user && r.from != log_user {
                Some(r.from)
            } else {
                None
            }
        })
        .collect();
    db.add_relationship(group_user, log_user, RelationshipKind::ForeignKey)?;
    let mut seen = std::collections::HashSet::new();
    for attr in existing {
        if seen.insert(attr) {
            db.add_relationship(attr, group_user, RelationshipKind::Administrator)?;
        }
    }
    db.allow_self_join("Groups", "Group_id")?;
    Ok(groups_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handcrafted::{same_group, EventTable, HandcraftedTemplates};
    use crate::split;
    use eba_synth::{Hospital, Role, SynthConfig};

    /// Builds the grouped hospital and a warm engine that was constructed
    /// *before* [`install_groups`] and refreshed after — the long-running
    /// session lifecycle (the refresh must pick up the new `Groups` table).
    fn hospital_with_groups() -> (Hospital, LogSpec, GroupsModel, eba_relational::Engine) {
        let mut h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        let train = spec.with_filters(split::day_range(&h.log_cols, 1, 6));
        let model = collaborative_groups(&h.db, &train, HierarchyConfig::default(), 500).unwrap();
        let mut engine = eba_relational::Engine::new(&h.db);
        let groups_t = install_groups(&mut h.db, &model).unwrap();
        let stats = engine.refresh(&h.db).unwrap();
        assert!(stats.delta.grown.contains(&groups_t));
        (h, spec, model, engine)
    }

    /// `t`'s explained rows through the engine's fused driver.
    fn engine_rows(
        engine: &eba_relational::Engine,
        h: &Hospital,
        spec: &LogSpec,
        t: &eba_core::ExplanationTemplate,
    ) -> Vec<eba_relational::RowId> {
        let q = t.path.to_chain_query(spec);
        engine
            .eval_suite(&h.db, &[q], Default::default())
            .remove(0)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn groups_table_is_installed_with_metadata() {
        let (h, _, model, _) = hospital_with_groups();
        let t = h.db.table_id("Groups").unwrap();
        assert!(!h.db.table(t).is_empty());
        assert!(model.hierarchy.depth_count() >= 2);
        // Self-join declared.
        let gid = h.db.attr("Groups", "Group_id").unwrap();
        assert!(h.db.self_join_attrs().contains(&gid));
        // Groups.User relates to Log.User.
        let gu = h.db.attr("Groups", "User").unwrap();
        let lu = h.db.attr("Log", "User").unwrap();
        assert!(h
            .db
            .relationships()
            .iter()
            .any(|r| (r.from == gu && r.to == lu) || (r.from == lu && r.to == gu)));
    }

    #[test]
    fn clustering_recovers_care_teams() {
        let (h, _, model, _) = hospital_with_groups();
        // At some depth, a team's doctors and nurses should share a group
        // more often than random users do.
        let depth = 1;
        let mut same_team_same_group = 0usize;
        let mut same_team_total = 0usize;
        for team in &h.world.teams {
            let members: Vec<_> = team.members().collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in members.iter().skip(i + 1) {
                    same_team_total += 1;
                    let ga = model.group_of(h.user_value(a), depth);
                    let gb = model.group_of(h.user_value(b), depth);
                    if ga.is_some() && ga == gb {
                        same_team_same_group += 1;
                    }
                }
            }
        }
        let frac = same_team_same_group as f64 / same_team_total.max(1) as f64;
        assert!(
            frac > 0.5,
            "only {frac:.2} of same-team pairs share a depth-1 group"
        );
    }

    #[test]
    fn group_template_explains_nurse_accesses() {
        let (h, spec, _, engine) = hospital_with_groups();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let group_tmpl = same_group(&h.db, &spec, EventTable::Appointments, None).unwrap();
        // The refreshed engine evaluates templates that traverse the
        // post-construction Groups table, identically to the cold path.
        let narrow: std::collections::HashSet<_> = engine_rows(&engine, &h, &spec, &t.appt_with_dr)
            .into_iter()
            .collect();
        let wide = engine_rows(&engine, &h, &spec, &group_tmpl);
        assert_eq!(wide, group_tmpl.explained_rows(&h.db, &spec).unwrap());
        // The group template explains accesses the direct template cannot —
        // specifically some nurse (CareTeam) accesses.
        let mut nurse_gain = 0;
        for rid in &wide {
            if !narrow.contains(rid) {
                let user_v = h.db.table(h.t_log).cell(*rid, h.log_cols.user);
                if let Some(idx) = h.user_index(user_v) {
                    if h.world.users[idx].role == Role::Nurse {
                        nurse_gain += 1;
                    }
                }
            }
        }
        assert!(
            nurse_gain > 0,
            "group template should newly explain nurse accesses"
        );
    }

    #[test]
    fn depth_decorated_template_is_narrower() {
        let (h, spec, model, engine) = hospital_with_groups();
        let any = same_group(&h.db, &spec, EventTable::Appointments, None).unwrap();
        let deepest = (model.hierarchy.depth_count() - 1) as i64;
        let deep = same_group(&h.db, &spec, EventTable::Appointments, Some(deepest)).unwrap();
        let any_n = engine_rows(&engine, &h, &spec, &any).len();
        let deep_n = engine_rows(&engine, &h, &spec, &deep).len();
        assert!(deep_n <= any_n, "deeper groups explain fewer accesses");
        assert_eq!(deep_n, deep.explained_rows(&h.db, &spec).unwrap().len());
    }

    #[test]
    fn group_of_unknown_user_is_none() {
        let (_, _, model, _) = hospital_with_groups();
        assert_eq!(model.group_of(Value::Int(999_999), 1), None);
    }
}
