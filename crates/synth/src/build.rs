//! Materializing the synthetic hospital into an [`eba_relational::Database`].

use crate::config::SynthConfig;
use crate::events::{generate_events, EventKind};
use crate::log::{generate_accesses, AccessReason};
use crate::world::World;
use eba_relational::{ColId, Database, RowId, TableId, Value};
use std::collections::HashSet;

/// Offset separating the audit-id space of data-set-B tables from the
/// caregiver-id space when [`SynthConfig::use_mapping_table`] is enabled.
pub const AUDIT_ID_OFFSET: i64 = 500_000;

/// Column ids of the materialized `Log` table.
#[derive(Debug, Clone, Copy)]
pub struct LogColumns {
    /// `Lid` — unique log-record id.
    pub lid: ColId,
    /// `Date` — timestamp (minutes since window start).
    pub date: ColId,
    /// `User` — accessing user id.
    pub user: ColId,
    /// `Patient` — accessed patient id.
    pub patient: ColId,
    /// `Action` — coded action description.
    pub action: ColId,
    /// `Day` — derived: 1-based day of the access.
    pub day: ColId,
    /// `IsFirst` — derived: 1 if this is the first access of this
    /// (user, patient) pair within the window, else 0. (With a truncated
    /// log some "first" accesses are really repeats — the paper makes the
    /// same caveat.)
    pub is_first: ColId,
}

/// The generated hospital: database, world metadata, and per-access ground
/// truth.
#[derive(Debug)]
pub struct Hospital {
    /// The relational database: `Log`, data-set-A tables (Appointments,
    /// Visits, Documents), data-set-B tables (Labs, Medications,
    /// Radiology), and `Users` department codes, with all join metadata
    /// declared.
    pub db: Database,
    /// Static world structure (teams, services, ground-truth groups).
    pub world: World,
    /// Generator configuration.
    pub config: SynthConfig,
    /// `ground_truth[row]` is the reason log row `row` exists.
    pub ground_truth: Vec<AccessReason>,
    /// Log column ids.
    pub log_cols: LogColumns,
    /// The `Log` table.
    pub t_log: TableId,
    /// The `Appointments` table.
    pub t_appointments: TableId,
    /// The `Visits` table.
    pub t_visits: TableId,
    /// The `Documents` table.
    pub t_documents: TableId,
    /// The `Labs` table.
    pub t_labs: TableId,
    /// The `Medications` table.
    pub t_medications: TableId,
    /// The `Radiology` table.
    pub t_radiology: TableId,
    /// The `Users` department-code table.
    pub t_users: TableId,
    /// The `Mapping(AuditId, CaregiverId)` table, when
    /// [`SynthConfig::use_mapping_table`] is enabled.
    pub t_mapping: Option<TableId>,
}

impl Hospital {
    /// Generates the world, events and accesses, and materializes the
    /// database.
    pub fn generate(config: SynthConfig) -> Hospital {
        let world = World::generate(&config);
        let events = generate_events(&config, &world);
        let accesses = generate_accesses(&config, &world, &events);

        let mut db = Database::new();
        let tables = crate::schema::create_careweb_tables(&mut db, config.use_mapping_table);
        let (t_log, t_appointments, t_visits, t_documents) = (
            tables.log,
            tables.appointments,
            tables.visits,
            tables.documents,
        );
        let (t_labs, t_medications, t_radiology, t_users, t_mapping) = (
            tables.labs,
            tables.medications,
            tables.radiology,
            tables.users,
            tables.mapping,
        );

        // ------------------------------------------------------- data rows
        let user_v = |i: usize| Value::Int(i as i64 + 1);
        // Data-set-B tables use a separate id space when the mapping-table
        // artifact is enabled.
        let b_user_v = |i: usize| {
            if config.use_mapping_table {
                Value::Int(AUDIT_ID_OFFSET + i as i64 + 1)
            } else {
                Value::Int(i as i64 + 1)
            }
        };
        let patient_v = |i: usize| Value::Int(10_000 + i as i64);

        for e in events.iter().filter(|e| e.recorded) {
            let p = patient_v(e.patient);
            let d = Value::Date(e.timestamp());
            match &e.kind {
                EventKind::Appointment { doctor } => {
                    db.insert(t_appointments, vec![p, d, user_v(*doctor)])
                        .expect("valid row");
                }
                EventKind::Visit { doctor } => {
                    db.insert(t_visits, vec![p, d, user_v(*doctor)])
                        .expect("valid row");
                }
                EventKind::Document { author } => {
                    db.insert(t_documents, vec![p, d, user_v(*author)])
                        .expect("valid row");
                }
                EventKind::Lab { order, result } => {
                    db.insert(t_labs, vec![p, d, b_user_v(*order), b_user_v(*result)])
                        .expect("valid row");
                }
                EventKind::Medication { order, sign, admin } => {
                    db.insert(
                        t_medications,
                        vec![p, d, b_user_v(*order), b_user_v(*sign), b_user_v(*admin)],
                    )
                    .expect("valid row");
                }
                EventKind::Radiology { order, read } => {
                    db.insert(t_radiology, vec![p, d, b_user_v(*order), b_user_v(*read)])
                        .expect("valid row");
                }
            }
        }

        for u in &world.users {
            let dept = db.str_value(&u.department);
            db.insert(t_users, vec![user_v(u.index), dept])
                .expect("valid row");
        }
        if let Some(mapping) = t_mapping {
            for u in &world.users {
                db.insert(mapping, vec![b_user_v(u.index), user_v(u.index)])
                    .expect("valid row");
            }
        }

        let view = db.str_value("view");
        let update = db.str_value("update");
        let mut ground_truth = Vec::with_capacity(accesses.len());
        let mut seen_pairs: HashSet<(usize, usize)> = HashSet::with_capacity(accesses.len());
        for (lid, a) in accesses.iter().enumerate() {
            let is_first = seen_pairs.insert((a.user, a.patient));
            let action = if lid % 5 == 0 { update } else { view };
            db.insert(
                t_log,
                vec![
                    Value::Int(lid as i64 + 1),
                    Value::Date(a.timestamp()),
                    user_v(a.user),
                    patient_v(a.patient),
                    action,
                    Value::Int(i64::from(a.day)),
                    Value::Int(i64::from(is_first)),
                ],
            )
            .expect("valid row");
            ground_truth.push(a.reason);
        }

        // ------------------------------------------------- join metadata
        crate::schema::declare_careweb_relationships(
            &mut db,
            config.use_mapping_table,
            config.cross_event_user_rels,
        );

        let schema = db.table(t_log).schema();
        let col = |name: &str| schema.col(name).expect("log column exists");
        let log_cols = LogColumns {
            lid: col("Lid"),
            date: col("Date"),
            user: col("User"),
            patient: col("Patient"),
            action: col("Action"),
            day: col("Day"),
            is_first: col("IsFirst"),
        };

        Hospital {
            db,
            world,
            config,
            ground_truth,
            log_cols,
            t_log,
            t_appointments,
            t_visits,
            t_documents,
            t_labs,
            t_medications,
            t_radiology,
            t_users,
            t_mapping,
        }
    }

    /// Database value for a 0-based user index.
    pub fn user_value(&self, index: usize) -> Value {
        Value::Int(index as i64 + 1)
    }

    /// Database value for a 0-based patient index.
    pub fn patient_value(&self, index: usize) -> Value {
        Value::Int(10_000 + index as i64)
    }

    /// Reverse of [`Hospital::user_value`].
    pub fn user_index(&self, v: Value) -> Option<usize> {
        match v {
            Value::Int(i) if i >= 1 && (i as usize) <= self.world.n_users() => Some(i as usize - 1),
            _ => None,
        }
    }

    /// Reverse of [`Hospital::patient_value`].
    pub fn patient_index(&self, v: Value) -> Option<usize> {
        match v {
            Value::Int(i) if i >= 10_000 && ((i - 10_000) as usize) < self.world.n_patients() => {
                Some((i - 10_000) as usize)
            }
            _ => None,
        }
    }

    /// Number of log records.
    pub fn log_len(&self) -> usize {
        self.db.table(self.t_log).len()
    }

    /// Ground-truth reason of a log row.
    pub fn reason_of(&self, row: RowId) -> AccessReason {
        self.ground_truth[row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital() -> Hospital {
        Hospital::generate(SynthConfig::tiny())
    }

    #[test]
    fn tables_are_populated() {
        let h = hospital();
        assert!(h.log_len() > 100);
        assert!(!h.db.table(h.t_appointments).is_empty());
        assert!(!h.db.table(h.t_documents).is_empty());
        assert!(!h.db.table(h.t_medications).is_empty());
        assert_eq!(h.db.table(h.t_users).len(), h.world.n_users());
        assert_eq!(h.ground_truth.len(), h.log_len());
    }

    #[test]
    fn is_first_marks_exactly_first_pair_occurrences() {
        let h = hospital();
        let log = h.db.table(h.t_log);
        let mut seen = HashSet::new();
        for (_, row) in log.iter() {
            let pair = (row[h.log_cols.user], row[h.log_cols.patient]);
            let first = seen.insert(pair);
            assert_eq!(
                row[h.log_cols.is_first],
                Value::Int(i64::from(first)),
                "IsFirst mismatch"
            );
        }
    }

    #[test]
    fn log_is_chronological_and_lids_unique() {
        let h = hospital();
        let log = h.db.table(h.t_log);
        let mut prev = i64::MIN;
        let mut lids = HashSet::new();
        for (_, row) in log.iter() {
            let Value::Date(d) = row[h.log_cols.date] else {
                panic!("date column")
            };
            assert!(d >= prev);
            prev = d;
            assert!(lids.insert(row[h.log_cols.lid]));
        }
    }

    #[test]
    fn relationships_and_self_joins_declared() {
        let h = hospital();
        assert!(h.db.relationships().len() > 20);
        assert_eq!(h.db.self_join_attrs().len(), 1);
    }

    #[test]
    fn truncation_leaves_some_event_free_accessed_patients() {
        let h = hospital();
        // Some accessed patients have no recorded event at all.
        let log = h.db.table(h.t_log);
        let mut accessed: HashSet<Value> = HashSet::new();
        for (_, row) in log.iter() {
            accessed.insert(row[h.log_cols.patient]);
        }
        let mut with_event: HashSet<Value> = HashSet::new();
        for t in [
            h.t_appointments,
            h.t_visits,
            h.t_documents,
            h.t_labs,
            h.t_medications,
            h.t_radiology,
        ] {
            for (_, row) in h.db.table(t).iter() {
                with_event.insert(row[0]);
            }
        }
        let without: Vec<_> = accessed.difference(&with_event).collect();
        assert!(
            !without.is_empty(),
            "expected some accessed patients without recorded events"
        );
    }

    #[test]
    fn value_mappings_round_trip() {
        let h = hospital();
        assert_eq!(h.user_index(h.user_value(3)), Some(3));
        assert_eq!(h.patient_index(h.patient_value(7)), Some(7));
        assert_eq!(h.user_index(Value::Int(0)), None);
        assert_eq!(h.patient_index(Value::Int(5)), None);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = hospital();
        let b = hospital();
        assert_eq!(a.log_len(), b.log_len());
        assert_eq!(a.ground_truth, b.ground_truth);
    }
}
