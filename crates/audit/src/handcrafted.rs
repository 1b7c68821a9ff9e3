//! The paper's hand-crafted explanation templates (§5.3.1–5.3.2) against
//! the CareWeb-shaped schema produced by [`eba_synth`].

use eba_core::{ExplanationTemplate, LogSpec, Path};
use eba_relational::{CmpOp, Database, Result, Rhs, StepFilter, Value};

/// The six event tables, with the column naming the event's primary user
/// (appointments are scheduled with the doctor; orders are requested by the
/// ordering doctor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTable {
    /// Outpatient appointments.
    Appointments,
    /// Inpatient visits.
    Visits,
    /// Documents produced.
    Documents,
    /// Lab orders.
    Labs,
    /// Medication orders.
    Medications,
    /// Radiology orders.
    Radiology,
}

impl EventTable {
    /// All six, in paper order (data set A then B).
    pub const ALL: [EventTable; 6] = [
        EventTable::Appointments,
        EventTable::Visits,
        EventTable::Documents,
        EventTable::Labs,
        EventTable::Medications,
        EventTable::Radiology,
    ];

    /// The table name in the database.
    pub fn table_name(self) -> &'static str {
        match self {
            EventTable::Appointments => "Appointments",
            EventTable::Visits => "Visits",
            EventTable::Documents => "Documents",
            EventTable::Labs => "Labs",
            EventTable::Medications => "Medications",
            EventTable::Radiology => "Radiology",
        }
    }

    /// Column naming the primary user the event references.
    pub fn primary_user_col(self) -> &'static str {
        match self {
            EventTable::Appointments | EventTable::Visits => "Doctor",
            EventTable::Documents => "User",
            EventTable::Labs | EventTable::Medications | EventTable::Radiology => "OrderUser",
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            EventTable::Appointments => "Appt",
            EventTable::Visits => "Visit",
            EventTable::Documents => "Document",
            EventTable::Labs => "Lab",
            EventTable::Medications => "Medication",
            EventTable::Radiology => "Radiology",
        }
    }

    /// Article + noun phrase for natural-language descriptions.
    pub fn phrase(self) -> &'static str {
        match self {
            EventTable::Appointments => "an appointment",
            EventTable::Visits => "a visit",
            EventTable::Documents => "a document produced",
            EventTable::Labs => "a lab order",
            EventTable::Medications => "a medication order",
            EventTable::Radiology => "a radiology order",
        }
    }

    /// Whether this table belongs to data set B (Labs, Medications,
    /// Radiology) — whose user columns carry *audit ids* when the paper's
    /// mapping-table artifact is present.
    pub fn is_dataset_b(self) -> bool {
        matches!(
            self,
            EventTable::Labs | EventTable::Medications | EventTable::Radiology
        )
    }
}

/// Whether the database carries the paper's `Mapping(AuditId, CaregiverId)`
/// extraction artifact.
fn mapping_present(db: &Database) -> bool {
    db.table_id("Mapping").is_ok()
}

/// Hops from `Log.Patient` through `event` to a *caregiver-id*-typed user
/// attribute: inserts the mapping hop for data-set-B tables when present.
fn user_hops(
    db: &Database,
    event: EventTable,
    user_col: &'static str,
) -> Vec<(&'static str, &'static str, &'static str)> {
    let mut hops = vec![(event.table_name(), "Patient", user_col)];
    if event.is_dataset_b() && mapping_present(db) {
        hops.push(("Mapping", "AuditId", "CaregiverId"));
    }
    hops
}

/// The hand-crafted template suite.
#[derive(Debug, Clone)]
pub struct HandcraftedTemplates {
    /// "`[Patient]` had an appointment with `[User]`" — explanation (A).
    pub appt_with_dr: ExplanationTemplate,
    /// Visit with the accessing doctor.
    pub visit_with_dr: ExplanationTemplate,
    /// Document produced by the accessing user.
    pub doc_with_dr: ExplanationTemplate,
    /// Decorated repeat access: same user previously opened the record
    /// (`L2.Date < L.Date`, explanation (C)).
    pub repeat_access: ExplanationTemplate,
    /// Lab result produced by the accessing user.
    pub lab_result: ExplanationTemplate,
    /// Medication signed by the accessing pharmacist.
    pub med_sign: ExplanationTemplate,
    /// Medication administered by the accessing nurse.
    pub med_admin: ExplanationTemplate,
    /// Radiology study read by the accessing user.
    pub rad_read: ExplanationTemplate,
}

impl HandcraftedTemplates {
    /// Builds the suite against a CareWeb-shaped database.
    pub fn build(db: &Database, spec: &LogSpec) -> Result<Self> {
        let date_col = db
            .table(spec.table)
            .schema()
            .col("Date")
            .expect("log has a Date column");

        let appt_with_dr = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &[("Appointments", "Patient", "Doctor")],
        )?)
        .named("Appt w/Dr.")
        .described("[L.Patient] had an appointment with [L.User] on [T1.Date].");

        let visit_with_dr = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &[("Visits", "Patient", "Doctor")],
        )?)
        .named("Visit w/Dr.")
        .described("[L.Patient] had a visit with [L.User] on [T1.Date].");

        let doc_with_dr = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &[("Documents", "Patient", "User")],
        )?)
        .named("Doc. w/Dr.")
        .described("[L.User] produced a document for [L.Patient] on [T1.Date].");

        let repeat_path = Path::handcrafted(db, spec, &[("Log", "Patient", "User")])?
            .decorated(
                1,
                StepFilter {
                    col: date_col,
                    op: CmpOp::Lt,
                    rhs: Rhs::AnchorCol(date_col),
                },
            )
            .expect("alias 1 exists");
        let repeat_access = ExplanationTemplate::new(repeat_path)
            .named("Repeat Access")
            .described("[L.User] previously accessed [L.Patient]'s record (on [T1.Date]).");

        let lab_result = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &user_hops(db, EventTable::Labs, "ResultUser"),
        )?)
        .named("Lab result")
        .described(
            "[L.User] produced a lab result for [L.Patient] ordered by user [T1.OrderUser].",
        );

        let med_sign = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &user_hops(db, EventTable::Medications, "SignUser"),
        )?)
        .named("Med. signed")
        .described("[L.User] signed a medication order for [L.Patient].");

        let med_admin = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &user_hops(db, EventTable::Medications, "AdminUser"),
        )?)
        .named("Med. administered")
        .described("[L.User] administered a medication ordered for [L.Patient].");

        let rad_read = ExplanationTemplate::new(Path::handcrafted(
            db,
            spec,
            &user_hops(db, EventTable::Radiology, "ReadUser"),
        )?)
        .named("Radiology read")
        .described(
            "[L.User] read a radiology study for [L.Patient] ordered by user [T1.OrderUser].",
        );

        Ok(HandcraftedTemplates {
            appt_with_dr,
            visit_with_dr,
            doc_with_dr,
            repeat_access,
            lab_result,
            med_sign,
            med_admin,
            rad_read,
        })
    }

    /// The Figure 7/9 basic set: appointment, visit, document with the
    /// accessing user.
    pub fn basic_with_dr(&self) -> Vec<&ExplanationTemplate> {
        vec![&self.appt_with_dr, &self.visit_with_dr, &self.doc_with_dr]
    }

    /// The Figure 7 "all" set: basic plus repeat access.
    pub fn all_with_repeat(&self) -> Vec<&ExplanationTemplate> {
        let mut v = self.basic_with_dr();
        v.push(&self.repeat_access);
        v
    }

    /// The consult-order set (data set B direct explanations).
    pub fn consult(&self) -> Vec<&ExplanationTemplate> {
        vec![
            &self.lab_result,
            &self.med_sign,
            &self.med_admin,
            &self.rad_read,
        ]
    }

    /// Every hand-crafted template.
    pub fn all(&self) -> Vec<&ExplanationTemplate> {
        let mut v = self.all_with_repeat();
        v.extend(self.consult());
        v
    }
}

/// The "patient had *some* event" predicates of Figures 6/8: open paths
/// `Log.Patient = T.Patient` for each event table, labeled.
pub fn event_predicates(db: &Database, spec: &LogSpec) -> Result<Vec<(&'static str, Path)>> {
    EventTable::ALL
        .iter()
        .map(|t| {
            Path::handcrafted_open(db, spec, &[(t.table_name(), "Patient", "Patient")])
                .map(|p| (t.label(), p))
        })
        .collect()
}

/// Explanation (B)-style template: the patient had an `event`, and the
/// accessing user works in the *same department* as the event's primary
/// user (length 4, via a `Users` self-join).
pub fn same_department(
    db: &Database,
    spec: &LogSpec,
    event: EventTable,
) -> Result<ExplanationTemplate> {
    let mut hops = user_hops(db, event, event.primary_user_col());
    hops.push(("Users", "User", "Department"));
    hops.push(("Users", "Department", "User"));
    let path = Path::handcrafted(db, spec, &hops)?;
    Ok(ExplanationTemplate::new(path)
        .named(format!("{} + same dept.", event.label()))
        .described(format!(
            "[L.Patient] had {} with user [T1.{}], and [L.User] works in the same department ([T2.Department]).",
            event.phrase(),
            event.primary_user_col()
        )))
}

/// Example 4.2's template: the patient had an `event`, and the accessing
/// user is in the *same collaborative group* as the event's primary user
/// (length 4, via a `Groups` self-join). `depth` restricts both group
/// tuple variables to one hierarchy level (a decorated template); `None`
/// uses any depth, like the mined variants.
pub fn same_group(
    db: &Database,
    spec: &LogSpec,
    event: EventTable,
    depth: Option<i64>,
) -> Result<ExplanationTemplate> {
    let mut hops = user_hops(db, event, event.primary_user_col());
    let group_alias_base = hops.len() + 1; // first Groups alias (1-based)
    hops.push(("Groups", "User", "Group_id"));
    hops.push(("Groups", "Group_id", "User"));
    let mut path = Path::handcrafted(db, spec, &hops)?;
    if let Some(d) = depth {
        let depth_col = db
            .table(db.table_id("Groups")?)
            .schema()
            .col("Depth")
            .expect("Groups has a Depth column");
        for alias in [group_alias_base, group_alias_base + 1] {
            path = path
                .decorated(
                    alias,
                    StepFilter {
                        col: depth_col,
                        op: CmpOp::Eq,
                        rhs: Rhs::Const(Value::Int(d)),
                    },
                )
                .expect("group aliases exist");
        }
    }
    let name = match depth {
        Some(d) => format!("{} + group@{d}", event.label()),
        None => format!("{} + group", event.label()),
    };
    Ok(ExplanationTemplate::new(path)
        .named(name)
        .described(format!(
        "[L.Patient] had {} with user [T1.{}], and [L.User] is in the same collaborative group.",
        event.phrase(),
        event.primary_user_col()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_synth::{AccessReason, Hospital, SynthConfig};

    fn hospital() -> (Hospital, LogSpec) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        (h, spec)
    }

    #[test]
    fn suite_builds_and_has_positive_support() {
        let (h, spec) = hospital();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        assert!(t.appt_with_dr.support(&h.db, &spec).unwrap() > 0);
        assert!(t.doc_with_dr.support(&h.db, &spec).unwrap() > 0);
        assert!(t.repeat_access.support(&h.db, &spec).unwrap() > 0);
        assert_eq!(t.all().len(), 8);
        // One warm engine serves the whole suite with identical supports
        // (the repeat-access template is anchor-dependent and exercises
        // the extremum walk).
        let engine = eba_relational::Engine::new(&h.db);
        let suite: Vec<_> = t
            .all()
            .iter()
            .map(|t| t.path.to_chain_query(&spec))
            .collect();
        let supports = engine.support_many(&h.db, &suite, Default::default());
        for (tmpl, support) in t.all().iter().zip(supports) {
            assert_eq!(support.unwrap(), tmpl.support(&h.db, &spec).unwrap());
        }
    }

    #[test]
    fn appt_template_explains_primary_care_accesses() {
        let (h, spec) = hospital();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explained: std::collections::HashSet<_> = t
            .appt_with_dr
            .explained_rows(&h.db, &spec)
            .unwrap()
            .into_iter()
            .collect();
        // Every explained access is by the appointment doctor (or a repeat
        // / follow-up by that doctor) — never a float assist.
        for &rid in &explained {
            assert_ne!(h.reason_of(rid), AccessReason::FloatAssist);
        }
        assert!(!explained.is_empty());
    }

    #[test]
    fn repeat_template_never_explains_first_accesses() {
        let (h, spec) = hospital();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let log = h.db.table(h.t_log);
        for rid in t.repeat_access.explained_rows(&h.db, &spec).unwrap() {
            assert_eq!(
                log.cell(rid, h.log_cols.is_first),
                eba_relational::Value::Int(0),
                "a repeat-explained access cannot be a first access"
            );
        }
    }

    #[test]
    fn event_predicates_cover_more_than_templates() {
        let (h, spec) = hospital();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let preds = event_predicates(&h.db, &spec).unwrap();
        assert_eq!(preds.len(), 6);
        // "Patient had an appointment with someone" is a superset of
        // "patient had an appointment with the accessing user".
        let pred_rows = preds[0]
            .1
            .to_chain_query(&spec)
            .explained_rows(&h.db, Default::default())
            .unwrap();
        let tmpl_rows = t.appt_with_dr.explained_rows(&h.db, &spec).unwrap();
        let pred_set: std::collections::HashSet<_> = pred_rows.into_iter().collect();
        for r in tmpl_rows {
            assert!(pred_set.contains(&r));
        }
    }

    #[test]
    fn same_department_expands_coverage() {
        let (h, spec) = hospital();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let dept = same_department(&h.db, &spec, EventTable::Appointments).unwrap();
        let narrow = t.appt_with_dr.explained_rows(&h.db, &spec).unwrap().len();
        let wide = dept.explained_rows(&h.db, &spec).unwrap().len();
        assert!(
            wide >= narrow,
            "same-department ({wide}) must cover at least appt-with-dr ({narrow})"
        );
        assert_eq!(dept.length(), 4);
    }

    #[test]
    fn group_template_requires_groups_table() {
        let (h, spec) = hospital();
        assert!(same_group(&h.db, &spec, EventTable::Appointments, None).is_err());
    }
}
