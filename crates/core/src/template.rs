//! Explanation templates: closed paths plus presentation metadata.

use crate::describe;
use crate::log_spec::LogSpec;
use crate::path::Path;
use crate::sql;
use eba_relational::{Database, EvalOptions, Instance, Result, RowId};

/// A closed path packaged for use: optional name, optional
/// administrator-provided description string, and cached evaluation entry
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationTemplate {
    /// The underlying closed path.
    pub path: Path,
    /// Short name for reports (e.g. `"Appt w/Dr."`).
    pub name: Option<String>,
    /// Parameterized description string (see [`crate::describe`]); falls
    /// back to the auto-generated route text.
    pub description: Option<String>,
}

impl ExplanationTemplate {
    /// Wraps a closed path.
    ///
    /// # Panics
    /// Panics if the path is not closed (open paths are event predicates,
    /// not explanations).
    pub fn new(path: Path) -> Self {
        assert!(
            path.is_closed(),
            "explanation templates must be closed paths"
        );
        ExplanationTemplate {
            path,
            name: None,
            description: None,
        }
    }

    /// Sets the report name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the parameterized description string.
    pub fn described(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Template length (number of join conditions).
    pub fn length(&self) -> usize {
        self.path.length()
    }

    /// Log rows explained by this template.
    pub fn explained_rows(&self, db: &Database, spec: &LogSpec) -> Result<Vec<RowId>> {
        self.path
            .to_chain_query(spec)
            .explained_rows(db, EvalOptions::default())
    }

    /// Support: distinct log ids explained.
    pub fn support(&self, db: &Database, spec: &LogSpec) -> Result<usize> {
        self.path
            .to_chain_query(spec)
            .support(db, EvalOptions::default())
    }

    /// Explanation instances for one log record (up to `limit` witnesses).
    pub fn instances(
        &self,
        db: &Database,
        spec: &LogSpec,
        log_row: RowId,
        limit: usize,
    ) -> Result<Vec<Instance>> {
        self.path.to_chain_query(spec).instances(db, log_row, limit)
    }

    /// Natural-language rendering of one instance.
    pub fn render(
        &self,
        db: &Database,
        spec: &LogSpec,
        log_row: RowId,
        instance: &Instance,
    ) -> String {
        match &self.description {
            Some(d) => describe::render_description(db, spec, &self.path, d, log_row, instance),
            None => describe::auto_description(db, spec, &self.path),
        }
    }

    /// The template's SQL (Def. 1 presentation form).
    pub fn to_sql(&self, db: &Database, spec: &LogSpec) -> String {
        sql::template_sql(db, spec, &self.path)
    }

    /// The label used in reports: the name if set, else the auto route.
    pub fn label(&self, db: &Database, spec: &LogSpec) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => describe::auto_description(db, spec, &self.path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_relational::{DataType, Value};

    fn db() -> (Database, LogSpec) {
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
        let appt = db.table_id("Appointments").unwrap();
        let log = db.table_id("Log").unwrap();
        db.insert(appt, vec![Value::Int(10), Value::Date(0), Value::Int(1)])
            .unwrap();
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(5), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(6), Value::Int(2), Value::Int(10)],
        )
        .unwrap();
        let spec = LogSpec::conventional(&db).unwrap();
        (db, spec)
    }

    #[test]
    fn template_support_and_instances() {
        let (db, spec) = db();
        let t = ExplanationTemplate::new(
            Path::handcrafted(&db, &spec, &[("Appointments", "Patient", "Doctor")]).unwrap(),
        )
        .named("Appt w/Dr.")
        .described("[L.Patient] had an appointment with [L.User].");
        assert_eq!(t.support(&db, &spec).unwrap(), 1);
        assert_eq!(t.explained_rows(&db, &spec).unwrap(), vec![0]);
        let inst = t.instances(&db, &spec, 0, 4).unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(
            t.render(&db, &spec, 0, &inst[0]),
            "10 had an appointment with 1."
        );
        assert_eq!(t.label(&db, &spec), "Appt w/Dr.");
        assert_eq!(t.length(), 2);
    }

    #[test]
    #[should_panic(expected = "must be closed")]
    fn open_paths_are_rejected() {
        let (db, spec) = db();
        let open =
            Path::handcrafted_open(&db, &spec, &[("Appointments", "Patient", "Patient")]).unwrap();
        ExplanationTemplate::new(open);
    }

    #[test]
    fn label_falls_back_to_route() {
        let (db, spec) = db();
        let t = ExplanationTemplate::new(
            Path::handcrafted(&db, &spec, &[("Appointments", "Patient", "Doctor")]).unwrap(),
        );
        assert!(t.label(&db, &spec).contains("Appointments"));
    }
}
