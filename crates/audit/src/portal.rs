//! User-centric auditing reports.
//!
//! The paper's motivating application (§1): a portal where a patient logs
//! in, sees every access to their record, and — instead of a bare list of
//! unfamiliar names — a short explanation of *why* each access occurred.
//! The same machinery drives the secondary application: the compliance
//! office triages the (far smaller) set of unexplained accesses.

use crate::explain::{Explainer, RankedExplanation};
use crate::view::{is_anchor, AuditView};
use eba_core::LogSpec;
use eba_relational::{Result, RowId, RowSet, Value};
use eba_synth::LogColumns;
use std::collections::{HashMap, HashSet};

/// One line of a patient's access report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// Log row.
    pub row: RowId,
    /// Log id.
    pub lid: Value,
    /// Access timestamp.
    pub date: Value,
    /// Accessing user.
    pub user: Value,
    /// Best (shortest-path) explanation, if any.
    pub explanation: Option<RankedExplanation>,
}

impl ReportEntry {
    /// Text shown to the patient.
    pub fn display_text(&self) -> &str {
        match &self.explanation {
            Some(e) => &e.text,
            None => "No explanation found — you may request an investigation.",
        }
    }
}

/// The patient-portal report: all accesses to `patient`'s record (within
/// the spec's anchor), chronological (ties in log order), each with its
/// best explanation. Every part of the view reports its slice of the
/// patient's accesses under global row ids — under patient-keyed sharding
/// they all come from one part; the gather stays correct for any key.
pub fn patient_report(
    view: &AuditView,
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    patient: Value,
) -> Result<Vec<ReportEntry>> {
    let mut entries = Vec::new();
    for part in view.parts() {
        let db = part.db();
        let log = db.table(spec.table);
        for rid in log.rows_with(spec.patient_col, patient) {
            let row = log.row(rid);
            if !is_anchor(spec, row) {
                continue;
            }
            entries.push(ReportEntry {
                row: part.to_global(rid),
                lid: row[cols.lid],
                date: row[cols.date],
                user: row[cols.user],
                explanation: explainer.explain(db, spec, rid, 1)?.into_iter().next(),
            });
        }
    }
    entries.sort_by_key(|e| {
        (
            match e.date {
                Value::Date(d) => d,
                _ => i64::MAX,
            },
            e.row,
        )
    });
    Ok(entries)
}

/// Per-user summary of unexplained accesses — the compliance office's
/// triage queue, most-suspicious first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspectSummary {
    /// The user.
    pub user: Value,
    /// Unexplained accesses by this user (within the anchor).
    pub unexplained: usize,
    /// Distinct patients among those unexplained accesses.
    pub distinct_patients: usize,
}

/// Groups the `unexplained` accesses (global row ids — what
/// [`crate::explain::unexplained`] returns, or a pinned suite's maintained
/// residue) by user, sorted by descending count (ties broken by user value
/// for determinism).
pub fn misuse_summary(
    view: &AuditView,
    spec: &LogSpec,
    unexplained: &RowSet,
) -> Vec<SuspectSummary> {
    let mut per_user: HashMap<Value, (usize, HashSet<Value>)> = HashMap::new();
    for rid in unexplained.iter() {
        let (_, row) = view.log_row(spec.table, rid);
        let entry = per_user.entry(row[spec.user_col]).or_default();
        entry.0 += 1;
        entry.1.insert(row[spec.patient_col]);
    }
    let mut out: Vec<SuspectSummary> = per_user
        .into_iter()
        .map(|(user, (unexplained, patients))| SuspectSummary {
            user,
            unexplained,
            distinct_patients: patients.len(),
        })
        .collect();
    out.sort_by(|a, b| {
        b.unexplained
            .cmp(&a.unexplained)
            .then_with(|| format!("{:?}", a.user).cmp(&format!("{:?}", b.user)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{explained, unexplained};
    use crate::handcrafted::HandcraftedTemplates;
    use eba_relational::{Engine, ShardKey, ShardedEngine};
    use eba_synth::{Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec, Explainer) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        (h, spec, explainer)
    }

    fn summary(view: &AuditView, spec: &LogSpec, explainer: &Explainer) -> Vec<SuspectSummary> {
        let explained = explained(view, spec, explainer.templates());
        misuse_summary(view, spec, &unexplained(view, spec, &explained))
    }

    /// The most-accessed patient and their access count.
    fn busiest_patient(h: &Hospital) -> (Value, usize) {
        let idx = h.db.table(h.t_log).index(h.log_cols.patient);
        let (patient, rows) = idx
            .groups()
            .into_iter()
            .max_by_key(|(_, rows)| rows.len())
            .expect("log not empty");
        (patient, rows.len())
    }

    #[test]
    fn report_lists_all_accesses_chronologically() {
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let (patient, expected) = busiest_patient(&h);
        let report = patient_report(&view, &spec, &h.log_cols, &explainer, patient).unwrap();
        assert_eq!(report.len(), expected);
        for w in report.windows(2) {
            let (Value::Date(a), Value::Date(b)) = (w[0].date, w[1].date) else {
                panic!("dates expected")
            };
            assert!(a <= b);
        }
        // At least one access of a busy patient is explained.
        assert!(report.iter().any(|e| e.explanation.is_some()));
    }

    #[test]
    fn unexplained_entries_show_investigation_hint() {
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let report_texts: Vec<String> = (0..h.world.n_patients())
            .filter_map(|p| {
                patient_report(&view, &spec, &h.log_cols, &explainer, h.patient_value(p)).ok()
            })
            .flatten()
            .filter(|e| e.explanation.is_none())
            .map(|e| e.display_text().to_string())
            .collect();
        assert!(!report_texts.is_empty());
        assert!(report_texts[0].contains("investigation"));
    }

    #[test]
    fn pinned_views_match_the_warm_pair() {
        let (h, spec, explainer) = setup();
        let key = ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        // The busiest patient exercises a non-trivial report.
        let (patient, _) = busiest_patient(&h);
        let engine = Engine::new(&h.db);
        let warm = AuditView::warm(&h.db, &engine);
        let want_summary = summary(&warm, &spec, &explainer);
        let want_report = patient_report(&warm, &spec, &h.log_cols, &explainer, patient).unwrap();
        for n in [1, 3] {
            let epochs = ShardedEngine::new(h.db.clone(), key, n).load();
            let view = AuditView::pinned(&epochs);
            assert_eq!(
                summary(&view, &spec, &explainer),
                want_summary,
                "{n} shards"
            );
            assert_eq!(
                patient_report(&view, &spec, &h.log_cols, &explainer, patient).unwrap(),
                want_report,
                "{n} shards"
            );
        }
    }

    #[test]
    fn misuse_summary_ranks_float_users_high() {
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        let summary = summary(&AuditView::warm(&h.db, &engine), &spec, &explainer);
        assert!(!summary.is_empty());
        // Sorted descending.
        for w in summary.windows(2) {
            assert!(w[0].unexplained >= w[1].unexplained);
        }
        // The top suspects should include float-pool users (their accesses
        // have no recorded reason).
        let top: Vec<_> = summary.iter().take(5).collect();
        let float_in_top = top.iter().any(|s| {
            h.user_index(s.user)
                .is_some_and(|i| h.world.users[i].role == eba_synth::Role::Float)
        });
        assert!(float_in_top, "expected a float user among top suspects");
    }
}
