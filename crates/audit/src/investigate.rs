//! Investigating unexplained accesses.
//!
//! When an access has no explanation, the paper routes it to the
//! compliance office. An investigator's first question is *how close* the
//! access came to being explained: an access whose template paths die
//! immediately (the patient has no events at all) looks very different
//! from one where the path reached the final hop but the user was not the
//! one the data pointed to — the signature of snooping on a colleague's
//! patient.
//!
//! [`diagnose`] runs every template's chain step-by-step
//! ([`eba_relational::ChainQuery::trace`]) for one access and ranks the
//! near-misses.

use crate::explain::{Explainer, PreparedExplainer};
use eba_core::LogSpec;
use eba_relational::{Database, Result, RowId};

/// How one template related to one unexplained access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The template explains the access (not a near-miss).
    Explained,
    /// The chain survived every step but the final value set did not
    /// contain the accessing user — someone *else* had the relationship.
    WrongUser {
        /// Distinct users the path actually pointed at.
        candidates: usize,
    },
    /// The chain died mid-path.
    DiedAtStep {
        /// 0-based index of the first empty step.
        step: usize,
        /// Total steps in the chain.
        of: usize,
    },
    /// The access did not match the template's anchor filters.
    OutOfScope,
}

/// One template's diagnosis for an access.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Index into the explainer's template list.
    pub template_index: usize,
    /// Template label.
    pub label: String,
    /// What happened.
    pub outcome: Outcome,
}

impl Diagnosis {
    /// Near-miss score for ranking: explained (3) > wrong user (2) >
    /// died late (1 scaled) > out of scope (0).
    fn score(&self) -> (u8, usize) {
        match self.outcome {
            Outcome::Explained => (3, 0),
            Outcome::WrongUser { .. } => (2, 0),
            Outcome::DiedAtStep { step, .. } => (1, step),
            Outcome::OutOfScope => (0, 0),
        }
    }

    /// Human-readable one-liner.
    pub fn summary(&self) -> String {
        match &self.outcome {
            Outcome::Explained => format!("{}: explained", self.label),
            Outcome::WrongUser { candidates } => format!(
                "{}: the data points at {candidates} other user(s), not this one",
                self.label
            ),
            Outcome::DiedAtStep { step, of } => {
                format!("{}: no matching data at hop {}/{of}", self.label, step + 1)
            }
            Outcome::OutOfScope => format!("{}: not applicable", self.label),
        }
    }
}

/// Diagnoses one access against every template, sorted with the closest
/// misses first.
///
/// Convenience for one-off calls; investigating many accesses should
/// [`Explainer::prepared`] once and call [`diagnose_prepared`] per row.
pub fn diagnose(
    db: &Database,
    spec: &LogSpec,
    explainer: &Explainer,
    row: RowId,
) -> Result<Vec<Diagnosis>> {
    Ok(diagnose_prepared(
        db,
        spec,
        &explainer.prepared(db, spec)?,
        row,
    ))
}

/// [`diagnose`] against pre-validated template queries: the per-row loop
/// runs no structural validation at all.
pub fn diagnose_prepared(
    db: &Database,
    spec: &LogSpec,
    prepared: &PreparedExplainer<'_>,
    row: RowId,
) -> Vec<Diagnosis> {
    let mut out = Vec::with_capacity(prepared.templates().len());
    for (i, (t, q)) in prepared
        .templates()
        .iter()
        .zip(prepared.queries())
        .enumerate()
    {
        let trace = q.trace(db, row);
        let outcome = if !trace.anchor_matches {
            Outcome::OutOfScope
        } else if trace.closed {
            Outcome::Explained
        } else if let Some(step) = trace.died_at() {
            Outcome::DiedAtStep {
                step,
                of: trace.survivors.len(),
            }
        } else {
            Outcome::WrongUser {
                candidates: *trace.survivors.last().unwrap_or(&0),
            }
        };
        out.push(Diagnosis {
            template_index: i,
            label: t.label(db, spec),
            outcome,
        });
    }
    out.sort_by(|a, b| {
        b.score()
            .cmp(&a.score())
            .then(a.template_index.cmp(&b.template_index))
    });
    out
}

/// True when any diagnosis says the access *would* have been explained had
/// the user been the one the data references — the snooping signature.
pub fn looks_like_snooping(diagnoses: &[Diagnosis]) -> bool {
    !diagnoses
        .iter()
        .any(|d| matches!(d.outcome, Outcome::Explained))
        && diagnoses
            .iter()
            .any(|d| matches!(d.outcome, Outcome::WrongUser { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::explained_cold;
    use crate::handcrafted::HandcraftedTemplates;
    use eba_synth::{AccessReason, Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec, Explainer) {
        let config = SynthConfig {
            n_snoop_accesses: 10,
            ..SynthConfig::tiny()
        };
        let h = Hospital::generate(config);
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        (h, spec, explainer)
    }

    #[test]
    fn explained_accesses_diagnose_as_explained() {
        let (h, spec, explainer) = setup();
        let explained = explained_cold(&h.db, &spec, explainer.templates());
        let rid = explained.iter().next().expect("something explained");
        let d = diagnose(&h.db, &spec, &explainer, rid).unwrap();
        assert!(matches!(d[0].outcome, Outcome::Explained));
        assert!(!looks_like_snooping(&d));
        assert!(d[0].summary().contains("explained"));
    }

    #[test]
    fn snoops_on_treated_patients_show_wrong_user() {
        let (h, spec, explainer) = setup();
        let explained = explained_cold(&h.db, &spec, explainer.templates());
        let prepared = explainer.prepared(&h.db, &spec).unwrap();
        let mut wrong_user_seen = false;
        for rid in 0..h.log_len() as u32 {
            if h.reason_of(rid) != AccessReason::Snoop || explained.contains(rid) {
                continue;
            }
            let d = diagnose_prepared(&h.db, &spec, &prepared, rid);
            // Every unexplained snoop must diagnose as *something*
            // informative (near miss or dead path), never Explained.
            assert!(!matches!(d[0].outcome, Outcome::Explained));
            if looks_like_snooping(&d) {
                wrong_user_seen = true;
                let top = &d[0];
                assert!(matches!(top.outcome, Outcome::WrongUser { .. }));
                assert!(top.summary().contains("other user"));
            }
        }
        assert!(
            wrong_user_seen,
            "expected at least one snoop on a patient with events"
        );
    }

    #[test]
    fn diagnoses_are_sorted_closest_first() {
        let (h, spec, explainer) = setup();
        let prepared = explainer.prepared(&h.db, &spec).unwrap();
        for rid in 0..(h.log_len() as u32).min(50) {
            let d = diagnose_prepared(&h.db, &spec, &prepared, rid);
            for w in d.windows(2) {
                assert!(w[0].score() >= w[1].score());
            }
        }
    }

    #[test]
    fn prepared_and_unprepared_diagnoses_agree() {
        let (h, spec, explainer) = setup();
        let prepared = explainer.prepared(&h.db, &spec).unwrap();
        for rid in 0..(h.log_len() as u32).min(20) {
            let a = diagnose(&h.db, &spec, &explainer, rid).unwrap();
            let b = diagnose_prepared(&h.db, &spec, &prepared, rid);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.template_index, y.template_index);
                assert_eq!(x.outcome, y.outcome);
            }
        }
    }

    #[test]
    fn dead_paths_report_the_failing_hop() {
        let (h, spec, explainer) = setup();
        // A float access to a patient with no events: appointment template
        // dies at hop 1.
        let explained = explained_cold(&h.db, &spec, explainer.templates());
        for rid in 0..h.log_len() as u32 {
            if h.reason_of(rid) == AccessReason::FloatAssist && !explained.contains(rid) {
                let d = diagnose(&h.db, &spec, &explainer, rid).unwrap();
                if let Some(dead) = d
                    .iter()
                    .find(|x| matches!(x.outcome, Outcome::DiedAtStep { .. }))
                {
                    assert!(dead.summary().contains("no matching data"));
                    return;
                }
            }
        }
        panic!("no float access with a dead path found");
    }
}
