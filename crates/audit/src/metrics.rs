//! Precision, recall, and normalized recall (§5.3.2).
//!
//! * `recall = |real accesses explained| / |real log|`
//! * `precision = |real accesses explained| / |real + fake accesses explained|`
//! * `normalized recall = |real accesses explained| / |real accesses with
//!   events|` — the denominator discounts accesses the (truncated) database
//!   holds no information about.

use crate::fake::FakeLog;
use eba_relational::RowSet;

/// Counts underlying the three metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Confusion {
    /// Real anchor rows explained by at least one template.
    pub real_explained: usize,
    /// Fake anchor rows explained by at least one template.
    pub fake_explained: usize,
    /// Real anchor rows in total.
    pub real_total: usize,
    /// Fake anchor rows in total.
    pub fake_total: usize,
    /// Real anchor rows whose patient has *some* recorded event (the
    /// normalized-recall denominator); equals `real_total` when no event
    /// predicates were supplied.
    pub real_with_events: usize,
}

impl Confusion {
    /// `real_explained / real_total` (0 when empty).
    pub fn recall(&self) -> f64 {
        ratio(self.real_explained, self.real_total)
    }

    /// `real_explained / (real_explained + fake_explained)` (1 when nothing
    /// fake was explained).
    pub fn precision(&self) -> f64 {
        if self.real_explained + self.fake_explained == 0 {
            return 1.0;
        }
        self.real_explained as f64 / (self.real_explained + self.fake_explained) as f64
    }

    /// `real_explained / real_with_events` (0 when empty).
    pub fn normalized_recall(&self) -> f64 {
        ratio(self.real_explained, self.real_with_events)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The confusion counts of one explained set: `anchors` are split
/// real/fake via `fake`, and `with_events` (if given) marks the rows
/// counted in the normalized-recall denominator. Pure set algebra over
/// compressed [`RowSet`]s — no query runs and no row is probed — so the
/// same function serves a freshly evaluated template set
/// ([`crate::explain::explained`]), an open-path predicate (the depth-0
/// "everyone in one group" baseline, whose explained set is just "patient
/// has some event"), and a pinned suite's
/// [`Maintained`](eba_relational::Maintained) partition (`&m.anchors`,
/// `&m.explained`, no fake log: every anchor row is real).
pub fn evaluate(
    anchors: &RowSet,
    explained: &RowSet,
    fake: Option<&FakeLog>,
    with_events: Option<&RowSet>,
) -> Confusion {
    let fakes: RowSet = fake.map(|f| f.rows().collect()).unwrap_or_default();
    let real = anchors.difference(&fakes);
    let fake_anchors = anchors.intersect(&fakes);
    Confusion {
        real_explained: real.intersect_len(explained),
        fake_explained: fake_anchors.intersect_len(explained),
        real_total: real.len(),
        fake_total: fake_anchors.len(),
        real_with_events: with_events.map_or(real.len(), |w| real.intersect_len(w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{anchors, explained, explained_cold};
    use crate::handcrafted::HandcraftedTemplates;
    use crate::view::AuditView;
    use eba_relational::Engine;
    use eba_synth::{Hospital, SynthConfig};

    #[test]
    fn metric_formulas() {
        let c = Confusion {
            real_explained: 30,
            fake_explained: 10,
            real_total: 60,
            fake_total: 60,
            real_with_events: 40,
        };
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.normalized_recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let c = Confusion {
            real_explained: 0,
            fake_explained: 0,
            real_total: 0,
            fake_total: 0,
            real_with_events: 0,
        };
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.normalized_recall(), 0.0);
    }

    #[test]
    fn set_algebra_matches_a_row_by_row_count() {
        // The reference the set algebra replaced: probe every anchor row.
        let anchors: RowSet = (0..200u32).filter(|r| r % 3 != 0).collect();
        let explained: RowSet = (0..200u32).filter(|r| r % 2 == 0).collect();
        let with_events: RowSet = (0..200u32).filter(|r| r % 5 != 0).collect();
        let fake = FakeLog {
            first_row: 120,
            count: 80,
        };
        let mut want = Confusion {
            real_explained: 0,
            fake_explained: 0,
            real_total: 0,
            fake_total: 0,
            real_with_events: 0,
        };
        for rid in anchors.iter() {
            if fake.is_fake(rid) {
                want.fake_total += 1;
                want.fake_explained += usize::from(explained.contains(rid));
            } else {
                want.real_total += 1;
                want.real_with_events += usize::from(with_events.contains(rid));
                want.real_explained += usize::from(explained.contains(rid));
            }
        }
        assert_eq!(
            evaluate(&anchors, &explained, Some(&fake), Some(&with_events)),
            want
        );
        let no_events = evaluate(&anchors, &explained, Some(&fake), None);
        assert_eq!(no_events.real_with_events, no_events.real_total);
    }

    #[test]
    fn evaluate_without_fakes_counts_all_rows_real() {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let explained = explained(&view, &spec, t.all_with_repeat());
        let c = evaluate(&anchors(&view, &spec), &explained, None, None);
        assert_eq!(c.fake_total, 0);
        assert_eq!(c.real_total, h.log_len());
        assert_eq!(c.real_explained, explained.len());
        assert!(c.recall() > 0.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.real_with_events, c.real_total);
    }

    #[test]
    fn precision_drops_with_fakes_for_permissive_templates() {
        let mut h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let users = crate::fake::user_pool(&h.db);
        let patients: Vec<_> = (0..h.world.n_patients())
            .map(|p| h.patient_value(p))
            .collect();
        let n = h.log_len();
        let fake = FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            n,
            h.config.days,
            99,
        );
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        // Tight templates keep high precision. (The tiny test world is far
        // denser than CareWeb's 3e-4 user-patient density, so some fake
        // pairs do coincide with real appointments; at realistic scale the
        // experiments measure ≈0.99.)
        let all: RowSet = (0..h.log_len() as u32).collect();
        let explained = explained_cold(&h.db, &spec, [&t.appt_with_dr]);
        let tight = evaluate(&all, &explained, Some(&fake), None);
        assert!(tight.precision() > 0.75, "precision {}", tight.precision());
        assert_eq!(tight.real_total, n);
        assert_eq!(tight.fake_total, n);
    }
}
