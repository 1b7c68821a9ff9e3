//! The explainer: per-access explanations ranked by path length.
//!
//! "When there are multiple explanation instances for a given log record,
//! we convert each to natural language and rank the explanations in
//! ascending order of path length" (§2.1).

use crate::view::AuditView;
use eba_core::{ExplanationTemplate, LogSpec};
use eba_relational::{ChainQuery, Database, EvalOptions, Result, RowId, RowSet, SuitePin};

/// One rendered explanation for a specific access.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedExplanation {
    /// Index into the explainer's template list.
    pub template_index: usize,
    /// Template path length (the ranking key; shorter = more direct).
    pub length: usize,
    /// Natural-language text.
    pub text: String,
}

/// A template suite ready to explain individual accesses.
#[derive(Debug, Clone, Default)]
pub struct Explainer {
    templates: Vec<ExplanationTemplate>,
}

impl Explainer {
    /// Builds an explainer over a set of templates.
    pub fn new(templates: Vec<ExplanationTemplate>) -> Self {
        Explainer { templates }
    }

    /// The templates, in index order.
    pub fn templates(&self) -> &[ExplanationTemplate] {
        &self.templates
    }

    /// Adds a template, returning its index.
    pub fn push(&mut self, t: ExplanationTemplate) -> usize {
        self.templates.push(t);
        self.templates.len() - 1
    }

    /// All explanations for one log record, rendered and sorted by
    /// ascending path length (then template order). At most
    /// `instances_per_template` witnesses are rendered per template.
    pub fn explain(
        &self,
        db: &Database,
        spec: &LogSpec,
        row: RowId,
        instances_per_template: usize,
    ) -> Result<Vec<RankedExplanation>> {
        let mut out = Vec::new();
        for (i, t) in self.templates.iter().enumerate() {
            let query = t.path.to_chain_query(spec);
            for inst in query.instances(db, row, instances_per_template)? {
                out.push(RankedExplanation {
                    template_index: i,
                    length: t.length(),
                    text: t.render(db, spec, row, &inst),
                });
            }
        }
        out.sort_by_key(|e| (e.length, e.template_index));
        Ok(out)
    }

    /// The suite as a [`SuitePin`], ready to hand to
    /// [`eba_relational::ShardedEngine::pin_suite`]: once pinned, every
    /// published epoch vector carries the materialized
    /// explained/unexplained partition, maintained incrementally per
    /// ingest and byte-identical to what [`explained`] and [`unexplained`]
    /// recompute over a view of the same epoch.
    pub fn suite_pin(&self, spec: &LogSpec) -> SuitePin {
        SuitePin {
            log: spec.table,
            anchor_filters: spec.anchor_filters.clone(),
            queries: lower(&self.templates, spec),
            opts: EvalOptions::default(),
        }
    }
}

fn lower<'t>(
    templates: impl IntoIterator<Item = &'t ExplanationTemplate>,
    spec: &LogSpec,
) -> Vec<ChainQuery> {
    templates
        .into_iter()
        .map(|t| t.path.to_chain_query(spec))
        .collect()
}

/// Rows (within the spec's anchor) explained by at least one of
/// `templates`: the whole set is evaluated as one fused batch per part of
/// the view ([`AuditView::eval_suite`]), and the engines' step maps and
/// log partitions stay warm for the next question.
pub fn explained<'t>(
    view: &AuditView,
    spec: &LogSpec,
    templates: impl IntoIterator<Item = &'t ExplanationTemplate>,
) -> RowSet {
    view.eval_suite(&lower(templates, spec))
}

/// Log rows passing the spec's anchor filters.
pub fn anchors(view: &AuditView, spec: &LogSpec) -> RowSet {
    RowSet::union_all(view.parts().iter().map(|part| {
        let rows: Vec<RowId> = part
            .anchor_rows(spec)
            .map(|(rid, _)| part.to_global(rid))
            .collect();
        RowSet::from_sorted_vec(&rows)
    }))
}

/// Anchor rows *no* template explains — the paper's reduced set of
/// potentially suspicious accesses: `anchors \ explained`, one compressed
/// difference that reads out already sorted.
pub fn unexplained(view: &AuditView, spec: &LogSpec, explained: &RowSet) -> RowSet {
    anchors(view, spec).difference(explained)
}

/// [`explained`] by the cold per-template walk: each template's query is
/// evaluated on its own by the reference row evaluator
/// ([`ChainQuery::explained_rows`]) against a bare database. The **one**
/// reference spelling the differential suites compare every view-based
/// answer with; anything asked more than once should build a view instead.
pub fn explained_cold<'t>(
    db: &Database,
    spec: &LogSpec,
    templates: impl IntoIterator<Item = &'t ExplanationTemplate>,
) -> RowSet {
    let mut out = RowSet::new();
    for q in lower(templates, spec) {
        out.extend(
            q.explained_rows(db, EvalOptions::default())
                .expect("templates lower to valid queries"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handcrafted::HandcraftedTemplates;
    use eba_relational::{Engine, ShardKey, ShardedEngine, Value};
    use eba_synth::{Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec, Explainer) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        (h, spec, explainer)
    }

    fn sharded(h: &Hospital, spec: &LogSpec, n: usize) -> ShardedEngine {
        let key = ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        ShardedEngine::new(h.db.clone(), key, n)
    }

    #[test]
    fn explanations_are_ranked_by_length() {
        let (h, spec, explainer) = setup();
        // Find a row with at least two explanations.
        for rid in 0..h.log_len() as RowId {
            let ex = explainer.explain(&h.db, &spec, rid, 4).unwrap();
            if ex.len() >= 2 {
                for w in ex.windows(2) {
                    assert!(w[0].length <= w[1].length);
                }
                assert!(!ex[0].text.is_empty());
                return;
            }
        }
        panic!("no multiply-explained access found");
    }

    #[test]
    fn explained_plus_unexplained_covers_anchor() {
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let explained = explained(&view, &spec, explainer.templates());
        let unexplained = unexplained(&view, &spec, &explained);
        assert_eq!(explained.len() + unexplained.len(), h.log_len());
        assert_eq!(explained.intersect_len(&unexplained), 0);
    }

    #[test]
    fn float_assists_are_unexplained() {
        let (h, spec, explainer) = setup();
        let explained = explained_cold(&h.db, &spec, explainer.templates());
        let mut float_explained = 0;
        let mut float_total = 0;
        for rid in 0..h.log_len() as RowId {
            if h.reason_of(rid) == eba_synth::AccessReason::FloatAssist {
                float_total += 1;
                if explained.contains(rid) {
                    float_explained += 1;
                }
            }
        }
        assert!(float_total > 0);
        // A float's *first* access has no event path; repeats of floats
        // are explained by the repeat template only.
        assert!(
            (float_explained as f64) < 0.2 * float_total as f64,
            "{float_explained}/{float_total} float accesses explained"
        );
    }

    #[test]
    fn every_view_matches_the_cold_reference() {
        let (h, spec, explainer) = setup();
        let cold = explained_cold(&h.db, &spec, explainer.templates());
        let all: RowSet = (0..h.log_len() as RowId).collect();
        let engine = Engine::new(&h.db);
        let check = |view: &AuditView, what: &str| {
            let got = explained(view, &spec, explainer.templates());
            assert_eq!(got, cold, "{what}: explained");
            assert_eq!(anchors(view, &spec), all, "{what}: anchors");
            assert_eq!(
                unexplained(view, &spec, &got),
                all.difference(&cold),
                "{what}: unexplained"
            );
        };
        check(&AuditView::warm(&h.db, &engine), "warm pair");
        for n in [1, 3] {
            let epochs = sharded(&h, &spec, n).load();
            check(&AuditView::pinned(&epochs), &format!("{n} shards"));
        }
    }

    #[test]
    fn pinned_suite_maintains_the_cold_partition() {
        // A pinned suite's maintained sets must match the recompute over
        // a view of every published epoch vector — including after
        // ingests that extend the log.
        let (h, spec, explainer) = setup();
        for n in [1, 3] {
            let handle = sharded(&h, &spec, n);
            let pin_id = handle.pin_suite(explainer.suite_pin(&spec));
            let check = |label: &str| {
                let epochs = handle.load();
                let view = AuditView::pinned(&epochs);
                let m = epochs.maintained(pin_id).expect("pinned");
                let explained = explained(&view, &spec, explainer.templates());
                assert_eq!(m.explained, explained, "{label} ({n} shards)");
                assert_eq!(
                    m.unexplained,
                    unexplained(&view, &spec, &explained),
                    "{label} ({n} shards)"
                );
                assert_eq!(m.log_len, epochs.global_log_len());
            };
            check("cold pin");

            let arity = h.db.table(h.t_log).schema().arity();
            let cols = h.log_cols;
            for round in 0..3i64 {
                let (_, report) = handle.ingest(|batch| {
                    for i in 0..4i64 {
                        let mut row = vec![Value::Null; arity];
                        row[cols.lid] = Value::Int(4_000_000 + 4 * round + i);
                        row[cols.date] = Value::Date(0);
                        row[cols.user] = Value::Int(1 + i);
                        row[cols.patient] = Value::Int(1 + i + round);
                        row[cols.day] = Value::Int(1);
                        row[cols.is_first] = Value::Int(0);
                        batch.insert_log(row).unwrap();
                    }
                });
                assert!(report.fallback_warnings().is_empty());
                check("after ingest");
            }
        }
    }

    #[test]
    fn push_extends_the_suite() {
        let (h, spec, mut explainer) = setup();
        let before = explainer.templates().len();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let idx = explainer.push(t.appt_with_dr.clone());
        assert_eq!(idx, before);
        assert_eq!(explainer.templates().len(), before + 1);
    }
}
