//! Per-day compliance timeline.
//!
//! The compliance-office view of the paper's misuse-detection application:
//! how much of each day's traffic is explained, and how the unexplained
//! residue trends. A day whose unexplained share spikes is where an
//! investigation starts.

use crate::view::AuditView;
use eba_core::LogSpec;
use eba_relational::{RowSet, Value};
use eba_synth::LogColumns;

/// One day's explanation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayStats {
    /// 1-based day — or [`DayStats::OVERFLOW_DAY`] for the bucket of
    /// accesses whose timestamp fell outside the reporting window.
    pub day: u32,
    /// Accesses that day (within the spec's other filters).
    pub total: usize,
    /// Accesses explained by at least one template.
    pub explained: usize,
    /// First accesses that day.
    pub first_accesses: usize,
    /// First accesses explained.
    pub first_explained: usize,
}

impl DayStats {
    /// The `day` value of the out-of-window bucket ([`Timeline::overflow`]).
    pub const OVERFLOW_DAY: u32 = 0;

    /// Fraction of the day's accesses explained (1.0 for an empty day).
    pub fn explained_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.explained as f64 / self.total as f64
        }
    }
}

/// The per-day compliance view: one [`DayStats`] per day of the window,
/// plus an explicit bucket for everything *outside* it.
///
/// Real access logs carry clock skew — a misconfigured workstation stamps
/// day 0 or day 400. Silently dropping those rows (what this module did
/// before the overflow bucket existed) over-reports compliance: the
/// dashboard's totals miss exactly the accesses most worth a look.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Days `1..=days`, in order.
    pub days: Vec<DayStats>,
    /// Accesses whose `Day` was outside `1..=days` (or not an integer —
    /// a NULL day counts as skew, not as silence). `day` is
    /// [`DayStats::OVERFLOW_DAY`].
    pub overflow: DayStats,
}

impl Timeline {
    /// Accesses excluded from the per-day rows (the overflow bucket's
    /// total) — zero on a well-formed log.
    pub fn dropped(&self) -> usize {
        self.overflow.total
    }

    /// Total accesses across the window *and* the overflow bucket.
    pub fn total(&self) -> usize {
        self.days.iter().map(|s| s.total).sum::<usize>() + self.overflow.total
    }
}

/// Per-day statistics for days `1..=days` of the view's log, counted
/// against `explained` (global row ids — what [`crate::explain::explained`]
/// returns, or a pinned suite's maintained `explained` set): one scan
/// buckets the log, then every count is an intersection cardinality.
pub fn daily_stats(
    view: &AuditView,
    spec: &LogSpec,
    cols: &LogColumns,
    days: u32,
    explained: &RowSet,
) -> Timeline {
    DayBuckets::build(view, spec, cols, days).timeline(explained)
}

/// The anchored log bucketed by day as compressed row sets: one
/// [`RowSet`] of accesses per in-window day plus the overflow bucket,
/// with the first-access rows kept as a parallel set per bucket.
///
/// Built with one scan of the log; every [`Timeline`] derived from it
/// afterwards is pure set algebra — `total`/`first_accesses` are set
/// cardinalities and `explained`/`first_explained` are intersection
/// counts via [`RowSet::intersect_len`], which walks the compressed
/// containers without materializing the intersection. A dashboard that
/// re-renders the timeline as the explained set evolves rebuilds only
/// the counts, never the buckets.
#[derive(Debug, Clone)]
pub struct DayBuckets {
    days: Vec<DayBucket>,
    overflow: DayBucket,
}

#[derive(Debug, Clone)]
struct DayBucket {
    day: u32,
    all: RowSet,
    firsts: RowSet,
}

impl DayBucket {
    fn empty(day: u32) -> DayBucket {
        DayBucket {
            day,
            all: RowSet::new(),
            firsts: RowSet::new(),
        }
    }

    fn stats(&self, explained: &RowSet) -> DayStats {
        DayStats {
            day: self.day,
            total: self.all.len(),
            explained: self.all.intersect_len(explained),
            first_accesses: self.firsts.len(),
            first_explained: self.firsts.intersect_len(explained),
        }
    }
}

impl DayBuckets {
    fn empty(days: u32) -> DayBuckets {
        DayBuckets {
            days: (1..=days).map(DayBucket::empty).collect(),
            overflow: DayBucket::empty(DayStats::OVERFLOW_DAY),
        }
    }

    /// Buckets the view's log by day in global row ids: one scan per
    /// part, anchor filters applied row by row. In-window accesses land
    /// in their day's bucket; clock-skewed or day-less ones land in the
    /// overflow bucket instead of vanishing.
    pub fn build(view: &AuditView, spec: &LogSpec, cols: &LogColumns, days: u32) -> DayBuckets {
        let mut merged = DayBuckets::empty(days);
        for part in view.parts() {
            // Within a part global ids ascend, so every insert appends;
            // the parts' buckets then merge container-at-a-time.
            let mut buckets = DayBuckets::empty(days);
            for (rid, row) in part.anchor_rows(spec) {
                let b = match row[cols.day] {
                    Value::Int(day) if (1..=days as i64).contains(&day) => {
                        &mut buckets.days[(day - 1) as usize]
                    }
                    _ => &mut buckets.overflow,
                };
                let global = part.to_global(rid);
                b.all.insert(global);
                if row[cols.is_first] == Value::Int(1) {
                    b.firsts.insert(global);
                }
            }
            let pairs = merged.days.iter_mut().zip(&buckets.days);
            for (m, b) in pairs.chain([(&mut merged.overflow, &buckets.overflow)]) {
                m.all.union_with(&b.all);
                m.firsts.union_with(&b.firsts);
            }
        }
        merged
    }

    /// Derives the per-day timeline against an explained set — counts
    /// only, no per-row probing and no allocation.
    pub fn timeline(&self, explained: &RowSet) -> Timeline {
        Timeline {
            days: self.days.iter().map(|b| b.stats(explained)).collect(),
            overflow: self.overflow.stats(explained),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{explained, explained_cold, Explainer};
    use crate::handcrafted::HandcraftedTemplates;
    use crate::split;
    use eba_relational::{Engine, EpochVec, ShardKey, ShardedEngine};
    use eba_synth::{Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec, Explainer) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        (h, spec, explainer)
    }

    /// The timeline of a warm engine over the hospital's database.
    fn timeline_of(h: &Hospital, spec: &LogSpec, explainer: &Explainer) -> Timeline {
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let explained = explained(&view, spec, explainer.templates());
        daily_stats(&view, spec, &h.log_cols, h.config.days, &explained)
    }

    /// Three skewed accesses: day 0, day beyond the window, and a NULL
    /// day — none may vanish from the totals.
    fn skewed_rows(h: &Hospital, first_lid: i64) -> Vec<Vec<Value>> {
        let arity = h.db.table(h.t_log).schema().arity();
        [
            Value::Int(0),
            Value::Int(h.config.days as i64 + 30),
            Value::Null,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, day)| {
            let mut row = vec![Value::Null; arity];
            row[h.log_cols.lid] = Value::Int(first_lid + i as i64);
            row[h.log_cols.date] = Value::Date(0);
            row[h.log_cols.user] = Value::Int(1);
            row[h.log_cols.patient] = Value::Int(1);
            row[h.log_cols.day] = day;
            row[h.log_cols.is_first] = Value::Int(0);
            row
        })
        .collect()
    }

    #[test]
    fn daily_totals_sum_to_log_size() {
        let (h, spec, explainer) = setup();
        let timeline = timeline_of(&h, &spec, &explainer);
        assert_eq!(timeline.days.len(), h.config.days as usize);
        // A well-formed synthetic log has no clock skew.
        assert_eq!(timeline.dropped(), 0);
        assert_eq!(timeline.total(), h.log_len());
        for s in &timeline.days {
            assert!(s.explained <= s.total);
            assert!(s.first_explained <= s.first_accesses);
            assert!(s.first_accesses <= s.total);
            assert!((0.0..=1.0).contains(&s.explained_rate()));
        }
    }

    #[test]
    fn clock_skewed_accesses_land_in_the_overflow_bucket() {
        let (mut h, spec, explainer) = setup();
        let before = timeline_of(&h, &spec, &explainer);
        for row in skewed_rows(&h, 1_000_000) {
            h.db.insert(h.t_log, row).unwrap();
        }
        let after = timeline_of(&h, &spec, &explainer);
        assert_eq!(after.dropped(), 3);
        assert_eq!(after.overflow.day, DayStats::OVERFLOW_DAY);
        assert_eq!(after.total(), h.log_len());
        assert_eq!(after.total(), before.total() + 3);
        // The in-window rows are untouched by the skewed appends.
        for (b, a) in before.days.iter().zip(&after.days) {
            assert_eq!(b.total, a.total);
        }
    }

    #[test]
    fn pinned_views_match_the_warm_pair_through_a_skewed_ingest() {
        // The overflow bucket must be visible through a pinned epoch
        // vector (the view a live service holds), not just a warm pair:
        // skewed rows arrive via ingest, the re-pinned vector's timeline
        // carries them in the overflow bucket, and the old pin stays
        // byte-stable — at one shard and at several.
        let (mut h, spec, explainer) = setup();
        let key = ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        let (cols, days) = (h.log_cols, h.config.days);
        let before = timeline_of(&h, &spec, &explainer);
        let skewed = skewed_rows(&h, 2_000_000);
        let handles = [1, 3].map(|n| ShardedEngine::new(h.db.clone(), key, n));
        let pinned_timeline = |epochs: &EpochVec| {
            let view = AuditView::pinned(epochs);
            let explained = explained(&view, &spec, explainer.templates());
            daily_stats(&view, &spec, &cols, days, &explained)
        };
        for row in &skewed {
            h.db.insert(h.t_log, row.clone()).unwrap();
        }
        let after = timeline_of(&h, &spec, &explainer);
        assert_eq!(after.dropped(), 3);
        for handle in &handles {
            let pinned = handle.load();
            assert_eq!(pinned_timeline(&pinned), before);
            handle.ingest(|batch| {
                for row in &skewed {
                    batch.insert_log(row.clone()).unwrap();
                }
            });
            assert_eq!(pinned_timeline(&pinned), before, "the old pin is untouched");
            assert_eq!(pinned_timeline(&handle.load()), after);
        }
    }

    #[test]
    fn day_buckets_are_reusable_across_explained_sets() {
        // One bucket build serves any number of explained sets: the
        // empty set zeroes the explained counts, the full log explains
        // everything, and the real suite matches `daily_stats`.
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        let view = AuditView::warm(&h.db, &engine);
        let buckets = DayBuckets::build(&view, &spec, &h.log_cols, h.config.days);

        let none = buckets.timeline(&RowSet::new());
        assert_eq!(none.total(), h.log_len());
        for s in none.days.iter().chain([&none.overflow]) {
            assert_eq!(s.explained, 0);
            assert_eq!(s.first_explained, 0);
        }

        let all: RowSet = (0..h.log_len() as u32).collect();
        let everything = buckets.timeline(&all);
        for s in everything.days.iter().chain([&everything.overflow]) {
            assert_eq!(s.explained, s.total);
            assert_eq!(s.first_explained, s.first_accesses);
        }

        let explained = explained_cold(&h.db, &spec, explainer.templates());
        assert_eq!(
            buckets.timeline(&explained),
            timeline_of(&h, &spec, &explainer)
        );
    }

    #[test]
    fn first_accesses_sum_to_distinct_pairs() {
        let (h, spec, explainer) = setup();
        let stats = timeline_of(&h, &spec, &explainer).days;
        let firsts: usize = stats.iter().map(|s| s.first_accesses).sum();
        let mut pairs = std::collections::HashSet::new();
        for (_, row) in h.db.table(h.t_log).iter() {
            pairs.insert((row[h.log_cols.user], row[h.log_cols.patient]));
        }
        assert_eq!(firsts, pairs.len());
    }

    #[test]
    fn day_filters_compose() {
        let (h, spec, explainer) = setup();
        // Restricting the spec to day 3 zeroes all other days.
        let day3 = spec.with_filters(split::day_range(&h.log_cols, 3, 3));
        let stats = timeline_of(&h, &day3, &explainer).days;
        for s in &stats {
            if s.day != 3 {
                assert_eq!(s.total, 0);
                assert_eq!(s.explained_rate(), 1.0, "empty day rate defaults to 1");
            } else {
                assert!(s.total > 0);
            }
        }
    }

    #[test]
    fn explained_rate_is_reasonably_stable_across_days() {
        let (h, spec, explainer) = setup();
        let stats = timeline_of(&h, &spec, &explainer).days;
        let rates: Vec<f64> = stats
            .iter()
            .filter(|s| s.total > 20)
            .map(|s| s.explained_rate())
            .collect();
        assert!(rates.len() >= 3);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min < 0.45,
            "explained rate varies wildly across days: {min:.2}..{max:.2}"
        );
    }
}
