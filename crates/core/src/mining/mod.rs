//! Mining frequent explanation templates (§3 of the paper).
//!
//! Given a database, its access log, and the schema-graph edges of Def. 5
//! (key/FK joins, administrator relationships, allowed self-joins), find
//! every *restricted simple explanation template* — path length at most
//! `M`, at most `T` distinct tables — whose support (distinct log ids
//! explained) is at least `s%` of the log.
//!
//! Three algorithms are provided, all returning the **same template set**
//! (§5.3.3 confirms this experimentally; our integration tests assert it):
//!
//! * [`mine_one_way`] — Algorithm 1: grow supported paths from
//!   `Log.Patient`, one edge per round, pruning by the monotonicity of
//!   support; a path that reaches `Log.User` is an explanation.
//! * [`mine_two_way`] — additionally grows paths backward from `Log.User`;
//!   either frontier can close a template.
//! * [`mine_bridge`] — two-way exploration to length ℓ, then *bridging*:
//!   forward and backward partial paths that share an equal bridge edge are
//!   concatenated into candidate templates of length up to `2ℓ−1` (and via
//!   direct alias merges / single middle edges, up to `2ℓ+1`), whose
//!   support is then verified. Pushing the start/end constraints down this
//!   way shrinks the candidate space (§3.3.1).
//!
//! The §3.2.1 optimizations — canonical-form support caching,
//! distinct-projection de-duplication, and estimator-driven skipping of
//! non-selective paths — are individually toggleable in [`MiningConfig`],
//! and none of them changes the mined set (`tests/mining_equivalence.rs`
//! checks each). Every candidate is evaluated through one shared
//! [`eba_relational::Engine`] per run.

mod bridge;
pub mod decorate;
mod one_way;
mod shared;
mod two_way;

pub use bridge::mine_bridge;
pub use decorate::{refine, refine_with, DecoratedTemplate, DecorationCandidate};
pub use one_way::mine_one_way;
pub use two_way::mine_two_way;

use crate::canonical::CanonicalKey;
use crate::path::Path;
use eba_relational::TableId;
use std::time::Duration;

/// Mining parameters (Def. 5 plus the optimization toggles).
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Minimum support as a fraction of the (anchor-filtered) log, the
    /// paper's `s%`. The experiments use 1%.
    pub support_frac: f64,
    /// Maximum path length `M` (number of join conditions).
    pub max_length: usize,
    /// Maximum number of distinct tables `T` referenced (self-joins count
    /// once; the anchor log counts).
    pub max_tables: usize,
    /// Tables excluded from the `T` limit (the paper exempts its
    /// audit-id↔caregiver-id mapping table).
    pub exempt_tables: Vec<TableId>,
    /// §3.2.1 optimization 1: cache support values under canonical
    /// selection-condition form.
    pub opt_cache: bool,
    /// §3.2.1 optimization 2: evaluate over per-table distinct projections.
    pub opt_dedup: bool,
    /// §3.2.1 optimization 3: skip support evaluation of open paths the
    /// estimator predicts to be non-selective, passing them straight to the
    /// next round. Completed explanations are never skipped.
    pub opt_skip: bool,
    /// The estimator safety factor `c` (skip only when the estimate exceeds
    /// `c · S`); the paper uses a constant "like 10".
    pub skip_multiplier: f64,
    /// Allow mined paths to traverse *fresh aliases of the log table*
    /// mid-path (e.g. "…the doctor accessed another patient who had an
    /// appointment with the accessing user"). Off by default: the paper's
    /// template counts (Table 1) indicate its miner did not chain through
    /// additional log tuple variables, and such templates are rarely
    /// meaningful to an administrator. Hand-crafted templates (like
    /// decorated repeat access) may still reference the log.
    pub allow_log_aliases: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            support_frac: 0.01,
            max_length: 4,
            max_tables: 3,
            exempt_tables: Vec::new(),
            opt_cache: true,
            opt_dedup: true,
            opt_skip: true,
            skip_multiplier: 10.0,
            allow_log_aliases: false,
        }
    }
}

/// Per-round counters, one entry per path length.
#[derive(Debug, Clone, Default)]
pub struct LengthStats {
    /// Path length these counters describe.
    pub length: usize,
    /// Candidate paths generated at this length.
    pub candidates: usize,
    /// Support queries actually evaluated on the database.
    pub support_queries: usize,
    /// Candidates answered from the canonical-form cache.
    pub cache_hits: usize,
    /// Open paths passed to the next round without evaluation (opt. 3).
    pub skipped: usize,
    /// Wall-clock time spent on this length.
    pub elapsed: Duration,
}

/// Counters for a whole mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningStats {
    /// Per-length statistics in increasing length order.
    pub per_length: Vec<LengthStats>,
}

impl MiningStats {
    pub(crate) fn at(&mut self, length: usize) -> &mut LengthStats {
        if let Some(i) = self.per_length.iter().position(|s| s.length == length) {
            return &mut self.per_length[i];
        }
        self.per_length.push(LengthStats {
            length,
            ..LengthStats::default()
        });
        self.per_length.sort_by_key(|s| s.length);
        let i = self
            .per_length
            .iter()
            .position(|s| s.length == length)
            .expect("just inserted");
        &mut self.per_length[i]
    }

    /// Total wall-clock time.
    pub fn total_elapsed(&self) -> Duration {
        self.per_length.iter().map(|s| s.elapsed).sum()
    }

    /// `(length, cumulative elapsed)` series — the exact shape of the
    /// paper's Figure 13.
    pub fn cumulative(&self) -> Vec<(usize, Duration)> {
        let mut acc = Duration::ZERO;
        self.per_length
            .iter()
            .map(|s| {
                acc += s.elapsed;
                (s.length, acc)
            })
            .collect()
    }

    /// Total support queries evaluated.
    pub fn support_queries(&self) -> usize {
        self.per_length.iter().map(|s| s.support_queries).sum()
    }

    /// Total cache hits.
    pub fn cache_hits(&self) -> usize {
        self.per_length.iter().map(|s| s.cache_hits).sum()
    }
}

/// One discovered template with its support.
#[derive(Debug, Clone)]
pub struct MinedTemplate {
    /// The closed path.
    pub path: Path,
    /// Distinct log ids explained.
    pub support: usize,
    /// Canonical identity (used to compare template sets across
    /// algorithms and time periods).
    pub key: CanonicalKey,
}

impl MinedTemplate {
    /// Template length.
    pub fn length(&self) -> usize {
        self.path.length()
    }
}

/// Output of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// Discovered templates, sorted by (length, canonical key).
    pub templates: Vec<MinedTemplate>,
    /// Performance counters.
    pub stats: MiningStats,
    /// The absolute support threshold `S = ⌈s · |log|⌉` that was applied.
    pub threshold: usize,
    /// Distinct anchor log ids (the support denominator).
    pub anchor_lids: usize,
}

impl MiningResult {
    /// Templates of exactly this length.
    pub fn of_length(&self, length: usize) -> impl Iterator<Item = &MinedTemplate> {
        self.templates.iter().filter(move |t| t.length() == length)
    }

    /// `(length, count)` pairs, ascending — the rows of the paper's Table 1.
    pub fn counts_by_length(&self) -> Vec<(usize, usize)> {
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for t in &self.templates {
            *counts.entry(t.length()).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// The canonical keys of the mined set (for cross-run comparison, e.g.
    /// Table 1's "common templates" column).
    pub fn key_set(&self) -> std::collections::BTreeSet<CanonicalKey> {
        self.templates.iter().map(|t| t.key.clone()).collect()
    }
}
