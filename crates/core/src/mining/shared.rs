//! Machinery shared by the three mining algorithms: the evaluation context
//! (engine, support cache, estimator, counters) and frontier expansion.
//!
//! Each mining round — the bottom-up frontiers *and* the bridging
//! algorithm's gluing phases — is evaluated in two phases: candidate
//! *generation* walks the frontier and the edge set (pure path algebra,
//! cheap), then the round's whole candidate batch is *evaluated* at once
//! through [`Ctx::supports_of`] — answering from the canonical-form cache
//! where possible and handing the rest to the shared
//! [`eba_relational::Engine`], which amortizes step-map construction across
//! candidates and fans evaluation out over threads. The phases preserve the
//! sequential algorithm's results and counters exactly: candidates are
//! thresholded in generation order, and same-round duplicates of a
//! canonical key count as cache hits just as they would when evaluated one
//! by one.

use crate::canonical::{canonical_key, CanonicalKey};
use crate::edge::EdgeSet;
use crate::log_spec::LogSpec;
use crate::mining::{MinedTemplate, MiningConfig, MiningStats};
use crate::path::{Direction, Path};
use eba_relational::{estimate_support_hinted, ChainQuery, Database, Engine, EvalOptions};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Evaluation context for one mining run.
pub(crate) struct Ctx<'a> {
    pub db: &'a Database,
    pub spec: &'a LogSpec,
    pub config: &'a MiningConfig,
    pub threshold: usize,
    pub anchor_lids: usize,
    /// Fraction of the log passing the anchor filters (estimator hint).
    pub anchor_frac: f64,
    /// The shared evaluation engine: a per-run interned snapshot with a
    /// memoized step-map cache, batch-evaluating each round's candidates.
    engine: Engine,
    cache: HashMap<CanonicalKey, usize>,
    pub stats: MiningStats,
}

impl<'a> Ctx<'a> {
    pub fn new(db: &'a Database, spec: &'a LogSpec, config: &'a MiningConfig) -> Self {
        let anchor_lids = spec.anchor_lid_count(db);
        let total = db.table(spec.table).len().max(1);
        let threshold = ((config.support_frac * anchor_lids as f64).ceil() as usize).max(1);
        Ctx {
            db,
            spec,
            config,
            threshold,
            anchor_lids,
            anchor_frac: anchor_lids as f64 / total as f64,
            engine: Engine::new(db),
            cache: HashMap::new(),
            stats: MiningStats::default(),
        }
    }

    fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            dedup: self.config.opt_dedup,
        }
    }

    /// Supports of a whole round's candidates, in input order.
    ///
    /// With the canonical-form cache on, each distinct key is evaluated at
    /// most once (earlier rounds' results are reused, and same-round
    /// duplicates count as cache hits — identical to one-by-one
    /// evaluation). The queries actually evaluated go to the engine as one
    /// parallel batch.
    pub fn supports_of(
        &mut self,
        candidates: &[(&Path, &CanonicalKey)],
        length: usize,
    ) -> Vec<usize> {
        let mut out: Vec<Option<usize>> = vec![None; candidates.len()];
        let mut to_eval: Vec<usize> = Vec::new();
        if self.config.opt_cache {
            let mut scheduled: HashSet<&CanonicalKey> = HashSet::new();
            for (i, (_, key)) in candidates.iter().enumerate() {
                if let Some(&s) = self.cache.get(*key) {
                    self.stats.at(length).cache_hits += 1;
                    out[i] = Some(s);
                } else if scheduled.insert(*key) {
                    to_eval.push(i);
                } else {
                    // Same-round duplicate: filled from the cache below.
                    self.stats.at(length).cache_hits += 1;
                }
            }
        } else {
            to_eval.extend(0..candidates.len());
        }

        let queries: Vec<ChainQuery> = to_eval
            .iter()
            .map(|&i| candidates[i].0.to_chain_query(self.spec))
            .collect();
        let supports: Vec<usize> = self
            .engine
            .support_many(self.db, &queries, self.eval_options())
            .into_iter()
            .map(|r| r.expect("paths constructed by the miner lower to valid queries"))
            .collect();
        self.stats.at(length).support_queries += to_eval.len();
        for (&i, &support) in to_eval.iter().zip(&supports) {
            out[i] = Some(support);
            if self.config.opt_cache {
                self.cache.insert(candidates[i].1.clone(), support);
            }
        }
        for (i, (_, key)) in candidates.iter().enumerate() {
            if out[i].is_none() {
                out[i] = Some(self.cache[*key]);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every candidate resolved"))
            .collect()
    }

    /// §3.2.1 optimization 3: should this *open* path skip support
    /// evaluation this round? True when the estimator predicts at least
    /// `c · S` explained log ids.
    pub fn should_skip(&self, path: &Path) -> bool {
        if !self.config.opt_skip {
            return false;
        }
        let q = path.to_chain_query(self.spec);
        let est = estimate_support_hinted(self.db, &q, self.anchor_frac);
        est >= self.config.skip_multiplier * self.threshold as f64
    }
}

/// The opposite-anchor attribute a path of the given direction closes at.
fn close_target(spec: &LogSpec, dir: Direction) -> eba_relational::AttrRef {
    match dir {
        Direction::Forward => spec.end_attr(),
        Direction::Backward => spec.start_attr(),
    }
}

/// Seeds a frontier: supported length-1 paths leaving the anchor attribute
/// of `dir` ("an initial set of paths of length one are created by taking
/// the set of edges that begin with the start attribute").
pub(crate) fn seed_frontier(ctx: &mut Ctx<'_>, edges: &EdgeSet, dir: Direction) -> Vec<Path> {
    let started = Instant::now();
    let anchor = match dir {
        Direction::Forward => ctx.spec.start_attr(),
        Direction::Backward => ctx.spec.end_attr(),
    };
    let mut seen: HashMap<CanonicalKey, Path> = HashMap::new();
    let mut batch: Vec<Candidate> = Vec::new();
    for edge in edges.from_attr(anchor) {
        if edge.to.table == ctx.spec.table && !ctx.config.allow_log_aliases {
            continue; // a fresh log alias as the first hop
        }
        let Ok(path) = Path::seed(ctx.spec, dir, *edge) else {
            continue;
        };
        if !path.is_restricted(
            ctx.spec.table,
            ctx.config.max_length,
            ctx.config.max_tables,
            &ctx.config.exempt_tables,
        ) {
            continue;
        }
        ctx.stats.at(1).candidates += 1;
        let key = canonical_key(&path, ctx.spec);
        let skipped = ctx.should_skip(&path);
        if skipped {
            ctx.stats.at(1).skipped += 1;
        }
        batch.push(Candidate {
            path,
            key,
            closing: false,
            skipped,
        });
    }
    let supports = evaluate_batch(ctx, &batch, 1);
    // Admit in generation order (first path with a key wins, exactly as the
    // one-at-a-time loop admitted them).
    for (candidate, support) in batch.into_iter().zip(supports) {
        if candidate.skipped || support >= ctx.threshold {
            seen.entry(candidate.key).or_insert(candidate.path);
        }
    }
    let mut frontier: Vec<(CanonicalKey, Path)> = seen.into_iter().collect();
    frontier.sort_by(|a, b| a.0.cmp(&b.0));
    ctx.stats.at(1).elapsed += started.elapsed();
    frontier.into_iter().map(|(_, p)| p).collect()
}

/// One generated (not yet evaluated) candidate of a round.
struct Candidate {
    path: Path,
    key: CanonicalKey,
    /// Closing candidates go to `explanations`; open ones to the next
    /// frontier.
    closing: bool,
    /// Open candidates the estimator deemed non-selective: passed to the
    /// next round without evaluation (§3.2.1 optimization 3).
    skipped: bool,
}

/// Supports for a round's candidates, aligned with `batch` (skipped
/// candidates are not evaluated and get a placeholder 0 — admission checks
/// `skipped` first).
fn evaluate_batch(ctx: &mut Ctx<'_>, batch: &[Candidate], length: usize) -> Vec<usize> {
    let eval_idx: Vec<usize> = batch
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.skipped)
        .map(|(i, _)| i)
        .collect();
    let keyed: Vec<(&Path, &CanonicalKey)> = eval_idx
        .iter()
        .map(|&i| (&batch[i].path, &batch[i].key))
        .collect();
    let supports = ctx.supports_of(&keyed, length);
    let mut out = vec![0usize; batch.len()];
    for (&i, s) in eval_idx.iter().zip(supports) {
        out[i] = s;
    }
    out
}

/// Expands a frontier of open paths of length `len` by one edge. Closing
/// candidates (length `len+1`) that meet the threshold are recorded in
/// `explanations`; supported (or skipped) open continuations are returned
/// as the next frontier when `keep_open` allows it.
pub(crate) fn expand_frontier(
    ctx: &mut Ctx<'_>,
    edges: &EdgeSet,
    frontier: &[Path],
    len: usize,
    keep_open: bool,
    explanations: &mut HashMap<CanonicalKey, MinedTemplate>,
) -> Vec<Path> {
    let started = Instant::now();
    let next_len = len + 1;
    let mut next: HashMap<CanonicalKey, Path> = HashMap::new();
    let mut batch: Vec<Candidate> = Vec::new();
    for path in frontier {
        let tip_table = path.tip().table;
        for edge in edges.from_table(tip_table) {
            // (a) Closing candidate: the edge lands on the anchor's
            // opposite attribute.
            if edge.to == close_target(ctx.spec, path.direction()) {
                if let Ok(closed) = path.closed_by(*edge, ctx.spec) {
                    if closed.is_restricted(
                        ctx.spec.table,
                        ctx.config.max_length,
                        ctx.config.max_tables,
                        &ctx.config.exempt_tables,
                    ) {
                        ctx.stats.at(next_len).candidates += 1;
                        // Explanations are never skipped (§3.2.1).
                        let key = canonical_key(&closed, ctx.spec);
                        batch.push(Candidate {
                            path: closed,
                            key,
                            closing: true,
                            skipped: false,
                        });
                    }
                }
            }
            // (b) Continuation: the edge's target becomes a fresh tuple
            // variable. Fresh aliases of the log table are excluded unless
            // explicitly allowed (see `MiningConfig::allow_log_aliases`).
            if keep_open && (edge.to.table != ctx.spec.table || ctx.config.allow_log_aliases) {
                if let Ok(open) = path.extended(*edge) {
                    if !open.is_restricted(
                        ctx.spec.table,
                        ctx.config.max_length,
                        ctx.config.max_tables,
                        &ctx.config.exempt_tables,
                    ) {
                        continue;
                    }
                    ctx.stats.at(next_len).candidates += 1;
                    let key = canonical_key(&open, ctx.spec);
                    let skipped = ctx.should_skip(&open);
                    if skipped {
                        ctx.stats.at(next_len).skipped += 1;
                    }
                    batch.push(Candidate {
                        path: open,
                        key,
                        closing: false,
                        skipped,
                    });
                }
            }
        }
    }

    // Evaluate the whole round at once, then admit in generation order
    // (first path with a key wins, exactly as the one-at-a-time loop).
    let supports = evaluate_batch(ctx, &batch, next_len);
    for (candidate, support) in batch.into_iter().zip(supports) {
        if candidate.closing {
            if support >= ctx.threshold {
                explanations
                    .entry(candidate.key.clone())
                    .or_insert(MinedTemplate {
                        path: candidate.path,
                        support,
                        key: candidate.key,
                    });
            }
        } else if candidate.skipped || support >= ctx.threshold {
            next.entry(candidate.key).or_insert(candidate.path);
        }
    }
    let mut out: Vec<(CanonicalKey, Path)> = next.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    ctx.stats.at(next_len).elapsed += started.elapsed();
    out.into_iter().map(|(_, p)| p).collect()
}

/// Packages explanations + stats into a [`crate::mining::MiningResult`].
pub(crate) fn finish(
    ctx: Ctx<'_>,
    explanations: HashMap<CanonicalKey, MinedTemplate>,
) -> crate::mining::MiningResult {
    let mut templates: Vec<MinedTemplate> = explanations.into_values().collect();
    templates.sort_by(|a, b| (a.length(), &a.key).cmp(&(b.length(), &b.key)));
    crate::mining::MiningResult {
        templates,
        stats: ctx.stats,
        threshold: ctx.threshold,
        anchor_lids: ctx.anchor_lids,
    }
}
