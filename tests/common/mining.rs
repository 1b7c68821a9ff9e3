//! The cold mining reference: the paper's Algorithm 1 and the decoration
//! refinement written directly over the public path algebra, with every
//! support answered by a cold `ChainQuery::support` scan — no engine, no
//! canonical-form cache, no estimator skip. The product miner must agree
//! with it template for template (`engine_equivalence`).

use eba::core::canonical::{canonical_key, CanonicalKey};
use eba::core::mining::{DecoratedTemplate, DecorationCandidate, MinedTemplate};
use eba::core::{Direction, Edge, EdgeSet, LogSpec, MiningConfig, Path};
use eba::relational::{CmpOp, Database, EvalOptions, Rhs, StepFilter, Value};
use std::collections::BTreeMap;

/// A path's support through the cold row evaluator.
pub fn cold_support(db: &Database, spec: &LogSpec, path: &Path) -> usize {
    path.to_chain_query(spec)
        .support(db, EvalOptions::default())
        .expect("mined paths lower to valid queries")
}

/// What [`cold_one_way`] mined: the absolute threshold and each template's
/// support by canonical key.
pub struct ColdMined {
    pub threshold: usize,
    pub supports: BTreeMap<CanonicalKey, usize>,
}

/// One-way mining, level by level: seed with the supported edges leaving
/// the start attribute, then each round extend every supported open path
/// by every connected edge. A candidate closing on the end attribute is a
/// template if supported; an open one joins the next frontier if
/// supported and a longer path could still close.
pub fn cold_one_way(db: &Database, spec: &LogSpec, config: &MiningConfig) -> ColdMined {
    let edges = EdgeSet::build(db);
    let anchor_lids = spec.anchor_lid_count(db);
    let threshold = ((config.support_frac * anchor_lids as f64).ceil() as usize).max(1);
    let restricted = |p: &Path| {
        p.is_restricted(
            spec.table,
            config.max_length,
            config.max_tables,
            &config.exempt_tables,
        )
    };
    let may_visit = |e: &Edge| e.to.table != spec.table;
    let supported = |p: &Path| restricted(p) && cold_support(db, spec, p) >= threshold;

    let mut frontier: BTreeMap<CanonicalKey, Path> = edges
        .from_attr(spec.start_attr())
        .filter(|e| may_visit(e))
        .filter_map(|e| Path::seed(spec, Direction::Forward, *e).ok())
        .filter(|p| supported(p))
        .map(|p| (canonical_key(&p, spec), p))
        .collect();
    let mut supports = BTreeMap::new();
    for len in 1..config.max_length {
        let mut next = BTreeMap::new();
        for path in frontier.values() {
            for edge in edges.from_table(path.tip().table) {
                if edge.to == spec.end_attr() {
                    if let Ok(closed) = path.closed_by(*edge, spec) {
                        if restricted(&closed) {
                            let support = cold_support(db, spec, &closed);
                            if support >= threshold {
                                supports.insert(canonical_key(&closed, spec), support);
                            }
                        }
                    }
                }
                if len + 1 < config.max_length && may_visit(edge) {
                    if let Ok(open) = path.extended(*edge) {
                        if supported(&open) {
                            next.entry(canonical_key(&open, spec)).or_insert(open);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    ColdMined {
        threshold,
        supports,
    }
}

/// One refined template as `(base_key, pinned, support)`.
pub type Refined = (CanonicalKey, Value, usize);

/// Decoration refinement, one template and one value at a time: for each
/// template visiting the candidate's table, pin the column on every such
/// tuple variable to each value, most restrictive first, and keep the
/// first whose cold support meets `threshold`. Sorted by base key.
pub fn cold_refine(
    db: &Database,
    spec: &LogSpec,
    templates: &[MinedTemplate],
    candidate: &DecorationCandidate,
    threshold: usize,
) -> Vec<Refined> {
    let mut out = Vec::new();
    for t in templates {
        let aliases: Vec<usize> = (1..)
            .zip(t.path.tuple_vars())
            .filter(|&(_, table)| table == candidate.table)
            .map(|(alias, _)| alias)
            .collect();
        if aliases.is_empty() {
            continue;
        }
        for v in &candidate.values {
            let filter = StepFilter {
                col: candidate.col,
                op: CmpOp::Eq,
                rhs: Rhs::Const(*v),
            };
            let decorated = aliases.iter().fold(t.path.clone(), |p, &alias| {
                p.decorated(alias, filter).expect("alias is on the path")
            });
            let support = cold_support(db, spec, &decorated);
            if support >= threshold {
                out.push((t.key.clone(), *v, support));
                break;
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The product's refinement output in [`cold_refine`]'s shape.
pub fn refined(decorated: &[DecoratedTemplate]) -> Vec<Refined> {
    let mut out: Vec<Refined> = decorated
        .iter()
        .map(|d| (d.base_key.clone(), d.pinned, d.support))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
