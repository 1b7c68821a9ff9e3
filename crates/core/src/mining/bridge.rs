//! Bridged template mining (§3.3.1).
//!
//! Phase 1 runs two-way exploration up to partial-path length ℓ, retaining
//! every supported open path per length and direction. Phase 2 *bridges*:
//! a forward path of length ℓ and a backward path of length k share a
//! **bridge edge** when the forward path's last condition equals the
//! backward path's last condition; gluing them on that shared edge yields a
//! candidate template of length `ℓ + k − 1 ≤ 2ℓ − 1` whose support is then
//! verified directly. Because the start- and end-attribute constraints are
//! pushed down into both halves, far fewer candidates are tested than the
//! bottom-up algorithms would generate.
//!
//! For desired lengths `n ≥ 2ℓ` the halves no longer overlap; the paper
//! notes the algorithm "must consider all combinations of edges from the
//! schema to bridge these paths", which grows exponentially. We implement
//! the two tractable cases — a direct alias merge (`n = 2ℓ`) and a single
//! middle edge (`n = 2ℓ + 1`) — so `Bridge-2` can mine to length 5 as in
//! the paper's Figure 13. Configurations requiring `n > 2ℓ + 1` are
//! rejected.
//!
//! Like the bottom-up rounds, each gluing phase first *generates* its
//! whole candidate set and then evaluates it as one [`Ctx::supports_of`]
//! batch against the shared engine, preserving the sequential results and
//! counters exactly.

use crate::canonical::{canonical_key, CanonicalKey};
use crate::edge::EdgeSet;
use crate::log_spec::LogSpec;
use crate::mining::shared::{expand_frontier, finish, seed_frontier, Ctx};
use crate::mining::{MinedTemplate, MiningConfig, MiningResult};
use crate::path::{Direction, Path};
use eba_relational::{AttrRef, Database, Error, Result};
use std::collections::HashMap;
use std::time::Instant;

/// Mines templates with the bridging algorithm, using partial paths up to
/// length `ell` (the paper's `Bridge-ℓ`).
///
/// # Errors
/// Returns an error when `config.max_length > 2·ell + 1` (those lengths
/// would require exhaustive middle-edge enumeration) or `ell < 2`.
pub fn mine_bridge(
    db: &Database,
    spec: &LogSpec,
    config: &MiningConfig,
    ell: usize,
) -> Result<MiningResult> {
    if ell < 2 {
        return Err(Error::InvalidQuery(
            "bridging requires partial paths of length at least 2".into(),
        ));
    }
    if config.max_length > 2 * ell + 1 {
        return Err(Error::InvalidQuery(format!(
            "Bridge-{ell} covers template lengths up to {}, but max_length is {}",
            2 * ell + 1,
            config.max_length
        )));
    }

    let edges = EdgeSet::build(db);
    let mut ctx = Ctx::new(db, spec, config);
    let mut explanations: HashMap<CanonicalKey, MinedTemplate> = HashMap::new();

    // ---- Phase 1: two-way exploration to length ℓ, keeping every level.
    let explore_to = ell.min(config.max_length);
    let mut fwd_levels: Vec<Vec<Path>> = Vec::with_capacity(explore_to);
    let mut bwd_levels: Vec<Vec<Path>> = Vec::with_capacity(explore_to);
    fwd_levels.push(seed_frontier(&mut ctx, &edges, Direction::Forward));
    bwd_levels.push(seed_frontier(&mut ctx, &edges, Direction::Backward));
    for len in 1..explore_to {
        let fwd_next = expand_frontier(
            &mut ctx,
            &edges,
            &fwd_levels[len - 1],
            len,
            true,
            &mut explanations,
        );
        let bwd_next = expand_frontier(
            &mut ctx,
            &edges,
            &bwd_levels[len - 1],
            len,
            true,
            &mut explanations,
        );
        fwd_levels.push(fwd_next);
        bwd_levels.push(bwd_next);
    }

    // ---- Phase 2: bridge on a shared edge, lengths ℓ+1 ..= 2ℓ−1.
    let fwd_ell = fwd_levels.last().map(Vec::as_slice).unwrap_or(&[]);
    // Backward paths of length k, indexed by their last edge `(from, to)`.
    let index_by_last = |paths: &[Path]| -> HashMap<(AttrRef, AttrRef), Vec<Path>> {
        let mut idx: HashMap<(AttrRef, AttrRef), Vec<Path>> = HashMap::new();
        for p in paths {
            let last = *p.edges().last().expect("paths are never empty");
            idx.entry((last.from, last.to)).or_default().push(p.clone());
        }
        idx
    };

    for n in (ell + 1)..=config.max_length.min(2 * ell - 1) {
        let started = Instant::now();
        let k = n - ell + 1; // backward half length, 2 ≤ k ≤ ℓ
        let bwd_k = bwd_levels.get(k - 1).map(Vec::as_slice).unwrap_or(&[]);
        let idx = index_by_last(bwd_k);
        let mut batch: Vec<(Path, CanonicalKey)> = Vec::new();
        for f in fwd_ell {
            let last = *f.edges().last().expect("paths are never empty");
            // The bridge edge is shared: the backward path's last edge must
            // be the same condition traversed the other way.
            let Some(cands) = idx.get(&(last.to, last.from)) else {
                continue;
            };
            for b in cands {
                batch.extend(glue_candidate(&mut ctx, f, b, None, n));
            }
        }
        admit_batch(&mut ctx, &mut explanations, batch, n);
        ctx.stats.at(n).elapsed += started.elapsed();
    }

    // ---- Phase 3: alias merge (n = 2ℓ) and one middle edge (n = 2ℓ+1).
    let bwd_ell = bwd_levels.last().map(Vec::as_slice).unwrap_or(&[]);
    // Index the backward frontier by its tip table so each forward path
    // only meets compatible partners.
    let mut bwd_by_tip: HashMap<eba_relational::TableId, Vec<&Path>> = HashMap::new();
    for b in bwd_ell {
        bwd_by_tip.entry(b.tip().table).or_default().push(b);
    }
    if config.max_length >= 2 * ell {
        let n = 2 * ell;
        let started = Instant::now();
        let mut batch: Vec<(Path, CanonicalKey)> = Vec::new();
        for f in fwd_ell {
            if let Some(partners) = bwd_by_tip.get(&f.tip().table) {
                for b in partners {
                    batch.extend(glue_candidate(&mut ctx, f, b, None, n));
                }
            }
        }
        admit_batch(&mut ctx, &mut explanations, batch, n);
        ctx.stats.at(n).elapsed += started.elapsed();
    }
    if config.max_length > 2 * ell {
        let n = 2 * ell + 1;
        let started = Instant::now();
        let mut batch: Vec<(Path, CanonicalKey)> = Vec::new();
        for f in fwd_ell {
            for mid in edges.from_table(f.tip().table) {
                if let Some(partners) = bwd_by_tip.get(&mid.to.table) {
                    for b in partners {
                        batch.extend(glue_candidate(&mut ctx, f, b, Some(*mid), n));
                    }
                }
            }
        }
        admit_batch(&mut ctx, &mut explanations, batch, n);
        ctx.stats.at(n).elapsed += started.elapsed();
    }

    Ok(finish(ctx, explanations))
}

/// Glues a forward path, an optional middle edge, and a (reversed) backward
/// path into a candidate template of length `n`, returning it keyed for
/// batch evaluation (`None` when the gluing is structurally impossible or
/// the result violates the restrictions).
///
/// Without a middle edge the gluing mode depends on lengths: when
/// `n = f.len + b.len − 1` the two halves share their last edge (phase 2);
/// when `n = f.len + b.len` the tips merge into one tuple variable
/// (phase 3).
fn glue_candidate(
    ctx: &mut Ctx<'_>,
    fwd: &Path,
    bwd: &Path,
    middle: Option<crate::edge::Edge>,
    n: usize,
) -> Option<(Path, CanonicalKey)> {
    let shared_edge = middle.is_none() && n == fwd.length() + bwd.length() - 1;
    let mut path = fwd.clone();
    if let Some(mid) = middle {
        path = path.extended(mid).ok()?;
    }
    // Append the backward half reversed, skipping its last edge when it is
    // the shared bridge edge.
    let btake = if shared_edge {
        bwd.length() - 1
    } else {
        bwd.length()
    };
    for i in (1..btake).rev() {
        path = path.extended(bwd.edges()[i].reversed()).ok()?;
    }
    let closing = bwd.edges()[0].reversed();
    let closed = path.closed_by(closing, ctx.spec).ok()?;
    debug_assert_eq!(closed.length(), n, "bridged candidate length mismatch");
    if !closed.is_restricted(
        ctx.spec.table,
        ctx.config.max_length,
        ctx.config.max_tables,
        &ctx.config.exempt_tables,
    ) {
        return None;
    }
    ctx.stats.at(n).candidates += 1;
    let key = canonical_key(&closed, ctx.spec);
    Some((closed, key))
}

/// Evaluates one bridging round's glued candidates as a single batch
/// through [`Ctx::supports_of`] — the same shared-engine fan-out the
/// bottom-up rounds use — and admits them in generation order, exactly as
/// the one-at-a-time loop did.
fn admit_batch(
    ctx: &mut Ctx<'_>,
    explanations: &mut HashMap<CanonicalKey, MinedTemplate>,
    batch: Vec<(Path, CanonicalKey)>,
    n: usize,
) {
    let keyed: Vec<(&Path, &CanonicalKey)> = batch.iter().map(|(p, k)| (p, k)).collect();
    let supports = ctx.supports_of(&keyed, n);
    for ((path, key), support) in batch.into_iter().zip(supports) {
        if support >= ctx.threshold {
            explanations
                .entry(key.clone())
                .or_insert(MinedTemplate { path, support, key });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::mine_one_way;
    use eba_relational::{DataType, Value};

    fn figure3() -> (Database, LogSpec) {
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
        db.create_table(
            "Doctor_Info",
            &[("Doctor", DataType::Int), ("Department", DataType::Str)],
        )
        .unwrap();
        db.add_fk("Log", "Patient", "Appointments", "Patient")
            .unwrap();
        db.add_fk("Appointments", "Doctor", "Log", "User").unwrap();
        db.add_fk("Appointments", "Doctor", "Doctor_Info", "Doctor")
            .unwrap();
        db.add_fk("Doctor_Info", "Doctor", "Log", "User").unwrap();
        db.allow_self_join("Doctor_Info", "Department").unwrap();
        let ped = db.str_value("Pediatrics");
        let appt = db.table_id("Appointments").unwrap();
        let info = db.table_id("Doctor_Info").unwrap();
        let log = db.table_id("Log").unwrap();
        db.insert(appt, vec![Value::Int(10), Value::Date(1), Value::Int(1)])
            .unwrap();
        db.insert(appt, vec![Value::Int(11), Value::Date(2), Value::Int(2)])
            .unwrap();
        db.insert(info, vec![Value::Int(2), ped]).unwrap();
        db.insert(info, vec![Value::Int(1), ped]).unwrap();
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(1), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(2), Value::Int(1), Value::Int(11)],
        )
        .unwrap();
        let spec = LogSpec::conventional(&db).unwrap();
        (db, spec)
    }

    #[test]
    fn bridge_agrees_with_one_way_for_all_ells() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let reference = mine_one_way(&db, &spec, &config);
        for ell in [2, 3, 4] {
            let bridged = mine_bridge(&db, &spec, &config, ell).unwrap();
            assert_eq!(
                bridged.key_set(),
                reference.key_set(),
                "Bridge-{ell} differs from one-way"
            );
        }
    }

    #[test]
    fn template_b_is_found_by_bridging_example_3_3() {
        // Example 3.3: template (B) is created by bridging two length-3
        // partial paths on the department self-join condition.
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.9, // only (B) has 100% support
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let bridged = mine_bridge(&db, &spec, &config, 3).unwrap();
        assert!(bridged.of_length(4).next().is_some());
    }

    #[test]
    fn rejects_uncoverable_lengths() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            max_length: 6,
            ..MiningConfig::default()
        };
        assert!(mine_bridge(&db, &spec, &config, 2).is_err());
        let config = MiningConfig {
            max_length: 5,
            ..MiningConfig::default()
        };
        assert!(mine_bridge(&db, &spec, &config, 2).is_ok());
        assert!(mine_bridge(&db, &spec, &config, 1).is_err());
    }

    #[test]
    fn bridge_tests_fewer_candidates_than_two_way() {
        let (db, spec) = figure3();
        let config = MiningConfig {
            support_frac: 0.5,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        };
        let two = crate::mining::mine_two_way(&db, &spec, &config);
        let bridged = mine_bridge(&db, &spec, &config, 2).unwrap();
        let c_two: usize = two.stats.per_length.iter().map(|s| s.candidates).sum();
        let c_bridge: usize = bridged.stats.per_length.iter().map(|s| s.candidates).sum();
        assert!(
            c_bridge < c_two,
            "Bridge-2 candidates {c_bridge} ≥ two-way {c_two}"
        );
    }
}
