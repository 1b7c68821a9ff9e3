//! §5.3.3's key claim, as an integration test on realistic data: the
//! one-way, two-way, and bridged algorithms produce the same template set.

use eba::audit::split;
use eba::core::{mine_bridge, mine_one_way, mine_two_way, LogSpec, MiningConfig};
use eba::experiments::Scenario;
use eba::synth::SynthConfig;

fn scenario() -> Scenario {
    Scenario::build(SynthConfig::tiny())
}

fn base_config() -> MiningConfig {
    MiningConfig {
        support_frac: 0.01,
        max_length: 4,
        max_tables: 3,
        ..MiningConfig::default()
    }
}

#[test]
fn all_algorithms_agree_on_synthetic_hospital() {
    let s = scenario();
    let spec = s.train_spec();
    let config = base_config();
    let one = mine_one_way(&s.hospital.db, &spec, &config);
    let two = mine_two_way(&s.hospital.db, &spec, &config);
    assert_eq!(one.key_set(), two.key_set(), "one-way vs two-way");
    for ell in [2, 3, 4] {
        let bridged = mine_bridge(&s.hospital.db, &spec, &config, ell).unwrap();
        assert_eq!(one.key_set(), bridged.key_set(), "one-way vs bridge-{ell}");
    }
    assert!(!one.templates.is_empty());
}

#[test]
fn supports_agree_across_algorithms() {
    let s = scenario();
    let spec = s.train_spec();
    let config = base_config();
    let one = mine_one_way(&s.hospital.db, &spec, &config);
    let bridged = mine_bridge(&s.hospital.db, &spec, &config, 3).unwrap();
    let by_key: std::collections::HashMap<_, _> = bridged
        .templates
        .iter()
        .map(|t| (t.key.clone(), t.support))
        .collect();
    for t in &one.templates {
        assert_eq!(
            by_key.get(&t.key),
            Some(&t.support),
            "support mismatch for {:?}",
            t.key
        );
    }
}

#[test]
fn cache_shrinks_support_queries() {
    // Every candidate the estimator does not skip is either evaluated or
    // answered from the canonical-form cache, so each hit is one
    // evaluation saved. The cache pays off when the same selection-
    // condition set is reached along different traversal orders: in
    // two-way mining the forward and backward frontiers rediscover every
    // closed template, and bridging glues the same template from several
    // splits (one-way chains each shape once).
    let s = scenario();
    let spec = s.train_spec();
    let config = base_config();
    let runs = [
        ("two-way", mine_two_way(&s.hospital.db, &spec, &config)),
        (
            "bridge-3",
            mine_bridge(&s.hospital.db, &spec, &config, 3).unwrap(),
        ),
    ];
    for (name, r) in runs {
        let due: usize = r
            .stats
            .per_length
            .iter()
            .map(|l| l.candidates - l.skipped)
            .sum();
        assert_eq!(
            r.stats.support_queries() + r.stats.cache_hits(),
            due,
            "{name}: every unskipped candidate is evaluated or a cache hit"
        );
        assert!(r.stats.cache_hits() > 0, "{name}: no cache hits");
    }
}

#[test]
fn skip_optimization_defers_nonselective_paths() {
    let s = scenario();
    let spec = s.train_spec();
    let with_skip = mine_one_way(&s.hospital.db, &spec, &base_config());
    let skipped: usize = with_skip.stats.per_length.iter().map(|l| l.skipped).sum();
    assert!(skipped > 0, "expected some paths to be skipped");
}

#[test]
fn threshold_monotonicity_of_results() {
    // Raising the support threshold can only shrink the mined set.
    let s = scenario();
    let spec = s.train_spec();
    let loose = mine_one_way(&s.hospital.db, &spec, &base_config());
    let strict = mine_one_way(
        &s.hospital.db,
        &spec,
        &MiningConfig {
            support_frac: 0.10,
            ..base_config()
        },
    );
    assert!(strict.templates.len() <= loose.templates.len());
    let loose_keys = loose.key_set();
    for key in strict.key_set() {
        assert!(loose_keys.contains(&key), "strict set must be a subset");
    }
}

#[test]
fn longer_limits_extend_results_monotonically() {
    let s = scenario();
    let spec = s.train_spec();
    let short = mine_one_way(
        &s.hospital.db,
        &spec,
        &MiningConfig {
            max_length: 2,
            ..base_config()
        },
    );
    let long = mine_one_way(
        &s.hospital.db,
        &spec,
        &MiningConfig {
            max_length: 4,
            ..base_config()
        },
    );
    let long_keys = long.key_set();
    for key in short.key_set() {
        assert!(long_keys.contains(&key), "length-2 set must be contained");
    }
    assert!(long.templates.len() >= short.templates.len());
}

#[test]
fn mining_spec_filters_change_the_denominator() {
    let s = scenario();
    let all: LogSpec = s.spec.clone();
    let day1 = s
        .spec
        .with_filters(split::days_first(&s.hospital.log_cols, 1, 1));
    let r_all = mine_one_way(&s.hospital.db, &all, &base_config());
    let r_day1 = mine_one_way(&s.hospital.db, &day1, &base_config());
    assert!(r_day1.anchor_lids < r_all.anchor_lids);
    assert!(r_day1.threshold <= r_all.threshold);
}
