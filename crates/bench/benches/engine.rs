//! Relational-substrate microbenchmarks: the support query
//! (`COUNT(DISTINCT Log.Lid)` over a path) through both the per-query row
//! evaluator and the interned/cached engine, batch evaluation, instance
//! enumeration, and the estimator that powers the skip optimization.

use eba_bench::bench_config;
use eba_bench::harness::{criterion_group, criterion_main, Criterion};
use eba_core::{mine_one_way, MiningConfig};
use eba_experiments::Scenario;
use eba_relational::{estimate_support, ChainQuery, Engine, EvalOptions};

fn engine_benches(c: &mut Criterion) {
    let scenario = Scenario::build(bench_config());
    let db = &scenario.hospital.db;
    let spec = &scenario.spec;

    let short = scenario.handcrafted.appt_with_dr.path.to_chain_query(spec);
    let long = eba_audit::handcrafted::same_group(
        db,
        spec,
        eba_audit::handcrafted::EventTable::Appointments,
        Some(1),
    )
    .expect("groups installed")
    .path
    .to_chain_query(spec);
    let repeat = scenario.handcrafted.repeat_access.path.to_chain_query(spec);
    let engine = Engine::new(db);

    // A realistic shared-step candidate batch: the mined template set.
    let mined = mine_one_way(
        db,
        spec,
        &MiningConfig {
            support_frac: 0.01,
            max_length: 4,
            max_tables: 3,
            ..MiningConfig::default()
        },
    );
    let batch: Vec<ChainQuery> = mined
        .templates
        .iter()
        .map(|t| t.path.to_chain_query(spec))
        .collect();

    let mut group = c.benchmark_group("engine");
    group.bench_function("support_len2_appt", |b| {
        b.iter(|| short.support(db, EvalOptions::default()).expect("valid"))
    });
    group.bench_function("support_len2_appt_engine", |b| {
        b.iter(|| {
            engine
                .support_many(db, std::slice::from_ref(&short), EvalOptions::default())
                .remove(0)
                .expect("valid")
        })
    });
    group.bench_function("support_len4_group", |b| {
        b.iter(|| long.support(db, EvalOptions::default()).expect("valid"))
    });
    group.bench_function("support_len4_group_engine", |b| {
        b.iter(|| {
            engine
                .support_many(db, std::slice::from_ref(&long), EvalOptions::default())
                .remove(0)
                .expect("valid")
        })
    });
    group.bench_function("support_decorated_repeat", |b| {
        b.iter(|| repeat.support(db, EvalOptions::default()).expect("valid"))
    });
    group.bench_function("support_len2_no_dedup", |b| {
        b.iter(|| {
            short
                .support(db, EvalOptions { dedup: false })
                .expect("valid")
        })
    });
    group.bench_function("support_many_mined_seed", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|q| q.support(db, EvalOptions::default()).expect("valid"))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("support_many_mined_engine", |b| {
        b.iter(|| engine.support_many(db, &batch, EvalOptions::default()))
    });
    group.bench_function("engine_cold_snapshot", |b| b.iter(|| Engine::new(db)));
    group.bench_function("estimate_len4_group", |b| {
        b.iter(|| estimate_support(db, &long))
    });
    group.bench_function("instances_one_row", |b| {
        b.iter(|| short.instances(db, 0, 8).expect("valid"))
    });
    group.finish();
}

criterion_group!(benches, engine_benches);
criterion_main!(benches);
