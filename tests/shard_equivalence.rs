//! The epoch-handle proof: a differential suite pitting [`ShardedEngine`]
//! (asked for 1, 2 and 4 shards, a count it ignores) against an oracle —
//! a plain `Database` the test mutates plus a cold `Engine::new` per
//! epoch (`common::Oracle`) — **byte for byte** across the whole audit
//! surface.
//!
//! Every test renders the full audit answer — per-query support and
//! explained row ids, the unexplained list, the recall/precision
//! confusion counts, the day-bucketed timeline, the misuse triage queue,
//! and per-patient portal reports — to one transcript string, and
//! asserts the handle's transcript equals the oracle's exactly:
//!
//! * under proptest-driven ingest/pin interleavings (random batch sizes,
//!   including empty batches), at every published epoch;
//! * for epochs pinned mid-run: their transcripts must not drift by a
//!   byte while later ingests publish;
//! * when every new row names one patient;
//! * under real reader/writer concurrency (the `tests/common` harness),
//!   where pinned epochs are re-rendered while a writer ingests.

mod common;

use common::{ingest_rows, oracle_transcript, sharded_transcript, AuditWorld};
use eba::relational::{EpochVec, ShardedEngine, Value};
use proptest::prelude::*;

/// Drives the oracle and one epoch handle through the same batch
/// sequence, comparing transcripts at every epoch and re-checking every
/// pinned epoch at the end (the mid-ingest pinning guarantee).
fn run_differential(world: &AuditWorld, n_shards: usize, batches: &[(usize, u64)]) {
    let mut oracle = world.oracle();
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), n_shards);

    let mut pinned: Vec<(std::sync::Arc<EpochVec>, String)> = Vec::new();
    let expect = oracle_transcript(world, &oracle);
    assert_eq!(
        sharded_transcript(world, &sharded.load()),
        expect,
        "{n_shards} shards diverged at the base epoch"
    );
    pinned.push((sharded.load(), expect));

    for (b, &(count, seed)) in batches.iter().enumerate() {
        // The oracle ingests the canonical batch; the handle gets the
        // exact same rows.
        let rows = oracle.ingest(|db| world.inject_batch(db, count, seed));
        ingest_rows(&sharded, &oracle.db, &rows);

        let vec = sharded.load();
        assert_eq!(vec.seq(), oracle.seq, "batch {b}");
        assert_eq!(vec.global_log_len(), oracle.log_len(), "batch {b}");
        let expect = oracle_transcript(world, &oracle);
        assert_eq!(
            sharded_transcript(world, &vec),
            expect,
            "{n_shards} shards diverged after batch {b} ({count} rows)"
        );
        pinned.push((vec, expect));
    }

    // Every epoch pinned mid-run still answers byte-identically — later
    // publications must not have touched it.
    for (i, (vec, expect)) in pinned.iter().enumerate() {
        assert_eq!(
            &sharded_transcript(world, vec),
            expect,
            "{n_shards} shards: the epoch pinned at epoch {i} drifted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential: random ingest sequences (sizes include
    /// 0 — an empty publication), every epoch and every mid-run pin
    /// byte-identical to the oracle whatever shard count is asked for.
    #[test]
    fn sharded_engine_matches_the_oracle_byte_for_byte(
        batches in prop::collection::vec((0usize..18, 0u64..1000), 1..4)
    ) {
        let world = AuditWorld::tiny(41);
        for n_shards in [1usize, 2, 4] {
            run_differential(&world, n_shards, &batches);
        }
    }
}

/// An epoch is *the* single engine: one database, row ids that are the
/// global ids, no special-casing anywhere on the read path.
#[test]
fn one_shard_is_the_single_engine() {
    let world = AuditWorld::tiny(43);
    run_differential(&world, 1, &[(12, 7), (0, 8), (5, 9)]);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), 4);
    let vec = sharded.load();
    assert_eq!(vec.shards().len(), 1);
    assert_eq!(vec.shards()[0].log_len(), vec.global_log_len());
    for g in [0u32, 1, (vec.global_log_len() - 1) as u32] {
        assert_eq!(vec.shards()[0].to_global(g), g);
    }
}

/// Skew torture: every ingested row names the same patient, so one start
/// group takes the whole stream — answers still match.
#[test]
fn all_new_rows_in_one_shard_still_match_the_oracle() {
    let world = AuditWorld::tiny(47);
    let mut oracle = world.oracle();
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), 4);
    let patient = world.patients[0];

    for round in 0..3u64 {
        let rows = oracle.ingest(|db| {
            // Hand-rolled skewed batch: distinct lids, one patient.
            let cols = &world.hospital.log_cols;
            let arity = db.table(world.spec.table).schema().arity();
            for i in 0..10u64 {
                let mut row = vec![Value::Null; arity];
                row[cols.lid] = Value::Int(1_000_000 + (round * 100 + i) as i64);
                row[cols.user] = world.users[(i as usize) % world.users.len()];
                row[cols.patient] = patient;
                row[cols.date] = Value::Date((1 + round as i64) * 24 * 60);
                db.insert(world.spec.table, row).expect("valid row");
            }
        });
        ingest_rows(&sharded, &oracle.db, &rows);

        let vec = sharded.load();
        assert_eq!(vec.global_log_len(), oracle.log_len());
        assert_eq!(
            sharded_transcript(&world, &vec),
            oracle_transcript(&world, &oracle),
            "skewed round {round} diverged"
        );
    }
}

/// The concurrency guarantee: reader threads pin epochs and re-render
/// them while a writer publishes — pinned transcripts must be
/// byte-stable, fresh loads must always see a fully published epoch (seq
/// and log length agree).
#[test]
fn pinned_vectors_are_byte_stable_under_concurrent_ingest() {
    let world = AuditWorld::tiny(59);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), 1);
    let mut oracle = world.oracle();
    let rounds = 4u64;
    let per_batch = 15usize;
    let base_len = world.hospital.log_len();

    // Pre-compute each epoch's oracle transcript so readers can check
    // whatever seq they observe without racing the oracle itself.
    let mut oracle_by_seq = vec![oracle_transcript(&world, &oracle)];
    let mut batches: Vec<Vec<Vec<Value>>> = Vec::new();
    for round in 0..rounds {
        batches.push(oracle.ingest(|db| world.inject_batch(db, per_batch, 0xC0 + round)));
        oracle_by_seq.push(oracle_transcript(&world, &oracle));
    }

    common::readers_vs_writer(
        3,
        |i, done| {
            let pinned = sharded.load();
            let first = sharded_transcript(&world, &pinned);
            assert_eq!(first, oracle_by_seq[pinned.seq() as usize]);
            common::reader_loop(done, |iter| {
                // The pin never drifts...
                assert_eq!(
                    sharded_transcript(&world, &pinned),
                    first,
                    "reader {i}: pinned epoch drifted at iteration {iter}"
                );
                // ...and every fresh load is a complete publication whose
                // transcript matches the oracle at the same seq.
                let vec = sharded.load();
                let seq = vec.seq() as usize;
                assert_eq!(
                    vec.global_log_len(),
                    base_len + seq * per_batch,
                    "torn epoch: seq and length disagree"
                );
                assert_eq!(
                    sharded_transcript(&world, &vec),
                    oracle_by_seq[seq],
                    "reader {i}: live epoch diverged from the oracle at seq {seq}"
                );
            });
        },
        || {
            for rows in &batches {
                ingest_rows(&sharded, &oracle.db, rows);
            }
        },
    );
    assert_eq!(sharded.seq(), rounds);
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_by_seq[rounds as usize]
    );
}
