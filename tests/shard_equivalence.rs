//! The sharding proof: a differential suite pitting [`ShardedEngine`]
//! at shard counts {1, 2, 4} against an unsharded oracle — a plain
//! `Database` the test mutates plus a cold `Engine::new` per epoch
//! (`common::Oracle`) — **byte for byte** across the whole audit surface.
//!
//! Every test renders the full audit answer — per-query support and
//! explained global row ids, the unexplained list, the recall/precision
//! confusion counts, the day-bucketed timeline, the misuse triage queue,
//! and per-patient portal reports — to one transcript string, and
//! asserts the scatter-gather transcript equals the oracle's exactly:
//!
//! * under proptest-driven ingest/pin interleavings (random batch sizes,
//!   including empty batches), at every published epoch;
//! * for epoch vectors pinned mid-run: their transcripts must not drift
//!   by a byte while later ingests publish — the single-epoch pinning
//!   guarantee carried over to the vector;
//! * at the degenerate boundaries: shard count 1, every row hashed to
//!   one shard, and partitions with structurally empty shards;
//! * under real reader/writer concurrency (the `tests/common` harness),
//!   where pinned vectors are re-rendered while a writer ingests.

mod common;

use common::{ingest_rows, oracle_transcript, sharded_transcript, AuditWorld};
use eba::relational::{shard_of, EpochVec, ShardedEngine, Value};
use proptest::prelude::*;

/// Drives the oracle and one sharded engine through the same batch
/// sequence, comparing transcripts at every epoch and re-checking every
/// pinned vector at the end (the mid-ingest pinning guarantee).
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
        // The oracle ingests the canonical batch; the sharded engine gets
        // the exact same rows, routed by hash.
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

    // Every vector pinned mid-run still answers byte-identically — later
    // publications must not have touched a pinned shard epoch.
    for (i, (vec, expect)) in pinned.iter().enumerate() {
        assert_eq!(
            &sharded_transcript(world, vec),
            expect,
            "{n_shards} shards: the vector pinned at epoch {i} drifted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential: random ingest sequences (sizes include
    /// 0 — an empty publication), every epoch and every mid-run pin
    /// byte-identical to the oracle at shard counts 1, 2, and 4.
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

/// Shard count 1 is *the* single engine: same epochs, same answers, no
/// special-casing anywhere on the read path.
#[test]
fn one_shard_is_the_single_engine() {
    let world = AuditWorld::tiny(43);
    run_differential(&world, 1, &[(12, 7), (0, 8), (5, 9)]);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), 1);
    let vec = sharded.load();
    assert_eq!(vec.shard_count(), 1);
    assert_eq!(vec.shards()[0].log_len(), vec.global_log_len());
    // Global ids and local ids coincide.
    for g in [0u32, 1, (vec.global_log_len() - 1) as u32] {
        assert_eq!(vec.shards()[0].find_global(g), Some(g));
    }
}

/// Skew torture: every ingested row names the same patient, so one shard
/// takes the whole stream while the others idle — answers still match.
#[test]
fn all_new_rows_in_one_shard_still_match_the_oracle() {
    let world = AuditWorld::tiny(47);
    let mut oracle = world.oracle();
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), 4);
    let patient = world.patients[0];
    let shard_counts_before: Vec<usize> = sharded
        .load()
        .shards()
        .iter()
        .map(|s| s.log_len())
        .collect();
    let target = {
        let vec = sharded.load();
        shard_of(&patient, vec.shards()[0].db().pool(), vec.shard_count())
    };

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
        // All 30-so-far new rows landed on the patient's shard; every
        // other shard is exactly its base size.
        for (s, shard) in vec.shards().iter().enumerate() {
            let expected = shard_counts_before[s]
                + if s == target {
                    10 * (round as usize + 1)
                } else {
                    0
                };
            assert_eq!(shard.log_len(), expected, "shard {s} after round {round}");
        }
        assert_eq!(
            sharded_transcript(&world, &vec),
            oracle_transcript(&world, &oracle),
            "skewed round {round} diverged"
        );
    }
}

/// Structurally empty shards (more shards than occupied hash buckets)
/// scatter-gather cleanly: the empty shard contributes nothing and the
/// merged answers still match the oracle.
#[test]
fn empty_shards_answer_like_the_oracle() {
    let world = AuditWorld::tiny(53);
    // Find a shard count that leaves at least one shard empty for this
    // seed (guaranteed to exist once n exceeds the distinct patient
    // count; found much earlier in practice).
    let mut chosen = None;
    for n in 2..=128usize {
        let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), n);
        if sharded.load().shards().iter().any(|s| s.log_len() == 0) {
            chosen = Some((n, sharded));
            break;
        }
    }
    let (n, sharded) = chosen.expect("some shard count yields an empty shard");
    let mut oracle = world.oracle();
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_transcript(&world, &oracle),
        "{n} shards (with an empty shard) diverged at the base epoch"
    );

    // Ingest through the empty-shard layout and re-verify.
    let rows = oracle.ingest(|db| world.inject_batch(db, 20, 0xE0));
    ingest_rows(&sharded, &oracle.db, &rows);
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_transcript(&world, &oracle),
        "{n} shards (with an empty shard) diverged after ingest"
    );
}

/// The concurrency guarantee at the vector level: reader threads pin
/// epoch vectors and re-render them while a writer publishes — pinned
/// transcripts must be byte-stable, fresh loads must always see a fully
/// published vector (seq, global length, and per-shard lengths agree).
#[test]
fn pinned_vectors_are_byte_stable_under_concurrent_ingest() {
    let world = AuditWorld::tiny(59);
    let n_shards = common::test_shards().max(2);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), world.key(), n_shards);
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
                    "reader {i}: pinned vector drifted at iteration {iter}"
                );
                // ...and every fresh load is a complete publication whose
                // transcript matches the oracle at the same seq.
                let vec = sharded.load();
                let seq = vec.seq() as usize;
                assert_eq!(
                    vec.global_log_len(),
                    base_len + seq * per_batch,
                    "torn vector: seq and length disagree"
                );
                assert_eq!(
                    vec.shards().iter().map(|s| s.log_len()).sum::<usize>(),
                    vec.global_log_len(),
                    "torn vector: shard lengths disagree with the total"
                );
                assert_eq!(
                    sharded_transcript(&world, &vec),
                    oracle_by_seq[seq],
                    "reader {i}: live vector diverged from the oracle at seq {seq}"
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
