//! The durability proof: a differential kill-and-restart suite over the
//! segment pile.
//!
//! Every test drives the same deterministic ingest workload twice — once
//! into a purely in-memory oracle (`common::Oracle`: a plain database and
//! a cold engine per epoch) and once through a [`ShardedEngine`] whose
//! persist hook appends to a [`DurableStore`] —
//! then "crashes" (tears the store's media mid-write with [`FaultAfter`],
//! or just drops the store), "restarts" (re-opens the surviving bytes),
//! replays the recovered batches one publication at a time, and asserts
//! **byte-identical** audit answers (the full `tests/common` transcript:
//! per-query rows and support, residue, confusion counts, timeline,
//! triage queue, portal reports) for every surviving epoch against the
//! oracle's transcript of the same epoch.
//!
//! The contract under test, for every torn byte budget:
//!
//! * recovery never panics and never fails on a torn tail — it truncates
//!   to the last valid record and reports what it dropped;
//! * the recovered batches are a **prefix** of the batches sent (no holes,
//!   no reordering, no invented rows);
//! * under [`Durability::Strict`] that prefix covers every batch whose
//!   append was acknowledged — a crash loses only unacknowledged work;
//! * replaying the prefix reproduces the oracle's answers bit for bit.
//!
//! A separate corruption matrix feeds the opener truncated, bit-flipped,
//! zero-length, future-versioned, and alien files: each lands in a typed
//! error or a clean truncate-and-report, never a panic.

mod common;

use common::{ingest_rows, oracle_transcript, sharded_transcript, stage_rows, AuditWorld};
use eba::relational::pile::{default_checkpoint_rows, plain_batch, replay_into};
use eba::relational::{
    Batch, Durability, DurableStore, FaultAfter, Media, PileError, PlainValue, ShardedEngine,
    SharedMem,
};
use std::path::PathBuf;

const BATCHES: usize = 6;
const BATCH_ROWS: usize = 3;
/// Small enough that the six-batch workload checkpoints several times, so
/// the byte-budget sweep tears pile records as well as WAL records.
const CHECKPOINT_ROWS: usize = 4;

// ---------------------------------------------------------------- harness

/// The engine under test: the one epoch handle, at the CI shard count.
fn subject(world: &AuditWorld) -> ShardedEngine {
    ShardedEngine::new(world.hospital.db.clone(), world.key(), 1)
}

/// Seed for batch `b` — shared by the oracle and the durable run so both
/// ingest identical rows.
fn batch_seed(b: usize) -> u64 {
    0xFA11 + b as u64
}

/// The oracle: apply every batch to a plain database and record the
/// transcript after each. `out[k]` is the answer after `k` batches
/// (`out[0]` is the base epoch).
fn oracle_transcripts(world: &AuditWorld) -> Vec<String> {
    let mut oracle = world.oracle();
    let mut out = vec![oracle_transcript(world, &oracle)];
    for b in 0..BATCHES {
        oracle.ingest(|db| world.inject_batch(db, BATCH_ROWS, batch_seed(b)));
        out.push(oracle_transcript(world, &oracle));
    }
    out
}

/// Ingests the workload through an engine whose persist hook appends to a
/// [`DurableStore`] over the given media, stopping at the first error —
/// the simulated crash. Returns how many batches were acknowledged
/// (persisted *and* published). With a torn media budget this can be
/// anything from 0 to [`BATCHES`].
fn durable_run(
    world: &AuditWorld,
    pile_media: Box<dyn Media>,
    wal_media: Box<dyn Media>,
    policy: Durability,
) -> usize {
    let Ok((mut store, recovered, _)) =
        DurableStore::open_on(pile_media, wal_media, "sweep", policy, CHECKPOINT_ROWS)
    else {
        return 0; // the tear hit the file headers — nothing was ever acked
    };
    assert!(recovered.is_empty(), "the sweep starts from empty media");
    let live = subject(world);
    // The canonical rows of each batch, generated exactly as the oracle's.
    let mut feed = world.oracle();
    let mut acked = 0;
    for b in 0..BATCHES {
        let rows = feed.ingest(|db| world.inject_batch(db, BATCH_ROWS, batch_seed(b)));
        let result = live.ingest_with(
            |batch| {
                let first = batch.global_log_len() as u64;
                (first, stage_rows(batch, &feed.db, &rows))
            },
            |batch, (first, staged), seq| {
                let db = batch.db(0);
                let name = &db.table(world.spec.table).schema().name;
                store.append(plain_batch(db, seq, name, *first, staged))
            },
        );
        match result {
            Ok(_) => acked += 1,
            Err(_) => {
                // Crash: the engine published nothing for this batch.
                assert_eq!(live.seq(), acked as u64);
                break;
            }
        }
    }
    acked
}

/// The restart: re-open the surviving bytes (no fault injection — the
/// crash already happened), replay the recovered batches one publication
/// at a time, and return the per-epoch transcripts plus how many batches
/// recovery produced.
fn recover_and_replay(
    world: &AuditWorld,
    pile: &SharedMem,
    wal: &SharedMem,
) -> (Vec<String>, usize) {
    let (_store, batches, report) = DurableStore::open_on(
        Box::new(pile.clone()),
        Box::new(wal.clone()),
        "restart",
        Durability::Strict,
        CHECKPOINT_ROWS,
    )
    .expect("recovery tolerates torn tails; it must not fail");
    assert_eq!(report.batches(), batches.len(), "{}", report.summary());
    let live = subject(world);
    let mut replayed = world.oracle();
    let mut transcripts = vec![sharded_transcript(world, &live.load())];
    for batch in &batches {
        let rows = replayed.ingest(|db| {
            replay_into(db, std::slice::from_ref(batch)).expect("recovered batches replay");
        });
        ingest_rows(&live, &replayed.db, &rows);
        transcripts.push(sharded_transcript(world, &live.load()));
    }
    (transcripts, batches.len())
}

// ------------------------------------------------- the differential sweep

/// Clean shutdown first: the untorn store recovers everything and the
/// replayed engine answers byte-identically to the oracle at every epoch.
#[test]
fn clean_restart_reproduces_every_epoch_byte_identically() {
    let world = AuditWorld::tiny(11);
    let oracle = oracle_transcripts(&world);
    let (pile, wal) = (SharedMem::new(), SharedMem::new());
    let acked = durable_run(
        &world,
        Box::new(pile.clone()),
        Box::new(wal.clone()),
        Durability::Strict,
    );
    assert_eq!(acked, BATCHES, "no faults: every batch is acknowledged");

    let (transcripts, recovered) = recover_and_replay(&world, &pile, &wal);
    assert_eq!(recovered, BATCHES);
    assert_eq!(
        transcripts, oracle,
        "every recovered epoch answers exactly like the oracle"
    );
}

/// The headline fault-injection sweep: tear the media at byte budgets
/// spanning the whole write history. For every tear point, restart and
/// assert the prefix + acknowledged-durability + byte-identity contract.
#[test]
fn torn_writes_recover_an_acknowledged_prefix_with_identical_answers() {
    let world = AuditWorld::tiny(11);
    let oracle = oracle_transcripts(&world);

    // Size the sweep from an untorn run's footprint.
    let (pile, wal) = (SharedMem::new(), SharedMem::new());
    durable_run(
        &world,
        Box::new(pile.clone()),
        Box::new(wal.clone()),
        Durability::Strict,
    );
    let footprint = (pile.bytes().len() + wal.bytes().len()) as u64;
    assert!(footprint > 0);

    let sweep: Vec<u64> = (0..32)
        .map(|i| footprint * i / 31)
        .chain([1, 7, 13, 12, 24]) // header-sized and mid-header tears
        .collect();
    let mut partial_recoveries = 0usize;
    for budget in sweep {
        let (pile, wal) = (SharedMem::new(), SharedMem::new());
        // Each file gets its own budget: WAL tears exercise the per-batch
        // path, pile tears the checkpoint path, small budgets the headers.
        let acked = durable_run(
            &world,
            Box::new(FaultAfter::new(pile.clone(), budget)),
            Box::new(FaultAfter::new(wal.clone(), budget)),
            Durability::Strict,
        );
        let (transcripts, recovered) = recover_and_replay(&world, &pile, &wal);

        // Strict policy: an acknowledged batch is on disk before the
        // reply, so recovery covers at least the acked prefix. (It may
        // cover more: a record can land fully and only its fsync fail.)
        assert!(
            recovered >= acked,
            "budget {budget}: acked {acked} batches but recovered only {recovered}"
        );
        assert!(recovered <= BATCHES, "budget {budget}: invented batches");
        assert_eq!(
            transcripts,
            oracle[..=recovered],
            "budget {budget}: recovered epochs must answer like the oracle prefix"
        );
        if recovered < BATCHES {
            partial_recoveries += 1;
        }
    }
    assert!(
        partial_recoveries > 0,
        "the sweep never produced a torn state — budgets are miscalibrated"
    );
}

/// Relaxed fsync weakens *which* prefix survives (acknowledged batches in
/// the un-checkpointed tail may be lost), but never the prefix property
/// itself: whatever is recovered still answers byte-identically.
#[test]
fn relaxed_policy_still_recovers_a_consistent_prefix() {
    let world = AuditWorld::tiny(23);
    let oracle = oracle_transcripts(&world);
    let (pile, wal) = (SharedMem::new(), SharedMem::new());
    durable_run(
        &world,
        Box::new(pile.clone()),
        Box::new(wal.clone()),
        Durability::Relaxed,
    );
    let footprint = (pile.bytes().len() + wal.bytes().len()) as u64;
    for budget in [footprint / 5, footprint / 2, footprint - 9] {
        let (pile, wal) = (SharedMem::new(), SharedMem::new());
        durable_run(
            &world,
            Box::new(FaultAfter::new(pile.clone(), budget)),
            Box::new(FaultAfter::new(wal.clone(), budget)),
            Durability::Relaxed,
        );
        let (transcripts, recovered) = recover_and_replay(&world, &pile, &wal);
        assert!(recovered <= BATCHES);
        assert_eq!(
            transcripts,
            oracle[..=recovered],
            "budget {budget}: relaxed recovery still yields an exact oracle prefix"
        );
    }
}

// ------------------------------------------------- the corruption matrix

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eba-recovery-{name}-{}", std::process::id()))
}

/// Removes the pile and its WAL sidecar if a previous run left them.
fn clean(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(DurableStore::wal_path(path));
}

/// Writes `n` small single-table batches through a store on real files,
/// then drops it (simulating a kill between syscalls is the sweep's job —
/// here we corrupt the bytes by hand afterwards).
fn seed_store(path: &PathBuf, n: usize) {
    clean(path);
    let (mut store, _, _) =
        DurableStore::open(path, Durability::Strict, default_checkpoint_rows()).unwrap();
    for b in 0..n as u64 {
        store
            .append(Batch {
                seq: b + 1,
                table: "Log".into(),
                first_row: b * 2,
                rows: vec![
                    vec![PlainValue::Int(b as i64), PlainValue::Str(format!("u{b}"))],
                    vec![PlainValue::Int(-1), PlainValue::Null],
                ],
            })
            .unwrap();
    }
}

#[test]
fn truncated_wal_recovers_the_prefix_and_reports_the_drop() {
    let path = scratch("truncated-wal");
    seed_store(&path, 4);
    let wal = DurableStore::wal_path(&path);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let (_, batches, report) =
        DurableStore::open(&path, Durability::Strict, default_checkpoint_rows()).unwrap();
    assert_eq!(batches.len(), 3, "the torn fourth record is dropped");
    assert!(report.wal_truncated_bytes > 0, "{}", report.summary());
    assert!(report.lost_data(), "the drop is reported, not silent");
    clean(&path);
}

#[test]
fn bit_flipped_record_truncates_at_the_corruption_and_reports_it() {
    let path = scratch("bit-flip");
    seed_store(&path, 4);
    let wal = DurableStore::wal_path(&path);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip one payload bit in the third record's region (past the 12-byte
    // header and two ~40-byte records), far from the frame lengths.
    let at = bytes.len() - 20;
    bytes[at] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let (_, batches, report) =
        DurableStore::open(&path, Durability::Strict, default_checkpoint_rows()).unwrap();
    assert!(
        batches.len() < 4,
        "the corrupted record and everything after it are dropped"
    );
    assert!(report.lost_data(), "{}", report.summary());
    // The survivors are still the exact prefix.
    for (i, b) in batches.iter().enumerate() {
        assert_eq!(b.first_row, i as u64 * 2);
    }
    clean(&path);
}

#[test]
fn zero_length_files_open_as_an_empty_store() {
    let path = scratch("zero-len");
    clean(&path);
    std::fs::write(&path, b"").unwrap();
    std::fs::write(DurableStore::wal_path(&path), b"").unwrap();
    let (store, batches, report) =
        DurableStore::open(&path, Durability::Strict, default_checkpoint_rows()).unwrap();
    assert!(batches.is_empty());
    assert!(!report.lost_data());
    drop(store);
    clean(&path);
}

#[test]
fn future_format_version_is_a_typed_error_not_a_panic() {
    let path = scratch("future-version");
    clean(&path);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"EBAPILE1");
    bytes.extend_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = DurableStore::open(&path, Durability::Strict, default_checkpoint_rows())
        .err()
        .expect("a future format version must refuse to open");
    match err {
        PileError::UnsupportedVersion {
            found, supported, ..
        } => {
            assert_eq!(found, 99);
            assert_eq!(supported, 1);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
    clean(&path);
}

#[test]
fn alien_file_is_rejected_as_not_a_store() {
    let path = scratch("alien");
    clean(&path);
    std::fs::write(&path, b"#!/bin/sh\necho this is not a pile\n").unwrap();
    let err = DurableStore::open(&path, Durability::Strict, default_checkpoint_rows())
        .err()
        .expect("an alien file must refuse to open");
    assert!(
        matches!(err, PileError::NotAStore { .. }),
        "expected NotAStore, got {err}"
    );
    clean(&path);
}

#[test]
fn crc_valid_garbage_payload_is_a_typed_corruption_error() {
    let path = scratch("crc-valid-garbage");
    clean(&path);
    // A frame whose CRC checks out but whose payload is not a batch: the
    // scanner accepts the record, the decoder must refuse with `Corrupt`
    // (truncating would hide an encoder bug, not a crash).
    let payload = b"\x01garbage that is not a batch encoding";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"EBAPILE1");
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&eba::relational::wal::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    std::fs::write(&path, &bytes).unwrap();
    let err = DurableStore::open(&path, Durability::Strict, default_checkpoint_rows())
        .err()
        .expect("an undecodable CRC-valid record must be a typed error");
    assert!(
        matches!(err, PileError::Corrupt { .. }),
        "expected Corrupt, got {err}"
    );
    clean(&path);
}

// -------------------------------------------- real files, real service

/// The same differential restart check through the public service layer
/// and the on-disk files the CLI uses: ingest through
/// [`eba::server::AuditService`], drop it, restart over the same pile,
/// and compare the full transcript with a never-restarted oracle service.
#[test]
fn durable_service_restart_matches_a_never_restarted_oracle() {
    use eba::server::protocol::IngestRow;
    use eba::server::AuditService;

    let path = scratch("service");
    clean(&path);
    let rows = |base: i64| -> Vec<IngestRow> {
        (0..3)
            .map(|i| IngestRow {
                user: 1 + (base + i) % 7,
                patient: 1 + (base * 3 + i) % 11,
                day: Some(1 + (base + i) % 5),
            })
            .collect()
    };

    // Oracle: one service, never restarted.
    let world = AuditWorld::tiny(31);
    let oracle = AuditService::from_hospital_sharded(
        eba::synth::Hospital::generate(eba::synth::SynthConfig {
            seed: 31,
            ..eba::synth::SynthConfig::tiny()
        }),
        1,
    );
    for b in 0..4 {
        oracle.ingest_rows(&rows(b)).unwrap();
    }

    // Durable twin: restart after every ingest.
    for b in 0..4 {
        let h = eba::synth::Hospital::generate(eba::synth::SynthConfig {
            seed: 31,
            ..eba::synth::SynthConfig::tiny()
        });
        let svc =
            AuditService::from_hospital_durable_sharded(h, &path, Durability::Strict, 1).unwrap();
        assert!(!svc.recovery_report().unwrap().lost_data());
        svc.ingest_rows(&rows(b)).unwrap();
    }
    let h = eba::synth::Hospital::generate(eba::synth::SynthConfig {
        seed: 31,
        ..eba::synth::SynthConfig::tiny()
    });
    let survivor =
        AuditService::from_hospital_durable_sharded(h, &path, Durability::Strict, 1).unwrap();
    assert_eq!(survivor.recovery_report().unwrap().batches(), 4);

    let oracle_answers = sharded_transcript(&world, &oracle.sharded().load());
    assert_eq!(
        sharded_transcript(&world, &survivor.sharded().load()),
        oracle_answers,
        "a service restarted after every batch answers exactly like one that never died"
    );

    // The shard count a caller asks for is ignored: reopening the same
    // bytes with another count recovers the same acknowledged history and
    // the same answers.
    for n in [2, 5] {
        let h = eba::synth::Hospital::generate(eba::synth::SynthConfig {
            seed: 31,
            ..eba::synth::SynthConfig::tiny()
        });
        let resharded =
            AuditService::from_hospital_durable_sharded(h, &path, Durability::Strict, n).unwrap();
        let report = resharded.recovery_report().unwrap();
        assert_eq!(report.batches(), 4, "{n} shards");
        assert_eq!(
            sharded_transcript(&world, &resharded.sharded().load()),
            oracle_answers,
            "reopening at {n} shards changed the recovered answers"
        );
    }
    clean(&path);
}
