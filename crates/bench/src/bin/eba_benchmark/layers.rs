//! The traced run: the wire phases once untraced and once with a
//! client-side span per request (one round's worth each, on a fresh
//! deployment, so the log grows exactly as it does in a round), then a
//! *layer replay* of the identical batches and read commands against
//! in-process twins — `Session::handle`, `AuditService::ingest_rows`, a
//! bare `ShardedEngine::ingest_with` with timed closures — and probes of
//! `Engine`, `RowSet`, `Database` and `DurableStore` on the epoch the
//! replay published. Every number here is timed from the benchmark,
//! around public calls; spans inside the product are a later change.

use crate::load::Inputs;
use crate::run::{
    check_mining, deploy, make_service, mine_job, pile_bytes, run_phases, wire_series, MetricSet,
    RunArgs, WireSeries, RUN_DIR,
};
use crate::spec::Workload;
use crate::stats::{median, summarize};
use crate::trace::{layer_table, spans_json, SpanId, Tracer};
use crate::wire::{next_cursor, Checks, ReadKind, WireOutcome, PAGE_ROWS};
use eba_audit::handcrafted::HandcraftedTemplates;
use eba_audit::Explainer;
use eba_core::LogSpec;
use eba_experiments::Scenario;
use eba_relational::pile::{self, DurableStore};
use eba_relational::{
    segment, Database, Durability, Engine, PileError, RowSet, ShardKey, ShardedBatch,
    ShardedEngine, SuitePin, Value,
};
use eba_server::{Command, IngestRow, Response, Session, SubscriptionKind};
use eba_synth::{Hospital, LogColumns};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Replayed read commands per kind: the cheap ones are plentiful, a
/// report costs up to a second on the large logs.
const REPLAY_READS: usize = 300;
const REPLAY_REPORTS: usize = 8;

use crate::run::elapsed_ms as ms;

fn us(t: Instant) -> f64 {
    ms(t) * 1e3
}

/// Median of `n` timings of `f`, in µs.
fn timed_us<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            us(t)
        })
        .collect();
    median(&samples)
}

/// The service's pieces, assembled the way `from_hospital_sharded` does,
/// for the twins that drive `ShardedEngine` and `Engine` directly.
struct Parts {
    db: Database,
    spec: LogSpec,
    cols: LogColumns,
    suite: SuitePin,
}

fn parts(h: Hospital) -> Result<Parts, String> {
    let spec = LogSpec::conventional(&h.db).map_err(|e| e.to_string())?;
    let templates = HandcraftedTemplates::build(&h.db, &spec).map_err(|e| e.to_string())?;
    let explainer = Explainer::new(templates.all().into_iter().cloned().collect());
    Ok(Parts {
        suite: explainer.suite_pin(&spec),
        cols: h.log_cols,
        db: h.db,
        spec,
    })
}

/// The writer-side bookkeeping `AuditService` keeps between batches.
struct Lids {
    next: i64,
    seen: HashSet<(i64, i64)>,
}

impl Lids {
    fn scan(p: &Parts) -> Lids {
        let mut lids = Lids {
            next: 1,
            seen: HashSet::new(),
        };
        for (_, row) in p.db.table(p.spec.table).iter() {
            if let Value::Int(l) = row[p.cols.lid] {
                lids.next = lids.next.max(l + 1);
            }
            if let (Value::Int(u), Value::Int(pt)) = (row[p.cols.user], row[p.cols.patient]) {
                lids.seen.insert((u, pt));
            }
        }
        lids
    }

    /// Materializes a batch the way `AuditService::ingest_rows` does:
    /// fresh consecutive lids, midnight-of-day dates, `IsFirst` against
    /// the pairs seen so far. The service does this inside its private
    /// ingest closure and offers no function for it, and the bare twin
    /// exists to time `ShardedEngine::ingest_with` without the service,
    /// so the few lines are repeated here.
    fn materialize(
        &mut self,
        rows: &[IngestRow],
        cols: &LogColumns,
        arity: usize,
        action: Value,
    ) -> Vec<Vec<Value>> {
        let staged = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let is_first = self.seen.insert((r.user, r.patient));
                let mut row = vec![Value::Null; arity];
                row[cols.lid] = Value::Int(self.next + i as i64);
                row[cols.user] = Value::Int(r.user);
                row[cols.patient] = Value::Int(r.patient);
                row[cols.action] = action;
                row[cols.is_first] = Value::Int(i64::from(is_first));
                (row[cols.day], row[cols.date]) = match r.day {
                    Some(d) => (Value::Int(d), Value::Date(d.max(0) * 24 * 60)),
                    None => (Value::Null, Value::Date(0)),
                };
                row
            })
            .collect();
        self.next += rows.len() as i64;
        staged
    }
}

/// A bare `ShardedEngine` twin: what `AuditService` holds, minus the
/// service.
struct Bare {
    sharded: ShardedEngine,
    lids: Lids,
    new_ms: f64,
    pin_ms: Option<f64>,
}

fn bare(p: &Parts, shards: usize, pinned: bool) -> Bare {
    let lids = Lids::scan(p);
    let key = ShardKey {
        table: p.spec.table,
        col: p.spec.patient_col,
    };
    let t = Instant::now();
    let sharded = ShardedEngine::new(p.db.clone(), key, shards);
    let new_ms = ms(t);
    let pin_ms = pinned.then(|| {
        let t = Instant::now();
        sharded.pin_suite(p.suite.clone());
        ms(t)
    });
    Bare {
        sharded,
        lids,
        new_ms,
        pin_ms,
    }
}

/// One timed `ingest_with` on a bare twin.
struct BareIngest {
    total_ms: f64,
    /// Offset and length of the mutate closure within the call.
    mutate: (f64, f64),
    /// Offset and length of the persist closure (0 when nothing persists).
    persist: (f64, f64),
    stale_partitions: usize,
    first_row: u64,
    staged: Vec<Vec<Value>>,
    seq: u64,
}

fn bare_ingest(
    twin: &mut Bare,
    p: &Parts,
    rows: &[IngestRow],
    store: Option<&mut DurableStore>,
) -> Result<BareIngest, PileError> {
    let lids = &mut twin.lids;
    let table_name = p.db.table(p.spec.table).schema().name.clone();
    let mut persist = (0.0, 0.0);
    let t = Instant::now();
    let ((first_row, staged, mutate), report) = twin.sharded.ingest_with(
        |batch: &mut ShardedBatch| {
            let at = ms(t);
            let arity = batch.db(0).table(p.spec.table).schema().arity();
            let first_row = batch.global_log_len() as u64;
            let action = batch.str_value("view");
            let staged = lids.materialize(rows, &p.cols, arity, action);
            for row in &staged {
                batch
                    .insert_log(row.clone())
                    .expect("a materialized row matches the log schema");
            }
            (first_row, staged, (at, ms(t) - at))
        },
        |batch, (first_row, staged, _), seq| {
            let at = ms(t);
            if let Some(store) = store {
                store.append(pile::plain_batch(
                    batch.db(0),
                    seq,
                    &table_name,
                    *first_row,
                    staged,
                ))?;
            }
            persist = (at, ms(t) - at);
            Ok::<(), PileError>(())
        },
    )?;
    Ok(BareIngest {
        total_ms: ms(t),
        mutate,
        persist,
        stale_partitions: report
            .shards
            .iter()
            .map(|s| s.refresh.stale_partitions)
            .sum(),
        first_row,
        staged,
        seq: report.seq,
    })
}

/// Samples gathered by the replay, by per-layer metric.
#[derive(Default)]
struct Replay {
    parse_us: Vec<f64>,
    session_ms: Vec<f64>,
    service_ms: Vec<f64>,
    sharded_ms: Vec<f64>,
    route_us: Vec<f64>,
    advance_ms: Vec<f64>,
    append_ms: Vec<f64>,
    stale: Vec<f64>,
    copied: Vec<f64>,
    overhead_ingest_ms: Vec<f64>,
    overhead_read_us: Vec<f64>,
    reads: std::collections::HashMap<ReadKind, Vec<f64>>,
    encode_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    pile_bytes: u64,
    pile_rows: usize,
    open_scan_ms: f64,
    replay_ms: f64,
    new_ms: f64,
    pin_ms: f64,
}

fn replay(
    w: &Workload,
    inputs: &Inputs,
    traced: &WireOutcome,
    tracer: &Tracer,
    dir: &Path,
    checks: &mut Checks,
) -> Result<(Replay, Parts, Bare), String> {
    let mut r = Replay::default();
    let k = w.replay_batches.min(traced.ingests.len());
    let samples = &traced.ingests[..k];
    let pile_of = |name: &str| w.durable.then(|| dir.join(format!("{name}.pile")));
    let under =
        |parent: Option<(SpanId, f64)>| parent.map_or((None, 0.0), |(id, at)| (Some(id), at));

    // Twin 1: the protocol parse and `Session::handle`, with a subscriber
    // registered so publishing costs what it costs the live server.
    let service = Arc::new(make_service(
        w,
        inputs.hospital(),
        pile_of("twin-session").as_deref(),
    )?);
    let (_, events) = service.subscribe(SubscriptionKind::Unexplained);
    let mut session = Session::new(service.clone());
    let mut session_spans = Vec::with_capacity(k);
    for s in samples {
        let rows = &inputs.batches[s.batch];
        let header = format!("INGEST {}", rows.len());
        let lines: Vec<String> = rows.iter().map(IngestRow::render).collect();
        let t = Instant::now();
        let command = Command::parse(&header);
        let parsed: Result<Vec<IngestRow>, _> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| IngestRow::parse(l, i))
            .collect();
        r.parse_us.push(us(t));
        let (Ok(Some(command)), Ok(parsed)) = (command, parsed) else {
            return Err(format!(
                "the protocol refused its own rendering of batch {}",
                s.batch
            ));
        };
        let t = Instant::now();
        let reply = session.handle(command, parsed);
        let took = ms(t);
        checks.check(reply.is_ok(), || {
            format!("replayed session ingest: {}", reply.head)
        });
        while events.try_recv().is_ok() {}
        r.session_ms.push(took);
        r.overhead_ingest_ms.push((s.acked_ms - s.sent_ms) - took);
        let (parent, at) = under(s.span);
        session_spans.push((
            tracer.record(
                "session.ingest",
                s.batch as u64,
                parent,
                at,
                at + took * 1e3,
            ),
            at,
        ));
    }

    // Twin 2: `AuditService::ingest_rows`, the same way.
    let service2 = make_service(w, inputs.hospital(), pile_of("twin-service").as_deref())?;
    let (_, events2) = service2.subscribe(SubscriptionKind::Unexplained);
    let mut service_spans = Vec::with_capacity(k);
    for (s, &(parent, at)) in samples.iter().zip(&session_spans) {
        let t = Instant::now();
        let report = service2.ingest_rows(&inputs.batches[s.batch]);
        let took = ms(t);
        checks.check(report.is_ok(), || "replayed service ingest failed".into());
        while events2.try_recv().is_ok() {}
        r.service_ms.push(took);
        service_spans.push((
            tracer.record(
                "service.ingest",
                s.batch as u64,
                Some(parent),
                at,
                at + took * 1e3,
            ),
            at,
        ));
    }
    drop(service2);

    // Twins 3 and 4: bare `ShardedEngine::ingest_with`, with the suite
    // pinned (as the service runs it) and unpinned (no maintained
    // partition to advance); the difference is the advance. A durable
    // workload persists inside the call, as the service does; a volatile
    // one appends the same batch to a pile afterwards, so the pile layer
    // is probed on every workload.
    let p = parts(inputs.hospital())?;
    let mut pinned = bare(&p, w.shards, true);
    let mut unpinned = bare(&parts(inputs.hospital())?, w.shards, false);
    r.new_ms = pinned.new_ms;
    r.pin_ms = pinned.pin_ms.unwrap_or(f64::NAN);
    let pile_path = dir.join("twin-sharded.pile");
    let open_store = || {
        DurableStore::open(
            &pile_path,
            Durability::Strict,
            pile::default_checkpoint_rows(),
        )
        .map_err(|e| e.to_string())
    };
    let (mut store, _, _) = open_store()?;
    let table_name = p.db.table(p.spec.table).schema().name.clone();
    for (s, &(parent, at)) in samples.iter().zip(&service_spans) {
        let rows = &inputs.batches[s.batch];
        segment::reset_copied_bytes();
        let b = bare_ingest(&mut pinned, &p, rows, w.durable.then_some(&mut store))
            .map_err(|e| e.to_string())?;
        r.copied.push(segment::copied_bytes() as f64);
        let u = bare_ingest(&mut unpinned, &p, rows, None).map_err(|e| e.to_string())?;
        let append_ms = if w.durable {
            b.persist.1
        } else {
            let epochs = pinned.sharded.load();
            let batch = pile::plain_batch(
                epochs.shards()[0].db(),
                b.seq,
                &table_name,
                b.first_row,
                &b.staged,
            );
            let t = Instant::now();
            store.append(batch).map_err(|e| e.to_string())?;
            ms(t)
        };
        let advance =
            ((b.total_ms - b.mutate.1 - b.persist.1) - (u.total_ms - u.mutate.1)).max(0.0);
        r.sharded_ms.push(b.total_ms);
        r.route_us.push(b.mutate.1 * 1e3);
        r.append_ms.push(append_ms);
        r.advance_ms.push(advance);
        r.stale.push(b.stale_partitions as f64);
        let trace = s.batch as u64;
        let id = tracer.record(
            "sharded.ingest_with",
            trace,
            Some(parent),
            at,
            at + b.total_ms * 1e3,
        );
        let child = |name, (off, len): (f64, f64)| {
            tracer.record(
                name,
                trace,
                Some(id),
                at + off * 1e3,
                at + (off + len) * 1e3,
            );
        };
        child("sharded.route_append", b.mutate);
        if w.durable {
            child("pile.append", b.persist);
        }
        // The advance runs last inside the call, just before the swap.
        child("sharded.advance", (b.total_ms - advance, advance));
        r.pile_rows += rows.len();
    }
    drop(store);
    r.pile_bytes = pile_bytes(&pile_path);
    let t = Instant::now();
    let (_, batches, recovered) = open_store()?;
    r.open_scan_ms = ms(t);
    checks.check(batches.len() == k && !recovered.lost_data(), || {
        format!("the probe pile gave back {} of {k} batches", batches.len())
    });
    let mut fresh = inputs.hospital().db;
    let t = Instant::now();
    let replayed = pile::replay_into(&mut fresh, &batches).map_err(|e| e.to_string())?;
    r.replay_ms = ms(t);
    checks.check(replayed as usize == r.pile_rows, || {
        format!("replay_into inserted {replayed} of {} rows", r.pile_rows)
    });

    // The read commands of the traced phases, through the first twin's
    // session (re-pinned to the epoch the replay published).
    session.handle(Command::Repin, vec![]);
    let mut taken: std::collections::HashMap<ReadKind, usize> = Default::default();
    for read in &traced.reads {
        let cap = match read.kind {
            ReadKind::Timeline | ReadKind::Misuse => REPLAY_REPORTS,
            _ => REPLAY_READS,
        };
        let n = taken.entry(read.kind).or_default();
        if *n >= cap {
            continue;
        }
        let Ok(Some(command)) = Command::parse(&read.command) else {
            continue;
        };
        let t = Instant::now();
        let reply = session.handle(command, vec![]);
        let took_us = us(t);
        if !reply.is_ok() {
            // The twin holds fewer rows than the live server did: a lid
            // past its log is not a failure of the replay.
            continue;
        }
        *n += 1;
        r.reads.entry(read.kind).or_default().push(took_us);
        if matches!(
            read.kind,
            ReadKind::Page | ReadKind::Explain | ReadKind::Metrics
        ) {
            r.overhead_read_us.push(read.ms * 1e3 - took_us);
        }
        if let Some((parent, at)) = read.span {
            tracer.record(
                read.kind.session_span_name(),
                tracer.trace_of(parent),
                Some(parent),
                at,
                at + took_us,
            );
        }
    }

    // A kind the traced phases never sent (a pinned auditor never
    // re-pins; a short run may see no MISUSE) is asked once directly.
    for (kind, command) in [
        (ReadKind::Repin, Command::Repin),
        (ReadKind::Metrics, Command::Metrics),
        (ReadKind::Timeline, Command::Timeline),
        (ReadKind::Misuse, Command::Misuse { user: None }),
        (ReadKind::Explain, Command::Explain { lid: 1 }),
    ] {
        let samples = r.reads.entry(kind).or_default();
        if samples.is_empty() {
            let t = Instant::now();
            std::hint::black_box(session.handle(command, vec![]));
            samples.push(us(t));
        }
    }

    // Frame encoding of residue pages, walking the listing.
    let mut after = None;
    for _ in 0..200 {
        let t = Instant::now();
        let page: Response = session.handle(
            Command::Unexplained {
                limit: Some(PAGE_ROWS),
                after,
            },
            vec![],
        );
        let took_us = us(t);
        let pages = r.reads.entry(ReadKind::Page).or_default();
        if pages.len() < REPLAY_READS {
            pages.push(took_us);
        }
        after = next_cursor(&page.body);
        let mut frame = Vec::with_capacity(4096);
        let t = Instant::now();
        page.write_to(&mut frame).map_err(|e| e.to_string())?;
        r.encode_us.push(us(t));
        r.reply_bytes.push(frame.len() as f64);
    }
    Ok((r, p, pinned))
}

/// Probes of `Engine`, `Database`, `RowSet` and the suite evaluators on
/// shard 0 of the epoch vector the pinned twin published (the only shard
/// of a one-shard workload).
fn probe_epoch(
    w: &Workload,
    inputs: &Inputs,
    p: &Parts,
    twin: &mut Bare,
    set: &mut MetricSet,
) -> Result<(), String> {
    let epochs = twin.sharded.load();
    let shard = &epochs.shards()[0];
    let (db, engine) = (shard.db(), shard.engine());
    let table = p.spec.table;

    set.put("engine.fork_us", timed_us(20, || engine.fork()), 20);
    set.put("database.clone_us", timed_us(20, || db.clone()), 20);

    // One more batch appended to a private copy, then the fork refreshed
    // over it: the refresh, the tail evaluation over the appended rows,
    // and the residue re-ask the advance would run.
    let next = &inputs.batches[twin.sharded.seq() as usize % inputs.batches.len()];
    let arity = db.table(table).schema().arity();
    let mut grown = db.clone();
    let action = grown.str_value("view");
    let l0 = grown.table(table).len();
    for row in twin.lids.materialize(next, &p.cols, arity, action) {
        grown.insert(table, row).map_err(|e| e.to_string())?;
    }
    let l1 = grown.table(table).len();
    let mut refresh_us = Vec::new();
    let mut fork = engine.fork();
    for _ in 0..5 {
        fork = engine.fork();
        let t = Instant::now();
        fork.refresh(&grown).map_err(|e| e.to_string())?;
        refresh_us.push(us(t));
    }
    set.put("engine.refresh_us", median(&refresh_us), refresh_us.len());
    let tail_us = timed_us(3, || {
        fork.eval_suite_range(&grown, &p.suite.queries, p.suite.opts, l0, l1)
    });
    set.put("engine.tail_eval_ms", tail_us / 1e3, 3);

    let pin = epochs
        .maintained(0)
        .ok_or("the pinned twin carries no partition")?;
    let local: Vec<u32> = (0..shard.log_len() as u32)
        .filter(|&r| pin.unexplained.contains(shard.to_global(r)))
        .collect();
    let residue = RowSet::from_sorted_vec(&local);
    // The templates whose support grew with the log: the ones the advance
    // re-asks over the old residue on every ingest.
    let reask: Vec<_> = p
        .suite
        .queries
        .iter()
        .filter(|q| q.steps.iter().any(|st| st.table == table))
        .cloned()
        .collect();
    let reask_us = timed_us(3, || {
        fork.eval_suite_rows(&grown, &reask, p.suite.opts, &residue)
    });
    set.put("engine.residue_reask_ms", reask_us / 1e3, 3);
    set.put("engine.residue_rows", residue.len() as f64, 1);
    set.put("engine.templates_reasked", reask.len() as f64, 1);

    // The maintained sets: what one advance does to them, and one page.
    let delta: Vec<u32> = (0..w.batch_rows as u32)
        .map(|i| pin.log_len as u32 + i)
        .collect();
    let delta = RowSet::from_sorted_vec(&delta);
    let merge_us = timed_us(20, || {
        let mut anchors = pin.anchors.clone();
        anchors.union_with(&delta);
        let mut explained = pin.explained.clone();
        explained.union_with(&delta);
        anchors.difference(&explained)
    });
    set.put("rowset.partition_merge_us", merge_us, 20);
    let step = (pin.log_len as u32 / 100).max(1);
    let mut from = 0u32;
    let page_us = timed_us(100, || {
        from = (from + step) % pin.log_len.max(1) as u32;
        let rank = pin.unexplained.rank(from);
        let page: Vec<u32> = pin.unexplained.iter_from(from).take(PAGE_ROWS).collect();
        (rank, page)
    });
    set.put("rowset.page_iter_us", page_us, 100);
    set.put(
        "rowset.bitmap_containers",
        (pin.anchors.bitmap_containers()
            + pin.explained.bitmap_containers()
            + pin.unexplained.bitmap_containers()) as f64,
        1,
    );
    Ok(())
}

/// Probes that build their own state: the cold build, the suite
/// evaluator's slope over three log sizes, and the per-shard fixed cost.
fn probe_cold(w: &Workload, inputs: &Inputs, seed: u64, set: &mut MetricSet) -> Result<(), String> {
    let generate_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(inputs.hospital());
            ms(t)
        })
        .collect();
    set.put("synth.generate_ms", median(&generate_ms), 3);

    let p = parts(inputs.hospital())?;
    let t = Instant::now();
    let engine = Engine::new(&p.db);
    let first = engine.eval_suite(&p.db, &p.suite.queries, p.suite.opts);
    set.put("engine.cold_build_ms", ms(t), 1);
    if first.iter().any(Result::is_err) {
        return Err("the suite does not evaluate on a cold engine".into());
    }

    // Warm full-log suite evaluation at ~10k, ~50k and ~150k log rows
    // (about 7.7 accesses per patient): the slope of the evaluation core.
    for (name, patients) in [
        ("engine.suite_eval_ns_per_row.10k", 1_300),
        ("engine.suite_eval_ns_per_row.50k", 6_500),
        ("engine.suite_eval_ns_per_row.150k", 19_500),
    ] {
        let patients = if w.smoke { patients / 20 } else { patients };
        let sized = parts(Hospital::generate(crate::load::hospital_config(
            patients, seed,
        )))?;
        let engine = Engine::new(&sized.db);
        engine.eval_suite(&sized.db, &sized.suite.queries, sized.suite.opts);
        let warm_us = timed_us(3, || {
            engine.eval_suite(&sized.db, &sized.suite.queries, sized.suite.opts)
        });
        let rows = sized.db.table(sized.spec.table).len();
        set.put(name, warm_us * 1e3 / rows as f64, 3);
    }

    // The same suite scatter-gathered over one and two shards of this
    // workload's hospital: what a shard costs before it saves anything.
    let key = ShardKey {
        table: p.spec.table,
        col: p.spec.patient_col,
    };
    for (name, shards) in [
        ("sharded.eval_suite_ms.s1", 1),
        ("sharded.eval_suite_ms.s2", 2),
    ] {
        let epochs = ShardedEngine::new(p.db.clone(), key, shards).load();
        epochs.eval_suite(&p.suite.queries, p.suite.opts);
        let warm_us = timed_us(3, || epochs.eval_suite(&p.suite.queries, p.suite.opts));
        set.put(name, warm_us / 1e3, 3);
    }
    Ok(())
}

/// Mean over the headline medians of how much slower the traced phases
/// ran than the untraced ones.
fn overhead_share(plain: &WireSeries, traced: &WireSeries) -> f64 {
    let pairs = [
        (plain.ack.p50, traced.ack.p50),
        (plain.to_event.p50, traced.to_event.p50),
        (plain.page.p50, traced.page.p50),
        (plain.explain.p50, traced.explain.p50),
        (plain.report.p50, traced.report.p50),
    ];
    let shares: Vec<f64> = pairs
        .iter()
        .filter(|(a, b)| a.is_finite() && b.is_finite() && *a > 0.0)
        .map(|(a, b)| b / a - 1.0)
        .collect();
    shares.iter().sum::<f64>() / shares.len().max(1) as f64
}

pub fn traced_run(
    args: &RunArgs,
    inputs: &Inputs,
    dir: &Path,
    set: &mut MetricSet,
    checks: &mut Checks,
    report: &mut Vec<String>,
) {
    if let Err(e) = traced(args, inputs, dir, set, checks, report) {
        checks.check(false, || format!("traced run: {e}"));
    }
}

fn traced(
    args: &RunArgs,
    inputs: &Inputs,
    dir: &Path,
    set: &mut MetricSet,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Result<(), String> {
    let w = &args.workload;
    // One round's worth for each of the two passes over the phases.
    let slice = args.seconds / w.rounds as f64;
    let pile_of = |name: &str| w.durable.then(|| dir.join(format!("{name}.pile")));

    // The same phases twice over fresh deployments: tracing off, then on.
    let plain = {
        let dep = deploy(w, inputs, pile_of("plain").as_deref())?;
        run_phases(dep.server.local_addr(), w, inputs, slice, 0, None)
    };
    let tracer = Tracer::new();
    let traced = {
        let dep = deploy(w, inputs, pile_of("traced").as_deref())?;
        run_phases(dep.server.local_addr(), w, inputs, slice, 0, Some(&tracer))
    };
    let plain_series = wire_series(w, inputs, &plain);
    let series = wire_series(w, inputs, &traced);
    let connects: Vec<f64> = plain
        .connect_ms
        .iter()
        .chain(&traced.connect_ms)
        .copied()
        .collect();

    let (r, p, mut pinned) = replay(w, inputs, &traced, &tracer, dir, checks)?;
    probe_epoch(w, inputs, &p, &mut pinned, set)?;
    drop(pinned);
    probe_cold(w, inputs, args.seed, set)?;

    let scenario = Scenario::build(inputs.config.clone());
    let job = mine_job(&scenario);
    check_mining(&scenario, &job, checks);

    let k = r.session_ms.len();
    let first_k = summarize(
        &traced.ingests[..k]
            .iter()
            .map(|i| i.acked_ms - i.sent_ms)
            .collect::<Vec<_>>(),
    );
    let med = |v: &[f64]| median(v);
    let read_us = |kind: ReadKind| -> (f64, usize) {
        let v = r.reads.get(&kind).map(Vec::as_slice).unwrap_or_default();
        (median(v), v.len())
    };
    let overhead = overhead_share(&plain_series, &series);
    report.push(format!(
        "traced phases: ingest ack p50 {:.3} ms untraced / {:.3} ms traced; trace overhead share {:+.4}",
        plain_series.ack.p50, series.ack.p50, overhead
    ));
    report.push(format!(
        "ingest, first {k} batches: wire p50 {:.3} ms = listener overhead {:.3} + session {:.3}; \
         service {:.3}; sharded {:.3} (route/append {:.3}, pile append {:.3}, advance {:.3})",
        first_k.p50,
        med(&r.overhead_ingest_ms),
        med(&r.session_ms),
        med(&r.service_ms),
        med(&r.sharded_ms),
        med(&r.route_us) / 1e3,
        med(&r.append_ms),
        med(&r.advance_ms),
    ));
    report.push(format!(
        "push: ingest_to_event p50 {:.3} ms - ingest_ack p50 {:.3} ms = {:.3} ms; event lag p50 {:.3} ms",
        series.to_event.p50,
        series.ack.p50,
        series.to_event.p50 - series.ack.p50,
        series.event_lag.p50
    ));

    let put = |set: &mut MetricSet, name: &str, v: &[f64]| set.put(name, median(v), v.len());
    put(set, "listener.connect_ms", &connects);
    put(set, "listener.overhead_ingest_ms", &r.overhead_ingest_ms);
    put(set, "listener.overhead_read_us", &r.overhead_read_us);
    put(set, "protocol.parse_batch_us", &r.parse_us);
    put(set, "protocol.encode_page_us", &r.encode_us);
    put(set, "protocol.reply_bytes_per_page", &r.reply_bytes);
    put(set, "session.ingest_ms", &r.session_ms);
    for (name, kind, scale) in [
        ("session.page_us", ReadKind::Page, 1.0),
        ("session.explain_us", ReadKind::Explain, 1.0),
        ("session.metrics_us", ReadKind::Metrics, 1.0),
        ("session.timeline_ms", ReadKind::Timeline, 1e-3),
        ("session.misuse_ms", ReadKind::Misuse, 1e-3),
        ("session.repin_us", ReadKind::Repin, 1.0),
    ] {
        let (v, n) = read_us(kind);
        set.put(name, v * scale, n);
    }
    set.put(
        "push.event_lag_ms",
        series.event_lag.p50,
        series.event_lag.n,
    );
    set.put("push.events_received", traced.events.len() as f64, 1);
    set.put("push.events_expected", traced.ingests.len() as f64, 1);
    put(set, "service.ingest_ms", &r.service_ms);
    put(set, "sharded.ingest_with_ms", &r.sharded_ms);
    put(set, "sharded.route_append_us", &r.route_us);
    put(set, "sharded.advance_ms", &r.advance_ms);
    set.put("sharded.new_ms", r.new_ms, 1);
    set.put("sharded.pin_suite_ms", r.pin_ms, 1);
    put(set, "engine.stale_partitions", &r.stale);
    put(set, "segment.copied_bytes_per_epoch", &r.copied);
    put(set, "pile.append_ms", &r.append_ms);
    set.put(
        "pile.bytes_per_batch",
        r.pile_bytes as f64 / k.max(1) as f64,
        k,
    );
    set.put(
        "pile.bytes_per_row",
        r.pile_bytes as f64 / r.pile_rows.max(1) as f64,
        r.pile_rows,
    );
    set.put("pile.open_scan_ms", r.open_scan_ms, 1);
    set.put("pile.replay_ms", r.replay_ms, 1);
    set.put("core.one_way_ms", job.one_way_ms, 1);
    set.put("core.two_way_ms", job.two_way_ms, 1);
    set.put("core.bridge_ms", job.bridge_ms, 1);
    set.put("core.refine_ms", job.refine_ms, 1);
    let stats = [
        Some(&job.one_way.stats),
        Some(&job.two_way.stats),
        job.bridge.as_ref().map(|b| &b.stats),
    ];
    set.put(
        "core.support_queries",
        stats
            .iter()
            .flatten()
            .map(|s| s.support_queries())
            .sum::<usize>() as f64,
        1,
    );
    set.put(
        "core.cache_hits",
        stats
            .iter()
            .flatten()
            .map(|s| s.cache_hits())
            .sum::<usize>() as f64,
        1,
    );
    set.put(
        "core.templates_mined",
        job.one_way.templates.len() as f64,
        1,
    );
    set.put("load.generator_late_p99_ms", series.late.p99, series.late.n);
    set.put(
        "wire.ingest_ack_p99_ms",
        plain_series.ack.p99,
        plain_series.ack.n,
    );
    set.put(
        "wire.page_p99_ms",
        plain_series.page.p99,
        plain_series.page.n,
    );
    set.put(
        "wire.explain_p99_ms",
        plain_series.explain.p99,
        plain_series.explain.n,
    );
    set.put("trace.overhead_share", overhead, 1);

    // The spans go to the trace file; the table is their digest.
    let spans = tracer.into_spans();
    report.push(format!(
        "  {:<26} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "total ms", "self ms", "self p50 us"
    ));
    for row in layer_table(&spans) {
        report.push(format!(
            "  {:<26} {:>7} {:>12.3} {:>12.3} {:>12.1}",
            row.name, row.count, row.total_ms, row.self_ms, row.self_p50_us
        ));
    }
    let path = Path::new(RUN_DIR).join(format!("trace-{}-{}.json", w.name, args.seed));
    let file = crate::json::Json::obj([
        ("workload", crate::json::Json::str(w.name)),
        ("seed", crate::json::Json::Num(args.seed as f64)),
        ("spans", spans_json(&spans)),
    ]);
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    report.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}
