//! One run of one workload: generate the inputs, then, round by round,
//! set the service up afresh (timed), drive the round's wire phases,
//! check the outputs, kill it, restart it from what it keeps (timed,
//! checked) and mine; finally turn the samples into the declared metrics.

use crate::json::Json;
use crate::layers;
use crate::load::Inputs;
use crate::spec::{dealt, Declared, Workload, CYCLE_POOL};
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::wire::{self, Checks, ReadKind, Reader, WireOutcome, PAGE_ROWS};
use eba_core::mining::DecorationCandidate;
use eba_core::{mine_bridge, mine_one_way, mine_two_way, MiningConfig, MiningResult};
use eba_experiments::Scenario;
use eba_relational::Durability;
use eba_server::{AuditService, Client, Reply, Server, ServerConfig};
use eba_synth::Hospital;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything the benchmark writes (piles, trace files, child results)
/// goes under this directory of the checkout it is run from.
pub const RUN_DIR: &str = ".bench_run";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric: its value, its unit, and how many samples stand
/// behind the value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

#[derive(Debug)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Self-description of the run: input digest, row counts, notes.
    pub detail: Json,
    /// Human-readable lines printed above the result line.
    pub report: Vec<String>,
}

/// A scratch directory for one run, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(args: &RunArgs) -> std::io::Result<Scratch> {
        let dir = Path::new(RUN_DIR).join(format!(
            "{}-{}-{}",
            args.workload.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn pile(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.pile"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the workload's service over a generated hospital: volatile,
/// or durable (`fsync strict`) over `pile`.
pub fn make_service(
    w: &Workload,
    hospital: Hospital,
    pile: Option<&Path>,
) -> Result<AuditService, String> {
    match pile {
        Some(pile) => AuditService::from_hospital_durable_sharded(
            hospital,
            pile,
            Durability::Strict,
            w.shards,
        )
        .map_err(|e| format!("opening {}: {e}", pile.display())),
        None => Ok(AuditService::from_hospital_sharded(hospital, w.shards)),
    }
}

/// A live deployment: the in-process server plus the first reply it gave.
pub struct Deployment {
    pub server: Server,
    pub first_metrics: Reply,
    /// `Hospital::generate`: loading the base data.
    pub generate_s: f64,
    /// Service construction (over whatever `pile` holds) → listening →
    /// connected → first `METRICS` reply.
    pub start_s: f64,
}

pub fn deploy(w: &Workload, inputs: &Inputs, pile: Option<&Path>) -> Result<Deployment, String> {
    let t = Instant::now();
    let hospital = inputs.hospital();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let service = make_service(w, hospital, pile)?;
    let server = Server::spawn_with(service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("binding the server: {e}"))?;
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("first connect: {e}"))?;
    let first_metrics = client
        .send("METRICS")
        .map_err(|e| format!("first METRICS: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();
    if !first_metrics.is_ok() {
        return Err(format!("first METRICS: {}", first_metrics.head));
    }
    Ok(Deployment {
        server,
        first_metrics,
        generate_s,
        start_s,
    })
}

pub fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Bytes a durable deployment holds on disk: the pile plus its WAL.
pub fn pile_bytes(pile: &Path) -> u64 {
    let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    len(pile) + len(&eba_relational::DurableStore::wal_path(pile))
}

fn body_count(reply: &Reply, key: &str) -> Option<usize> {
    reply.body_field(key).and_then(|v| v.parse().ok())
}

/// A reply with the epoch number taken out of its head line: what must
/// survive a restart (the restarted service counts epochs from 0 again).
fn sans_epoch(reply: &Reply) -> String {
    let head = match reply.head.find(" epoch ") {
        Some(i) => &reply.head[..i],
        None => &reply.head,
    };
    format!("{head}\n{}", reply.body.join("\n"))
}

/// What a restart must reproduce: `METRICS` and the first residue page.
#[derive(Clone, PartialEq)]
struct Snapshot {
    metrics: String,
    page: String,
}

fn snapshot(client: &mut Client) -> Result<Snapshot, String> {
    let metrics = client
        .send("METRICS")
        .map_err(|e| format!("METRICS: {e}"))?;
    let page = client
        .send(&format!("UNEXPLAINED {PAGE_ROWS}"))
        .map_err(|e| format!("UNEXPLAINED: {e}"))?;
    Ok(Snapshot {
        metrics: sans_epoch(&metrics),
        page: sans_epoch(&page),
    })
}

/// Walks the whole residue by cursor and checks it visits exactly
/// `unexplained` rows in strictly ascending order.
fn walk_residue(client: &mut Client, unexplained: usize, checks: &mut Checks) {
    const WALK_PAGE: usize = 1_000;
    let mut command = format!("UNEXPLAINED {WALK_PAGE}");
    let mut visited = 0usize;
    let mut last_lid = i64::MIN;
    let mut ascending = true;
    loop {
        let page = match client.send(&command) {
            Ok(p) if p.is_ok() => p,
            Ok(p) => {
                checks.check(false, || format!("{command}: {}", p.head));
                return;
            }
            Err(e) => {
                checks.check(false, || format!("{command}: {e}"));
                return;
            }
        };
        let mut next = None;
        for line in &page.body {
            if let Some(rest) = line.strip_prefix("lid ") {
                let lid = rest
                    .split(' ')
                    .next()
                    .and_then(|l| l.parse::<i64>().ok())
                    .unwrap_or(i64::MIN);
                ascending &= lid > last_lid;
                last_lid = lid;
                visited += 1;
            } else if let Some(rest) = line.strip_prefix("next ") {
                next = Some(rest.to_string());
            }
        }
        match next {
            Some(n) if visited <= unexplained => command = n,
            _ => break,
        }
    }
    checks.check(visited == unexplained && ascending, || {
        format!(
            "cursor walk visited {visited} rows (ascending: {ascending}), METRICS says {unexplained}"
        )
    });
}

pub fn ingested_rows(inputs: &Inputs, wire: &WireOutcome) -> usize {
    wire.ingests
        .iter()
        .map(|i| inputs.batches[i.batch].len())
        .sum()
}

/// Guards on the live server after a round's phases.
/// Returns the state a restart of a durable deployment must reproduce.
fn check_final_state(
    dep: &Deployment,
    inputs: &Inputs,
    wire: &WireOutcome,
    pinned: Option<(Client, Snapshot)>,
    checks: &mut Checks,
) -> Option<Snapshot> {
    let mut client = match Client::connect(dep.server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            checks.check(false, || format!("post-phase connect: {e}"));
            return None;
        }
    };
    let metrics = match client.send("METRICS") {
        Ok(m) => m,
        Err(e) => {
            checks.check(false, || format!("post-phase METRICS: {e}"));
            return None;
        }
    };
    let total = body_count(&metrics, "anchor_total").unwrap_or(0);
    let explained = body_count(&metrics, "explained").unwrap_or(0);
    let unexplained = body_count(&metrics, "unexplained").unwrap_or(usize::MAX);
    let want = inputs.base_rows + ingested_rows(inputs, wire);
    checks.check(
        total == want && explained.saturating_add(unexplained) == total,
        || {
            format!(
                "METRICS: explained {explained} + unexplained {unexplained} vs anchor_total \
                 {total} vs base + ingested {want}"
            )
        },
    );
    walk_residue(&mut client, unexplained, checks);
    // The session pinned before the phases still reads its old epoch,
    // byte for byte, whatever was ingested since.
    if let Some((mut pinned, before)) = pinned {
        match snapshot(&mut pinned) {
            Ok(after) => checks.check(after == before, || {
                "a session pinned before the phases read different bytes after them".into()
            }),
            Err(e) => checks.check(false, || format!("pinned session: {e}")),
        }
    }
    let svc = dep.server.service();
    checks.check(
        svc.shed_ingest_count() == 0 && svc.shed_subscriber_count() == 0,
        || {
            format!(
                "load was shed: {} ingest(s), {} subscriber(s)",
                svc.shed_ingest_count(),
                svc.shed_subscriber_count()
            )
        },
    );
    snapshot(&mut client).ok()
}

/// A restarted deployment must answer `METRICS` and the first residue
/// page as before the kill (the base state, for a volatile one), and a
/// durable one must report every acknowledged batch recovered, none
/// dropped: the maintained partition equals a cold recompute, and what
/// was acknowledged was durable.
fn check_restart(
    dep: &Deployment,
    got: &Option<Snapshot>,
    expect: &Option<Snapshot>,
    acked: Option<(usize, usize)>,
    checks: &mut Checks,
) {
    checks.check(got.is_some() && got == expect, || {
        "restart: METRICS or the first residue page differ from before the kill".into()
    });
    let recovery = Client::connect(dep.server.local_addr()).and_then(|mut c| c.send("RECOVERY"));
    match (recovery, acked) {
        (Ok(r), Some((batches, rows))) => {
            let want = format!("OK recovery durable batches {batches} rows {rows} ");
            checks.check(
                r.head.starts_with(&want) && r.head.ends_with(" dropped 0"),
                || {
                    format!(
                        "restart: {} (acknowledged {batches} batches, {rows} rows)",
                        r.head
                    )
                },
            );
        }
        (Ok(r), None) => checks.check(r.head == "OK recovery volatile", || {
            format!("restart: {}", r.head)
        }),
        (Err(e), _) => checks.check(false, || format!("restart RECOVERY: {e}")),
    }
}

/// One mining job: the three algorithms (length 4, support 1 %, 3
/// tables, engine path) plus group-decoration refinement.
pub struct MineJob {
    pub one_way_ms: f64,
    pub two_way_ms: f64,
    pub bridge_ms: f64,
    pub refine_ms: f64,
    pub one_way: MiningResult,
    pub two_way: MiningResult,
    pub bridge: Option<MiningResult>,
    pub refined: usize,
}

impl MineJob {
    pub fn total_ms(&self) -> f64 {
        self.one_way_ms + self.two_way_ms + self.bridge_ms + self.refine_ms
    }
}

fn mining_config() -> MiningConfig {
    MiningConfig {
        support_frac: 0.01,
        max_length: 4,
        max_tables: 3,
        ..MiningConfig::default()
    }
}

pub fn mine_job(scenario: &Scenario) -> MineJob {
    let db = &scenario.hospital.db;
    let spec = scenario.train_spec();
    let config = mining_config();
    let ms = elapsed_ms;
    let t = Instant::now();
    let one_way = mine_one_way(db, &spec, &config);
    let one_way_ms = ms(t);
    let t = Instant::now();
    let two_way = mine_two_way(db, &spec, &config);
    let two_way_ms = ms(t);
    let t = Instant::now();
    let bridge = mine_bridge(db, &spec, &config, 2).ok();
    let bridge_ms = ms(t);
    let t = Instant::now();
    let refined = DecorationCandidate::group_depths(db, 3)
        .map(|candidate| {
            eba_core::mining::refine(
                db,
                &spec,
                &one_way.templates,
                &candidate,
                one_way.threshold,
                &config,
            )
            .len()
        })
        .unwrap_or(0);
    let refine_ms = ms(t);
    MineJob {
        one_way_ms,
        two_way_ms,
        bridge_ms,
        refine_ms,
        one_way,
        two_way,
        bridge,
        refined,
    }
}

/// All algorithms yield one key set, and it recalls every hand-crafted
/// template whose support clears the threshold (§5.3.3).
pub fn check_mining(scenario: &Scenario, job: &MineJob, checks: &mut Checks) {
    let keys = job.one_way.key_set();
    checks.check(
        !keys.is_empty()
            && keys == job.two_way.key_set()
            && job.bridge.as_ref().is_some_and(|b| b.key_set() == keys),
        || "the mining algorithms disagree on the template set".into(),
    );
    let db = &scenario.hospital.db;
    let spec = scenario.train_spec();
    let h = &scenario.handcrafted;
    let mut missed = Vec::new();
    for t in [
        &h.appt_with_dr,
        &h.doc_with_dr,
        &h.lab_result,
        &h.med_sign,
        &h.rad_read,
    ] {
        let supported = t
            .path
            .to_chain_query(&spec)
            .support(db, Default::default())
            .is_ok_and(|s| s >= job.one_way.threshold);
        if supported && !keys.contains(&eba_core::canonical::canonical_key(&t.path, &spec)) {
            missed.push(t.label(db, &spec));
        }
    }
    checks.check(missed.is_empty(), || {
        format!("supported hand-crafted templates were not mined: {missed:?}")
    });
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The latency series of one wire window, by what the metrics need.
pub struct WireSeries {
    pub ack: Summary,
    pub to_event: Summary,
    pub event_lag: Summary,
    pub late: Summary,
    pub rows_per_s: f64,
    pub page: Summary,
    pub explain: Summary,
    pub report: Summary,
    pub reads_per_s: f64,
}

pub fn wire_series(w: &Workload, inputs: &Inputs, wire: &WireOutcome) -> WireSeries {
    let from = |i: &wire::IngestSample| if w.open_loop { i.due_ms } else { i.sent_ms };
    let ack: Vec<f64> = wire.ingests.iter().map(|i| i.acked_ms - from(i)).collect();
    let rows = ingested_rows(inputs, wire);
    let with_event = |f: &dyn Fn(&wire::IngestSample, f64) -> f64| -> Vec<f64> {
        wire.ingests
            .iter()
            .filter_map(|i| i.event_ms.map(|at| f(i, at)))
            .collect()
    };
    let of = |kinds: &[ReadKind]| -> Summary {
        summarize(
            &wire
                .reads
                .iter()
                .filter(|r| kinds.contains(&r.kind))
                .map(|r| r.ms)
                .collect::<Vec<_>>(),
        )
    };
    WireSeries {
        ack: summarize(&ack),
        to_event: summarize(&with_event(&|i, at| at - i.sent_ms)),
        event_lag: summarize(&with_event(&|i, at| at - i.acked_ms)),
        late: summarize(
            &wire
                .ingests
                .iter()
                .map(|i| i.sent_ms - i.due_ms)
                .collect::<Vec<_>>(),
        ),
        rows_per_s: rows as f64 / (wire.write_window_ms / 1e3),
        page: of(&[ReadKind::Page]),
        explain: of(&[ReadKind::Explain]),
        report: of(&[ReadKind::Timeline, ReadKind::Misuse]),
        reads_per_s: wire.cycle_reads as f64 / (wire.read_window_ms / 1e3),
    }
}

/// Collects metric values by name, then orders and checks them against
/// the declarations: a run reports every declared metric of its mode and
/// nothing else.
#[derive(Default)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: String::new(),
            n,
        });
    }

    fn finish(mut self, decls: &[crate::spec::Decl], checks: &mut Checks) -> Vec<Metric> {
        let mut out = Vec::with_capacity(decls.len());
        for d in decls {
            match self.0.iter().position(|m| m.name == d.name) {
                Some(i) => {
                    let mut m = self.0.swap_remove(i);
                    m.unit = d.unit.clone();
                    checks.check(m.value.is_finite(), || {
                        format!("metric {} has no value (no samples)", m.name)
                    });
                    out.push(m);
                }
                None => checks.check(false, || format!("metric {} was not measured", d.name)),
            }
        }
        for m in &self.0 {
            checks.check(false, || format!("metric {} is not declared", m.name));
        }
        out
    }
}

fn metric_lines(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| format!("  {:<36} {:>16.4} {:<8} n={}", m.name, m.value, m.unit, m.n))
        .collect()
}

pub fn run(args: &RunArgs) -> RunResult {
    let declared = Declared::load();
    let w = &args.workload;
    // The untraced run deals the batches over its rounds; the traced run
    // sends the first round's.
    let n_batches = w.rounds * round_batches(w, args.seconds / w.rounds as f64);
    let inputs = Inputs::generate(w, args.seed, n_batches, CYCLE_POOL);
    let mut checks = Checks::default();
    let mut report = vec![format!(
        "workload {} seed {} seconds {} trace {}: {} patients, {} base log rows, {} shard(s), {}, \
         {} batches x {} rows ({}); {} rounds of stream {} audit {} (x{} sessions) both {}, \
         {} mining jobs; input digest {:016x}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.patients,
        inputs.base_rows,
        w.shards,
        if w.durable {
            "durable (fsync strict)"
        } else {
            "volatile"
        },
        n_batches,
        w.batch_rows,
        if w.open_loop {
            format!("open loop, one due every {} ms", w.batch_ms)
        } else {
            "closed loop".to_string()
        },
        w.rounds,
        w.stream_share,
        w.audit_share,
        w.audit_sessions,
        w.both_share,
        w.mine_jobs(args.seconds),
        inputs.digest,
    )];
    let mut detail = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("input_digest", Json::str(format!("{:016x}", inputs.digest))),
        ("base_log_rows", Json::Num(inputs.base_rows as f64)),
        (
            "table_rows",
            Json::obj(
                inputs
                    .table_rows
                    .iter()
                    .map(|(t, n)| (t.clone(), Json::Num(*n as f64))),
            ),
        ),
        (
            "threads",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
    ];

    let scratch = match Scratch::new(args) {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, || format!("creating {RUN_DIR}: {e}"));
            return RunResult {
                metrics: Vec::new(),
                attempted: checks.attempted,
                failures: checks.failures,
                detail: Json::obj(detail),
                report,
            };
        }
    };

    let mut set = MetricSet::default();
    let decls;
    if args.trace {
        decls = &declared.per_layer;
        layers::traced_run(
            args,
            &inputs,
            &scratch.0,
            &mut set,
            &mut checks,
            &mut report,
        );
    } else {
        decls = &declared.end_to_end;
        untraced_run(
            args,
            &inputs,
            &scratch,
            &mut set,
            &mut checks,
            &mut report,
            &mut detail,
        );
    }
    let metrics = set.finish(decls, &mut checks);
    report.extend(metric_lines(&metrics));
    for f in checks.failures.iter().take(20) {
        report.push(format!("FAILED: {f}"));
    }
    detail.push((
        "metrics",
        Json::obj(metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit.clone())),
                    ("n", Json::Num(m.n as f64)),
                ]),
            )
        })),
    ));
    RunResult {
        metrics,
        attempted: checks.attempted,
        failures: checks.failures,
        detail: Json::obj(detail),
        report,
    }
}

/// Batches one round's stream and both phases schedule over `seconds`.
pub fn round_batches(w: &Workload, seconds: f64) -> usize {
    w.batches(seconds * w.stream_share) + w.batches(seconds * w.both_share)
}

/// The wire phases of a workload, in its order, against one deployment:
/// `seconds` of them, taking batches from `first_batch` on.
pub fn run_phases(
    addr: std::net::SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    first_batch: usize,
    tracer: Option<&Tracer>,
) -> WireOutcome {
    let stream = first_batch..first_batch + w.batches(seconds * w.stream_share);
    let both = stream.end..stream.end + w.batches(seconds * w.both_share);
    let mut out = WireOutcome::default();
    let audit = |out: &mut WireOutcome| {
        let cycles = w.audit_cycles(seconds);
        if cycles > 0 {
            out.merge(wire::run_phase(
                addr,
                w,
                inputs,
                0..0,
                Reader::Alone(cycles),
                tracer,
            ));
        }
    };
    if w.audit_first {
        audit(&mut out);
    }
    if !stream.is_empty() {
        out.merge(wire::run_phase(
            addr,
            w,
            inputs,
            stream,
            Reader::Off,
            tracer,
        ));
    }
    if !both.is_empty() {
        out.merge(wire::run_phase(
            addr,
            w,
            inputs,
            both,
            Reader::Beside,
            tracer,
        ));
    }
    if !w.audit_first {
        audit(&mut out);
    }
    out
}

fn untraced_run(
    args: &RunArgs,
    inputs: &Inputs,
    scratch: &Scratch,
    set: &mut MetricSet,
    checks: &mut Checks,
    report: &mut Vec<String>,
    detail: &mut Vec<(&'static str, Json)>,
) {
    let w = &args.workload;
    let round_seconds = args.seconds / w.rounds as f64;
    let per_round = round_batches(w, round_seconds);
    let mine_jobs = w.mine_jobs(args.seconds);
    let scenario = Scenario::build(inputs.config.clone());

    let (mut setups, mut restarts, mut mine_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = WireOutcome::default();
    let mut pile_bytes_per_row = f64::NAN;
    let mut first_keys = None;
    for round in 0..w.rounds {
        // A fresh set-up: a durable deployment starts on an empty pile.
        let pile = w.durable.then(|| scratch.pile(&format!("round-{round}")));
        let dep = match deploy(w, inputs, pile.as_deref()) {
            Ok(dep) => dep,
            Err(e) => {
                checks.check(false, || format!("round {round} set-up: {e}"));
                return;
            }
        };
        checks.check(
            body_count(&dep.first_metrics, "anchor_total") == Some(inputs.base_rows),
            || format!("first METRICS: {:?}", dep.first_metrics.body),
        );
        setups.push(dep.generate_s + dep.start_s);
        let addr = dep.server.local_addr();
        let mut pinned = Client::connect(addr).ok();
        let before = pinned.as_mut().and_then(|c| snapshot(c).ok());

        let phases = run_phases(addr, w, inputs, round_seconds, round * per_round, None);
        let after = check_final_state(&dep, inputs, &phases, pinned.zip(before.clone()), checks);
        // Kill, and restart from what the deployment keeps: a durable one
        // comes back with everything it acknowledged, a volatile one with
        // the base data.
        drop(dep);
        let (expect, acked) = if w.durable {
            (
                after,
                Some((phases.ingests.len(), ingested_rows(inputs, &phases))),
            )
        } else {
            (before, None)
        };
        match deploy(w, inputs, pile.as_deref()) {
            Ok(dep) => {
                restarts.push(dep.start_s * 1e3);
                let got = Client::connect(dep.server.local_addr())
                    .ok()
                    .and_then(|mut c| snapshot(&mut c).ok());
                check_restart(&dep, &got, &expect, acked, checks);
            }
            Err(e) => checks.check(false, || format!("round {round} restart: {e}")),
        }
        if let (Some(p), Some((_, rows))) = (&pile, acked) {
            pile_bytes_per_row = pile_bytes(p) as f64 / rows.max(1) as f64;
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(eba_relational::DurableStore::wal_path(p));
        }
        wire.merge(phases);

        for _ in 0..dealt(mine_jobs, round, w.rounds) {
            let job = mine_job(&scenario);
            match &first_keys {
                None => {
                    check_mining(&scenario, &job, checks);
                    report.push(format!(
                        "mining: {} templates ({} refined), threshold {} of {} anchor lids",
                        job.one_way.templates.len(),
                        job.refined,
                        job.one_way.threshold,
                        job.one_way.anchor_lids
                    ));
                    first_keys = Some(job.one_way.key_set());
                }
                Some(keys) => checks.check(job.one_way.key_set() == *keys, || {
                    "a repeated mining job mined a different template set".into()
                }),
            }
            mine_ms.push(job.total_ms());
        }
    }

    let series = wire_series(w, inputs, &wire);
    report.push(format!(
        "{} rounds, wire phases {:.2} s: {} ingests (generator late p99 {:.3} ms), {} events, \
         {} reads in {} cycles; {} wire check(s) failed",
        w.rounds,
        wire.window_ms / 1e3,
        wire.ingests.len(),
        series.late.p99,
        wire.events.len(),
        wire.reads.len(),
        wire.cycles,
        wire.checks.failures.len(),
    ));
    for (name, s) in [
        ("ingest ack", &series.ack),
        ("ingest to event", &series.to_event),
        ("page", &series.page),
        ("explain", &series.explain),
        ("report", &series.report),
    ] {
        let tail = s
            .tail
            .map_or("-".to_string(), |(p, v)| format!("p{p} {v:.3}"));
        report.push(format!(
            "  {name:<16} n={:<6} p50 {:.3} ms  p90 {:.3}  p99 {:.3}  tail rule: {tail}",
            s.n, s.p50, s.p90, s.p99
        ));
    }
    detail.push((
        "ingested_rows",
        Json::Num(ingested_rows(inputs, &wire) as f64),
    ));
    detail.push(("generator_late_p99_ms", Json::Num(series.late.p99)));
    if w.durable {
        detail.push(("pile_bytes_per_row", Json::Num(pile_bytes_per_row)));
    }
    // The tails the issue named as end-to-end metrics and this machine
    // cannot hold within a bound (README, "End-to-end metrics").
    detail.push((
        "tails",
        Json::obj([
            ("ingest_ack_p99_ms", Json::Num(series.ack.p99)),
            ("page_p99_ms", Json::Num(series.page.p99)),
            ("explain_p99_ms", Json::Num(series.explain.p99)),
        ]),
    ));
    let cycle_reads = wire.cycle_reads;
    checks.merge(wire.checks);

    set.put("setup_s", median(&setups), setups.len());
    set.put("ingest_ack_p50_ms", series.ack.p50, series.ack.n);
    set.put(
        "ingest_to_event_p50_ms",
        series.to_event.p50,
        series.to_event.n,
    );
    set.put("ingest_rows_per_s", series.rows_per_s, series.ack.n);
    set.put("page_p50_ms", series.page.p50, series.page.n);
    set.put("explain_p50_ms", series.explain.p50, series.explain.n);
    set.put("report_p50_ms", series.report.p50, series.report.n);
    set.put("reads_per_s", series.reads_per_s, cycle_reads);
    set.put("restart_ms", median(&restarts), restarts.len());
    set.put("mine_job_ms", median(&mine_ms), mine_ms.len());
    set.put("peak_rss_mb", peak_rss_mib(), 1);
}
