//! `eba` — command-line interface to the explanation-based auditing system.
//!
//! ```text
//! eba synth --out DIR [--scale tiny|small|default] [--seed N] [--snoops N] [--mapping]
//! eba mine --data DIR [--support F] [--max-length N] [--max-tables N]
//!          [--algorithm one-way|two-way|bridge-2|bridge-3] [--groups] [--sql]
//! eba explain --data DIR --lid N [--groups]
//! eba report --data DIR --patient ID [--groups]
//! eba investigate --data DIR [--top N] [--groups]
//! eba serve --data DIR [--addr HOST:PORT] [--groups]
//!           [--pile FILE] [--fsync strict|relaxed] [--timeout SECS]
//! eba client --addr HOST:PORT --send "COMMAND ..."
//! eba watch --addr HOST:PORT [--misuse T] [--events N]
//! ```
//!
//! `synth` writes a CareWeb-shaped data set as one CSV per table; the other
//! subcommands load such a directory (yours or synthetic), so the same
//! workflow runs on real extracts. `serve` exposes the same audit surface
//! as a long-running TCP service (the `eba-serve` line protocol — see
//! `crates/server`); `client` drives one such command from a script.

use eba::audit::explain::{explained, unexplained};
use eba::audit::groups::{collaborative_groups, install_groups};
use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::investigate::{diagnose, looks_like_snooping};
use eba::audit::portal::{misuse_summary, patient_report};
use eba::audit::{AuditView, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::describe::auto_description;
use eba::core::{
    mine_bridge, mine_one_way, mine_two_way, ExplanationTemplate, LogSpec, MiningConfig,
    MiningResult,
};
use eba::relational::{csv, Database, Engine, Value};
use eba::synth::{
    create_careweb_tables, declare_careweb_relationships, Hospital, LogColumns, SynthConfig,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let opts = Options::parse(rest);
    let result = match command.as_str() {
        "synth" => cmd_synth(&opts),
        "mine" => cmd_mine(&opts),
        "explain" => cmd_explain(&opts),
        "report" => cmd_report(&opts),
        "investigate" => cmd_investigate(&opts),
        "serve" => cmd_serve(&opts),
        "client" => cmd_client(&opts),
        "watch" => cmd_watch(&opts),
        "help" | "--help" | "-h" => usage(""),
        other => usage(&format!("unknown subcommand `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "eba — explanation-based auditing (Fabbri & LeFevre, VLDB 2011)\n\
         \n\
         usage:\n\
         \x20 eba synth --out DIR [--scale tiny|small|default] [--seed N] [--snoops N] [--mapping]\n\
         \x20 eba mine --data DIR [--support F] [--max-length N] [--max-tables N]\n\
         \x20          [--algorithm one-way|two-way|bridge-2|bridge-3] [--groups] [--sql]\n\
         \x20 eba explain --data DIR --lid N [--groups]\n\
         \x20 eba report --data DIR --patient ID [--groups]\n\
         \x20 eba investigate --data DIR [--top N] [--groups]\n\
         \x20 eba serve --data DIR [--addr HOST:PORT] [--groups]\n\
         \x20           [--pile FILE] [--fsync strict|relaxed] [--timeout SECS]\n\
         \x20           [--max-conn N]\n\
         \x20 eba client --addr HOST:PORT --send \"COMMAND ...\" [--retries N]\n\
         \x20 eba watch --addr HOST:PORT [--misuse T] [--events N]"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}

/// Minimal `--flag value` / `--switch` parser.
struct Options {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                usage(&format!("unexpected argument `{arg}`"));
            };
            match name {
                "groups" | "sql" | "mapping" => switches.push(name.to_string()),
                _ => {
                    let Some(value) = args.get(i + 1) else {
                        usage(&format!("--{name} expects a value"));
                    };
                    values.insert(name.to_string(), value.clone());
                    i += 1;
                }
            }
            i += 1;
        }
        Options { values, switches }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| usage(&format!("--{name} is required")))
    }

    fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("invalid value for --{name}: `{v}`"))),
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

// ---------------------------------------------------------------- synth

fn cmd_synth(opts: &Options) -> CliResult {
    let out = PathBuf::from(opts.require("out"));
    let mut config = match opts.get("scale").unwrap_or("small") {
        "tiny" => SynthConfig::tiny(),
        "small" => SynthConfig::small(),
        "default" => SynthConfig::default_scale(),
        other => usage(&format!("unknown scale `{other}`")),
    };
    config.seed = opts.parsed("seed", config.seed);
    config.n_snoop_accesses = opts.parsed("snoops", config.n_snoop_accesses);
    config.use_mapping_table = opts.flag("mapping");

    let hospital = Hospital::generate(config);
    std::fs::create_dir_all(&out)?;
    let mut tables: Vec<(&str, eba::relational::TableId)> = vec![
        ("Log", hospital.t_log),
        ("Appointments", hospital.t_appointments),
        ("Visits", hospital.t_visits),
        ("Documents", hospital.t_documents),
        ("Labs", hospital.t_labs),
        ("Medications", hospital.t_medications),
        ("Radiology", hospital.t_radiology),
        ("Users", hospital.t_users),
    ];
    if let Some(m) = hospital.t_mapping {
        tables.push(("Mapping", m));
    }
    for (name, id) in tables {
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(out.join(format!("{name}.csv")))?);
        csv::export_table(&hospital.db, id, &mut file)?;
    }
    println!(
        "wrote {} accesses, {} users, {} patients to {}",
        hospital.log_len(),
        hospital.world.n_users(),
        hospital.world.n_patients(),
        out.display()
    );
    Ok(())
}

// ----------------------------------------------------------------- load

struct Loaded {
    db: Database,
    spec: LogSpec,
    cols: LogColumns,
    has_mapping: bool,
}

fn load_data(dir: &Path) -> Result<Loaded, Box<dyn std::error::Error>> {
    let has_mapping = dir.join("Mapping.csv").exists();
    let mut db = Database::new();
    let tables = create_careweb_tables(&mut db, has_mapping);
    for (name, id) in tables.named() {
        let path = dir.join(format!("{name}.csv"));
        let file = std::fs::File::open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let mut reader = std::io::BufReader::new(file);
        csv::import_table(&mut db, id, &mut reader)?;
    }
    declare_careweb_relationships(&mut db, has_mapping, true);
    let spec = LogSpec::conventional(&db)?;
    let cols = eba::server::log_columns(&db, tables.log);
    Ok(Loaded {
        db,
        spec,
        cols,
        has_mapping,
    })
}

/// Trains collaborative groups on the full log and installs them.
fn add_groups(loaded: &mut Loaded) -> CliResult {
    let model = collaborative_groups(&loaded.db, &loaded.spec, HierarchyConfig::default(), 1_000)?;
    install_groups(&mut loaded.db, &model)?;
    Ok(())
}

/// The explanation suite: hand-crafted templates, plus depth-1 group
/// templates when groups are installed.
fn build_explainer(
    loaded: &Loaded,
    with_groups: bool,
) -> Result<Explainer, Box<dyn std::error::Error>> {
    let handcrafted = HandcraftedTemplates::build(&loaded.db, &loaded.spec)?;
    let mut templates: Vec<ExplanationTemplate> = handcrafted.all().into_iter().cloned().collect();
    if with_groups {
        for e in EventTable::ALL {
            templates.push(same_group(&loaded.db, &loaded.spec, e, Some(1))?);
        }
    }
    Ok(Explainer::new(templates))
}

// ----------------------------------------------------------------- mine

fn cmd_mine(opts: &Options) -> CliResult {
    let support_frac: f64 = opts.parsed("support", 0.01);
    if !(support_frac > 0.0 && support_frac <= 1.0) {
        usage(&format!(
            "--support expects a fraction in (0, 1], got `{support_frac}`"
        ));
    }
    let mut loaded = load_data(Path::new(opts.require("data")))?;
    let with_groups = opts.flag("groups");
    if with_groups {
        add_groups(&mut loaded)?;
    }
    let mut config = MiningConfig {
        support_frac,
        max_length: opts.parsed("max-length", 4),
        max_tables: opts.parsed("max-tables", 3),
        ..MiningConfig::default()
    };
    if loaded.has_mapping {
        config.exempt_tables.push(loaded.db.table_id("Mapping")?);
    }
    let algorithm = opts.get("algorithm").unwrap_or("one-way");
    let started = std::time::Instant::now();
    let result: MiningResult = match algorithm {
        "one-way" => mine_one_way(&loaded.db, &loaded.spec, &config),
        "two-way" => mine_two_way(&loaded.db, &loaded.spec, &config),
        other => match other.strip_prefix("bridge-").and_then(|n| n.parse().ok()) {
            Some(ell) => mine_bridge(&loaded.db, &loaded.spec, &config, ell)?,
            None => usage(&format!("unknown algorithm `{other}`")),
        },
    };
    println!(
        "mined {} templates in {:.2}s ({} support queries, threshold {} of {} accesses)\n",
        result.templates.len(),
        started.elapsed().as_secs_f64(),
        result.stats.support_queries(),
        result.threshold,
        result.anchor_lids
    );
    for t in &result.templates {
        println!(
            "[len {}] support {:>6}  {}",
            t.length(),
            t.support,
            auto_description(&loaded.db, &loaded.spec, &t.path)
        );
        if opts.flag("sql") {
            let sql = eba::core::sql::template_sql(&loaded.db, &loaded.spec, &t.path);
            for line in sql.lines() {
                println!("    {line}");
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------- explain

fn cmd_explain(opts: &Options) -> CliResult {
    let mut loaded = load_data(Path::new(opts.require("data")))?;
    let with_groups = opts.flag("groups");
    if with_groups {
        add_groups(&mut loaded)?;
    }
    let lid: i64 = opts.parsed("lid", -1);
    if lid < 0 {
        usage("--lid is required");
    }
    let log = loaded.db.table(loaded.spec.table);
    let rows = log.rows_with(loaded.cols.lid, Value::Int(lid));
    let Some(&rid) = rows.first() else {
        return Err(format!("no log record with Lid = {lid}").into());
    };
    let row = log.row(rid);
    println!(
        "log record {lid}: user {} accessed patient {}'s record at {}",
        row[loaded.cols.user].display(loaded.db.pool()),
        row[loaded.cols.patient].display(loaded.db.pool()),
        row[loaded.cols.date].display(loaded.db.pool()),
    );
    let explainer = build_explainer(&loaded, with_groups)?;
    let explanations = explainer.explain(&loaded.db, &loaded.spec, rid, 3)?;
    if explanations.is_empty() {
        println!("no explanation found; closest template verdicts:");
        let verdicts = diagnose(&loaded.db, &loaded.spec, &explainer, rid)?;
        for d in verdicts.iter().take(3) {
            println!("  - {}", d.summary());
        }
        if verdicts.len() > 3 {
            println!("  … and {} more rows", verdicts.len() - 3);
        }
    } else {
        for e in explanations {
            println!("  [len {}] {}", e.length, e.text);
        }
    }
    Ok(())
}

// --------------------------------------------------------------- report

fn cmd_report(opts: &Options) -> CliResult {
    let mut loaded = load_data(Path::new(opts.require("data")))?;
    let with_groups = opts.flag("groups");
    if with_groups {
        add_groups(&mut loaded)?;
    }
    let patient: i64 = opts.parsed("patient", -1);
    if patient < 0 {
        usage("--patient is required");
    }
    let explainer = build_explainer(&loaded, with_groups)?;
    let engine = Engine::new(&loaded.db);
    let report = patient_report(
        &AuditView::warm(&loaded.db, &engine),
        &loaded.spec,
        &loaded.cols,
        &explainer,
        Value::Int(patient),
    )?;
    if report.is_empty() {
        println!("no accesses recorded for patient {patient}");
        return Ok(());
    }
    println!(
        "access report for patient {patient} ({} accesses):",
        report.len()
    );
    for e in &report {
        println!(
            "  {:>6}  {:<16} user {:<6} {}",
            e.lid.display(loaded.db.pool()).to_string(),
            e.date.display(loaded.db.pool()).to_string(),
            e.user.display(loaded.db.pool()).to_string(),
            e.display_text()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// `eba serve`: the audit service over a CSV data directory (your own,
/// or one `eba synth` wrote). Prints one `listening on <addr>` line to
/// stdout (port 0 picks an ephemeral port) and serves until killed.
///
/// With `--pile FILE` the service is **durable**: startup recovers every
/// previously acknowledged `INGEST` from the segment pile (+ its
/// `FILE.wal`), and every new acknowledged batch is persisted before the
/// reply — under `--fsync strict` (the default) it is fsynced first, so
/// an acknowledged batch survives power loss. `--timeout SECS` bounds
/// how long an idle peer may hold a session (0 disables the deadline).
fn cmd_serve(opts: &Options) -> CliResult {
    let mut loaded = load_data(Path::new(opts.require("data")))?;
    let with_groups = opts.flag("groups");
    if with_groups {
        add_groups(&mut loaded)?;
    }
    let explainer = build_explainer(&loaded, with_groups)?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:4780");
    let days = eba::server::days_in_log(&loaded.db, loaded.spec.table, &loaded.cols);
    let service = match opts.get("pile") {
        None => eba::server::AuditService::new_sharded(
            loaded.db,
            loaded.spec,
            loaded.cols,
            explainer,
            days,
        ),
        Some(pile) => {
            let policy = parse_fsync(opts);
            let svc = eba::server::AuditService::new_durable_sharded(
                loaded.db,
                loaded.spec,
                loaded.cols,
                explainer,
                days,
                Path::new(pile),
                policy,
            )?;
            let report = svc.recovery_report().expect("durable service");
            eprintln!(
                "eba serve: durable ({policy} fsync) pile {pile}; {}",
                report.summary()
            );
            svc
        }
    };
    let log_len = service.sharded().load().global_log_len();
    eprintln!(
        "eba serve: {} accesses, {} templates, {}-day window",
        log_len,
        service.explainer.templates().len(),
        service.days
    );
    let server = eba::server::Server::spawn_with(service, addr, server_config(opts))?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    server.join();
    Ok(())
}

/// `--fsync strict|relaxed` (default strict: an acknowledged `INGEST`
/// survives power loss).
fn parse_fsync(opts: &Options) -> eba::relational::Durability {
    let v = opts.get("fsync").unwrap_or("strict");
    eba::relational::Durability::parse(v)
        .unwrap_or_else(|| usage(&format!("--fsync expects strict|relaxed, got `{v}`")))
}

/// `--timeout SECS` → the server's socket deadlines (0 disables them);
/// `--max-conn N` → the concurrent-session cap (0 removes it).
fn server_config(opts: &Options) -> eba::server::ServerConfig {
    let secs: u64 = opts.parsed("timeout", 120);
    let timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    let defaults = eba::server::ServerConfig::default();
    eba::server::ServerConfig {
        read_timeout: timeout,
        write_timeout: timeout,
        max_connections: opts.parsed("max-conn", defaults.max_connections),
        ..defaults
    }
}

/// `eba client`: sends one protocol command to a running server and
/// prints the framed reply. An `ERR` reply exits non-zero, so scripts can
/// branch on it. `--retries N` retries refused or `ERR busy` connects
/// with capped exponential backoff before giving up.
fn cmd_client(opts: &Options) -> CliResult {
    let addr = opts.require("addr");
    let command = opts.require("send");
    if command.trim().to_ascii_uppercase().starts_with("INGEST") {
        return Err(
            "INGEST needs continuation lines; drive it from the library \
                    client (eba::server::Client::ingest) or a script over nc"
                .into(),
        );
    }
    let config = eba::server::ClientConfig {
        retry: eba::server::RetryPolicy {
            retries: opts.parsed("retries", eba::server::RetryPolicy::backoff().retries),
            ..eba::server::RetryPolicy::backoff()
        },
        ..eba::server::ClientConfig::default()
    };
    let mut client = eba::server::Client::connect_with(addr, config)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client.send(command)?;
    {
        // `writeln!`, not `println!`: a downstream `| head` closing the
        // pipe early must not panic a scripting-oriented subcommand.
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), "{}", reply.render());
    }
    let _ = client.send("QUIT");
    if !reply.is_ok() {
        exit(1);
    }
    Ok(())
}

/// `eba watch`: subscribes to a running server's push feed and prints
/// `EVENT` frames as they arrive. `--misuse T` subscribes to misuse
/// threshold crossings instead of the default new-unexplained feed;
/// `--events N` exits cleanly after N events (0 = run until the server
/// closes the session or sheds us as a slow consumer).
fn cmd_watch(opts: &Options) -> CliResult {
    use std::io::Write as _;
    let addr = opts.require("addr");
    let events: usize = opts.parsed("events", 0);
    let subscribe = match opts.get("misuse") {
        Some(t) => {
            let t: usize = t
                .parse()
                .unwrap_or_else(|_| usage(&format!("invalid value for --misuse: `{t}`")));
            format!("SUBSCRIBE MISUSE {t}")
        }
        None => "SUBSCRIBE UNEXPLAINED".to_string(),
    };
    // Watching is an indefinitely-idle activity: disable the client-side
    // read deadline so a quiet audit log does not look like a dead peer.
    let config = eba::server::ClientConfig {
        read_timeout: None,
        ..eba::server::ClientConfig::default()
    };
    let mut client = eba::server::Client::connect_with(addr, config)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let reply = client.send(&subscribe)?;
    let _ = writeln!(std::io::stdout(), "{}", reply.render());
    if !reply.is_ok() {
        exit(1);
    }
    let mut seen = 0usize;
    loop {
        let frame = match client.next_event() {
            Ok(frame) => frame,
            // Server shutdown closes subscribed sessions without a
            // farewell frame; that is a clean end of the feed.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let _ = writeln!(std::io::stdout(), "{}", frame.render());
        if !frame.is_event() {
            // `ERR slow-consumer` (we fell behind) or any other
            // server-initiated teardown notice ends the feed.
            exit(1);
        }
        seen += 1;
        if events > 0 && seen >= events {
            let _ = client.send("QUIT");
            return Ok(());
        }
    }
}

// ---------------------------------------------------------- investigate

fn cmd_investigate(opts: &Options) -> CliResult {
    let mut loaded = load_data(Path::new(opts.require("data")))?;
    let with_groups = opts.flag("groups");
    if with_groups {
        add_groups(&mut loaded)?;
    }
    let explainer = build_explainer(&loaded, with_groups)?;
    // One warm engine, one suite evaluation: the residue it leaves
    // feeds the headline, the diagnosis loop and the triage queue.
    let spec = loaded.spec;
    let db = &loaded.db;
    let engine = Engine::new(db);
    let view = AuditView::warm(db, &engine);
    let explained = explained(&view, &spec, explainer.templates());
    let unexplained = unexplained(&view, &spec, &explained);
    let total = db.table(spec.table).len();
    println!(
        "{} of {} accesses unexplained ({:.1}%)",
        unexplained.len(),
        total,
        100.0 * unexplained.len() as f64 / total.max(1) as f64
    );
    let mut snoop_like = 0usize;
    for rid in unexplained.iter() {
        if looks_like_snooping(&diagnose(db, &spec, &explainer, rid)?) {
            snoop_like += 1;
        }
    }
    println!(
        "{} look like snooping (the data points at a different user); {} are data gaps",
        snoop_like,
        unexplained.len() - snoop_like
    );
    let top: usize = opts.parsed("top", 10);
    println!("\ntop users by unexplained accesses:");
    let queue = misuse_summary(&view, &spec, &unexplained);
    for s in queue.iter().take(top) {
        println!(
            "  user {:<8} {:>5} unexplained across {:>5} patients",
            s.user.display(db.pool()).to_string(),
            s.unexplained,
            s.distinct_patients
        );
    }
    if queue.len() > top {
        println!(
            "  … and {} more rows (raise --top to see them)",
            queue.len() - top
        );
    }
    Ok(())
}
