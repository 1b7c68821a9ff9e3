//! Misuse detection: the paper's secondary application — served live.
//!
//! "If we are able to automatically construct explanations for why accesses
//! occurred, we can conceivably use this information to reduce the set of
//! accesses that must be examined to those that are unexplained."
//!
//! Generates a hospital with injected snooping accesses (the Britney
//! Spears / presidential-passport scenario), mines explanation templates
//! from the log — and then, instead of calling the library directly, runs
//! the whole investigation **against a live `eba-serve` instance over real
//! TCP sockets**: the detector session pins an epoch, reads the
//! unexplained set and the triage queue over the wire, `INGEST`s fresh
//! suspicious batches through the single-writer path, and `REPIN`s to
//! follow the log. A rebuild fallback reported by an ingest is surfaced
//! as a warning instead of being silently dropped.
//!
//! Run with: `cargo run --release --example misuse_detection`

use eba::audit::groups::{collaborative_groups, install_groups};
use eba::audit::handcrafted::HandcraftedTemplates;
use eba::audit::{split, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::{mine_one_way, ExplanationTemplate, LogSpec, MiningConfig};
use eba::relational::Value;
use eba::server::{default_shard_count, AuditService, Client, IngestRow, Server};
use eba::synth::{AccessReason, Hospital, SynthConfig};
use std::collections::HashSet;

fn main() {
    let config = SynthConfig {
        n_snoop_accesses: 25,
        ..SynthConfig::small()
    };
    let mut hospital = Hospital::generate(config);
    let spec = LogSpec::conventional(&hospital.db).expect("Log table");

    // Groups from the train period, then mine templates automatically.
    let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
    let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
        .expect("Users table");
    install_groups(&mut hospital.db, &groups).expect("installs");

    let mining = MiningConfig {
        support_frac: 0.01,
        max_length: 4,
        max_tables: 3,
        ..MiningConfig::default()
    };
    let mined = mine_one_way(
        &hospital.db,
        &spec.with_filters(split::days_first(&hospital.log_cols, 1, 6)),
        &mining,
    );
    println!(
        "Mined {} templates from days 1-6 (support ≥ {} accesses).",
        mined.templates.len(),
        mined.threshold
    );

    // The explainer: mined templates + the hand-crafted decorated repeat
    // template (repeat access is not minable without its temporal
    // decoration — §2.1, explanation (C)).
    let handcrafted = HandcraftedTemplates::build(&hospital.db, &spec).expect("schema");
    let mut templates: Vec<ExplanationTemplate> = mined
        .templates
        .iter()
        .map(|t| ExplanationTemplate::new(t.path.clone()))
        .collect();
    templates.push(handcrafted.repeat_access.clone());
    let explainer = Explainer::new(templates);

    // ---- the detection service goes live -------------------------------
    // The database, spec and suite move into an `eba-serve` instance on an
    // ephemeral port; everything below talks to it over a real socket.
    let service = AuditService::new_sharded(
        hospital.db.clone(),
        spec.clone(),
        hospital.log_cols,
        explainer,
        hospital.config.days,
        default_shard_count(),
    );
    let server = Server::spawn(service, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    println!("\neba-serve listening on {addr}; detector session connecting...");
    let mut detector = Client::connect(addr).expect("connect");
    println!("server greeting: {}", detector.greeting().head);

    let unexplained = detector.send("UNEXPLAINED").expect("unexplained");
    let count: usize = unexplained.field("unexplained").unwrap().parse().unwrap();
    let total: usize = unexplained.field("of").unwrap().parse().unwrap();
    println!(
        "\n{count} of {total} accesses unexplained ({:.1}%) — the compliance office's review set shrank by {:.1}x.",
        100.0 * count as f64 / total as f64,
        total as f64 / count.max(1) as f64,
    );

    // Where did the snoops go? Match the wire listing's lids against the
    // generator's ground truth.
    let flagged_lids: HashSet<i64> = unexplained
        .body
        .iter()
        .filter_map(|line| line.strip_prefix("lid ")?.split_whitespace().next())
        .filter_map(|lid| lid.parse().ok())
        .collect();
    let snoop_lids: Vec<i64> = (0..hospital.log_len() as u32)
        .filter(|&rid| hospital.reason_of(rid) == AccessReason::Snoop)
        .filter_map(
            |rid| match hospital.db.table(hospital.t_log).row(rid)[hospital.log_cols.lid] {
                Value::Int(lid) => Some(lid),
                _ => None,
            },
        )
        .collect();
    let caught = snoop_lids
        .iter()
        .filter(|l| flagged_lids.contains(l))
        .count();
    println!(
        "Injected snooping accesses: {} — {} remain unexplained (flagged).",
        snoop_lids.len(),
        caught
    );

    println!("\nTop users by unexplained accesses (MISUSE over the wire):");
    println!(
        "{:<8} {:>12} {:>18}",
        "user", "unexplained", "distinct patients"
    );
    let top = detector.send("MISUSE").expect("misuse");
    for line in top.body.iter().take(8) {
        let mut f = line.split_whitespace();
        let user = f.nth(1).unwrap_or("?");
        let unexplained = f.nth(1).unwrap_or("?");
        let patients = f.nth(1).unwrap_or("?");
        println!("{user:<8} {unexplained:>12} {patients:>18}");
    }
    println!(
        "\n(Float-pool users — vascular access, anesthesiology — dominate, as the paper found;"
    );
    println!(" their work leaves no database trace, so they are flagged for manual review.)");

    // ---- the detector keeps up with the log ------------------------------
    // Two fresh waves of uniformly-random accesses (the paper's fake-log
    // methodology — behaviourally identical to snooping) stream in through
    // the protocol's single-writer INGEST path. Each batch publishes a new
    // epoch; the detector REPINs and re-reads the unexplained count. A
    // `rebuilt 1` reply (the incremental refresh was refused and the
    // engine was rebuilt) is surfaced as a warning, never dropped.
    println!("\n== Live ingest: two more batches of suspicious accesses ==");
    let users = eba::audit::fake::user_pool(&hospital.db);
    let patients: Vec<Value> = (0..hospital.world.n_patients())
        .map(|p| hospital.patient_value(p))
        .collect();
    let as_int = |v: &Value| match v {
        Value::Int(i) => *i,
        _ => 0,
    };
    for round in 0..2usize {
        let rows: Vec<IngestRow> = (0..20)
            .map(|i| IngestRow {
                user: as_int(&users[(round * 31 + i * 17) % users.len()]),
                patient: as_int(&patients[(round * 53 + i * 29) % patients.len()]),
                day: Some(1 + ((round + i) % hospital.config.days as usize) as i64),
            })
            .collect();
        let reply = detector.ingest(&rows).expect("ingest");
        for warn in reply.body.iter().filter(|l| l.starts_with("warn ")) {
            eprintln!("!! {warn}");
        }
        let repin = detector.send("REPIN").expect("repin");
        let fresh = detector.send("UNEXPLAINED 0").expect("recount");
        println!(
            "epoch {}: +{} injected accesses (rebuilt {}), {} total unexplained after {}",
            reply.field("seq").unwrap(),
            reply.field("rows").unwrap(),
            reply.field("rebuilt").unwrap(),
            fresh.field("unexplained").unwrap(),
            repin.head.trim_start_matches("OK "),
        );
    }

    let _ = detector.send("QUIT");
    drop(server); // graceful shutdown: joins the in-flight session threads
    println!("\nserver shut down cleanly.");
}
