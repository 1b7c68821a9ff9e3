//! The compliance office's view: daily explanation trends, a triage queue
//! of suspicious users, and per-access investigation of near-misses —
//! recomputed live as the log ingests.
//!
//! The paper's pitch to compliance officers is that explanations "reduce
//! the set of accesses that must be examined to those that are
//! unexplained". This example shows the day-to-day artifacts built on
//! that: a timeline, a triage queue, and a near-miss diagnosis that
//! separates "no data at all" (float staff, truncated records) from "the
//! data points at a *different* user" (the snooping signature).
//!
//! The office runs *while* the hospital works, so the whole dashboard
//! sits on a [`ShardedEngine`] with its suite pinned — the production
//! path `eba-serve` uses: every view below reads one pinned epoch
//! and the explained/unexplained partition it carries (maintained inside
//! ingest, never re-evaluated here), and each overnight batch is
//! published with `session.ingest(..)` — the refresh-on-ingest loop at
//! the end never blocks a dashboard that is mid-recomputation.
//! Clock-skewed accesses (a workstation stamping day 0) land in the
//! timeline's explicit overflow bucket instead of silently inflating the
//! compliance rate.
//!
//! Run with: `cargo run --release --example compliance_dashboard`

use eba::audit::groups::{collaborative_groups, install_groups};
use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::investigate::{diagnose, looks_like_snooping};
use eba::audit::portal::misuse_summary;
use eba::audit::timeline::{daily_stats, Timeline};
use eba::audit::{split, AuditView, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::LogSpec;
use eba::relational::{ShardKey, ShardedEngine, Value};
use eba::synth::{Hospital, SynthConfig};

fn print_timeline(timeline: &Timeline) {
    println!(
        "{:>4} {:>8} {:>10} {:>8}   {:>6} {:>9}",
        "day", "accesses", "explained", "rate", "firsts", "explained"
    );
    for s in &timeline.days {
        println!(
            "{:>4} {:>8} {:>10} {:>7.1}%   {:>6} {:>9}",
            s.day,
            s.total,
            s.explained,
            100.0 * s.explained_rate(),
            s.first_accesses,
            s.first_explained
        );
    }
    if timeline.dropped() > 0 {
        println!(
            "  !! {} accesses outside the reporting window (clock skew?) — {} explained",
            timeline.dropped(),
            timeline.overflow.explained
        );
    }
}

fn main() {
    let config = SynthConfig {
        n_snoop_accesses: 40,
        ..SynthConfig::small()
    };
    let mut hospital = Hospital::generate(config);
    let spec = LogSpec::conventional(&hospital.db).expect("Log table");
    let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
    let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
        .expect("Users table");
    install_groups(&mut hospital.db, &groups).expect("installs");

    let handcrafted = HandcraftedTemplates::build(&hospital.db, &spec).expect("schema");
    let mut templates: Vec<_> = handcrafted.all().into_iter().cloned().collect();
    for e in EventTable::ALL {
        templates.push(same_group(&hospital.db, &spec, e, Some(1)).expect("Groups installed"));
    }
    let explainer = Explainer::new(templates);

    // The long-running office session: the database moves into the
    // snapshot-handoff cell with the suite pinned; every view below pins
    // one epoch, the ingest loop at the end publishes new ones.
    let key = ShardKey {
        table: spec.table,
        col: spec.patient_col,
    };
    let session = ShardedEngine::new(hospital.db.clone(), key, 1);
    let pin = session.pin_suite(explainer.suite_pin(&spec));
    let epochs = session.load();
    let view = AuditView::pinned(&epochs);
    let partition = epochs.maintained(pin).expect("the suite is pinned");
    let db = view.db();

    // ---- 1. the timeline -----------------------------------------------
    println!("== Daily explanation timeline (epoch {}) ==", epochs.seq());
    let timeline = daily_stats(
        &view,
        &spec,
        &hospital.log_cols,
        hospital.config.days,
        &partition.explained,
    );
    print_timeline(&timeline);

    // ---- 2. the triage queue -------------------------------------------
    println!("\n== Triage queue (top unexplained users) ==");
    let queue = misuse_summary(&view, &spec, &partition.unexplained);
    for s in queue.iter().take(5) {
        println!(
            "user {:<6} {:>4} unexplained accesses across {:>4} patients",
            s.user.display(db.pool()).to_string(),
            s.unexplained,
            s.distinct_patients
        );
    }

    // ---- 3. investigation: classify the unexplained ---------------------
    println!("\n== Investigation of unexplained accesses ==");
    let unexplained = &partition.unexplained;
    let mut snoop_like = 0usize;
    let mut data_gap = 0usize;
    for rid in unexplained.iter() {
        let d = diagnose(db, &spec, &explainer, rid).expect("valid templates");
        if looks_like_snooping(&d) {
            snoop_like += 1;
        } else {
            data_gap += 1;
        }
    }
    println!(
        "{} unexplained accesses: {} look like snooping (data points at another user), {} are data gaps",
        unexplained.len(),
        snoop_like,
        data_gap
    );

    // Show one concrete investigation, from the same frozen epoch.
    if let Some(rid) = unexplained.iter().find(|&rid| {
        let d = diagnose(db, &spec, &explainer, rid).expect("valid");
        looks_like_snooping(&d)
    }) {
        let row = db.table(hospital.t_log).row(rid);
        println!(
            "\nexample: user {} accessed patient {}'s record — closest template verdicts:",
            row[hospital.log_cols.user].display(db.pool()),
            row[hospital.log_cols.patient].display(db.pool()),
        );
        for d in diagnose(db, &spec, &explainer, rid)
            .expect("valid")
            .iter()
            .take(3)
        {
            println!("  - {}", d.summary());
        }
    }

    // ---- 4. the refresh-on-ingest loop ----------------------------------
    // Two overnight batches arrive while the views above could still be
    // rendering: each ingest publishes a new epoch; the dashboard simply
    // re-pins and recomputes. The second batch includes a workstation
    // with a skewed clock — its accesses surface in the overflow bucket
    // instead of disappearing.
    println!("\n== Overnight ingest: the dashboard follows the log ==");
    let users = eba::audit::fake::user_pool(&hospital.db);
    let patients: Vec<Value> = (0..hospital.world.n_patients())
        .map(|p| hospital.patient_value(p))
        .collect();
    // The night's feed: the hospital's own copy of the log keeps growing
    // and each batch of new rows is handed to the session.
    let mut feed = hospital.db.clone();
    for round in 0..2u64 {
        let skewed = if round == 1 { 7 } else { 0 };
        let before = feed.table(hospital.t_log).len();
        eba::audit::fake::FakeLog::inject(
            &mut feed,
            hospital.t_log,
            &hospital.log_cols,
            &users,
            &patients,
            150,
            hospital.config.days,
            0xD45_u64 + round,
        );
        // The skewed workstation: same accesses, impossible day stamp.
        let arity = feed.table(hospital.t_log).schema().arity();
        for i in 0..skewed {
            let mut row = vec![Value::Null; arity];
            row[hospital.log_cols.lid] = Value::Int(900_000 + i);
            row[hospital.log_cols.date] = Value::Date(0);
            row[hospital.log_cols.user] = users[i as usize % users.len()];
            row[hospital.log_cols.patient] = patients[i as usize % patients.len()];
            row[hospital.log_cols.day] = Value::Int(0);
            row[hospital.log_cols.is_first] = Value::Int(0);
            feed.insert(hospital.t_log, row).unwrap();
        }
        let log = feed.table(hospital.t_log);
        let (_, report) = session.ingest(|batch| {
            for rid in before..log.len() {
                // Strings are re-interned through the batch: the feed's
                // symbols mean nothing in the served pool.
                let row: Vec<Value> = log
                    .row(rid as u32)
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => batch.str_value(feed.pool().resolve(*s)),
                        other => *other,
                    })
                    .collect();
                batch.insert_log(row).unwrap();
            }
        });
        // An advance that had to re-ask the whole residue is an
        // operational event the office should hear about.
        if let Some(notice) = report.full_residue_notice() {
            eprintln!("!! {notice}");
        }
        let epochs = session.load();
        let partition = epochs.maintained(pin).expect("the suite is pinned");
        let timeline = daily_stats(
            &AuditView::pinned(&epochs),
            &spec,
            &hospital.log_cols,
            hospital.config.days,
            &partition.explained,
        );
        println!(
            "\nepoch {}: +{} rows ingested ({} step maps kept warm across the handoff)",
            report.seq,
            report.new_rows(),
            epochs.shards()[0].engine().cached_step_maps(),
        );
        print_timeline(&timeline);
    }
}
