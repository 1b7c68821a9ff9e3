//! User-centric auditing: the patient portal of the paper's introduction.
//!
//! "Consider a patient Alice who is using a user-centric auditing system.
//! She logs into the patient portal and requests a log of all accesses to
//! her medical record. [...] Looking at this log, Alice would like to
//! understand the reason for each of these accesses."
//!
//! Generates a synthetic hospital, builds collaborative groups from the
//! log, assembles an explainer (hand-crafted + group templates), and prints
//! the access report — with explanations — for the most-accessed patient.
//!
//! Run with: `cargo run --release --example patient_portal`

use eba::audit::groups::{collaborative_groups, install_groups};
use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::portal::patient_report;
use eba::audit::{split, AuditView, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::LogSpec;
use eba::relational::Engine;
use eba::synth::{Hospital, SynthConfig};

fn main() {
    let mut hospital = Hospital::generate(SynthConfig::small());
    let spec = LogSpec::conventional(&hospital.db).expect("Log table");

    // Infer who-works-with-whom from the first six days of the log (§4).
    let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
    let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
        .expect("Users table");
    install_groups(&mut hospital.db, &groups).expect("installs");

    // The explainer: the paper's hand-crafted suite plus group templates.
    let handcrafted = HandcraftedTemplates::build(&hospital.db, &spec).expect("schema");
    let mut templates: Vec<_> = handcrafted.all().into_iter().cloned().collect();
    for event in EventTable::ALL {
        templates.push(same_group(&hospital.db, &spec, event, Some(1)).expect("Groups installed"));
    }
    let explainer = Explainer::new(templates);

    // Pick the most-accessed patient — the busiest report.
    let log = hospital.db.table(hospital.t_log);
    let idx = log.index(hospital.log_cols.patient);
    let (patient, _) = idx
        .groups()
        .into_iter()
        .max_by_key(|(_, rows)| rows.len())
        .expect("log not empty");

    let engine = Engine::new(&hospital.db);
    let view = AuditView::warm(&hospital.db, &engine);
    let report =
        patient_report(&view, &spec, &hospital.log_cols, &explainer, patient).expect("report");
    println!(
        "Access report for patient {} ({} accesses)\n",
        patient.display(hospital.db.pool()),
        report.len()
    );
    println!("{:<6} {:<16} {:<8} explanation", "lid", "time", "user");
    println!("{}", "-".repeat(72));
    let mut explained = 0usize;
    for entry in &report {
        if entry.explanation.is_some() {
            explained += 1;
        }
        println!(
            "{:<6} {:<16} {:<8} {}",
            entry.lid.display(hospital.db.pool()).to_string(),
            entry.date.display(hospital.db.pool()).to_string(),
            entry.user.display(hospital.db.pool()).to_string(),
            entry.display_text()
        );
    }
    println!(
        "\n{} of {} accesses explained ({:.0}%).",
        explained,
        report.len(),
        100.0 * explained as f64 / report.len().max(1) as f64
    );
}
