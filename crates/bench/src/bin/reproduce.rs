//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! reproduce [--scale tiny|small|default] [--seed N] [--csv DIR] [ARTIFACT...]
//! ```
//!
//! With no `ARTIFACT` arguments every experiment but `scaling` runs in
//! paper order. Artifacts: `overview fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 table1 ext scaling` (`fig10` and `fig11` come as one pair;
//! `scaling` regenerates the hospital at three sizes). An unknown name is
//! a usage error (exit 2).

use eba_bench::scale_config;
use eba_experiments::{
    fig_events, fig_groups, fig_handcrafted, fig_mining, fig_predictive, overview, FigureResult,
    Scenario,
};
use eba_synth::SynthConfig;
use std::io::Write;

/// Every name `ARTIFACT` accepts.
const ARTIFACTS: [&str; 13] = [
    "overview", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table1", "ext", "scaling",
];

fn main() {
    let mut scale = "default".to_string();
    let mut seed: Option<u64> = None;
    let mut csv_dir: Option<String> = None;
    let mut artifacts: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("missing --seed value"));
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--seed expects an integer")),
                );
            }
            "--csv" => csv_dir = Some(args.next().unwrap_or_else(|| usage("missing --csv dir"))),
            "--help" | "-h" => usage(""),
            other if ARTIFACTS.contains(&other) => artifacts.push(other.to_string()),
            other => usage(&format!("unknown artifact `{other}`")),
        }
    }

    let mut config: SynthConfig =
        scale_config(&scale).unwrap_or_else(|| usage(&format!("unknown scale `{scale}`")));
    if let Some(s) = seed {
        config.seed = s;
    }

    eprintln!(
        "# generating hospital (scale={scale}, seed={}, {} patients)...",
        config.seed, config.n_patients
    );
    let started = std::time::Instant::now();
    let scenario = Scenario::build(config);
    eprintln!(
        "# ready: {} accesses, {} users, groups to depth {} ({:.1}s)",
        scenario.hospital.log_len(),
        scenario.hospital.world.n_users(),
        scenario.groups.hierarchy.depth_count() - 1,
        started.elapsed().as_secs_f64()
    );

    let all = artifacts.is_empty();
    let want = |name: &str| all || artifacts.iter().any(|a| a == name);
    let mut results: Vec<FigureResult> = Vec::new();

    if want("overview") {
        results.push(overview::data_overview(&scenario));
    }
    if want("fig6") {
        results.push(fig_events::fig06(&scenario));
    }
    if want("fig7") {
        results.push(fig_handcrafted::fig07(&scenario));
    }
    if want("fig8") {
        results.push(fig_events::fig08(&scenario));
    }
    if want("fig9") {
        results.push(fig_handcrafted::fig09(&scenario));
    }
    if want("fig10") || want("fig11") {
        results.extend(fig_groups::fig10_11(&scenario));
    }
    if want("fig12") {
        results.push(fig_groups::fig12(&scenario));
    }
    if want("fig13") {
        results.push(fig_mining::fig13(&scenario));
    }
    if want("fig14") {
        results.push(fig_predictive::fig14(&scenario));
    }
    if want("table1") {
        results.push(fig_mining::table1(&scenario));
    }
    if want("ext") {
        results.push(eba_experiments::ext_decorated::ext_decorated(&scenario));
    }
    if artifacts.iter().any(|a| a == "scaling") {
        let quarter = scenario.hospital.config.n_patients / 4;
        let half = scenario.hospital.config.n_patients / 2;
        let full = scenario.hospital.config.n_patients;
        results.push(eba_experiments::ext_scaling::ext_scaling(&[
            quarter, half, full,
        ]));
    }

    let mut stdout = std::io::stdout().lock();
    for r in &results {
        writeln!(stdout, "{r}").expect("stdout");
    }
    writeln!(
        stdout,
        "# total wall-clock: {:.1}s",
        started.elapsed().as_secs_f64()
    )
    .expect("stdout");

    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for r in &results {
            let name =
                r.id.to_lowercase()
                    .replace(' ', "_")
                    .replace(['(', ')'], "");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, r.to_csv()).expect("write csv");
            eprintln!("# wrote {path}");
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: reproduce [--scale tiny|small|default] [--seed N] [--csv DIR] [ARTIFACT...]\n\
         artifacts: {}",
        ARTIFACTS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
