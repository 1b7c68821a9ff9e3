//! `eba_benchmark`: the wire-level benchmark of the audit service that
//! `BENCHMARK.json` at the repository root names. See `README.md` beside
//! this file for the metric glossary, the workloads and the layer →
//! end-to-end predictions.
//!
//! ```text
//! eba_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--json PATH]
//!     one run of one workload; the last stdout line is the result object
//! eba_benchmark [--seed N] [--seconds S] [--repeat R] [--trace] [--smoke] [--json PATH]...
//!     every workload, each run in its own child process; medians over R repeats;
//!     one set of R repeats per --json, the sets' runs interleaved
//! eba_benchmark compare A.json B.json
//!     ok | worse | unresolved per workload x end-to-end metric of two result files
//! ```

mod compare;
mod json;
mod layers;
mod load;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use json::Json;
use run::{RunArgs, RunResult};
use spec::{Declared, Workload};
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: eba_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--json PATH]\n       \
         eba_benchmark [--seed N] [--seconds S] [--repeat R] [--trace] [--smoke] [--json PATH]...\n       \
         eba_benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
    /// One run: where its self-description goes. Every workload: the
    /// result file — or several, for as many sets recorded at once.
    json: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        repeat: 3,
        smoke: false,
        json: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| (1..=99).contains(r))
                    .ok_or("--repeat expects 1..=99".to_string())?
            }
            // `--trace 0|1` (one run) or a bare `--trace` (all workloads).
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--json" => cli.json.push(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(r: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(r.failures.is_empty())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failures.len() as f64)),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit.clone())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

fn find_workload(name: &str, smoke: bool) -> Option<Workload> {
    spec::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .map(|w| if smoke { w.smoke() } else { w })
}

/// `--seconds`, or half a second for `--smoke`, or `run_seconds`.
fn seconds(cli: &Cli, declared: &Declared) -> f64 {
    cli.seconds
        .unwrap_or(if cli.smoke { 0.5 } else { declared.run_seconds })
}

fn one_run(cli: &Cli, name: &str) -> ExitCode {
    let Some(workload) = find_workload(name, cli.smoke) else {
        return usage(&format!("unknown workload `{name}`"));
    };
    let seconds = seconds(cli, &Declared::load());
    let result = run::run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
    });
    for line in &result.report {
        println!("{line}");
    }
    if let Some(path) = cli.json.first() {
        if let Err(e) = std::fs::write(path, result.detail.render() + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&result));
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--workload name` in a child process of this binary, so peak
/// RSS and allocator state are per run. Returns the child's result line
/// and detail file.
fn child_run(cli: &Cli, name: &str, trace: bool, seconds: f64) -> Result<(Json, Json), String> {
    std::fs::create_dir_all(run::RUN_DIR).map_err(|e| e.to_string())?;
    let detail_path = std::path::Path::new(run::RUN_DIR).join(format!(
        "detail-{name}-{}-{}.json",
        cli.seed,
        std::process::id()
    ));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--json")
        .arg(&detail_path);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last)
        .map_err(|e| format!("{name}: no result line ({e}); exit {:?}", out.status.code()))?;
    let detail = std::fs::read_to_string(&detail_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))?;
    let _ = std::fs::remove_file(&detail_path);
    if trace {
        // The traced run's table is the point of running it.
        for l in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{l}");
        }
    }
    Ok((line, detail))
}

/// Median, extremes and the runs themselves of one value over the repeats.
fn over_repeats(values: &[f64], unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(stats::median(values))),
        ("unit", Json::str(unit)),
        (
            "min",
            Json::Num(values.iter().copied().fold(f64::MAX, f64::min)),
        ),
        (
            "max",
            Json::Num(values.iter().copied().fold(f64::MIN, f64::max)),
        ),
        (
            "runs",
            Json::Arr(values.iter().copied().map(Json::Num).collect()),
        ),
    ])
}

/// Prints one set's medians per workload and returns its result file.
fn summarize(
    declared: &Declared,
    seed: u64,
    seconds: f64,
    repeat: usize,
    runs: &[Vec<(Json, Json)>],
) -> Json {
    let (mut results, mut digests, mut demoted) = (Vec::new(), Vec::new(), Vec::new());
    for ((name, why), runs) in declared.workloads.iter().zip(runs) {
        println!("== {name}: {why}");
        let digest = runs
            .last()
            .and_then(|(_, detail)| detail.get("input_digest")?.as_str())
            .unwrap_or("?");
        let mut per_metric = Vec::new();
        for decl in &declared.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(line, _)| {
                    line.get("metrics")?.get(&decl.name)?.get("value")?.as_f64()
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            // The spread the acceptance check takes over its ten runs,
            // here over however many repeats there are.
            let spread = stats::spread(&values).map_or("-".to_string(), |s| format!("{s:.3}"));
            println!(
                "  {:<24} {:>14.4} {:<8} min {:.4} max {:.4} spread {spread} over {} run(s)",
                decl.name,
                stats::median(&values),
                decl.unit,
                values.iter().copied().fold(f64::MAX, f64::min),
                values.iter().copied().fold(f64::MIN, f64::max),
                values.len()
            );
            per_metric.push((decl.name.clone(), over_repeats(&values, &decl.unit)));
        }
        // The demoted tails ride along, outside `compare`'s reach.
        let mut tails = Vec::new();
        for tail in ["ingest_ack_p99_ms", "page_p99_ms", "explain_p99_ms"] {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(_, detail)| detail.get("tails")?.get(tail)?.as_f64())
                .collect();
            if !values.is_empty() {
                tails.push((tail.to_string(), over_repeats(&values, "ms")));
            }
        }
        results.push((name.clone(), Json::obj(per_metric)));
        digests.push((name.clone(), Json::str(digest)));
        demoted.push((name.clone(), Json::obj(tails)));
    }
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        ("claim", Json::Null),
        ("input_digests", Json::obj(digests)),
        ("results", Json::obj(results)),
        ("demoted_tails", Json::obj(demoted)),
    ])
}

fn all_workloads(cli: &Cli) -> ExitCode {
    let declared = Declared::load();
    let seconds = seconds(cli, &declared);
    let repeat = if cli.smoke { 1 } else { cli.repeat };
    let sets = cli.json.len().max(1);
    let mut failed = 0u64;
    // One child run; its failed checks (or its failing to run) are counted.
    let mut child = |name: &str, trace: bool| -> Option<(Json, Json)> {
        match child_run(cli, name, trace, seconds) {
            Ok((line, detail)) => {
                failed += line.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
                Some((line, detail))
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
                None
            }
        }
    };
    // Repeat by repeat, set by set, every workload in turn: the repeats
    // of one workload lie minutes apart, so their scatter shows how far
    // the machine's speed wanders while a set is recorded, which is what
    // `compare` needs to know before it calls a difference of medians a
    // change; and sets recorded at once (one `--json` each) see the same
    // machine.
    let mut runs = vec![vec![Vec::new(); declared.workloads.len()]; sets];
    for r in 0..repeat {
        for (s, set) in runs.iter_mut().enumerate() {
            for ((name, _), runs) in declared.workloads.iter().zip(set) {
                eprintln!(
                    "# repeat {} of {repeat}, set {} of {sets}: {name}",
                    r + 1,
                    s + 1
                );
                runs.extend(child(name, false));
            }
        }
    }
    for (s, set) in runs.iter().enumerate() {
        if sets > 1 {
            println!("=== set {} of {sets}", s + 1);
        }
        let file = summarize(&declared, cli.seed, seconds, repeat, set);
        if let Some(path) = cli.json.get(s) {
            if let Err(e) = std::fs::write(path, file.render() + "\n") {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if cli.trace {
        for (name, _) in &declared.workloads {
            child(name, true);
        }
    }
    println!("failed checks: {failed}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage("compare takes two result files");
        };
        let load = |p: &String| -> Result<Json, String> {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
        };
        return match (load(a), load(b)) {
            (Ok(a), Ok(b)) => {
                if compare::compare(&a, &b) == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => usage(&e),
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    match cli.workload.clone() {
        Some(name) => one_run(&cli, &name),
        None => all_workloads(&cli),
    }
}
