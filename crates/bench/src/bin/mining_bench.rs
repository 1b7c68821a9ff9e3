//! Mining-performance tracker: old per-query path vs. the interned/cached/
//! parallel engine, with machine-readable output.
//!
//! ```text
//! mining-bench [--json PATH] [--samples N] [--scale tiny|small|default|bench]
//! ```
//!
//! Runs the shared-step mining workloads (bottom-up one-way/two-way rounds
//! and decoration refinement) twice each — `opt_engine: false` (every
//! candidate re-scans its tables through `ChainQuery::support`, the
//! pre-engine behaviour) and `opt_engine: true` (shared step-map cache +
//! parallel batches) — asserts both mine the **same template set**, and
//! reports criterion-style medians. With `--json` the medians land in a
//! `BENCH_mining.json`-shaped file (see
//! [`eba_bench::harness::write_bench_json`]) so the perf trajectory is
//! diffable across PRs.

use eba_bench::harness::{print_workloads, write_bench_json, Workload};
use eba_bench::{bench_config, scale_config};
use eba_core::mining::DecorationCandidate;
use eba_core::{mine_one_way, mine_two_way, MiningConfig};
use eba_experiments::Scenario;

fn main() {
    let mut json_path: Option<String> = None;
    let mut samples = 5usize;
    let mut scale = "bench".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| usage("missing --json path")))
            }
            "--samples" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --samples value"));
                samples = v
                    .parse()
                    .unwrap_or_else(|_| usage("--samples expects an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let config = if scale == "bench" {
        bench_config()
    } else {
        scale_config(&scale).unwrap_or_else(|| usage(&format!("unknown scale `{scale}`")))
    };

    eprintln!("# generating hospital (scale={scale})...");
    let scenario = Scenario::build(config);
    let spec = scenario.train_spec();
    let db = &scenario.hospital.db;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "# {} log rows, {} threads, {} samples per measurement",
        scenario.hospital.log_len(),
        threads,
        samples
    );

    let mut workloads: Vec<Workload> = Vec::new();
    let mining = |max_length: usize, opt_engine: bool| MiningConfig {
        support_frac: 0.01,
        max_length,
        max_tables: 3,
        opt_engine,
        ..MiningConfig::default()
    };

    for max_length in [3usize, 4] {
        let on = mining(max_length, true);
        let off = mining(max_length, false);
        let mined_on = mine_one_way(db, &spec, &on);
        let mined_off = mine_one_way(db, &spec, &off);
        assert_eq!(
            mined_on.key_set(),
            mined_off.key_set(),
            "engine changed the one-way template set at length {max_length}"
        );
        workloads.push(Workload::compare(
            format!("one_way/len{max_length}"),
            samples,
            || {
                mine_one_way(db, &spec, &off);
            },
            || {
                mine_one_way(db, &spec, &on);
            },
        ));
    }

    {
        let on = mining(3, true);
        let off = mining(3, false);
        assert_eq!(
            mine_two_way(db, &spec, &on).key_set(),
            mine_two_way(db, &spec, &off).key_set(),
            "engine changed the two-way template set"
        );
        workloads.push(Workload::compare(
            "two_way/len3",
            samples,
            || {
                mine_two_way(db, &spec, &off);
            },
            || {
                mine_two_way(db, &spec, &on);
            },
        ));
    }

    // The bridging algorithm, whose gluing phases batch through the shared
    // engine like the bottom-up rounds.
    {
        let on = mining(4, true);
        let off = mining(4, false);
        let bridged_on = eba_core::mine_bridge(db, &spec, &on, 2).expect("Bridge-2 covers len 4");
        let bridged_off = eba_core::mine_bridge(db, &spec, &off, 2).expect("Bridge-2 covers len 4");
        assert_eq!(
            bridged_on.key_set(),
            bridged_off.key_set(),
            "engine changed the bridged template set"
        );
        workloads.push(Workload::compare(
            "bridge2/len4",
            samples,
            || {
                eba_core::mine_bridge(db, &spec, &off, 2).unwrap();
            },
            || {
                eba_core::mine_bridge(db, &spec, &on, 2).unwrap();
            },
        ));
    }

    // Decoration refinement over the mined set (constant-decorated chains).
    {
        let on = mining(4, true);
        let off = mining(4, false);
        let mined = mine_one_way(db, &spec, &on);
        if let Ok(candidate) = DecorationCandidate::group_depths(db, 3) {
            let threshold = mined.threshold;
            workloads.push(Workload::compare(
                "refine/groups",
                samples,
                || {
                    eba_core::mining::refine(
                        db,
                        &spec,
                        &mined.templates,
                        &candidate,
                        threshold,
                        &off,
                    );
                },
                || {
                    eba_core::mining::refine(
                        db,
                        &spec,
                        &mined.templates,
                        &candidate,
                        threshold,
                        &on,
                    );
                },
            ));
        }
    }

    print_workloads(&workloads);

    if let Some(path) = json_path {
        write_bench_json(&path, "mining-bench", &scale, threads, &workloads).expect("write json");
        eprintln!("# wrote {path}");
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: mining-bench [--json PATH] [--samples N] [--scale tiny|small|default|bench]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
