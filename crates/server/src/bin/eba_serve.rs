//! `eba-serve` — the standalone audit server over a synthetic hospital.
//!
//! ```text
//! eba-serve [--addr HOST:PORT] [--scale tiny|small] [--seed N]
//!           [--shards N] [--pile FILE] [--fsync strict|relaxed]
//!           [--timeout SECS] [--max-conn N]
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port), prints one
//! `listening on <addr>` line to stdout, and serves the line protocol
//! (see `eba_server::protocol`) until killed. Deployments with real CSV
//! data use `eba serve --data DIR` instead — same listener, same
//! protocol, loaded data.
//!
//! `--shards N` hash-partitions the access log by patient into N shards;
//! each `INGEST` refreshes the shards in parallel and sessions pin the
//! whole published epoch vector, so every answer stays byte-identical to
//! the single-shard server. Defaults to `EBA_SHARDS`, else 1.
//!
//! With `--pile FILE` acknowledged `INGEST` batches are durable: startup
//! recovers everything previously acknowledged over the same
//! seed/scale's base data, and `--fsync strict` (the default) fsyncs
//! each batch before its reply. `--timeout SECS` bounds idle sessions
//! (0 disables the deadline). `--max-conn N` caps concurrent sessions;
//! connections over the cap get a typed `ERR busy` greeting and a
//! close, never a silent drop (0 removes the cap).
//!
//! Dashboards subscribe to the push feed with `SUBSCRIBE UNEXPLAINED`
//! or `SUBSCRIBE MISUSE <threshold>`: the session switches into event
//! mode and receives typed `EVENT` frames as `INGEST` batches land.
//! Each subscriber's queue is bounded; a stalled dashboard is shed with
//! one `ERR slow-consumer` frame and never back-pressures the writer.

use eba_server::{AuditService, Server, ServerConfig};
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:4780".to_string();
    let mut scale = "tiny".to_string();
    let mut seed = 7u64;
    let mut shards = eba_server::default_shard_count();
    let mut pile: Option<String> = None;
    let mut fsync = "strict".to_string();
    let mut timeout_secs = 120u64;
    let mut max_conn = ServerConfig::default().max_connections;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage("missing --addr value")),
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("missing --seed value"));
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects an integer"));
            }
            "--shards" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --shards value"));
                shards = v
                    .parse()
                    .unwrap_or_else(|_| usage("--shards expects a positive count"));
                if shards == 0 {
                    usage("--shards expects a positive count");
                }
            }
            "--pile" => pile = Some(args.next().unwrap_or_else(|| usage("missing --pile value"))),
            "--fsync" => {
                fsync = args
                    .next()
                    .unwrap_or_else(|| usage("missing --fsync value"))
            }
            "--timeout" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --timeout value"));
                timeout_secs = v
                    .parse()
                    .unwrap_or_else(|_| usage("--timeout expects seconds"));
            }
            "--max-conn" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --max-conn value"));
                max_conn = v
                    .parse()
                    .unwrap_or_else(|_| usage("--max-conn expects a count (0: unlimited)"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let config = match scale.as_str() {
        "tiny" => eba_synth::SynthConfig::tiny(),
        "small" => eba_synth::SynthConfig::small(),
        other => usage(&format!("unknown scale `{other}`")),
    };
    let config = eba_synth::SynthConfig { seed, ..config };
    let policy = eba_relational::Durability::parse(&fsync)
        .unwrap_or_else(|| usage(&format!("--fsync expects strict|relaxed, got `{fsync}`")));

    eprintln!("eba-serve: generating {scale} hospital (seed {seed})...");
    let hospital = eba_synth::Hospital::generate(config);
    let service = match &pile {
        None => AuditService::from_hospital_sharded(hospital, shards),
        Some(path) => {
            let svc = AuditService::from_hospital_durable_sharded(
                hospital,
                std::path::Path::new(path),
                policy,
                shards,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: cannot open durable store {path}: {e}");
                std::process::exit(1);
            });
            let report = svc.recovery_report().expect("durable service");
            eprintln!(
                "eba-serve: durable ({policy} fsync) pile {path}; {}",
                report.summary()
            );
            svc
        }
    };
    let log_len = service.sharded().load().global_log_len();
    eprintln!(
        "eba-serve: {} accesses, {} templates, {}-day window, {} shard(s)",
        log_len,
        service.explainer.templates().len(),
        service.days,
        service.shard_count()
    );
    let timeout = (timeout_secs > 0).then(|| Duration::from_secs(timeout_secs));
    let server_config = ServerConfig {
        read_timeout: timeout,
        write_timeout: timeout,
        max_connections: max_conn,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with(service, &addr, server_config).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The machine-readable line drive-by clients wait for.
    println!("listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.join();
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: eba-serve [--addr HOST:PORT] [--scale tiny|small] [--seed N]\n\
         \x20                [--shards N] [--pile FILE] [--fsync strict|relaxed]\n\
         \x20                [--timeout SECS] [--max-conn N]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
