//! # eba-bench
//!
//! The `reproduce` binary and, as a package of its own under
//! `src/bin/eba_benchmark/`, the wire-level benchmark that `BENCHMARK.json`
//! declares.
//!
//! * `cargo run -p eba-bench --release --bin reproduce` regenerates every
//!   table and figure of the paper's evaluation (optionally a single one:
//!   `-- fig13`, and `--scale tiny|small|default`, `--csv <dir>`).
//! * `cargo run --release --manifest-path
//!   crates/bench/src/bin/eba_benchmark/Cargo.toml -- --smoke` runs every
//!   benchmark workload once on a small hospital; its `mine` workload's
//!   `mine_job_ms` times the miner.

use eba_synth::SynthConfig;

/// Resolves a `--scale` argument.
pub fn scale_config(name: &str) -> Option<SynthConfig> {
    match name {
        "tiny" => Some(SynthConfig::tiny()),
        "small" => Some(SynthConfig::small()),
        "default" => Some(SynthConfig::default_scale()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve() {
        assert!(scale_config("tiny").is_some());
        assert!(scale_config("small").is_some());
        assert!(scale_config("default").is_some());
        assert!(scale_config("nope").is_none());
    }
}
