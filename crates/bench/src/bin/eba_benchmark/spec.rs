//! What the benchmark measures: the metric declarations (read from the
//! `BENCHMARK.json` embedded at build time, so names, units, directions
//! and bounds have one source) and the five workloads' parameters.

use crate::json::Json;

/// The repository's `BENCHMARK.json`, five directories up.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// The share of the base median a value may worsen by; per-layer
    /// metrics carry none.
    pub bound: Option<f64>,
}

/// The declarations of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: f64,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
    /// `(name, why)` per workload, in file order.
    pub workloads: Vec<(String, String)>,
}

impl Declared {
    pub fn load() -> Declared {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let decls = |key: &str| -> Vec<Decl> {
            root.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_else(|| panic!("BENCHMARK.json {key}: missing `{k}`"))
                            .to_string()
                    };
                    Decl {
                        name: text("name"),
                        unit: text("unit"),
                        higher_is_better: text("better") == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Declared {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json run_seconds"),
            end_to_end: decls("end_to_end"),
            per_layer: decls("per_layer"),
            workloads: root
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| {
                    let text = |k: &str| {
                        w.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (text("name"), text("why"))
                })
                .collect(),
        }
    }
}

/// The auditor session's request cycle, closed loop: `REPIN` (unless the
/// session stays pinned), `metrics` × `METRICS`, `pages` ×
/// `UNEXPLAINED 50 AFTER <cursor>`, `explains` × `EXPLAIN <lid>`, and
/// `reports_num` reports (`TIMELINE` / `MISUSE`, 3:2) per `reports_den`
/// cycles.
#[derive(Debug, Clone, Copy)]
pub struct ReaderPlan {
    pub repin: bool,
    pub metrics: usize,
    pub pages: usize,
    pub explains: usize,
    /// Share of `EXPLAIN`s aimed at the newest 1 000 accesses; the rest
    /// are Zipf over the base log.
    pub explain_recent_share: f64,
    pub reports_num: usize,
    pub reports_den: usize,
}

/// The reader's plan is a pool of this many distinct cycles that a
/// session walks round and round (a multiple of every `reports_den`).
pub const CYCLE_POOL: usize = 60;

/// One workload: a deployment shape plus a traffic mix.
///
/// The driver's interface wants every end-to-end metric, never 0, from
/// every workload (see README.md, "Contract"), so every workload carries
/// every role — a feed writer with a subscriber, auditor sessions, a
/// restart, mining jobs. What makes a workload is the deployment, the
/// sizes, and how `--seconds` is shared out between four kinds of phase:
///
/// * **stream**: the writer and the subscriber, no reader;
/// * **audit**: auditor sessions alone, on a log nobody writes;
/// * **both**: the writer, the subscriber and one auditor at once;
/// * **mining**: mining jobs, nothing served.
///
/// Every phase is a *count* of operations, its share of `--seconds`
/// divided by what one operation took when the sizes were chosen
/// (`batch_ms`, `audit_cycle_ms`, `mine_job_ms`): every run of a
/// workload does the same work on the same states, and a faster system
/// finishes sooner.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub patients: usize,
    pub shards: usize,
    /// `--pile` with `fsync strict`, and the restart replays the pile.
    pub durable: bool,
    /// The run is dealt in this many rounds, each a replicate of the
    /// whole workload in small — fresh set-up, phases, guards, kill,
    /// restart, mining — so every metric's samples are spread over the
    /// whole run and a slow stretch of the machine cannot land on one
    /// metric alone.
    pub rounds: usize,
    /// Shares of `--seconds`; what they leave goes to mining jobs.
    pub stream_share: f64,
    pub audit_share: f64,
    pub both_share: f64,
    /// The audit phase runs before the stream phase (on the base log)
    /// instead of after it (on the grown log).
    pub audit_first: bool,
    pub batch_rows: usize,
    /// Closed loop: what one `INGEST` takes (the writer sends the next
    /// batch as soon as the last is acknowledged). Open loop: a batch is
    /// due every `batch_ms`, whatever became of the one before.
    pub batch_ms: f64,
    /// Open loop: ack latency counts from when the batch was due, not
    /// from when it was sent, so a stall charges the batches queued
    /// behind it.
    pub open_loop: bool,
    pub reader: ReaderPlan,
    /// Auditor sessions of the audit phase, each on its own connection
    /// and thread (the both phase has one, beside the writer).
    pub audit_sessions: usize,
    /// What one audit cycle takes.
    pub audit_cycle_ms: f64,
    /// What one mining job takes.
    pub mine_job_ms: f64,
    /// Batches the traced run replays through the in-process layer twins.
    pub replay_batches: usize,
    /// Set by [`Workload::smoke`]: probes that size their own inputs
    /// shrink them too.
    pub smoke: bool,
}

/// The auditor's mix on a session that stays pinned, per 100 requests:
/// 40 residue pages, 30 explanations, 25 `METRICS`, 3 `TIMELINE` and 2
/// `MISUSE` — dealt in cycles of 20 so a phase ends near its time.
const AUDIT_MIX: ReaderPlan = ReaderPlan {
    repin: false,
    metrics: 5,
    pages: 8,
    explains: 6,
    explain_recent_share: 0.3,
    reports_num: 1,
    reports_den: 1,
};

pub fn workloads() -> [Workload; 5] {
    [
        Workload {
            name: "stream_small",
            rounds: 20,
            patients: 800,
            shards: 1,
            durable: false,
            stream_share: 0.45,
            audit_share: 0.4,
            both_share: 0.0,
            audit_first: false,
            batch_rows: 20,
            batch_ms: 1.4,
            open_loop: false,
            reader: AUDIT_MIX,
            audit_sessions: 1,
            audit_cycle_ms: 10.0,
            mine_job_ms: 55.0,
            replay_batches: 300,
            smoke: false,
        },
        Workload {
            name: "stream_large",
            rounds: 5,
            patients: 20_000,
            shards: 1,
            durable: true,
            stream_share: 0.4,
            audit_share: 0.3,
            both_share: 0.0,
            audit_first: false,
            batch_rows: 500,
            batch_ms: 22.0,
            open_loop: false,
            reader: AUDIT_MIX,
            audit_sessions: 1,
            audit_cycle_ms: 140.0,
            mine_job_ms: 1_450.0,
            replay_batches: 40,
            smoke: false,
        },
        Workload {
            name: "audit_reads",
            rounds: 5,
            patients: 20_000,
            shards: 1,
            durable: false,
            stream_share: 0.1,
            audit_share: 0.55,
            both_share: 0.0,
            audit_first: true,
            batch_rows: 20,
            batch_ms: 17.0,
            open_loop: false,
            reader: AUDIT_MIX,
            audit_sessions: 2,
            audit_cycle_ms: 160.0,
            mine_job_ms: 1_500.0,
            replay_batches: 40,
            smoke: false,
        },
        Workload {
            name: "read_during_ingest",
            rounds: 5,
            patients: 6_000,
            shards: 2,
            durable: true,
            stream_share: 0.0,
            audit_share: 0.0,
            both_share: 0.85,
            audit_first: false,
            batch_rows: 200,
            batch_ms: 100.0,
            open_loop: true,
            reader: ReaderPlan {
                repin: true,
                metrics: 1,
                pages: 1,
                explains: 1,
                explain_recent_share: 1.0,
                reports_num: 1,
                reports_den: 20,
            },
            audit_sessions: 1,
            audit_cycle_ms: 1.0,
            mine_job_ms: 370.0,
            replay_batches: 60,
            smoke: false,
        },
        Workload {
            name: "mine",
            rounds: 5,
            patients: 6_000,
            shards: 1,
            durable: false,
            stream_share: 0.15,
            audit_share: 0.15,
            both_share: 0.0,
            audit_first: false,
            batch_rows: 50,
            batch_ms: 6.2,
            open_loop: false,
            reader: AUDIT_MIX,
            audit_sessions: 1,
            audit_cycle_ms: 30.0,
            mine_job_ms: 390.0,
            replay_batches: 60,
            smoke: false,
        },
    ]
}

impl Workload {
    /// The `--smoke` shape: the same deployment and mix over a small
    /// hospital, so every code path and guard runs in about a second.
    pub fn smoke(mut self) -> Workload {
        self.patients = self.patients.min(400);
        self.replay_batches = self.replay_batches.min(10);
        self.smoke = true;
        self
    }

    /// Batches of a writing phase that is given `seconds`.
    pub fn batches(&self, seconds: f64) -> usize {
        if seconds <= 0.0 {
            0
        } else {
            ((seconds * 1_000.0 / self.batch_ms) as usize).max(2)
        }
    }

    /// Cycles each auditor session runs in an audit phase that is part
    /// of `seconds` worth of phases.
    pub fn audit_cycles(&self, seconds: f64) -> usize {
        if self.audit_share <= 0.0 {
            0
        } else {
            ((seconds * self.audit_share * 1_000.0 / self.audit_cycle_ms).round() as usize).max(1)
        }
    }

    /// Mining jobs of a run of `seconds`, at least one.
    pub fn mine_jobs(&self, seconds: f64) -> usize {
        let share = (1.0 - self.stream_share - self.audit_share - self.both_share).max(0.0);
        ((seconds * share * 1_000.0 / self.mine_job_ms).round() as usize).max(1)
    }
}

/// How many of `total` things fall to `round` when they are dealt as
/// evenly as they go over `rounds`.
pub fn dealt(total: usize, round: usize, rounds: usize) -> usize {
    (round + 1) * total / rounds - round * total / rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_these_workloads_and_unique_metrics() {
        let d = Declared::load();
        let names: Vec<&str> = d.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert!(d.workloads.iter().all(|(_, why)| !why.is_empty()));
        let mut seen = std::collections::HashSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        for m in &d.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&d.run_seconds));
    }

    #[test]
    fn shares_leave_mining_its_part_and_dealing_loses_nothing() {
        for w in workloads() {
            let phases = w.stream_share + w.audit_share + w.both_share;
            assert!(phases < 1.0, "{}: no share left for mining", w.name);
            assert_eq!(CYCLE_POOL % w.reader.reports_den, 0);
            let jobs = w.mine_jobs(10.0);
            let over_rounds: usize = (0..w.rounds).map(|r| dealt(jobs, r, w.rounds)).sum();
            assert_eq!(over_rounds, jobs);
        }
        assert_eq!(
            (0..5).map(|r| dealt(3, r, 5)).collect::<Vec<_>>(),
            [0, 1, 0, 1, 1]
        );
    }
}
