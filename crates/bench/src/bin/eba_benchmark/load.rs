//! Seeded load generation: the RNG, the Zipf sampler, the ingest batches
//! and the reader's command plan, plus the FNV digest that lets two
//! result files be shown to have served the same traffic.

use crate::spec::Workload;
use eba_server::IngestRow;
use eba_synth::{Hospital, SynthConfig};
use std::collections::HashSet;

/// SplitMix64: small, fast, and good enough to decorrelate the streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)`,
/// by inverse CDF over the precomputed cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a, fed the generated inputs in generation order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_i64(&mut self, v: i64) {
        self.eat(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The synthetic hospital behind a workload: `default_scale` (6 000
/// patients) with every staffing count scaled by the patient ratio, so
/// accesses per patient stay put while the log grows with `patients`.
pub fn hospital_config(patients: usize, seed: u64) -> SynthConfig {
    let base = SynthConfig::default_scale();
    let ratio = patients as f64 / base.n_patients as f64;
    let scaled = |n: usize, floor: usize| ((n as f64 * ratio).round() as usize).max(floor);
    SynthConfig {
        seed,
        n_patients: patients,
        n_teams: scaled(base.n_teams, 3),
        n_med_students: scaled(base.n_med_students, 3),
        n_float_users: scaled(base.n_float_users, 3),
        n_float_accesses: scaled(base.n_float_accesses, 40),
        ..base
    }
}

/// One reader command; lids and cursors that depend on what the server
/// said last are resolved when the command is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Repin,
    Metrics,
    /// `UNEXPLAINED 50 [AFTER cursor]`, following the server's cursor and
    /// wrapping to the first page at the end of the residue.
    Page,
    /// `EXPLAIN <lid>` over the base log (a Zipf rank, hot rows first).
    ExplainBase {
        lid: i64,
    },
    /// `EXPLAIN <lid>` among the newest rows: `back` rows behind the
    /// newest lid the reader has seen reported.
    ExplainRecent {
        back: i64,
    },
    Timeline,
    Misuse,
}

/// Everything one run feeds the program, generated from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    pub config: SynthConfig,
    /// Log rows of the generated hospital.
    pub base_rows: usize,
    /// Row counts of every table, for the result file.
    pub table_rows: Vec<(String, usize)>,
    pub batches: Vec<Vec<IngestRow>>,
    /// The reader's cycles, in order; the reader wraps if it outruns them.
    pub cycles: Vec<Vec<ReadOp>>,
    pub digest: u64,
}

/// Rows an `EXPLAIN` of "a recent access" may reach back.
const RECENT_WINDOW: i64 = 1_000;
/// The first out-of-vocabulary user id; one fresh id per batch.
const FRESH_USER_BASE: i64 = 900_000;
/// The reporting day every ingested access is stamped with: the last day
/// of the generated window, so a repeat of a base access is a repeat.
const INGEST_DAY: i64 = 7;

impl Inputs {
    /// Generates the hospital once (to learn its access pairs) and the
    /// whole traffic plan: `n_batches` ingest batches and `n_cycles`
    /// reader cycles.
    pub fn generate(w: &Workload, seed: u64, n_batches: usize, n_cycles: usize) -> Inputs {
        let config = hospital_config(w.patients, seed);
        let h = Hospital::generate(config.clone());
        let base_rows = h.log_len();
        let log = h.db.table(h.t_log);
        // Distinct (user, patient) pairs in first-appearance order: the
        // Zipf ranks, so early pairs are the hot ones.
        let mut seen = HashSet::new();
        let mut pairs: Vec<(i64, i64)> = Vec::new();
        for (_, row) in log.iter() {
            if let (eba_relational::Value::Int(u), eba_relational::Value::Int(p)) =
                (row[h.log_cols.user], row[h.log_cols.patient])
            {
                if seen.insert((u, p)) {
                    pairs.push((u, p));
                }
            }
        }
        let n_users = h.world.users.len().max(1);
        let mut table_rows: Vec<(String, usize)> = [
            h.t_log,
            h.t_appointments,
            h.t_visits,
            h.t_documents,
            h.t_labs,
            h.t_medications,
            h.t_radiology,
            h.t_users,
        ]
        .into_iter()
        .map(|t| {
            let table = h.db.table(t);
            (table.schema().name.clone(), table.len())
        })
        .collect();
        table_rows.sort();

        let mut digest = Fnv::new();
        let pair_zipf = Zipf::new(pairs.len().max(1));
        let mut rng = Rng::stream(seed, 1);
        let batches: Vec<Vec<IngestRow>> = (0..n_batches)
            .map(|b| {
                (0..w.batch_rows)
                    .map(|i| {
                        // Row 0 is an access by a user nobody has seen: no
                        // template can explain it, so every batch adds to
                        // the residue and pushes exactly one EVENT.
                        let (user, patient) = if i == 0 {
                            (
                                FRESH_USER_BASE + b as i64,
                                10_000 + rng.below(w.patients) as i64,
                            )
                        } else if rng.unit() < 0.9 && !pairs.is_empty() {
                            pairs[pair_zipf.sample(&mut rng)]
                        } else {
                            (
                                1 + rng.below(n_users) as i64,
                                10_000 + rng.below(w.patients) as i64,
                            )
                        };
                        digest.eat_i64(user);
                        digest.eat_i64(patient);
                        IngestRow {
                            user,
                            patient,
                            day: Some(INGEST_DAY),
                        }
                    })
                    .collect()
            })
            .collect();

        let lid_zipf = Zipf::new(base_rows.max(1));
        let mut rng = Rng::stream(seed, 2);
        let r = &w.reader;
        let cycles: Vec<Vec<ReadOp>> = (0..n_cycles)
            .map(|c| {
                let mut ops = Vec::new();
                if r.repin {
                    ops.push(ReadOp::Repin);
                }
                ops.extend(std::iter::repeat_n(ReadOp::Metrics, r.metrics));
                ops.extend(std::iter::repeat_n(ReadOp::Page, r.pages));
                for _ in 0..r.explains {
                    ops.push(if rng.unit() < r.explain_recent_share {
                        ReadOp::ExplainRecent {
                            back: rng.below(RECENT_WINDOW as usize) as i64,
                        }
                    } else {
                        ReadOp::ExplainBase {
                            lid: 1 + lid_zipf.sample(&mut rng) as i64,
                        }
                    });
                }
                // `reports_num` reports every `reports_den` cycles, three
                // TIMELINEs to two MISUSEs, alternating.
                let first = c * r.reports_num / r.reports_den;
                let last = (c + 1) * r.reports_num / r.reports_den;
                for k in first..last {
                    ops.push(if k % 5 % 2 == 0 {
                        ReadOp::Timeline
                    } else {
                        ReadOp::Misuse
                    });
                }
                for op in &ops {
                    let (tag, arg) = match *op {
                        ReadOp::Repin => (1, 0),
                        ReadOp::Metrics => (2, 0),
                        ReadOp::Page => (3, 0),
                        ReadOp::ExplainBase { lid } => (4, lid),
                        ReadOp::ExplainRecent { back } => (5, back),
                        ReadOp::Timeline => (6, 0),
                        ReadOp::Misuse => (7, 0),
                    };
                    digest.eat(&[tag]);
                    digest.eat_i64(arg);
                }
                ops
            })
            .collect();

        Inputs {
            config,
            base_rows,
            table_rows,
            batches,
            cycles,
            digest: digest.finish(),
        }
    }

    pub fn hospital(&self) -> Hospital {
        Hospital::generate(self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_and_head_heavy() {
        let z = Zipf::new(1_000);
        let draw = |seed| -> Vec<usize> {
            let mut rng = Rng::stream(seed, 1);
            (0..5_000).map(|_| z.sample(&mut rng)).collect()
        };
        let a = draw(11);
        assert_eq!(a, draw(11), "same seed, same draws");
        assert_ne!(a, draw(12), "another seed, other draws");
        assert!(a.iter().all(|&r| r < 1_000));
        // H(1000) ≈ 7.49, so rank 0 carries ~13% and the top ten ~39%.
        let head = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        let top10 = a.iter().filter(|&&r| r < 10).count() as f64 / a.len() as f64;
        assert!((0.10..0.17).contains(&head), "rank 0 share {head}");
        assert!((0.34..0.44).contains(&top10), "top-10 share {top10}");
        assert_eq!(Zipf::new(1).sample(&mut Rng::stream(3, 1)), 0);
    }

    #[test]
    fn inputs_repeat_per_seed_and_every_batch_opens_with_a_fresh_user() {
        let w = crate::spec::workloads()[0].smoke();
        let a = Inputs::generate(&w, 5, 6, 4);
        let b = Inputs::generate(&w, 5, 6, 4);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.cycles, b.cycles);
        assert_ne!(a.digest, Inputs::generate(&w, 6, 6, 4).digest);
        for (i, batch) in a.batches.iter().enumerate() {
            assert_eq!(batch.len(), w.batch_rows);
            assert_eq!(batch[0].user, FRESH_USER_BASE + i as i64);
        }
        assert!(a.base_rows > 0);
    }
}
