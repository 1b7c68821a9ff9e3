//! `compare A.json B.json`: one row per workload × end-to-end metric of
//! two result files written by the all-workloads mode — base, new, ratio,
//! the bound from `BENCHMARK.json`, and a verdict.

use crate::json::Json;
use crate::spec::{Decl, Declared};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Better by more than the bound. Fine for a change; between two
    /// sets of one commit it is a disagreement as much as `worse` is.
    Better,
    /// The repeats of one side scatter wider than the bound, so a
    /// difference of the medians says nothing either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: the median over the repeats and the repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub runs: Vec<f64>,
}

impl Side {
    /// (max − min) of the repeats as a share of their median.
    pub fn spread(&self) -> f64 {
        let max = self.runs.iter().copied().fold(f64::MIN, f64::max);
        let min = self.runs.iter().copied().fold(f64::MAX, f64::min);
        if self.runs.len() < 2 || self.median == 0.0 {
            0.0
        } else {
            (max - min) / self.median.abs()
        }
    }
}

/// `unresolved` when either side's repeats scatter wider than the bound
/// (unless every new run beats every base run: `better`); otherwise
/// `worse` or `better` when the new median is beyond the bound of the
/// base on that side, and `ok` within it. Two sets of one commit agree
/// when nothing reads `worse` or `better`, whichever file comes first.
pub fn verdict(decl: &Decl, base: &Side, new: &Side) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    // Orient so that larger is worse.
    let sign = if decl.higher_is_better { -1.0 } else { 1.0 };
    if base.spread() > bound || new.spread() > bound {
        let worst_new = new.runs.iter().map(|v| v * sign).fold(f64::MIN, f64::max);
        let best_base = base.runs.iter().map(|v| v * sign).fold(f64::MAX, f64::min);
        return if worst_new < best_base {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worsened = (new.median - base.median) * sign / base.median.abs();
    if worsened > bound {
        Verdict::Worse
    } else if worsened < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = file.get("results")?.get(workload)?.get(metric)?;
    Some(Side {
        median: m.get("value")?.as_f64()?,
        runs: m
            .get("runs")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// Prints the comparison; returns how many pairings read `worse` or
/// cannot be read at all (a metric missing from one file, or input
/// digests that differ: the two files did not serve the same traffic).
pub fn compare(base: &Json, new: &Json) -> usize {
    let declared = Declared::load();
    let digest = |f: &Json, w: &str| -> String {
        f.get("input_digests")
            .and_then(|d| d.get(w))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let (mut worse, mut better, mut unresolved, mut unreadable) = (0, 0, 0, 0);
    for (w, _) in &declared.workloads {
        let (da, db) = (digest(base, w), digest(new, w));
        if da != db {
            println!("{w:<20} input digests differ ({da} vs {db}): not the same traffic");
            unreadable += 1;
        }
        for decl in &declared.end_to_end {
            let (Some(a), Some(b)) = (side(base, w, &decl.name), side(new, w, &decl.name)) else {
                println!("{w:<20} {:<24} missing from one file", decl.name);
                unreadable += 1;
                continue;
            };
            let v = verdict(decl, &a, &b);
            let mut note = String::new();
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Better => better += 1,
                Verdict::Unresolved => {
                    unresolved += 1;
                    note = format!(" (repeat spread {:.3} / {:.3})", a.spread(), b.spread());
                }
                Verdict::Ok => {}
            }
            println!(
                "{w:<20} {:<24} {:>14.4} {:>14.4} {:>8.3} {:>6.2}  {}{note}",
                decl.name,
                a.median,
                b.median,
                b.median / a.median,
                decl.bound.unwrap_or(0.0),
                v.label(),
            );
        }
    }
    println!("{worse} worse, {better} better, {unresolved} unresolved, {unreadable} unreadable");
    worse + unreadable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> Decl {
        Decl {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    fn side(runs: &[f64]) -> Side {
        Side {
            median: crate::stats::median(runs),
            runs: runs.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let lower = decl(false);
        let base = side(&[10.0, 10.2, 9.9]);
        // Within the bound either way.
        assert_eq!(
            verdict(&lower, &base, &side(&[10.5, 10.6, 10.4])),
            Verdict::Ok
        );
        assert_eq!(verdict(&lower, &base, &side(&[9.0, 9.5, 9.6])), Verdict::Ok);
        // 20 % slower with tight repeats: worse.
        assert_eq!(
            verdict(&lower, &base, &side(&[12.0, 12.1, 11.9])),
            Verdict::Worse
        );
        // Repeats scattered wider than the bound: nothing can be said...
        assert_eq!(
            verdict(&lower, &base, &side(&[9.0, 12.0, 14.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                &lower,
                &side(&[8.0, 10.0, 13.0]),
                &side(&[10.0, 10.1, 10.2])
            ),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        assert_eq!(
            verdict(&lower, &base, &side(&[4.0, 6.0, 8.0])),
            Verdict::Better
        );
        // 20 % faster with tight repeats: better, and the same two
        // sets read the other way round are worse.
        let fast = side(&[8.0, 8.1, 7.9]);
        assert_eq!(verdict(&lower, &base, &fast), Verdict::Better);
        assert_eq!(verdict(&lower, &fast, &base), Verdict::Worse);
        // A throughput reads the other way round.
        let higher = decl(true);
        let base = side(&[1000.0, 1010.0, 990.0]);
        assert_eq!(
            verdict(&higher, &base, &side(&[850.0, 860.0, 840.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &base, &side(&[1200.0, 1210.0, 1190.0])),
            Verdict::Better
        );
        assert_eq!(
            verdict(&higher, &base, &side(&[950.0, 960.0, 940.0])),
            Verdict::Ok
        );
    }
}
