//! The patient×user access matrix and the user-similarity graph `W = AᵀA`.
//!
//! §4.1 of the paper: for a log with `m` patients and `n` users, build the
//! matrix `A` where `A[i,j] = 1 / |users who accessed patient i's record|`
//! if user `j` accessed patient `i` (0 otherwise). The similarity of two
//! users is `W[u1,u2] = (AᵀA)[u1,u2]`, i.e. for every co-accessed patient
//! the pair gains `1/k²` where `k` is the number of users who touched that
//! record — widely-accessed records contribute little. The weight only
//! considers *whether* a user accessed a record, not how many times.

use crate::graph::{GraphBuilder, WeightedGraph};
use std::collections::HashSet;

/// Sparse patient×user access-incidence matrix.
#[derive(Debug, Clone)]
pub struct AccessMatrix {
    n_users: usize,
    /// Per patient: the sorted distinct users who accessed the record.
    patient_users: Vec<Vec<u32>>,
}

impl AccessMatrix {
    /// Builds the matrix from `(patient, user)` access pairs. `n_patients`
    /// and `n_users` bound the index spaces; duplicate pairs collapse.
    ///
    /// # Panics
    /// Panics if a pair is out of range.
    pub fn from_pairs<I>(n_patients: usize, n_users: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut sets: Vec<HashSet<u32>> = vec![HashSet::new(); n_patients];
        for (p, u) in pairs {
            assert!((p as usize) < n_patients, "patient index out of range");
            assert!((u as usize) < n_users, "user index out of range");
            sets[p as usize].insert(u);
        }
        let patient_users = sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<u32> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        AccessMatrix {
            n_users,
            patient_users,
        }
    }

    /// `A[i,j]`: `1/k_i` if user `j` accessed patient `i`, else 0.
    pub fn entry(&self, patient: u32, user: u32) -> f64 {
        let users = &self.patient_users[patient as usize];
        if users.binary_search(&user).is_ok() {
            1.0 / users.len() as f64
        } else {
            0.0
        }
    }

    /// Builds the user-similarity graph `W = AᵀA` (off-diagonal part).
    ///
    /// `max_accessors_per_patient` skips records touched by more users than
    /// the cap: such records contribute `O(k²)` pairs each of weight `1/k²`
    /// (vanishing signal, quadratic cost). `usize::MAX` disables the cap;
    /// the default experiments use a generous cap that our synthetic data
    /// never hits, so capping is purely a safety valve.
    pub fn similarity_graph(&self, max_accessors_per_patient: usize) -> WeightedGraph {
        let mut b = GraphBuilder::new(self.n_users);
        for users in &self.patient_users {
            let k = users.len();
            if k < 2 || k > max_accessors_per_patient {
                continue;
            }
            let w = 1.0 / (k as f64 * k as f64);
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge(users[i] as usize, users[j] as usize, w);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact worked example of Figure 5: patients A,B,C,D with user
    /// sets {0,1,2}, {0,2}, {1,2}, {2,3}.
    fn figure5() -> AccessMatrix {
        AccessMatrix::from_pairs(
            4,
            4,
            [
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 2),
                (3, 2),
                (3, 3),
            ],
        )
    }

    #[test]
    fn entries_are_inverse_accessor_counts() {
        let a = figure5();
        // Paper: A[patient A, user 0] = 1/3.
        assert!((a.entry(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.entry(0, 3), 0.0);
        assert!((a.entry(3, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure5_edge_weights_match_paper() {
        let g = figure5().similarity_graph(usize::MAX);
        // Paper figure labels: W[0,1]=0.11, W[0,2]=0.36, W[1,2]=0.36,
        // W[2,3]=0.25.
        let w01 = g.edge_weight(0, 1).unwrap();
        let w02 = g.edge_weight(0, 2).unwrap();
        let w12 = g.edge_weight(1, 2).unwrap();
        let w23 = g.edge_weight(2, 3).unwrap();
        assert!((w01 - 1.0 / 9.0).abs() < 1e-12, "w01={w01}");
        assert!((w02 - (1.0 / 9.0 + 0.25)).abs() < 1e-12, "w02={w02}");
        assert!((w12 - (1.0 / 9.0 + 0.25)).abs() < 1e-12, "w12={w12}");
        assert!((w23 - 0.25).abs() < 1e-12, "w23={w23}");
        assert_eq!(g.edge_weight(0, 3), None);
        assert_eq!(g.edge_weight(1, 3), None);
    }

    #[test]
    fn duplicate_accesses_do_not_change_weights() {
        // "Our current approach does not adjust the weight depending on the
        // number of times a user accesses a specific record."
        let once = AccessMatrix::from_pairs(1, 2, [(0, 0), (0, 1)]);
        let many = AccessMatrix::from_pairs(1, 2, [(0, 0), (0, 1), (0, 0), (0, 1), (0, 0)]);
        let w_once = once.similarity_graph(usize::MAX).edge_weight(0, 1);
        let w_many = many.similarity_graph(usize::MAX).edge_weight(0, 1);
        assert_eq!(w_once, w_many);
    }

    #[test]
    fn singleton_patients_contribute_nothing() {
        let a = AccessMatrix::from_pairs(2, 3, [(0, 0), (1, 1)]);
        let g = a.similarity_graph(usize::MAX);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn cap_skips_widely_accessed_records() {
        let a = AccessMatrix::from_pairs(1, 5, (0..5).map(|u| (0, u)));
        let uncapped = a.similarity_graph(usize::MAX);
        assert!(uncapped.total_weight() > 0.0);
        let capped = a.similarity_graph(4);
        assert_eq!(capped.total_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        AccessMatrix::from_pairs(1, 1, [(0, 5)]);
    }
}
