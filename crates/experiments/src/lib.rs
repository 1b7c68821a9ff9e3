//! # eba-experiments
//!
//! Reproduction of every table and figure in the evaluation (§5) of
//! *Explanation-Based Auditing* (Fabbri & LeFevre, VLDB 2011), against the
//! synthetic CareWeb-scale hospital of [`eba_synth`].
//!
//! Each figure is a function returning a typed [`FigureResult`] so tests
//! can assert the *shape* of the result (who wins, orderings, crossover
//! directions) — absolute values differ from the paper because the
//! substrate is a synthetic data set, not the UMHS testbed. The
//! `reproduce` binary in `eba-bench` renders these as text tables and
//! CSV.
//!
//! | Experiment | Paper content | Function |
//! |---|---|---|
//! | §5.2 | data-set overview | [`overview::data_overview`] |
//! | Fig. 6 | event frequency, all accesses | [`fig_events::fig06`] |
//! | Fig. 7 | hand-crafted recall, all accesses | [`fig_handcrafted::fig07`] |
//! | Fig. 8 | event frequency, first accesses | [`fig_events::fig08`] |
//! | Fig. 9 | hand-crafted recall, first accesses | [`fig_handcrafted::fig09`] |
//! | Fig. 10–11 | collaborative-group composition | [`fig_groups::fig10_11`] |
//! | Fig. 12 | group predictive power vs depth | [`fig_groups::fig12`] |
//! | Fig. 13 | mining performance | [`fig_mining::fig13`] |
//! | Fig. 14 | mined-template predictive power | [`fig_predictive::fig14`] |
//! | Table 1 | template-set stability over time | [`fig_mining::table1`] |

pub mod ext_decorated;
pub mod ext_scaling;
pub mod fig_events;
pub mod fig_groups;
pub mod fig_handcrafted;
pub mod fig_mining;
pub mod fig_predictive;
pub mod figure;
pub mod overview;
pub mod scenario;

pub use figure::{FigureResult, FigureRow};
pub use scenario::Scenario;
