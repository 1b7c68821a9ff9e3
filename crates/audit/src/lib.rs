//! # eba-audit
//!
//! The auditing application layer of *Explanation-Based Auditing*:
//!
//! * [`handcrafted`] — the paper's hand-crafted explanation templates
//!   (§5.3.1) against the CareWeb-shaped schema: appointment / visit /
//!   document with the accessing doctor, the decorated repeat-access
//!   template, consult-order templates, department-code and
//!   collaborative-group variants, and the "patient had *some* event"
//!   predicates used to measure Figures 6 and 8;
//! * [`groups`] — building collaborative groups from the log (§4) and
//!   installing the `Groups(Group_Depth, Group_id, User)` table plus its
//!   join metadata;
//! * [`fake`] — the fake-log methodology of §5.3.2 (uniformly random
//!   user–patient accesses appended to the log) used to measure precision;
//! * [`metrics`] — precision / recall / normalized recall;
//! * [`explain`] — the [`explain::Explainer`]: rank a log record's
//!   explanation instances by path length, find unexplained accesses;
//! * [`portal`] — user-centric auditing reports (the patient portal of the
//!   paper's introduction) and the compliance-office misuse triage view;
//! * [`investigate`] — near-miss diagnosis of unexplained accesses (how far
//!   did each template's path get, and did it point at a *different* user —
//!   the snooping signature);
//! * [`timeline`] — per-day explained/unexplained trends, with an explicit
//!   overflow bucket for clock-skewed accesses so totals never silently
//!   shrink;
//! * [`split`] — train/test anchor filters over days and first accesses.
//!
//! Every question is asked of one read-side [`view::AuditView`] — a warm
//! `(&Database, &Engine)` pair or a pinned [`eba_relational::EpochVec`]
//! from a [`eba_relational::ShardedEngine`], the form a long-running
//! service uses so its explanations, timeline, and triage queue all
//! describe the same frozen log state while ingests publish new epochs
//! behind it — and each has exactly one spelling, a function of the view
//! and a global-id [`eba_relational::RowSet`]:
//!
//! | Question | Function |
//! |---|---|
//! | which accesses does a template set explain | [`explain::explained`] |
//! | which accesses are under audit | [`explain::anchors`] |
//! | which are left over (`anchors \ explained`) | [`explain::unexplained`] |
//! | precision / recall of an explained set | [`metrics::evaluate`] |
//! | explained fraction by day | [`timeline::daily_stats`] |
//! | who the residue points at | [`portal::misuse_summary`] |
//! | one patient's accesses, explained | [`portal::patient_report`] |
//!
//! [`explain::explained_cold`] — the per-template walk on a bare database
//! — is kept as the one differential reference the test suites compare
//! the view-based answers with.

pub mod explain;
pub mod fake;
pub mod groups;
pub mod handcrafted;
pub mod investigate;
pub mod metrics;
pub mod portal;
pub mod split;
pub mod timeline;
pub mod view;

pub use explain::{Explainer, RankedExplanation};
pub use fake::FakeLog;
pub use groups::{collaborative_groups, install_groups, GroupsModel};
pub use handcrafted::HandcraftedTemplates;
pub use metrics::Confusion;
pub use timeline::{DayBuckets, DayStats, Timeline};
pub use view::AuditView;
