//! # eba — Explanation-Based Auditing
//!
//! A Rust reproduction of *Explanation-Based Auditing* (Daniel Fabbri &
//! Kristen LeFevre, PVLDB 5(1), 2011). Given an access log that records who
//! accessed whose record, the system explains **why** each access occurred by
//! finding paths through the database connecting the data that was accessed
//! back to the user who accessed it — e.g. *"Alice had an appointment with
//! Dr. Dave"* — and mines such explanation templates automatically.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`relational`] — in-memory relational engine (the PostgreSQL substitute)
//! * [`cluster`] — modularity-based collaborative-group inference (§4)
//! * [`synth`] — synthetic CareWeb-like hospital data generator (§5.2)
//! * [`core`] — explanation templates and mining algorithms (§2–3)
//! * [`audit`] — user-centric auditing, misuse triage and evaluation
//!   (§5): one read-side `AuditView`, one function per audit question
//! * [`server`] — the concurrent audit service behind `eba serve` (line
//!   protocol over TCP, epoch-pinned sessions on the `ShardedEngine` epoch
//!   handle)
//! * [`experiments`] — per-figure/table reproduction of the evaluation
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the paper's running example (Figure 3)
//! end-to-end: build the database, mine templates, and explain each access.
//! The `eba` binary (`src/bin/eba.rs`) exposes the same workflow over CSV
//! data directories: `eba synth`, `eba mine`, `eba explain`, `eba report`,
//! `eba investigate`, and `eba serve`.

pub use eba_audit as audit;
pub use eba_cluster as cluster;
pub use eba_core as core;
pub use eba_experiments as experiments;
pub use eba_relational as relational;
pub use eba_server as server;
pub use eba_synth as synth;
