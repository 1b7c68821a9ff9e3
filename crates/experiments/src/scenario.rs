//! The shared experimental setup: one synthetic hospital with
//! collaborative groups installed, mirroring §5's environment.

use eba_audit::groups::{collaborative_groups, install_groups, GroupsModel};
use eba_audit::handcrafted::HandcraftedTemplates;
use eba_audit::{split, AuditView};
use eba_cluster::HierarchyConfig;
use eba_core::LogSpec;
use eba_relational::Engine;
use eba_synth::{Hospital, SynthConfig};

/// A hospital ready for experiments: groups trained on days 1–6 and
/// installed, hand-crafted templates built, and one warm [`Engine`] over
/// the finished database serving every figure that reads it unmodified.
#[derive(Debug)]
pub struct Scenario {
    /// The hospital (database already contains the `Groups` table).
    pub hospital: Hospital,
    /// Unfiltered log spec.
    pub spec: LogSpec,
    /// The collaborative-group model (trained on days 1–6, as Figure 12).
    pub groups: GroupsModel,
    /// The hand-crafted template suite.
    pub handcrafted: HandcraftedTemplates,
    /// The warm engine over `hospital.db`, built after the groups were
    /// installed. Figures that clone and mutate the database build their
    /// own engine over the combined copy instead.
    engine: Engine,
}

impl Scenario {
    /// Builds a scenario from a generator config.
    pub fn build(config: SynthConfig) -> Scenario {
        let mut hospital = Hospital::generate(config);
        let spec = LogSpec::conventional(&hospital.db).expect("synth produces a Log table");
        let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
        let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
            .expect("Users table exists");
        install_groups(&mut hospital.db, &groups).expect("Groups table installs");
        let handcrafted =
            HandcraftedTemplates::build(&hospital.db, &spec).expect("CareWeb-shaped schema");
        let engine = Engine::new(&hospital.db);
        Scenario {
            hospital,
            spec,
            groups,
            handcrafted,
            engine,
        }
    }

    /// The warm engine over `hospital.db`.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The audit view every read-only figure shares: `hospital.db` and
    /// the warm engine over it.
    pub fn view(&self) -> AuditView<'_> {
        AuditView::warm(&self.hospital.db, &self.engine)
    }

    /// A small scenario for tests.
    pub fn small() -> Scenario {
        Scenario::build(SynthConfig::small())
    }

    /// Spec filtered to day-7 first accesses (the test split).
    pub fn test_spec(&self) -> LogSpec {
        self.spec
            .with_filters(split::days_first(&self.hospital.log_cols, 7, 7))
    }

    /// Spec filtered to days 1–6 first accesses (the mining split).
    pub fn train_spec(&self) -> LogSpec {
        self.spec
            .with_filters(split::days_first(&self.hospital.log_cols, 1, 6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_with_groups() {
        let s = Scenario::build(SynthConfig::tiny());
        assert!(s.hospital.db.table_id("Groups").is_ok());
        assert!(s.groups.hierarchy.depth_count() >= 2);
        assert!(s.train_spec().anchor_lid_count(&s.hospital.db) > 0);
        assert!(s.test_spec().anchor_lid_count(&s.hospital.db) > 0);
    }

    #[test]
    fn scenario_engine_sees_the_groups_table() {
        let s = Scenario::build(SynthConfig::tiny());
        // The engine was built after install_groups, so group templates
        // evaluate through it identically to the cold path.
        let grouped = eba_audit::handcrafted::same_group(
            &s.hospital.db,
            &s.spec,
            eba_audit::handcrafted::EventTable::Appointments,
            Some(1),
        )
        .unwrap();
        let q = grouped.path.to_chain_query(&s.spec);
        let via_engine = s
            .engine()
            .eval_suite(&s.hospital.db, &[q], Default::default())
            .remove(0)
            .unwrap();
        assert_eq!(
            via_engine.to_vec(),
            grouped.explained_rows(&s.hospital.db, &s.spec).unwrap()
        );
    }
}
