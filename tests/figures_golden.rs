//! Paper fidelity as a test (ROADMAP 3d): the reproduced figures are
//! asserted, not just printed.
//!
//! `overview`, Figures 6–10, 12–14 and Table 1 run on
//! `Scenario::build(SynthConfig::tiny())` (the config's fixed seed) and
//! every series must equal the golden table below, recorded on the commit
//! *before* the audit surface was collapsed onto one read-side view — so a
//! refactor of how a question is asked cannot silently change what the
//! system *concludes*. Every value is a count or a ratio of counts and two
//! runs of the recording commit agreed on all of them, so the comparison
//! is exact (up to float formatting). The one exception is Figure 13,
//! whose cells are wall-clock mining times: there the golden pins what is
//! deterministic — the row labels, the cumulative shape, and the
//! "identical template sets" note with its template/threshold counts.
//!
//! Below the table, the paper's *shapes* are asserted as inequalities, so
//! a future change of the synthetic world that legitimately moves the
//! golden numbers still has to keep the conclusions.

use eba::experiments::{
    fig_events, fig_groups, fig_handcrafted, fig_mining, fig_predictive, overview, FigureResult,
    Scenario,
};
use eba::synth::SynthConfig;

type Row = (&'static str, &'static [Option<f64>]);

const fn s(v: f64) -> Option<f64> {
    Some(v)
}

const GOLDEN: &[(&str, &[Row])] = &[
    (
        "Overview",
        &[
            ("Accesses", &[s(566.0)]),
            ("Distinct patients", &[s(80.0)]),
            ("Distinct users", &[s(27.0)]),
            ("Distinct user-patient pairs", &[s(217.0)]),
            ("Appointments", &[s(27.0)]),
            ("Visits", &[s(1.0)]),
            ("Documents", &[s(44.0)]),
            ("Labs", &[s(4.0)]),
            ("Medications", &[s(15.0)]),
            ("Radiology", &[s(5.0)]),
            ("Department codes", &[s(12.0)]),
        ],
    ),
    (
        "Figure 6",
        &[
            ("Appt", &[s(354.0 / 566.0), s(0.6)]),
            ("Visit", &[s(10.0 / 566.0), s(0.07)]),
            ("Document", &[s(315.0 / 566.0), s(0.55)]),
            ("Lab", &[s(75.0 / 566.0), None]),
            ("Medication", &[s(240.0 / 566.0), None]),
            ("Radiology", &[s(61.0 / 566.0), None]),
            ("Repeat Access", &[s(349.0 / 566.0), s(0.62)]),
            ("All", &[s(504.0 / 566.0), s(0.97)]),
        ],
    ),
    (
        "Figure 7",
        &[
            ("Appt w/Dr.", &[s(97.0 / 566.0), s(0.27)]),
            ("Visit w/Dr.", &[s(3.0 / 566.0), s(0.02)]),
            ("Doc. w/Dr.", &[s(118.0 / 566.0), s(0.25)]),
            ("Repeat Access", &[s(349.0 / 566.0), s(0.62)]),
            ("All w/Dr.", &[s(410.0 / 566.0), s(0.9)]),
            ("All + consults", &[s(449.0 / 566.0), None]),
        ],
    ),
    (
        "Figure 8",
        &[
            ("Appt", &[s(119.0 / 217.0), s(0.55)]),
            ("Visit", &[s(4.0 / 217.0), s(0.06)]),
            ("Document", &[s(116.0 / 217.0), s(0.5)]),
            ("Lab", &[s(19.0 / 217.0), None]),
            ("Medication", &[s(76.0 / 217.0), None]),
            ("Radiology", &[s(26.0 / 217.0), None]),
            ("All", &[s(155.0 / 217.0), s(0.75)]),
        ],
    ),
    (
        "Figure 9",
        &[
            ("Appt w/Dr.", &[s(27.0 / 217.0), s(0.06)]),
            ("Visit w/Dr.", &[s(1.0 / 217.0), s(0.01)]),
            ("Doc. w/Dr.", &[s(44.0 / 217.0), s(0.05)]),
            ("All w/Dr.", &[s(61.0 / 217.0), s(0.11)]),
            ("All + consults", &[s(100.0 / 217.0), None]),
        ],
    ),
    (
        "Figure 10",
        &[
            ("Nursing - Cancer Center", &[s(2.0), s(0.25)]),
            ("Pathology", &[s(2.0), s(0.25)]),
            ("UMHS Cancer Center (Physicians)", &[s(2.0), s(0.25)]),
            ("Pharmacy", &[s(1.0), s(0.125)]),
            ("Radiology", &[s(1.0), s(0.125)]),
        ],
    ),
    (
        "Figure 12",
        &[
            ("Depth 0", &[s(33.0 / 70.0), s(33.0 / 39.0), s(1.0)]),
            ("Depth 1", &[s(17.0 / 32.0), s(17.0 / 39.0), s(17.0 / 33.0)]),
            ("Depth 2", &[s(17.0 / 27.0), s(17.0 / 39.0), s(17.0 / 33.0)]),
            ("Same Dept.", &[s(8.0 / 11.0), s(8.0 / 39.0), s(8.0 / 33.0)]),
            (
                "Day-7 all accesses: basic set",
                &[None, s(116.0 / 141.0), None],
            ),
            (
                "Day-7 all accesses: + groups@1 + consults",
                &[None, s(130.0 / 141.0), None],
            ),
        ],
    ),
    (
        "Figure 14",
        &[
            (
                "Length 2",
                &[s(22.0 / 26.0), s(22.0 / 39.0), s(22.0 / 33.0)],
            ),
            (
                "Length 3",
                &[s(27.0 / 37.0), s(27.0 / 39.0), s(27.0 / 33.0)],
            ),
            (
                "Length 4",
                &[s(28.0 / 51.0), s(28.0 / 39.0), s(28.0 / 33.0)],
            ),
            ("All", &[s(28.0 / 53.0), s(28.0 / 39.0), s(28.0 / 33.0)]),
        ],
    ),
    (
        "Table 1",
        &[
            ("Length 2", &[s(9.0), s(5.0), s(10.0), s(8.0), s(5.0)]),
            ("Length 3", &[s(47.0), s(29.0), s(52.0), s(44.0), s(25.0)]),
            ("Length 4", &[s(94.0), s(56.0), s(94.0), s(80.0), s(49.0)]),
        ],
    ),
];

fn assert_matches_golden(fig: &FigureResult) {
    let (_, rows) = GOLDEN
        .iter()
        .find(|(id, _)| *id == fig.id)
        .unwrap_or_else(|| panic!("no golden table for {}", fig.id));
    let labels: Vec<&str> = fig.rows.iter().map(|r| r.label.as_str()).collect();
    let want: Vec<&str> = rows.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, want, "{}: row labels", fig.id);
    for (row, (label, values)) in fig.rows.iter().zip(rows.iter()) {
        assert_eq!(row.values.len(), values.len(), "{} / {label}", fig.id);
        for (col, (got, want)) in row.values.iter().zip(values.iter()).enumerate() {
            let same = match (got, want) {
                (Some(g), Some(w)) => (g - w).abs() < 1e-12,
                (None, None) => true,
                _ => false,
            };
            assert!(
                same,
                "{} / {label} / {}: got {got:?}, golden {want:?}",
                fig.id, fig.columns[col]
            );
        }
    }
}

#[test]
fn figures_match_the_golden_tables_and_the_papers_shapes() {
    let s = Scenario::build(SynthConfig::tiny());
    let f6 = fig_events::fig06(&s);
    let f7 = fig_handcrafted::fig07(&s);
    let f8 = fig_events::fig08(&s);
    let f9 = fig_handcrafted::fig09(&s);
    let f10 = fig_groups::fig10_11(&s).remove(0);
    let f12 = fig_groups::fig12(&s);
    let f13 = fig_mining::fig13(&s);
    let f14 = fig_predictive::fig14(&s);
    let t1 = fig_mining::table1(&s);
    for fig in [
        &overview::data_overview(&s),
        &f6,
        &f7,
        &f8,
        &f9,
        &f10,
        &f12,
        &f14,
        &t1,
    ] {
        assert_matches_golden(fig);
    }

    // Figure 13's cells are wall-clock times; what is deterministic is
    // the shape and the §5.3.3 claim that every algorithm mines one set.
    let labels: Vec<&str> = f13.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["Length 1", "Length 2", "Length 3", "Length 4"]);
    for col in 0..f13.columns.len() {
        let times: Vec<f64> = f13
            .rows
            .iter()
            .map(|r| r.values[col].expect("every algorithm reports every length"))
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "{}: cumulative time must not fall: {times:?}",
            f13.columns[col]
        );
    }
    assert_eq!(
        f13.notes[0],
        "all algorithms produced identical template sets: true \
         (150 templates, threshold 2 of 178 first accesses)"
    );
    assert_eq!(
        f14.notes[0],
        "150 templates mined on days 1-6; 33/39 day-7 first accesses \
         reference a patient with events"
    );

    // Fig. 7: "All" is the union of the rows above it (at least the
    // largest, at most their sum), and Repeat Access dominates.
    let rows7 = ["Appt w/Dr.", "Visit w/Dr.", "Doc. w/Dr.", "Repeat Access"];
    let parts: Vec<f64> = rows7.iter().map(|l| f7.value(l, 0).unwrap()).collect();
    let all7 = f7.value("All w/Dr.", 0).unwrap();
    let repeat = f7.value("Repeat Access", 0).unwrap();
    assert!(parts.iter().all(|&p| p <= all7 + 1e-12));
    assert!(all7 <= parts.iter().sum::<f64>() + 1e-12);
    assert!(parts.iter().all(|&p| p <= repeat));
    // Fig. 9 vs Fig. 8: first-access recall sits below event coverage.
    assert!(f9.value("All w/Dr.", 0).unwrap() < f8.value("All", 0).unwrap());
    // Fig. 12: installing groups never lowers recall.
    assert!(
        f12.value("Day-7 all accesses: + groups@1 + consults", 1)
            .unwrap()
            >= f12.value("Day-7 all accesses: basic set", 1).unwrap()
    );
}
