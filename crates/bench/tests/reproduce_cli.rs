//! The `reproduce` binary's argument handling, run as a process.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    let out = reproduce(&["--scale", "tiny", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact `fig99`"), "{stderr}");
    // Rejected before the hospital is generated.
    assert!(!stderr.contains("generating hospital"), "{stderr}");
}

#[test]
fn known_artifact_prints_its_figure() {
    let out = reproduce(&["--scale", "tiny", "overview"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().count() > 1, "{stdout}");
    assert!(stdout.contains("# total wall-clock"), "{stdout}");
}
