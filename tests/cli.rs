//! End-to-end tests of the `eba` command-line binary: synthesize a data
//! set to CSV, then mine / explain / report / investigate it — the full
//! "bring your own log" workflow a deployment would script.

use std::path::PathBuf;
use std::process::{Command, Output};

fn eba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eba"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn data_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eba-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn synth(dir: &std::path::Path, extra: &[&str]) {
    let mut args = vec!["synth", "--out", dir.to_str().unwrap(), "--scale", "tiny"];
    args.extend_from_slice(extra);
    let out = eba(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("Log.csv").exists());
    assert!(dir.join("Users.csv").exists());
}

#[test]
fn synth_then_mine_round_trips() {
    let dir = data_dir("mine");
    synth(&dir, &[]);
    let out = eba(&["mine", "--data", dir.to_str().unwrap(), "--groups"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("mined"), "{text}");
    // The classic appointment template is always found.
    assert!(
        text.contains("Appointments(Patient→Doctor)"),
        "missing appointment template:\n{text}"
    );
    // Group templates appear because --groups installed them.
    assert!(text.contains("Groups"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mine_prints_sql_on_request() {
    let dir = data_dir("sql");
    synth(&dir, &[]);
    let out = eba(&[
        "mine",
        "--data",
        dir.to_str().unwrap(),
        "--max-length",
        "2",
        "--sql",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("SELECT L.Lid, L.Patient, L.User"), "{text}");
    assert!(text.contains("WHERE L.Patient = T1.Patient"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_handles_found_and_missing_lids() {
    let dir = data_dir("explain");
    synth(&dir, &[]);
    let out = eba(&["explain", "--data", dir.to_str().unwrap(), "--lid", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("log record 1:"), "{text}");
    // Either an explanation or a near-miss diagnosis is printed.
    assert!(
        text.contains("[len ") || text.contains("closest template verdicts"),
        "{text}"
    );
    let out = eba(&[
        "explain",
        "--data",
        dir.to_str().unwrap(),
        "--lid",
        "999999",
    ]);
    assert!(!out.status.success(), "missing lid must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no log record"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_lists_patient_accesses() {
    let dir = data_dir("report");
    synth(&dir, &[]);
    // Patient ids start at 10000 in the synthetic world.
    let out = eba(&[
        "report",
        "--data",
        dir.to_str().unwrap(),
        "--patient",
        "10000",
        "--groups",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("access report for patient 10000") || text.contains("no accesses recorded"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn investigate_summarizes_unexplained() {
    let dir = data_dir("investigate");
    synth(&dir, &["--snoops", "10"]);
    let out = eba(&[
        "investigate",
        "--data",
        dir.to_str().unwrap(),
        "--groups",
        "--top",
        "3",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("unexplained"), "{text}");
    assert!(text.contains("look like snooping"), "{text}");
    assert!(text.contains("top users"), "{text}");
    // The listing is capped at --top 3; a deeper suspect queue must be
    // called out explicitly instead of silently cut.
    let listed = text
        .lines()
        .filter(|l| l.trim_start().starts_with("user "))
        .count();
    assert!(listed <= 3, "{text}");
    if listed == 3 {
        // 10 planted snoops: the queue is deeper than three users.
        assert!(text.contains("more rows"), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapping_mode_round_trips_through_csv() {
    let dir = data_dir("mapping");
    synth(&dir, &["--mapping"]);
    assert!(dir.join("Mapping.csv").exists());
    let out = eba(&["mine", "--data", dir.to_str().unwrap(), "--max-length", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // Consult templates route through the mapping (length 3).
    assert!(text.contains("Mapping(AuditId→CaregiverId)"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the child on drop, so a failing assertion cannot leak a live
/// `eba serve` process (and its bound port) past the test run.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_and_client_round_trip_over_a_real_port() {
    use std::io::BufRead;

    let dir = data_dir("serve");
    synth(&dir, &[]);
    // `--addr 127.0.0.1:0` picks an ephemeral port; the server announces
    // it on stdout as `listening on <addr>`.
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_eba"))
            .args([
                "serve",
                "--data",
                dir.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("server spawns"),
    );
    let mut line = String::new();
    std::io::BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announcement line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    // A successful command prints the framed reply and exits zero.
    let out = eba(&["client", "--addr", &addr, "--send", "METRICS"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("OK metrics epoch 0"), "{text}");
    assert!(text.contains("anchor_total "), "{text}");
    assert!(text.contains("recall "), "{text}");

    // An ERR reply exits non-zero (scripts can branch on it).
    let out = eba(&["client", "--addr", &addr, "--send", "FROB"]);
    assert!(!out.status.success(), "ERR reply must exit non-zero");
    assert!(stdout(&out).contains("ERR bad-request"), "{}", stdout(&out));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `eba serve` with the given extra args and returns the child
/// plus the announced address.
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (KillOnDrop, String) {
    use std::io::BufRead;

    let mut args = vec![
        "serve",
        "--data",
        dir.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ];
    args.extend_from_slice(extra);
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_eba"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("server spawns"),
    );
    let mut line = String::new();
    std::io::BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announcement line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (server, addr)
}

/// The durability smoke at full distance: a served process is SIGKILLed
/// with an acknowledged history *and* an unfinished `INGEST` batch still
/// on the wire; the restarted process must recover exactly the
/// acknowledged rows and report it over `RECOVERY`.
#[test]
fn sigkill_mid_ingest_recovers_every_acknowledged_batch() {
    use eba::server::protocol::IngestRow;
    use eba::server::Client;

    let dir = data_dir("kill");
    synth(&dir, &[]);
    let pile = dir.join("log.pile");
    let pile_args = ["--pile", pile.to_str().unwrap()];

    let (server, addr) = spawn_serve(&dir, &pile_args);
    let mut client = Client::connect(&addr).expect("client connects");
    let base: u64 = client
        .send("METRICS")
        .unwrap()
        .body_field("anchor_total")
        .expect("anchor_total line")
        .parse()
        .unwrap();

    // Five acknowledged batches of two rows each...
    for b in 0..5i64 {
        let rows: Vec<IngestRow> = (0..2)
            .map(|i| IngestRow {
                user: 1 + b,
                patient: 10000 + i,
                day: Some(1 + b),
            })
            .collect();
        let reply = client.ingest(&rows).expect("ingest reply");
        assert!(reply.is_ok(), "{}", reply.head);
    }
    // ...then a batch that never finishes: the header promises three rows
    // but only one is sent before the process dies mid-protocol.
    client
        .send_raw(b"INGEST 3\n1 10000 1\n")
        .expect("partial batch");
    drop(server); // SIGKILL, no shutdown path runs

    let (_server2, addr2) = spawn_serve(&dir, &pile_args);
    let mut client = Client::connect(&addr2).expect("client reconnects");
    let recovered: u64 = client
        .send("METRICS")
        .unwrap()
        .body_field("anchor_total")
        .expect("anchor_total line")
        .parse()
        .unwrap();
    assert_eq!(
        recovered,
        base + 10,
        "exactly the acknowledged rows survive the kill — no more, no less"
    );
    let reply = client.send("RECOVERY").unwrap();
    assert!(
        reply.head.starts_with("OK recovery durable"),
        "{}",
        reply.head
    );
    assert_eq!(reply.field("dropped"), Some("0"), "{}", reply.head);
    let batches: u64 = reply
        .field("batches")
        .expect("batches field")
        .parse()
        .unwrap();
    assert_eq!(batches, 5, "{}", reply.head);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = eba(&["mine"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--data is required"), "{err}");
    let out = eba(&["nonsense"]);
    assert!(!out.status.success());
    let out = eba(&["help"]);
    assert!(out.status.success());
}

/// `--support` is a fraction of the accesses: anything not finite or
/// outside (0, 1] is a usage error (exit 2), not a silently empty or
/// threshold-1 mining run.
#[test]
fn mine_rejects_a_support_outside_the_unit_interval() {
    let dir = data_dir("support");
    synth(&dir, &[]);
    let data = dir.to_str().unwrap();
    for bad in ["2", "0", "-0.5", "NaN", "inf"] {
        let out = eba(&["mine", "--data", data, "--support", bad]);
        assert_eq!(out.status.code(), Some(2), "--support {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--support expects a fraction in (0, 1]"),
            "{err}"
        );
        assert!(stdout(&out).is_empty(), "--support {bad} mined anyway");
    }
    let out = eba(&["mine", "--data", data, "--support", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
