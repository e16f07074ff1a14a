//! A command whose reader goes away — `tracetracker ... | head -1` — stops
//! quietly: exit status 0 and nothing on stderr, however much output it had
//! left to write.

use std::process::{Command, Output, Stdio};

/// Runs the binary with the read end of its stdout pipe closed right after
/// spawn, so its first write to stdout finds no reader.
fn with_stdout_closed(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tracetracker"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracetracker");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for tracetracker")
}

fn assert_quiet_stop(args: &[&str]) {
    let out = with_stdout_closed(args);
    assert!(
        out.status.success() && out.stderr.is_empty(),
        "tracetracker {args:?}: {}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    let root = std::env::temp_dir().join(format!("tt_cli_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let ttb = root.join("t.ttb");
    let ttb = ttb.to_str().unwrap();
    let made = Command::new(env!("CARGO_BIN_EXE_tracetracker"))
        .args([
            "generate",
            "--workload",
            "CFS",
            "--requests",
            "2000",
            "--out",
            ttb,
        ])
        .output()
        .expect("spawn tracetracker");
    assert!(made.status.success(), "{made:?}");

    // About 6 MB of CSV, far more than a pipe buffer holds.
    assert_quiet_stop(&["generate", "--workload", "CFS", "--requests", "200000"]);
    assert_quiet_stop(&["stats", ttb, "--groups"]);
    assert_quiet_stop(&["infer", ttb, "--json"]);
    assert_quiet_stop(&["catalog"]);

    std::fs::remove_dir_all(&root).ok();
}
