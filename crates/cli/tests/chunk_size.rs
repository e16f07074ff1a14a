//! `--chunk-size` is a streaming knob, not a record count: a chunk far
//! larger than the input, up to `usize::MAX`, must not size an allocation
//! up front, and must not change a byte of what the commands print or
//! write.

use std::path::PathBuf;
use std::process::{Command, Output};

/// `usize::MAX` on a 64-bit host.
const HUGE: &str = "18446744073709551615";

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tt_cli_chunk_{}_{name}", std::process::id()))
}

/// Runs the `tracetracker` binary and insists it succeeds.
fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_tracetracker"))
        .args(args)
        .output()
        .expect("spawn tracetracker");
    assert!(
        out.status.success(),
        "tracetracker {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn a_huge_chunk_size_prints_what_the_default_prints() {
    let input = temp("in.csv");
    let output = temp("out.csv");
    let (input_s, output_s) = (input.to_str().unwrap(), output.to_str().unwrap());
    run(&[
        "generate",
        "--workload",
        "MSNFS",
        "--requests",
        "2000",
        "--seed",
        "3",
        "--out",
        input_s,
    ]);

    let stats = |extra: &[&str]| run(&[&["stats", input_s, "--groups"], extra].concat()).stdout;
    let default = stats(&[]);
    assert!(!default.is_empty());
    assert_eq!(stats(&["--chunk-size", HUGE]), default);

    // A chain exercises both the mid-chain stage and the streamed last one.
    let reconstruct = |extra: &[&str]| {
        let args = [
            &["reconstruct", input_s, "--out", output_s, "--then-replay"],
            extra,
        ]
        .concat();
        let printed = run(&args).stderr;
        (printed, std::fs::read(&output).unwrap())
    };
    let default = reconstruct(&[]);
    assert!(!default.1.is_empty());
    assert_eq!(reconstruct(&["--chunk-size", HUGE]), default);

    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}
