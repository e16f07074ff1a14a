//! `--on-error` is the input error budget of every command that decodes
//! one trace: under `skip:N` a dirty text file analyses exactly like the
//! same file with its bad lines deleted, and the skip report goes to
//! stderr, so a `--json` body on stdout stays clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tracetracker(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetracker"))
        .args(args)
        .output()
        .expect("spawn tracetracker")
}

/// Runs the binary and insists it succeeds.
fn run(args: &[&str]) -> Output {
    let out = tracetracker(args);
    assert!(
        out.status.success(),
        "tracetracker {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn a_skip_budget_analyses_a_dirty_file_like_the_clean_one() {
    // One stem in two directories, so both traces carry the same name.
    let root = std::env::temp_dir().join(format!("tt_cli_on_error_{}", std::process::id()));
    let (clean_dir, dirty_dir) = (root.join("clean"), root.join("dirty"));
    std::fs::create_dir_all(&clean_dir).unwrap();
    std::fs::create_dir_all(&dirty_dir).unwrap();
    let clean: PathBuf = clean_dir.join("t.csv");
    let dirty: PathBuf = dirty_dir.join("t.csv");
    run(&[
        "generate",
        "--workload",
        "MSNFS",
        "--requests",
        "2000",
        "--seed",
        "4",
        "--timing",
        "--out",
        path(&clean),
    ]);
    let text = std::fs::read_to_string(&clean).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(lines.len() / 2, "garbage line");
    std::fs::write(&dirty, lines.join("\n") + "\n").unwrap();

    for command in ["stats", "infer"] {
        let want = run(&[command, path(&clean), "--json"]);
        let got = run(&[command, path(&dirty), "--on-error", "skip:1", "--json"]);
        assert_eq!(got.stdout, want.stdout, "{command}");
        let report = String::from_utf8_lossy(&got.stderr);
        assert!(
            report.contains("on-error: skipped 1 malformed input record"),
            "{command}: {report}"
        );
        let refused = tracetracker(&[command, path(&dirty), "--json"]);
        assert!(
            !refused.status.success(),
            "{command} accepted the dirty file"
        );
    }

    // Single-input convert decodes under the budget even to its own
    // format; several inputs refuse the flag, as replay does.
    let (want, got) = (clean_dir.join("t.ttb"), dirty_dir.join("t.ttb"));
    run(&["convert", path(&clean), path(&want)]);
    run(&["convert", path(&dirty), path(&got), "--on-error", "skip:1"]);
    assert!(std::fs::read(&got).unwrap() == std::fs::read(&want).unwrap());
    let copy = dirty_dir.join("copy.csv");
    run(&["convert", path(&dirty), path(&copy), "--on-error", "skip:1"]);
    assert_eq!(
        std::fs::read_to_string(&copy)
            .unwrap()
            .lines()
            .skip(1)
            .collect::<Vec<_>>(),
        text.lines().skip(1).collect::<Vec<_>>()
    );
    let merged = root.join("merged.csv");
    let refused = tracetracker(&[
        "convert",
        path(&clean),
        path(&dirty),
        path(&merged),
        "--on-error",
        "skip:1",
    ]);
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(
        !refused.status.success() && err.contains("only supported for single-input convert"),
        "{err}"
    );

    std::fs::remove_dir_all(&root).ok();
}
