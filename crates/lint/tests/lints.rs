//! Fixture-driven demonstrations: every lint has a fixture that fails it
//! and a twin that passes, so a regression in either direction (missed
//! finding or false positive) turns a test red.

use tt_lint::{lint_source, Lint};

/// Findings of one lint kind, as (line, lint) pairs for terse asserts.
fn findings_of(rel: &str, src: &str, lint: Lint) -> Vec<u32> {
    lint_source(rel, src)
        .into_iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

/// The fixture must produce *only* the expected lint (no collateral
/// findings from the other four).
fn assert_only(rel: &str, src: &str, lint: Lint, lines: &[u32]) {
    let all = lint_source(rel, src);
    let stray: Vec<_> = all.iter().filter(|f| f.lint != lint).collect();
    assert!(stray.is_empty(), "unexpected extra findings: {stray:?}");
    assert_eq!(findings_of(rel, src, lint), lines, "for {rel}");
}

// ---- unsafe-audit ------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_fails() {
    // In the allowlisted file the defect is the missing comment...
    assert_only(
        "crates/trace/src/mmap.rs",
        include_str!("fixtures/unsafe_bad.fixture"),
        Lint::UnsafeAudit,
        &[2],
    );
}

#[test]
fn unsafe_outside_the_allowlist_fails_even_with_a_comment() {
    let findings = lint_source(
        "crates/sim/src/replay.rs",
        include_str!("fixtures/unsafe_good.fixture"),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::UnsafeAudit);
    assert!(findings[0].message.contains("outside the sanctioned"));
}

#[test]
fn unsafe_with_safety_comment_in_allowlisted_file_passes() {
    assert!(lint_source(
        "crates/trace/src/mmap.rs",
        include_str!("fixtures/unsafe_good.fixture"),
    )
    .is_empty());
}

#[test]
fn crate_root_without_forbid_fails() {
    let findings = lint_source("crates/device/src/lib.rs", "pub fn f() {}\n");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::UnsafeAudit);
    assert!(findings[0].message.contains("forbid(unsafe_code)"));

    // With the attribute (and in the one exempt root) the finding clears.
    assert!(lint_source(
        "crates/device/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n"
    )
    .is_empty());
    assert!(lint_source("crates/trace/src/lib.rs", "pub fn f() {}\n").is_empty());
}

// ---- panic-path --------------------------------------------------------

#[test]
fn every_panic_construct_fails_in_library_code() {
    // unwrap, expect, panic!, todo!, unreachable! — one line each.
    assert_only(
        "crates/sim/src/replay.rs",
        include_str!("fixtures/panic_bad.fixture"),
        Lint::PanicPath,
        &[2, 3, 5, 8, 9],
    );
}

#[test]
fn waived_and_test_module_panics_pass() {
    assert!(lint_source(
        "crates/sim/src/replay.rs",
        include_str!("fixtures/panic_good.fixture"),
    )
    .is_empty());
}

#[test]
fn panics_in_test_support_files_pass() {
    // The same panicking source is fine in tests/, benches/, examples/.
    let src = include_str!("fixtures/panic_bad.fixture");
    assert!(lint_source("crates/sim/tests/props.rs", src).is_empty());
    assert!(lint_source("tests/chain.rs", src).is_empty());
    assert!(lint_source("examples/quickstart.rs", src).is_empty());
}

// ---- determinism -------------------------------------------------------

#[test]
fn ambient_clocks_and_random_state_fail_in_output_affecting_crates() {
    assert_only(
        "crates/sim/src/replay.rs",
        include_str!("fixtures/determinism_bad.fixture"),
        Lint::Determinism,
        &[2, 6],
    );
}

#[test]
fn pure_code_and_test_clocks_pass() {
    assert!(lint_source(
        "crates/sim/src/replay.rs",
        include_str!("fixtures/determinism_good.fixture"),
    )
    .is_empty());
}

#[test]
fn telemetry_and_non_output_crates_are_exempt() {
    let src = include_str!("fixtures/determinism_bad.fixture");
    // The sanctioned wall-clock observer...
    assert!(findings_of("crates/par/src/telemetry.rs", src, Lint::Determinism).is_empty());
    // ...and crates whose outputs are not reproducibility-bearing.
    assert!(findings_of("crates/serve/src/http.rs", src, Lint::Determinism).is_empty());
}

// ---- lock-discipline ---------------------------------------------------

#[test]
fn guard_live_across_send_fails() {
    let findings = lint_source(
        "crates/par/src/fanout.rs",
        include_str!("fixtures/lock_bad.fixture"),
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, Lint::LockDiscipline);
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("`depth`"));
}

#[test]
fn guard_dropped_before_send_passes() {
    assert!(lint_source(
        "crates/par/src/fanout.rs",
        include_str!("fixtures/lock_good.fixture"),
    )
    .is_empty());
}

// ---- error-hygiene -----------------------------------------------------

#[test]
fn path_mention_without_interpolation_fails() {
    assert_only(
        "crates/trace/src/store.rs",
        include_str!("fixtures/error_hygiene_bad.fixture"),
        Lint::ErrorHygiene,
        &[2],
    );
}

#[test]
fn interpolated_path_passes() {
    assert!(lint_source(
        "crates/trace/src/store.rs",
        include_str!("fixtures/error_hygiene_good.fixture"),
    )
    .is_empty());
}
