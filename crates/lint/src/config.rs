//! The workspace policy tables: which lints apply to which files.
//!
//! Paths here are workspace-relative with `/` separators. The tables
//! encode the invariants ROADMAP.md states in prose:
//!
//! * `unsafe` lives only in `tt_trace`'s mmap substrate (`mmap.rs` plus
//!   the two typed-view helpers `op.rs`/`time.rs`); every other crate
//!   root carries `#![forbid(unsafe_code)]`.
//! * Library code never panics; tests, benches, examples and `#[cfg(test)]`
//!   modules may. `crates/serve` additionally admits **no** panic waivers —
//!   its `catch_unwind` backstop is for bugs, not policy.
//! * The output-affecting crates are clock- and hash-order-free;
//!   `tt_par::telemetry` (wall-clock observation) is the one sanctioned
//!   exception, and the bench/serve/cli/facade layers may time things.
//! * The compat shims mimic external crates (`proptest` *must* panic on a
//!   failed property) and are only subject to the unsafe audit.

/// Files allowed to contain `unsafe` (all in `tt-trace`'s mmap substrate).
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/trace/src/mmap.rs",
    "crates/trace/src/op.rs",
    "crates/trace/src/time.rs",
];

/// The one crate whose root may omit `#![forbid(unsafe_code)]`.
pub const FORBID_EXEMPT_ROOTS: &[&str] = &["crates/trace/src/lib.rs"];

/// Crate directories whose library code is subject to the panic-path
/// policy. (`crates/bench` exists to *be* benches and the compat shims
/// mirror external panicking APIs; both are exempt by construction.)
pub const PANIC_CRATE_DIRS: &[&str] = &[
    "crates/trace",
    "crates/stats",
    "crates/device",
    "crates/sim",
    "crates/workloads",
    "crates/core",
    "crates/par",
    "crates/cli",
    "crates/serve",
    "crates/lint",
    "src", // the facade crate
];

/// Paths where a panic waiver is itself a finding: the daemon's request
/// path must be panic-free with no exceptions.
pub const NO_PANIC_WAIVERS: &[&str] = &["crates/serve/src/"];

/// Crate directories whose outputs must be bit-reproducible and therefore
/// may not read ambient clocks or seed hashers randomly.
pub const DETERMINISM_CRATE_DIRS: &[&str] = &[
    "crates/trace",
    "crates/stats",
    "crates/device",
    "crates/sim",
    "crates/workloads",
    "crates/core",
    "crates/par",
];

/// Files exempt from the determinism lint: telemetry observes wall-clock
/// by design (and is property-tested to never steer outputs).
pub const DETERMINISM_ALLOWLIST: &[&str] = &["crates/par/src/telemetry.rs"];

/// How a source file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Shipped library/binary code: all lints apply.
    Library,
    /// Tests, benches, examples: unsafe-audit only (panicking asserts and
    /// wall-clock timing are the point of these files).
    TestSupport,
    /// Offline stand-ins for crates.io packages: unsafe-audit only.
    Compat,
}

/// Classify a workspace-relative path; `None` for files tt-lint ignores.
#[must_use]
pub fn classify(rel: &str) -> Option<FileKind> {
    if !rel.ends_with(".rs") || rel.starts_with("target/") {
        return None;
    }
    if rel.starts_with("compat/") {
        return Some(FileKind::Compat);
    }
    if rel.starts_with("tests/") || rel.starts_with("examples/") || rel.starts_with("benches/") {
        return Some(FileKind::TestSupport);
    }
    if rel.starts_with("src/") {
        return Some(FileKind::Library);
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (_crate_dir, inner) = rest.split_once('/')?;
        if inner.starts_with("src/") {
            return Some(FileKind::Library);
        }
        if inner.starts_with("tests/")
            || inner.starts_with("benches/")
            || inner.starts_with("examples/")
        {
            return Some(FileKind::TestSupport);
        }
    }
    None
}

/// `true` when `rel` is a crate root (`src/lib.rs` or `src/main.rs` of
/// the facade, a member crate, or a compat shim).
#[must_use]
pub fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" || rel == "src/main.rs" {
        return true;
    }
    for prefix in ["crates/", "compat/"] {
        if let Some(rest) = rel.strip_prefix(prefix) {
            let mut parts = rest.splitn(2, '/');
            let _name = parts.next();
            if let Some(inner) = parts.next() {
                if inner == "src/lib.rs" || inner == "src/main.rs" {
                    return true;
                }
            }
        }
    }
    false
}

/// `true` when `rel` lives under one of the listed directory prefixes.
#[must_use]
pub fn under_any(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| {
        if d.ends_with('/') {
            rel.starts_with(d)
        } else {
            rel.strip_prefix(d)
                .is_some_and(|rest| rest.starts_with('/'))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(classify("src/pipeline.rs"), Some(FileKind::Library));
        assert_eq!(
            classify("crates/serve/src/routes.rs"),
            Some(FileKind::Library)
        );
        assert_eq!(
            classify("crates/trace/tests/props.rs"),
            Some(FileKind::TestSupport)
        );
        assert_eq!(classify("tests/chain.rs"), Some(FileKind::TestSupport));
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some(FileKind::TestSupport)
        );
        assert_eq!(classify("compat/serde/src/lib.rs"), Some(FileKind::Compat));
        assert_eq!(classify("target/debug/build.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn crate_roots_are_detected() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/sim/src/lib.rs"));
        assert!(is_crate_root("crates/cli/src/main.rs"));
        assert!(is_crate_root("compat/serde/src/lib.rs"));
        assert!(!is_crate_root("crates/sim/src/replay.rs"));
        assert!(!is_crate_root("crates/bench/benches/throughput.rs"));
    }

    #[test]
    fn prefix_matching_requires_a_path_boundary() {
        assert!(under_any("crates/trace/src/lib.rs", &["crates/trace"]));
        assert!(!under_any("crates/tracex/src/lib.rs", &["crates/trace"]));
        assert!(under_any("crates/serve/src/http.rs", NO_PANIC_WAIVERS));
        assert!(!under_any("crates/serve/tests/server.rs", NO_PANIC_WAIVERS));
        assert!(under_any("src/lib.rs", &["src"]));
    }
}
