#![forbid(unsafe_code)]
//! # tt-cli — command-line front end
//!
//! The `tracetracker` binary: generate catalog workloads, inspect and
//! convert trace files, run the timing inference, reconstruct traces for a
//! target device, and verify the inference by idle injection.
//!
//! ```text
//! tracetracker catalog
//! tracetracker generate --workload MSNFS --requests 10000 --out old.csv
//! tracetracker stats old.csv --groups
//! tracetracker infer old.csv --json
//! tracetracker reconstruct old.csv --method tracetracker --device array --out new.csv
//! tracetracker verify old.csv --period 10ms --fraction 0.1
//! tracetracker convert old.csv old.blk
//! ```
//!
//! The argument layer is hand-rolled (no CLI dependency): see [`args`].

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod io;

use args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
tracetracker — hardware/software co-evaluation for I/O workload reconstruction

USAGE:
    tracetracker <COMMAND> [ARGS]

COMMANDS:
    catalog                           list the 31-workload Table I catalog
    devices                           list the preset device registry
    generate    --workload W [--requests N] [--seed S]
                [--device hdd|wd-blue|ssd|array] [--timing] [--out FILE]
    stats       TRACE [--groups] [--json]
                summary statistics of a trace file (--json prints the
                exact body tt-serve's /stats endpoint answers with)
    infer       TRACE [--json]        run the timing inference
    reconstruct TRACE --out FILE [--method tracetracker|dynamic|revision|
                acceleration|fixed-th] [--device D] [--factor N]
                [--threshold DUR] [--then-replay] [--mode open|closed]
                [--time-scale F]
    replay      TRACE [TRACE...] [--device D] [--mode open|closed]
                [--time-scale F] [--out FILE]
                [--fault-plan latency-spike|throttling|errors|mixed]
                [--fault-seed S] [--on-error abort|skip:N|quarantine]
                one input: single-stream replay; several: CONCURRENT
                replay on the one shared device, reported per stream.
                --fault-plan wraps the device in a deterministic seeded
                fault layer (same name+seed = byte-identical output);
                --on-error sets the input error budget: skip:N tolerates
                up to N malformed text records (quarantine: unlimited),
                reporting the skip count — the default aborts on the
                first bad record
    verify      TRACE [--period DUR] [--fraction F] [--seed S]
    convert     IN [IN...] OUT        convert between formats; several
                inputs are fan-in merged in arrival order
    serve       --root DIR [--init] [--addr A] [--workers N]
                run the resident analysis daemon (see `serve --help`)

Trace-consuming commands also take the pipeline knob
    --chunk-size N    records per streamed read chunk (default 65536;
                      bit-identical results at every size)
stats/reconstruct/replay/convert take the observability knob
    --timings         print the run's flight log to stderr: one
                      `timings: {json}` line plus a per-stage table of
                      wall-clock time and record counts
Any other flag is an error.

Trace files: the extension selects the format, case-insensitively
(.blk = blkparse text; .csv/.txt/.trace = SNIA-style CSV; .ttb = binary
columnar cache, analysed in place through a memory mapping; anything
else is an error).";

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message on any usage or I/O
/// problem.
pub fn dispatch(argv: &[String]) -> Result<(), ArgError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(ArgError(USAGE.to_string()));
    };
    // The daemon owns its flag grammar (switches like --init would parse
    // as value flags here); hand the rest of the line over verbatim.
    if command == "serve" {
        return tt_serve::run_cli(rest).map_err(|e| ArgError(e.to_string()));
    }
    // Each command's switches, then its value flags; anything else is
    // rejected rather than silently ignored.
    let (switches, values): (&[&str], &[&str]) = match command.as_str() {
        "catalog" | "devices" | "help" | "--help" | "-h" => (&[], &[]),
        "generate" => (
            &["timing"],
            &["workload", "requests", "seed", "device", "out"],
        ),
        "stats" => (&["groups", "json", "timings"], &["chunk-size"]),
        "infer" => (&["json"], &["chunk-size"]),
        "reconstruct" => (
            &["then-replay", "timings"],
            &[
                "out",
                "method",
                "device",
                "factor",
                "threshold",
                "mode",
                "time-scale",
                "chunk-size",
            ],
        ),
        "replay" => (
            &["timings"],
            &[
                "device",
                "mode",
                "time-scale",
                "out",
                "fault-plan",
                "fault-seed",
                "on-error",
                "chunk-size",
            ],
        ),
        "verify" => (&[], &["period", "fraction", "seed", "chunk-size"]),
        "convert" => (&["timings"], &["chunk-size"]),
        other => return Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
    };
    let args =
        Args::parse(rest, switches, values).map_err(|e| ArgError(format!("{command}: {e}")))?;
    match command.as_str() {
        "catalog" => commands::catalog_cmd(&args),
        "devices" => commands::devices_cmd(&args),
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "infer" => commands::infer_cmd(&args),
        "reconstruct" => commands::reconstruct(&args),
        "replay" => commands::replay_cmd(&args),
        "verify" => commands::verify(&args),
        "convert" => commands::convert(&args),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn empty_command_line_shows_usage() {
        let err = dispatch(&[]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = dispatch(&raw(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn help_succeeds() {
        dispatch(&raw(&["help"])).unwrap();
    }

    #[test]
    fn catalog_succeeds() {
        dispatch(&raw(&["catalog"])).unwrap();
    }

    #[test]
    fn unknown_flags_name_the_flag_and_the_command() {
        // A removed switch, which must not swallow the next flag as its
        // value, and a typo'd value flag.
        for (line, flag, command) in [
            (
                &["stats", "t.ttb", "--no-mmap", "--groups"][..],
                "--no-mmap",
                "stats",
            ),
            (
                &["stats", "t.csv", "--paralel", "2"][..],
                "--paralel",
                "stats",
            ),
            (&["verify", "t.ttb", "--mmap"][..], "--mmap", "verify"),
        ] {
            let err = dispatch(&raw(line)).unwrap_err().to_string();
            assert!(err.contains(flag), "{err}");
            assert!(err.starts_with(command), "{err}");
        }
    }
}
