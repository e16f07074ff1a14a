//! Command line: `ttbench --workload <name> [--seed N] [--seconds S]
//! [--trace 0|1] [--records N] [--large-records N] [--bless]`.
//!
//! Prints check and metric lines, then the JSON result as the last line.
//! Exits 0 when every output check passed, 1 when one failed, and 2 on a
//! usage or set-up error (without printing a result).
//!
//! `--prepare <dir>` is set-up's child mode: it writes the workload's
//! inputs under `dir`, prints the trace names, and exits.

use std::path::PathBuf;
use std::process::ExitCode;

use ttbench::{report, Config, DEFAULT_LARGE_RECORDS, DEFAULT_RECORDS, GOLDEN_SEED};

const USAGE: &str = "usage: ttbench --workload analyze|revive|replay-open|serve \
[--seed N] [--seconds S] [--trace 0|1] [--records N] [--large-records N] [--bless]";

/// The parsed command line: the run's settings, plus the directory to
/// write inputs to in `--prepare` mode.
fn parse(args: &[String]) -> Result<(Config, Option<PathBuf>), String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 10.0,
        traced: false,
        records: DEFAULT_RECORDS,
        large_records: DEFAULT_LARGE_RECORDS,
        work_dir: PathBuf::from(".bench_work"),
        golden: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json"),
        bless: false,
        exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
    };
    let mut prepare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--records" => {
                cfg.records = value()?.parse().map_err(|e| format!("--records: {e}"))?;
            }
            "--large-records" => {
                cfg.large_records = value()?
                    .parse()
                    .map_err(|e| format!("--large-records: {e}"))?;
            }
            "--prepare" => prepare = Some(PathBuf::from(value()?)),
            "--bless" => cfg.bless = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok((cfg, prepare))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(cfg, prepare)| {
        if let Some(dir) = prepare {
            return ttbench::prepare_inputs(&cfg, &dir).map(|names| {
                for name in names {
                    println!("{name}");
                }
                None
            });
        }
        std::fs::create_dir_all(&cfg.work_dir)
            .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
        ttbench::run(&cfg).map(Some)
    });
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(o)) => {
            for line in &o.lines {
                println!("{line}");
            }
            println!(
                "{}",
                report::result_json(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ttbench: {e}");
            ExitCode::from(2)
        }
    }
}
