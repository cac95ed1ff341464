//! The repository's benchmark. See README.md for the workloads, the
//! metrics and how to run them; `BENCHMARK.json` at the repository
//! root is the machine-readable summary.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--report FILE]
//! benchmark all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--smoke] --report FILE
//! benchmark compare BASELINE.json CANDIDATE.json
//! benchmark manifest          # prints BENCHMARK.json from the metric tables
//! ```

mod campaigns;
mod compare;
mod daemon;
mod harness;
mod probes;
mod scan;
mod schema;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Options;
use schema::{Report, WORKLOADS};

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    trace: bool,
    runs: usize,
    report: Option<PathBuf>,
    opts: Options,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage:\n  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--report FILE]\n  benchmark all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--smoke] --report FILE\n  benchmark compare BASELINE.json CANDIDATE.json\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        trace: false,
        runs: 1,
        report: None,
        opts: Options {
            seed: harness::DEFAULT_SEED,
            seconds: f64::from(schema::RUN_SECONDS),
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                args.opts.seed =
                    v.parse().map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--runs" => {
                let v = value("--runs")?;
                args.runs = v.parse().map_err(|_| format!("--runs {v}: not a whole number"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--out" => args.opts.out = PathBuf::from(value("--out")?),
            "--smoke" => args.opts.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string())
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, trace: bool, opts: &Options) -> Result<Report, String> {
    let workload = WORKLOADS
        .iter()
        .map(|w| w.0)
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?;
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {}", opts.out.display(), e))?;
    let mut report = match (workload, trace) {
        ("nyx_write" | "nyx_read" | "montage_tiles", false) => {
            campaigns::run_untraced(workload, opts)
        }
        ("nyx_write" | "nyx_read" | "montage_tiles", true) => campaigns::run_traced(workload, opts),
        ("scan_meta", false) => scan::run_untraced(opts),
        ("scan_meta", true) => scan::run_traced(opts),
        ("daemon_jobs", false) => daemon::run_untraced(opts),
        ("daemon_jobs", true) => daemon::run_traced(opts),
        _ => unreachable!("every workload in the table is dispatched"),
    }?;
    if trace {
        probes::run(&mut report, opts)?;
    }
    Ok(report)
}

/// Run every workload `runs` times, one process and one seed per run
/// (so peak memory is per workload), and collect the full reports.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let report_path = args.report.as_ref().ok_or("all: --report FILE is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    std::fs::create_dir_all(&args.opts.out)
        .map_err(|e| format!("cannot create {}: {}", args.opts.out.display(), e))?;
    let run_file = args.opts.out.join(format!("run-{}.json", std::process::id()));
    let mut all_correct = true;
    let mut workloads: Vec<(&'static str, Vec<_>)> =
        WORKLOADS.iter().map(|(name, _)| (*name, Vec::new())).collect();
    // Round-robin over the workloads, so that a slow quarter of an
    // hour on a shared host costs every workload a run or two instead
    // of one workload half its runs.
    for i in 0..args.runs {
        let seed = args.opts.seed + i as u64;
        for (workload, runs) in &mut workloads {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.opts.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.opts.out)
                .arg("--report")
                .arg(&run_file);
            if args.opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
            let text = std::fs::read_to_string(&run_file).map_err(|e| {
                format!(
                    "{workload} (seed {seed}) wrote no report ({e}):\n{}",
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            let _ = std::fs::remove_file(&run_file);
            let correct = output.status.success();
            all_correct &= correct;
            println!("{workload} seed {seed}: {}", if correct { "ok" } else { "FAILED" });
            if !correct {
                print!("{}", String::from_utf8_lossy(&output.stdout));
            }
            runs.push(ffis_daemon::json::parse(&text)?);
        }
    }
    let set = compare::result_set(
        harness::provenance(),
        args.opts.seed,
        args.opts.seconds,
        args.opts.smoke,
        args.trace,
        workloads,
    );
    std::fs::write(report_path, set.render())
        .map_err(|e| format!("cannot write {}: {}", report_path.display(), e))?;
    if !args.trace {
        print!("{}", compare::summary(&set));
    }
    println!("wrote {}", report_path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [base, cand] = args.positional.as_slice() else {
        return Err(format!("compare takes two result sets\n{}", usage()));
    };
    let (base, cand) = (compare::load(base.as_ref())?, compare::load(cand.as_ref())?);
    let (table, regressed) = compare::compare(&base, &cand);
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    harness::pin_regime();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => match run_workload(workload, args.trace, &args.opts) {
            Ok(report) => {
                print!("{}", report.table());
                if let Some(path) = &args.report {
                    if let Err(e) = std::fs::write(path, report.to_json().render()) {
                        eprintln!("benchmark: cannot write {}: {}", path.display(), e);
                        return ExitCode::FAILURE;
                    }
                }
                println!("{}", report.contract_line());
                if report.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        },
        (Some("all"), None) => run_all(&args).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }),
        (Some("manifest"), None) => {
            print!("{}", schema::manifest());
            ExitCode::SUCCESS
        }
        (Some("compare"), None) => run_compare(&args).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
