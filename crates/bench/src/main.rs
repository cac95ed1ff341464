//! `repro` — regenerate every table and figure of the paper.

use std::sync::Arc;
use std::sync::OnceLock;

use ffis_bench::{experiments, Options};
use ffis_core::CancelToken;

fn usage() -> String {
    let mut s = String::from(
        "usage: repro <experiment> [--runs N] [--seed S] [--grid G] [--out DIR] [--quick]\n\
         \u{20}                    [--journal DIR] [--resume] [--workers N]\n\n\
         experiments:\n",
    );
    for name in experiments::ALL {
        s.push_str(&format!("  {}\n", name));
    }
    s.push_str(
        "  repair\n  profile\n  read-faults\n  checksum\n  param-faults\n  scale      \
         (n=192 paper regime unless --grid given)\n  \
         all        (everything above except scale)\n\n\
         daemon:\n  repro daemon serve|submit|status|watch|cancel|jobs|health\n  \
         campaign-as-a-service: persistent job queue + REST/NDJSON API (see `repro daemon`)\n\n\
         durability:\n  --journal DIR   write per-campaign run journals under DIR\n  \
         --resume        resume from existing journals (safe with no journal present)\n  \
         Ctrl-C          graceful stop: completed runs are journaled, partial tallies reported\n\n\
         distribution:\n  --workers N     (scale only) shard each campaign across N worker \
         processes\n  \
         \u{20}                and merge their journals\n",
    );
    s
}

/// The one Ctrl-C token, shared with every campaign of the invocation.
static CANCEL: OnceLock<Arc<CancelToken>> = OnceLock::new();

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
const SIG_DFL: usize = 0;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// First Ctrl-C (or SIGTERM — the daemon's service-manager stop)
/// requests a graceful stop (an atomic store — async-signal-safe); the
/// handler then restores the default dispositions so a second signal
/// kills the process outright.
extern "C" fn on_sigint(_sig: i32) {
    if let Some(cancel) = CANCEL.get() {
        cancel.cancel();
    }
    unsafe {
        signal(SIGINT, SIG_DFL);
        signal(SIGTERM, SIG_DFL);
    }
}

fn install_sigint() -> Arc<CancelToken> {
    let cancel = CANCEL.get_or_init(CancelToken::new).clone();
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
        signal(SIGTERM, on_sigint as *const () as usize);
    }
    cancel
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The daemon subcommands have their own flag grammar (`--addr`,
    // `--digest`, …) — route them before Options parsing.
    if args.first().map(String::as_str) == Some("daemon") {
        let cancel = install_sigint();
        std::process::exit(ffis_bench::daemon_cli::run(&args[1..], &cancel));
    }
    let (mut opts, positional) = match Options::parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {}\n\n{}", e, usage());
            std::process::exit(2);
        }
    };
    let Some(cmd) = positional.first() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let cancel = install_sigint();
    opts.cancel = Some(cancel.clone());

    let names: Vec<&str> = if cmd == "all" {
        let mut v: Vec<&str> = experiments::ALL.to_vec();
        v.extend(["repair", "profile", "read-faults", "checksum", "param-faults"]);
        v
    } else {
        vec![cmd.as_str()]
    };

    for name in names {
        if cancel.is_cancelled() {
            break;
        }
        let started = std::time::Instant::now();
        match experiments::run(name, &opts) {
            Ok(report) => {
                if let Err(e) = report.emit(&opts.out) {
                    eprintln!("warning: could not save {}: {}", name, e);
                }
                eprintln!("[{}] done in {:.1}s", name, started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: {}\n\n{}", e, usage());
                std::process::exit(2);
            }
        }
    }
    if cancel.is_cancelled() {
        eprintln!(
            "interrupted: completed runs {} — rerun with --resume to continue",
            if opts.journal.is_some() { "are journaled" } else { "were reported (no --journal)" }
        );
        std::process::exit(130);
    }
}
