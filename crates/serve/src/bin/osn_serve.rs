//! The `osn-serve` daemon binary.
//!
//! ```text
//! osn-serve --data PATH [--addr 127.0.0.1:7171] [--pool-size N] [--max-inflight K]
//!           [--admission-wait-ms MS] [--read-timeout-ms MS] [--write-timeout-ms MS]
//!           [--max-line-bytes B] [--drain-timeout-ms MS]
//! ```
//!
//! Loads the dataset, binds the address, prints one `listening on …` line
//! (scripts wait for it), and serves until a `SHUTDOWN` request arrives —
//! then drains in-flight campaigns under `--drain-timeout-ms` and reports
//! what the drain observed. A malformed command line (unknown flag, missing
//! or non-numeric value, a zero count or duration) prints
//! `osn-serve: <reason>` plus usage and exits 2.
//!
//! In a build with the `fault-injection` feature, the `OSN_FAULTS`
//! environment variable installs a deterministic fault plan at startup
//! (see `osn-fault`); in default builds the variable is ignored.

#![forbid(unsafe_code)]

use s3crm_bench::cli::{flag_positive, flag_value, pool_size_flag};
use s3crm_serve::server::{self, ServeOptions};
use s3crm_serve::ServeState;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: osn-serve --data PATH [--addr HOST:PORT] \
                     [--pool-size N] [--max-inflight K] [--admission-wait-ms MS] \
                     [--read-timeout-ms MS] [--write-timeout-ms MS] [--max-line-bytes B] \
                     [--drain-timeout-ms MS]";

/// What a command line asks for.
enum Cli {
    Run(Args),
    Help,
}

/// A checked daemon command line.
struct Args {
    data: PathBuf,
    addr: String,
    pool_size: Option<usize>,
    max_inflight: usize,
    admission_wait: Option<Duration>,
    options: ServeOptions,
}

/// The value following `flag`, as a positive number of milliseconds.
fn flag_millis(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<Duration, String> {
    flag_positive(it, flag).map(Duration::from_millis)
}

/// Parse the command line (program name excluded). Malformed input is a
/// usage error, never a panic.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut data: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut pool_size: Option<usize> = None;
    let mut max_inflight = 32usize;
    let mut admission_wait: Option<Duration> = None;
    let mut options = ServeOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(flag_value(&mut it, "--data")?)),
            "--addr" => addr = flag_value(&mut it, "--addr")?,
            "--max-inflight" => max_inflight = flag_positive(&mut it, "--max-inflight")?,
            "--admission-wait-ms" => {
                admission_wait = Some(flag_millis(&mut it, "--admission-wait-ms")?);
            }
            "--read-timeout-ms" => {
                options.read_timeout = Some(flag_millis(&mut it, "--read-timeout-ms")?);
            }
            "--write-timeout-ms" => {
                options.write_timeout = Some(flag_millis(&mut it, "--write-timeout-ms")?);
            }
            "--max-line-bytes" => {
                options.max_line_bytes = flag_positive(&mut it, "--max-line-bytes")?;
            }
            "--drain-timeout-ms" => {
                options.drain_deadline = flag_millis(&mut it, "--drain-timeout-ms")?;
            }
            "--pool-size" => pool_size_flag(&mut it, &mut pool_size)?,
            "--help" | "-h" => return Ok(Cli::Help),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Cli::Run(Args {
        data: data.ok_or("--data PATH is required")?,
        addr,
        pool_size,
        max_inflight,
        admission_wait,
        options,
    }))
}

fn die(msg: &str) -> ! {
    eprintln!("osn-serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => die(&format!("{e}\n{USAGE}")),
    };
    if let Some(threads) = args.pool_size {
        osn_pool::init_global(threads).unwrap_or_else(|_| die("global pool already running"));
    }
    match osn_fault::install_from_env() {
        Ok(true) => eprintln!("osn-serve: fault plan installed from OSN_FAULTS"),
        Ok(false) => {}
        Err(e) => die(&format!("invalid OSN_FAULTS: {e}")),
    }
    let mut state = ServeState::open(&args.data, args.max_inflight).unwrap_or_else(|e| die(&e));
    if let Some(wait) = args.admission_wait {
        state = state.with_admission_wait(wait);
    }
    let state = Arc::new(state);
    for line in state.info_lines() {
        eprintln!("osn-serve: {line}");
    }
    let addr = args.addr;
    let server = server::spawn_with(state, addr.as_str(), args.options)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    println!("osn-serve listening on {}", server.addr());
    std::io::stdout().flush().ok();
    let report = server.wait();
    if report.accept_loop_panicked {
        die("accept loop panicked");
    }
    eprintln!(
        "osn-serve: shutdown complete (closed {} connections, forced {} requests, {} lingering)",
        report.closed_connections, report.forced_requests, report.lingering_connections
    );
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Cli};
    use std::time::Duration;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        let cases: [(&[&str], &str); 16] = [
            (
                &["--data", "g.txt", "--max-inflight", "0"],
                "--max-inflight",
            ),
            (&["--data", "g.txt", "--pool-size", "0"], "--pool-size"),
            (&["--data", "g.txt", "--pool-size", "257"], "--pool-size"),
            (&["--data", "g.txt", "--pool-size", "100000"], "--pool-size"),
            (
                &["--data", "g.txt", "--max-line-bytes", "0"],
                "--max-line-bytes",
            ),
            (
                &["--data", "g.txt", "--read-timeout-ms", "0"],
                "--read-timeout-ms",
            ),
            (
                &["--data", "g.txt", "--max-inflight", "many"],
                "--max-inflight",
            ),
            (
                &["--data", "g.txt", "--max-inflight", "-1"],
                "--max-inflight",
            ),
            (
                &["--data", "g.txt", "--drain-timeout-ms", "soon"],
                "--drain-timeout-ms",
            ),
            (&["--data", "g.txt", "--max-line-bytes"], "--max-line-bytes"),
            (&["--data", "g.txt", "--addr"], "--addr"),
            (&["--data"], "--data"),
            (&["--max-inflight", "4"], "--data"),
            (
                &["--data", "g.txt", "--pool-size", "1", "--pool-size", "2"],
                "--pool-size",
            ),
            (&["--data", "g.txt", "--workers", "2"], "--workers"),
            (&["--data", "g.txt", "extra"], "extra"),
        ];
        for (args, flag) in cases {
            match parse(args) {
                Err(e) => assert!(e.contains(flag), "{args:?}: {e}"),
                Ok(_) => panic!("{args:?} must be a usage error"),
            }
        }
    }

    #[test]
    fn well_formed_flags_parse() {
        let Ok(Cli::Run(args)) = parse(&[
            "--data",
            "g.txt",
            "--addr",
            "127.0.0.1:0",
            "--pool-size",
            "3",
            "--max-inflight",
            "8",
            "--admission-wait-ms",
            "2000",
            "--max-line-bytes",
            "4096",
            "--drain-timeout-ms",
            "5000",
        ]) else {
            panic!("valid command line rejected");
        };
        assert_eq!(args.data.to_str(), Some("g.txt"));
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.pool_size, Some(3));
        assert_eq!(args.max_inflight, 8);
        assert_eq!(args.admission_wait, Some(Duration::from_millis(2000)));
        assert_eq!(args.options.max_line_bytes, 4096);
        assert_eq!(args.options.drain_deadline, Duration::from_millis(5000));
        assert!(matches!(parse(&["--help"]), Ok(Cli::Help)));
    }
}
