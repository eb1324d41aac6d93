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
//! what the drain observed.
//!
//! In a build with the `fault-injection` feature, the `OSN_FAULTS`
//! environment variable installs a deterministic fault plan at startup
//! (see `osn-fault`); in default builds the variable is ignored.

use s3crm_serve::server::{self, ServeOptions};
use s3crm_serve::ServeState;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("osn-serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut data: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut max_inflight = 32usize;
    let mut admission_wait: Option<Duration> = None;
    let mut options = ServeOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        let ms = |flag: &str, v: String| -> Duration {
            Duration::from_millis(
                v.parse()
                    .unwrap_or_else(|_| die(&format!("{flag} needs milliseconds"))),
            )
        };
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(value("--data"))),
            "--addr" => addr = value("--addr"),
            "--max-inflight" => {
                max_inflight = value("--max-inflight")
                    .parse()
                    .unwrap_or_else(|_| die("--max-inflight needs a positive integer"));
            }
            "--admission-wait-ms" => {
                admission_wait = Some(ms("--admission-wait-ms", value("--admission-wait-ms")));
            }
            "--read-timeout-ms" => {
                options.read_timeout = Some(ms("--read-timeout-ms", value("--read-timeout-ms")));
            }
            "--write-timeout-ms" => {
                options.write_timeout = Some(ms("--write-timeout-ms", value("--write-timeout-ms")));
            }
            "--max-line-bytes" => {
                options.max_line_bytes = value("--max-line-bytes")
                    .parse()
                    .unwrap_or_else(|_| die("--max-line-bytes needs a positive integer"));
            }
            "--drain-timeout-ms" => {
                options.drain_deadline = ms("--drain-timeout-ms", value("--drain-timeout-ms"));
            }
            "--pool-size" => {
                let n: usize = value("--pool-size")
                    .parse()
                    .unwrap_or_else(|_| die("--pool-size needs a positive integer"));
                osn_pool::init_global(n).unwrap_or_else(|_| die("global pool already running"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: osn-serve --data PATH [--addr HOST:PORT] \
                     [--pool-size N] [--max-inflight K] [--admission-wait-ms MS] \
                     [--read-timeout-ms MS] [--write-timeout-ms MS] [--max-line-bytes B] \
                     [--drain-timeout-ms MS]"
                );
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    match osn_fault::install_from_env() {
        Ok(true) => eprintln!("osn-serve: fault plan installed from OSN_FAULTS"),
        Ok(false) => {}
        Err(e) => die(&format!("invalid OSN_FAULTS: {e}")),
    }
    let data = data.unwrap_or_else(|| die("--data PATH is required"));
    let mut state = ServeState::open(&data, max_inflight).unwrap_or_else(|e| die(&e));
    if let Some(wait) = admission_wait {
        state = state.with_admission_wait(wait);
    }
    let state = Arc::new(state);
    for line in state.info_lines() {
        eprintln!("osn-serve: {line}");
    }
    let server = server::spawn_with(state, addr.as_str(), options)
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
