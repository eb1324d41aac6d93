//! Byte-identity load generator for `osn-serve`.
//!
//! ```text
//! loadgen --data PATH --serial --campaigns N [--out DIR]
//! loadgen --addr HOST:PORT --campaigns N --threads T [--out DIR]
//! loadgen --addr HOST:PORT --chaos --data PATH [--campaigns N] [--threads T]
//! loadgen --addr HOST:PORT --shutdown
//! ```
//!
//! A malformed command line (unknown flag, missing or non-numeric value,
//! `--campaigns 0`, `--threads 0`, or more threads than
//! `osn_pool::MAX_THREADS`) prints `loadgen: <reason>` plus usage and
//! exits 2.
//!
//! Campaign `i`'s spec is the deterministic [`spec_for`] mix (algorithms ×
//! budgets × estimators × evaluation world counts), identical in both
//! modes, so the files a concurrent client run writes must be
//! byte-identical to the serial reference's — `repro csvdiff A B 0` per
//! pair is the CI check. Every mode prints counts only (campaigns ok,
//! failed or divergent); throughput and latency are perfbench's job.
//!
//! `--chaos` is the fault-tolerance benchmark: it drives the same campaign
//! mix through the retrying client (jittered backoff on `BUSY`, transport
//! drops, and panic-isolated internal errors — typically against a daemon
//! running with an `OSN_FAULTS` plan), computes the serial in-process
//! reference from `--data`, and demands every successful reply be
//! **byte-identical** to it. It reports campaign and retry counts and exits
//! nonzero on any wrong answer or exhausted retry budget: faults may cost
//! retries, never correctness.

#![forbid(unsafe_code)]

use s3crm_bench::cli::{flag_count, flag_positive, flag_value};
use s3crm_serve::client::{RetryPolicy, RetryingClient};
use s3crm_serve::{CampaignSpec, Client, ServeState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}

/// The deterministic campaign mix: cycles algorithms, budget multipliers,
/// S3CA estimators, sketch ε, and evaluation world counts so a run of ≥ 16
/// campaigns exercises every axis, with several distinct resident backends
/// and two sketch indexes in flight at once.
fn spec_for(i: usize) -> CampaignSpec {
    use s3crm_bench::Algorithm;
    use s3crm_core::EstimatorBackend;
    let algorithms = [
        Algorithm::S3ca,
        Algorithm::ImU,
        Algorithm::PmL,
        Algorithm::ImS,
    ];
    let budgets = [1.0, 0.5, 2.0];
    let sketch = !(i / 4).is_multiple_of(2);
    CampaignSpec {
        algorithm: algorithms[i % algorithms.len()],
        budget_mult: budgets[i % budgets.len()],
        estimator: if sketch {
            EstimatorBackend::Sketch
        } else {
            EstimatorBackend::Mc
        },
        // Sketch S3CA campaigns (i = 4, 12, 20, …) alternate between two
        // index keys, so both are in flight at once.
        epsilon: if sketch && !(i / 8).is_multiple_of(2) {
            0.05
        } else {
            0.1
        },
        eval_worlds: if (i / 3).is_multiple_of(2) { 64 } else { 96 },
        ..CampaignSpec::default()
    }
}

fn write_reply(out: &Option<PathBuf>, i: usize, lines: &[String]) {
    let Some(dir) = out else { return };
    let path = dir.join(format!("campaign_{i:04}.csv"));
    let body = lines.join("\n") + "\n";
    std::fs::write(&path, body)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

const USAGE: &str = "usage: loadgen --data PATH --serial [--campaigns N] [--out DIR]\n\
                     \x20      loadgen --addr HOST:PORT [--campaigns N] [--threads T] [--out DIR]\n\
                     \x20      loadgen --addr HOST:PORT --chaos --data PATH [--campaigns N] [--threads T]\n\
                     \x20      loadgen --addr HOST:PORT --shutdown";

/// A checked loadgen command line.
struct Args {
    data: Option<PathBuf>,
    addr: Option<String>,
    serial: bool,
    chaos: bool,
    shutdown: bool,
    campaigns: usize,
    threads: usize,
    out: Option<PathBuf>,
}

/// Parse the command line (program name excluded); `None` asks for help.
/// Malformed input is a usage error, never a panic or a silent clamp.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        data: None,
        addr: None,
        serial: false,
        chaos: false,
        shutdown: false,
        campaigns: 64,
        threads: 16,
        out: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => parsed.data = Some(PathBuf::from(flag_value(&mut it, "--data")?)),
            "--addr" => parsed.addr = Some(flag_value(&mut it, "--addr")?),
            "--serial" => parsed.serial = true,
            "--chaos" => parsed.chaos = true,
            "--shutdown" => parsed.shutdown = true,
            "--campaigns" => parsed.campaigns = flag_positive(&mut it, "--campaigns")?,
            // One client thread each: bounded like every pool size.
            "--threads" => {
                parsed.threads = flag_count(&mut it, "--threads", osn_pool::MAX_THREADS)?;
            }
            "--out" => parsed.out = Some(PathBuf::from(flag_value(&mut it, "--out")?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(parsed))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => die(&format!("{e}\n{USAGE}")),
    };
    let out = &args.out;
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    }
    if args.shutdown {
        let addr = args
            .addr
            .unwrap_or_else(|| die("--shutdown needs --addr HOST:PORT"));
        let mut client =
            Client::connect(addr.as_str()).unwrap_or_else(|e| die(&format!("connect: {e}")));
        client
            .shutdown()
            .unwrap_or_else(|e| die(&format!("shutdown: {e}")));
        println!("loadgen: daemon at {addr} acknowledged shutdown");
    } else if args.chaos {
        run_chaos(args.addr, args.data, args.campaigns, args.threads, out);
    } else if args.serial {
        run_serial(args.data, args.campaigns, out);
    } else {
        run_concurrent(args.addr, args.campaigns, args.threads, out);
    }
}

/// The reference path: the same `ServeState::run_campaign` code the daemon
/// executes, in-process and one campaign at a time.
fn run_serial(data: Option<PathBuf>, campaigns: usize, out: &Option<PathBuf>) {
    let data = data.unwrap_or_else(|| die("--serial needs --data PATH"));
    let state = ServeState::open(&data, 1).unwrap_or_else(|e| die(&e));
    for i in 0..campaigns {
        let reply = state
            .run_campaign(&spec_for(i))
            .unwrap_or_else(|e| die(&format!("campaign {i}: {e}")));
        write_reply(out, i, &reply.deterministic_lines());
    }
    println!("loadgen: {campaigns} serial campaigns ok");
}

/// Chaos mode: the same campaign mix through the retrying client, against
/// a (typically fault-injecting) daemon, verified byte-for-byte against
/// the in-process serial reference. Prints campaign and retry counts and
/// exits nonzero on any wrong answer or exhausted retry budget.
fn run_chaos(
    addr: Option<String>,
    data: Option<PathBuf>,
    campaigns: usize,
    threads: usize,
    out: &Option<PathBuf>,
) {
    use std::net::ToSocketAddrs;
    let addr = addr.unwrap_or_else(|| die("--chaos needs --addr HOST:PORT"));
    let data = data.unwrap_or_else(|| die("--chaos needs --data PATH for the serial reference"));
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr}")));

    // The ground truth: every campaign's deterministic reply, computed
    // in-process with no daemon (and no faults) involved.
    let state = ServeState::open(&data, 1).unwrap_or_else(|e| die(&e));
    let reference: Vec<Vec<String>> = (0..campaigns)
        .map(|i| {
            state
                .run_campaign(&spec_for(i))
                .unwrap_or_else(|e| die(&format!("reference campaign {i}: {e}")))
                .deterministic_lines()
        })
        .collect();

    let next = AtomicUsize::new(0);
    let oks = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (next, oks, failures, mismatches, retries, reference, out) = (
                &next,
                &oks,
                &failures,
                &mismatches,
                &retries,
                &reference,
                out,
            );
            s.spawn(move || {
                let mut client = RetryingClient::new(sock, RetryPolicy::default(), t as u64);
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= campaigns {
                        break;
                    }
                    match client.campaign(&spec_for(i)) {
                        Ok(lines) => {
                            if lines == reference[i] {
                                oks.fetch_add(1, Ordering::SeqCst);
                                write_reply(out, i, &lines);
                            } else {
                                eprintln!("loadgen: campaign {i} diverged from the reference");
                                mismatches.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Err(e) => {
                            eprintln!("loadgen: campaign {i} failed after retries: {e}");
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                retries.fetch_add(client.retries(), Ordering::SeqCst);
            });
        }
    });
    let ok = oks.load(Ordering::SeqCst);
    let failed = failures.load(Ordering::SeqCst);
    let wrong = mismatches.load(Ordering::SeqCst);
    let retried = retries.load(Ordering::SeqCst);
    if wrong > 0 {
        eprintln!("loadgen: CHAOS FAILURE — {wrong} replies diverged from the serial reference");
        std::process::exit(1);
    }
    if failed > 0 || ok == 0 {
        eprintln!("loadgen: {failed} of {campaigns} campaigns exhausted their retry budget");
        std::process::exit(1);
    }
    println!(
        "loadgen: chaos {ok}/{campaigns} campaigns ok over {threads} threads, \
         0 failed, 0 divergent, {retried} retries"
    );
}

fn run_concurrent(addr: Option<String>, campaigns: usize, threads: usize, out: &Option<PathBuf>) {
    let addr = addr.unwrap_or_else(|| die("client mode needs --addr HOST:PORT (or use --serial)"));
    let next = AtomicUsize::new(0);
    let oks = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (addr, next, oks, failures) = (&addr, &next, &oks, &failures);
            s.spawn(move || {
                let mut client = match Client::connect(addr.as_str()) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("loadgen: cannot connect to {addr}: {e}");
                        failures.fetch_add(campaigns, Ordering::SeqCst);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= campaigns {
                        break;
                    }
                    match client.campaign(&spec_for(i)) {
                        Ok(Ok(lines)) => {
                            oks.fetch_add(1, Ordering::SeqCst);
                            write_reply(out, i, &lines);
                        }
                        Ok(Err(msg)) => {
                            eprintln!("loadgen: campaign {i} rejected: {msg}");
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => {
                            eprintln!("loadgen: campaign {i} transport error: {e}");
                            failures.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            });
        }
    });
    let ok = oks.load(Ordering::SeqCst);
    let failed = failures.load(Ordering::SeqCst);
    if ok == 0 || failed > 0 {
        eprintln!("loadgen: {failed} of {campaigns} campaigns failed");
        std::process::exit(1);
    }
    println!("loadgen: {ok}/{campaigns} campaigns ok over {threads} threads, 0 failed");
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Args};

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_clamps() {
        let too_many = (osn_pool::MAX_THREADS + 1).to_string();
        let cases: [(&[&str], &str); 9] = [
            (&["--serial", "--campaigns", "0"], "--campaigns"),
            (&["--addr", "h:1", "--threads", "0"], "--threads"),
            (&["--addr", "h:1", "--threads", &too_many], "--threads"),
            (&["--addr", "h:1", "--threads", "100000"], "--threads"),
            (&["--addr", "h:1", "--threads", "-1"], "--threads"),
            (&["--serial", "--campaigns", "many"], "--campaigns"),
            (&["--serial", "--campaigns"], "--campaigns"),
            (&["--addr"], "--addr"),
            (&["--serial", "--workers", "2"], "--workers"),
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
        let max = osn_pool::MAX_THREADS.to_string();
        let Ok(Some(args)) = parse(&[
            "--addr",
            "127.0.0.1:7171",
            "--campaigns",
            "3",
            "--threads",
            &max,
            "--out",
            "dir",
        ]) else {
            panic!("valid command line rejected");
        };
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(args.campaigns, 3);
        assert_eq!(args.threads, osn_pool::MAX_THREADS);
        assert_eq!(args.out.as_ref().and_then(|p| p.to_str()), Some("dir"));
        assert!(!args.serial && !args.chaos && !args.shutdown);
        let Ok(Some(defaults)) = parse(&["--serial", "--data", "g.txt"]) else {
            panic!("valid command line rejected");
        };
        assert!(defaults.serial);
        assert_eq!((defaults.campaigns, defaults.threads), (64, 16));
        assert!(matches!(parse(&["--help"]), Ok(None)));
    }
}
