//! Byte-identity load generator for `osn-serve`.
//!
//! ```text
//! loadgen --data PATH --serial --campaigns N [--out DIR]
//! loadgen --addr HOST:PORT --campaigns N --threads T [--out DIR]
//! loadgen --addr HOST:PORT --chaos --data PATH [--campaigns N] [--threads T]
//! loadgen --addr HOST:PORT --shutdown
//! ```
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

fn main() {
    let mut data: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut serial = false;
    let mut chaos = false;
    let mut shutdown = false;
    let mut campaigns = 64usize;
    let mut threads = 16usize;
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(value("--data"))),
            "--addr" => addr = Some(value("--addr")),
            "--serial" => serial = true,
            "--chaos" => chaos = true,
            "--shutdown" => shutdown = true,
            "--campaigns" => {
                campaigns = value("--campaigns")
                    .parse()
                    .unwrap_or_else(|_| die("--campaigns needs a positive integer"));
            }
            "--threads" => {
                threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads needs a positive integer"));
            }
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => {
                println!(
                    "usage: loadgen --data PATH --serial [--campaigns N] [--out DIR]\n\
                     \x20      loadgen --addr HOST:PORT [--campaigns N] [--threads T] [--out DIR]\n\
                     \x20      loadgen --addr HOST:PORT --chaos --data PATH [--campaigns N] [--threads T]\n\
                     \x20      loadgen --addr HOST:PORT --shutdown"
                );
                return;
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    }
    if shutdown {
        let addr = addr.unwrap_or_else(|| die("--shutdown needs --addr HOST:PORT"));
        let mut client =
            Client::connect(addr.as_str()).unwrap_or_else(|e| die(&format!("connect: {e}")));
        client
            .shutdown()
            .unwrap_or_else(|e| die(&format!("shutdown: {e}")));
        println!("loadgen: daemon at {addr} acknowledged shutdown");
    } else if chaos {
        run_chaos(addr, data, campaigns, threads.max(1), &out);
    } else if serial {
        run_serial(data, campaigns, &out);
    } else {
        run_concurrent(addr, campaigns, threads.max(1), &out);
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
