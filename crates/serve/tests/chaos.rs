//! Chaos suite: the hardened daemon under a deterministic `osn-fault`
//! plan. Requires the `fault-injection` feature (the `[[test]]` entry in
//! `Cargo.toml` gates it), so a default `cargo test` skips this file and
//! production builds carry no injection code at all.
//!
//! The suite runs as ONE test function: fault plans are process-global
//! (serialized by `Scenario`'s gate), and the fault-free reference replies
//! must be computed while *no* plan is installed — sequential sub-scenarios
//! make that ordering explicit instead of racing the test harness.
//!
//! The invariant under test everywhere: injected I/O errors, delays, and
//! panics may cost retries and throughput, but every reply that reports
//! success is byte-identical to the fault-free serial reference.

use osn_fault::Scenario;
use s3crm_serve::{server, CampaignSpec, Client, RetryPolicy, RetryingClient, ServeState};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/smoke_snap.txt")
}

/// The same deterministic mixed spec set the loadgen uses, small enough
/// for a test.
fn specs(n: usize) -> Vec<CampaignSpec> {
    use s3crm_bench::Algorithm;
    use s3crm_core::EstimatorBackend;
    let algorithms = [Algorithm::S3ca, Algorithm::ImU, Algorithm::PmL];
    (0..n)
        .map(|i| CampaignSpec {
            algorithm: algorithms[i % algorithms.len()],
            budget_mult: [1.0, 0.5, 2.0][i % 3],
            estimator: if (i / 3) % 2 == 0 {
                EstimatorBackend::Mc
            } else {
                EstimatorBackend::Sketch
            },
            eval_worlds: if i % 2 == 0 { 64 } else { 96 },
            ..CampaignSpec::default()
        })
        .collect()
}

#[test]
fn chaos_suite() {
    // Ground truth first, with no fault plan installed anywhere.
    let reference_state = ServeState::open(&fixture(), 1).expect("reference state");
    let expected: Vec<Vec<String>> = specs(9)
        .iter()
        .map(|s| {
            reference_state
                .run_campaign(s)
                .expect("fault-free reference campaign")
                .deterministic_lines()
        })
        .collect();
    drop(reference_state);

    faults_cost_retries_never_correctness(&expected);
    injected_graph_io_errors_surface_as_clean_open_failures(&expected);
    shutdown_drains_in_flight_campaigns_under_injected_delays(&expected);
    saturated_admission_sheds_busy_and_retries_recover(&expected);
    a_refused_connection_thread_does_not_end_the_accept_loop(&expected);
}

/// The tentpole scenario: panics at the campaign and evaluation sites,
/// an injected socket-write error, and probabilistic read and evaluation
/// delays — all at once, against concurrent clients. Every campaign must
/// still converge to the byte-exact reference via retries.
fn faults_cost_retries_never_correctness(expected: &[Vec<String>]) {
    let _scenario = Scenario::new(
        "seed=7 \
         serve.campaign.run=panic@1 \
         serve.eval=panic@2 \
         serve.conn.write=ioerr@3 \
         serve.conn.read=delay,2:0.2 \
         serve.eval=delay,1:0.5",
    );
    let state = Arc::new(ServeState::open(&fixture(), 4).expect("daemon state"));
    let srv = server::spawn(state, "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    let total_retries: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = specs(9)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let expected = &expected[i];
                s.spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 10,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(50),
                    };
                    let mut client = RetryingClient::new(addr, policy, i as u64);
                    let got = client
                        .campaign(&spec)
                        .unwrap_or_else(|e| panic!("campaign {i} never recovered: {e}"));
                    assert_eq!(
                        &got, expected,
                        "campaign {i} reply diverged from the fault-free reference"
                    );
                    client.retries()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // The plan's one-shot panics must actually have fired (and been
    // recovered from) — otherwise this test is vacuous.
    assert!(
        osn_fault::hits("serve.campaign.run") >= 9,
        "campaign fault site was not on the executed path"
    );
    assert!(
        osn_fault::hits("serve.eval") > 0,
        "evaluation fault site was not on the executed path"
    );
    assert!(
        total_retries >= 1,
        "injected panics should have forced at least one retry"
    );

    let mut client = Client::connect(addr).expect("connect");
    let info = client.request("INFO").expect("info");
    assert!(
        info.iter().any(|l| l.starts_with("campaigns_served=")),
        "info should report served campaigns: {info:?}"
    );
    client.shutdown().expect("shutdown");
    let report = srv.wait();
    assert!(report.clean(), "drain was not clean: {report:?}");
}

/// Storage-layer faults: an injected I/O error while opening a sharded
/// `.oscg` must surface as a clean `Err` from `ServeState::open` — no
/// panic, no partial state — and the very next open (fault spent) works.
fn injected_graph_io_errors_surface_as_clean_open_failures(expected: &[Vec<String>]) {
    let dir = s3crm_tests::TempDir::new("chaos-sharded");
    let sharded_path = dir.file("smoke.oscg");
    s3crm_bench::dataset::convert_sharded(&fixture(), &sharded_path, 2).expect("convert fixture");

    let _scenario = Scenario::new("graph.shard.open=ioerr@1");
    let err = match ServeState::open(&sharded_path, 2) {
        Err(e) => e,
        Ok(_) => panic!("injected open fault must fail the load"),
    };
    assert!(
        err.contains("injected fault") && err.contains("graph.shard.open"),
        "error should carry the injected cause: {err}"
    );
    // `@1` fires exactly once: the retried open succeeds and serves the
    // same graph as the monolithic fixture.
    let state =
        ServeState::open(&sharded_path, 2).expect("second open succeeds after the one-shot fault");
    let got = state
        .run_campaign(&specs(9)[0])
        .expect("campaign on the recovered state")
        .deterministic_lines();
    assert_eq!(got, expected[0], "recovered open serves a different graph");
}

/// `SHUTDOWN` while campaigns are genuinely in flight (final evaluation
/// stretched by an injected delay): in-flight requests finish with correct
/// replies, the drain is clean, and late requests are refused with
/// `ERR draining`.
fn shutdown_drains_in_flight_campaigns_under_injected_delays(expected: &[Vec<String>]) {
    let _scenario = Scenario::new("serve.eval=delay,150");
    let state = Arc::new(ServeState::open(&fixture(), 4).expect("daemon state"));
    let srv = server::spawn(state, "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    std::thread::scope(|s| {
        let inflight: Vec<_> = (0..3)
            .map(|i| {
                let expected = &expected[i];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let got = client
                        .campaign(&specs(9)[i])
                        .expect("transport")
                        .expect("in-flight campaign must finish during drain");
                    assert_eq!(&got, expected, "drained campaign {i} diverged");
                })
            })
            .collect();
        // Pull the plug only once the daemon itself reports all three
        // campaigns admitted (`inflight=3`): admission happens after a
        // request is registered as busy, so the drain is then guaranteed
        // to wait for every one of them. A bare sleep here was racy — a
        // client whose request had not yet been read would see its socket
        // force-closed instead of served.
        let mut killer = Client::connect(addr).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let info = killer.request("INFO").expect("info while campaigns run");
            if info.iter().any(|l| l == "inflight=3") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "campaigns never became concurrently in flight: {info:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(killer.shutdown().expect("shutdown request"));
        for h in inflight {
            h.join().unwrap();
        }
    });

    let report = srv.wait();
    assert!(
        report.clean(),
        "in-flight campaigns fit the drain deadline, yet: {report:?}"
    );
    assert!(
        osn_fault::hits("serve.eval") > 0,
        "evaluation delay site was not on the executed path"
    );
}

/// A saturated admission gate sheds with `BUSY retry-after-ms=…` instead
/// of queueing, the retrying client recovers, and the shed counter proves
/// shedding actually happened.
fn saturated_admission_sheds_busy_and_retries_recover(expected: &[Vec<String>]) {
    let _scenario = Scenario::new("serve.eval=delay,100");
    let state = Arc::new(
        ServeState::open(&fixture(), 1)
            .expect("daemon state")
            .with_admission_wait(Duration::from_millis(1)),
    );
    let srv = server::spawn(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    std::thread::scope(|s| {
        for round in 0..2 {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let expected = &expected[i];
                    s.spawn(move || {
                        let policy = RetryPolicy {
                            max_attempts: 40,
                            base_backoff: Duration::from_millis(5),
                            max_backoff: Duration::from_millis(100),
                        };
                        let mut client = RetryingClient::new(addr, policy, (round * 4 + i) as u64);
                        let got = client
                            .campaign(&specs(9)[i])
                            .expect("shed campaigns must recover via retries");
                        assert_eq!(&got, expected, "shed-then-retried campaign diverged");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    });

    assert!(
        state.shed_campaigns() > 0,
        "a 1-slot gate under 4 concurrent 100ms campaigns must shed at least once"
    );
    assert!(
        osn_fault::hits("serve.eval") > 0,
        "evaluation delay site was not on the executed path"
    );
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    let report = srv.wait();
    assert!(report.clean(), "drain was not clean: {report:?}");
}

/// The OS refusing a connection thread (injected at the spawn site) drops
/// that one connection unserved: the accept loop keeps running, the
/// retrying client's next attempt gets the byte-exact reply, and the
/// refused connection's registry entry does not linger into the drain.
fn a_refused_connection_thread_does_not_end_the_accept_loop(expected: &[Vec<String>]) {
    let _scenario = Scenario::new("serve.conn.spawn=ioerr@1");
    let state = Arc::new(ServeState::open(&fixture(), 1).expect("daemon state"));
    let srv = server::spawn(state, "127.0.0.1:0").expect("bind");
    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
    };
    // The client has no read timeout: a refused connection left open (its
    // registry entry still holding the socket) would hang it, so wait for
    // the campaign on a helper thread with a deadline instead.
    let addr = srv.addr();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = RetryingClient::new(addr, policy, 0);
        let got = client.campaign(&specs(9)[0]);
        let _ = tx.send(got.map(|got| (got, client.retries())));
    });
    let (got, retries) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the refused connection was never closed")
        .expect("the campaign must recover from a refused connection thread");
    assert_eq!(got, expected[0], "campaign after a refused spawn diverged");
    assert!(
        osn_fault::hits("serve.conn.spawn") >= 2,
        "spawn fault site was not on the accept path"
    );
    assert!(retries >= 1, "the refused connection forces a retry");

    let mut client = Client::connect(srv.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    let report = srv.wait();
    assert!(!report.accept_loop_panicked, "accept loop died: {report:?}");
    assert!(report.clean(), "drain was not clean: {report:?}");
}
