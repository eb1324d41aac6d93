//! End-to-end daemon test: concurrent campaigns over TCP must be
//! byte-identical to the serial in-process reference — the contract the CI
//! load-generator smoke job enforces at scale.

use s3crm_serve::{server, CampaignReply, CampaignSpec, Client, ServeState};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/smoke_snap.txt")
}

/// A small mixed spec set: algorithms, budgets, estimators, and evaluation
/// world counts all vary, so distinct resident backends are genuinely in
/// flight at once.
fn specs() -> Vec<CampaignSpec> {
    use s3crm_bench::Algorithm;
    use s3crm_core::EstimatorBackend;
    let algorithms = [Algorithm::S3ca, Algorithm::ImU, Algorithm::PmL];
    (0..9)
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
fn concurrent_mixed_campaigns_match_the_serial_reference_byte_for_byte() {
    // The serial reference runs in a fresh state — no sharing whatsoever
    // with the daemon under test.
    let reference = ServeState::open(&fixture(), 1).expect("reference state");
    let expected: Vec<Vec<String>> = specs()
        .iter()
        .map(|s| {
            reference
                .run_campaign(s)
                .expect("serial campaign")
                .deterministic_lines()
        })
        .collect();

    let state = Arc::new(ServeState::open(&fixture(), 4).expect("daemon state"));
    let srv = server::spawn(state, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = srv.addr();

    // Two full client rounds over the spec set (18 concurrent campaigns):
    // the second round hits the resident backends the first one sampled.
    for round in 0..2 {
        std::thread::scope(|s| {
            for (i, spec) in specs().into_iter().enumerate() {
                let expected = &expected[i];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let got = client
                        .campaign(&spec)
                        .expect("transport")
                        .expect("campaign accepted");
                    assert_eq!(
                        &got, expected,
                        "round {round} campaign {i} diverged from the serial reference"
                    );
                });
            }
        });
    }

    // Identical requests from many threads must all agree with each other.
    let identical = CampaignSpec::default();
    let replies: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let spec = identical;
                s.spawn(move || {
                    Client::connect(addr)
                        .expect("connect")
                        .campaign(&spec)
                        .expect("transport")
                        .expect("campaign accepted")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies[1..] {
        assert_eq!(r, &replies[0], "identical concurrent campaigns diverged");
    }

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.ping().expect("ping"));
    let info = client.request("INFO").expect("info");
    assert_eq!(info.first().map(String::as_str), Some("OK"));
    assert!(info.iter().any(|l| l.starts_with("campaigns_served=")));
    assert!(
        client.shutdown().expect("shutdown request"),
        "daemon did not acknowledge shutdown"
    );
    let report = srv.wait();
    assert!(report.clean(), "drain was not clean: {report:?}");
}

#[test]
fn malformed_requests_get_err_replies_not_disconnects() {
    let state = Arc::new(ServeState::open(&fixture(), 2).expect("state"));
    let srv = server::spawn(state, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(srv.addr()).expect("connect");
    let reply = client.request("CAMPAIGN algo=warp-drive").expect("reply");
    assert!(reply[0].starts_with("ERR "), "{reply:?}");
    let reply = client.request("FROBNICATE").expect("reply");
    assert!(reply[0].starts_with("ERR "), "{reply:?}");
    // The connection survives malformed requests.
    assert!(client.ping().expect("ping after errors"));
    client.shutdown().expect("shutdown");
    srv.wait();
}

#[test]
fn multi_megabyte_request_line_is_rejected_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let state = Arc::new(ServeState::open(&fixture(), 2).expect("state"));
    let options = server::ServeOptions {
        max_line_bytes: 64 * 1024,
        ..server::ServeOptions::default()
    };
    let srv = server::spawn_with(state, "127.0.0.1:0", options).expect("bind");

    // Raw socket: stream 4 MiB without a newline — far beyond the cap — to
    // exercise the constant-memory overflow drain, then a valid request.
    let mut stream = std::net::TcpStream::connect(srv.addr()).expect("connect");
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..4 {
        stream.write_all(&chunk).expect("write oversized line");
    }
    stream.write_all(b"\nPING\n").expect("finish lines");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    assert_eq!(line.trim_end(), "ERR line too long (max 65536 bytes)");
    line.clear();
    reader.read_line(&mut line).expect("read ping reply");
    assert_eq!(
        line.trim_end(),
        "PONG",
        "connection must stay line-aligned and usable after an oversized line"
    );
    drop(reader);
    drop(stream);

    let mut client = Client::connect(srv.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    let report = srv.wait();
    assert!(report.clean(), "drain was not clean: {report:?}");
}

#[test]
fn wire_reply_round_trips_the_deterministic_payload() {
    let state = ServeState::open(&fixture(), 1).expect("state");
    let reply = state
        .run_campaign(&CampaignSpec::default())
        .expect("campaign");
    let wire = reply.wire_lines();
    assert!(wire[0].starts_with("OK rows="));
    assert_eq!(wire.last().map(String::as_str), Some("END"));
    assert_eq!(
        CampaignReply::deterministic_subset(&wire),
        reply.deterministic_lines(),
        "wire framing altered the deterministic payload"
    );
}
