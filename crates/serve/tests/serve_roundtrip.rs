//! End-to-end tests of the resident sweep service: byte-identical
//! streamed runs, shard reassembly, warm-cache reuse, and concurrent
//! clients — over both Unix sockets and TCP.

use rlnc_par::Scale;
use rlnc_serve::{connect_with_retry, Endpoint, ShardSpec, SweepServer};
use rlnc_sweep::{emit, Registry, SweepExecutor};
use std::time::Duration;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn start(endpoint: Endpoint) -> (Endpoint, std::thread::JoinHandle<Result<(), String>>) {
    let bound = SweepServer::new().bind(&endpoint).expect("bind endpoint");
    let actual = bound.endpoint().clone();
    let handle = std::thread::spawn(move || bound.serve());
    (actual, handle)
}

fn temp_socket(tag: &str) -> Endpoint {
    Endpoint::Unix(
        std::env::temp_dir().join(format!("rlnc-serve-{tag}-{}.sock", std::process::id())),
    )
}

#[test]
fn streamed_run_over_unix_socket_matches_local_run_byte_for_byte() {
    let (endpoint, handle) = start(temp_socket("roundtrip"));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let mut streamed = 0usize;
    let outcome = client
        .run("smoke", Scale::Smoke, 7, None, |_| streamed += 1)
        .expect("streamed run");

    let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
    let local = SweepExecutor::new(Scale::Smoke).with_seed(7).run(&spec);
    assert_eq!(streamed, local.records.len(), "every record was streamed");
    assert_eq!(outcome.run, local);
    assert_eq!(
        emit::to_json(&outcome.run),
        emit::to_json(&local),
        "the reassembled stream exports byte-identically to a local run"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn sharded_requests_merge_to_the_full_run_and_repeat_requests_hit_warm_plans() {
    let (endpoint, handle) = start(Endpoint::Tcp("127.0.0.1:0".into()));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
    let local = SweepExecutor::new(Scale::Smoke).with_seed(5).run(&spec);

    let count = 3u64;
    let shards: Vec<_> = (1..=count)
        .map(|i| {
            let shard = ShardSpec::new(i, count).unwrap();
            client
                .run("smoke", Scale::Smoke, 5, Some(shard), |_| {})
                .expect("shard run")
                .run
        })
        .collect();
    let merged = emit::merge_runs(&shards).expect("merge shards");
    assert_eq!(emit::to_json(&merged), emit::to_json(&local));

    // The first requests planned every point; an identical repeat request
    // must be answered from the warm (process-global) plan cache.
    let repeat = client
        .run("smoke", Scale::Smoke, 5, None, |_| {})
        .expect("repeat run");
    assert_eq!(repeat.run, local);
    assert!(
        repeat.plan_cache_hits_delta > 0,
        "repeat request reuses warm plans (hits delta = {})",
        repeat.plan_cache_hits_delta
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn concurrent_clients_are_served_and_counted() {
    let (endpoint, handle) = start(temp_socket("concurrent"));

    // Warm the cache with a sequential request first so both concurrent
    // repeats are deterministic cache consumers.
    let mut warmup = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
    let local = {
        let spec = Registry::builtin().get("smoke").cloned().expect("smoke scenario");
        SweepExecutor::new(Scale::Smoke).with_seed(11).run(&spec)
    };
    let first = warmup.run("smoke", Scale::Smoke, 11, None, |_| {}).expect("warmup run");
    assert_eq!(first.run, local);

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client =
                        connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");
                    client.run("smoke", Scale::Smoke, 11, None, |_| {}).expect("run")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for outcome in &results {
        assert_eq!(outcome.run, local, "concurrent requests stream correct records");
        assert!(
            outcome.plan_cache_hits_delta > 0,
            "warmed requests hit the shared cache"
        );
    }

    let status = warmup.status().expect("status");
    assert!(status.requests >= 3, "requests counted: {status:?}");
    assert!(
        status.records_streamed >= 3 * local.records.len() as u64,
        "streamed records counted: {status:?}"
    );
    assert_eq!(status.scenarios, Registry::builtin().names().len() as u64);
    assert!(status.plan_cache_hits > 0);

    warmup.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn scenario_listing_and_request_errors_keep_the_connection_usable() {
    let (endpoint, handle) = start(temp_socket("errors"));
    let mut client = connect_with_retry(&endpoint, CONNECT_TIMEOUT).expect("connect");

    let listed = client.list_scenarios().expect("list scenarios");
    let registry = Registry::builtin();
    assert_eq!(
        listed.iter().map(|(name, _, _)| name.as_str()).collect::<Vec<_>>(),
        registry.names(),
        "listing matches the built-in registry"
    );

    // An unknown scenario is a request-level error, not a dropped
    // connection: the same client keeps working afterwards.
    let err = client
        .run("no-such-scenario", Scale::Smoke, 1, None, |_| {})
        .expect_err("unknown scenario errors");
    assert!(err.contains("unknown scenario"), "unexpected error: {err}");
    let still_listed = client.list_scenarios().expect("connection survives the error");
    assert_eq!(still_listed.len(), listed.len());

    let status = client.status().expect("status");
    assert!(status.errors >= 1, "errors counted: {status:?}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("serve exits cleanly");
}

#[test]
fn an_over_long_request_line_is_refused_and_the_connection_stays_usable() {
    use rlnc_serve::server::MAX_REQUEST_LINE;
    use rlnc_serve::Response;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, handle) = start(temp_socket("long-line"));
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("a Unix endpoint was requested")
    };
    let mut stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut next_reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).expect("read reply");
        Response::from_json(line.trim_end()).expect("parse reply")
    };

    // The over-long line and a valid request share one write, so the
    // server must discard exactly up to the first '\n' and no further.
    let mut bytes = vec![b'x'; MAX_REQUEST_LINE + 4096];
    bytes.extend_from_slice(b"\n{\"cmd\":\"status\"}\n");
    stream.write_all(&bytes).expect("send");
    match next_reply() {
        Response::Error { message } => {
            assert!(message.contains("exceeds"), "unexpected error: {message}")
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    match next_reply() {
        Response::Status(status) => assert_eq!(status.errors, 1, "{status:?}"),
        other => panic!("expected a status reply, got {other:?}"),
    }

    // A line of exactly the limit is still dispatched (and is a bad
    // request, not an over-long one).
    let mut bytes = vec![b' '; MAX_REQUEST_LINE - 1];
    bytes.extend_from_slice(b"x\n");
    stream.write_all(&bytes).expect("send");
    match next_reply() {
        Response::Error { message } => {
            assert!(
                message.starts_with("bad request"),
                "unexpected error: {message}"
            )
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    stream.write_all(b"{\"cmd\":\"shutdown\"}\n").expect("send");
    assert!(matches!(next_reply(), Response::ShuttingDown));
    handle
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}
