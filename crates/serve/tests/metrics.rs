//! `/metrics` acceptance: a **real** `serve` process under concurrent
//! load, scraped over real TCP, the exposition parsed by the telemetry
//! crate's own scraper — request, latency, job, and cache metric
//! families present, every counter monotone across scrapes, and the
//! `--trace-out` sink holding well-formed span records at shutdown.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chunkpoint_campaign::{CampaignSpec, JsonValue, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::http::request;
use chunkpoint_telemetry::Scrape;
use chunkpoint_workloads::Benchmark;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_metrics_{}_{tag}", std::process::id()))
}

/// A one-scenario spec, unique per seed, cheap enough that the runner
/// drains the queue in well under a second.
fn tiny_spec(seed: u64) -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, seed)
        .benchmarks(&[Benchmark::AdpcmEncode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .normalize(false)
        .golden_check(false)
}

struct ServeProcess {
    child: Child,
    addr: std::net::SocketAddr,
}

/// Starts the real `serve` binary on an ephemeral port and waits for
/// `/healthz`.
fn start_serve(data_dir: &Path, port_file: &PathBuf, trace_out: &Path) -> ServeProcess {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf8 dir"),
            "--port-file",
            port_file.to_str().expect("utf8 path"),
            "--trace-out",
            trace_out.to_str().expect("utf8 path"),
            "--jobs",
            "2",
            "--threads",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    let port: u16 = loop {
        if let Ok(raw) = std::fs::read_to_string(port_file) {
            if let Ok(port) = raw.trim().parse() {
                break port;
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port");
        std::thread::sleep(Duration::from_millis(10));
    };
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = request(addr, "GET", "/healthz", None) {
            break;
        }
        assert!(Instant::now() < deadline, "serve never became healthy");
        std::thread::sleep(Duration::from_millis(10));
    }
    ServeProcess { child, addr }
}

fn scrape(addr: std::net::SocketAddr) -> Scrape {
    let (status, body) = request(addr, "GET", "/metrics", None).expect("scrape");
    assert_eq!(status, 200, "{body}");
    Scrape::parse(&body).unwrap_or_else(|e| panic!("exposition does not parse: {e}\n{body}"))
}

/// Polls a job's status document until it reports `done`.
fn wait_done(addr: std::net::SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = request(addr, "GET", &format!("/campaigns/{id}"), None).expect("poll");
        if body.contains("\"status\":\"done\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn metrics_scrape_under_concurrent_load() {
    let data_dir = temp_path("data");
    let port_file = temp_path("port");
    let trace_out = temp_path("trace");
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(&trace_out);
    let serve = start_serve(&data_dir, &port_file, &trace_out);
    let addr = serve.addr;
    let mut child = serve.child;

    let before = scrape(addr);

    // Concurrent load: four clients, each interleaving health checks
    // with unique-spec submissions over real TCP connections.
    const CLIENTS: u64 = 4;
    const SUBMITS_PER_CLIENT: u64 = 2;
    const HEALTHZ_PER_CLIENT: u64 = 3;
    let ids: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    for k in 0..SUBMITS_PER_CLIENT {
                        let (status, _) = request(addr, "GET", "/healthz", None).expect("healthz");
                        assert_eq!(status, 200);
                        let body = tiny_spec(0x4EED + client * 100 + k).to_json().render();
                        let (status, response) =
                            request(addr, "POST", "/campaigns", Some(&body)).expect("submit");
                        assert!(status == 202 || status == 200, "{response}");
                        ids.push(
                            JsonValue::parse(&response)
                                .expect("submit json")
                                .get("id")
                                .and_then(|v| v.as_str().map(str::to_owned))
                                .expect("id"),
                        );
                    }
                    for _ in 0..HEALTHZ_PER_CLIENT - SUBMITS_PER_CLIENT {
                        let (status, _) = request(addr, "GET", "/healthz", None).expect("healthz");
                        assert_eq!(status, 200);
                    }
                    ids
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    for id in &ids {
        wait_done(addr, id);
    }

    // One result fetch (the result-cache read path) and one identical
    // resubmission (the content-addressed cache-hit path).
    let (status, _) =
        request(addr, "GET", &format!("/campaigns/{}/result", ids[0]), None).expect("result");
    assert_eq!(status, 200);
    let warm = tiny_spec(0x4EED).to_json().render();
    let (status, response) = request(addr, "POST", "/campaigns", Some(&warm)).expect("resubmit");
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"cached\":true"), "{response}");

    let after = scrape(addr);

    // Request metrics: the submit counter advanced by exactly the
    // submissions made (8 unique + 1 cache hit), healthz by at least
    // the load loops' calls, and each histogram's _count matches its
    // endpoint counter — latency is observed on the same path.
    let submits = (CLIENTS * SUBMITS_PER_CLIENT + 1) as f64;
    let delta = |name: &str, labels: &[(&str, &str)]| {
        after
            .value(name, labels)
            .unwrap_or_else(|| panic!("{name} missing"))
            - before.value(name, labels).unwrap_or(0.0)
    };
    assert_eq!(
        delta("serve_requests_total", &[("endpoint", "submit")]),
        submits
    );
    assert!(
        delta("serve_requests_total", &[("endpoint", "healthz")])
            >= (CLIENTS * HEALTHZ_PER_CLIENT) as f64
    );
    assert!(delta("serve_requests_total", &[("endpoint", "status")]) >= ids.len() as f64);
    assert_eq!(
        delta("serve_requests_total", &[("endpoint", "result")]),
        1.0
    );
    assert!(
        after.value("serve_requests_total", &[("endpoint", "metrics")]) >= Some(1.0),
        "the scrape endpoint meters itself"
    );
    for endpoint in ["submit", "healthz", "status", "result"] {
        assert_eq!(
            after.value("serve_request_seconds_count", &[("endpoint", endpoint)]),
            after.value("serve_requests_total", &[("endpoint", endpoint)]),
            "endpoint {endpoint}: histogram count must track the request counter"
        );
        assert_eq!(
            after.value(
                "serve_request_seconds_bucket",
                &[("endpoint", endpoint), ("le", "+Inf")]
            ),
            after.value("serve_request_seconds_count", &[("endpoint", endpoint)]),
            "endpoint {endpoint}: +Inf bucket must equal _count"
        );
    }

    // Job-lifecycle and cache metrics.
    assert_eq!(
        delta("serve_jobs_submitted_total", &[]),
        (CLIENTS * SUBMITS_PER_CLIENT) as f64,
        "one new job per unique spec"
    );
    assert!(delta("serve_jobs_cached_total", &[]) >= 1.0, "the resubmit");
    assert!(delta("serve_journal_rows_total", &[]) >= (CLIENTS * SUBMITS_PER_CLIENT) as f64);
    assert!(delta("serve_result_cache_hits_total", &[]) >= 1.0);

    // Monotonicity: no counter sample present in the first scrape went
    // backwards (gauges are exempt by name).
    for sample in &before.samples {
        if !sample.name.ends_with("_total")
            && !sample.name.ends_with("_count")
            && !sample.name.ends_with("_bucket")
        {
            continue;
        }
        let labels: Vec<(&str, &str)> = sample
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let now = after
            .value(&sample.name, &labels)
            .unwrap_or_else(|| panic!("{} vanished between scrapes", sample.name));
        assert!(
            now >= sample.value,
            "{}{:?} went backwards: {} -> {now}",
            sample.name,
            sample.labels,
            sample.value
        );
    }

    // Shut down and check the trace sink: every line is a JSON record
    // with a kind/span/name, and the root "serve" span begins it.
    let (status, _) = request(addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(code) => {
                assert!(code.success(), "serve exited {code:?}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "serve never exited");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let trace = std::fs::read_to_string(&trace_out).expect("trace file");
    let records: Vec<JsonValue> = trace
        .lines()
        .map(|line| {
            JsonValue::parse(line).unwrap_or_else(|e| panic!("bad trace line: {e}\n{line}"))
        })
        .collect();
    assert!(!records.is_empty(), "trace sink stayed empty");
    let kind = |r: &JsonValue| r.get("kind").and_then(JsonValue::as_str).map(str::to_owned);
    assert_eq!(
        kind(&records[0]).as_deref(),
        Some("span_begin"),
        "first record opens the root span"
    );
    assert_eq!(
        records[0].get("name").and_then(JsonValue::as_str),
        Some("serve")
    );
    for record in &records {
        let kind = kind(record).unwrap_or_else(|| panic!("record without kind: {record:?}"));
        assert!(
            matches!(kind.as_str(), "span_begin" | "event" | "span_end"),
            "unknown kind {kind}"
        );
        assert!(record.get("span").and_then(JsonValue::as_str).is_some());
        assert!(record.get("t_us").and_then(JsonValue::as_u64).is_some());
    }
    assert!(
        records.iter().any(|r| {
            kind(r).as_deref() == Some("event")
                && r.get("name").and_then(JsonValue::as_str) == Some("handled")
        }),
        "no request was traced"
    );

    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&trace_out);
}
