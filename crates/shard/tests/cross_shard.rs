//! Cross-process shard harness: the acceptance test for the coordinator.
//!
//! Real `serve` processes are launched on ephemeral ports; the same spec
//! runs sharded across them and unsharded in-process, and the reports
//! must be **byte-identical**. Then the hostile variant: one backend is
//! `SIGKILL`ed mid-campaign, the coordinator must re-dispatch its range
//! to a survivor, and the merged bytes must *still* be identical —
//! sharding, crashes, and re-dispatch are invisible in the output.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chunkpoint_campaign::{canonical_report_json, run_campaign, CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::{JobStore, REPORT_AXES};
use chunkpoint_shard::{partition, run_sharded, ShardConfig};
use chunkpoint_workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_shard_{}_{tag}", std::process::id()))
}

/// The `serve` binary lives next to this test binary's parent directory
/// (`target/<profile>/serve`); it belongs to `chunkpoint_serve`, so
/// Cargo does not export a `CARGO_BIN_EXE_serve` for this crate — but a
/// workspace `cargo test`/`cargo build` always compiles it.
fn serve_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // <profile>/deps/
    if path.ends_with("deps") {
        path.pop(); // <profile>/
    }
    let bin = path.join(format!("serve{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.is_file(),
        "serve binary not found at {} — build the workspace first (`cargo build`)",
        bin.display()
    );
    bin
}

struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Starts a real `serve` on an ephemeral port and waits until it
    /// answers `/healthz`.
    fn start(data_dir: &Path, port_file: &PathBuf) -> Self {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(serve_bin())
            .args([
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("utf8 dir"),
                "--port-file",
                port_file.to_str().expect("utf8 path"),
                "--jobs",
                "1",
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
        let addr = format!("127.0.0.1:{port}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok((200, _)) =
                chunkpoint_shard::exchange(&addr, "GET", "/healthz", None, Duration::from_secs(5))
            {
                break;
            }
            assert!(Instant::now() < deadline, "serve never became healthy");
            std::thread::sleep(Duration::from_millis(10));
        }
        Self { child, addr }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn shutdown(serve: &ServeProcess) {
    let _ = chunkpoint_shard::exchange(
        &serve.addr,
        "POST",
        "/shutdown",
        None,
        Duration::from_secs(5),
    );
}

/// Sharded across two live backends, the merged report is byte-identical
/// to an unsharded in-process single-threaded run.
#[test]
fn sharded_run_matches_unsharded_bytes() {
    // Live telemetry throughout: the engine sink meters the in-process
    // reference run and the coordinator traces every dispatch — the
    // byte-identity assert below proves both are out-of-band.
    let _ = chunkpoint_telemetry::install_campaign_metrics();
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    let spec = CampaignSpec::new(config, 0x54A6D)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .error_rates(&[1e-6, 1e-5])
        .replicates(3);

    let dirs: Vec<(PathBuf, PathBuf)> = (0..2)
        .map(|k| {
            (
                temp_dir(&format!("clean{k}")),
                temp_dir(&format!("clean{k}_port")),
            )
        })
        .collect();
    for (data, _) in &dirs {
        let _ = std::fs::remove_dir_all(data);
    }
    let serves: Vec<ServeProcess> = dirs
        .iter()
        .map(|(data, port)| ServeProcess::start(data, port))
        .collect();
    let backends: Vec<String> = serves.iter().map(|s| s.addr.clone()).collect();

    let trace_out = temp_dir("clean_trace");
    let _ = std::fs::remove_file(&trace_out);
    let shard_config = ShardConfig {
        tracer: chunkpoint_telemetry::Tracer::to_file(&trace_out).expect("trace sink"),
        ..ShardConfig::default()
    };
    let run = run_sharded(&spec, &backends, &shard_config).expect("sharded run");
    assert_eq!(run.shards, 2);
    assert_eq!(run.dispatches, 2, "clean run should not re-dispatch");
    assert_eq!(run.failures, 0);

    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(run.report, expected, "sharded bytes diverged");

    // The dispatch trace is structured and complete: one dispatched
    // and one shard_done event per shard, every record well-formed.
    let trace = std::fs::read_to_string(&trace_out).expect("trace file");
    let names: Vec<String> = trace
        .lines()
        .map(|line| {
            let record = chunkpoint_campaign::JsonValue::parse(line).expect("trace line is JSON");
            record
                .get("name")
                .and_then(chunkpoint_campaign::JsonValue::as_str)
                .expect("record has a name")
                .to_owned()
        })
        .collect();
    assert_eq!(names.iter().filter(|n| *n == "dispatched").count(), 2);
    assert_eq!(names.iter().filter(|n| *n == "shard_done").count(), 2);
    let _ = std::fs::remove_file(&trace_out);

    for serve in &serves {
        shutdown(serve);
    }
    for (data, port) in &dirs {
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_file(port);
    }
}

/// A grid big enough that the victim shard is reliably mid-run when the
/// kill lands (full-scale scenarios with same-seed Default denominators
/// and golden comparisons).
fn kill_spec() -> CampaignSpec {
    let config = SystemConfig::paper(0);
    CampaignSpec::new(config, 0x5111_C1DE)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .scheme("SW-based", SchemeSpec::Fixed(MitigationScheme::SwRestart))
        .scheme(
            "Proposed",
            SchemeSpec::Fixed(MitigationScheme::Hybrid {
                chunk_words: 16,
                l1_prime_t: 8,
            }),
        )
        .error_rates(&[1e-6, 1e-5])
        .replicates(10)
}

/// The headline: SIGKILL one backend mid-campaign; the coordinator
/// re-dispatches its range to a survivor and the merged report is still
/// byte-identical to the unsharded single-threaded run.
#[test]
fn sigkilled_shard_redispatches_and_matches_unsharded_bytes() {
    let spec = kill_spec();
    let total = spec.scenarios().len();

    let dirs: Vec<(PathBuf, PathBuf)> = (0..3)
        .map(|k| {
            (
                temp_dir(&format!("kill{k}")),
                temp_dir(&format!("kill{k}_port")),
            )
        })
        .collect();
    for (data, _) in &dirs {
        let _ = std::fs::remove_dir_all(data);
    }
    let mut serves: Vec<ServeProcess> = dirs
        .iter()
        .map(|(data, port)| ServeProcess::start(data, port))
        .collect();
    let backends: Vec<String> = serves.iter().map(|s| s.addr.clone()).collect();

    // The coordinator assigns shard k to backend k; shard 2's sub-spec
    // id is a pure function of the spec, so the test can watch the
    // victim's own job directly.
    let ranges = partition(total, backends.len());
    assert_eq!(ranges.len(), 3);
    let victim_range = ranges[2];
    let victim_id = JobStore::job_id(&spec.clone().scenario_range(victim_range.0, victim_range.1));
    let victim_addr = backends[2].clone();

    // Drive the coordinator on its own thread; the test thread plays
    // chaos monkey.
    let coordinator = {
        let spec = spec.clone();
        let backends = backends.clone();
        std::thread::spawn(move || run_sharded(&spec, &backends, &ShardConfig::default()))
    };

    // Wait until the victim has journaled at least one scenario of its
    // range but cannot have finished, then SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(120);
    let completed_at_kill = loop {
        if let Ok((200, body)) = chunkpoint_shard::exchange(
            &victim_addr,
            "GET",
            &format!("/campaigns/{victim_id}"),
            None,
            Duration::from_secs(5),
        ) {
            let doc = chunkpoint_campaign::JsonValue::parse(&body).expect("status json");
            let completed = doc
                .get("completed")
                .and_then(chunkpoint_campaign::JsonValue::as_u64)
                .expect("completed") as usize;
            let state = doc
                .get("status")
                .and_then(chunkpoint_campaign::JsonValue::as_str)
                .expect("status")
                .to_owned();
            assert_ne!(state, "failed", "{body}");
            assert_ne!(
                state, "done",
                "victim finished its whole range before the kill — grow kill_spec"
            );
            if completed >= 1 && state == "running" {
                break completed;
            }
        }
        assert!(Instant::now() < deadline, "victim shard never got underway");
        std::thread::sleep(Duration::from_millis(1));
    };
    let victim_total = victim_range.1 - victim_range.0;
    serves[2].child.kill().expect("SIGKILL victim");
    let _ = serves[2].child.wait();
    assert!(
        completed_at_kill < victim_total,
        "victim finished its {victim_total}-scenario range ({completed_at_kill}) before \
         the kill — grow kill_spec so the crash lands mid-run"
    );

    // The coordinator must notice, re-dispatch, and converge.
    let run = coordinator
        .join()
        .expect("coordinator thread")
        .expect("sharded run with kill");
    assert_eq!(run.shards, 3);
    assert!(
        run.dispatches > 3,
        "no re-dispatch happened (dispatches = {}) — the kill was not observed",
        run.dispatches
    );
    assert!(run.failures >= 1, "kill left no failure trace");

    // The acceptance bar: byte-identical to the unsharded
    // single-threaded run.
    let reference = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &reference.results, &REPORT_AXES).render();
    assert_eq!(
        run.report, expected,
        "sharded-with-kill report diverged from the unsharded run"
    );
    assert_eq!(run.results.len(), total);

    for serve in &serves[..2] {
        shutdown(serve);
    }
    for (data, port) in &dirs {
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_file(port);
    }
}
