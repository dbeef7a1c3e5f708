//! Crash–resume: the acceptance test for the checkpoint store.
//!
//! A real `serve` process is `SIGKILL`ed mid-campaign; a fresh process
//! over the same data dir must resume from the journal and produce a
//! final report **byte-identical** to an uninterrupted single-threaded
//! in-process run of the same spec — the bit-exactness the SplitMix64
//! per-scenario seed derivation guarantees.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chunkpoint_campaign::{
    canonical_report_json, run_campaign, CampaignSpec, JsonValue, SchemeSpec,
};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_serve::http::request;
use chunkpoint_serve::{JobStore, REPORT_AXES};
use chunkpoint_workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_resume_{}_{tag}", std::process::id()))
}

/// A grid big enough that the kill reliably lands mid-run even in a
/// fast release build (~120 scenarios, each with a same-seed Default
/// denominator and a golden comparison).
fn kill_spec() -> CampaignSpec {
    let config = SystemConfig::paper(0);
    CampaignSpec::new(config, 0x00C4_A511)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::G721Encode])
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

struct ServeProcess {
    child: Child,
    addr: std::net::SocketAddr,
}

/// Starts the real `serve` binary on an ephemeral port over `data_dir`
/// and waits until it answers `/healthz`.
fn start_serve(data_dir: &Path, port_file: &PathBuf) -> ServeProcess {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
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

#[test]
fn sigkilled_service_resumes_bit_identically() {
    let data_dir = temp_dir("kill");
    let port_file = temp_dir("kill_port");
    let _ = std::fs::remove_dir_all(&data_dir);

    let spec = kill_spec();
    let total = spec.scenarios().len();
    let expected_id = JobStore::job_id(&spec);

    // Phase 1: submit, let it get partway, then SIGKILL the service.
    let mut serve = start_serve(&data_dir, &port_file);
    let (status, body) = request(
        serve.addr,
        "POST",
        "/campaigns",
        Some(&spec.to_json().render()),
    )
    .expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = JsonValue::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(id, expected_id, "service and library disagree on the hash");

    let deadline = Instant::now() + Duration::from_secs(120);
    let completed_at_kill = loop {
        let (_, body) =
            request(serve.addr, "GET", &format!("/campaigns/{id}"), None).expect("poll");
        let doc = JsonValue::parse(&body).expect("status json");
        let completed = doc.get("completed").unwrap().as_u64().expect("completed") as usize;
        let state = doc.get("status").unwrap().as_str().unwrap().to_owned();
        assert_ne!(state, "failed", "{body}");
        if completed >= 3 {
            break completed;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never got underway: {body}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    // SIGKILL: no destructors, no flushing beyond what the journal
    // already pushed to the OS per line.
    serve.child.kill().expect("SIGKILL serve");
    let _ = serve.child.wait();
    assert!(
        completed_at_kill < total,
        "campaign finished ({completed_at_kill}/{total}) before the kill — \
         grow kill_spec so the crash lands mid-run"
    );

    // The journal survived with at least the observed progress.
    let journal = data_dir.join("jobs").join(&id).join("journal.jsonl");
    assert!(journal.is_file(), "no journal at {}", journal.display());
    let journaled_lines = std::fs::read_to_string(&journal)
        .expect("read journal")
        .lines()
        .count();
    assert!(journaled_lines >= 3, "journal holds {journaled_lines} rows");
    // No result was cached for the unfinished job.
    assert!(!data_dir.join("jobs").join(&id).join("result.json").exists());

    // Phase 2: restart over the same store; recovery re-enqueues and the
    // journaled scenarios are skipped, not recomputed.
    let mut serve = start_serve(&data_dir, &port_file);
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) =
            request(serve.addr, "GET", &format!("/campaigns/{id}"), None).expect("poll resumed");
        assert_eq!(status, 200, "restarted service forgot the job: {body}");
        let doc = JsonValue::parse(&body).expect("status json");
        match doc.get("status").unwrap().as_str() {
            Some("done") => break,
            Some("failed") => panic!("resumed job failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, served_report) =
        request(serve.addr, "GET", &format!("/campaigns/{id}/result"), None).expect("result");
    assert_eq!(status, 200, "{served_report}");

    // The acceptance bar: byte-identical to an uninterrupted
    // single-threaded run of the same spec and seed.
    let uninterrupted = run_campaign(&spec, 1);
    let expected =
        canonical_report_json(spec.campaign_seed, &uninterrupted.results, &REPORT_AXES).render();
    assert_eq!(
        served_report.trim_end(),
        expected,
        "resumed report diverged from the uninterrupted run"
    );

    // And the resubmit of the same spec is now a cache hit.
    let (status, body) = request(
        serve.addr,
        "POST",
        "/campaigns",
        Some(&spec.to_json().render()),
    )
    .expect("resubmit");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");

    let (_, _) = request(serve.addr, "POST", "/shutdown", None).expect("shutdown");
    let _ = serve.child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(&port_file);
}
