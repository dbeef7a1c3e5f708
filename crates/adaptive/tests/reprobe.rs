//! The weigh-in recovery satellite: a backend that dies gets weight
//! `0.0` at the next weigh-in, and a backend that comes back — same
//! address, restarted between controller rounds — rejoins the rotation
//! the moment it answers `/healthz` again, with the subsequent sharded
//! run still byte-identical and the recovered backend actually
//! receiving work.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chunkpoint_adaptive::AutoWeightedSharded;
use chunkpoint_campaign::{CampaignSpec, SchemeSpec};
use chunkpoint_core::{MitigationScheme, SystemConfig};
use chunkpoint_exec::{CampaignExecutor, LocalExecutor};
use chunkpoint_workloads::Benchmark;

const HEALTH_TIMEOUT: Duration = Duration::from_millis(500);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chunkpoint_reprobe_{}_{tag}", std::process::id()))
}

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

/// Spawns `serve` bound to `addr` (`127.0.0.1:0` for ephemeral) and
/// waits until it answers `/healthz`; `Err` if this process instance
/// never becomes healthy within `deadline`.
fn spawn_serve(
    addr: &str,
    data_dir: &Path,
    port_file: &PathBuf,
    deadline: Instant,
) -> Result<(Child, String), String> {
    let _ = std::fs::remove_file(port_file);
    let mut child = Command::new(serve_bin())
        .args([
            "--addr",
            addr,
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
        .map_err(|e| format!("spawn serve: {e}"))?;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("serve exited early: {status}"));
        }
        if let Ok(raw) = std::fs::read_to_string(port_file) {
            if let Ok(port) = raw.trim().parse::<u16>() {
                let bound = format!("127.0.0.1:{port}");
                if chunkpoint_shard::healthz(&bound, HEALTH_TIMEOUT).is_ok() {
                    return Ok((child, bound));
                }
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve never became healthy".to_owned());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Restarts a killed backend on its **old address**, retrying the spawn
/// until the port is bindable again (the kernel may hold it briefly
/// after the kill).
fn restart_at(addr: &str, data_dir: &Path, port_file: &PathBuf) -> Child {
    let overall = Instant::now() + Duration::from_secs(60);
    loop {
        let attempt_deadline = (Instant::now() + Duration::from_secs(10)).min(overall);
        match spawn_serve(addr, data_dir, port_file, attempt_deadline) {
            Ok((child, bound)) => {
                assert_eq!(bound, addr, "restart bound a different address");
                return child;
            }
            Err(why) => {
                assert!(
                    Instant::now() < overall,
                    "backend never restarted at {addr}: {why}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn sigkill(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

fn spec() -> CampaignSpec {
    let mut config = SystemConfig::paper(0);
    config.scale = 0.25;
    CampaignSpec::new(config, 0x4EBB)
        .benchmarks(&[Benchmark::AdpcmEncode, Benchmark::AdpcmDecode])
        .scheme("Default", SchemeSpec::Fixed(MitigationScheme::Default))
        .error_rates(&[1e-6, 1e-5])
        .replicates(3)
}

#[test]
fn killed_backend_rejoins_after_restart_between_rounds() {
    let dirs: Vec<(PathBuf, PathBuf)> = ["a", "b"]
        .iter()
        .map(|k| {
            (
                temp_dir(&format!("{k}_data")),
                temp_dir(&format!("{k}_port")),
            )
        })
        .collect();
    for (data, _) in &dirs {
        let _ = std::fs::remove_dir_all(data);
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut child_a, addr_a) =
        spawn_serve("127.0.0.1:0", &dirs[0].0, &dirs[0].1, deadline).expect("backend A");
    let (mut child_b, addr_b) =
        spawn_serve("127.0.0.1:0", &dirs[1].0, &dirs[1].1, deadline).expect("backend B");

    let executor = AutoWeightedSharded::new(vec![addr_a.clone(), addr_b.clone()])
        .with_health_timeout(HEALTH_TIMEOUT);

    // Round 1: both healthy, both weighted in.
    let weights = executor.weigh();
    assert!(weights[0] > 0.0 && weights[1] > 0.0, "{weights:?}");

    // Kill B between rounds: its weight must drop to zero — even after
    // the second-chance re-probe, because it really is down — and the
    // re-probe attempt must be counted.
    let attempts = chunkpoint_telemetry::global().counter(
        "adaptive_reprobe_attempts_total",
        "Second-chance health probes of backends whose first probe failed",
    );
    let before = attempts.get();
    sigkill(&mut child_b);
    let weights = executor.weigh();
    assert!(weights[0] > 0.0, "{weights:?}");
    assert_eq!(weights[1], 0.0, "a dead backend must weigh zero");
    assert!(
        attempts.get() > before,
        "the zero-weight backend was never re-probed"
    );

    // Restart B on the same address: the next weigh-in must see it —
    // this is the regression (a recovered backend staying at zero for
    // the rest of the run because nobody asked again).
    child_b = restart_at(&addr_b, &dirs[1].0, &dirs[1].1);
    let weights = executor.weigh();
    assert!(
        weights[0] > 0.0 && weights[1] > 0.0,
        "a restarted backend must rejoin the rotation: {weights:?}"
    );

    // And the recovered pair still produces byte-identical reports,
    // with B actually receiving a share of the grid.
    let oracle = LocalExecutor::new(1)
        .submit(&spec())
        .wait()
        .expect("local oracle");
    let run = executor
        .submit(&spec())
        .wait()
        .expect("auto-weighted run over the recovered pair");
    assert_eq!(run.report, oracle.report, "recovery changed the bytes");
    let health_b =
        chunkpoint_shard::healthz(&addr_b, HEALTH_TIMEOUT).expect("B healthy after the run");
    assert!(
        health_b.done >= 1,
        "the recovered backend never received a dispatch: {health_b:?}"
    );

    for addr in [&addr_a, &addr_b] {
        let _ = chunkpoint_shard::exchange(addr, "POST", "/shutdown", None, Duration::from_secs(5));
    }
    sigkill(&mut child_a);
    sigkill(&mut child_b);
    for (data, port) in &dirs {
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_file(port);
    }
}
