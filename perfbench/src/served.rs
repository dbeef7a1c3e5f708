//! served_mix: one client thread in a closed loop against two
//! in-process `serve` backends — fresh specs and warm resubmits through
//! `RemoteExecutor`, edits through the incremental workflow
//! (`RangeCache::load`, `translate_rows`, `store_scattered`, then
//! `ShardedExecutor` over both backends with a result cache).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chunkpoint_campaign::{translate_rows, CampaignSpec, ScenarioResult};
use chunkpoint_exec::{CampaignExecutor, CampaignRun, ExecError, RemoteExecutor, ShardedExecutor};
use chunkpoint_serve::server::{ServeConfig, Server};
use chunkpoint_shard::{exchange, RangeCache};

use crate::check::{oracle, Digest, Oracle, Tally};
use crate::run::{Args, Outcome, Phase};
use crate::specs::{rotation, served_chain_spec, served_fresh_spec, stream, Class, Op, Workload};
use crate::trace::{Recorder, NONE};
use crate::window::{campaign_probes, drive, run_window, OpDone};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Fresh specs and chain links whose oracle reports make up the digest
/// (and the deterministic counts): the same set on every run of a seed.
const DIGEST_FRESH: u64 = 8;
const DIGEST_LINKS: u64 = 10;

/// Two `serve` backends on ephemeral ports, their data dirs, and the
/// coordinator's result cache, all under one root.
struct Backends {
    addrs: Vec<String>,
    servers: Vec<JoinHandle<()>>,
    root: PathBuf,
}

impl Backends {
    fn start(root: &Path) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(root);
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for k in 0..2 {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                data_dir: root.join(format!("backend{k}")),
                max_jobs: 1,
                campaign_threads: 1,
                max_queued: 0,
                trace_out: None,
            })?;
            addrs.push(server.local_addr()?.to_string());
            servers.push(std::thread::spawn(move || server.run()));
        }
        Ok(Self {
            addrs,
            servers,
            root: root.to_owned(),
        })
    }

    fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// Shuts both servers down, joins their accept loops (which join
    /// their runners), and removes the data.
    fn stop(self) {
        for addr in &self.addrs {
            let _ = exchange(addr, "POST", "/shutdown", None, TIMEOUT);
        }
        for server in self.servers {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Client-side state of the served loop.
struct Served {
    seed: u64,
    backends: Backends,
    remote: Vec<RemoteExecutor>,
    sharded: ShardedExecutor,
    cache: RangeCache,
    /// Next index of the fresh stream.
    fresh_next: u64,
    /// The last two finished fresh specs (older first) and the backends
    /// that ran them. Warm ops resubmit the older one, so a resubmit never
    /// races the backend's post-completion writes of the op just before.
    recent_fresh: [(CampaignSpec, usize); 2],
    /// Chain link whose rows the result cache holds.
    link: u64,
    oracles: HashMap<u64, Oracle>,
}

impl Served {
    fn new(seed: u64, backends: Backends, oracles: HashMap<u64, Oracle>) -> Self {
        let remote = backends.addrs.iter().map(RemoteExecutor::new).collect();
        let sharded =
            ShardedExecutor::new(backends.addrs.clone()).with_cache_dir(backends.cache_dir());
        let cache = RangeCache::new(backends.cache_dir());
        Self {
            seed,
            backends,
            remote,
            sharded,
            cache,
            fresh_next: 0,
            recent_fresh: [0, 1].map(|backend| {
                (
                    served_fresh_spec(seed, stream::WARMUP, backend as u64),
                    backend,
                )
            }),
            link: 0,
            oracles,
        }
    }

    fn oracle(&mut self, spec: &CampaignSpec) -> &Oracle {
        self.oracles
            .entry(spec.spec_hash())
            .or_insert_with(|| oracle(spec))
    }

    fn remember_fresh(&mut self, spec: CampaignSpec, backend: usize) {
        self.recent_fresh.swap(0, 1);
        self.recent_fresh[1] = (spec, backend);
    }

    /// Submits `spec` to one backend.
    fn remote_op(
        &mut self,
        spec: &CampaignSpec,
        backend: usize,
        class: Class,
        rec: &mut Recorder,
    ) -> (Result<CampaignRun, String>, OpDone) {
        let span = rec.begin("op", "bench", NONE);
        rec.event(span, || class.name().to_owned());
        let exec_span = rec.begin("exec.remote", "exec", span);
        let submitted = Instant::now();
        let handle = self.remote[backend].submit(spec);
        let (result, first, tail) = drive(handle, submitted, rec, exec_span);
        let ms = submitted.elapsed().as_secs_f64() * 1e3;
        rec.end(exec_span);
        rec.end(span);
        let rows = result.as_ref().map_or(0, |r| r.results.len());
        let done = OpDone {
            ms,
            rows,
            first_progress_ms: first,
            tail_ms: tail,
        };
        (result.map_err(|e| e.to_string()), done)
    }

    /// One edit: seed the next chain link's cache from the current
    /// link's cached rows, then run it sharded over the cache.
    fn edit_op(
        &mut self,
        old: &CampaignSpec,
        new: &CampaignSpec,
        rec: &mut Recorder,
    ) -> (Result<CampaignRun, String>, OpDone) {
        let span = rec.begin("op", "bench", NONE);
        rec.event(span, || Class::Edit.name().to_owned());
        let submitted = Instant::now();
        let old_rows: Vec<ScenarioResult> = rec.span("shard.cache_load", "shard", span, || {
            self.cache
                .load(old, &old.scenarios())
                .into_values()
                .collect()
        });
        let translated = rec.span("campaign.translate_rows", "campaign", span, || {
            translate_rows(old, new, &old_rows)
        });
        let stored = rec.span("shard.cache_store", "shard", span, || {
            self.cache.store_scattered(new, &translated)
        });
        let exec_span = rec.begin("exec.sharded", "exec", span);
        let handle = self.sharded.submit(new);
        let (result, first, tail) = drive(handle, submitted, rec, exec_span);
        let ms = submitted.elapsed().as_secs_f64() * 1e3;
        rec.end(exec_span);
        rec.end(span);
        let rows = result.as_ref().map_or(0, |r| r.results.len());
        let done = OpDone {
            ms,
            rows,
            first_progress_ms: first,
            tail_ms: tail,
        };
        let result = match (stored, result) {
            (Err(e), _) => Err(format!("store_scattered: {e}")),
            (Ok(_), result) => result.map_err(|e: ExecError| e.to_string()),
        };
        (result, done)
    }

    /// Issues one op of the rotation and checks it against its oracle.
    fn op(&mut self, op: Op, rec: &mut Recorder, tally: &mut Tally) -> Option<OpDone> {
        if rec.enabled() {
            let addr = &self.backends.addrs[op.backend];
            let _ = rec.span("shard.exchange.healthz", "shard", NONE, || {
                exchange(addr, "GET", "/healthz", None, TIMEOUT)
            });
        }
        let (spec, previous, (result, done)) = match op.class {
            Class::Fresh => {
                let spec = served_fresh_spec(self.seed, stream::FRESH, self.fresh_next);
                self.fresh_next += 1;
                let outcome = self.remote_op(&spec, op.backend, Class::Fresh, rec);
                self.remember_fresh(spec.clone(), op.backend);
                (spec, None, outcome)
            }
            Class::Warm => {
                let (spec, backend) = self.recent_fresh[0].clone();
                let outcome = self.remote_op(&spec, backend, Class::Warm, rec);
                (spec, None, outcome)
            }
            Class::Edit => {
                let old = served_chain_spec(self.seed, self.link);
                let new = served_chain_spec(self.seed, self.link + 1);
                let outcome = self.edit_op(&old, &new, rec);
                self.link += 1;
                (new, Some(old), outcome)
            }
        };
        let expected = self.oracle(&spec).report.clone();
        let passed = tally.record(
            op.class.name(),
            result
                .as_ref()
                .map(|r| r.report.as_str())
                .map_err(Clone::clone),
            &expected,
        );
        let run = result.ok().filter(|_| passed)?;
        campaign_probes(
            rec,
            &spec,
            &run.results,
            previous.as_ref().map(|old| (old, None)),
        );
        Some(done)
    }

    /// The set-up warm-ups: a fresh spec on each backend, a warm
    /// resubmit, a cold sharded run sealing chain link 0 into the cache,
    /// and one edit to link 1.
    fn warm_up(&mut self, tally: &mut Tally) {
        let mut off = Recorder::new(false);
        for backend in 0..2 {
            let spec = served_fresh_spec(self.seed, stream::WARMUP, backend as u64);
            let (result, _) = self.remote_op(&spec, backend, Class::Fresh, &mut off);
            let expected = self.oracle(&spec).report.clone();
            tally.record(
                "warm-up fresh",
                result
                    .as_ref()
                    .map(|r| r.report.as_str())
                    .map_err(Clone::clone),
                &expected,
            );
            self.remember_fresh(spec, backend);
        }
        self.op(
            Op {
                class: Class::Warm,
                backend: 0,
            },
            &mut off,
            tally,
        );
        let link0 = served_chain_spec(self.seed, 0);
        let result = self
            .sharded
            .submit(&link0)
            .wait()
            .map_err(|e| e.to_string());
        let expected = self.oracle(&link0).report.clone();
        tally.record(
            "warm-up seal",
            result
                .as_ref()
                .map(|r| r.report.as_str())
                .map_err(Clone::clone),
            &expected,
        );
        self.op(
            Op {
                class: Class::Edit,
                backend: 0,
            },
            &mut off,
            tally,
        );
    }
}

/// Runs served_mix end to end.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new(Workload::ServedMix, args);
    let seed = args.seed;
    // Oracles of the digest set (which covers every warm-up spec) first:
    // excluded from set-up time.
    let mut oracles = HashMap::new();
    let mut digest = Digest::default();
    let digest_specs: Vec<CampaignSpec> = (0..2)
        .map(|i| served_fresh_spec(seed, stream::WARMUP, i))
        .chain((0..DIGEST_FRESH).map(|i| served_fresh_spec(seed, stream::FRESH, i)))
        .chain((0..DIGEST_LINKS).map(|link| served_chain_spec(seed, link)))
        .collect();
    for spec in &digest_specs {
        let truth = oracle(spec);
        digest.push(truth.report.as_bytes());
        outcome.work_mcycles += truth.rows.iter().map(|r| r.cycles as f64).sum::<f64>() / 1e6;
        oracles.insert(spec.spec_hash(), truth);
    }
    outcome.digest = digest.hex();

    let root = crate::run::data_root(Workload::ServedMix);
    // Warm-up failures count like measured ones.
    let mut tally = Tally::default();
    let mut served: Option<Served> = None;
    for _ in 0..crate::run::SETUPS {
        if let Some(previous) = served.take() {
            oracles = previous.oracles;
            previous.backends.stop();
        }
        let started = Instant::now();
        let backends = match Backends::start(&root) {
            Ok(backends) => backends,
            Err(e) => {
                outcome.fatal(format!("cannot start backends: {e}"));
                return outcome;
            }
        };
        let mut state = Served::new(seed, backends, std::mem::take(&mut oracles));
        state.warm_up(&mut tally);
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        served = Some(state);
    }
    let mut served = served.expect("at least one set-up");

    let mut ops = rotation(Workload::ServedMix, seed);
    let mut measure = |phase: Phase, rec: &mut Recorder| {
        run_window(
            phase.budget(args),
            &mut ops,
            rec,
            &mut |op: Op, rec: &mut Recorder| served.op(op, rec, &mut tally),
        )
    };
    outcome.measure(&mut measure);
    outcome.tally = tally;
    let oracles = std::mem::take(&mut served.oracles);
    served.backends.stop();
    if args.trace {
        let cases: Vec<_> = digest_specs
            .iter()
            .map(|spec| (spec, oracles[&spec.spec_hash()].rows.as_slice()))
            .collect();
        outcome.compute_layers(&cases, seed, 64);
    }
    let _ = std::fs::remove_dir_all(&root);
    // Leave no empty scratch root behind (other runs may still use it).
    let _ = std::fs::remove_dir(crate::run::DATA_DIR);
    outcome
}
