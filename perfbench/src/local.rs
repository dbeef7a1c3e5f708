//! paper_grid and restart_storm: whole campaigns through
//! `LocalExecutor` at `nproc` threads, in the process that measures
//! them (no server is ever bound here).

use std::time::Instant;

use chunkpoint_campaign::CampaignSpec;
use chunkpoint_exec::{CampaignExecutor, LocalExecutor};

use crate::check::{oracle, Digest, Oracle, Tally};
use crate::run::{Args, Outcome, Phase};
use crate::specs::{local_spec, rotation, Class, Op, Workload};
use crate::trace::{Recorder, NONE};
use crate::window::{campaign_probes, drive, run_window, OpDone};

/// Distinct specs in a local rotation (each with its one-axis edit).
const K: u64 = 16;

struct Local {
    fresh: Vec<(CampaignSpec, Oracle)>,
    edited: Vec<(CampaignSpec, Oracle)>,
    exec: LocalExecutor,
    /// Fresh and edit ops issued so far (the rotation cursors).
    issued: [u64; 2],
    last_fresh: usize,
}

impl Local {
    /// Runs one op of `class`: fresh and edit cycle through the `K`
    /// specs and their edits; warm resubmits the last fresh spec.
    fn op(&mut self, class: Class, rec: &mut Recorder, tally: &mut Tally) -> Option<OpDone> {
        let ((spec, truth), base) = match class {
            Class::Fresh => {
                self.last_fresh = (self.issued[0] % K) as usize;
                self.issued[0] += 1;
                (&self.fresh[self.last_fresh], None)
            }
            Class::Warm => (&self.fresh[self.last_fresh], None),
            Class::Edit => {
                let k = (self.issued[1] % K) as usize;
                self.issued[1] += 1;
                (&self.edited[k], Some(&self.fresh[k]))
            }
        };
        let span = rec.begin("op", "bench", NONE);
        rec.event(span, || class.name().to_owned());
        let exec_span = rec.begin("exec.local", "exec", span);
        let submitted = Instant::now();
        let handle = self.exec.submit(spec);
        let (result, first, tail) = drive(handle, submitted, rec, exec_span);
        let ms = submitted.elapsed().as_secs_f64() * 1e3;
        rec.end(exec_span);
        rec.end(span);
        let passed = tally.record(
            class.name(),
            result
                .as_ref()
                .map(|r| r.report.as_str())
                .map_err(ToString::to_string),
            &truth.report,
        );
        let run = result.ok().filter(|_| passed)?;
        let previous = base.map(|(old, old_truth)| (old, Some(old_truth.rows.as_slice())));
        campaign_probes(rec, spec, &run.results, previous);
        Some(OpDone {
            ms,
            rows: run.results.len(),
            first_progress_ms: first,
            tail_ms: tail,
        })
    }
}

/// Runs a local workload end to end.
pub fn run(workload: Workload, args: &Args) -> Outcome {
    let mut outcome = Outcome::new(workload, args);
    // Oracles first: excluded from set-up time and from every window.
    let specs = |edited| -> Vec<(CampaignSpec, Oracle)> {
        (0..K)
            .map(|k| {
                let spec = local_spec(workload, args.seed, k, edited);
                let truth = oracle(&spec);
                (spec, truth)
            })
            .collect()
    };
    let threads = crate::run::nproc();
    let mut local = Local {
        fresh: specs(false),
        edited: specs(true),
        exec: LocalExecutor::new(threads),
        issued: [0; 2],
        last_fresh: 0,
    };
    let mut digest = Digest::default();
    for (_, truth) in local.fresh.iter().chain(&local.edited) {
        digest.push(truth.report.as_bytes());
        outcome.work_mcycles += truth.rows.iter().map(|r| r.cycles as f64).sum::<f64>() / 1e6;
    }
    outcome.digest = digest.hex();

    // Warm-up failures count like measured ones.
    let mut tally = Tally::default();
    let mut off = Recorder::new(false);
    for _ in 0..crate::run::SETUPS {
        let started = Instant::now();
        local.exec = LocalExecutor::new(threads);
        local.issued = [0; 2];
        // Warm-ups: every spec of the rotation once, then a warm and an
        // edit op, so lazy state is built and caches are filled before
        // timing starts.
        for class in std::iter::repeat_n(Class::Fresh, K as usize).chain([Class::Warm, Class::Edit])
        {
            local.op(class, &mut off, &mut tally);
        }
        outcome.setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut ops = rotation(workload, args.seed);
    let mut measure = |phase: Phase, rec: &mut Recorder| {
        run_window(
            phase.budget(args),
            &mut ops,
            rec,
            &mut |op: Op, rec: &mut Recorder| local.op(op.class, rec, &mut tally),
        )
    };
    outcome.measure(&mut measure);
    outcome.tally = tally;
    if args.trace {
        let cases: Vec<_> = local
            .fresh
            .iter()
            .chain(&local.edited)
            .map(|(spec, truth)| (spec, truth.rows.as_slice()))
            .collect();
        outcome.compute_layers(&cases, args.seed, 64);
    }
    outcome
}
