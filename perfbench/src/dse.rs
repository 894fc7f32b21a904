//! `dse_sweep`: the paper's Fig. 12 use. Seeded draws from the full
//! 3,780-point grid, each point run end to end (generate → compile →
//! simulate → drop → SCALE-Sim check) on the worker pool at every core.
//! Generation, compile and teardown do most of the work; the pool sets the
//! wall time.

use crate::harness::{repeat_setup, timed_job, Budget, Job, Phase, PoolStats};
use crate::spans::Tracer;
use crate::stats::Rng;
use equeue_bench::pool::{self, PointStatus};
use equeue_bench::{fig12_configs, to_conv_shape, to_scalesim, Fig12Config};
use equeue_core::{CancelToken, CompiledModule, SimLibrary, SimOptions};
use equeue_dialect::ConvDims;
use equeue_gen::{generate_systolic, SystolicSpec};
use equeue_passes::Dataflow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Points run untimed in set-up, one per dataflow, so the allocator and
/// lazily built tables are warm before the first timed job.
const WARMUP: [Fig12Config; 3] = [
    (8, 16, 4, 4, 8, Dataflow::Ws),
    (8, 16, 4, 4, 8, Dataflow::Is),
    (8, 16, 4, 4, 8, Dataflow::Os),
];

/// Rounds handed to the pool per batch: more than a run completes, so the
/// pool drains only when the run ends.
const ROUNDS_PER_BATCH: usize = 20;

/// The seeded draw. The grid is split into cells of equal (dataflow, array
/// shape, H, F, C), and a round takes one point from every cell, with the
/// filter count N and the order of the round picked by the seed. Every
/// dataflow gets an equal share. Host time per point spans three orders of
/// magnitude and depends mostly on the cell, so whole rounds keep the work
/// measured, and with it every latency percentile, the same across seeds.
pub struct Draw {
    rng: Rng,
    /// cell → the cell's points (one per N).
    cells: Vec<Vec<Fig12Config>>,
}

impl Draw {
    pub fn new(seed: u64) -> Self {
        let mut cells: BTreeMap<_, Vec<Fig12Config>> = BTreeMap::new();
        for p in fig12_configs(true) {
            let (ah, hw, f, c, _, df) = p;
            cells.entry((df as u8, ah, hw, f, c)).or_default().push(p);
        }
        Draw {
            rng: Rng::new(seed),
            cells: cells.into_values().collect(),
        }
    }

    /// Points per round.
    pub fn round_len(&self) -> usize {
        self.cells.len()
    }

    /// The next round, in seeded order.
    pub fn round(&mut self) -> Vec<Fig12Config> {
        let mut out: Vec<Fig12Config> = Vec::with_capacity(self.cells.len());
        for points in &self.cells {
            out.push(points[self.rng.below(points.len())]);
        }
        self.rng.shuffle(&mut out);
        out
    }

    fn batch(&mut self) -> Vec<Fig12Config> {
        (0..ROUNDS_PER_BATCH).flat_map(|_| self.round()).collect()
    }
}

/// One design point, end to end.
pub fn point_job(t: &mut Tracer, &(ah, hw, f, c, n, df): &Fig12Config) -> Result<(), String> {
    let dims = ConvDims {
        h: hw,
        w: hw,
        fh: f,
        fw: f,
        c,
        n,
    };
    let (rows, cols) = (ah, 64 / ah);
    let spec = SystolicSpec {
        rows,
        cols,
        dataflow: df,
    };
    let prog = t.span("gen", || generate_systolic(&spec, dims));
    let ops = prog.module.num_ops() as f64;
    t.count("gen.ops_out", ops);
    let compiled = t
        .span("compile", || {
            CompiledModule::compile(prog.module, SimLibrary::standard())
        })
        .map_err(|e| format!("compile: {e}"))?;
    t.count("compile.ops", ops);
    let options = SimOptions {
        trace: false,
        ..Default::default()
    };
    let report = t
        .span("run", || compiled.simulate(&options))
        .map_err(|e| format!("simulate: {e}"))?;
    crate::count_run(t, &report);
    let cycles = report.cycles;
    t.span("teardown", || drop((compiled, report)));
    let reference = t.span("check", || {
        scalesim::scale_sim(
            scalesim::ArrayShape { rows, cols },
            to_conv_shape(dims),
            to_scalesim(df),
        )
    });
    let mismatch = reference.cycles != cycles;
    t.count("check.mismatches", f64::from(u8::from(mismatch)));
    if mismatch {
        return Err(format!(
            "fig12 ah={ah} hw={hw} f={f} c={c} n={n} {df:?}: {cycles} cycles, SCALE-Sim {}",
            reference.cycles
        ));
    }
    Ok(())
}

pub fn run(budget: Budget, seed: u64, mut tracer: Tracer) -> Result<Phase, String> {
    let ((mut draw, first), setup_s) = repeat_setup(&mut tracer, |t| {
        for cfg in &WARMUP {
            point_job(t, cfg)?;
        }
        let mut draw = Draw::new(seed);
        let first = draw.batch();
        Ok((draw, first))
    })?;

    let workers = pool::resolve_jobs(0);
    let round_len = draw.round_len();
    let cancel = CancelToken::new();
    let done = AtomicUsize::new(0);
    // Once the budget is spent, jobs at or past `stop_at` (the end of the
    // round in progress) are skipped, so a run measures whole rounds.
    let stop = Mutex::new(RoundStop::default());
    let lock = || stop.lock().unwrap_or_else(PoisonError::into_inner);
    let mut jobs: Vec<Job> = Vec::new();
    let (mut busy_ms, mut batch_s, mut tail_idle_ms) = (0.0, 0.0, 0.0);
    let mut batch = first;
    let start = Instant::now();
    loop {
        let base = jobs.len();
        let items: Vec<(usize, Fig12Config)> = batch
            .iter()
            .enumerate()
            .map(|(i, cfg)| (base + i, *cfg))
            .collect();
        let batch_start = Instant::now();
        let statuses = pool::run_batch_status(workers, &items, Some(&cancel), |&(id, cfg)| {
            if !lock().claim(id) || budget.overrun(start) {
                cancel.cancel();
                return PointStatus::Cancelled;
            }
            let mut t = tracer.for_job(id as u64);
            let job = timed_job(&mut t, start, id / round_len, |t| point_job(t, &cfg));
            let end = Instant::now();
            let rounds_done = (done.fetch_add(1, Ordering::Relaxed) + 1) / round_len;
            if budget.spent(start, rounds_done, round_len) {
                lock().stop_after_round(round_len);
            }
            PointStatus::Done((job, t, std::thread::current().id(), end))
        });
        let batch_end = Instant::now();
        batch_s += (batch_end - batch_start).as_secs_f64();
        let mut last_end = HashMap::new();
        for (&(id, _), st) in items.iter().zip(statuses) {
            match st {
                PointStatus::Done((job, t, worker, end)) => {
                    busy_ms += job.ms;
                    jobs.push(job);
                    tracer.absorb(t);
                    last_end.insert(worker, end);
                }
                PointStatus::Failed(msg) => jobs.push(Job {
                    ms: 0.0,
                    end_s: start.elapsed().as_secs_f64(),
                    round: id / round_len,
                    failure: Some(msg),
                }),
                PointStatus::Cancelled => {}
            }
        }
        let idle: f64 = last_end
            .values()
            .map(|&end| (batch_end - end).as_secs_f64() * 1e3)
            .sum();
        tail_idle_ms += idle / last_end.len().max(1) as f64;
        if cancel.is_cancelled() {
            break;
        }
        batch = draw.batch();
    }
    Ok(Phase {
        setup_s,
        jobs,
        tracer,
        pool: Some(PoolStats {
            busy_ratio: busy_ms / 1e3 / (workers as f64 * batch_s),
            tail_idle_ms,
        }),
    })
}

/// Where a pooled run stops: the highest job index claimed so far, and
/// once the budget is spent, the first index past the round in progress.
#[derive(Default)]
struct RoundStop {
    claimed_max: usize,
    stop_at: Option<usize>,
}

impl RoundStop {
    /// Whether job `id` may run; records it as claimed if so.
    fn claim(&mut self, id: usize) -> bool {
        if self.stop_at.is_some_and(|at| id >= at) {
            return false;
        }
        self.claimed_max = self.claimed_max.max(id);
        true
    }

    fn stop_after_round(&mut self, round_len: usize) {
        if self.stop_at.is_none() {
            self.stop_at = Some((self.claimed_max / round_len + 1) * round_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_stratified() {
        let rounds = |seed| {
            let mut d = Draw::new(seed);
            (0..3).map(|_| d.round()).collect::<Vec<_>>()
        };
        let a = rounds(1);
        assert_eq!(a, rounds(1));
        assert_ne!(a, rounds(2));
        assert_ne!(a[0], a[1]);
        let grid = fig12_configs(true);
        for round in &a {
            // One point per (dataflow, array shape, H, F, C) cell.
            assert_eq!(round.len(), grid.len() / 6);
            assert_eq!(round.len(), Draw::new(1).round_len());
            for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
                assert_eq!(round.iter().filter(|p| p.5 == df).count(), round.len() / 3);
            }
            let mut cells: Vec<_> = round
                .iter()
                .map(|p| (p.0, p.1, p.2, p.3, p.5 as u8))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), round.len());
            assert!(round.iter().all(|p| grid.contains(p)));
        }
    }
}
