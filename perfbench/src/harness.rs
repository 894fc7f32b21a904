//! What every workload shares: the run budget, repeated set-up, and one
//! timed job with its root span and failure capture.

use crate::spans::{Tracer, JOB};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A run's end-to-end figures are the medians over this many segments of
/// whole rounds, so that a slow spell of the host during part of a run
/// moves them less.
pub const SEGMENTS: usize = 5;

/// Jobs every segment must hold so that its p95 has ten samples beyond it.
pub const MIN_SEGMENT_JOBS: usize = 200;

/// Set-up runs this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A phase stops at this wall time, mid-round if need be, so that a badly
/// regressed build still exits well inside the run limit.
const HARD_CAP: Duration = Duration::from_secs(60);

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
}

impl Budget {
    /// Whether a phase that started at `start` and completed `rounds`
    /// rounds of `round_len` jobs has run long enough; it then finishes the
    /// round in progress.
    pub fn spent(&self, start: Instant, rounds: usize, round_len: usize) -> bool {
        let shortest_segment = rounds / SEGMENTS.min(rounds).max(1) * round_len;
        start.elapsed().as_secs_f64() >= self.seconds && shortest_segment >= MIN_SEGMENT_JOBS
    }

    /// Whether the phase must stop at once, mid-round.
    pub fn overrun(&self, start: Instant) -> bool {
        start.elapsed() >= HARD_CAP
    }
}

/// One timed job.
#[derive(Debug)]
pub struct Job {
    pub ms: f64,
    /// Seconds from the start of the timed loop to the job's end.
    pub end_s: f64,
    /// Index of the round the job belongs to.
    pub round: usize,
    /// The error, panic or failed check that failed the job.
    pub failure: Option<String>,
}

/// What one measured phase of a workload produced.
pub struct Phase {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// In round order.
    pub jobs: Vec<Job>,
    pub tracer: Tracer,
    /// Set by workloads that run on the worker pool.
    pub pool: Option<PoolStats>,
}

/// Worker-pool occupancy over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Σ job time / (workers × wall).
    pub busy_ratio: f64,
    /// Mean over workers of the time between their last job and the end of
    /// the batch, summed over batches.
    pub tail_idle_ms: f64,
}

/// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last
/// result.
pub fn repeat_setup<S>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition's state first, so every repetition
        // starts from the same heap.
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(tracer)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    last.map(|s| (s, times))
        .ok_or_else(|| "set-up never ran".to_string())
}

/// Runs job `round` of the timed loop that began at `start` under a root
/// span, catching panics; an `Err` from `body` is a failed check or a
/// typed error.
pub fn timed_job(
    tracer: &mut Tracer,
    start: Instant,
    round: usize,
    body: impl FnOnce(&mut Tracer) -> Result<(), String>,
) -> Job {
    let t0 = Instant::now();
    tracer.enter(JOB);
    let r = catch_unwind(AssertUnwindSafe(|| body(tracer)));
    tracer.close_all();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let failure = match r {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}")),
        ),
    };
    Job {
        ms,
        end_s: start.elapsed().as_secs_f64(),
        round,
        failure,
    }
}

/// Runs whole rounds of jobs on this thread until the budget is spent.
/// `job` gets the recorder and one item of the round.
pub fn run_rounds<I>(
    budget: Budget,
    tracer: &mut Tracer,
    mut next_round: impl FnMut() -> Vec<I>,
    mut job: impl FnMut(&mut Tracer, I) -> Result<(), String>,
) -> Vec<Job> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut round = 0;
    let mut round_len = 0;
    while !budget.spent(start, round, round_len) {
        let items = next_round();
        round_len = items.len();
        for item in items {
            if budget.overrun(start) {
                return jobs;
            }
            tracer.set_job(jobs.len() as u64);
            jobs.push(timed_job(tracer, start, round, |t| job(t, item)));
        }
        round += 1;
    }
    jobs
}

/// Splits jobs (in round order) into at most [`SEGMENTS`] runs of whole
/// rounds of near-equal length.
pub fn segments(jobs: &[Job]) -> Vec<&[Job]> {
    let rounds = jobs.last().map_or(0, |j| j.round + 1);
    let k = SEGMENTS.min(rounds);
    let mut out = Vec::with_capacity(k);
    let mut rest = jobs;
    for seg in 0..k {
        // Rounds r with r * k / rounds == seg belong to segment `seg`.
        let end = rest
            .iter()
            .position(|j| j.round * k / rounds > seg)
            .unwrap_or(rest.len());
        let (head, tail) = rest.split_at(end);
        out.push(head);
        rest = tail;
    }
    out
}

/// Compares simulated counters with the expected ones.
pub fn check_counters(what: &str, got: [u64; 3], want: [u64; 3]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: (cycles, events, ops) = {got:?}, expected {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(rounds: &[usize]) -> Vec<Job> {
        rounds
            .iter()
            .map(|&round| Job {
                ms: 1.0,
                end_s: 0.0,
                round,
                failure: None,
            })
            .collect()
    }

    #[test]
    fn budget_waits_for_full_segments() {
        let b = Budget { seconds: 0.0 };
        let start = Instant::now();
        assert!(!b.spent(start, 0, 0));
        // Four rounds of 100: four one-round segments, too small.
        assert!(!b.spent(start, 4, 100));
        // Ten rounds of 100: five segments of 200.
        assert!(b.spent(start, 10, 100));
        // One round of 630 already fills its own segment.
        assert!(b.spent(start, 1, 630));
        assert!(!Budget { seconds: 1e9 }.spent(start, 10, 100));
    }

    #[test]
    fn segments_hold_whole_rounds() {
        let rounds_of = |segs: Vec<&[Job]>| -> Vec<Vec<usize>> {
            segs.iter()
                .map(|s| s.iter().map(|j| j.round).collect())
                .collect()
        };
        // Twelve rounds of two jobs: five segments of two or three rounds.
        let js = jobs(&(0..24).map(|i| i / 2).collect::<Vec<_>>());
        let segs = rounds_of(segments(&js));
        assert_eq!(segs.len(), SEGMENTS);
        assert_eq!(segs.concat(), (0..24).map(|i| i / 2).collect::<Vec<_>>());
        for s in &segs {
            assert!(s.len() == 4 || s.len() == 6, "{segs:?}");
        }
        // Fewer rounds than segments: one segment per round.
        assert_eq!(
            rounds_of(segments(&jobs(&[0, 0, 1, 2]))),
            [vec![0, 0], vec![1], vec![2]]
        );
        assert!(segments(&[]).is_empty());
    }
}
