//! Job-count determinism suite for across-run parallelism.
//!
//! Sweeps run many independent simulations on the [`pool`] worker threads,
//! all reading shared [`CompiledModule`]s. The contract is *bit identity
//! across job counts*: every report from a batch run on N workers must
//! match the sequential (`jobs == 1`) batch exactly — cycles, scheduler
//! wakes, interpreted-op counts, spawned events, peak live tensor bytes,
//! final buffer contents, memory traffic, connection bandwidth — for every
//! N and under both backends. Each scenario appears several times in the
//! batch, so one compiled module is simulated by several threads at once.

use equeue_bench::pool;
use equeue_core::{Backend, CompiledModule, SimLibrary, SimOptions, SimReport};
use equeue_gen::scenarios::golden_scenarios;

const JOB_COUNTS: &[usize] = &[2, 4];

/// Copies of each scenario in one batch: enough that workers overlap on
/// the same compiled module.
const REPEATS: usize = 3;

/// Asserts every deterministic field of the two reports matches. Skips
/// `execution_time` (wall clock) and `trace` (empty under `trace: false`).
fn assert_reports_identical(name: &str, seq: &SimReport, par: &SimReport) {
    assert_eq!(seq.cycles, par.cycles, "{name}: cycles");
    assert_eq!(seq.events_processed, par.events_processed, "{name}: events");
    assert_eq!(seq.events_spawned, par.events_spawned, "{name}: spawned");
    assert_eq!(seq.ops_interpreted, par.ops_interpreted, "{name}: ops");
    assert_eq!(
        seq.peak_live_tensor_bytes, par.peak_live_tensor_bytes,
        "{name}: peak live bytes"
    );
    assert_eq!(seq.buffers, par.buffers, "{name}: buffer contents");
    assert_eq!(seq.memories, par.memories, "{name}: memory traffic");
    assert_eq!(
        seq.connections, par.connections,
        "{name}: connection bandwidth"
    );
}

fn differential(backend: Backend) {
    let options = SimOptions {
        trace: false,
        backend,
        ..Default::default()
    };
    let compiled: Vec<(&str, CompiledModule)> = golden_scenarios()
        .into_iter()
        .map(|s| {
            let c = CompiledModule::compile(s.module, SimLibrary::standard())
                .unwrap_or_else(|e| panic!("{} compile: {e}", s.name));
            (s.name, c)
        })
        .collect();
    let items: Vec<usize> = (0..compiled.len() * REPEATS)
        .map(|i| i % compiled.len())
        .collect();
    let batch = |jobs| {
        pool::run_batch(jobs, &items, |&i| {
            let (name, c) = &compiled[i];
            c.simulate(&options)
                .unwrap_or_else(|e| panic!("{name} (jobs {jobs}, {backend:?}): {e}"))
        })
    };
    let seq = batch(1);
    for &jobs in JOB_COUNTS {
        let par = batch(jobs);
        for ((&i, s), p) in items.iter().zip(&seq).zip(&par) {
            let name = compiled[i].0;
            assert_reports_identical(&format!("{name} @jobs {jobs} {backend:?}"), s, p);
        }
    }
}

#[test]
fn golden_scenarios_are_bit_identical_across_job_counts_interp() {
    differential(Backend::Interp);
}

#[test]
fn golden_scenarios_are_bit_identical_across_job_counts_fused() {
    differential(Backend::Fused);
}
