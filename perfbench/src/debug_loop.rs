//! `debug_loop`: the Fig. 11 edit–lower–simulate loop at hw=8. Each job
//! takes one stage program through every layer a user touches while
//! debugging: the lowering passes, IR text round trip, static analysis,
//! compile, a traced run with its Chrome JSON, and a snapshot taken at half
//! the run, encoded, decoded and resumed.

use crate::harness::{check_counters, repeat_setup, run_rounds, Budget, Phase};
use crate::reference;
use crate::spans::Tracer;
use crate::stats::Rng;
use equeue_analysis::analyze_module;
use equeue_core::{CompiledModule, RunLimits, SimLibrary, SimOptions, Snapshot};
use equeue_dialect::ConvDims;
use equeue_gen::{build_stage_program, Stage};
use equeue_ir::{parse_module, print_module};
use equeue_passes::Dataflow;

pub const DATAFLOWS: [Dataflow; 3] = [Dataflow::Ws, Dataflow::Is, Dataflow::Os];

/// Pinned-counter name of one stage program.
pub fn program_name(stage: Stage, df: Dataflow) -> String {
    format!("fig11_{}_{:?}_8", stage.as_str(), df).to_lowercase()
}

/// One round: every stage for each dataflow, dataflows in seeded order.
pub fn round(rng: &mut Rng) -> Vec<(Stage, Dataflow)> {
    let mut dfs = DATAFLOWS;
    rng.shuffle(&mut dfs);
    dfs.iter()
        .flat_map(|&df| Stage::all().map(|stage| (stage, df)))
        .collect()
}

/// One stage program through the whole debug loop.
pub fn stage_job(
    t: &mut Tracer,
    lib: &SimLibrary,
    stage: Stage,
    df: Dataflow,
) -> Result<(), String> {
    let name = program_name(stage, df);
    let want = reference::counters(&name);
    let prog = t.span("gen", || {
        build_stage_program(stage, ConvDims::square(8, 3, 3, 4), (4, 4), df)
    });
    t.count("gen.ops_out", prog.module.num_ops() as f64);
    let text = t.span("ir.print", || print_module(&prog.module));
    t.count("ir.text_bytes", text.len() as f64);
    let parsed = t
        .span("ir.parse", || parse_module(&text))
        .map_err(|e| format!("{name}: parse: {e}"))?;
    let analysis = t.span("analysis", || {
        analyze_module(&parsed, lib, &RunLimits::default())
    });
    let errors = analysis.error_count();
    t.count("analysis.errors", errors as f64);
    let ops = parsed.num_ops() as f64;
    let compiled = t
        .span("compile", || {
            CompiledModule::compile(parsed, SimLibrary::standard())
        })
        .map_err(|e| format!("{name}: compile: {e}"))?;
    t.count("compile.ops", ops);
    let traced = t
        .span("trace.run", || {
            compiled.simulate(&SimOptions {
                trace: true,
                ..Default::default()
            })
        })
        .map_err(|e| format!("{name}: traced run: {e}"))?;
    t.count("trace.events", traced.trace.len() as f64);
    let json = t.span("trace.json", || traced.trace.to_chrome_json());
    t.count("trace.json_bytes", json.len() as f64);
    let quiet = SimOptions {
        trace: false,
        snapshot_at: Some(traced.cycles / 2),
        ..Default::default()
    };
    let snap = t
        .span("snapshot.capture", || compiled.snapshot(&quiet))
        .map_err(|e| format!("{name}: snapshot: {e}"))?;
    let bytes = t.span("snapshot.encode", || snap.encode());
    t.count("snapshot.bytes", bytes.len() as f64);
    let decoded = t
        .span("snapshot.decode", || Snapshot::decode(&bytes))
        .map_err(|e| format!("{name}: decode: {e}"))?;
    let resumed = t
        .span("snapshot.resume", || compiled.resume(&decoded, &quiet))
        .map_err(|e| format!("{name}: resume: {e}"))?;
    let counters = |r: &equeue_core::SimReport| [r.cycles, r.events_processed, r.ops_interpreted];
    let (got, got_resumed) = (counters(&traced), counters(&resumed));
    let deadlock_free = analysis.deadlock_free;
    t.span("teardown", || {
        drop((prog, text, analysis, compiled, traced, json));
        drop((snap, bytes, decoded, resumed));
    });
    t.span("check", || {
        check_counters(&format!("{name} after parse"), got, want)?;
        check_counters(&format!("{name} resumed"), got_resumed, want)?;
        if errors > 0 || !deadlock_free {
            return Err(format!(
                "{name}: analysis reports {errors} errors, deadlock_free = {deadlock_free}"
            ));
        }
        Ok(())
    })
}

pub fn run(budget: Budget, seed: u64, mut tracer: Tracer) -> Result<Phase, String> {
    let lib = equeue_bench::standard_library();
    let (mut rng, setup_s) = repeat_setup(&mut tracer, |t| {
        // One untimed pass over every stage warms every layer.
        for stage in Stage::all() {
            stage_job(t, lib, stage, Dataflow::Ws)?;
        }
        Ok(Rng::new(seed))
    })?;
    let next_round = || round(&mut rng);
    let jobs = run_rounds(budget, &mut tracer, next_round, |t, (stage, df)| {
        stage_job(t, lib, stage, df)
    });
    Ok(Phase {
        setup_s,
        jobs,
        tracer,
        pool: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_cover_every_stage_and_follow_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..3).flat_map(|_| round(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert!((0..20).any(|s| draw(s) != draw(5)));
        let one = round(&mut Rng::new(5));
        assert_eq!(one.len(), 12);
        for df in DATAFLOWS {
            let stages: Vec<_> = one.iter().filter(|p| p.1 == df).map(|p| p.0).collect();
            assert_eq!(stages, Stage::all());
        }
    }
}
