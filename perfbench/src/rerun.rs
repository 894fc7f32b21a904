//! `rerun_mix`: compile a fixed mix of programs once in set-up, then
//! simulate them over and over from one thread in a seeded interleaving.
//! The run layer does nearly all of the job time; generation and compile
//! show only in `setup_s`.

use crate::harness::{check_counters, repeat_setup, run_rounds, Budget, Phase};
use crate::reference;
use crate::spans::Tracer;
use crate::stats::Rng;
use equeue_core::{CompiledModule, SimLibrary, SimOptions};
use equeue_dialect::ConvDims;
use equeue_gen::scenarios::{matmul_affine, mega_grid};
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;

fn fig11(stage: Stage) -> Module {
    build_stage_program(stage, ConvDims::square(16, 3, 3, 4), (4, 4), Dataflow::Ws).module
}

type Generator = fn() -> Module;

/// The mix: name and generator of each program.
pub const MIX: [(&str, Generator); 6] = [
    ("fig11_affine_ws_16", || fig11(Stage::Affine)),
    ("fig11_reassign_ws_16", || fig11(Stage::Reassign)),
    ("matmul_affine64", || matmul_affine(64)),
    ("fig12_ah8_hw16_f4_c4_n8_is", || {
        let spec = SystolicSpec {
            rows: 8,
            cols: 8,
            dataflow: Dataflow::Is,
        };
        let dims = ConvDims {
            h: 16,
            w: 16,
            fh: 4,
            fw: 4,
            c: 4,
            n: 8,
        };
        generate_systolic(&spec, dims).module
    }),
    ("fir_pipelined16", || {
        generate_fir(FirSpec::default(), FirCase::Pipelined16).module
    }),
    ("mega_grid_16x16x16", || mega_grid(16, 16, 16)),
];

/// How many times each program of [`MIX`] runs per round. Chosen so that
/// the median and p95 of job latency fall inside one program's latency band
/// rather than in the gap between two (with equal weights the median sits
/// exactly on the boundary between the cheap and the expensive half).
const WEIGHTS: [usize; 6] = [2, 1, 1, 1, 2, 1];

/// Indices into [`MIX`], each repeated by its weight.
fn weighted() -> Vec<usize> {
    WEIGHTS
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
        .collect()
}

/// One round of the mix in seeded order.
pub fn round(rng: &mut Rng) -> Vec<usize> {
    let mut order = weighted();
    rng.shuffle(&mut order);
    order
}

pub fn run(budget: Budget, seed: u64, mut tracer: Tracer) -> Result<Phase, String> {
    let (programs, setup_s) = repeat_setup(&mut tracer, |t| {
        MIX.iter()
            .map(|(name, generate)| {
                let module = t.span("gen", generate);
                let ops = module.num_ops() as f64;
                t.count("gen.ops_out", ops);
                let compiled = t
                    .span("compile", || {
                        CompiledModule::compile(module, SimLibrary::standard())
                    })
                    .map_err(|e| format!("{name}: compile: {e}"))?;
                t.count("compile.ops", ops);
                Ok(compiled)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let options = SimOptions {
        trace: false,
        ..Default::default()
    };
    let mut rng = Rng::new(seed);
    let next_round = || round(&mut rng);
    let jobs = run_rounds(budget, &mut tracer, next_round, |t, i| {
        let name = MIX[i].0;
        let report = t
            .span("run", || programs[i].simulate(&options))
            .map_err(|e| format!("{name}: simulate: {e}"))?;
        crate::count_run(t, &report);
        let got = [
            report.cycles,
            report.events_processed,
            report.ops_interpreted,
        ];
        t.span("teardown", || drop(report));
        t.span("check", || {
            check_counters(name, got, reference::counters(name))
        })
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
    fn rounds_are_seeded_permutations_of_the_weights() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).flat_map(|_| round(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let mut one = round(&mut Rng::new(3));
        one.sort_unstable();
        assert_eq!(one, weighted());
    }
}
