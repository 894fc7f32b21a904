//! Golden cycle-count tests: perf-semantics invariance.
//!
//! The expected values below were captured from the engine **before** the
//! dense-frame / copy-on-write hot-path refactor (the original
//! `HashMap<ValueId, SimValue>` interpreter). Any engine optimisation must
//! reproduce them bit-for-bit: speed changes are welcome, simulated cycle
//! counts are contract. If a PR intentionally changes *timing semantics*
//! (not perf), it must update these values and say so loudly.
//!
//! Besides cycles, the tables pin scheduler wakes (`events_processed`) and
//! interpreted ops (`ops_interpreted`): a perf change must leave all three
//! bit-identical, under both execution backends.

use equeue_bench::{
    fig09_ifmap_sweep, fig09_weight_sweep, fig11_rows, fig12_sweep, fir_rows, run_quiet_backend,
    scenarios,
};
use equeue_core::Backend;
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;

#[test]
fn fig09_sweeps_golden() {
    let ifmap: Vec<(String, u64)> = fig09_ifmap_sweep()
        .into_iter()
        .map(|r| (r.label, r.equeue_cycles))
        .collect();
    assert_eq!(
        ifmap,
        [
            ("2x2", 18),
            ("4x4", 42),
            ("8x8", 162),
            ("16x16", 690),
            ("32x32", 2898)
        ]
        .map(|(l, c)| (l.to_string(), c))
    );
    let weight: Vec<(String, u64)> = fig09_weight_sweep()
        .into_iter()
        .map(|r| (r.label, r.equeue_cycles))
        .collect();
    assert_eq!(
        weight,
        [
            ("2x2", 2898),
            ("4x4", 10152),
            ("8x8", 30240),
            ("16x16", 56448),
            ("32x32", 4608)
        ]
        .map(|(l, c)| (l.to_string(), c))
    );
}

#[test]
fn fig11_grid_golden() {
    let got: Vec<u64> = fig11_rows(&[4, 6]).into_iter().map(|r| r.cycles).collect();
    // Stage-major, dataflow-minor (Ws, Is, Os), hw in {4, 6}.
    assert_eq!(
        got,
        vec![
            3456, 3456, 3456, 2592, 2592, 2592, 1767, 1767, 1767, 103, 103, 159, // hw = 4
            13824, 13824, 13824, 10368, 10368, 10368, 6966, 6966, 6966, 187, 412,
            327, // hw = 6
        ]
    );
}

#[test]
fn fig12_sweep_golden() {
    let rows = fig12_sweep(false);
    assert_eq!(rows.len(), 216);
    let sum = |f: fn(&equeue_bench::Fig12Row) -> u64| -> u64 { rows.iter().map(f).sum() };
    assert_eq!(
        sum(|r| r.cycles),
        344_442,
        "fig12 small-sweep total simulated cycles drifted"
    );
    assert_eq!(
        sum(|r| r.events_processed),
        1_034_097,
        "sweep wakes drifted"
    );
    assert_eq!(sum(|r| r.ops_interpreted), 1_368_348, "sweep ops drifted");
}

#[test]
fn fir_cases_golden() {
    let got: Vec<u64> = fir_rows().into_iter().map(|r| r.cycles).collect();
    assert_eq!(got, vec![2048, 143, 588, 540]);
}

/// One single-module counter row: name, module builder, and the pinned
/// `(cycles, events_processed, ops_interpreted)`.
type CounterRow = (&'static str, fn() -> Module, (u64, u64, u64));

/// The single-module workloads and their pinned counters: one point each
/// from Fig. 9, Fig. 11 and the FIR study, plus engine microworkloads
/// (Linalg and loop-heavy affine matmuls, tensor streaming, and
/// multi-processor grids).
const COUNTER_ROWS: &[CounterRow] = &[
    (
        "fig09_16x16_ws",
        || {
            let spec = SystolicSpec {
                rows: 4,
                cols: 4,
                dataflow: Dataflow::Ws,
            };
            generate_systolic(&spec, ConvDims::square(16, 2, 3, 1)).module
        },
        (690, 79, 117),
    ),
    (
        "fig11_last_stage_6x6",
        || {
            let last = Stage::all()[Stage::all().len() - 1];
            build_stage_program(last, ConvDims::square(6, 3, 3, 4), (4, 4), Dataflow::Ws).module
        },
        (187, 646, 888),
    ),
    (
        "fir_balanced4",
        || generate_fir(FirSpec::default(), FirCase::Balanced4).module,
        (540, 3461, 3606),
    ),
    (
        "matmul64_linalg",
        || scenarios::matmul_linalg(64),
        (2_097_152, 4, 11),
    ),
    (
        "matmul64_affine",
        || scenarios::matmul_affine(64),
        (1_572_864, 1_572_867, 1_843_339),
    ),
    (
        "matmul32_affine",
        || scenarios::matmul_affine(32),
        (196_608, 196_611, 231_499),
    ),
    (
        "tensor_stream_256x128",
        || scenarios::tensor_stream(256, 128),
        (65_536, 386, 518),
    ),
    (
        "tensor_stream_64x16",
        || scenarios::tensor_stream(64, 16),
        (2_048, 50, 70),
    ),
    (
        "conv2d_systolic_8x3",
        || scenarios::conv2d_systolic(8, 3, 2, 4),
        (5634, 18, 45),
    ),
    (
        "multi_tenant_4x16x6",
        || scenarios::multi_tenant_trace(4, 16, 6),
        (8448, 144, 147),
    ),
    (
        "mega_grid_8x8",
        || scenarios::mega_grid(8, 8, 4),
        (12, 834, 1348),
    ),
    (
        "shard_grid_4x4",
        || scenarios::shard_grid(4, 4, 4),
        (12, 210, 355),
    ),
];

#[test]
fn engine_scenarios_golden() {
    for &(name, build, expected) in COUNTER_ROWS {
        let module = build();
        for backend in [Backend::Fused, Backend::Interp] {
            let r = run_quiet_backend(&module, backend);
            assert_eq!(
                (r.cycles, r.events_processed, r.ops_interpreted),
                expected,
                "{name} ({backend:?}): (cycles, events, ops) drifted"
            );
        }
    }
}
