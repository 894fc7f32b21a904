//! Fused-vs-interpreter differential suite.
//!
//! The fused backend's contract is *bit identity*: for any program, running
//! under [`Backend::Fused`] must produce exactly the same simulated state as
//! [`Backend::Interp`] — cycles, scheduler wakes, interpreted-op counts,
//! spawned events, peak live tensor bytes, final buffer contents, memory
//! traffic, connection bandwidth — and fail with the same [`SimError`] kind
//! when the program is broken. This suite enforces the contract over three
//! surfaces:
//!
//! 1. every golden benchmark scenario: the shared
//!    `equeue_gen::scenarios::golden_scenarios()` set plus this file's
//!    debug-sized variants of the counter-pinned workloads in
//!    `tests/golden_cycles.rs`;
//! 2. the fault-injection matrix (perturbed-but-structured programs);
//! 3. a malformed-IR fuzzer corpus (hostile text through the full
//!    parse → compile → simulate pipeline).

use std::panic::{catch_unwind, AssertUnwindSafe};

use equeue_bench::scenarios;
use equeue_core::fault::{apply_faults, Fault};
use equeue_core::{
    simulate_with, Backend, CompiledModule, RunLimits, SimError, SimLibrary, SimOptions, SimReport,
};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, generate_systolic_detailed, FirCase,
    FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;

fn options(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        backend,
        ..Default::default()
    }
}

fn traced(backend: Backend) -> SimOptions {
    SimOptions {
        trace: true,
        ..options(backend)
    }
}

/// Deterministic bounded options for programs that may diverge or explode:
/// event/cycle budgets only — no wall deadline, which could make the two
/// backends' outcomes differ by machine noise.
fn bounded(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        limits: RunLimits {
            max_cycles: 10_000_000,
            max_events: 1_000_000,
            max_live_tensor_bytes: 64 << 20,
            wall_deadline: None,
        },
        cancel: None,
        backend,
        ..Default::default()
    }
}

/// Asserts every deterministic field of the two reports matches. Skips
/// `execution_time` (wall clock) and `trace` (empty under `trace: false`).
fn assert_reports_identical(name: &str, fused: &SimReport, interp: &SimReport) {
    assert_eq!(fused.cycles, interp.cycles, "{name}: cycles");
    assert_eq!(
        fused.events_processed, interp.events_processed,
        "{name}: events"
    );
    assert_eq!(fused.ops_interpreted, interp.ops_interpreted, "{name}: ops");
    assert_eq!(
        fused.events_spawned, interp.events_spawned,
        "{name}: spawned"
    );
    assert_eq!(
        fused.peak_live_tensor_bytes, interp.peak_live_tensor_bytes,
        "{name}: peak live bytes"
    );
    assert_eq!(fused.buffers, interp.buffers, "{name}: buffer contents");
    assert_eq!(fused.memories, interp.memories, "{name}: memory traffic");
    assert_eq!(
        fused.connections, interp.connections,
        "{name}: connection bandwidth"
    );
}

/// Runs `module` under both backends, asserts identical reports, and
/// returns the fused report.
fn differential(name: &str, module: &Module) -> SimReport {
    let lib = SimLibrary::standard();
    let fused = simulate_with(module, &lib, &options(Backend::Fused))
        .unwrap_or_else(|e| panic!("{name} (fused): {e}"));
    let interp = simulate_with(module, &lib, &options(Backend::Interp))
        .unwrap_or_else(|e| panic!("{name} (interp): {e}"));
    assert_reports_identical(name, &fused, &interp);
    fused
}

/// The loop-heavy Fig. 11 stages, whose innermost bodies are
/// connection-less `equeue.read`/`equeue.write` loops: each must run
/// through fused traces, not only match the interpreter.
const FIG11_LOOP_STAGES: [(&str, Stage, Dataflow); 6] = [
    ("fig11_affine_ws", Stage::Affine, Dataflow::Ws),
    ("fig11_affine_is", Stage::Affine, Dataflow::Is),
    ("fig11_affine_os", Stage::Affine, Dataflow::Os),
    ("fig11_reassign_ws", Stage::Reassign, Dataflow::Ws),
    ("fig11_reassign_is", Stage::Reassign, Dataflow::Is),
    ("fig11_reassign_os", Stage::Reassign, Dataflow::Os),
];

/// Debug-sized variants of the counter-pinned workloads in
/// `tests/golden_cycles.rs`, complementing the shared golden set.
fn small_scenarios() -> Vec<(&'static str, Module)> {
    let fig11_loops = FIG11_LOOP_STAGES.iter().map(|&(name, stage, df)| {
        let dims = ConvDims::square(6, 3, 3, 2);
        (name, build_stage_program(stage, dims, (4, 4), df).module)
    });
    let mut all = vec![
        ("matmul8_linalg", scenarios::matmul_linalg(8)),
        ("matmul4_affine", scenarios::matmul_affine(4)),
        ("matmul16_affine", scenarios::matmul_affine(16)),
        ("tensor_stream", scenarios::tensor_stream(64, 32)),
        (
            "fir_single_core",
            generate_fir(FirSpec::default(), FirCase::SingleCore).module,
        ),
        (
            "fir_balanced4",
            generate_fir(FirSpec::default(), FirCase::Balanced4).module,
        ),
        (
            "fig09_4x4_ws",
            generate_systolic(
                &SystolicSpec {
                    rows: 4,
                    cols: 4,
                    dataflow: Dataflow::Ws,
                },
                ConvDims::square(8, 2, 3, 1),
            )
            .module,
        ),
        (
            "fig11_last_stage",
            build_stage_program(
                Stage::all()[Stage::all().len() - 1],
                ConvDims::square(6, 3, 3, 2),
                (4, 4),
                Dataflow::Ws,
            )
            .module,
        ),
        (
            "systolic_detailed",
            generate_systolic_detailed(
                &SystolicSpec {
                    rows: 2,
                    cols: 2,
                    dataflow: Dataflow::Ws,
                },
                ConvDims::square(6, 2, 3, 1),
            )
            .module,
        ),
    ];
    all.extend(fig11_loops);
    all
}

#[test]
fn golden_scenarios_are_bit_identical_across_backends() {
    for (name, module) in small_scenarios() {
        let fused = differential(name, &module);
        if FIG11_LOOP_STAGES.iter().any(|&(n, ..)| n == name) {
            assert!(fused.fused_trace_entries > 0, "{name}: no fused trace ran");
        }
    }
    for s in scenarios::golden_scenarios() {
        differential(s.name, &s.module);
    }
}

/// Traced runs fuse too, and record exactly the interpreter's waveform:
/// every counter matches and the Chrome JSON is byte-identical.
#[test]
fn traced_runs_are_byte_identical_across_backends() {
    let lib = SimLibrary::standard();
    let golden = scenarios::golden_scenarios()
        .into_iter()
        .map(|s| (s.name, s.module));
    for (name, module) in small_scenarios().into_iter().chain(golden) {
        let fused = simulate_with(&module, &lib, &traced(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name} (fused, traced): {e}"));
        let interp = simulate_with(&module, &lib, &traced(Backend::Interp))
            .unwrap_or_else(|e| panic!("{name} (interp, traced): {e}"));
        assert_reports_identical(name, &fused, &interp);
        assert!(
            fused.trace.to_chrome_json() == interp.trace.to_chrome_json(),
            "{name}: traced Chrome JSON differs between backends \
             ({} fused vs {} interp events)",
            fused.trace.len(),
            interp.trace.len()
        );
        if FIG11_LOOP_STAGES.iter().any(|&(n, ..)| n == name) {
            assert!(fused.fused_trace_entries > 0, "{name}: no fused trace ran");
        }
    }
}

#[test]
fn trace_enabled_runs_agree_with_fused_counters() {
    // Recording a trace must not change what the fused backend does: the
    // same trace entries run and the simulated state matches a quiet run.
    let module = scenarios::matmul_affine(8);
    let lib = SimLibrary::standard();
    let traced = simulate_with(&module, &lib, &traced(Backend::Fused)).unwrap();
    assert!(!traced.trace.is_empty(), "tracing must stay functional");
    let quiet = simulate_with(&module, &lib, &options(Backend::Fused)).unwrap();
    assert_reports_identical("matmul8_affine (traced vs quiet)", &traced, &quiet);
    assert!(quiet.fused_trace_entries > 0, "no fused trace ran");
    assert_eq!(traced.fused_trace_entries, quiet.fused_trace_entries);
}

/// FNV-1a 64, used as a content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the traced Chrome JSON of two programs by byte length and FNV-1a
/// hash under both backends: one trace mostly of interpreted ops and
/// stalls, one mostly of fused `equeue.read`/`equeue.write` loops. A
/// failure here is a change to the waveform or to its serialisation.
#[test]
fn traced_chrome_json_is_pinned() {
    let fir = scenarios::golden_scenarios()
        .into_iter()
        .find(|s| s.name == "fir_single_core")
        .expect("fir_single_core is a golden scenario")
        .module;
    let affine = build_stage_program(
        Stage::Affine,
        ConvDims::square(6, 3, 3, 4),
        (4, 4),
        Dataflow::Ws,
    )
    .module;
    let lib = SimLibrary::standard();
    for (name, module, len, sum) in [
        ("fir_single_core", &fir, 215_981, 0xec62_7d23_8e2c_75ef),
        (
            "fig11_affine_ws_6",
            &affine,
            1_189_853,
            0x9d36_360f_7301_5089,
        ),
    ] {
        for backend in [Backend::Fused, Backend::Interp] {
            let json = simulate_with(module, &lib, &traced(backend))
                .unwrap_or_else(|e| panic!("{name} ({backend:?}): {e}"))
                .trace
                .to_chrome_json();
            assert_eq!(
                (json.len(), fnv1a(json.as_bytes())),
                (len, sum),
                "{name} ({backend:?})"
            );
        }
    }
}

/// A program touching every surface the faults target (mirrors the core
/// crate's fault-injection fixture): memory, launch, `affine.for`, ext op.
fn fault_target() -> Module {
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(kinds::SRAM, &[64], 32, 2);
    let buf = b.alloc(mem, &[16], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let c = ib.const_int(2, Type::I32);
        let (_, body, _iv) = ib.affine_for(0, 8, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            lb.muli(c, c);
            lb.affine_yield();
        }
        ib.read(l.body_args[0], None);
        ib.ext_op("mac", vec![], vec![]);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// Runs one module under both backends and asserts outcome agreement:
/// identical reports on success, identical [`SimError`] kinds on failure.
/// Panics in either backend fail the test.
fn assert_outcomes_agree(name: &str, module: &Module) {
    let lib = SimLibrary::standard();
    let run = |backend| {
        catch_unwind(AssertUnwindSafe(|| {
            simulate_with(module, &lib, &bounded(backend))
        }))
        .unwrap_or_else(|_| panic!("{name}: panicked under {backend:?}"))
    };
    match (run(Backend::Fused), run(Backend::Interp)) {
        (Ok(f), Ok(i)) => assert_reports_identical(name, &f, &i),
        (Err(f), Err(i)) => assert_eq!(
            std::mem::discriminant(&f),
            std::mem::discriminant(&i),
            "{name}: error kinds diverge (fused: {f}, interp: {i})"
        ),
        (f, i) => panic!(
            "{name}: outcomes diverge (fused: {}, interp: {})",
            summarize(&f),
            summarize(&i)
        ),
    }
}

fn summarize(r: &Result<SimReport, SimError>) -> String {
    match r {
        Ok(rep) => format!("ok, {} cycles", rep.cycles),
        Err(e) => format!("err: {e}"),
    }
}

#[test]
fn fault_matrix_outcomes_agree_across_backends() {
    let matrix: Vec<(&str, Vec<Fault>)> = vec![
        ("zero-faults", vec![]),
        (
            "rename-to-unknown-op",
            vec![Fault::RenameOp {
                nth: 6,
                to: "bogus.op".into(),
            }],
        ),
        (
            "rename-breaks-arity",
            vec![Fault::RenameOp {
                nth: 2,
                to: "equeue.launch".into(),
            }],
        ),
        ("drop-operand", vec![Fault::DropOperand { nth: 0 }]),
        ("drop-third-operand", vec![Fault::DropOperand { nth: 2 }]),
        ("zero-loop-step", vec![Fault::ZeroLoopStep { nth: 0 }]),
        (
            "ext-op-small-latency",
            vec![Fault::ExtOpCycles { nth: 0, cycles: 17 }],
        ),
        (
            "ext-op-huge-latency",
            vec![Fault::ExtOpCycles {
                nth: 0,
                cycles: i64::MAX,
            }],
        ),
        (
            "corrupt-shape-negative",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![-4],
            }],
        ),
        (
            "corrupt-shape-overflow",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![i64::MAX, i64::MAX],
            }],
        ),
        ("drop-regions", vec![Fault::DropRegions { nth: 0 }]),
        (
            "stacked-faults",
            vec![
                Fault::DropOperand { nth: 2 },
                Fault::ZeroLoopStep { nth: 0 },
                Fault::CorruptShape {
                    nth: 0,
                    dims: vec![-1],
                },
            ],
        ),
    ];
    // Perturb the fixture plus a Linalg-level, an affine-loop and an
    // ext-op-heavy scenario, so each fault kind meets ops it can land on.
    let targets = [
        ("fault_target", fault_target()),
        ("matmul8_linalg", scenarios::matmul_linalg(8)),
        ("matmul4_affine", scenarios::matmul_affine(4)),
        (
            "fir_single_core",
            generate_fir(FirSpec::default(), FirCase::SingleCore).module,
        ),
    ];
    for (target, module) in &targets {
        for (name, faults) in &matrix {
            let mut m = module.clone();
            apply_faults(&mut m, faults);
            assert_outcomes_agree(&format!("{name} on {target}"), &m);
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-IR fuzzer corpus (mirrors `fuzz_malformed_ir`, but differential)
// ---------------------------------------------------------------------------

const CORPUS: &[&str] = &[
    r#"
%kernel = "equeue.create_proc"() {kind = "MAC"} : () -> !equeue.proc
%mem = "equeue.create_mem"() {banks = 1, data_bits = 32, kind = "SRAM", shape = [8]} : () -> !equeue.mem
%buf = "equeue.alloc"(%mem) : (!equeue.mem) -> !equeue.buffer<4xi32>
%start = "equeue.control_start"() : () -> !equeue.signal
%done = "equeue.launch"(%start, %kernel, %buf) ({
^bb0(%b: !equeue.buffer<4xi32>):
  %data = "equeue.read"(%b) {segments = [1, 0, 0]} : (!equeue.buffer<4xi32>) -> tensor<4xi32>
  "equeue.return"() : () -> ()
}) : (!equeue.signal, !equeue.proc, !equeue.buffer<4xi32>) -> !equeue.signal
"equeue.await"(%done) : (!equeue.signal) -> ()
"#,
    r#"
%c0 = "arith.constant"() {value = 0} : () -> i32
%c1 = "arith.constant"() {value = 1} : () -> i32
%sum = "arith.addi"(%c0, %c1) : (i32, i32) -> i32
"affine.for"() ({
^bb0(%i: index):
  %sq = "arith.muli"(%sum, %sum) : (i32, i32) -> i32
  "affine.yield"() : () -> ()
}) {lower = 0, step = 1, upper = 4} : () -> ()
"#,
];

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random byte-level mutation of `text` (flip / overwrite / truncate /
/// line deletion) — enough to knock programs into every error path while
/// keeping some mutants parseable so the execution differential is live.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(4) {
        0 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        2 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = b' ' + (rng.below(95) as u8);
            }
        }
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                lines.remove(rng.below(lines.len()));
            }
            bytes = lines.join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn fuzzer_corpus_outcomes_agree_across_backends() {
    let mut rng = Rng(0x5EED_CAFE_F00D_D1FF);
    let mut executed = 0u32;
    for round in 0..300u32 {
        let base = CORPUS[rng.below(CORPUS.len())];
        let text = mutate(&mut rng, base);
        // Parse + compile once: failures there are backend-independent by
        // construction, so the differential only matters for modules that
        // reach execution.
        let Ok(compiled) = CompiledModule::compile_text(&text, SimLibrary::standard()) else {
            continue;
        };
        executed += 1;
        let run = |backend| {
            catch_unwind(AssertUnwindSafe(|| compiled.simulate(&bounded(backend))))
                .unwrap_or_else(|_| panic!("round {round}: panicked under {backend:?}\n{text}"))
        };
        match (run(Backend::Fused), run(Backend::Interp)) {
            (Ok(f), Ok(i)) => assert_reports_identical("fuzz", &f, &i),
            (Err(f), Err(i)) => assert_eq!(
                std::mem::discriminant(&f),
                std::mem::discriminant(&i),
                "round {round}: error kinds diverge (fused: {f}, interp: {i})\n{text}"
            ),
            (f, i) => panic!(
                "round {round}: outcomes diverge (fused: {}, interp: {})\n{text}",
                summarize(&f),
                summarize(&i)
            ),
        }
    }
    // The corpus must actually exercise the execution differential, not
    // just the parser.
    assert!(executed >= 20, "only {executed} mutants reached execution");
}

// ---------------------------------------------------------------------------
// Connection-less `equeue.read`/`equeue.write` traces
// ---------------------------------------------------------------------------

/// Shape of a [`read_write_loops`] program.
#[derive(Clone, Copy)]
struct RwLoops {
    /// Memory kind holding every buffer.
    kind: &'static str,
    /// Concurrent access ports of that memory.
    ports: i64,
    /// Processors, each running its own loop on its own buffer.
    procs: usize,
    /// Divisor of the loop body's `arith.divi`.
    divisor: i64,
    /// Added to the write subscript (`1` runs the last write out of range).
    write_offset: i64,
    /// Route the read through a connection.
    conn: bool,
}

impl Default for RwLoops {
    fn default() -> Self {
        RwLoops {
            kind: equeue_dialect::kinds::SRAM,
            ports: 1,
            procs: 1,
            divisor: 1,
            write_offset: 0,
            conn: false,
        }
    }
}

const RW_TRIP: usize = 64;

/// `procs` processors, each running
/// `for i in 0..64 { buf[i + off] = (read(buf[i]) + 7) / divisor }`
/// with connection-less `equeue.read`/`equeue.write` on one shared memory.
fn read_write_loops(spec: RwLoops) -> Module {
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, ConnKind, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(spec.kind, &[spec.procs * RW_TRIP], 32, 1);
    let conn = spec
        .conn
        .then(|| b.create_connection(ConnKind::Streaming, 8));
    let start = b.control_start();
    let mut dones = Vec::new();
    for _ in 0..spec.procs {
        let pe = b.create_proc(kinds::ARM_R5);
        let buf = b.alloc(mem, &[RW_TRIP], Type::I32);
        let l = b.launch(start, pe, &[buf], vec![]);
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let seven = ib.const_int(7, Type::I32);
        let divisor = ib.const_int(spec.divisor, Type::I32);
        let off = ib.const_index(spec.write_offset);
        let (_, body, iv) = ib.affine_for(0, RW_TRIP as i64, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            let buf = l.body_args[0];
            let x = lb.read_indexed(buf, vec![iv], conn);
            let y = lb.addi(x, seven);
            let y = lb.divi(y, divisor);
            let at = lb.addi(iv, off);
            lb.write_indexed(y, buf, vec![at], None);
            lb.affine_yield();
        }
        ib.ret(vec![]);
        dones.push(l.done);
    }
    b.await_all(dones);
    let create_mem = m.find_first("equeue.create_mem").expect("memory op");
    m.op_mut(create_mem).attrs.set("ports", spec.ports);
    m
}

/// Both backends fail with *equal* errors on `module`.
fn assert_same_error(name: &str, module: &Module) -> SimError {
    let lib = SimLibrary::standard();
    let fused = simulate_with(module, &lib, &options(Backend::Fused)).unwrap_err();
    let interp = simulate_with(module, &lib, &options(Backend::Interp)).unwrap_err();
    assert_eq!(fused, interp, "{name}: errors diverge");
    fused
}

#[test]
fn port_contended_read_write_traces_match_interp() {
    // Two processors share one single-port SRAM, so an access inside a
    // trace can find the port held by the other processor and finish
    // later than `clock + cost`: the trace must time it by the port.
    let one_port = RwLoops {
        procs: 2,
        ..RwLoops::default()
    };
    let fused = differential("two procs, one port", &read_write_loops(one_port));
    assert!(fused.fused_trace_entries > 0, "no fused trace ran");
    let two_ports = differential(
        "two procs, two ports",
        &read_write_loops(RwLoops {
            ports: 2,
            ..one_port
        }),
    );
    assert!(two_ports.fused_trace_entries > 0, "no fused trace ran");
    assert!(
        fused.cycles > two_ports.cycles,
        "one port must make accesses wait ({} vs {} cycles)",
        fused.cycles,
        two_ports.cycles
    );
}

#[test]
fn register_read_write_trace_batches_counters() {
    // Zero-latency accesses take no time and wake nothing; their traffic is
    // batched in the trace and flushed at the exit.
    let module = read_write_loops(RwLoops {
        kind: equeue_dialect::kinds::REGISTER,
        ..RwLoops::default()
    });
    let fused = differential("register loop", &module);
    assert_eq!(fused.fused_trace_entries, 1);
    let reg = &fused.memories[0];
    assert_eq!((reg.reads, reg.writes), (RW_TRIP as u64, RW_TRIP as u64));
}

#[test]
fn read_write_trace_errors_match_interp() {
    let oob = assert_same_error(
        "write out of range",
        &read_write_loops(RwLoops {
            write_offset: 1,
            ..RwLoops::default()
        }),
    );
    assert!(matches!(oob, SimError::Runtime(_)), "{oob}");
    let div = assert_same_error(
        "divide by zero",
        &read_write_loops(RwLoops {
            divisor: 0,
            ..RwLoops::default()
        }),
    );
    assert!(matches!(div, SimError::Runtime(_)), "{div}");
}

#[test]
fn read_through_a_connection_declines() {
    use equeue_core::{analyze_facts, FuseDecline, FuseVerdict};
    let module = read_write_loops(RwLoops {
        conn: true,
        ..RwLoops::default()
    });
    let facts = analyze_facts(&module, &SimLibrary::standard());
    let verdicts: Vec<_> = facts.loops.iter().map(|l| &l.verdict).collect();
    assert_eq!(
        verdicts,
        [&FuseVerdict::Declined(FuseDecline::UnsupportedOp(
            "equeue.read".into()
        ))]
    );
    assert_eq!(
        differential("read via connection", &module).fused_trace_entries,
        0
    );
}
