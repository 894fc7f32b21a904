//! Differential replay suite: checkpoint/resume must be invisible.
//!
//! The snapshot contract is *bit identity*: for any program, running to
//! completion in one shot must produce exactly the same simulated state as
//! running to cycle `N`, capturing a [`Snapshot`], and resuming it —
//! cycles, scheduler wakes, interpreted-op counts, final buffer contents,
//! memory traffic, connection bandwidth. The suite enforces the contract
//! over every golden scenario:
//!
//! 1. cut points swept early / mid / late in each scenario's run;
//! 2. all four snapshot×resume backend combinations (the fused runner may
//!    land the cut at a trace exit, but the *resumed total* must still be
//!    bit-identical to the uninterrupted run under either backend);
//! 3. a serialisation round trip on every captured snapshot —
//!    `encode → decode → resume` must equal resuming the original;
//! 4. canonical capture: two independently compiled handles capture
//!    byte-identical snapshots at xorshift-random cuts, and the wire format
//!    is pinned by length and hash on one scenario.

use equeue_core::{Backend, CompiledModule, SimLibrary, SimOptions, SimReport, Snapshot};
use equeue_dialect::ConvDims;
use equeue_gen::scenarios::golden_scenarios;
use equeue_gen::{build_stage_program, Stage};
use equeue_ir::Module;
use equeue_passes::Dataflow;
use std::collections::BTreeMap;

fn options(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        backend,
        ..Default::default()
    }
}

/// Asserts every deterministic field of the two reports matches. Skips
/// `execution_time` (wall clock; a resumed run reports only its own
/// window) and `trace` (empty under `trace: false`).
fn assert_reports_identical(name: &str, full: &SimReport, resumed: &SimReport) {
    assert_eq!(full.cycles, resumed.cycles, "{name}: cycles");
    assert_eq!(
        full.events_processed, resumed.events_processed,
        "{name}: events"
    );
    assert_eq!(full.ops_interpreted, resumed.ops_interpreted, "{name}: ops");
    assert_eq!(full.buffers, resumed.buffers, "{name}: buffer contents");
    assert_eq!(full.memories, resumed.memories, "{name}: memory traffic");
    assert_eq!(
        full.connections, resumed.connections,
        "{name}: connection bandwidth"
    );
}

/// Early / mid / late cut points for a run of `cycles` total, deduped
/// (tiny scenarios may collapse some of them).
fn cut_points(cycles: u64) -> Vec<u64> {
    let mut cuts = vec![1, cycles / 2, cycles.saturating_sub(1).max(1)];
    cuts.dedup();
    cuts
}

/// The cut grid: every golden scenario, plus a Fig. 11 Affine-stage
/// program whose run is almost all fused `equeue.read`/`equeue.write`
/// traces, so its cuts land inside them. Kept out of the shared golden set,
/// which also fixes the analysis golden files.
fn cut_grid() -> Vec<(&'static str, Module)> {
    let mut grid: Vec<_> = golden_scenarios()
        .into_iter()
        .map(|s| (s.name, s.module))
        .collect();
    let dims = ConvDims::square(6, 3, 3, 4);
    grid.push((
        "fig11_affine_ws_6",
        build_stage_program(Stage::Affine, dims, (4, 4), Dataflow::Ws).module,
    ));
    grid
}

#[test]
fn replay_is_bit_identical_across_cuts_and_backends() {
    for (name, module) in cut_grid() {
        let compiled = CompiledModule::compile(module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        for cut in cut_points(full.cycles) {
            for snap_backend in [Backend::Fused, Backend::Interp] {
                let snap = compiled
                    .snapshot(&SimOptions {
                        snapshot_at: Some(cut),
                        ..options(snap_backend)
                    })
                    .unwrap_or_else(|e| panic!("{name}: snapshot at {cut}: {e}"));
                assert_eq!(snap.requested_cut(), cut, "{name}: requested cut");
                assert!(
                    snap.actual_cut() >= cut || snap.completed(),
                    "{name}: cut {cut} landed at {} without completing",
                    snap.actual_cut()
                );
                for resume_backend in [Backend::Fused, Backend::Interp] {
                    let tag = format!("{name} cut={cut} {snap_backend:?}->{resume_backend:?}");
                    let resumed = compiled
                        .resume(&snap, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume: {e}"));
                    assert_reports_identical(&tag, &full, &resumed);
                    // The wire format is transparent: resuming a
                    // decode(encode(snapshot)) copy is the same as
                    // resuming the original.
                    let decoded = Snapshot::decode(&snap.encode())
                        .unwrap_or_else(|e| panic!("{tag}: decode: {e}"));
                    let replayed = compiled
                        .resume(&decoded, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume decoded: {e}"));
                    assert_reports_identical(&format!("{tag} (decoded)"), &full, &replayed);
                }
            }
        }
    }
}

/// Both backends pause at the same cycle: a fused trace caps its
/// contention barrier at an armed cut, so it exits exactly where the
/// interpreter would stop, never past it.
#[test]
fn fused_and_interp_snapshots_land_on_the_same_cut() {
    for (name, module) in cut_grid() {
        let compiled = CompiledModule::compile(module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let mut cuts = cut_points(full.cycles);
        cuts.extend([full.cycles / 3, full.cycles / 7 + 1]);
        for cut in cuts {
            let [fused, interp] = [Backend::Fused, Backend::Interp].map(|backend| {
                compiled
                    .snapshot(&SimOptions {
                        snapshot_at: Some(cut),
                        ..options(backend)
                    })
                    .unwrap_or_else(|e| panic!("{name}: {backend:?} snapshot at {cut}: {e}"))
            });
            assert_eq!(
                (fused.actual_cut(), fused.completed()),
                (interp.actual_cut(), interp.completed()),
                "{name}: cut {cut} lands differently under Fused and Interp"
            );
        }
    }
}

/// A snapshot taken past the end of the run records completion and
/// resumes to the identical final report without re-executing anything.
#[test]
fn snapshot_past_completion_resumes_to_same_report() {
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let snap = compiled
            .snapshot(&SimOptions {
                snapshot_at: Some(full.cycles + 1),
                ..options(Backend::Fused)
            })
            .unwrap_or_else(|e| panic!("{name}: snapshot: {e}"));
        assert!(snap.completed(), "{name}: run should have completed");
        let resumed = compiled
            .resume(&snap, &options(Backend::Interp))
            .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
        assert_reports_identical(&format!("{name} (completed)"), &full, &resumed);
    }
}

/// Windowed waveforms: resuming with `trace: true` yields exactly the
/// slice of the full-run waveform from the cut cycle onward — BEE-style
/// "checkpoint far, then capture the window you care about".
#[test]
fn resumed_trace_is_the_waveform_slice_from_the_cut() {
    let traced = |backend| SimOptions {
        trace: true,
        backend,
        ..Default::default()
    };
    for (name, module) in cut_grid() {
        let compiled = CompiledModule::compile(module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&traced(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let cut = full.cycles / 2;
        // Snapshot leg untraced — the point of windowing is skipping the
        // waveform cost of the fast-forward.
        let snap = compiled
            .snapshot(&SimOptions {
                snapshot_at: Some(cut),
                ..options(Backend::Fused)
            })
            .unwrap_or_else(|e| panic!("{name}: snapshot: {e}"));
        let resumed = compiled
            .resume(&snap, &traced(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
        if name == "fig11_affine_ws_6" {
            // The traced window runs on fused traces: an interpreted
            // resume only carries the snapshot's own entry count.
            let interp = compiled
                .resume(&snap, &options(Backend::Interp))
                .unwrap_or_else(|e| panic!("{name}: interp resume: {e}"));
            assert!(
                resumed.fused_trace_entries > interp.fused_trace_entries,
                "{name}: the traced resume entered no fused trace"
            );
        }
        // Nothing before the cut is re-recorded…
        for e in resumed.trace.events() {
            assert!(
                e.ts >= snap.actual_cut(),
                "{name}: resumed event {}@{} precedes the cut {}",
                e.name,
                e.ts,
                snap.actual_cut()
            );
        }
        // …and per trace row (a processor or connection `tid`), the cut
        // splits the full run's event sequence at exactly one point: work
        // already executed or issued at capture time belongs to the
        // pre-cut leg, everything after replays in the resumed window. So
        // each row's resumed sequence must be a *suffix* of that row's
        // full-run sequence. (A row can be legitimately all-prefix — e.g.
        // a single analytic op issued before the cut.)
        fn by_tid(trace: &equeue_core::Trace) -> BTreeMap<&str, Vec<equeue_core::TraceEvent<'_>>> {
            let mut rows: BTreeMap<&str, Vec<_>> = BTreeMap::new();
            for e in trace.events() {
                rows.entry(e.tid).or_default().push(e);
            }
            rows
        }
        let full_rows = by_tid(&full.trace);
        for (tid, row) in by_tid(&resumed.trace) {
            let whole = full_rows
                .get(&tid)
                .unwrap_or_else(|| panic!("{name}: row {tid} absent from the full waveform"));
            assert!(
                row.len() <= whole.len() && row == whole[whole.len() - row.len()..],
                "{name}: row {tid}: resumed window is not a suffix of the full waveform \
                 ({} resumed vs {} full events)",
                row.len(),
                whole.len()
            );
        }
    }
}

/// xorshift64* — the workspace's std-only PRNG for property probes.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Property: capture is canonical. Two independently compiled handles of
/// every golden scenario (each with its own library, so their profile hash
/// maps iterate in different orders) capture byte-identical snapshots at
/// the same xorshift-random cuts, and the bytes survive `decode` unchanged.
#[test]
fn snapshot_roundtrip_is_byte_identical_at_random_cuts() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let compile = |module| {
        CompiledModule::compile(module, SimLibrary::standard()).expect("golden scenario compiles")
    };
    for (scenario, twin) in golden_scenarios().into_iter().zip(golden_scenarios()) {
        let name = scenario.name;
        let (a, b) = (compile(scenario.module), compile(twin.module));
        let full = a
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        for _ in 0..5 {
            let cut = rng.next() % full.cycles.max(1) + 1;
            let opts = SimOptions {
                snapshot_at: Some(cut),
                ..options(Backend::Fused)
            };
            let capture = |compiled: &CompiledModule| {
                compiled
                    .snapshot(&opts)
                    .unwrap_or_else(|e| panic!("{name}: snapshot at {cut}: {e}"))
                    .encode()
            };
            let bytes = capture(&a);
            assert!(
                capture(&b) == bytes,
                "{name}: encoding not canonical at cut {cut}"
            );
            let decoded =
                Snapshot::decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode at {cut}: {e}"));
            assert!(
                decoded.encode() == bytes,
                "{name}: decode changed the bytes at cut {cut}"
            );
        }
    }
}

/// FNV-1a 64 (the wire format's checksum), used as a content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the wire format: the encoded snapshot of `conv2d_systolic_8x3`
/// (SRAM, DRAM, Cache and Register memories) at `cycles / 2` keeps its
/// exact length and FNV-1a hash under both capture backends. A failure
/// here is a format change, which needs a `FORMAT_VERSION` bump.
#[test]
fn wire_format_is_pinned() {
    let scenario = golden_scenarios()
        .into_iter()
        .find(|s| s.name == "conv2d_systolic_8x3")
        .expect("conv2d_systolic_8x3 is a golden scenario");
    let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
        .expect("scenario compiles");
    let full = compiled
        .simulate(&options(Backend::Fused))
        .expect("full run");
    for (backend, len, sum) in [
        (Backend::Fused, 14_335, 0x20f9_f38f_16b0_1714),
        (Backend::Interp, 14_335, 0x4aef_43f4_28e6_8a79),
    ] {
        let bytes = compiled
            .snapshot(&SimOptions {
                snapshot_at: Some(full.cycles / 2),
                ..options(backend)
            })
            .expect("snapshot")
            .encode();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, sum), "{backend:?}");
    }
}
