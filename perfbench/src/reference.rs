//! Counters every program of `rerun_mix` and `debug_loop` must reproduce:
//! (simulated cycles, scheduler wakes, interpreted ops), recorded from the
//! untouched generated modules.

const PINNED: &[(&str, [u64; 3])] = &[
    // rerun_mix
    ("fig11_affine_ws_16", [127_008, 127_011, 211_029]),
    ("fig11_reassign_ws_16", [84_891, 84_677, 381_313]),
    ("matmul_affine64", [1_572_864, 1_572_867, 1_843_339]),
    ("fig12_ah8_hw16_f4_c4_n8_is", [5_344, 58_665, 79_340]),
    ("fir_pipelined16", [143, 9_986, 8_262]),
    ("mega_grid_16x16x16", [48, 12_546, 17_668]),
    // debug_loop: Fig. 11 stages at hw=8 on a 4x4 array. Linalg and Affine
    // do not depend on the dataflow.
    ("fig11_linalg_ws_8", [31_104, 4, 13]),
    ("fig11_linalg_is_8", [31_104, 4, 13]),
    ("fig11_linalg_os_8", [31_104, 4, 13]),
    ("fig11_affine_ws_8", [23_328, 23_331, 38_805]),
    ("fig11_affine_is_8", [23_328, 23_331, 38_805]),
    ("fig11_affine_os_8", [23_328, 23_331, 38_805]),
    ("fig11_reassign_ws_8", [15_627, 15_557, 70_273]),
    ("fig11_reassign_is_8", [15_627, 15_557, 72_001]),
    ("fig11_reassign_os_8", [15_627, 15_557, 70_299]),
    ("fig11_systolic_ws_8", [327, 646, 888]),
    ("fig11_systolic_is_8", [927, 5_806, 7_672]),
    ("fig11_systolic_os_8", [607, 691, 932]),
];

/// The pinned counters of `name`; all zero (so every check fails) for a
/// name that has none.
pub fn counters(name: &str) -> [u64; 3] {
    PINNED
        .iter()
        .find(|(n, _)| *n == name)
        .map_or([0; 3], |(_, c)| *c)
}
