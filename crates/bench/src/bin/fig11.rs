//! Regenerates Fig. 11: execution time, simulated cycles, and SRAM/register
//! bandwidth along the four lowering stages (Linalg, Affine, Reassign,
//! Systolic) for H=W ∈ {4, 8, 16, 32}, Fh=Fw=3, C=3, N=4 on a 4×4 array.
//!
//! Exits 1 and lists the failing sizes on stderr when any of the paper's
//! §VI-D shape checks does not hold.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue_bench::fig11_rows;

fn main() {
    println!("Fig. 11 — metrics along the lowering pipeline (4x4 array, F=3, C=3, N=4)");
    let sizes = [4usize, 8, 16, 32];
    let rows = fig11_rows(&sizes);
    println!(
        "{:>4} {:>9} {:>3} | {:>11} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "H/W", "stage", "df", "exec time", "cycles", "SRAM rd", "SRAM wr", "Reg rd", "Reg wr"
    );
    println!("{}", "-".repeat(92));
    for r in &rows {
        println!(
            "{:>4} {:>9} {:>3} | {:>9.1?} {:>10} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
            r.hw,
            r.stage.as_str(),
            r.dataflow.as_str(),
            r.execution_time,
            r.cycles,
            r.sram_read_bw,
            r.sram_write_bw,
            r.reg_read_bw,
            r.reg_write_bw,
        );
    }

    // The headline shapes the paper calls out.
    println!("\nshape checks (paper §VI-D):");
    let mut failures = Vec::new();
    for &hw in &sizes {
        let of = |stage| {
            let found = rows
                .iter()
                .find(|r| r.hw == hw && r.stage.as_str() == stage && r.dataflow.as_str() == "WS");
            match found {
                Some(r) => r,
                None => unreachable!("the sweep above produced every (size, stage) row"),
            }
        };
        let (l, a, re, s) = (of("Linalg"), of("Affine"), of("Reassign"), of("Systolic"));
        let falling = l.cycles > a.cycles && a.cycles > re.cycles && re.cycles > s.cycles;
        let grow_then_fall = a.sram_read_bw > l.sram_read_bw && re.sram_read_bw < a.sram_read_bw;
        let reg_at_reassign = re.reg_read_bw > 0.0 && a.reg_read_bw == 0.0;
        println!(
            "  H/W={hw:>2}: cycles {} > {} > {} > {} (falling {}), \
             SRAM rd BW {:.2} -> {:.2} -> {:.2} (grow then fall {}), reg BW appears at Reassign: {}",
            l.cycles,
            a.cycles,
            re.cycles,
            s.cycles,
            falling,
            l.sram_read_bw,
            a.sram_read_bw,
            re.sram_read_bw,
            grow_then_fall,
            reg_at_reassign,
        );
        for (ok, what) in [
            (falling, "cycles do not fall stage by stage"),
            (grow_then_fall, "SRAM read BW does not grow then fall"),
            (
                reg_at_reassign,
                "register BW does not first appear at Reassign",
            ),
        ] {
            if !ok {
                failures.push(format!("H/W={hw}: {what}"));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("fig11: {} shape checks fail:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
