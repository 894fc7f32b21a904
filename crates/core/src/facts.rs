//! Prepass facts — a read-only, analysis-friendly view of the layout
//! prepass.
//!
//! The same prepass that makes execution fast ([`crate::CompiledModule`])
//! also *knows* things about the module before any cycle runs: which ops
//! decoded, what every memory's timing model looks like, which `affine.for`
//! bodies compiled to fused traces and why the rest declined. This module
//! packages those facts into plain public data ([`PrepassFacts`]) so the
//! static-analysis crate (`equeue-analysis`) and its `simcheck` binary can
//! consume them without reaching into engine internals.
//!
//! The entry point, [`analyze_facts`], is **lenient**: it builds a fresh
//! plan and skips malformed ops instead of failing, so the analyzer can
//! diagnose fuzzer-malformed IR that [`crate::CompiledModule::compile`]
//! would reject.

use crate::engine::{OpCode, Plan};
use crate::fused::FuseDecline;
use crate::library::{MemSpec, SimLibrary};
use equeue_ir::{BlockId, Module, OpId};

/// Whether (and how) an `affine.for` body compiled to a fused trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseVerdict {
    /// Compiled to a straight-line trace of `insts` instructions. The
    /// runtime preflight can still decline on live machine state
    /// (non-integer tensors, cache-backed memories) — static analysis
    /// re-checks the statically-decidable parts of that separately.
    Fused {
        /// Trace length in instructions.
        insts: usize,
    },
    /// Trace formation declined, with the precise reason.
    Declined(FuseDecline),
    /// The loop never enters (`lower >= upper`); no trace was attempted.
    ZeroTrip,
}

/// One `affine.for` op: static bounds plus the fusion verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFact {
    /// The `affine.for` op.
    pub op: OpId,
    /// The body block.
    pub body: BlockId,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
    /// Step.
    pub step: i64,
    /// The fusion verdict.
    pub verdict: FuseVerdict,
}

impl LoopFact {
    /// Static trip count: `0` for never-entered loops, `None` when the
    /// step is non-positive (a runtime error if executed).
    pub fn trip_count(&self) -> Option<u64> {
        if self.lower >= self.upper {
            return Some(0);
        }
        if self.step <= 0 {
            return None;
        }
        let span = (self.upper - self.lower) as u64;
        let step = self.step as u64;
        Some(span.div_ceil(step))
    }
}

/// One `equeue.create_proc` (or `equeue.create_dma`) op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcFact {
    /// The defining op.
    pub op: OpId,
    /// Processor kind string (`"dma"` for `equeue.create_dma`).
    pub kind: String,
}

/// One `equeue.create_mem` op, with its resolved timing model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFact {
    /// The defining op.
    pub op: OpId,
    /// Memory kind string (`"SRAM"`, `"Cache"`, …).
    pub kind: String,
    /// The resolved [`crate::MemoryBehavior::model_name`].
    pub model: String,
    /// [`crate::MemoryBehavior::uniform_scalar_cycles`] of the resolved
    /// model: `Some` for stateless uniform-latency memories, `None` for
    /// state-dependent ones (caches) — the latter decline fused traces at
    /// run time.
    pub uniform_scalar_cycles: Option<u64>,
    /// Declared capacity in elements.
    pub capacity_elems: usize,
    /// Declared capacity in bytes (elements × element width).
    pub capacity_bytes: u64,
    /// Bank count.
    pub banks: u32,
    /// Concurrent access ports (explicit attribute or the library default).
    pub ports: usize,
}

/// Everything the layout prepass statically knows about a module, in op
/// order (deterministic across runs and thread counts — the prepass is a
/// pure function of the module and library).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrepassFacts {
    /// Processors and DMA engines.
    pub procs: Vec<ProcFact>,
    /// Memories, with resolved timing models.
    pub mems: Vec<MemFact>,
    /// `affine.for` loops with fusion verdicts.
    pub loops: Vec<LoopFact>,
}

/// Builds [`PrepassFacts`] by running the layout prepass **leniently**:
/// malformed ops are skipped instead of failing, so the analyzer can
/// produce typed diagnostics for IR that [`crate::CompiledModule::compile`]
/// rejects. Never panics.
pub fn analyze_facts(module: &Module, lib: &SimLibrary) -> PrepassFacts {
    let plan = Plan::build(module, lib);
    let mut facts = PrepassFacts::default();
    for op in module.live_ops() {
        let Some(info) = plan.ops.get(op.index()) else {
            continue;
        };
        match &info.code {
            OpCode::CreateProc { kind } => facts.procs.push(ProcFact {
                op,
                kind: kind.clone(),
            }),
            OpCode::CreateDma => facts.procs.push(ProcFact {
                op,
                kind: "dma".to_string(),
            }),
            OpCode::CreateMem {
                kind,
                shape,
                data_bits,
                banks,
                ports,
            } => {
                let capacity_elems = shape
                    .iter()
                    .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                    .unwrap_or(usize::MAX);
                let spec = MemSpec {
                    kind: kind.clone(),
                    capacity_elems,
                    data_bits: *data_bits,
                    banks: *banks,
                    attrs: module.op(op).attrs.clone(),
                };
                let behavior = lib.make_memory(&spec);
                let elem_bytes = u64::from(data_bits.div_ceil(8).max(1));
                facts.mems.push(MemFact {
                    op,
                    kind: kind.clone(),
                    model: behavior.model_name().to_string(),
                    uniform_scalar_cycles: behavior.uniform_scalar_cycles(),
                    capacity_elems,
                    capacity_bytes: (capacity_elems as u64).saturating_mul(elem_bytes),
                    banks: *banks,
                    ports: ports.unwrap_or(lib.default_mem_ports),
                });
            }
            OpCode::For {
                lower,
                upper,
                step,
                body,
                ..
            } => {
                let bi = body.index();
                let verdict = if lower >= upper {
                    FuseVerdict::ZeroTrip
                } else if let Some(f) = plan.fused.get(bi).and_then(|o| o.as_deref()) {
                    FuseVerdict::Fused {
                        insts: f.inst_count(),
                    }
                } else if let Some(d) = plan.fuse_declines.get(bi).and_then(|o| o.as_ref()) {
                    FuseVerdict::Declined(d.clone())
                } else {
                    // A body block outside the block table (malformed IR
                    // past the fuzzer's reach): treat as malformed.
                    FuseVerdict::Declined(FuseDecline::Malformed)
                };
                facts.loops.push(LoopFact {
                    op,
                    body: *body,
                    lower: *lower,
                    upper: *upper,
                    step: *step,
                    verdict,
                });
            }
            _ => {}
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};

    fn loop_module(n: i64) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[64], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, n, 1);
            {
                let mut kb = OpBuilder::at_end(ib.module_mut(), bi);
                let v = kb.affine_load(l.body_args[0], vec![i]);
                let w = kb.addi(v, v);
                kb.affine_store(w, l.body_args[0], vec![i]);
                kb.affine_yield();
            }
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        m
    }

    #[test]
    fn facts_report_fused_loop_and_components() {
        let facts = analyze_facts(&loop_module(8), &SimLibrary::standard());
        assert_eq!(facts.procs.len(), 1);
        assert_eq!(facts.mems.len(), 1);
        assert!(facts.mems[0].uniform_scalar_cycles.is_some());
        assert_eq!(facts.mems[0].capacity_elems, 64);
        assert_eq!(facts.loops.len(), 1);
        assert_eq!(facts.loops[0].trip_count(), Some(8));
        assert!(matches!(
            facts.loops[0].verdict,
            FuseVerdict::Fused { insts } if insts >= 4
        ));
    }

    #[test]
    fn zero_trip_loop_reports_zero_trip() {
        let facts = analyze_facts(&loop_module(0), &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 1);
        assert_eq!(facts.loops[0].verdict, FuseVerdict::ZeroTrip);
        assert_eq!(facts.loops[0].trip_count(), Some(0));
    }

    #[test]
    fn nested_loop_declines_with_multi_level_nest() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[8, 8], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, 8, 1);
            let mut ib2 = OpBuilder::at_end(ib.module_mut(), bi);
            let (_, bj, j) = ib2.affine_for(0, 8, 1);
            {
                let mut kb = OpBuilder::at_end(ib2.module_mut(), bj);
                let v = kb.affine_load(l.body_args[0], vec![i, j]);
                kb.affine_store(v, l.body_args[0], vec![i, j]);
                kb.affine_yield();
            }
            let mut ib2 = OpBuilder::at_end(&mut m, bi);
            ib2.affine_yield();
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);

        let facts = analyze_facts(&m, &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 2);
        // Outer loop contains the inner affine.for: multi-level nest.
        let outer = facts.loops.iter().find(|l| l.upper == 8).unwrap();
        assert!(facts.loops.iter().any(|l| matches!(
            l.verdict,
            FuseVerdict::Declined(FuseDecline::MultiLevelNest)
        )));
        // The inner body itself fuses.
        assert!(facts
            .loops
            .iter()
            .any(|l| matches!(l.verdict, FuseVerdict::Fused { .. })));
        let _ = outer;
    }
}
