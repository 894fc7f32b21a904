//! Fusibility reporter: for every `affine.for`, either "fuses" with the
//! trace length, or a precise decline reason.
//!
//! Two layers feed the verdict. The engine's trace builder already decided
//! structurally (via [`equeue_core::FuseVerdict`]): multi-level nests,
//! cross-iteration flow, unsupported body ops. On top of that, the fused
//! backend's *runtime* preflight declines on machine state — non-integer
//! tensors and cache-backed (non-uniform-latency) memories. Those two
//! conditions are statically decidable here by resolving each body
//! buffer's element type and allocation memory, so this pass folds them
//! into the static verdict: a loop reported `Fuses` really will execute
//! through the fused backend (the differential tests hold the pass to
//! that).

use equeue_core::FuseVerdict;
use equeue_ir::OpId;

use crate::{AnalysisCtx, AnalysisPass, AnalysisReport, BufferOrigin, Diagnostic, Severity};

/// Final static verdict for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseStatus {
    /// Compiles to a fused trace of `insts` instructions and passes the
    /// statically-decidable runtime preflight.
    Fuses {
        /// Trace length in instructions.
        insts: usize,
    },
    /// Never enters (`lower >= upper`).
    ZeroTrip,
    /// Does not fuse, with the reason.
    Declines {
        /// Human-readable decline reason.
        reason: String,
    },
}

/// One loop's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// The `affine.for` op.
    pub op: OpId,
    /// Op path of the loop.
    pub location: String,
    /// Static trip count (`None` = non-positive step, a runtime error).
    pub trip_count: Option<u64>,
    /// The verdict.
    pub status: FuseStatus,
}

/// All loops, in prepass (op) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusibilityReport {
    /// Per-loop verdicts.
    pub loops: Vec<LoopReport>,
}

impl FusibilityReport {
    /// Number of loops that fuse.
    pub fn fusible_count(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| matches!(l.status, FuseStatus::Fuses { .. }))
            .count()
    }
}

/// The fusibility pass.
pub struct FusibilityPass;

/// Statically re-checks the fused backend's runtime preflight for a loop
/// body: all accessed buffers must be integer tensors in
/// uniform-scalar-latency memories. Returns a decline reason, or `None`
/// if the loop survives.
fn static_preflight(ctx: &AnalysisCtx<'_>, body: equeue_ir::BlockId) -> Option<String> {
    if body.index() >= ctx.module.num_blocks() {
        return Some("structurally malformed body".to_string());
    }
    for &op in &ctx.module.block(body).ops {
        let Some(data) = ctx.op_checked(op) else {
            continue;
        };
        let buf = match data.name.as_str() {
            "affine.load" | "equeue.read" => data.operands.first().copied(),
            "affine.store" | "equeue.write" => data.operands.get(1).copied(),
            _ => None,
        };
        let Some(buf) = buf else { continue };
        if buf.index() >= ctx.module.num_values() {
            return Some("declines at runtime: buffer not resolvable".to_string());
        }
        let ty = ctx.module.value_type(buf);
        if let Some(elem) = ty.elem() {
            if !elem.is_integer() {
                return Some(format!("declines at runtime: non-integer tensor ({elem})"));
            }
        }
        match ctx.buffer_origin(buf) {
            BufferOrigin::Mem(m) => {
                if let Some(fact) = ctx.mem_fact(m) {
                    if fact.uniform_scalar_cycles.is_none() {
                        return Some(format!(
                            "declines at runtime: {} memory has state-dependent latency",
                            fact.model
                        ));
                    }
                } else {
                    return Some("declines at runtime: memory model not resolvable".to_string());
                }
            }
            BufferOrigin::Host(_) => {}
            BufferOrigin::Unknown => {
                return Some("declines at runtime: buffer origin not resolvable".to_string());
            }
        }
    }
    None
}

impl AnalysisPass for FusibilityPass {
    fn name(&self) -> &'static str {
        "fusibility"
    }

    fn run(&self, ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
        let mut report = FusibilityReport::default();
        for lf in &ctx.facts.loops {
            let status = match &lf.verdict {
                FuseVerdict::ZeroTrip => FuseStatus::ZeroTrip,
                FuseVerdict::Declined(d) => FuseStatus::Declines {
                    reason: d.to_string(),
                },
                FuseVerdict::Fused { insts } => match static_preflight(ctx, lf.body) {
                    Some(reason) => FuseStatus::Declines { reason },
                    None => FuseStatus::Fuses { insts: *insts },
                },
            };
            report.loops.push(LoopReport {
                op: lf.op,
                location: ctx.location(lf.op),
                trip_count: lf.trip_count(),
                status,
            });
        }

        for l in &report.loops {
            let (code, message) = match &l.status {
                FuseStatus::Fuses { insts } => (
                    "fuses",
                    format!(
                        "fuses: {insts}-instruction trace, trip count {}",
                        l.trip_count
                            .map_or("unknown".to_string(), |t| t.to_string())
                    ),
                ),
                FuseStatus::ZeroTrip => ("zero-trip", "loop never enters".to_string()),
                FuseStatus::Declines { reason } => ("no-fuse", reason.clone()),
            };
            out.diagnostics.push(Diagnostic {
                pass: self.name(),
                severity: Severity::Info,
                code,
                message,
                location: Some(l.location.clone()),
            });
        }
        out.diagnostics.push(Diagnostic {
            pass: self.name(),
            severity: Severity::Info,
            code: "fusibility-summary",
            message: format!(
                "{} of {} affine.for bodies fuse",
                report.fusible_count(),
                report.loops.len()
            ),
            location: None,
        });
        out.fusibility = report;
    }
}
