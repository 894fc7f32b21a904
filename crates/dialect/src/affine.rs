//! The `affine` dialect subset: explicit loop nests over memrefs.
//!
//! The paper's lowering pipeline (§VI-D) lowers Linalg convolutions into
//! affine loop nests (`affine.for`, `affine.parallel`) with explicit
//! `affine.load`/`affine.store`, which the `--equeue-read-write` pass then
//! rewrites into EQueue data movement. A small `memref.alloc` op provides
//! buffers at this level.

use equeue_ir::{BlockId, Module, OpBuilder, OpId, OpKind, Type, ValueId};

/// Fluent constructors for `affine` (and `memref`) ops.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type};
/// use equeue_dialect::{AffineBuilder, ArithBuilder};
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let buf = b.memref_alloc(Type::memref(vec![8], Type::I32));
/// let (for_op, body, iv) = b.affine_for(0, 8, 1);
/// let mut ib = OpBuilder::at_end(b.module_mut(), body);
/// let c = ib.const_int(7, Type::I32);
/// ib.affine_store(c, buf, vec![iv]);
/// ib.affine_yield();
/// assert_eq!(b.module().op(for_op).attrs.int("upper"), Some(8));
/// ```
pub trait AffineBuilder {
    /// `memref.alloc` producing a memref of type `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a `memref`.
    fn memref_alloc(&mut self, ty: Type) -> ValueId;

    /// `memref.dealloc` releasing `memref`.
    fn memref_dealloc(&mut self, memref: ValueId);

    /// `affine.for lower..upper step step`: returns the op, its body block,
    /// and the induction variable.
    fn affine_for(&mut self, lower: i64, upper: i64, step: i64) -> (OpId, BlockId, ValueId);

    /// `affine.parallel` over a multi-dimensional iteration space; returns
    /// the op, its body block, and the induction variables.
    fn affine_parallel(
        &mut self,
        lowers: Vec<i64>,
        uppers: Vec<i64>,
        steps: Vec<i64>,
    ) -> (OpId, BlockId, Vec<ValueId>);

    /// `affine.load memref[indices]`; result is the memref element type.
    fn affine_load(&mut self, memref: ValueId, indices: Vec<ValueId>) -> ValueId;

    /// `affine.store value, memref[indices]`.
    fn affine_store(&mut self, value: ValueId, memref: ValueId, indices: Vec<ValueId>);

    /// `affine.yield` terminating a loop body.
    fn affine_yield(&mut self);
}

impl AffineBuilder for OpBuilder<'_> {
    fn memref_alloc(&mut self, ty: Type) -> ValueId {
        assert!(
            matches!(ty, Type::MemRef { .. }),
            "memref.alloc needs a memref type"
        );
        self.op(OpKind::MemrefAlloc).result(ty).finish_value()
    }

    fn memref_dealloc(&mut self, memref: ValueId) {
        self.op(OpKind::MemrefDealloc).operand(memref).finish();
    }

    fn affine_for(&mut self, lower: i64, upper: i64, step: i64) -> (OpId, BlockId, ValueId) {
        let (region, body) = self.region_with_block(vec![Type::Index]);
        let iv = self.module().block(body).args[0];
        let op = self
            .op(OpKind::AffineFor)
            .attr("lower", lower)
            .attr("upper", upper)
            .attr("step", step)
            .region(region)
            .finish();
        (op, body, iv)
    }

    fn affine_parallel(
        &mut self,
        lowers: Vec<i64>,
        uppers: Vec<i64>,
        steps: Vec<i64>,
    ) -> (OpId, BlockId, Vec<ValueId>) {
        assert_eq!(lowers.len(), uppers.len());
        assert_eq!(lowers.len(), steps.len());
        let (region, body) = self.region_with_block(vec![Type::Index; lowers.len()]);
        let ivs = self.module().block(body).args.clone();
        let op = self
            .op(OpKind::AffineParallel)
            .attr("lowers", lowers)
            .attr("uppers", uppers)
            .attr("steps", steps)
            .region(region)
            .finish();
        (op, body, ivs)
    }

    fn affine_load(&mut self, memref: ValueId, indices: Vec<ValueId>) -> ValueId {
        let elem = match self.module().value_type(memref).elem() {
            Some(e) => e.clone(),
            None => panic!("affine.load needs a shaped operand"),
        };
        self.op(OpKind::AffineLoad)
            .operand(memref)
            .operands(indices)
            .result(elem)
            .finish_value()
    }

    fn affine_store(&mut self, value: ValueId, memref: ValueId, indices: Vec<ValueId>) {
        self.op(OpKind::AffineStore)
            .operand(value)
            .operand(memref)
            .operands(indices)
            .finish();
    }

    fn affine_yield(&mut self) {
        self.op(OpKind::AffineYield).finish();
    }
}

// ---- verifiers -----------------------------------------------------------

/// Verifies `affine.for`: bound attributes, a single region whose entry
/// block takes one `index` argument.
pub fn verify_for(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    for key in ["lower", "upper", "step"] {
        if data.attrs.int(key).is_none() {
            return Err(format!("affine.for needs integer attribute '{key}'"));
        }
    }
    if data.attrs.int("step") == Some(0) {
        return Err("affine.for step must be non-zero".into());
    }
    if data.regions.len() != 1 {
        return Err("affine.for needs exactly one region".into());
    }
    let entry = m.region(data.regions[0]).blocks[0];
    let args = &m.block(entry).args;
    if args.len() != 1 || *m.value_type(args[0]) != Type::Index {
        return Err("affine.for body must take a single index argument".into());
    }
    Ok(())
}

/// Verifies `affine.parallel`: equal-length bound arrays and matching
/// index block arguments.
pub fn verify_parallel(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    let lowers = data
        .attrs
        .int_array("lowers")
        .ok_or("affine.parallel needs 'lowers'")?;
    let uppers = data
        .attrs
        .int_array("uppers")
        .ok_or("affine.parallel needs 'uppers'")?;
    let steps = data
        .attrs
        .int_array("steps")
        .ok_or("affine.parallel needs 'steps'")?;
    if lowers.len() != uppers.len() || lowers.len() != steps.len() {
        return Err("affine.parallel bound arrays must have equal length".into());
    }
    if data.regions.len() != 1 {
        return Err("affine.parallel needs exactly one region".into());
    }
    let entry = m.region(data.regions[0]).blocks[0];
    let args = &m.block(entry).args;
    if args.len() != lowers.len() {
        return Err(format!(
            "affine.parallel body takes {} arguments but bounds describe {} dims",
            args.len(),
            lowers.len()
        ));
    }
    Ok(())
}

/// Verifies `affine.load`: a shaped first operand, index subscripts matching
/// its rank, and an element-typed result.
pub fn verify_load(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.is_empty() {
        return Err("affine.load needs a memref operand".into());
    }
    let mt = m.value_type(data.operands[0]);
    let shape = mt
        .shape()
        .ok_or_else(|| format!("affine.load operand is not shaped: {mt}"))?;
    let n_idx = data.operands.len() - 1;
    if n_idx != shape.len() {
        return Err(format!(
            "affine.load has {n_idx} subscripts for rank-{} memref",
            shape.len()
        ));
    }
    for &idx in &data.operands[1..] {
        if *m.value_type(idx) != Type::Index {
            return Err("affine.load subscripts must be index-typed".into());
        }
    }
    if data.results.len() != 1
        || !mt
            .elem()
            .is_some_and(|e| m.value_type(data.results[0]).matches(e))
    {
        return Err("affine.load result must match the element type".into());
    }
    Ok(())
}

/// Verifies `affine.store`: value, shaped target, and rank-matching
/// subscripts.
pub fn verify_store(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.len() < 2 {
        return Err("affine.store needs a value and a memref operand".into());
    }
    let mt = m.value_type(data.operands[1]);
    let shape = mt
        .shape()
        .ok_or_else(|| format!("affine.store target is not shaped: {mt}"))?;
    let n_idx = data.operands.len() - 2;
    if n_idx != shape.len() {
        return Err(format!(
            "affine.store has {n_idx} subscripts for rank-{} memref",
            shape.len()
        ));
    }
    if !mt
        .elem()
        .is_some_and(|e| m.value_type(data.operands[0]).matches(e))
    {
        return Err("affine.store value must match the element type".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::ArithBuilder;

    #[test]
    fn loop_construction() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let buf = b.memref_alloc(Type::memref(vec![4, 4], Type::I32));
        let (f, body, iv) = b.affine_for(0, 4, 1);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), body);
            let v = ib.affine_load(buf, vec![iv, iv]);
            ib.affine_store(v, buf, vec![iv, iv]);
            ib.affine_yield();
        }
        assert!(verify_for(&m, f).is_ok());
        let load = m.find_first("affine.load").unwrap();
        assert!(verify_load(&m, load).is_ok());
        let store = m.find_first("affine.store").unwrap();
        assert!(verify_store(&m, store).is_ok());
    }

    #[test]
    fn parallel_construction() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let (p, body, ivs) = b.affine_parallel(vec![0, 0], vec![4, 8], vec![1, 1]);
        assert_eq!(ivs.len(), 2);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), body);
            ib.affine_yield();
        }
        assert!(verify_parallel(&m, p).is_ok());
    }

    #[test]
    fn for_verifier_rejects_zero_step() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let (f, _, _) = b.affine_for(0, 4, 1);
        m.op_mut(f).attrs.set("step", 0i64);
        assert!(verify_for(&m, f).unwrap_err().contains("non-zero"));
    }

    #[test]
    fn load_verifier_rejects_rank_mismatch() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let buf = b.memref_alloc(Type::memref(vec![4, 4], Type::I32));
        let i = b.const_index(0);
        let bad = m.create_op(
            "affine.load",
            vec![buf, i],
            vec![Type::I32],
            Default::default(),
            vec![],
        );
        m.append_op(m.top_block(), bad);
        assert!(verify_load(&m, bad).unwrap_err().contains("subscripts"));
    }

    #[test]
    fn store_verifier_rejects_type_mismatch() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let buf = b.memref_alloc(Type::memref(vec![2], Type::I32));
        let i = b.const_index(0);
        let v = b.const_float(1.0, Type::F32);
        let bad = m.create_op(
            "affine.store",
            vec![v, buf, i],
            vec![],
            Default::default(),
            vec![],
        );
        m.append_op(m.top_block(), bad);
        assert!(verify_store(&m, bad).unwrap_err().contains("element type"));
    }

    #[test]
    #[should_panic(expected = "memref.alloc needs a memref type")]
    fn alloc_rejects_non_memref() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.memref_alloc(Type::I32);
    }
}
