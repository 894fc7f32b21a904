//! The `linalg` dialect subset: named tensor/buffer computations.
//!
//! Linalg is the highest abstraction level in the paper's Fig. 1 pipeline: a
//! whole convolution is one op, simulated analytically. The
//! `--convert-linalg-to-affine-loops` pass (in `equeue-passes`) lowers these
//! into explicit affine loop nests.
//!
//! Shapes follow the paper's §VI notation:
//!
//! * ifmap: `memref<C x H x W x ty>`
//! * weights: `memref<N x C x Fh x Fw x ty>`
//! * ofmap: `memref<N x Eh x Ew x ty>` with `Eh = H - Fh + 1`, `Ew = W - Fw + 1`

use equeue_ir::{Module, OpBuilder, OpId, OpKind, ValueId};

/// Convolution problem dimensions, named as in the paper (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvDims {
    /// Input feature-map height.
    pub h: usize,
    /// Input feature-map width.
    pub w: usize,
    /// Filter height.
    pub fh: usize,
    /// Filter width.
    pub fw: usize,
    /// Input channels.
    pub c: usize,
    /// Number of filters (output channels).
    pub n: usize,
}

impl ConvDims {
    /// A square problem: `H = W = hw`, `Fh = Fw = f`.
    pub fn square(hw: usize, f: usize, c: usize, n: usize) -> Self {
        ConvDims {
            h: hw,
            w: hw,
            fh: f,
            fw: f,
            c,
            n,
        }
    }

    /// Output feature-map height `Eh = H − Fh + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the filter is taller than the input.
    pub fn eh(&self) -> usize {
        assert!(self.fh <= self.h, "filter taller than input");
        self.h - self.fh + 1
    }

    /// Output feature-map width `Ew = W − Fw + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the filter is wider than the input.
    pub fn ew(&self) -> usize {
        assert!(self.fw <= self.w, "filter wider than input");
        self.w - self.fw + 1
    }

    /// Total multiply-accumulate count: `Eh·Ew·N·Fh·Fw·C`.
    pub fn macs(&self) -> usize {
        self.eh() * self.ew() * self.n * self.fh * self.fw * self.c
    }

    /// Number of ifmap elements, `C·H·W`.
    pub fn ifmap_elems(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of weight elements, `N·C·Fh·Fw`.
    pub fn weight_elems(&self) -> usize {
        self.n * self.c * self.fh * self.fw
    }

    /// Number of ofmap elements, `N·Eh·Ew`.
    pub fn ofmap_elems(&self) -> usize {
        self.n * self.eh() * self.ew()
    }
}

/// Fluent constructors for `linalg` ops.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type};
/// use equeue_dialect::{AffineBuilder, LinalgBuilder, ConvDims};
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let d = ConvDims::square(8, 3, 3, 4);
/// let i = b.memref_alloc(Type::memref(vec![d.c, d.h, d.w], Type::I32));
/// let w = b.memref_alloc(Type::memref(vec![d.n, d.c, d.fh, d.fw], Type::I32));
/// let o = b.memref_alloc(Type::memref(vec![d.n, d.eh(), d.ew()], Type::I32));
/// b.linalg_conv2d(i, w, o);
/// ```
pub trait LinalgBuilder {
    /// `linalg.conv2d`: 2-D convolution over explicit buffers
    /// (ifmap, weights, ofmap).
    fn linalg_conv2d(&mut self, ifmap: ValueId, weights: ValueId, ofmap: ValueId) -> OpId;

    /// `linalg.matmul`: `C += A × B` over buffers.
    fn linalg_matmul(&mut self, a: ValueId, b: ValueId, c: ValueId) -> OpId;

    /// `linalg.fill`: broadcast `scalar` into `buffer`.
    fn linalg_fill(&mut self, scalar: ValueId, buffer: ValueId) -> OpId;
}

impl LinalgBuilder for OpBuilder<'_> {
    fn linalg_conv2d(&mut self, ifmap: ValueId, weights: ValueId, ofmap: ValueId) -> OpId {
        self.op(OpKind::LinalgConv2d)
            .operands(vec![ifmap, weights, ofmap])
            .finish()
    }

    fn linalg_matmul(&mut self, a: ValueId, b: ValueId, c: ValueId) -> OpId {
        self.op(OpKind::LinalgMatmul)
            .operands(vec![a, b, c])
            .finish()
    }

    fn linalg_fill(&mut self, scalar: ValueId, buffer: ValueId) -> OpId {
        self.op(OpKind::LinalgFill)
            .operands(vec![scalar, buffer])
            .finish()
    }
}

/// Extracts [`ConvDims`] from a `linalg.conv2d` op's operand shapes.
///
/// # Errors
///
/// Returns a description of the first malformed operand.
pub fn conv2d_dims(m: &Module, op: OpId) -> Result<ConvDims, String> {
    let data = m.op(op);
    if data.operands.len() != 3 {
        return Err("linalg.conv2d needs (ifmap, weights, ofmap)".into());
    }
    let ishape = m
        .value_type(data.operands[0])
        .shape()
        .ok_or("conv2d ifmap must be shaped")?
        .to_vec();
    let wshape = m
        .value_type(data.operands[1])
        .shape()
        .ok_or("conv2d weights must be shaped")?
        .to_vec();
    let oshape = m
        .value_type(data.operands[2])
        .shape()
        .ok_or("conv2d ofmap must be shaped")?
        .to_vec();
    if ishape.len() != 3 {
        return Err(format!(
            "conv2d ifmap must be rank 3 (CxHxW), got rank {}",
            ishape.len()
        ));
    }
    if wshape.len() != 4 {
        return Err(format!(
            "conv2d weights must be rank 4 (NxCxFhxFw), got rank {}",
            wshape.len()
        ));
    }
    if oshape.len() != 3 {
        return Err(format!(
            "conv2d ofmap must be rank 3 (NxEhxEw), got rank {}",
            oshape.len()
        ));
    }
    let dims = ConvDims {
        c: ishape[0],
        h: ishape[1],
        w: ishape[2],
        n: wshape[0],
        fh: wshape[2],
        fw: wshape[3],
    };
    if wshape[1] != dims.c {
        return Err(format!(
            "conv2d channel mismatch: ifmap C={} weights C={}",
            dims.c, wshape[1]
        ));
    }
    if oshape != vec![dims.n, dims.eh(), dims.ew()] {
        return Err(format!(
            "conv2d ofmap shape {:?} does not match expected [{}, {}, {}]",
            oshape,
            dims.n,
            dims.eh(),
            dims.ew()
        ));
    }
    Ok(dims)
}

/// Verifies `linalg.conv2d` by attempting dimension extraction.
pub fn verify_conv2d(m: &Module, op: OpId) -> Result<(), String> {
    conv2d_dims(m, op).map(|_| ())
}

/// Verifies `linalg.matmul` operand shapes `(MxK, KxN, MxN)`.
pub fn verify_matmul(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.len() != 3 {
        return Err("linalg.matmul needs (A, B, C)".into());
    }
    let get = |i: usize| -> Result<Vec<usize>, String> {
        m.value_type(data.operands[i])
            .shape()
            .map(|s| s.to_vec())
            .ok_or_else(|| format!("matmul operand {i} must be shaped"))
    };
    let (a, b, c) = (get(0)?, get(1)?, get(2)?);
    if a.len() != 2 || b.len() != 2 || c.len() != 2 {
        return Err("matmul operands must be rank 2".into());
    }
    if a[1] != b[0] || c[0] != a[0] || c[1] != b[1] {
        return Err(format!("matmul shape mismatch: {a:?} × {b:?} -> {c:?}"));
    }
    Ok(())
}

/// Verifies `linalg.fill`: a scalar and a shaped target.
pub fn verify_fill(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.len() != 2 {
        return Err("linalg.fill needs (scalar, buffer)".into());
    }
    let st = m.value_type(data.operands[0]);
    let bt = m.value_type(data.operands[1]);
    if st.is_shaped() {
        return Err("linalg.fill scalar operand must not be shaped".into());
    }
    if !bt.is_shaped() {
        return Err("linalg.fill target must be shaped".into());
    }
    let Some(be) = bt.elem() else {
        return Err("linalg.fill target must be shaped".into());
    };
    if !st.matches(be) {
        return Err(format!(
            "linalg.fill scalar {st} does not match element {be}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineBuilder;
    use crate::arith::ArithBuilder;
    use equeue_ir::Type;

    fn conv_setup(d: ConvDims) -> (Module, OpId) {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let i = b.memref_alloc(Type::memref(vec![d.c, d.h, d.w], Type::I32));
        let w = b.memref_alloc(Type::memref(vec![d.n, d.c, d.fh, d.fw], Type::I32));
        let o = b.memref_alloc(Type::memref(vec![d.n, d.eh(), d.ew()], Type::I32));
        let op = b.linalg_conv2d(i, w, o);
        (m, op)
    }

    #[test]
    fn dims_arithmetic() {
        let d = ConvDims::square(8, 3, 3, 4);
        assert_eq!(d.eh(), 6);
        assert_eq!(d.ew(), 6);
        assert_eq!(d.macs(), 6 * 6 * 4 * 3 * 3 * 3);
        assert_eq!(d.ifmap_elems(), 3 * 8 * 8);
        assert_eq!(d.weight_elems(), 4 * 3 * 3 * 3);
        assert_eq!(d.ofmap_elems(), 4 * 6 * 6);
    }

    #[test]
    fn conv_dims_extraction() {
        let d = ConvDims::square(8, 3, 3, 4);
        let (m, op) = conv_setup(d);
        assert_eq!(conv2d_dims(&m, op).unwrap(), d);
        assert!(verify_conv2d(&m, op).is_ok());
    }

    #[test]
    fn conv_rejects_bad_ofmap() {
        let d = ConvDims::square(8, 3, 3, 4);
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let i = b.memref_alloc(Type::memref(vec![d.c, d.h, d.w], Type::I32));
        let w = b.memref_alloc(Type::memref(vec![d.n, d.c, d.fh, d.fw], Type::I32));
        let o = b.memref_alloc(Type::memref(vec![d.n, 5, 5], Type::I32));
        let op = b.linalg_conv2d(i, w, o);
        assert!(verify_conv2d(&m, op).unwrap_err().contains("ofmap shape"));
    }

    #[test]
    fn matmul_verification() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let a = b.memref_alloc(Type::memref(vec![2, 3], Type::F32));
        let bb = b.memref_alloc(Type::memref(vec![3, 4], Type::F32));
        let c = b.memref_alloc(Type::memref(vec![2, 4], Type::F32));
        let good = b.linalg_matmul(a, bb, c);
        assert!(verify_matmul(&m, good).is_ok());

        let mut b = OpBuilder::at_end(&mut m, blk);
        let bad = b.linalg_matmul(a, c, bb);
        assert!(verify_matmul(&m, bad).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn fill_verification() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let zero = b.const_int(0, Type::I32);
        let buf = b.memref_alloc(Type::memref(vec![4], Type::I32));
        let good = b.linalg_fill(zero, buf);
        assert!(verify_fill(&m, good).is_ok());

        let mut b = OpBuilder::at_end(&mut m, blk);
        let f = b.const_float(0.0, Type::F32);
        let bad = b.linalg_fill(f, buf);
        assert!(verify_fill(&m, bad).unwrap_err().contains("does not match"));
    }
}
