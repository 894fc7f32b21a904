//! The `arith` dialect: scalar integer/float arithmetic.
//!
//! These ops mirror MLIR's standard arithmetic dialect; the paper's EQueue
//! programs intermix them freely with hardware ops (e.g. the `addi` inside a
//! `launch` block in Fig. 2a).

use equeue_ir::{Module, OpBuilder, OpId, OpKind, Type, ValueId};

/// Comparison predicates for [`ArithBuilder::cmpi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpPred {
    /// The attribute spelling (`"eq"`, `"lt"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }

    /// Parses the attribute spelling back into a predicate.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => return None,
        })
    }
}

/// Fluent constructors for `arith` ops, as an extension of [`OpBuilder`].
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type};
/// use equeue_dialect::ArithBuilder;
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let x = b.const_int(2, Type::I32);
/// let y = b.const_int(3, Type::I32);
/// let s = b.addi(x, y);
/// assert_eq!(*b.module().value_type(s), Type::I32);
/// ```
pub trait ArithBuilder {
    /// `arith.constant` with an integer value of type `ty`.
    fn const_int(&mut self, value: i64, ty: Type) -> ValueId;
    /// `arith.constant` with an `index` value.
    fn const_index(&mut self, value: i64) -> ValueId;
    /// `arith.constant` with a float value of type `ty`.
    fn const_float(&mut self, value: f64, ty: Type) -> ValueId;
    /// Integer addition; result type follows `lhs`.
    fn addi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Integer subtraction.
    fn subi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Integer multiplication.
    fn muli(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Signed integer division.
    fn divi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Signed integer remainder.
    fn remi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Float addition.
    fn addf(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Float multiplication.
    fn mulf(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Integer comparison producing `i1`.
    fn cmpi(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId;
    /// Ternary select: `cond ? a : b`.
    fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId;
}

fn binary(b: &mut OpBuilder<'_>, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    // Element-wise broadcast: the result takes the shaped operand's type.
    let lt = b.module().value_type(lhs);
    let ty = if lt.is_shaped() || !b.module().value_type(rhs).is_shaped() {
        lt.clone()
    } else {
        b.module().value_type(rhs).clone()
    };
    b.op(name)
        .operand(lhs)
        .operand(rhs)
        .result(ty)
        .finish_value()
}

impl ArithBuilder for OpBuilder<'_> {
    fn const_int(&mut self, value: i64, ty: Type) -> ValueId {
        self.op(OpKind::ArithConstant)
            .attr("value", value)
            .result(ty)
            .finish_value()
    }

    fn const_index(&mut self, value: i64) -> ValueId {
        self.const_int(value, Type::Index)
    }

    fn const_float(&mut self, value: f64, ty: Type) -> ValueId {
        self.op(OpKind::ArithConstant)
            .attr("value", value)
            .result(ty)
            .finish_value()
    }

    fn addi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.addi", lhs, rhs)
    }

    fn subi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.subi", lhs, rhs)
    }

    fn muli(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.muli", lhs, rhs)
    }

    fn divi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.divi", lhs, rhs)
    }

    fn remi(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.remi", lhs, rhs)
    }

    fn addf(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.addf", lhs, rhs)
    }

    fn mulf(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        binary(self, "arith.mulf", lhs, rhs)
    }

    fn cmpi(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.op(OpKind::ArithCmpi)
            .attr("predicate", pred.as_str())
            .operand(lhs)
            .operand(rhs)
            .result(Type::I1)
            .finish_value()
    }

    fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.module().value_type(a).clone();
        self.op(OpKind::ArithSelect)
            .operand(cond)
            .operand(a)
            .operand(b)
            .result(ty)
            .finish_value()
    }
}

// ---- verifiers -----------------------------------------------------------

/// Verifies `arith.constant`: needs a `value` attribute and one result.
pub fn verify_constant(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if !data.attrs.contains("value") {
        return Err("arith.constant needs a 'value' attribute".into());
    }
    if data.results.len() != 1 {
        return Err("arith.constant must have exactly one result".into());
    }
    Ok(())
}

/// Verifies binary arith ops: two operands of equal type — or a
/// shaped/scalar pair whose element type matches (element-wise broadcast,
/// as in the paper's `ofmap = addi(ifmap, 4)`) — and one result matching
/// the wider operand.
pub fn verify_binary(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.len() != 2 {
        return Err(format!("'{}' needs exactly two operands", data.name));
    }
    let lt = m.value_type(data.operands[0]);
    let rt = m.value_type(data.operands[1]);
    let wider = match (lt.is_shaped(), rt.is_shaped()) {
        (false, false) | (true, true) => {
            if !lt.matches(rt) {
                return Err(format!(
                    "'{}' operand types differ: {lt} vs {rt}",
                    data.name
                ));
            }
            lt
        }
        (true, false) => {
            if !lt.elem().is_some_and(|e| e.matches(rt)) {
                return Err(format!(
                    "'{}' cannot broadcast {rt} over {lt} (element mismatch)",
                    data.name
                ));
            }
            lt
        }
        (false, true) => {
            if !rt.elem().is_some_and(|e| e.matches(lt)) {
                return Err(format!(
                    "'{}' cannot broadcast {lt} over {rt} (element mismatch)",
                    data.name
                ));
            }
            rt
        }
    };
    if data.results.len() != 1 {
        return Err(format!("'{}' must have exactly one result", data.name));
    }
    let res = m.value_type(data.results[0]);
    if !res.matches(wider) {
        return Err(format!(
            "'{}' result type {res} does not match operands {wider}",
            data.name
        ));
    }
    Ok(())
}

/// Verifies `arith.cmpi`: valid predicate, two operands, one `i1` result.
pub fn verify_cmpi(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    let pred = data
        .attrs
        .str("predicate")
        .ok_or("arith.cmpi needs a 'predicate' attribute")?;
    if CmpPred::from_str(pred).is_none() {
        return Err(format!("unknown cmpi predicate '{pred}'"));
    }
    if data.operands.len() != 2 {
        return Err("arith.cmpi needs exactly two operands".into());
    }
    if data.results.len() != 1 || *m.value_type(data.results[0]) != Type::I1 {
        return Err("arith.cmpi must return i1".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_ir::Module;

    #[test]
    fn builders_produce_expected_ops() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let x = b.const_int(1, Type::I32);
        let y = b.const_int(2, Type::I32);
        let s = b.addi(x, y);
        let p = b.muli(s, y);
        let c = b.cmpi(CmpPred::Lt, s, p);
        let _sel = b.select(c, s, p);
        assert_eq!(m.find_all("arith.constant").len(), 2);
        assert_eq!(m.find_all("arith.addi").len(), 1);
        assert_eq!(m.find_all("arith.muli").len(), 1);
        let cmpi = m.find_first("arith.cmpi").unwrap();
        assert_eq!(m.op(cmpi).attrs.str("predicate"), Some("lt"));
    }

    #[test]
    fn predicates_round_trip() {
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ] {
            assert_eq!(CmpPred::from_str(p.as_str()), Some(p));
        }
        assert_eq!(CmpPred::from_str("bogus"), None);
    }

    #[test]
    fn verify_constant_rules() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let good = {
            let v = b.const_int(3, Type::I32);
            match m.value(v).def {
                equeue_ir::ValueDef::OpResult { op, .. } => op,
                _ => unreachable!(),
            }
        };
        assert!(verify_constant(&m, good).is_ok());
        let bad = m.create_op(
            "arith.constant",
            vec![],
            vec![Type::I32],
            Default::default(),
            vec![],
        );
        m.append_op(m.top_block(), bad);
        assert!(verify_constant(&m, bad).unwrap_err().contains("value"));
    }

    #[test]
    fn verify_binary_rules() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let x = b.const_int(1, Type::I32);
        let y = b.const_int(2, Type::I64);
        // Manually construct a mismatched addi.
        let bad = m.create_op(
            "arith.addi",
            vec![x, y],
            vec![Type::I32],
            Default::default(),
            vec![],
        );
        m.append_op(m.top_block(), bad);
        assert!(verify_binary(&m, bad).unwrap_err().contains("differ"));
    }

    #[test]
    fn verify_cmpi_rules() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let x = b.const_int(1, Type::I32);
        let bad = m.create_op(
            "arith.cmpi",
            vec![x, x],
            vec![Type::I32],
            Default::default(),
            vec![],
        );
        m.append_op(m.top_block(), bad);
        assert!(verify_cmpi(&m, bad).is_err());
    }
}
