//! Rewriting utilities shared by lowering passes: dead-code elimination,
//! region inlining, and op movement.

use crate::module::{BlockId, Module, OpId, RegionId, ValueId};
use crate::registry::DialectRegistry;
use std::collections::HashMap;

/// Erases live ops whose registered traits say `is_pure` and whose results
/// are all unused. Iterates to a fixed point; returns the number of erased
/// ops.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type, DialectRegistry, OpTraits, dce};
/// let mut reg = DialectRegistry::new();
/// reg.register_op("t.pure", OpTraits { is_pure: true, ..Default::default() }, None);
/// let mut m = Module::new();
/// let blk = m.top_block();
/// OpBuilder::at_end(&mut m, blk).op("t.pure").result(Type::I32).finish();
/// assert_eq!(dce(&mut m, &reg), 1);
/// ```
pub fn dce(module: &mut Module, registry: &DialectRegistry) -> usize {
    let mut erased_total = 0;
    loop {
        let uses = module.collect_uses();
        let mut to_erase = vec![];
        module.walk(|op| {
            let data = module.op(op);
            if !registry.traits(&data.name).is_pure {
                return;
            }
            let unused = data
                .results
                .iter()
                .all(|r| uses.get(r).map(|u| u.is_empty()).unwrap_or(true));
            if unused {
                to_erase.push(op);
            }
        });
        if to_erase.is_empty() {
            break;
        }
        erased_total += to_erase.len();
        for op in to_erase {
            if !module.op(op).erased {
                module.erase_op(op);
            }
        }
    }
    erased_total
}

/// Clones every op of `region`'s entry block (except an optional trailing
/// terminator named `skip_terminator`) into `block` starting at `index`,
/// remapping values through `value_map`. Returns the cloned op ids.
///
/// Entry-block arguments of `region` must already be mapped in `value_map`.
pub fn inline_region(
    module: &mut Module,
    region: RegionId,
    block: BlockId,
    index: usize,
    value_map: &mut HashMap<ValueId, ValueId>,
    skip_terminator: Option<&str>,
) -> Vec<OpId> {
    let entry = module.region(region).blocks[0];
    let ops: Vec<OpId> = module
        .block(entry)
        .ops
        .iter()
        .copied()
        .filter(|&o| !module.op(o).erased)
        .collect();
    let mut out = vec![];
    let mut at = index;
    for op in ops {
        if let Some(term) = skip_terminator {
            if module.op(op).name == term {
                continue;
            }
        }
        let cloned = module.clone_op(op, value_map);
        module.insert_op(block, at, cloned);
        at += 1;
        out.push(cloned);
    }
    out
}

/// Moves `op` (detaching it first) to immediately before `anchor`.
///
/// # Panics
///
/// Panics if `anchor` is detached.
pub fn move_before(module: &mut Module, op: OpId, anchor: OpId) {
    module.detach_op(op);
    let block = match module.op(anchor).parent_block {
        Some(b) => b,
        None => panic!("anchor must be attached"),
    };
    let index = match module.op_index_in_block(anchor) {
        Some(i) => i,
        None => panic!("anchor must be attached"),
    };
    module.insert_op(block, index, op);
}

/// Moves `op` (detaching it first) to immediately after `anchor`.
///
/// # Panics
///
/// Panics if `anchor` is detached.
pub fn move_after(module: &mut Module, op: OpId, anchor: OpId) {
    module.detach_op(op);
    let block = match module.op(anchor).parent_block {
        Some(b) => b,
        None => panic!("anchor must be attached"),
    };
    let index = match module.op_index_in_block(anchor) {
        Some(i) => i + 1,
        None => panic!("anchor must be attached"),
    };
    module.insert_op(block, index, op);
}

/// Splits `block` at op index `at`: ops `[at..]` move into a fresh block of
/// a fresh region (both returned). Used by the split-launch pass.
pub fn split_block(module: &mut Module, block: BlockId, at: usize) -> (RegionId, BlockId) {
    let region = module.new_region(None);
    let tail_block = module.new_block(region, vec![]);
    let tail_ops: Vec<OpId> = module.block(block).ops[at..].to_vec();
    for op in tail_ops {
        module.detach_op(op);
        module.append_op(tail_block, op);
    }
    (region, tail_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;
    use crate::builder::OpBuilder;
    use crate::registry::OpTraits;
    use crate::types::Type;

    fn pure_registry() -> DialectRegistry {
        let mut reg = DialectRegistry::new();
        reg.register_op(
            "t.pure",
            OpTraits {
                is_pure: true,
                ..Default::default()
            },
            None,
        );
        reg
    }

    #[test]
    fn dce_erases_chains() {
        let reg = pure_registry();
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let a = b.op("t.pure").result(Type::I32).finish_value();
        b.op("t.pure").operand(a).result(Type::I32).finish();
        // Both are pure; the second is unused, then the first becomes unused.
        assert_eq!(dce(&mut m, &reg), 2);
        assert_eq!(m.live_ops().count(), 0);
    }

    #[test]
    fn dce_keeps_used_and_impure() {
        let reg = pure_registry();
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let a = b.op("t.pure").result(Type::I32).finish_value();
        b.op("t.effect").operand(a).finish();
        assert_eq!(dce(&mut m, &reg), 0);
        assert_eq!(m.live_ops().count(), 2);
    }

    #[test]
    fn inline_region_clones_and_remaps() {
        let mut m = Module::new();
        let blk = m.top_block();
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![Type::I32]);
        let arg = m.block(ib).args[0];
        {
            let mut b = OpBuilder::at_end(&mut m, ib);
            b.op("t.body").operand(arg).finish();
            b.op("t.ret").finish();
        }
        let outer = m.create_op("t.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(blk, outer);
        let real = {
            let mut b = OpBuilder::at_end(&mut m, blk);
            b.op("t.real").result(Type::I32).finish_value()
        };
        let mut map = HashMap::new();
        map.insert(arg, real);
        let cloned = inline_region(&mut m, r, blk, 2, &mut map, Some("t.ret"));
        assert_eq!(cloned.len(), 1);
        assert_eq!(m.op(cloned[0]).name, "t.body");
        assert_eq!(m.op(cloned[0]).operands, vec![real]);
    }

    #[test]
    fn move_ops_around() {
        let mut m = Module::new();
        let blk = m.top_block();
        let (a, c2, b2) = {
            let mut b = OpBuilder::at_end(&mut m, blk);
            let a = b.op("t.a").finish();
            let c = b.op("t.c").finish();
            let b2 = b.op("t.b").finish();
            (a, c, b2)
        };
        move_before(&mut m, b2, c2);
        let names: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(names, vec!["t.a", "t.b", "t.c"]);
        move_after(&mut m, a, c2);
        let names: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(names, vec!["t.b", "t.c", "t.a"]);
    }

    #[test]
    fn split_block_moves_tail() {
        let mut m = Module::new();
        let blk = m.top_block();
        {
            let mut b = OpBuilder::at_end(&mut m, blk);
            b.op("t.a").finish();
            b.op("t.b").finish();
            b.op("t.c").finish();
        }
        let (_r, tail) = split_block(&mut m, blk, 1);
        let head: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        let tail_names: Vec<String> = m
            .block(tail)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(head, vec!["t.a"]);
        assert_eq!(tail_names, vec!["t.b", "t.c"]);
    }
}
