//! Interned operation names.
//!
//! Every [`Operation`](crate::Operation) carries its fully-qualified name.
//! Most names a program uses come from the small, fixed set of dialect ops
//! the repository defines, so [`OpName`] stores those as an [`OpKind`]: a
//! dense id into one sorted table of names. Any other name (parser input,
//! `test.*` ops, fuzzer output) is kept as a boxed string. Resolving a name
//! is a binary search of the table, done once when the op is built or
//! parsed; clients that dispatch on op kinds then match the id instead of
//! comparing strings. The table is a constant: there is no global interner,
//! no lock and nothing leaked.

use std::fmt;
use std::ops::Deref;

/// Declares [`OpKind`] and its name table from one sorted list.
macro_rules! known_ops {
    ($($kind:ident => $name:literal,)*) => {
        /// A dialect op the repository defines: a dense id into the sorted
        /// table of known op names ([`OpKind::ALL`]).
        ///
        /// The IR kernel attaches no meaning to these ids; they only make
        /// names cheap to store and compare. Dialect semantics stay with the
        /// dialect crates and the engine.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum OpKind {
            $(#[doc = concat!("`", $name, "`")] $kind,)*
        }

        impl OpKind {
            /// Every known kind, in name order.
            pub const ALL: &'static [OpKind] = &[$(OpKind::$kind,)*];

            /// The fully-qualified op name.
            pub fn name(self) -> &'static str {
                NAMES[self as usize]
            }
        }

        /// Known op names, sorted; indexed by `OpKind as usize`.
        const NAMES: &[&str] = &[$($name,)*];
    };
}

known_ops! {
    AffineFor => "affine.for",
    AffineLoad => "affine.load",
    AffineParallel => "affine.parallel",
    AffineStore => "affine.store",
    AffineYield => "affine.yield",
    ArithAddf => "arith.addf",
    ArithAddi => "arith.addi",
    ArithCmpi => "arith.cmpi",
    ArithConstant => "arith.constant",
    ArithDivi => "arith.divi",
    ArithMulf => "arith.mulf",
    ArithMuli => "arith.muli",
    ArithRemi => "arith.remi",
    ArithSelect => "arith.select",
    ArithSubi => "arith.subi",
    EqueueAddComp => "equeue.add_comp",
    EqueueAlloc => "equeue.alloc",
    EqueueAwait => "equeue.await",
    EqueueControlAnd => "equeue.control_and",
    EqueueControlOr => "equeue.control_or",
    EqueueControlStart => "equeue.control_start",
    EqueueCreateComp => "equeue.create_comp",
    EqueueCreateConnection => "equeue.create_connection",
    EqueueCreateDma => "equeue.create_dma",
    EqueueCreateMem => "equeue.create_mem",
    EqueueCreateProc => "equeue.create_proc",
    EqueueDealloc => "equeue.dealloc",
    EqueueGetComp => "equeue.get_comp",
    EqueueLaunch => "equeue.launch",
    EqueueMemcpy => "equeue.memcpy",
    EqueueOp => "equeue.op",
    EqueueRead => "equeue.read",
    EqueueReturn => "equeue.return",
    EqueueWrite => "equeue.write",
    LinalgConv2d => "linalg.conv2d",
    LinalgFill => "linalg.fill",
    LinalgMatmul => "linalg.matmul",
    MemrefAlloc => "memref.alloc",
    MemrefDealloc => "memref.dealloc",
}

impl OpKind {
    /// The kind named `name`, if it is a known dialect op.
    fn from_name(name: &str) -> Option<OpKind> {
        NAMES.binary_search(&name).ok().map(|i| OpKind::ALL[i])
    }
}

/// A fully-qualified operation name, `"<dialect>.<mnemonic>"`.
///
/// Known dialect ops are stored as their [`OpKind`]; any other name as a
/// boxed string. Every constructor resolves the name, so a known name is
/// never stored as a string and equality is exact. Derefs to `str`.
///
/// # Examples
///
/// ```
/// use equeue_ir::{OpKind, OpName};
/// let launch = OpName::from("equeue.launch");
/// assert_eq!(launch.kind(), Some(OpKind::EqueueLaunch));
/// assert_eq!(launch, "equeue.launch");
/// assert!(launch.starts_with("equeue."));
///
/// let custom = OpName::from("test.frob");
/// assert_eq!(custom.kind(), None);
/// assert_eq!(custom.to_string(), "test.frob");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct OpName(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Known(OpKind),
    Other(Box<str>),
}

impl OpName {
    /// The op kind, if this names a known dialect op.
    pub fn kind(&self) -> Option<OpKind> {
        match self.0 {
            Repr::Known(k) => Some(k),
            Repr::Other(_) => None,
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Known(k) => k.name(),
            Repr::Other(s) => s,
        }
    }
}

impl From<OpKind> for OpName {
    fn from(kind: OpKind) -> Self {
        OpName(Repr::Known(kind))
    }
}

impl From<&str> for OpName {
    fn from(name: &str) -> Self {
        match OpKind::from_name(name) {
            Some(k) => OpName(Repr::Known(k)),
            None => OpName(Repr::Other(name.into())),
        }
    }
}

impl From<String> for OpName {
    fn from(name: String) -> Self {
        match OpKind::from_name(&name) {
            Some(k) => OpName(Repr::Known(k)),
            None => OpName(Repr::Other(name.into_boxed_str())),
        }
    }
}

impl Deref for OpName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for OpName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for OpName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_table_is_sorted_and_duplicate_free() {
        assert!(NAMES.windows(2).all(|w| w[0] < w[1]), "{NAMES:?}");
        assert_eq!(NAMES.len(), OpKind::ALL.len());
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(OpKind::from_name(k.name()), Some(k));
        }
    }

    #[test]
    fn known_names_resolve_to_ids() {
        for &k in OpKind::ALL {
            let n = OpName::from(k.name());
            assert_eq!(n.kind(), Some(k));
            assert_eq!(n, OpName::from(k));
            assert_eq!(n, OpName::from(k.name().to_string()));
        }
    }

    #[test]
    fn unknown_names_are_kept_verbatim() {
        for name in ["test.v", "arith.bogus", "equeue.get_comp_vec", "nodot", ""] {
            let n = OpName::from(name);
            assert_eq!(n.kind(), None);
            assert_eq!(n, name);
            assert_eq!(n.as_str(), name);
            assert_eq!(format!("{n}"), name);
            assert_eq!(format!("{n:?}"), format!("{name:?}"));
        }
        assert_ne!(OpName::from("test.a"), OpName::from("test.b"));
        assert_ne!(OpName::from("equeue.op"), OpName::from("equeue.opx"));
    }

    #[test]
    fn unknown_name_round_trips_through_text() {
        let text =
            "%0 = \"frob.widget\"() {size = 3} : () -> i32\n\"equeue.await\"(%0) : (i32) -> ()\n";
        let m = crate::parse_module(text).unwrap();
        let ops = &m.block(m.top_block()).ops;
        assert_eq!(m.op(ops[0]).name.kind(), None);
        assert_eq!(m.op(ops[0]).name, "frob.widget");
        assert_eq!(m.op(ops[1]).name.kind(), Some(OpKind::EqueueAwait));
        assert_eq!(crate::print_module(&m), text);
    }
}
