//! Parsing of the textual IR form produced by [`crate::printer`].
//!
//! The parser accepts the generic-operation grammar:
//!
//! ```text
//! op        := (results '=')? string '(' operands? ')' regions? attrs? ':' functype
//! regions   := '(' region (',' region)* ')'
//! region    := '{' block* '}'
//! block     := ('^' ident ('(' %id ':' type (',' ...)* ')')? ':')? op*
//! attrs     := '{' key '=' value (',' ...)* '}'
//! functype  := '(' types? ')' '->' (type | '(' types? ')')
//! ```
//!
//! Printing a parsed module reproduces the input exactly (module-level
//! round-trip property tests live in `tests/`).

use crate::attr::{Attr, AttrMap};
use crate::error::{IrError, IrResult};
use crate::module::{BlockId, Module, RegionId, ValueId};
use crate::types::Type;
use std::collections::HashMap;

/// Parses the textual form of a module.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with line/column information when the input
/// does not conform to the grammar, references an undefined value, or states
/// operand types that disagree with the defining op.
///
/// # Examples
///
/// ```
/// use equeue_ir::parse_module;
/// let m = parse_module("%c = \"arith.constant\"() {value = 3} : () -> i32\n")?;
/// assert_eq!(m.find_all("arith.constant").len(), 1);
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub fn parse_module(text: &str) -> IrResult<Module> {
    let mut p = Parser::new(text);
    let mut module = Module::new();
    let top = module.top_block();
    let mut scope = Scope::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        p.parse_op(&mut module, top, &mut scope)?;
    }
    Ok(module)
}

/// Parses a type from its textual form, e.g. `"memref<4x4xf32>"`.
///
/// # Errors
///
/// Returns [`IrError::Parse`] for unknown type syntax.
///
/// # Examples
///
/// ```
/// use equeue_ir::{parse_type, Type};
/// assert_eq!(parse_type("!equeue.buffer<64xi32>")?, Type::buffer(vec![64], Type::I32));
/// assert_eq!(parse_type("index")?, Type::Index);
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub fn parse_type(text: &str) -> IrResult<Type> {
    let t = text.trim();
    let err = || IrError::Parse {
        line: 0,
        col: 0,
        msg: format!("unknown type '{t}'"),
    };
    let shaped = |prefix: &str, t: &str| -> Option<IrResult<(Vec<usize>, Type)>> {
        let rest = t.strip_prefix(prefix)?;
        let rest = rest.strip_prefix('<')?;
        let body = rest.strip_suffix('>')?;
        Some(parse_shape_body(body))
    };
    match t {
        "i1" => return Ok(Type::I1),
        "i8" => return Ok(Type::I8),
        "i16" => return Ok(Type::I16),
        "i32" => return Ok(Type::I32),
        "i64" => return Ok(Type::I64),
        "f32" => return Ok(Type::F32),
        "f64" => return Ok(Type::F64),
        "index" => return Ok(Type::Index),
        "none" => return Ok(Type::None),
        "!equeue.signal" => return Ok(Type::Signal),
        "!equeue.proc" => return Ok(Type::Proc),
        "!equeue.mem" => return Ok(Type::Mem),
        "!equeue.dma" => return Ok(Type::Dma),
        "!equeue.comp" => return Ok(Type::Comp),
        "!equeue.conn" => return Ok(Type::Conn),
        "!equeue.any" => return Ok(Type::Any),
        _ => {}
    }
    if let Some(r) = shaped("memref", t) {
        let (shape, elem) = r?;
        return Ok(Type::memref(shape, elem));
    }
    if let Some(r) = shaped("tensor", t) {
        let (shape, elem) = r?;
        return Ok(Type::tensor(shape, elem));
    }
    if let Some(r) = shaped("!equeue.buffer", t) {
        let (shape, elem) = r?;
        return Ok(Type::buffer(shape, elem));
    }
    Err(err())
}

/// Parses `4x4xf32`-style shaped-type bodies: leading `NNx` runs are dims,
/// the remainder is the element type.
fn parse_shape_body(body: &str) -> IrResult<(Vec<usize>, Type)> {
    let mut dims = vec![];
    let mut rest = body;
    loop {
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            break;
        }
        let after = &rest[digits.len()..];
        if let Some(tail) = after.strip_prefix('x') {
            dims.push(digits.parse::<usize>().map_err(|e| IrError::Parse {
                line: 0,
                col: 0,
                msg: format!("bad dimension '{digits}': {e}"),
            })?);
            rest = tail;
        } else {
            break;
        }
    }
    Ok((dims, parse_type(rest)?))
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Percent(String),
    Caret(String),
    Str(String),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Equal,
    Colon,
    Arrow,
    Eof,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Percent(s) => format!("value '%{s}'"),
            Token::Caret(s) => format!("block label '^{s}'"),
            Token::Str(s) => format!("string {s:?}"),
            Token::Int(v) => format!("integer {v}"),
            Token::Float(v) => format!("float {v}"),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::LBrace => "'{'".into(),
            Token::RBrace => "'}'".into(),
            Token::LBracket => "'['".into(),
            Token::RBracket => "']'".into(),
            Token::Comma => "','".into(),
            Token::Equal => "'='".into(),
            Token::Colon => "':'".into(),
            Token::Arrow => "'->'".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// Lexical scopes for SSA names; a new scope is pushed per region.
struct Scope {
    stack: Vec<HashMap<String, ValueId>>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            stack: vec![HashMap::new()],
        }
    }
    fn push(&mut self) {
        self.stack.push(HashMap::new());
    }
    fn pop(&mut self) {
        // The root scope always survives so `define` has somewhere to write.
        if self.stack.len() > 1 {
            self.stack.pop();
        }
    }
    fn define(&mut self, name: &str, v: ValueId) {
        if let Some(top) = self.stack.last_mut() {
            top.insert(name.to_string(), v);
        }
    }
    fn lookup(&self, name: &str) -> Option<ValueId> {
        self.stack.iter().rev().find_map(|s| s.get(name).copied())
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            src: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> IrError {
        IrError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek_char(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek_char()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_char() {
            if c.is_ascii_whitespace() {
                self.bump();
            } else if c == b'/' && self.src.get(self.pos + 1) == Some(&b'/') {
                while let Some(c) = self.peek_char() {
                    if c == b'\n' {
                        break;
                    }
                    self.bump();
                }
            } else {
                break;
            }
        }
    }

    fn save(&self) -> (usize, usize, usize) {
        (self.pos, self.line, self.col)
    }

    fn restore(&mut self, s: (usize, usize, usize)) {
        self.pos = s.0;
        self.line = s.1;
        self.col = s.2;
    }

    fn next_token(&mut self) -> IrResult<Token> {
        self.skip_ws();
        let c = match self.peek_char() {
            None => return Ok(Token::Eof),
            Some(c) => c,
        };
        match c {
            b'(' => {
                self.bump();
                Ok(Token::LParen)
            }
            b')' => {
                self.bump();
                Ok(Token::RParen)
            }
            b'{' => {
                self.bump();
                Ok(Token::LBrace)
            }
            b'}' => {
                self.bump();
                Ok(Token::RBrace)
            }
            b'[' => {
                self.bump();
                Ok(Token::LBracket)
            }
            b']' => {
                self.bump();
                Ok(Token::RBracket)
            }
            b',' => {
                self.bump();
                Ok(Token::Comma)
            }
            b'=' => {
                self.bump();
                Ok(Token::Equal)
            }
            b':' => {
                self.bump();
                Ok(Token::Colon)
            }
            b'-' => {
                self.bump();
                match self.peek_char() {
                    Some(b'>') => {
                        self.bump();
                        Ok(Token::Arrow)
                    }
                    Some(d) if d.is_ascii_digit() => self.lex_number(true),
                    _ => Err(self.err("expected '->' or a number after '-'")),
                }
            }
            b'"' => self.lex_string(),
            b'%' => {
                self.bump();
                Ok(Token::Percent(self.lex_suffix_ident()?))
            }
            b'^' => {
                self.bump();
                Ok(Token::Caret(self.lex_suffix_ident()?))
            }
            d if d.is_ascii_digit() => self.lex_number(false),
            a if a.is_ascii_alphabetic() || a == b'_' || a == b'!' => {
                let mut s = String::new();
                while let Some(c) = self.peek_char() {
                    if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'!') {
                        self.bump();
                        s.push(c as char);
                    } else {
                        break;
                    }
                }
                Ok(Token::Ident(s))
            }
            other => Err(self.err(format!("unexpected character '{}'", other as char))),
        }
    }

    fn lex_suffix_ident(&mut self) -> IrResult<String> {
        let mut s = String::new();
        while let Some(c) = self.peek_char() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
                s.push(c as char);
            } else {
                break;
            }
        }
        if s.is_empty() {
            return Err(self.err("expected an identifier"));
        }
        Ok(s)
    }

    fn lex_number(&mut self, negative: bool) -> IrResult<Token> {
        let mut s = String::new();
        if negative {
            s.push('-');
        }
        while let Some(c) = self.peek_char() {
            if c.is_ascii_digit() {
                self.bump();
                s.push(c as char);
            } else {
                break;
            }
        }
        let mut is_float = false;
        if self.peek_char() == Some(b'.') {
            is_float = true;
            self.bump();
            s.push('.');
            while let Some(c) = self.peek_char() {
                if c.is_ascii_digit() {
                    self.bump();
                    s.push(c as char);
                } else {
                    break;
                }
            }
        }
        if is_float {
            s.parse::<f64>()
                .map(Token::Float)
                .map_err(|e| self.err(format!("bad float: {e}")))
        } else {
            s.parse::<i64>()
                .map(Token::Int)
                .map_err(|e| self.err(format!("bad integer: {e}")))
        }
    }

    fn lex_string(&mut self) -> IrResult<Token> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    other => {
                        return Err(
                            self.err(format!("bad escape '\\{:?}'", other.map(|c| c as char)))
                        )
                    }
                },
                Some(c) => s.push(c as char),
            }
        }
        Ok(Token::Str(s))
    }

    /// Consumes raw text forming a type: stops at a depth-0 delimiter.
    fn lex_type_text(&mut self) -> IrResult<String> {
        self.skip_ws();
        let mut depth = 0usize;
        let mut s = String::new();
        while let Some(c) = self.peek_char() {
            match c {
                b'<' => depth += 1,
                b'>' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                b',' | b')' | b'}' | b']' | b'\n' if depth == 0 => break,
                _ => {}
            }
            self.bump();
            s.push(c as char);
        }
        if s.trim().is_empty() {
            return Err(self.err("expected a type"));
        }
        Ok(s.trim().to_string())
    }

    fn expect(&mut self, want: Token) -> IrResult<()> {
        let got = self.next_token()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                want.describe(),
                got.describe()
            )))
        }
    }

    fn parse_op(&mut self, module: &mut Module, block: BlockId, scope: &mut Scope) -> IrResult<()> {
        // Optional result list.
        let mut result_names: Vec<String> = vec![];
        let save = self.save();
        match self.next_token()? {
            Token::Percent(first) => {
                result_names.push(first);
                loop {
                    let save2 = self.save();
                    match self.next_token()? {
                        Token::Comma => match self.next_token()? {
                            Token::Percent(n) => result_names.push(n),
                            t => {
                                return Err(self
                                    .err(format!("expected value name, found {}", t.describe())))
                            }
                        },
                        Token::Equal => break,
                        t => {
                            let _ = save2;
                            return Err(
                                self.err(format!("expected ',' or '=', found {}", t.describe()))
                            );
                        }
                    }
                }
            }
            Token::Str(_) => self.restore(save),
            t => return Err(self.err(format!("expected an operation, found {}", t.describe()))),
        }

        // Op name.
        let name = match self.next_token()? {
            Token::Str(s) => s,
            t => return Err(self.err(format!("expected quoted op name, found {}", t.describe()))),
        };

        // Operands.
        self.expect(Token::LParen)?;
        let mut operands: Vec<ValueId> = vec![];
        loop {
            let save2 = self.save();
            match self.next_token()? {
                Token::RParen => break,
                Token::Percent(n) => {
                    let v = scope
                        .lookup(&n)
                        .ok_or_else(|| self.err(format!("use of undefined value '%{n}'")))?;
                    operands.push(v);
                }
                Token::Comma => {
                    let _ = save2;
                }
                t => return Err(self.err(format!("expected operand, found {}", t.describe()))),
            }
        }

        // Optional region group.
        let mut regions: Vec<RegionId> = vec![];
        let save2 = self.save();
        if self.next_token()? == Token::LParen {
            loop {
                self.expect(Token::LBrace)?;
                let region = self.parse_region_body(module, scope)?;
                regions.push(region);
                match self.next_token()? {
                    Token::Comma => continue,
                    Token::RParen => break,
                    t => {
                        return Err(self.err(format!("expected ',' or ')', found {}", t.describe())))
                    }
                }
            }
        } else {
            self.restore(save2);
        }

        // Optional attribute dictionary.
        let mut attrs = AttrMap::new();
        let save3 = self.save();
        if self.next_token()? == Token::LBrace {
            loop {
                let key = match self.next_token()? {
                    Token::RBrace => break,
                    Token::Ident(k) => k,
                    Token::Str(k) => k,
                    t => {
                        return Err(
                            self.err(format!("expected attribute name, found {}", t.describe()))
                        )
                    }
                };
                self.expect(Token::Equal)?;
                let value = self.parse_attr_value()?;
                attrs.set(&key, value);
                match self.next_token()? {
                    Token::Comma => continue,
                    Token::RBrace => break,
                    t => {
                        return Err(
                            self.err(format!("expected ',' or '}}', found {}", t.describe()))
                        )
                    }
                }
            }
        } else {
            self.restore(save3);
        }

        // Functional type.
        self.expect(Token::Colon)?;
        self.expect(Token::LParen)?;
        let mut operand_types: Vec<Type> = vec![];
        loop {
            let save4 = self.save();
            match self.next_token()? {
                Token::RParen => break,
                Token::Comma => continue,
                _ => {
                    self.restore(save4);
                    let t = self.lex_type_text()?;
                    operand_types.push(parse_type(&t)?);
                }
            }
        }
        self.expect(Token::Arrow)?;
        let mut result_types: Vec<Type> = vec![];
        let save5 = self.save();
        if self.next_token()? == Token::LParen {
            loop {
                let save6 = self.save();
                match self.next_token()? {
                    Token::RParen => break,
                    Token::Comma => continue,
                    _ => {
                        self.restore(save6);
                        let t = self.lex_type_text()?;
                        result_types.push(parse_type(&t)?);
                    }
                }
            }
        } else {
            self.restore(save5);
            let t = self.lex_type_text()?;
            result_types.push(parse_type(&t)?);
        }

        // Validate operand types against definitions.
        if operand_types.len() != operands.len() {
            return Err(self.err(format!(
                "op '{name}' lists {} operand types but has {} operands",
                operand_types.len(),
                operands.len()
            )));
        }
        for (i, (v, ty)) in operands.iter().zip(&operand_types).enumerate() {
            let actual = module.value_type(*v);
            if !actual.matches(ty) {
                return Err(self.err(format!(
                    "operand {i} of '{name}' has type {actual} but signature says {ty}"
                )));
            }
        }
        if result_names.len() != result_types.len()
            && !(result_names.is_empty() && result_types.is_empty())
        {
            return Err(self.err(format!(
                "op '{name}' binds {} results but signature lists {}",
                result_names.len(),
                result_types.len()
            )));
        }

        let op = module.create_op(name, operands, result_types, attrs, regions);
        module.append_op(block, op);
        for (i, rname) in result_names.iter().enumerate() {
            let v = module.result(op, i);
            scope.define(rname, v);
            if rname.parse::<usize>().is_err() {
                module.set_value_name(v, rname);
            }
        }
        Ok(())
    }

    fn parse_region_body(&mut self, module: &mut Module, scope: &mut Scope) -> IrResult<RegionId> {
        // The '{' is already consumed.
        let region = module.new_region(None);
        scope.push();
        let mut first = true;
        loop {
            let save = self.save();
            match self.next_token()? {
                Token::RBrace => {
                    if first {
                        module.new_block(region, vec![]);
                    }
                    break;
                }
                Token::Caret(_) => {
                    // Block header with optional args.
                    let mut arg_names = vec![];
                    let mut arg_types = vec![];
                    let save2 = self.save();
                    if self.next_token()? == Token::LParen {
                        loop {
                            match self.next_token()? {
                                Token::RParen => break,
                                Token::Comma => continue,
                                Token::Percent(n) => {
                                    self.expect(Token::Colon)?;
                                    let t = self.lex_type_text()?;
                                    arg_names.push(n);
                                    arg_types.push(parse_type(&t)?);
                                }
                                t => {
                                    return Err(self.err(format!(
                                        "expected block argument, found {}",
                                        t.describe()
                                    )))
                                }
                            }
                        }
                    } else {
                        self.restore(save2);
                    }
                    self.expect(Token::Colon)?;
                    let b = module.new_block(region, arg_types);
                    for (i, n) in arg_names.iter().enumerate() {
                        let v = module.block(b).args[i];
                        scope.define(n, v);
                        if n.parse::<usize>().is_err() {
                            module.set_value_name(v, n);
                        }
                    }
                    self.parse_block_ops(module, b, scope)?;
                    first = false;
                }
                _ => {
                    // Header-less entry block.
                    self.restore(save);
                    let b = module.new_block(region, vec![]);
                    self.parse_block_ops(module, b, scope)?;
                    first = false;
                }
            }
        }
        scope.pop();
        Ok(region)
    }

    /// Parses ops until the next '}' or '^' (left unconsumed).
    fn parse_block_ops(
        &mut self,
        module: &mut Module,
        block: BlockId,
        scope: &mut Scope,
    ) -> IrResult<()> {
        loop {
            let save = self.save();
            match self.next_token()? {
                Token::RBrace | Token::Caret(_) => {
                    self.restore(save);
                    return Ok(());
                }
                Token::Eof => return Err(self.err("unterminated region")),
                _ => {
                    self.restore(save);
                    self.parse_op(module, block, scope)?;
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> IrResult<Attr> {
        self.skip_ws();
        match self.peek_char() {
            Some(b'"') => {
                if let Token::Str(s) = self.next_token()? {
                    Ok(Attr::Str(s))
                } else {
                    unreachable!()
                }
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => match self.next_token()? {
                Token::Int(v) => Ok(Attr::Int(v)),
                Token::Float(v) => Ok(Attr::Float(v)),
                t => Err(self.err(format!("expected number, found {}", t.describe()))),
            },
            Some(b'[') => {
                self.next_token()?; // consume '['
                let mut items = vec![];
                loop {
                    self.skip_ws();
                    if self.peek_char() == Some(b']') {
                        self.next_token()?;
                        break;
                    }
                    items.push(self.parse_attr_value()?);
                    let save = self.save();
                    match self.next_token()? {
                        Token::Comma => continue,
                        Token::RBracket => break,
                        t => {
                            let _ = save;
                            return Err(
                                self.err(format!("expected ',' or ']', found {}", t.describe()))
                            );
                        }
                    }
                }
                // Homogeneous lists collapse to the compact array attrs; a
                // mixed (or empty) list stays generic.
                if !items.is_empty() {
                    if let Some(ints) = items.iter().map(Attr::as_int).collect::<Option<Vec<_>>>() {
                        return Ok(Attr::IntArray(ints));
                    }
                    if let Some(strs) = items
                        .iter()
                        .map(|a| a.as_str().map(str::to_string))
                        .collect::<Option<Vec<_>>>()
                    {
                        return Ok(Attr::StrArray(strs));
                    }
                }
                Ok(Attr::Array(items))
            }
            _ => {
                let save = self.save();
                if let Ok(Token::Ident(word)) = self.next_token() {
                    match word.as_str() {
                        "true" => return Ok(Attr::Bool(true)),
                        "false" => return Ok(Attr::Bool(false)),
                        "unit" => return Ok(Attr::Unit),
                        _ => {}
                    }
                }
                self.restore(save);
                let t = self.lex_type_text()?;
                Ok(Attr::Ty(parse_type(&t)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    fn round_trip(text: &str) {
        let m = parse_module(text).expect("parse");
        assert_eq!(print_module(&m), text);
    }

    #[test]
    fn parse_types() {
        assert_eq!(parse_type("i32").unwrap(), Type::I32);
        assert_eq!(parse_type(" f64 ").unwrap(), Type::F64);
        assert_eq!(
            parse_type("memref<4x4xf32>").unwrap(),
            Type::memref(vec![4, 4], Type::F32)
        );
        assert_eq!(
            parse_type("tensor<8xindex>").unwrap(),
            Type::tensor(vec![8], Type::Index)
        );
        assert_eq!(
            parse_type("tensor<i64>").unwrap(),
            Type::tensor(vec![], Type::I64)
        );
        assert_eq!(
            parse_type("!equeue.buffer<64xi32>").unwrap(),
            Type::buffer(vec![64], Type::I32)
        );
        assert_eq!(parse_type("!equeue.signal").unwrap(), Type::Signal);
        assert!(parse_type("wat").is_err());
        assert!(parse_type("memref<axbxc>").is_err());
    }

    #[test]
    fn simple_round_trip() {
        round_trip("%0 = \"arith.constant\"() {value = 4} : () -> i32\n");
    }

    #[test]
    fn operands_and_uses() {
        let text = "%a = \"test.src\"() : () -> i32\n\"test.sink\"(%a, %a) : (i32, i32) -> ()\n";
        round_trip(text);
        let m = parse_module(text).unwrap();
        let sink = m.find_first("test.sink").unwrap();
        assert_eq!(m.op(sink).operands.len(), 2);
        assert_eq!(m.op(sink).operands[0], m.op(sink).operands[1]);
    }

    #[test]
    fn multi_result() {
        round_trip("%0, %1 = \"test.src\"() : () -> (i32, i32)\n\"test.sink\"(%0, %1) : (i32, i32) -> ()\n");
    }

    #[test]
    fn attrs_of_all_kinds() {
        let text = "\"test.attrs\"() {a = [1, 2], b = true, c = \"s\", d = 2.5, e = unit, f = i32, g = [\"x\", \"y\"]} : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.find_first("test.attrs").unwrap();
        let attrs = &m.op(op).attrs;
        assert_eq!(attrs.int_array("a"), Some(&[1, 2][..]));
        assert_eq!(attrs.get("b"), Some(&Attr::Bool(true)));
        assert_eq!(attrs.str("c"), Some("s"));
        assert_eq!(attrs.float("d"), Some(2.5));
        assert_eq!(attrs.get("e"), Some(&Attr::Unit));
        assert_eq!(attrs.get("f"), Some(&Attr::Ty(Type::I32)));
        assert_eq!(
            attrs.get("g"),
            Some(&Attr::StrArray(vec!["x".into(), "y".into()]))
        );
        round_trip(text);
    }

    #[test]
    fn regions_and_block_args() {
        let text = "%done = \"equeue.launch\"(%done_0) ({\n\
                    ^bb0(%arg: !equeue.signal):\n\
                    \x20\x20\"equeue.return\"() : () -> ()\n\
                    }) : (!equeue.signal) -> !equeue.signal\n";
        // %done_0 is undefined; build a defining op first.
        let full = format!("%done_0 = \"equeue.control_start\"() : () -> !equeue.signal\n{text}");
        let m = parse_module(&full).unwrap();
        let launch = m.find_first("equeue.launch").unwrap();
        assert_eq!(m.op(launch).regions.len(), 1);
        let inner = m.region_ops(m.op(launch).regions[0]);
        assert_eq!(m.op(inner[0]).name, "equeue.return");
        assert_eq!(print_module(&m), full);
    }

    #[test]
    fn outer_values_visible_in_regions() {
        let text = "\
%c = \"arith.constant\"() {value = 1} : () -> i32
\"test.wrap\"() ({
  \"test.use\"(%c) : (i32) -> ()
}) : () -> ()
";
        round_trip(text);
    }

    #[test]
    fn undefined_value_is_error() {
        let e = parse_module("\"test.sink\"(%nope) : (i32) -> ()\n").unwrap_err();
        assert!(e.to_string().contains("undefined value"));
    }

    #[test]
    fn type_mismatch_is_error() {
        let text = "%a = \"test.src\"() : () -> i32\n\"test.sink\"(%a) : (f32) -> ()\n";
        let e = parse_module(text).unwrap_err();
        assert!(e
            .to_string()
            .contains("has type i32 but signature says f32"));
    }

    #[test]
    fn comments_are_skipped() {
        let text = "// a comment\n%0 = \"arith.constant\"() {value = 4} : () -> i32\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.find_all("arith.constant").len(), 1);
    }

    #[test]
    fn error_position_reported() {
        let e = parse_module("\n\n  ???").unwrap_err();
        match e {
            IrError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_region_gets_empty_block() {
        let text = "\"test.wrap\"() ({\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.find_first("test.wrap").unwrap();
        let r = m.op(op).regions[0];
        assert_eq!(m.region(r).blocks.len(), 1);
        round_trip(text);
    }
}
