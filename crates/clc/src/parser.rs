//! Recursive-descent parser for the OpenCL C subset.

use crate::ast::*;
use crate::diag::{ClcError, Span, Stage};
use crate::lexer::{Token, TokenKind};
use crate::types::{AddressSpace, ScalarType};

/// Parses a token stream into a [`Unit`].
///
/// # Errors
///
/// Returns a [`ClcError`] pointing at the offending token on any syntax
/// error.
pub fn parse<'s>(tokens: &[Token<'s>], source: &'s str) -> Result<Unit<'s>, ClcError> {
    let mut p = Parser {
        tokens,
        source,
        pos: 0,
    };
    let mut kernels = Vec::new();
    while !p.at_end() {
        kernels.push(p.kernel_decl()?);
    }
    Ok(Unit { kernels })
}

struct Parser<'t, 's> {
    tokens: &'t [Token<'s>],
    source: &'s str,
    pos: usize,
}

impl<'t, 's> Parser<'t, 's> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&'t Token<'s>> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&'t Token<'s>> {
        self.tokens.get(self.pos + 1)
    }

    fn advance(&mut self) -> Option<&'t Token<'s>> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .unwrap_or_else(|| Span::new(self.source.len(), self.source.len()))
    }

    fn error(&self, msg: impl Into<String>) -> ClcError {
        ClcError::at(Stage::Parse, self.here(), self.source, msg)
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Punct(q), .. }) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.is_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Span, ClcError> {
        if self.is_punct(p) {
            let span = self.here();
            self.pos += 1;
            Ok(span)
        } else {
            Err(self.error(format!("expected `{p}`")))
        }
    }

    fn is_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Ident(s), .. }) if *s == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.is_ident(name) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_any_ident(&mut self) -> Result<(&'s str, Span), ClcError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                span,
            }) => {
                let out = (*s, *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    /// Peeks whether the current identifier begins a type (for statement
    /// vs. declaration disambiguation).
    fn peek_is_type_start(&self) -> bool {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => matches!(
                *s,
                "void"
                    | "int"
                    | "uint"
                    | "unsigned"
                    | "long"
                    | "ulong"
                    | "float"
                    | "double"
                    | "bool"
                    | "size_t"
                    | "const"
                    | "__local"
                    | "local"
                    | "__private"
                    | "private"
                    | "char"
                    | "uchar"
                    | "short"
                    | "ushort"
            ),
            _ => false,
        }
    }

    /// Parses a scalar type name. `char`/`short` map onto `int` widths we
    /// support (the benchmarks do not use sub-word element buffers).
    fn scalar_type(&mut self) -> Result<ScalarType, ClcError> {
        let (name, _) = self.expect_any_ident()?;
        let ty = match name {
            "int" | "char" | "short" => ScalarType::I32,
            "uint" | "uchar" | "ushort" => ScalarType::U32,
            "long" => ScalarType::I64,
            "ulong" | "size_t" => ScalarType::U64,
            "float" => ScalarType::F32,
            "double" => ScalarType::F64,
            "bool" => ScalarType::Bool,
            "unsigned" => {
                // `unsigned`, `unsigned int`, `unsigned long`.
                if self.eat_ident("long") {
                    ScalarType::U64
                } else {
                    self.eat_ident("int");
                    ScalarType::U32
                }
            }
            other => return Err(self.error(format!("unknown type `{other}`"))),
        };
        // Allow `long long` → still I64, `long int` → I64.
        if matches!(ty, ScalarType::I64) {
            let _ = self.eat_ident("long") || self.eat_ident("int");
        }
        Ok(ty)
    }

    fn kernel_decl(&mut self) -> Result<KernelDecl<'s>, ClcError> {
        if !(self.eat_ident("__kernel") || self.eat_ident("kernel")) {
            return Err(self.error("expected `__kernel`"));
        }
        // Optional attributes like `__attribute__((...))` are not supported;
        // the return type must be void.
        if !self.eat_ident("void") {
            return Err(self.error("kernel return type must be `void`"));
        }
        let (name, span) = self.expect_any_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.is_punct(")") {
            loop {
                params.push(self.param()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(KernelDecl {
            name,
            params,
            body,
            span,
        })
    }

    fn param(&mut self) -> Result<Param<'s>, ClcError> {
        let mut space = AddressSpace::Private;
        let mut saw_space = false;
        loop {
            if self.eat_ident("__global") || self.eat_ident("global") {
                space = AddressSpace::Global;
                saw_space = true;
            } else if self.eat_ident("__local") || self.eat_ident("local") {
                space = AddressSpace::Local;
                saw_space = true;
            } else if self.eat_ident("__constant") || self.eat_ident("constant") {
                space = AddressSpace::Constant;
                saw_space = true;
            } else if self.eat_ident("__private") || self.eat_ident("private") {
                space = AddressSpace::Private;
                saw_space = true;
            } else if self.eat_ident("const")
                || self.eat_ident("restrict")
                || self.eat_ident("__restrict")
            {
                // Qualifiers that do not change our semantics.
            } else {
                break;
            }
        }
        let scalar = self.scalar_type()?;
        // Skip `const` between type and `*` as well.
        while self.eat_ident("const") || self.eat_ident("restrict") || self.eat_ident("__restrict")
        {
        }
        let is_pointer = self.eat_punct("*");
        while self.eat_ident("const") || self.eat_ident("restrict") || self.eat_ident("__restrict")
        {
        }
        let (name, span) = self.expect_any_ident()?;
        let ty = if is_pointer {
            ParamType::Pointer(space, scalar)
        } else {
            if saw_space && space != AddressSpace::Private {
                return Err(self.error("address-space qualifier requires a pointer parameter"));
            }
            ParamType::Scalar(scalar)
        };
        Ok(Param { name, ty, span })
    }

    fn block(&mut self) -> Result<Block<'s>, ClcError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.is_punct("}") {
            if self.at_end() {
                return Err(self.error("expected `}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct("}")?;
        Ok(Block { stmts })
    }

    /// Parses a statement-or-block as a block (for `if (c) x = 1;`).
    fn block_or_stmt(&mut self) -> Result<Block<'s>, ClcError> {
        if self.is_punct("{") {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(Block { stmts: vec![s] })
        }
    }

    fn stmt(&mut self) -> Result<Stmt<'s>, ClcError> {
        let span = self.here();
        if self.is_punct("{") {
            return Ok(Stmt::Block(self.block()?));
        }
        if self.eat_ident("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = self.block_or_stmt()?;
            let otherwise = if self.eat_ident("else") {
                Some(self.block_or_stmt()?)
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then,
                otherwise,
            });
        }
        if self.eat_ident("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_ident("do") {
            let body = self.block_or_stmt()?;
            if !self.eat_ident("while") {
                return Err(self.error("expected `while` after `do` body"));
            }
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::DoWhile { body, cond });
        }
        if self.eat_ident("for") {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else {
                let s = if self.peek_is_type_start() {
                    Stmt::Decl(self.decl_after_qualifiers()?)
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Stmt::Expr(e)
                };
                Some(Box::new(s))
            };
            let cond = if self.is_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let step = if self.is_punct(")") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.eat_ident("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break(span));
        }
        if self.eat_ident("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(span));
        }
        if self.eat_ident("return") {
            if !self.eat_punct(";") {
                return Err(self.error("kernels return void; expected `;` after `return`"));
            }
            return Ok(Stmt::Return(span));
        }
        if self.is_ident("barrier")
            && matches!(
                self.peek2(),
                Some(Token {
                    kind: TokenKind::Punct("("),
                    ..
                })
            )
        {
            self.pos += 1;
            self.expect_punct("(")?;
            // Fence flags (e.g. CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE)
            // are accepted and ignored: the VM's barrier is a full fence.
            let mut depth = 1usize;
            while depth > 0 {
                match self.advance() {
                    Some(Token {
                        kind: TokenKind::Punct("("),
                        ..
                    }) => depth += 1,
                    Some(Token {
                        kind: TokenKind::Punct(")"),
                        ..
                    }) => depth -= 1,
                    Some(_) => {}
                    None => return Err(self.error("unterminated `barrier(`")),
                }
            }
            self.expect_punct(";")?;
            return Ok(Stmt::Barrier(span));
        }
        if self.peek_is_type_start() {
            return Ok(Stmt::Decl(self.decl_after_qualifiers()?));
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr(e))
    }

    /// Parses `[qualifiers] type name [\[N\]...] [= init] ;`.
    fn decl_after_qualifiers(&mut self) -> Result<DeclStmt<'s>, ClcError> {
        let mut space = AddressSpace::Private;
        loop {
            if self.eat_ident("__local") || self.eat_ident("local") {
                space = AddressSpace::Local;
            } else if self.eat_ident("__private") || self.eat_ident("private") {
                space = AddressSpace::Private;
            } else if self.eat_ident("const") {
                // No-op for our semantics.
            } else {
                break;
            }
        }
        let ty = self.scalar_type()?;
        let (name, span) = self.expect_any_ident()?;
        let mut array_dims = Vec::new();
        while self.eat_punct("[") {
            let dim = match self.advance() {
                Some(Token {
                    kind: TokenKind::IntLit { value, .. },
                    ..
                }) => *value,
                _ => {
                    return Err(self.error("array dimension must be an integer literal"));
                }
            };
            self.expect_punct("]")?;
            array_dims.push(dim);
        }
        let init = if self.eat_punct("=") {
            if !array_dims.is_empty() {
                return Err(self.error("array initializers are not supported"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        if !array_dims.is_empty() && space == AddressSpace::Private {
            return Err(ClcError::at(
                Stage::Parse,
                span,
                self.source,
                "array variables must be `__local` in this subset",
            ));
        }
        Ok(DeclStmt {
            name,
            ty,
            space,
            array_dims,
            init,
            span,
        })
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr<'s>, ClcError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr<'s>, ClcError> {
        let lhs = self.ternary()?;
        let compound = |p: &str| -> Option<BinOp> {
            Some(match p {
                "+=" => BinOp::Add,
                "-=" => BinOp::Sub,
                "*=" => BinOp::Mul,
                "/=" => BinOp::Div,
                "%=" => BinOp::Rem,
                "&=" => BinOp::BitAnd,
                "|=" => BinOp::BitOr,
                "^=" => BinOp::BitXor,
                "<<=" => BinOp::Shl,
                ">>=" => BinOp::Shr,
                _ => return None,
            })
        };
        if let Some(Token {
            kind: TokenKind::Punct(p),
            span,
        }) = self.peek()
        {
            if *p == "=" {
                let span = *span;
                self.pos += 1;
                let value = self.assignment()?;
                return Ok(Expr::Assign {
                    op: None,
                    target: Box::new(lhs),
                    value: Box::new(value),
                    span,
                });
            }
            if let Some(op) = compound(p) {
                let span = *span;
                self.pos += 1;
                let value = self.assignment()?;
                return Ok(Expr::Assign {
                    op: Some(op),
                    target: Box::new(lhs),
                    value: Box::new(value),
                    span,
                });
            }
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> Result<Expr<'s>, ClcError> {
        let cond = self.binary(0)?;
        if self.is_punct("?") {
            let span = self.here();
            self.pos += 1;
            let then = self.expr()?;
            self.expect_punct(":")?;
            let otherwise = self.ternary()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
                span,
            });
        }
        Ok(cond)
    }

    /// The binary operator (and its precedence) at the cursor, if any.
    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let Some(Token {
            kind: TokenKind::Punct(p),
            ..
        }) = self.peek()
        else {
            return None;
        };
        match *p {
            "||" => Some((BinOp::LogOr, 1)),
            "&&" => Some((BinOp::LogAnd, 2)),
            "|" => Some((BinOp::BitOr, 3)),
            "^" => Some((BinOp::BitXor, 4)),
            "&" => Some((BinOp::BitAnd, 5)),
            "==" => Some((BinOp::Eq, 6)),
            "!=" => Some((BinOp::Ne, 6)),
            "<" => Some((BinOp::Lt, 7)),
            "<=" => Some((BinOp::Le, 7)),
            ">" => Some((BinOp::Gt, 7)),
            ">=" => Some((BinOp::Ge, 7)),
            "<<" => Some((BinOp::Shl, 8)),
            ">>" => Some((BinOp::Shr, 8)),
            "+" => Some((BinOp::Add, 9)),
            "-" => Some((BinOp::Sub, 9)),
            "*" => Some((BinOp::Mul, 10)),
            "/" => Some((BinOp::Div, 10)),
            "%" => Some((BinOp::Rem, 10)),
            _ => None,
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr<'s>, ClcError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            let span = self.here();
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<'s>, ClcError> {
        let span = self.here();
        if self.eat_punct("-") {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                operand: Box::new(operand),
                span,
            });
        }
        if self.eat_punct("+") {
            return self.unary();
        }
        if self.eat_punct("!") {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                operand: Box::new(operand),
                span,
            });
        }
        if self.eat_punct("~") {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::BitNot,
                operand: Box::new(operand),
                span,
            });
        }
        if self.eat_punct("++") {
            let target = self.unary()?;
            return Ok(Expr::IncDec {
                op: IncDec::Inc,
                prefix: true,
                target: Box::new(target),
                span,
            });
        }
        if self.eat_punct("--") {
            let target = self.unary()?;
            return Ok(Expr::IncDec {
                op: IncDec::Dec,
                prefix: true,
                target: Box::new(target),
                span,
            });
        }
        // Cast: `(` type `)` unary — look ahead for a type name.
        if self.is_punct("(") {
            if let Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) = self.peek2()
            {
                if type_name_to_scalar(s).is_some() {
                    let span = self.here();
                    self.pos += 1; // (
                    let ty = self.scalar_type()?;
                    self.expect_punct(")")?;
                    let operand = self.unary()?;
                    return Ok(Expr::Cast {
                        ty,
                        operand: Box::new(operand),
                        span,
                    });
                }
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr<'s>, ClcError> {
        let mut e = self.primary()?;
        loop {
            if self.is_punct("[") {
                let span = self.here();
                self.pos += 1;
                let index = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    span,
                };
                continue;
            }
            if self.is_punct("++") {
                let span = self.here();
                self.pos += 1;
                e = Expr::IncDec {
                    op: IncDec::Inc,
                    prefix: false,
                    target: Box::new(e),
                    span,
                };
                continue;
            }
            if self.is_punct("--") {
                let span = self.here();
                self.pos += 1;
                e = Expr::IncDec {
                    op: IncDec::Dec,
                    prefix: false,
                    target: Box::new(e),
                    span,
                };
                continue;
            }
            break;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr<'s>, ClcError> {
        let span = self.here();
        match self.peek() {
            Some(Token {
                kind:
                    TokenKind::IntLit {
                        value,
                        unsigned,
                        long,
                    },
                ..
            }) => {
                let ty = match (unsigned, long) {
                    (false, false) => {
                        if *value <= i32::MAX as u64 {
                            ScalarType::I32
                        } else {
                            ScalarType::I64
                        }
                    }
                    (true, false) => ScalarType::U32,
                    (false, true) => ScalarType::I64,
                    (true, true) => ScalarType::U64,
                };
                let value = *value;
                self.pos += 1;
                Ok(Expr::IntLit { value, ty, span })
            }
            Some(Token {
                kind: TokenKind::FloatLit { value, single },
                ..
            }) => {
                let (value, single) = (*value, *single);
                self.pos += 1;
                Ok(Expr::FloatLit {
                    value,
                    single,
                    span,
                })
            }
            Some(Token {
                kind: TokenKind::Punct("("),
                ..
            }) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => {
                let name = *name;
                self.pos += 1;
                if self.is_punct("(") {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.is_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    Ok(Expr::Call { name, args, span })
                } else {
                    Ok(Expr::Var { name, span })
                }
            }
            _ => Err(self.error("expected expression")),
        }
    }
}

fn type_name_to_scalar(name: &str) -> Option<ScalarType> {
    Some(match name {
        "int" | "char" | "short" => ScalarType::I32,
        "uint" | "uchar" | "ushort" => ScalarType::U32,
        "long" => ScalarType::I64,
        "ulong" | "size_t" => ScalarType::U64,
        "float" => ScalarType::F32,
        "double" => ScalarType::F64,
        "bool" => ScalarType::Bool,
        "unsigned" => ScalarType::U32,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Unit<'_>, ClcError> {
        parse(&lex(src).unwrap(), src)
    }

    #[test]
    fn parses_minimal_kernel() {
        let unit = parse_src("__kernel void f() { }").unwrap();
        assert_eq!(unit.kernels.len(), 1);
        assert_eq!(unit.kernels[0].name, "f");
        assert!(unit.kernels[0].params.is_empty());
    }

    #[test]
    fn parses_parameters_with_qualifiers() {
        let unit = parse_src(
            "__kernel void f(__global float* a, __local int* s, const uint n, __constant double* c) {}",
        )
        .unwrap();
        let k = &unit.kernels[0];
        assert_eq!(
            k.params[0].ty,
            ParamType::Pointer(AddressSpace::Global, ScalarType::F32)
        );
        assert_eq!(
            k.params[1].ty,
            ParamType::Pointer(AddressSpace::Local, ScalarType::I32)
        );
        assert_eq!(k.params[2].ty, ParamType::Scalar(ScalarType::U32));
        assert_eq!(
            k.params[3].ty,
            ParamType::Pointer(AddressSpace::Constant, ScalarType::F64)
        );
    }

    #[test]
    fn rejects_space_qualified_scalar_param() {
        assert!(parse_src("__kernel void f(__global int n) {}").is_err());
    }

    #[test]
    fn parses_control_flow() {
        let unit = parse_src(
            r#"__kernel void f(__global int* a) {
                for (int i = 0; i < 10; i++) {
                    if (a[i] > 3) { a[i] = 0; } else a[i] = 1;
                    while (a[i] < 0) a[i] += 2;
                    do { a[i]--; } while (a[i] > 100);
                    if (a[i] == 7) break;
                    if (a[i] == 8) continue;
                }
                return;
            }"#,
        )
        .unwrap();
        assert_eq!(unit.kernels[0].body.stmts.len(), 2);
    }

    #[test]
    fn parses_barrier_as_statement() {
        let unit =
            parse_src("__kernel void f() { barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE); }")
                .unwrap();
        assert!(matches!(unit.kernels[0].body.stmts[0], Stmt::Barrier(_)));
    }

    #[test]
    fn parses_local_array_decl() {
        let unit = parse_src("__kernel void f() { __local float tile[16][16]; }").unwrap();
        match &unit.kernels[0].body.stmts[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.space, AddressSpace::Local);
                assert_eq!(d.array_dims, vec![16, 16]);
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn rejects_private_array() {
        assert!(parse_src("__kernel void f() { int a[4]; }").is_err());
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let unit = parse_src("__kernel void f(__global int* a) { a[0] = 1 + 2 * 3; }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = &unit.kernels[0].body.stmts[0] else {
            panic!("expected assignment");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = value.as_ref()
        else {
            panic!("expected + at top");
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_casts_and_calls() {
        let unit = parse_src(
            "__kernel void f(__global float* a) { a[0] = (float)get_global_id(0) + sqrt(a[1]); }",
        )
        .unwrap();
        assert_eq!(unit.kernels[0].body.stmts.len(), 1);
    }

    #[test]
    fn parses_ternary_right_associative() {
        let unit =
            parse_src("__kernel void f(__global int* a) { a[0] = a[1] ? 1 : a[2] ? 2 : 3; }")
                .unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = &unit.kernels[0].body.stmts[0] else {
            panic!("expected assignment");
        };
        let Expr::Ternary { otherwise, .. } = value.as_ref() else {
            panic!("expected ternary");
        };
        assert!(matches!(otherwise.as_ref(), Expr::Ternary { .. }));
    }

    #[test]
    fn parenthesized_cast_disambiguates_from_grouping() {
        let unit = parse_src("__kernel void f(__global int* a) { a[0] = (a[1]); }").unwrap();
        let Stmt::Expr(Expr::Assign { value, .. }) = &unit.kernels[0].body.stmts[0] else {
            panic!("expected assignment");
        };
        assert!(matches!(value.as_ref(), Expr::Index { .. }));
    }

    #[test]
    fn error_carries_position() {
        let err = parse_src("__kernel void f( { }").unwrap_err();
        assert!(err.build_log().contains("1:"));
    }

    #[test]
    fn compound_assignment_ops() {
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="] {
            let src = format!("__kernel void f(__global int* a) {{ a[0] {op} 2; }}");
            assert!(parse_src(&src).is_ok(), "failed to parse {op}");
        }
    }

    #[test]
    fn multiple_kernels_in_unit() {
        let unit = parse_src("__kernel void a() {} kernel void b() {}").unwrap();
        assert_eq!(unit.kernels.len(), 2);
        assert_eq!(unit.kernels[1].name, "b");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::lexer::lex;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_text_never_panics_the_pipeline(src in "[ -~\\n]{0,200}") {
            // Lexing may fail, parsing may fail — but no panics.
            if let Ok(tokens) = lex(&src) {
                let _ = parse(&tokens, &src);
            }
        }

        #[test]
        fn token_soup_never_panics_the_parser(
            words in proptest::collection::vec(
                prop_oneof![
                    Just("__kernel".to_string()),
                    Just("void".to_string()),
                    Just("int".to_string()),
                    Just("float".to_string()),
                    Just("if".to_string()),
                    Just("for".to_string()),
                    Just("barrier".to_string()),
                    Just("(".to_string()),
                    Just(")".to_string()),
                    Just("{".to_string()),
                    Just("}".to_string()),
                    Just(";".to_string()),
                    Just("=".to_string()),
                    Just("+".to_string()),
                    Just("*".to_string()),
                    Just("x".to_string()),
                    Just("42".to_string()),
                    Just("1.5f".to_string()),
                ],
                0..64,
            )
        ) {
            let src = words.join(" ");
            if let Ok(tokens) = lex(&src) {
                let _ = parse(&tokens, &src);
            }
        }
    }
}
