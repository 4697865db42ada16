//! Abstract syntax tree for the OpenCL C subset. Names borrow from the
//! source text (`'s`).

use crate::diag::Span;
use crate::types::{AddressSpace, ScalarType};

/// A whole translation unit: a list of kernel functions.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit<'s> {
    /// The `__kernel` functions, in source order.
    pub kernels: Vec<KernelDecl<'s>>,
}

/// A `__kernel void name(params) { body }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDecl<'s> {
    /// Kernel name.
    pub name: &'s str,
    /// Formal parameters.
    pub params: Vec<Param<'s>>,
    /// Function body.
    pub body: Block<'s>,
    /// Span of the kernel name.
    pub span: Span,
}

/// A kernel formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'s> {
    /// Parameter name.
    pub name: &'s str,
    /// Declared type.
    pub ty: ParamType,
    /// Span of the declaration.
    pub span: Span,
}

/// The type of a kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamType {
    /// A scalar passed by value.
    Scalar(ScalarType),
    /// A pointer into an address space.
    Pointer(AddressSpace, ScalarType),
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block<'s> {
    /// Statements in order.
    pub stmts: Vec<Stmt<'s>>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'s> {
    /// A local variable declaration, e.g. `int i = 0;` or
    /// `__local float tile[256];`.
    Decl(DeclStmt<'s>),
    /// An expression evaluated for effect, e.g. `a[i] = x;` or `i++;`.
    Expr(Expr<'s>),
    /// `if (cond) then else otherwise`.
    If {
        /// Condition.
        cond: Expr<'s>,
        /// Taken when true.
        then: Block<'s>,
        /// Taken when false, if present.
        otherwise: Option<Block<'s>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr<'s>,
        /// Loop body.
        body: Block<'s>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: Block<'s>,
        /// Loop condition.
        cond: Expr<'s>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Optional init declaration or expression.
        init: Option<Box<Stmt<'s>>>,
        /// Optional condition (absent means `true`).
        cond: Option<Expr<'s>>,
        /// Optional step expression.
        step: Option<Expr<'s>>,
        /// Loop body.
        body: Block<'s>,
    },
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// `return;` (kernels return void).
    Return(Span),
    /// `barrier(flags);` — work-group barrier.
    Barrier(Span),
    /// A nested block.
    Block(Block<'s>),
}

/// A declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclStmt<'s> {
    /// Declared variable name.
    pub name: &'s str,
    /// Scalar element type.
    pub ty: ScalarType,
    /// Address space (`Private` for plain locals, `Local` for `__local`).
    pub space: AddressSpace,
    /// For array declarations, the constant element counts per dimension
    /// (e.g. `tile[16][16]` → `[16, 16]`). Empty for plain scalars.
    pub array_dims: Vec<u64>,
    /// Optional initializer (scalars only).
    pub init: Option<Expr<'s>>,
    /// Span of the name.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
}

/// Increment/decrement flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncDec {
    /// `++`
    Inc,
    /// `--`
    Dec,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'s> {
    /// Integer literal.
    IntLit {
        /// Decoded value.
        value: u64,
        /// Suffix-derived type hint.
        ty: ScalarType,
        /// Source span.
        span: Span,
    },
    /// Float literal.
    FloatLit {
        /// Decoded value.
        value: f64,
        /// `true` for `float`, `false` for `double`.
        single: bool,
        /// Source span.
        span: Span,
    },
    /// Variable reference.
    Var {
        /// Name.
        name: &'s str,
        /// Source span.
        span: Span,
    },
    /// `base[index]` (possibly nested for 2-D local arrays).
    Index {
        /// The pointer or array expression.
        base: Box<Expr<'s>>,
        /// The element index.
        index: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr<'s>>,
        /// Right operand.
        rhs: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr<'s>>,
        /// Value when true.
        then: Box<Expr<'s>>,
        /// Value when false.
        otherwise: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// `(type) expr` cast.
    Cast {
        /// Target scalar type.
        ty: ScalarType,
        /// Operand.
        operand: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// `lhs = rhs` or compound `lhs op= rhs`.
    Assign {
        /// Compound operator, `None` for plain `=`.
        op: Option<BinOp>,
        /// Assignment target (variable or index expression).
        target: Box<Expr<'s>>,
        /// Value.
        value: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// `++x` / `x--` etc.
    IncDec {
        /// Increment or decrement.
        op: IncDec,
        /// Applied before (`true`) or after (`false`) the value is taken.
        prefix: bool,
        /// Target lvalue.
        target: Box<Expr<'s>>,
        /// Source span.
        span: Span,
    },
    /// A call to a builtin, e.g. `get_global_id(0)` or `sqrt(x)`.
    Call {
        /// Function name.
        name: &'s str,
        /// Arguments.
        args: Vec<Expr<'s>>,
        /// Source span.
        span: Span,
    },
}

impl Expr<'_> {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit { span, .. }
            | Expr::FloatLit { span, .. }
            | Expr::Var { span, .. }
            | Expr::Index { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Assign { span, .. }
            | Expr::IncDec { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }
}
