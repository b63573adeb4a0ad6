//! Abstract syntax trees for the pyfn language.

/// A parsed module: an ordered list of top-level statements (typically one
/// or more `def`s).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Module {
    /// Top-level statements.
    pub(crate) stmts: Vec<Stmt>,
}

/// Function parameter: a name with an optional default expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value expression, if any.
    pub(crate) default: Option<Expr>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    /// `def name(params): body`
    Def {
        name: String,
        params: Vec<Param>,
        body: Vec<Stmt>,
    },
    /// `target = value` (target is a name, index, or attribute-free chain)
    Assign { target: AssignTarget, value: Expr },
    /// `target op= value`
    AugAssign {
        target: AssignTarget,
        op: BinOp,
        value: Expr,
    },
    /// A bare expression evaluated for effect (e.g. `print(x)`).
    Expr(Expr),
    /// `return expr?`
    Return(Option<Expr>),
    /// `if cond: then [elif...] [else: orelse]` — elifs desugar to nested ifs.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        orelse: Vec<Stmt>,
    },
    /// `while cond: body`
    While { cond: Expr, body: Vec<Stmt> },
    /// `for var in iterable: body` / `for k, v in pairs: body`
    For {
        vars: Vec<String>,
        iterable: Expr,
        body: Vec<Stmt>,
    },
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `pass`
    Pass,
    /// `raise expr` — raises a RuntimeError with the stringified value.
    Raise(Expr),
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AssignTarget {
    /// `x = ...`
    Name(String),
    /// `xs[i] = ...` / `d['k'] = ...`
    Index { base: Expr, index: Expr },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
    Eq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    /// membership test `x in xs`
    In,
    /// negated membership `x not in xs`
    NotIn,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Literal `None`/bool/int/float/str.
    NoneLit,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Variable reference.
    Name(String),
    /// `[a, b, c]`
    List(Vec<Expr>),
    /// `{'k': v, ...}` (string keys only)
    Dict(Vec<(Expr, Expr)>),
    /// Binary operation (short-circuiting for And/Or).
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un {
        op: UnOp,
        operand: Box<Expr>,
    },
    /// Function call: builtin or module-level def. Kwargs are `name=expr`.
    Call {
        func: String,
        args: Vec<Expr>,
        kwargs: Vec<(String, Expr)>,
    },
    /// Method call on a receiver: `xs.append(1)`, `s.upper()`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
    },
    /// Indexing `xs[i]`, `d['k']`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// Slicing `xs[a:b]` (either bound optional).
    Slice {
        base: Box<Expr>,
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    /// Conditional expression `a if c else b`.
    IfExp {
        cond: Box<Expr>,
        then: Box<Expr>,
        orelse: Box<Expr>,
    },
}
