//! Tree-walking evaluator for the pyfn language.
//!
//! Design notes:
//! - Functions are the module-level `def`s; calls resolve builtins first,
//!   then user functions (shadowing a builtin is an error at call time to
//!   keep behaviour predictable).
//! - A *step budget* bounds total work so a buggy task cannot hang a worker
//!   forever — the endpoint enforces walltime separately, but the budget
//!   keeps unit tests and the virtual-clock simulations safe too.
//! - A recursion limit mirrors CPython's.
//! - Errors carry a Python-style kind (`TypeError`, `ZeroDivisionError`, …)
//!   and message; workers stringify them into the task's failure result,
//!   which is exactly what the SDK's future re-raises.

use std::collections::HashMap;
use std::fmt;

use gcx_core::value::Value;

use crate::ast::{AssignTarget, BinOp, Expr, Module, Param, Stmt, UnOp};
use crate::builtins;
use crate::host::Host;

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of evaluation steps (statements + expressions).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_recursion: usize,
    /// Maximum elements a `range()` may materialize.
    pub max_collection: usize,
}

impl Default for Limits {
    fn default() -> Self {
        // max_recursion is far below CPython's 1000: a tree-walking frame is
        // much larger than a CPython frame and must fit the worker thread's
        // 2 MiB stack even in unoptimized builds.
        Self {
            max_steps: 10_000_000,
            max_recursion: 64,
            max_collection: 4_000_000,
        }
    }
}

/// A Python-flavoured runtime error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyError {
    /// Error class name (`TypeError`, `ValueError`, …).
    pub(crate) kind: String,
    /// Human-readable message.
    pub(crate) msg: String,
}

impl PyError {
    /// Construct an error.
    pub(crate) fn new(kind: impl Into<String>, msg: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for PyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.msg)
    }
}

impl std::error::Error for PyError {}

/// Control flow signal from statement execution.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The interpreter, bound to a module and a host.
pub(crate) struct Interp<'a> {
    functions: HashMap<&'a str, (&'a [Param], &'a [Stmt])>,
    host: &'a mut dyn Host,
    limits: Limits,
    steps: u64,
    depth: usize,
}

type PyResult<T> = Result<T, PyError>;

impl<'a> Interp<'a> {
    /// Build an interpreter over `module`.
    pub(crate) fn new(module: &'a Module, host: &'a mut dyn Host, limits: Limits) -> Self {
        let mut functions = HashMap::new();
        for stmt in &module.stmts {
            if let Stmt::Def { name, params, body } = stmt {
                functions.insert(name.as_str(), (params.as_slice(), body.as_slice()));
            }
        }
        Self {
            functions,
            host,
            limits,
            steps: 0,
            depth: 0,
        }
    }

    /// Call a module-level function by name.
    pub(crate) fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        kwargs: &Value,
    ) -> PyResult<Value> {
        let (params, body) = *self.functions.get(name).ok_or_else(|| {
            PyError::new("NameError", format!("function '{name}' is not defined"))
        })?;

        let mut locals = self.bind_params(name, params, args, kwargs)?;
        match self.exec_block(body, &mut locals)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    fn bind_params(
        &mut self,
        fname: &str,
        params: &[Param],
        args: Vec<Value>,
        kwargs: &Value,
    ) -> PyResult<HashMap<String, Value>> {
        if args.len() > params.len() {
            return Err(PyError::new(
                "TypeError",
                format!(
                    "{fname}() takes {} positional arguments but {} were given",
                    params.len(),
                    args.len()
                ),
            ));
        }
        let kw = match kwargs {
            Value::Map(m) => m.clone(),
            Value::None => Default::default(),
            other => {
                return Err(PyError::new(
                    "TypeError",
                    format!("kwargs must be a dict, got {}", other.type_name()),
                ))
            }
        };
        for key in kw.keys() {
            if !params.iter().any(|p| &p.name == key) {
                return Err(PyError::new(
                    "TypeError",
                    format!("{fname}() got an unexpected keyword argument '{key}'"),
                ));
            }
        }
        let mut locals = HashMap::new();
        let n_args = args.len();
        let mut args_it = args.into_iter();
        for (i, p) in params.iter().enumerate() {
            let positional = if i < n_args { args_it.next() } else { None };
            let val = match positional {
                Some(v) => {
                    if kw.contains_key(&p.name) {
                        return Err(PyError::new(
                            "TypeError",
                            format!("{fname}() got multiple values for argument '{}'", p.name),
                        ));
                    }
                    v
                }
                None => match kw.get(&p.name) {
                    Some(v) => v.clone(),
                    None => match &p.default {
                        Some(expr) => {
                            let mut empty = HashMap::new();
                            self.eval(expr, &mut empty)?
                        }
                        None => {
                            return Err(PyError::new(
                                "TypeError",
                                format!("{fname}() missing required argument: '{}'", p.name),
                            ))
                        }
                    },
                },
            };
            locals.insert(p.name.clone(), val);
        }
        Ok(locals)
    }

    fn tick(&mut self) -> PyResult<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(PyError::new(
                "TimeoutError",
                format!("step budget of {} exceeded", self.limits.max_steps),
            ));
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        locals: &mut HashMap<String, Value>,
    ) -> PyResult<Flow> {
        for stmt in stmts {
            match self.exec(stmt, locals)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: &Stmt, locals: &mut HashMap<String, Value>) -> PyResult<Flow> {
        self.tick()?;
        match stmt {
            Stmt::Def { name, .. } => Err(PyError::new(
                "SyntaxError",
                format!("nested function definitions are not supported ('{name}')"),
            )),
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, locals)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Raise(e) => {
                let v = self.eval(e, locals)?;
                Err(PyError::new("RuntimeError", v.to_string()))
            }
            Stmt::Expr(e) => {
                self.eval(e, locals)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value, locals)?;
                self.assign(target, v, locals)?;
                Ok(Flow::Normal)
            }
            Stmt::AugAssign { target, op, value } => {
                let current = match target {
                    AssignTarget::Name(n) => self.load(n, locals)?,
                    AssignTarget::Index { base, index } => {
                        let b = self.eval(base, locals)?;
                        let i = self.eval(index, locals)?;
                        index_value(&b, &i)?
                    }
                };
                let rhs = self.eval(value, locals)?;
                let v = binop(*op, current, rhs)?;
                self.assign(target, v, locals)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, orelse } => {
                if self.eval(cond, locals)?.truthy() {
                    self.exec_block(then, locals)
                } else {
                    self.exec_block(orelse, locals)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, locals)?.truthy() {
                    self.tick()?;
                    match self.exec_block(body, locals)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                vars,
                iterable,
                body,
            } => {
                let items = match self.eval(iterable, locals)? {
                    Value::List(l) => l,
                    Value::Str(s) => s.chars().map(|c| Value::Str(c.to_string())).collect(),
                    Value::Map(m) => m.keys().cloned().map(Value::Str).collect(),
                    other => {
                        return Err(PyError::new(
                            "TypeError",
                            format!("'{}' object is not iterable", other.type_name()),
                        ))
                    }
                };
                for item in items {
                    self.tick()?;
                    if vars.len() == 1 {
                        locals.insert(vars[0].clone(), item);
                    } else {
                        // Tuple unpacking: `for k, v in d.items():`.
                        let parts = match &item {
                            Value::List(parts) if parts.len() == vars.len() => parts.clone(),
                            Value::List(parts) => {
                                return Err(PyError::new(
                                    "ValueError",
                                    format!(
                                        "cannot unpack {} values into {} targets",
                                        parts.len(),
                                        vars.len()
                                    ),
                                ))
                            }
                            other => {
                                return Err(PyError::new(
                                    "TypeError",
                                    format!("cannot unpack '{}'", other.type_name()),
                                ))
                            }
                        };
                        for (name, part) in vars.iter().zip(parts) {
                            locals.insert(name.clone(), part);
                        }
                    }
                    match self.exec_block(body, locals)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(
        &mut self,
        target: &AssignTarget,
        v: Value,
        locals: &mut HashMap<String, Value>,
    ) -> PyResult<()> {
        match target {
            AssignTarget::Name(n) => {
                locals.insert(n.clone(), v);
                Ok(())
            }
            AssignTarget::Index { base, index } => {
                // Only `name[index] = v` mutates in place.
                let Expr::Name(base_name) = base else {
                    return Err(PyError::new(
                        "TypeError",
                        "only simple variables support index assignment",
                    ));
                };
                let idx = self.eval(index, locals)?;
                let container = locals.get_mut(base_name).ok_or_else(|| {
                    PyError::new("NameError", format!("name '{base_name}' is not defined"))
                })?;
                match (container, idx) {
                    (Value::List(l), Value::Int(i)) => {
                        let pos = builtins::normalize_index(i, l.len()).ok_or_else(|| {
                            PyError::new("IndexError", "list assignment index out of range")
                        })?;
                        l[pos] = v;
                        Ok(())
                    }
                    (Value::Map(m), Value::Str(k)) => {
                        m.insert(k, v);
                        Ok(())
                    }
                    (c, i) => Err(PyError::new(
                        "TypeError",
                        format!(
                            "cannot assign into {} with {} index",
                            c.type_name(),
                            i.type_name()
                        ),
                    )),
                }
            }
        }
    }

    fn load(&self, name: &str, locals: &HashMap<String, Value>) -> PyResult<Value> {
        locals
            .get(name)
            .cloned()
            .ok_or_else(|| PyError::new("NameError", format!("name '{name}' is not defined")))
    }

    fn eval(&mut self, expr: &Expr, locals: &mut HashMap<String, Value>) -> PyResult<Value> {
        self.tick()?;
        match expr {
            Expr::NoneLit => Ok(Value::None),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Float(f) => Ok(Value::Float(*f)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Name(n) => self.load(n, locals),
            Expr::List(items) => {
                let vals = items
                    .iter()
                    .map(|e| self.eval(e, locals))
                    .collect::<PyResult<Vec<_>>>()?;
                Ok(Value::List(vals))
            }
            Expr::Dict(pairs) => {
                let mut m = std::collections::BTreeMap::new();
                for (k, v) in pairs {
                    let key = match self.eval(k, locals)? {
                        Value::Str(s) => s,
                        other => {
                            return Err(PyError::new(
                                "TypeError",
                                format!("dict keys must be str, got {}", other.type_name()),
                            ))
                        }
                    };
                    let val = self.eval(v, locals)?;
                    m.insert(key, val);
                }
                Ok(Value::Map(m))
            }
            Expr::Un { op, operand } => {
                let v = self.eval(operand, locals)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(PyError::new(
                            "TypeError",
                            format!("bad operand type for unary -: '{}'", other.type_name()),
                        )),
                    },
                }
            }
            Expr::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let l = self.eval(lhs, locals)?;
                if !l.truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs, locals)
                }
            }
            Expr::Bin {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                let l = self.eval(lhs, locals)?;
                if l.truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs, locals)
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs, locals)?;
                let r = self.eval(rhs, locals)?;
                binop(*op, l, r)
            }
            Expr::IfExp { cond, then, orelse } => {
                if self.eval(cond, locals)?.truthy() {
                    self.eval(then, locals)
                } else {
                    self.eval(orelse, locals)
                }
            }
            Expr::Index { base, index } => {
                let b = self.eval(base, locals)?;
                let i = self.eval(index, locals)?;
                index_value(&b, &i)
            }
            Expr::Slice { base, lo, hi } => {
                let b = self.eval(base, locals)?;
                let lo = match lo {
                    Some(e) => Some(self.eval(e, locals)?),
                    None => None,
                };
                let hi = match hi {
                    Some(e) => Some(self.eval(e, locals)?),
                    None => None,
                };
                slice_value(&b, lo, hi)
            }
            Expr::Call { func, args, kwargs } => {
                let argv = args
                    .iter()
                    .map(|e| self.eval(e, locals))
                    .collect::<PyResult<Vec<_>>>()?;
                // Builtins take no kwargs in this language.
                if kwargs.is_empty() {
                    if let Some(r) = builtins::call_builtin(func, &argv, self.host, &self.limits) {
                        return r;
                    }
                }
                let mut kw = std::collections::BTreeMap::new();
                for (k, e) in kwargs {
                    kw.insert(k.clone(), self.eval(e, locals)?);
                }
                if self.depth + 1 > self.limits.max_recursion {
                    return Err(PyError::new(
                        "RecursionError",
                        "maximum recursion depth exceeded",
                    ));
                }
                self.depth += 1;
                let result = self.call_function(func, argv, &Value::Map(kw));
                self.depth -= 1;
                result
            }
            Expr::MethodCall { recv, method, args } => {
                let argv = args
                    .iter()
                    .map(|e| self.eval(e, locals))
                    .collect::<PyResult<Vec<_>>>()?;
                let recv_val = self.eval(recv, locals)?;
                let outcome = builtins::call_method(recv_val, method, &argv)?;
                // Write the receiver back for in-place mutation semantics.
                if let Expr::Name(n) = &**recv {
                    locals.insert(n.clone(), outcome.receiver);
                }
                Ok(outcome.ret)
            }
        }
    }
}

fn index_value(base: &Value, index: &Value) -> PyResult<Value> {
    match (base, index) {
        (Value::List(l), Value::Int(i)) => builtins::normalize_index(*i, l.len())
            .map(|pos| l[pos].clone())
            .ok_or_else(|| PyError::new("IndexError", "list index out of range")),
        (Value::Str(s), Value::Int(i)) => {
            let chars: Vec<char> = s.chars().collect();
            builtins::normalize_index(*i, chars.len())
                .map(|pos| Value::Str(chars[pos].to_string()))
                .ok_or_else(|| PyError::new("IndexError", "string index out of range"))
        }
        (Value::Map(m), Value::Str(k)) => m
            .get(k)
            .cloned()
            .ok_or_else(|| PyError::new("KeyError", format!("'{k}'"))),
        (b, i) => Err(PyError::new(
            "TypeError",
            format!(
                "{} indices must be valid, got {}",
                b.type_name(),
                i.type_name()
            ),
        )),
    }
}

fn slice_value(base: &Value, lo: Option<Value>, hi: Option<Value>) -> PyResult<Value> {
    let bound = |v: Option<Value>, default: i64, len: usize| -> PyResult<usize> {
        match v {
            None => Ok(if default < 0 { 0 } else { default as usize }),
            Some(Value::Int(i)) => {
                let len = len as i64;
                let idx = if i < 0 { (i + len).max(0) } else { i.min(len) };
                Ok(idx as usize)
            }
            Some(other) => Err(PyError::new(
                "TypeError",
                format!("slice indices must be integers, got {}", other.type_name()),
            )),
        }
    };
    match base {
        Value::List(l) => {
            let start = bound(lo, 0, l.len())?;
            let end = bound(hi, l.len() as i64, l.len())?;
            Ok(Value::List(if start < end {
                l[start..end].to_vec()
            } else {
                vec![]
            }))
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let start = bound(lo, 0, chars.len())?;
            let end = bound(hi, chars.len() as i64, chars.len())?;
            Ok(Value::Str(if start < end {
                chars[start..end].iter().collect()
            } else {
                String::new()
            }))
        }
        other => Err(PyError::new(
            "TypeError",
            format!("'{}' object is not sliceable", other.type_name()),
        )),
    }
}

fn binop(op: BinOp, l: Value, r: Value) -> PyResult<Value> {
    use std::cmp::Ordering;
    let cmp_result = |want: fn(Ordering) -> bool| -> PyResult<Value> {
        match builtins::compare(&l, &r) {
            Some(c) => Ok(Value::Bool(want(c))),
            None => Err(PyError::new(
                "TypeError",
                format!(
                    "'{}' and '{}' are not orderable",
                    l.type_name(),
                    r.type_name()
                ),
            )),
        }
    };
    match op {
        BinOp::Eq => return Ok(Value::Bool(values_eq(&l, &r))),
        BinOp::NotEq => return Ok(Value::Bool(!values_eq(&l, &r))),
        BinOp::Lt => return cmp_result(Ordering::is_lt),
        BinOp::Le => return cmp_result(Ordering::is_le),
        BinOp::Gt => return cmp_result(Ordering::is_gt),
        BinOp::Ge => return cmp_result(Ordering::is_ge),
        BinOp::In | BinOp::NotIn => {
            let found = match &r {
                Value::List(items) => items.iter().any(|x| values_eq(x, &l)),
                Value::Str(hay) => match &l {
                    Value::Str(needle) => hay.contains(needle.as_str()),
                    other => {
                        return Err(PyError::new(
                            "TypeError",
                            format!("'in <str>' requires str, got {}", other.type_name()),
                        ))
                    }
                },
                Value::Map(m) => match &l {
                    Value::Str(k) => m.contains_key(k),
                    _ => false,
                },
                other => {
                    return Err(PyError::new(
                        "TypeError",
                        format!("'{}' object is not a container", other.type_name()),
                    ))
                }
            };
            return Ok(Value::Bool(if op == BinOp::In { found } else { !found }));
        }
        _ => {}
    }

    // Arithmetic (plus str/list concatenation and repetition).
    match (op, &l, &r) {
        (BinOp::Add, Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
        (BinOp::Add, Value::List(a), Value::List(b)) => {
            let mut out = a.clone();
            out.extend(b.iter().cloned());
            Ok(Value::List(out))
        }
        (BinOp::Mul, Value::Str(s), Value::Int(n)) | (BinOp::Mul, Value::Int(n), Value::Str(s)) => {
            let n = (*n).max(0) as usize;
            if n.saturating_mul(s.len()) > 100_000_000 {
                return Err(PyError::new("MemoryError", "string repetition too large"));
            }
            Ok(Value::Str(s.repeat(n)))
        }
        (BinOp::Mul, Value::List(a), Value::Int(n))
        | (BinOp::Mul, Value::Int(n), Value::List(a)) => {
            let n = (*n).max(0) as usize;
            if n.saturating_mul(a.len()) > 10_000_000 {
                return Err(PyError::new("MemoryError", "list repetition too large"));
            }
            let mut out = Vec::with_capacity(a.len() * n);
            for _ in 0..n {
                out.extend(a.iter().cloned());
            }
            Ok(Value::List(out))
        }
        (BinOp::Mod, Value::Str(_), _) => Err(PyError::new(
            "TypeError",
            "%-formatting is not supported; use .format()",
        )),
        _ => {
            // Numeric paths.
            let both_int = matches!((&l, &r), (Value::Int(_), Value::Int(_)));
            let (a, b) = match (l.as_float(), r.as_float()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(PyError::new(
                        "TypeError",
                        format!(
                            "unsupported operand type(s): '{}' and '{}'",
                            l.type_name(),
                            r.type_name()
                        ),
                    ))
                }
            };
            if both_int {
                let (x, y) = (l.as_int().unwrap(), r.as_int().unwrap());
                match op {
                    BinOp::Add => return Ok(Value::Int(x.wrapping_add(y))),
                    BinOp::Sub => return Ok(Value::Int(x.wrapping_sub(y))),
                    BinOp::Mul => return Ok(Value::Int(x.wrapping_mul(y))),
                    BinOp::FloorDiv => {
                        if y == 0 {
                            return Err(PyError::new(
                                "ZeroDivisionError",
                                "integer division by zero",
                            ));
                        }
                        return Ok(Value::Int(py_floordiv(x, y)));
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            return Err(PyError::new(
                                "ZeroDivisionError",
                                "integer modulo by zero",
                            ));
                        }
                        return Ok(Value::Int(
                            x.wrapping_sub(py_floordiv(x, y).wrapping_mul(y)),
                        ));
                    }
                    BinOp::Pow => {
                        if y >= 0 {
                            if let Some(v) = x.checked_pow(y.min(63) as u32) {
                                if y <= 63 {
                                    return Ok(Value::Int(v));
                                }
                            }
                            return Err(PyError::new("OverflowError", "integer power too large"));
                        }
                        return Ok(Value::Float(a.powf(b)));
                    }
                    BinOp::Div => {
                        if y == 0 {
                            return Err(PyError::new("ZeroDivisionError", "division by zero"));
                        }
                        return Ok(Value::Float(a / b));
                    }
                    _ => unreachable!("comparisons handled above"),
                }
            }
            match op {
                BinOp::Add => Ok(Value::Float(a + b)),
                BinOp::Sub => Ok(Value::Float(a - b)),
                BinOp::Mul => Ok(Value::Float(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(PyError::new("ZeroDivisionError", "float division by zero"))
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                BinOp::FloorDiv => {
                    if b == 0.0 {
                        Err(PyError::new(
                            "ZeroDivisionError",
                            "float floor division by zero",
                        ))
                    } else {
                        Ok(Value::Float((a / b).floor()))
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Err(PyError::new("ZeroDivisionError", "float modulo by zero"))
                    } else {
                        // Python float %: result has the divisor's sign.
                        Ok(Value::Float(a - (a / b).floor() * b))
                    }
                }
                BinOp::Pow => Ok(Value::Float(a.powf(b))),
                _ => unreachable!("comparisons handled above"),
            }
        }
    }
}

/// Python floor division: rounds toward negative infinity (unlike Rust's
/// truncating `/` and unlike Euclidean division for negative divisors).
fn py_floordiv(x: i64, y: i64) -> i64 {
    let q = x.wrapping_div(y);
    let r = x.wrapping_rem(y);
    if r != 0 && ((r < 0) != (y < 0)) {
        q - 1
    } else {
        q
    }
}

/// Python-style equality: ints and floats compare numerically.
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            a.as_float() == b.as_float()
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CapturingHost;
    use crate::Program;

    fn run(src: &str, args: Vec<Value>) -> Result<Value, PyError> {
        let prog = Program::compile(src).unwrap();
        let mut host = CapturingHost::default();
        prog.call_entry(
            args,
            &Value::map([] as [(&str, Value); 0]),
            &mut host,
            Limits::default(),
        )
    }

    fn run_ok(src: &str, args: Vec<Value>) -> Value {
        run(src, args).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(
            run_ok(
                "def f(a, b):\n    return a + b * 2\n",
                vec![Value::Int(1), Value::Int(3)]
            ),
            Value::Int(7)
        );
        assert_eq!(
            run_ok("def f():\n    return 7 // 2\n", vec![]),
            Value::Int(3)
        );
        assert_eq!(
            run_ok("def f():\n    return 7 % 3\n", vec![]),
            Value::Int(1)
        );
        assert_eq!(
            run_ok("def f():\n    return 2 ** 10\n", vec![]),
            Value::Int(1024)
        );
        assert_eq!(
            run_ok("def f():\n    return 7 / 2\n", vec![]),
            Value::Float(3.5)
        );
        assert_eq!(
            run_ok("def f():\n    return -(-5)\n", vec![]),
            Value::Int(5)
        );
    }

    #[test]
    fn python_division_semantics() {
        // Floor division rounds toward negative infinity.
        assert_eq!(
            run_ok("def f():\n    return -7 // 2\n", vec![]),
            Value::Int(-4)
        );
        assert_eq!(
            run_ok("def f():\n    return -7 % 2\n", vec![]),
            Value::Int(1)
        );
    }

    #[test]
    fn zero_division_raises() {
        let e = run("def f():\n    return 1 / 0\n", vec![]).unwrap_err();
        assert_eq!(e.kind, "ZeroDivisionError");
        let e = run("def f():\n    return 1 // 0\n", vec![]).unwrap_err();
        assert_eq!(e.kind, "ZeroDivisionError");
    }

    #[test]
    fn string_ops() {
        assert_eq!(
            run_ok(
                "def f(name):\n    return 'hello ' + name\n",
                vec![Value::str("world")]
            ),
            Value::str("hello world")
        );
        assert_eq!(
            run_ok("def f():\n    return 'ab' * 3\n", vec![]),
            Value::str("ababab")
        );
        assert_eq!(
            run_ok("def f():\n    return 'abc'[1]\n", vec![]),
            Value::str("b")
        );
        assert_eq!(
            run_ok("def f():\n    return 'hello'[1:3]\n", vec![]),
            Value::str("el")
        );
        assert_eq!(
            run_ok("def f():\n    return 'ell' in 'hello'\n", vec![]),
            Value::Bool(true)
        );
    }

    #[test]
    fn recursion_fib() {
        let src =
            "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n";
        assert_eq!(run_ok(src, vec![Value::Int(10)]), Value::Int(55));
    }

    #[test]
    fn recursion_limit() {
        let src = "def f(n):\n    return f(n + 1)\n";
        let e = run(src, vec![Value::Int(0)]).unwrap_err();
        assert_eq!(e.kind, "RecursionError");
    }

    #[test]
    fn step_budget_stops_infinite_loop() {
        let prog = Program::compile("def f():\n    while True:\n        pass\n").unwrap();
        let mut host = CapturingHost::default();
        let limits = Limits {
            max_steps: 10_000,
            ..Default::default()
        };
        let e = prog
            .call_entry(
                vec![],
                &Value::map([] as [(&str, Value); 0]),
                &mut host,
                limits,
            )
            .unwrap_err();
        assert_eq!(e.kind, "TimeoutError");
    }

    #[test]
    fn loops_and_aggregation() {
        let src = "def f(n):\n    total = 0\n    for i in range(n):\n        if i % 2 == 0:\n            continue\n        total += i\n    return total\n";
        assert_eq!(run_ok(src, vec![Value::Int(10)]), Value::Int(25));
        let src = "def f():\n    i = 0\n    while True:\n        i += 1\n        if i >= 5:\n            break\n    return i\n";
        assert_eq!(run_ok(src, vec![]), Value::Int(5));
    }

    #[test]
    fn list_and_dict_manipulation() {
        let src = "def f():\n    xs = []\n    for i in range(3):\n        xs.append(i * i)\n    d = {'sum': sum(xs), 'n': len(xs)}\n    d['max'] = max(xs)\n    return d\n";
        let v = run_ok(src, vec![]);
        assert_eq!(v.get("sum").unwrap(), &Value::Int(5));
        assert_eq!(v.get("n").unwrap(), &Value::Int(3));
        assert_eq!(v.get("max").unwrap(), &Value::Int(4));
    }

    #[test]
    fn index_assignment_mutates() {
        let src = "def f():\n    xs = [1, 2, 3]\n    xs[1] = 20\n    xs[-1] = 30\n    return xs\n";
        assert_eq!(
            run_ok(src, vec![]),
            Value::List(vec![Value::Int(1), Value::Int(20), Value::Int(30)])
        );
    }

    #[test]
    fn kwargs_and_defaults() {
        let prog = Program::compile("def f(a, b=10, c=100):\n    return a + b + c\n").unwrap();
        let mut host = CapturingHost::default();
        let r = prog
            .call_entry(
                vec![Value::Int(1)],
                &Value::map([("c", Value::Int(3))]),
                &mut host,
                Limits::default(),
            )
            .unwrap();
        assert_eq!(r, Value::Int(14));
    }

    #[test]
    fn kwargs_errors() {
        let prog = Program::compile("def f(a):\n    return a\n").unwrap();
        let mut host = CapturingHost::default();
        let e = prog
            .call_entry(
                vec![],
                &Value::map([("zz", Value::Int(1))]),
                &mut host,
                Limits::default(),
            )
            .unwrap_err();
        assert!(e.msg.contains("unexpected keyword"));
        let e = prog
            .call_entry(
                vec![Value::Int(1)],
                &Value::map([("a", Value::Int(2))]),
                &mut host,
                Limits::default(),
            )
            .unwrap_err();
        assert!(e.msg.contains("multiple values"));
        let e = prog
            .call_entry(vec![], &Value::None, &mut host, Limits::default())
            .unwrap_err();
        assert!(e.msg.contains("missing required"));
    }

    #[test]
    fn cross_function_calls() {
        let src = "def main(n):\n    return helper(n) * 2\n\ndef helper(n):\n    return n + 1\n";
        assert_eq!(run_ok(src, vec![Value::Int(4)]), Value::Int(10));
    }

    #[test]
    fn name_errors() {
        let e = run("def f():\n    return missing\n", vec![]).unwrap_err();
        assert_eq!(e.kind, "NameError");
        let e = run("def f():\n    return missing_fn()\n", vec![]).unwrap_err();
        assert_eq!(e.kind, "NameError");
    }

    #[test]
    fn raise_statement() {
        let e = run("def f():\n    raise 'data not found'\n", vec![]).unwrap_err();
        assert_eq!(e.kind, "RuntimeError");
        assert_eq!(e.msg, "data not found");
    }

    #[test]
    fn print_captured_by_host() {
        let prog = Program::compile("def f():\n    print('hello', 42)\n    return None\n").unwrap();
        let mut host = CapturingHost::default();
        prog.call_entry(vec![], &Value::None, &mut host, Limits::default())
            .unwrap();
        assert_eq!(host.stdout, vec!["hello 42"]);
    }

    #[test]
    fn sleep_goes_to_host() {
        let prog = Program::compile("def f(t):\n    sleep(t)\n    return 'done'\n").unwrap();
        let mut host = CapturingHost::default();
        let r = prog
            .call_entry(
                vec![Value::Float(1.25)],
                &Value::None,
                &mut host,
                Limits::default(),
            )
            .unwrap();
        assert_eq!(r, Value::str("done"));
        assert_eq!(host.slept, 1.25);
    }

    #[test]
    fn short_circuit_semantics() {
        // Python returns the operand, not a bool.
        assert_eq!(
            run_ok("def f():\n    return 0 or 'default'\n", vec![]),
            Value::str("default")
        );
        assert_eq!(
            run_ok("def f():\n    return 1 and 2\n", vec![]),
            Value::Int(2)
        );
        // RHS must not evaluate when short-circuited.
        assert_eq!(
            run_ok("def f():\n    return False and missing\n", vec![]),
            Value::Bool(false)
        );
    }

    #[test]
    fn ternary() {
        let src = "def f(n):\n    return 'big' if n > 3 else 'small'\n";
        assert_eq!(run_ok(src, vec![Value::Int(5)]), Value::str("big"));
        assert_eq!(run_ok(src, vec![Value::Int(1)]), Value::str("small"));
    }

    #[test]
    fn iterate_string_and_dict() {
        let src = "def f(s):\n    n = 0\n    for c in s:\n        n += 1\n    return n\n";
        assert_eq!(run_ok(src, vec![Value::str("abc")]), Value::Int(3));
        let src = "def f():\n    d = {'a': 1, 'b': 2}\n    keys = []\n    for k in d:\n        keys.append(k)\n    return keys\n";
        assert_eq!(
            run_ok(src, vec![]),
            Value::List(vec![Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn mixed_numeric_equality() {
        assert_eq!(
            run_ok("def f():\n    return 1 == 1.0\n", vec![]),
            Value::Bool(true)
        );
        assert_eq!(
            run_ok("def f():\n    return 1 != 2.0\n", vec![]),
            Value::Bool(true)
        );
    }

    #[test]
    fn nested_def_rejected_at_runtime() {
        let e = run(
            "def f():\n    def g():\n        pass\n    return 1\n",
            vec![],
        )
        .unwrap_err();
        assert_eq!(e.kind, "SyntaxError");
    }

    #[test]
    fn method_on_expression_result() {
        assert_eq!(
            run_ok("def f():\n    return 'a b c'.split(' ')[1]\n", vec![]),
            Value::str("b")
        );
    }

    #[test]
    fn format_builtin_pipeline() {
        let src = "def f(name, n):\n    return 'task {} ran {} times'.format(name, n)\n";
        assert_eq!(
            run_ok(src, vec![Value::str("x"), Value::Int(3)]),
            Value::str("task x ran 3 times")
        );
    }
}

#[cfg(test)]
mod unpacking_tests {
    use super::*;
    use crate::Program;

    fn run_ok(src: &str, args: Vec<Value>) -> Value {
        Program::eval(src, args).unwrap()
    }

    #[test]
    fn for_unpacks_dict_items() {
        let src = "def f(d):\n    out = []\n    for k, v in d.items():\n        out.append(k + '=' + str(v))\n    return ', '.join(out)\n";
        let d = Value::map([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(run_ok(src, vec![d]), Value::str("a=1, b=2"));
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)]
    fn for_unpacks_enumerate() {
        let src = "def f(xs):\n    total = 0\n    for i, x in enumerate(xs):\n        total += i * x\n    return total\n";
        let xs: Value = vec![10i64, 20, 30].into();
        assert_eq!(run_ok(src, vec![xs]), Value::Int(0 * 10 + 20 + 2 * 30));
    }

    #[test]
    fn for_unpacks_zip() {
        let src = "def f(a, b):\n    out = []\n    for x, y in zip(a, b):\n        out.append(x * y)\n    return out\n";
        let a: Value = vec![1i64, 2, 3].into();
        let b: Value = vec![4i64, 5, 6].into();
        assert_eq!(run_ok(src, vec![a, b]), Value::from(vec![4i64, 10, 18]));
    }

    #[test]
    fn unpack_arity_mismatch_errors() {
        let src = "def f():\n    for a, b, c in [[1, 2]]:\n        pass\n    return 0\n";
        let err = Program::eval(src, vec![]).unwrap_err();
        assert!(
            err.to_string()
                .contains("cannot unpack 2 values into 3 targets"),
            "{err}"
        );
    }

    #[test]
    fn unpack_non_list_errors() {
        let src = "def f():\n    for a, b in [5]:\n        pass\n    return 0\n";
        let err = Program::eval(src, vec![]).unwrap_err();
        assert!(err.to_string().contains("cannot unpack 'int'"), "{err}");
    }

    #[test]
    fn duplicate_loop_vars_rejected_at_parse() {
        let err =
            Program::compile("def f():\n    for a, a in [[1, 2]]:\n        pass\n").unwrap_err();
        assert!(err.to_string().contains("duplicate loop variable"), "{err}");
    }
}
