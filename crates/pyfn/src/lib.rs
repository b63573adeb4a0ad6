//! # gcx-pyfn
//!
//! A small, serializable, interpreted function language — the stand-in for
//! the pickled Python functions that Globus Compute ships to endpoints.
//!
//! Real Globus Compute serializes Python callables with dill and executes
//! them in worker processes. A Rust reproduction cannot execute Python, but
//! the *systems* behaviour the paper studies — registering function code
//! with the cloud, shipping it as data, executing it on remote workers,
//! returning values or exceptions — only needs functions to be data. So we
//! implement a deliberately Python-flavoured mini language:
//!
//! ```text
//! def fib(n):
//!     if n < 2:
//!         return n
//!     return fib(n - 1) + fib(n - 2)
//! ```
//!
//! - `lexer` — indentation-aware tokenizer (INDENT/DEDENT like CPython's).
//! - `ast` — expression and statement trees.
//! - `parser` — recursive descent to an `ast::Module`.
//! - `interp` — tree-walking evaluator with scopes, a step budget (no
//!   runaway tasks), a recursion limit, and Python-ish error messages.
//! - `builtins` — `len`, `str`, `range`, `sorted`, `print`, `sleep`, …
//! - `host` — the `Host` trait through which programs reach the
//!   outside world (clock sleeps, RNG, stdout capture), so workers can run
//!   functions deterministically under a virtual clock.
//!
//! Values are [`gcx_core::value::Value`], so arguments and results round-trip
//! through the task codec unchanged.

pub(crate) mod ast;
pub(crate) mod builtins;
pub(crate) mod host;
pub(crate) mod interp;
pub(crate) mod lexer;
pub(crate) mod parser;

pub use host::CapturingHost;
pub(crate) use host::Host;
pub use host::SystemHost;
pub(crate) use interp::Interp;
pub use interp::Limits;
pub(crate) use interp::PyError;

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::value::Value;

/// A compiled program: the unit that gets registered as a Globus Compute
/// function.
#[derive(Debug, Clone)]
pub struct Program {
    module: ast::Module,
}

impl Program {
    /// Compile source text.
    pub fn compile(source: &str) -> GcxResult<Self> {
        let tokens = lexer::lex(source).map_err(GcxError::Parse)?;
        let module = parser::parse(tokens).map_err(GcxError::Parse)?;
        Ok(Self { module })
    }

    /// Names of the functions defined at module top level, in order.
    pub(crate) fn function_names(&self) -> Vec<&str> {
        self.module
            .stmts
            .iter()
            .filter_map(|s| match s {
                ast::Stmt::Def { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Call the *entry* function — the first `def` in the module — with the
    /// given arguments. This is how a worker invokes a registered function.
    pub fn call_entry(
        &self,
        args: Vec<Value>,
        kwargs: &Value,
        host: &mut dyn Host,
        limits: Limits,
    ) -> Result<Value, PyError> {
        let name = self
            .function_names()
            .first()
            .copied()
            .map(str::to_string)
            .ok_or_else(|| PyError::new("TypeError", "module defines no function"))?;
        self.call(&name, args, kwargs, host, limits)
    }

    /// Call a named function.
    pub(crate) fn call(
        &self,
        name: &str,
        args: Vec<Value>,
        kwargs: &Value,
        host: &mut dyn Host,
        limits: Limits,
    ) -> Result<Value, PyError> {
        let mut interp = Interp::new(&self.module, host, limits);
        interp.call_function(name, args, kwargs)
    }

    /// Convenience for tests and examples: compile, run the entry function
    /// with positional args, capture output, default limits.
    pub fn eval(source: &str, args: Vec<Value>) -> GcxResult<Value> {
        let prog = Self::compile(source)?;
        let mut host = CapturingHost::default();
        prog.call_entry(
            args,
            &Value::map([] as [(&str, Value); 0]),
            &mut host,
            Limits::default(),
        )
        .map_err(|e| GcxError::Execution(e.to_string()))
    }
}
