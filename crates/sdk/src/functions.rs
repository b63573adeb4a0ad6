//! User-facing function types: plain functions, `ShellFunction`,
//! `MPIFunction`.

use gcx_core::function::FunctionBody;
use gcx_core::shellres::DEFAULT_SNIPPET_LINES;

/// Anything the executor can register and submit.
pub trait Function {
    /// The registrable body.
    fn body(&self) -> FunctionBody;

    /// The body's [`FunctionBody::content_hash`], read on every submit: a
    /// type that can hash its fields without building a body should.
    fn content_hash(&self) -> u64 {
        self.body().content_hash()
    }
}

/// An ordinary (mini-)Python function: the default Globus Compute payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PyFunction {
    source: String,
}

impl PyFunction {
    /// Wrap mini-Python source; the first `def` is the entry point.
    pub fn new(source: impl Into<String>) -> Self {
        Self {
            source: source.into(),
        }
    }
}

impl Function for PyFunction {
    fn body(&self) -> FunctionBody {
        FunctionBody::pyfn(self.source.clone())
    }

    fn content_hash(&self) -> u64 {
        FunctionBody::hash_parts("pyfn", &self.source, None, 0)
    }
}

/// `ShellFunction` (§III-B): a command-line template executed on the
/// endpoint. `{placeholders}` are formatted from the submission kwargs
/// (Listing 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ShellFunction {
    cmd: String,
    walltime_ms: Option<u64>,
    snippet_lines: usize,
}

impl ShellFunction {
    /// A shell function from a command template.
    pub fn new(cmd: impl Into<String>) -> Self {
        Self {
            cmd: cmd.into(),
            walltime_ms: None,
            snippet_lines: DEFAULT_SNIPPET_LINES,
        }
    }

    /// Listing 3: maximum run duration in seconds; exceeding it terminates
    /// the command with return code 124.
    pub fn with_walltime(mut self, seconds: f64) -> Self {
        self.walltime_ms = Some((seconds * 1000.0) as u64);
        self
    }

    /// Capture only the last `n` lines of stdout/stderr (default 1000).
    pub fn with_snippet_lines(mut self, n: usize) -> Self {
        self.snippet_lines = n;
        self
    }

    /// The command template.
    pub fn cmd(&self) -> &str {
        &self.cmd
    }
}

impl Function for ShellFunction {
    fn body(&self) -> FunctionBody {
        FunctionBody::Shell {
            cmd: self.cmd.clone(),
            walltime_ms: self.walltime_ms,
            snippet_lines: self.snippet_lines,
        }
    }

    fn content_hash(&self) -> u64 {
        FunctionBody::hash_parts("shell", &self.cmd, self.walltime_ms, self.snippet_lines)
    }
}

/// `MPIFunction` (§III-C): "an extension to ShellFunction … rather than run
/// a shell command, it executes an MPI application using a specified MPI
/// launcher", on resources described by the executor's
/// `resource_specification`.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiFunction {
    cmd: String,
    walltime_ms: Option<u64>,
    snippet_lines: usize,
}

impl MpiFunction {
    /// An MPI function from an application command template.
    pub fn new(cmd: impl Into<String>) -> Self {
        Self {
            cmd: cmd.into(),
            walltime_ms: None,
            snippet_lines: DEFAULT_SNIPPET_LINES,
        }
    }

    /// Maximum run duration in seconds.
    pub fn with_walltime(mut self, seconds: f64) -> Self {
        self.walltime_ms = Some((seconds * 1000.0) as u64);
        self
    }

    /// Capture only the last `n` lines of each stream.
    pub fn with_snippet_lines(mut self, n: usize) -> Self {
        self.snippet_lines = n;
        self
    }
}

impl Function for MpiFunction {
    fn body(&self) -> FunctionBody {
        FunctionBody::Mpi {
            cmd: self.cmd.clone(),
            walltime_ms: self.walltime_ms,
            snippet_lines: self.snippet_lines,
        }
    }

    fn content_hash(&self) -> u64 {
        FunctionBody::hash_parts("mpi", &self.cmd, self.walltime_ms, self.snippet_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each type hashes its fields in place to what its body hashes to.
    #[test]
    fn content_hash_is_the_bodys() {
        let fns: [&dyn Function; 6] = [
            &PyFunction::new("def f():\n    return 1\n"),
            &ShellFunction::new("echo {x}"),
            &ShellFunction::new("sleep 2")
                .with_walltime(1.0)
                .with_snippet_lines(10),
            &MpiFunction::new("echo {x}"),
            &MpiFunction::new("hostname").with_walltime(2.5),
            &MpiFunction::new("hostname").with_snippet_lines(3),
        ];
        let hashes: Vec<u64> = fns.iter().map(|f| f.content_hash()).collect();
        for (f, hash) in fns.iter().zip(&hashes) {
            assert_eq!(*hash, f.body().content_hash(), "{:?}", f.body());
        }
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), fns.len());
    }

    #[test]
    fn pyfunction_body() {
        let f = PyFunction::new("def f():\n    return 1\n");
        assert!(matches!(f.body(), FunctionBody::PyFn { .. }));
    }

    #[test]
    fn shellfunction_builder() {
        let f = ShellFunction::new("sleep 2")
            .with_walltime(1.0)
            .with_snippet_lines(10);
        let FunctionBody::Shell {
            cmd,
            walltime_ms,
            snippet_lines,
        } = f.body()
        else {
            panic!()
        };
        assert_eq!(cmd, "sleep 2");
        assert_eq!(walltime_ms, Some(1000));
        assert_eq!(snippet_lines, 10);
        assert_eq!(f.cmd(), "sleep 2");
    }

    #[test]
    fn default_snippet_is_1000_lines() {
        let FunctionBody::Shell {
            snippet_lines,
            walltime_ms,
            ..
        } = ShellFunction::new("x").body()
        else {
            panic!()
        };
        assert_eq!(snippet_lines, 1000);
        assert_eq!(walltime_ms, None);
    }

    #[test]
    fn mpifunction_body() {
        let f = MpiFunction::new("hostname").with_walltime(2.5);
        let FunctionBody::Mpi {
            cmd, walltime_ms, ..
        } = f.body()
        else {
            panic!()
        };
        assert_eq!(cmd, "hostname");
        assert_eq!(walltime_ms, Some(2500));
        assert!(f.body().requires_mpi());
    }

    #[test]
    fn equal_functions_hash_equal() {
        let a = ShellFunction::new("echo hi").with_walltime(1.0);
        let b = ShellFunction::new("echo hi").with_walltime(1.0);
        assert_eq!(a.body().content_hash(), b.body().content_hash());
        let c = ShellFunction::new("echo hi");
        assert_ne!(a.body().content_hash(), c.body().content_hash());
    }
}
