//! Task execution on a worker.
//!
//! A worker takes a task (spec + resolved function body) and produces a
//! [`TaskResult`]:
//! - mini-Python bodies run in the `gcx-pyfn` interpreter under a host that
//!   sleeps on the endpoint's clock and reports the worker's node hostname;
//! - `ShellFunction` bodies are formatted with the invocation kwargs
//!   (Listing 2), executed in the mini shell against the endpoint host's
//!   VFS, optionally inside a per-task sandbox directory (§III-B.2), with
//!   walltime enforcement (§III-B.3), and return a `ShellResult` with
//!   captured stream snippets (§III-B.1);
//! - MPI bodies are rejected here — they need the `GlobusMPIEngine`.

use std::collections::BTreeMap;

use gcx_core::clock::SharedClock;
use gcx_core::function::FunctionBody;
use gcx_core::shellres::ShellResult;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_pyfn::{Limits, Program, SystemHost};
use gcx_shell::{format_command, ShellExecutor, Vfs};

/// Fixed execution context of one worker.
pub struct WorkerContext {
    /// The endpoint host's filesystem (shared across workers).
    pub(crate) vfs: Vfs,
    /// The endpoint's clock.
    pub(crate) clock: SharedClock,
    /// Hostname of the node this worker runs on.
    pub(crate) hostname: String,
    /// Endpoint working directory (default cwd for ShellFunctions).
    pub(crate) endpoint_dir: String,
    /// Create a unique per-task sandbox directory for ShellFunctions.
    pub sandbox: bool,
    /// pyfn execution limits.
    pub(crate) limits: Limits,
    /// Optional transform applied to args/kwargs before execution (proxy
    /// resolution, §V-B).
    pub(crate) resolver: Option<crate::engine::ValueTransform>,
}

impl WorkerContext {
    /// A context with defaults rooted at `/endpoint`.
    pub fn new(vfs: Vfs, clock: SharedClock, hostname: impl Into<String>) -> Self {
        let ctx = Self {
            vfs,
            clock,
            hostname: hostname.into(),
            endpoint_dir: "/endpoint".to_string(),
            sandbox: false,
            limits: Limits::default(),
            resolver: None,
        };
        let _ = ctx.vfs.mkdir_p(&ctx.endpoint_dir);
        ctx
    }

    /// Execute one task to completion. The payload is decoded exactly once
    /// here — the single decode on the endpoint side of the zero-copy plane.
    pub fn execute(&self, spec: &TaskSpec, body: &FunctionBody) -> TaskResult {
        let (mut args, mut kwargs) = match spec.decode_args() {
            Ok(parts) => parts,
            Err(e) => return TaskResult::Err(format!("ValueError: bad task payload: {e}")),
        };
        // Proxy resolution (§V-B) runs on the decoded values.
        if let Some(resolver) = &self.resolver {
            let resolved: gcx_core::error::GcxResult<Vec<_>> =
                args.into_iter().map(|v| resolver(v)).collect();
            match (resolved, resolver(kwargs)) {
                (Ok(a), Ok(k)) => {
                    args = a;
                    kwargs = k;
                }
                (Err(e), _) | (_, Err(e)) => return TaskResult::Err(format!("ProxyError: {e}")),
            }
        }
        match body {
            FunctionBody::PyFn { source } => self.run_pyfn(spec, source, args, &kwargs),
            FunctionBody::Shell {
                cmd,
                walltime_ms,
                snippet_lines,
            } => self.run_shell(spec, cmd, *walltime_ms, *snippet_lines, &kwargs),
            FunctionBody::Mpi { .. } => TaskResult::Err(
                "TypeError: MPIFunction requires an endpoint running the GlobusMPIEngine"
                    .to_string(),
            ),
        }
    }

    fn run_pyfn(
        &self,
        spec: &TaskSpec,
        source: &str,
        args: Vec<gcx_core::value::Value>,
        kwargs: &gcx_core::value::Value,
    ) -> TaskResult {
        let program = match Program::compile(source) {
            Ok(p) => p,
            Err(e) => return TaskResult::Err(format!("SyntaxError: {e}")),
        };
        // Seed the host from the task id so reruns are reproducible but
        // distinct tasks see different random streams.
        let seed = spec.task_id.uuid().0 as u64;
        let mut host = SystemHost::new(self.clock.clone(), seed, self.hostname.clone());
        match program.call_entry(args, kwargs, &mut host, self.limits) {
            Ok(v) => TaskResult::ok(v),
            Err(e) => TaskResult::Err(e.to_string()),
        }
    }

    fn run_shell(
        &self,
        spec: &TaskSpec,
        cmd_template: &str,
        walltime_ms: Option<u64>,
        snippet_lines: usize,
        kwargs: &gcx_core::value::Value,
    ) -> TaskResult {
        let cmd = match format_command(cmd_template, kwargs) {
            Ok(c) => c,
            Err(e) => return TaskResult::Err(format!("ValueError: {e}")),
        };
        // §III-B.2: sandboxed tasks get a unique directory named by task id.
        let cwd = if self.sandbox {
            let dir = format!("{}/tasks/{}", self.endpoint_dir, spec.task_id);
            if let Err(e) = self.vfs.mkdir_p(&dir) {
                return TaskResult::Err(format!("OSError: {e}"));
            }
            dir
        } else {
            self.endpoint_dir.clone()
        };
        let mut env = BTreeMap::new();
        env.insert("HOSTNAME".to_string(), self.hostname.clone());
        env.insert("GC_TASK_UUID".to_string(), spec.task_id.to_string());
        env.insert("GC_SANDBOX".to_string(), cwd.clone());

        let shell = ShellExecutor::new(self.vfs.clone(), self.clock.clone());
        match shell.run(&cmd, &env, &cwd, walltime_ms) {
            Ok(out) => {
                let result = ShellResult {
                    returncode: out.returncode,
                    stdout: ShellResult::snippet(&out.stdout, snippet_lines),
                    stderr: ShellResult::snippet(&out.stderr, snippet_lines),
                    cmd,
                };
                TaskResult::ok(result.to_value())
            }
            Err(e) => TaskResult::Err(format!("OSError: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::SystemClock;
    use gcx_core::ids::{EndpointId, FunctionId};
    use gcx_core::value::Value;

    fn ctx() -> WorkerContext {
        WorkerContext::new(Vfs::new(), SystemClock::shared(), "node-7")
    }

    fn spec_with(args: Vec<Value>, kwargs: Value) -> TaskSpec {
        let mut s = TaskSpec::new(FunctionId::random(), EndpointId::random());
        s.set_args(args, kwargs);
        s
    }

    #[test]
    fn pyfn_executes_and_returns() {
        let c = ctx();
        let body = FunctionBody::pyfn("def f(a, b):\n    return a * b\n");
        let r = c.execute(
            &spec_with(vec![Value::Int(6), Value::Int(7)], Value::None),
            &body,
        );
        assert_eq!(r, TaskResult::ok(Value::Int(42)));
    }

    #[test]
    fn pyfn_exception_becomes_err() {
        let c = ctx();
        let body = FunctionBody::pyfn("def f():\n    return 1 / 0\n");
        let TaskResult::Err(msg) = c.execute(&spec_with(vec![], Value::None), &body) else {
            panic!()
        };
        assert!(msg.contains("ZeroDivisionError"));
    }

    #[test]
    fn pyfn_syntax_error_reported() {
        let c = ctx();
        let body = FunctionBody::pyfn("def f(:\n    oops\n");
        let TaskResult::Err(msg) = c.execute(&spec_with(vec![], Value::None), &body) else {
            panic!()
        };
        assert!(msg.contains("SyntaxError"));
    }

    #[test]
    fn pyfn_hostname_builtin_sees_worker_node() {
        let c = ctx();
        let body = FunctionBody::pyfn("def f():\n    return hostname()\n");
        let r = c.execute(&spec_with(vec![], Value::None), &body);
        assert_eq!(r, TaskResult::ok(Value::str("node-7")));
    }

    #[test]
    fn pyfn_rand_is_reproducible_per_task() {
        let c = ctx();
        let body = FunctionBody::pyfn("def f():\n    return rand()\n");
        let s = spec_with(vec![], Value::None);
        let a = c.execute(&s, &body);
        let b = c.execute(&s, &body);
        assert_eq!(a, b, "same task id → same random stream");
        let other = spec_with(vec![], Value::None);
        assert_ne!(
            c.execute(&other, &body),
            a,
            "different task → different stream"
        );
    }

    #[test]
    fn listing2_shellfunction_echo() {
        let c = ctx();
        let body = FunctionBody::shell("echo '{message}'");
        for msg in ["hello", "hola", "bonjour"] {
            let kwargs = Value::map([("message", Value::str(msg))]);
            let r = c.execute(&spec_with(vec![], kwargs), &body);
            let Some(v) = r.ok_value() else { panic!() };
            let sr = ShellResult::from_value(&v).unwrap();
            assert_eq!(sr.returncode, 0);
            assert_eq!(sr.stdout, format!("{msg}\n"));
            assert_eq!(sr.cmd, format!("echo '{msg}'"));
        }
    }

    #[test]
    fn shell_missing_kwarg_is_error() {
        let c = ctx();
        let body = FunctionBody::shell("echo '{message}'");
        let TaskResult::Err(msg) = c.execute(&spec_with(vec![], Value::None), &body) else {
            panic!()
        };
        assert!(msg.contains("message"));
    }

    #[test]
    fn shell_snippet_lines_respected() {
        let c = ctx();
        let body = FunctionBody::Shell {
            cmd: "seq 100".into(),
            walltime_ms: None,
            snippet_lines: 5,
        };
        let Some(v) = c.execute(&spec_with(vec![], Value::None), &body).ok_value() else {
            panic!()
        };
        let sr = ShellResult::from_value(&v).unwrap();
        assert_eq!(sr.stdout, "96\n97\n98\n99\n100\n");
    }

    #[test]
    fn sandbox_isolates_tasks() {
        let mut c = ctx();
        c.sandbox = true;
        let body = FunctionBody::shell("echo mine > out.txt");
        let s1 = spec_with(vec![], Value::None);
        let s2 = spec_with(vec![], Value::None);
        c.execute(&s1, &body);
        c.execute(&s2, &body);
        // Each task wrote to its own directory.
        assert!(c
            .vfs
            .exists(&format!("/endpoint/tasks/{}/out.txt", s1.task_id)));
        assert!(c
            .vfs
            .exists(&format!("/endpoint/tasks/{}/out.txt", s2.task_id)));
        assert!(!c.vfs.exists("/endpoint/out.txt"));
    }

    #[test]
    fn without_sandbox_tasks_share_cwd() {
        let c = ctx(); // sandbox = false
        let body = FunctionBody::shell("echo data >> shared.txt");
        c.execute(&spec_with(vec![], Value::None), &body);
        c.execute(&spec_with(vec![], Value::None), &body);
        let text = c.vfs.read_to_string("/endpoint/shared.txt").unwrap();
        assert_eq!(
            text.lines().count(),
            2,
            "contention: both tasks hit one file"
        );
    }

    #[test]
    fn mpi_body_rejected_without_mpi_engine() {
        let c = ctx();
        let body = FunctionBody::mpi("hostname");
        let TaskResult::Err(msg) = c.execute(&spec_with(vec![], Value::None), &body) else {
            panic!()
        };
        assert!(msg.contains("GlobusMPIEngine"));
    }

    #[test]
    fn shell_env_has_task_uuid() {
        let c = ctx();
        let body = FunctionBody::shell("echo $GC_TASK_UUID");
        let s = spec_with(vec![], Value::None);
        let Some(v) = c.execute(&s, &body).ok_value() else {
            panic!()
        };
        let sr = ShellResult::from_value(&v).unwrap();
        assert_eq!(sr.stdout.trim(), s.task_id.to_string());
    }
}
