//! `Client` — the traditional, polling SDK interface.
//!
//! Before the executor interface existed, users submitted tasks one REST
//! request at a time and "repeatedly poll[ed] for task status and to
//! retrieve results" (§III-A). This client reproduces that behaviour so the
//! `executor_vs_polling` experiment can compare the two paths on request
//! count, bytes over the wire, and time to result.

use std::time::{Duration, Instant};

use gcx_auth::Token;
use gcx_cloud::{CancelOutcome, ReplicaDirectory, WebService};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::value::Value;

use crate::functions::Function;
use crate::link::Link;

/// A polling client bound to one user token. Reaching the replica that owns
/// a task — redirects, rotation away from dead replicas, the union of a
/// batch poll across ownership shards — is the [`Link`]'s job, in-process
/// ([`Client::federated`]) and over the wire ([`Client::over_wire`]) alike.
pub struct Client {
    link: Link,
    token: Token,
}

impl Client {
    /// Create a client against a standalone service.
    pub fn new(cloud: WebService, token: Token) -> Self {
        Self {
            link: Link::local(cloud),
            token,
        }
    }

    /// Create a client against a federation, bootstrapping from any live
    /// replica in `directory`.
    pub fn federated(directory: ReplicaDirectory, token: Token) -> GcxResult<Self> {
        Ok(Self {
            link: Link::federated(directory)?,
            token,
        })
    }

    /// Create a client over the wire: framed transport to one or more
    /// wire-server addresses (`addrs[i]` = replica `i`'s listener).
    pub fn over_wire(
        addrs: Vec<String>,
        token: &str,
        cfg: gcx_cloud::WireClientConfig,
    ) -> GcxResult<Self> {
        Ok(Self {
            link: Link::connect(addrs, token, cfg)?,
            token: Token(token.to_string()),
        })
    }

    /// The underlying link (local handle or wire connection).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The bearer token.
    pub fn token(&self) -> &Token {
        &self.token
    }

    /// Close the link (drops the wire connection; a no-op locally).
    pub fn close(&self) {
        self.link.close();
    }

    /// Register a function, returning its immutable id.
    pub fn register_function(&self, function: &dyn Function) -> GcxResult<FunctionId> {
        self.register_body(function.body())
    }

    /// Register a raw body.
    pub fn register_body(&self, body: FunctionBody) -> GcxResult<FunctionId> {
        self.link.register_function(&self.token, body)
    }

    /// Submit one task (one REST request).
    pub fn run(
        &self,
        function_id: FunctionId,
        endpoint_id: EndpointId,
        args: Vec<Value>,
        kwargs: Value,
    ) -> GcxResult<TaskId> {
        let mut spec = TaskSpec::new(function_id, endpoint_id);
        spec.set_args(args, kwargs);
        self.run_spec(spec)
    }

    /// Submit a task with full control over the spec.
    pub fn run_spec(&self, spec: TaskSpec) -> GcxResult<TaskId> {
        self.link.submit_task(&self.token, spec)
    }

    /// One status poll (one REST request).
    pub fn task_status(&self, task: TaskId) -> GcxResult<(TaskState, Option<TaskResult>)> {
        self.link.task_status(&self.token, task)
    }

    /// Cancel a task (best effort). Returns what actually happened:
    /// cancelling a task that already finished is a typed no-op
    /// ([`CancelOutcome::AlreadyTerminal`]), not an error, and the landed
    /// result is left intact.
    pub fn cancel(&self, task: TaskId) -> GcxResult<CancelOutcome> {
        self.link.cancel_task(&self.token, task)
    }

    /// Poll a whole batch of tasks in one REST request until all complete,
    /// returning results in submission order.
    pub fn get_batch_results(
        &self,
        tasks: &[TaskId],
        interval: Duration,
        timeout: Duration,
    ) -> GcxResult<Vec<GcxResult<Value>>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut done: std::collections::HashMap<TaskId, GcxResult<Value>> =
            std::collections::HashMap::new();
        while done.len() < tasks.len() {
            let remaining: Vec<TaskId> = tasks
                .iter()
                .filter(|t| !done.contains_key(t))
                .copied()
                .collect();
            for (id, state, result) in self.link.task_status_batch(&self.token, &remaining)? {
                if state.is_terminal() {
                    let outcome = result
                        .ok_or_else(|| GcxError::Internal("terminal task without result".into()))
                        .and_then(TaskResult::into_result);
                    done.insert(id, outcome);
                }
            }
            if done.len() == tasks.len() {
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(GcxError::Timeout(format!(
                    "{} of {} tasks after {timeout:?}",
                    tasks.len() - done.len(),
                    tasks.len()
                )));
            }
            std::thread::sleep(interval);
        }
        Ok(tasks
            .iter()
            .map(|t| done.remove(t).expect("all tasks resolved"))
            .collect())
    }

    /// Poll every `interval` until the task completes or `timeout` passes —
    /// the pre-executor usage pattern.
    pub fn get_result(
        &self,
        task: TaskId,
        interval: Duration,
        timeout: Duration,
    ) -> GcxResult<Value> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let (state, result) = self.task_status(task)?;
            if state.is_terminal() {
                return result
                    .ok_or_else(|| GcxError::Internal("terminal task without result".into()))?
                    .into_result();
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(GcxError::Timeout(format!("task {task} after {timeout:?}")));
            }
            std::thread::sleep(interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::PyFunction;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::SystemClock;
    use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};

    fn stack() -> (WebService, Client, EndpointId, EndpointAgent) {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
        )
        .unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();
        let client = Client::new(svc.clone(), token);
        (svc, client, reg.endpoint_id, agent)
    }

    #[test]
    fn poll_until_result() {
        let (svc, client, ep, agent) = stack();
        let fid = client
            .register_function(&PyFunction::new("def f(x):\n    return x + 1\n"))
            .unwrap();
        let task = client
            .run(fid, ep, vec![Value::Int(9)], Value::None)
            .unwrap();
        let v = client
            .get_result(task, Duration::from_millis(5), Duration::from_secs(10))
            .unwrap();
        assert_eq!(v, Value::Int(10));
        // Polling left a visible trail of status requests.
        assert!(svc.metrics().counter("cloud.status_polls").get() >= 1);
        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn task_exception_surfaces_as_execution_error() {
        let (svc, client, ep, agent) = stack();
        let fid = client
            .register_function(&PyFunction::new("def f():\n    raise 'bad data'\n"))
            .unwrap();
        let task = client.run(fid, ep, vec![], Value::None).unwrap();
        let err = client
            .get_result(task, Duration::from_millis(5), Duration::from_secs(10))
            .unwrap_err();
        assert!(matches!(err, GcxError::Execution(m) if m.contains("bad data")));
        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn get_result_times_out() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("u@x.y").unwrap();
        let client = Client::new(svc.clone(), token);
        let fid = client
            .register_function(&PyFunction::new("def f():\n    return 1\n"))
            .unwrap();
        // Endpoint registered but never connected: task stays buffered.
        let reg = svc
            .register_endpoint(client.token(), "offline", false, AuthPolicy::open(), None)
            .unwrap();
        let task = client
            .run(fid, reg.endpoint_id, vec![], Value::None)
            .unwrap();
        let err = client
            .get_result(task, Duration::from_millis(5), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, GcxError::Timeout(_)));
        svc.shutdown();
    }
}

#[cfg(test)]
mod batch_poll_tests {
    use super::*;
    use crate::functions::PyFunction;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::SystemClock;
    use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("batch@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n",
        )
        .unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();
        let client = Client::new(svc.clone(), token);
        let fid = client
            .register_function(&PyFunction::new("def f(x):\n    return x * 3\n"))
            .unwrap();
        let ids: Vec<TaskId> = (0..12)
            .map(|i| {
                client
                    .run(fid, reg.endpoint_id, vec![Value::Int(i)], Value::None)
                    .unwrap()
            })
            .collect();
        let results = client
            .get_batch_results(&ids, Duration::from_millis(5), Duration::from_secs(10))
            .unwrap();
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), Value::Int(i as i64 * 3));
        }
        agent.stop();
        svc.shutdown();
    }
}
