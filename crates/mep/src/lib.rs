//! # gcx-mep
//!
//! Multi-user endpoints (§IV of the paper): an administrator-deployed
//! process manager that spawns *user endpoints* on demand.
//!
//! "At its core, the multi-user endpoint is a process manager: it starts
//! user endpoint agents upon request from the Globus Compute service.
//! Importantly, a multi-user endpoint does not run tasks for users. It
//! starts child processes (`fork()`) on the host (becoming the appropriate
//! local user and dropping privileges), and lets the user compute endpoint
//! agent (`exec()`) process tasks as normal" — here, "child process" is a
//! fresh [`gcx_endpoint::EndpointAgent`] running under a per-local-user
//! environment produced by the administrator's environment factory.
//!
//! The flow of Fig. 1:
//! 1. a user submits a task to the MEP with a `user_endpoint_config`;
//! 2. the web service (see `gcx-cloud`) hashes the config, pre-registers a
//!    user endpoint for `(identity, hash)` if none exists, and publishes a
//!    *Start Endpoint* request on the MEP's command queue;
//! 3. this crate consumes the request: maps the Globus identity to a local
//!    account (`gcx-auth`'s identity mapping, §IV-A.2), validates the user
//!    config against the administrator's schema (§IV-A.3), renders the
//!    Jinja template into a concrete endpoint configuration, and starts the
//!    user endpoint agent, which connects and drains its buffered tasks.
//!
//! Unauthorized identities (no mapping rule matches) get their buffered
//! tasks failed with a `PermissionError` rather than leaving them queued
//! forever.
//! Idle user endpoints are reaped ("once the submitted tasks are completed,
//! the user endpoint is destroyed").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::{IdentityMapper, MappingOutcome};
use gcx_cloud::{MepStartRequest, WebService};
use gcx_config::{Schema, Template};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::EndpointId;
use gcx_core::task::TaskResult;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::Cancel;
use parking_lot::Mutex;

/// Builds the execution environment for a local user's endpoint — the
/// administrator's policy for what a "forked, privilege-dropped" agent sees.
pub type EnvFactory = Arc<dyn Fn(&str) -> AgentEnv + Send + Sync>;

/// Administrator-side setup of a multi-user endpoint.
pub struct MepSetup {
    /// Identity mapping rules (Listing 8).
    pub mapper: IdentityMapper,
    /// The endpoint configuration template (Listing 9).
    pub template: Template,
    /// Optional schema constraining the user config (Listing 10's shape).
    pub schema: Option<Schema>,
    /// Environment factory keyed by local username.
    pub env_factory: EnvFactory,
    /// Destroy user endpoints idle longer than this.
    pub idle_shutdown: Option<Duration>,
}

impl MepSetup {
    /// A setup with the given mapper and template and library defaults.
    pub fn new(mapper: IdentityMapper, template: Template, env_factory: EnvFactory) -> Self {
        Self {
            mapper,
            template,
            schema: None,
            env_factory,
            idle_shutdown: None,
        }
    }
}

/// A record of one spawned user endpoint.
struct SpawnedEndpoint {
    /// The local account it runs as.
    local_user: String,
    agent: Option<EndpointAgent>,
}

struct MepState {
    spawned: HashMap<EndpointId, SpawnedEndpoint>,
    denied: u64,
    total_spawned: u64,
}

/// A running multi-user endpoint.
pub struct MultiUserEndpoint {
    state: Arc<Mutex<MepState>>,
    /// Ends the command loop's wait on its queue.
    stop_commands: Cancel,
    command_thread: Option<std::thread::JoinHandle<()>>,
}

impl MultiUserEndpoint {
    /// Start the MEP: consume its command queue and spawn user endpoints.
    ///
    /// `mep_endpoint_id`/`credential` come from the administrator's
    /// registration (`register_endpoint(…, multi_user=true, …)`).
    pub fn start(
        cloud: WebService,
        mep_endpoint_id: EndpointId,
        credential: &str,
        setup: MepSetup,
    ) -> GcxResult<Self> {
        let commands = cloud.connect_mep_commands(mep_endpoint_id, credential)?;
        let state = Arc::new(Mutex::new(MepState {
            spawned: HashMap::new(),
            denied: 0,
            total_spawned: 0,
        }));
        let stop_commands = commands.canceller();
        let (idle_budget, mep_state) = (setup.idle_shutdown, Arc::clone(&state));
        // Idle user endpoints are reaped on this loop's own wake-ups: a
        // command, or the next reap that is due. With none live, nothing is
        // due; `stop()` cancels the wait.
        let mut reap_due: Option<Instant> = None;
        let command_thread = std::thread::Builder::new()
            .name(format!("gcx-mep-{mep_endpoint_id}"))
            .spawn(move || loop {
                let wait = reap_due.map_or(Duration::MAX, |due| {
                    due.saturating_duration_since(Instant::now())
                });
                let Ok(command) = commands.next(wait) else {
                    return;
                };
                if let Some(delivery) = command {
                    let _ = gcx_core::codec::decode(&delivery.message.body)
                        .and_then(|v| MepStartRequest::from_value(&v))
                        .and_then(|req| handle_start_request(&cloud, &setup, &mep_state, req));
                    let _ = commands.ack(delivery.tag);
                }
                reap_due = reap_idle(&mep_state, idle_budget);
            })
            .map_err(|e| GcxError::Internal(format!("spawn mep: {e}")))?;

        Ok(Self {
            state,
            stop_commands,
            command_thread: Some(command_thread),
        })
    }

    /// Number of currently live user endpoints.
    pub fn live_endpoints(&self) -> usize {
        self.state
            .lock()
            .spawned
            .values()
            .filter(|s| s.agent.is_some())
            .count()
    }

    /// Total user endpoints ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.state.lock().total_spawned
    }

    /// Requests denied by identity mapping.
    pub fn denied(&self) -> u64 {
        self.state.lock().denied
    }

    /// Local users with live endpoints (sorted, deduplicated).
    pub fn local_users(&self) -> Vec<String> {
        let mut users: Vec<String> = self
            .state
            .lock()
            .spawned
            .values()
            .map(|s| s.local_user.clone())
            .collect();
        users.sort();
        users.dedup();
        users
    }

    /// Stop the MEP and every spawned user endpoint.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop_commands.cancel();
        if let Some(h) = self.command_thread.take() {
            let _ = h.join();
        }
        let mut state = self.state.lock();
        for (_, mut spawned) in state.spawned.drain() {
            if let Some(agent) = spawned.agent.take() {
                agent.stop();
            }
        }
    }
}

impl Drop for MultiUserEndpoint {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Stop every live user endpoint that has held no task for `idle`, and
/// return when the next one is due (`None`: no budget, none live, or a
/// budget past what an `Instant` holds); one busy now is due a budget on.
fn reap_idle(state: &Mutex<MepState>, idle: Option<Duration>) -> Option<Instant> {
    let budget = idle?;
    let mut due: Option<Instant> = None;
    for spawned in state.lock().spawned.values_mut() {
        let Some(agent) = &spawned.agent else {
            continue;
        };
        let idle_for = agent.idle_for();
        if idle_for >= budget {
            if let Some(agent) = spawned.agent.take() {
                agent.stop();
            }
            continue;
        }
        let reap_at = Instant::now().checked_add(budget - idle_for);
        due = due.into_iter().chain(reap_at).min();
    }
    due
}

fn handle_start_request(
    cloud: &WebService,
    setup: &MepSetup,
    state: &Arc<Mutex<MepState>>,
    req: MepStartRequest,
) -> GcxResult<()> {
    // §IV-A.2: identity mapping decides authorization AND the local account.
    let identity = cloud.auth().identity(req.identity)?;
    let local_user = match setup.mapper.map(&identity)? {
        MappingOutcome::Local(user) => user,
        MappingOutcome::Denied => {
            state.lock().denied += 1;
            // Fail the tasks already buffered for this UEP so users see the
            // denial instead of an eternal queue.
            fail_buffered_tasks(
                cloud,
                req.uep_endpoint_id,
                &req.queue_credential,
                &format!(
                    "PermissionError: identity '{}' is not authorized on this endpoint",
                    identity.username
                ),
            );
            return Ok(());
        }
    };

    // §IV-A.3: validate, then render the admin template with the user config.
    if let Some(schema) = &setup.schema {
        if let Err(e) = schema.validate(&req.user_config) {
            fail_buffered_tasks(
                cloud,
                req.uep_endpoint_id,
                &req.queue_credential,
                &format!("ValueError: user endpoint configuration rejected: {e}"),
            );
            return Ok(());
        }
    }
    let rendered = match setup.template.render(&req.user_config) {
        Ok(text) => text,
        Err(e) => {
            fail_buffered_tasks(
                cloud,
                req.uep_endpoint_id,
                &req.queue_credential,
                &format!("ValueError: template rendering failed: {e}"),
            );
            return Ok(());
        }
    };
    let config = EndpointConfig::from_yaml(&rendered)?;

    // "fork(), become the local user, exec() the agent".
    let env = (setup.env_factory)(&local_user);
    let agent = EndpointAgent::start(
        cloud,
        req.uep_endpoint_id,
        &req.queue_credential,
        &config,
        env,
    )?;

    let mut st = state.lock();
    st.total_spawned += 1;
    // A restart request replaces any previous (reaped) agent for this UEP.
    if let Some(prev) = st.spawned.insert(
        req.uep_endpoint_id,
        SpawnedEndpoint {
            local_user,
            agent: Some(agent),
        },
    ) {
        if let Some(old_agent) = prev.agent {
            old_agent.stop();
        }
    }
    Ok(())
}

/// Drain a (never-to-start) user endpoint's queue, failing each task.
fn fail_buffered_tasks(cloud: &WebService, uep: EndpointId, credential: &str, message: &str) {
    let Ok(session) = cloud.connect_endpoint(uep, credential) else {
        return;
    };
    while let Ok(Some((spec, tag))) = session.next_task(Duration::from_millis(50)) {
        let _ = session.publish_result(spec.task_id, &TaskResult::Err(message.to_string()));
        let _ = session.ack_task(tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_auth::{AuthPolicy, ExpressionMapping, Identity};
    use gcx_core::clock::SystemClock;
    use gcx_core::value::Value;
    use gcx_sdk::{Executor, PyFunction};

    const TEMPLATE: &str =
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: {{ WORKERS|default(1) }}\n";

    fn mep_schema() -> Schema {
        Schema::compile(&Value::map([
            ("type", Value::str("object")),
            (
                "properties",
                Value::map([(
                    "WORKERS",
                    Value::map([
                        ("type", Value::str("integer")),
                        ("minimum", Value::Int(1)),
                        ("maximum", Value::Int(8)),
                    ]),
                )]),
            ),
            ("additionalProperties", Value::Bool(false)),
        ]))
        .unwrap()
    }

    fn setup_mapper() -> IdentityMapper {
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping::username_capture("uchicago.edu"))
            .unwrap();
        mapper
    }

    fn start_stack(schema: Option<Schema>) -> (WebService, EndpointId, MultiUserEndpoint) {
        start_stack_with(setup_mapper(), schema)
    }

    fn start_stack_with(
        mapper: IdentityMapper,
        schema: Option<Schema>,
    ) -> (WebService, EndpointId, MultiUserEndpoint) {
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, admin) = svc.auth().login("admin@uchicago.edu").unwrap();
        let reg = svc
            .register_endpoint(&admin, "cluster-mep", true, AuthPolicy::open(), None)
            .unwrap();
        let setup = MepSetup {
            mapper,
            template: Template::parse(TEMPLATE).unwrap(),
            schema,
            env_factory: Arc::new(|local_user: &str| {
                let mut env = AgentEnv::local(SystemClock::shared());
                env.hostname = format!("node-{local_user}");
                env
            }),
            idle_shutdown: None,
        };
        let mep =
            MultiUserEndpoint::start(svc.clone(), reg.endpoint_id, &reg.queue_credential, setup)
                .unwrap();
        (svc, reg.endpoint_id, mep)
    }

    #[test]
    fn task_to_mep_spawns_uep_and_runs() {
        let (svc, mep_id, mep) = start_stack(None);
        let (_, token) = svc.auth().login("kyle@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        ex.set_user_endpoint_config(Value::map([("WORKERS", Value::Int(2))]));
        let f = PyFunction::new("def f():\n    return hostname()\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let v = fut.result_timeout(Duration::from_secs(15)).unwrap();
        // The env factory proves the identity mapping ran: hostname embeds
        // the mapped local user.
        assert!(v.as_str().unwrap().starts_with("node-kyle"), "{v}");
        assert_eq!(mep.live_endpoints(), 1);
        assert_eq!(mep.local_users(), vec!["kyle"]);
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    /// §IV-A.2's external callout: the program's answer is the local
    /// account the user endpoint runs as, and no answer refuses the task.
    #[test]
    fn external_callout_maps_or_refuses() {
        let mut mapper = IdentityMapper::new();
        mapper.add_callout(|id: &Identity| {
            (id.username == "kyle@uchicago.edu").then(|| "kchard".to_string())
        });
        let (svc, mep_id, mep) = start_stack_with(mapper, None);
        let f = PyFunction::new("def f():\n    return hostname()\n");

        let (_, token) = svc.auth().login("kyle@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let v = fut.result_timeout(Duration::from_secs(15)).unwrap();
        assert!(v.as_str().unwrap().starts_with("node-kchard"), "{v}");
        assert_eq!(mep.local_users(), vec!["kchard"]);
        ex.close();

        let (_, token) = svc.auth().login("eve@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(15)).unwrap_err();
        assert!(
            matches!(&err, GcxError::Execution(m) if m.starts_with("PermissionError")),
            "{err}"
        );
        assert_eq!(mep.denied(), 1);
        assert_eq!(mep.total_spawned(), 1);
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    #[test]
    fn thread_engine_template_spawns_provider_less_uep() {
        // A MEP template can hand out provider-less ThreadEngine user
        // endpoints — the non-batch deployment mode for login nodes and
        // workstations — through the same spawn-on-demand path.
        let svc = WebService::with_defaults(SystemClock::shared());
        let (_, admin) = svc.auth().login("admin@uchicago.edu").unwrap();
        let reg = svc
            .register_endpoint(&admin, "thread-mep", true, AuthPolicy::open(), None)
            .unwrap();
        let setup = MepSetup {
            mapper: setup_mapper(),
            template: Template::parse(
                "engine:\n  type: ThreadEngine\n  workers: {{ WORKERS|default(2) }}\n",
            )
            .unwrap(),
            schema: None,
            env_factory: Arc::new(|local_user: &str| {
                let mut env = AgentEnv::local(SystemClock::shared());
                env.hostname = format!("node-{local_user}");
                env
            }),
            idle_shutdown: None,
        };
        let mep =
            MultiUserEndpoint::start(svc.clone(), reg.endpoint_id, &reg.queue_credential, setup)
                .unwrap();
        let (_, token) = svc.auth().login("lei@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, reg.endpoint_id).unwrap();
        ex.set_user_endpoint_config(Value::map([("WORKERS", Value::Int(1))]));
        let f = PyFunction::new("def f(x):\n    return x + 1\n");
        let fut = ex.submit(&f, vec![Value::Int(41)], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(15)).unwrap(),
            Value::Int(42)
        );
        assert_eq!(mep.live_endpoints(), 1);
        assert_eq!(mep.local_users(), vec!["lei"]);
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    #[test]
    fn same_config_reuses_uep_different_config_spawns_new() {
        let (svc, mep_id, mep) = start_stack(None);
        let (_, token) = svc.auth().login("kyle@uchicago.edu").unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let config_a = Value::map([("WORKERS", Value::Int(1))]);
        let config_b = Value::map([("WORKERS", Value::Int(2))]);

        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        ex.set_user_endpoint_config(config_a.clone());
        ex.submit(&f, vec![], Value::None)
            .unwrap()
            .result_timeout(Duration::from_secs(15))
            .unwrap();
        ex.set_user_endpoint_config(config_a);
        ex.submit(&f, vec![], Value::None)
            .unwrap()
            .result_timeout(Duration::from_secs(15))
            .unwrap();
        assert_eq!(mep.total_spawned(), 1, "same config hash → same UEP");

        ex.set_user_endpoint_config(config_b);
        ex.submit(&f, vec![], Value::None)
            .unwrap()
            .result_timeout(Duration::from_secs(15))
            .unwrap();
        assert_eq!(mep.total_spawned(), 2, "different hash → new UEP");
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    #[test]
    fn unmapped_identity_is_denied_and_tasks_fail() {
        let (svc, mep_id, mep) = start_stack(None);
        let (_, token) = svc.auth().login("intruder@evil.example").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(15)).unwrap_err();
        assert!(matches!(err, GcxError::Execution(m) if m.contains("not authorized")));
        assert_eq!(mep.denied(), 1);
        assert_eq!(mep.live_endpoints(), 0);
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    #[test]
    fn schema_rejects_bad_user_config() {
        let (svc, mep_id, mep) = start_stack(Some(mep_schema()));
        let (_, token) = svc.auth().login("kyle@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        // WORKERS above the schema maximum.
        ex.set_user_endpoint_config(Value::map([("WORKERS", Value::Int(64))]));
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        let err = fut.result_timeout(Duration::from_secs(15)).unwrap_err();
        assert!(matches!(err, GcxError::Execution(m) if m.contains("configuration rejected")));
        ex.close();
        mep.stop();
        svc.shutdown();
    }

    #[test]
    fn injection_attempt_is_blocked_by_schema() {
        let (svc, mep_id, mep) = start_stack(Some(mep_schema()));
        let (_, token) = svc.auth().login("kyle@uchicago.edu").unwrap();
        let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
        // Smuggling an unknown key (additionalProperties: false).
        ex.set_user_endpoint_config(Value::map([
            ("WORKERS", Value::Int(1)),
            ("PARTITION", Value::str("root; rm -rf /")),
        ]));
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert!(fut.result_timeout(Duration::from_secs(15)).is_err());
        mep.stop();
        ex.close();
        svc.shutdown();
    }

    #[test]
    fn two_users_get_separate_ueps() {
        let (svc, mep_id, mep) = start_stack(None);
        let f = PyFunction::new("def f():\n    return hostname()\n");
        for user in ["alice@uchicago.edu", "bob@uchicago.edu"] {
            let (_, token) = svc.auth().login(user).unwrap();
            let ex = Executor::new(svc.clone(), token, mep_id).unwrap();
            let fut = ex.submit(&f, vec![], Value::None).unwrap();
            let v = fut.result_timeout(Duration::from_secs(15)).unwrap();
            let expected = format!("node-{}", user.split('@').next().unwrap());
            assert!(v.as_str().unwrap().starts_with(&expected));
            ex.close();
        }
        assert_eq!(mep.total_spawned(), 2);
        assert_eq!(mep.local_users(), vec!["alice", "bob"]);
        mep.stop();
        svc.shutdown();
    }
}

#[cfg(test)]
mod idle_tests {
    use super::*;
    use gcx_auth::{AuthPolicy, ExpressionMapping, IdentityMapper};
    use gcx_core::clock::SystemClock;
    use gcx_core::value::Value;
    use gcx_sdk::{Executor, PyFunction};

    /// Idle user endpoints are reaped, and a later submission transparently
    /// respawns them ("once the submitted tasks are completed, the user
    /// endpoint is destroyed" — §IV-B).
    #[test]
    fn idle_shutdown_reaps_and_respawn_works() {
        let cloud = WebService::with_defaults(SystemClock::shared());
        let (_, admin) = cloud.auth().login("admin@site.edu").unwrap();
        let reg = cloud
            .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
            .unwrap();
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping::username_capture("site.edu"))
            .unwrap();
        let setup = MepSetup {
            mapper,
            template: Template::parse(
                "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 1\n",
            )
            .unwrap(),
            schema: None,
            env_factory: Arc::new(|_| AgentEnv::local(SystemClock::shared())),
            idle_shutdown: Some(Duration::from_millis(120)),
        };
        let mep =
            MultiUserEndpoint::start(cloud.clone(), reg.endpoint_id, &reg.queue_credential, setup)
                .unwrap();

        let (_, token) = cloud.auth().login("ada@site.edu").unwrap();
        let ex = Executor::new(cloud.clone(), token, reg.endpoint_id).unwrap();
        let f = PyFunction::new("def f():\n    return 7\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(15)).unwrap(),
            Value::Int(7)
        );
        assert_eq!(mep.live_endpoints(), 1);

        // Idle out: the reaper destroys the user endpoint.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mep.live_endpoints() != 0 {
            assert!(std::time::Instant::now() < deadline, "UEP never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }

        // A new submission with the same config transparently respawns it.
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(15)).unwrap(),
            Value::Int(7)
        );
        assert_eq!(mep.live_endpoints(), 1, "respawned on demand");
        assert_eq!(
            cloud.metrics().counter("mep.uep_respawn_requested").get(),
            1
        );
        assert_eq!(mep.total_spawned(), 2, "two agent starts, one logical UEP");
        assert_eq!(cloud.user_endpoints_of(reg.endpoint_id).len(), 1);

        ex.close();
        mep.stop();
        cloud.shutdown();
    }

    /// An idle budget too long to add to an instant never reaps, and the
    /// command loop keeps serving: a second user's endpoint still spawns.
    #[test]
    fn an_endless_idle_budget_never_reaps() {
        let cloud = WebService::with_defaults(SystemClock::shared());
        let (_, admin) = cloud.auth().login("admin@site.edu").unwrap();
        let reg = cloud
            .register_endpoint(&admin, "mep", true, AuthPolicy::open(), None)
            .unwrap();
        let mut mapper = IdentityMapper::new();
        mapper
            .add_expression(ExpressionMapping::username_capture("site.edu"))
            .unwrap();
        let setup = MepSetup {
            mapper,
            template: Template::parse("engine:\n  type: GlobusComputeEngine\n").unwrap(),
            schema: None,
            env_factory: Arc::new(|_| AgentEnv::local(SystemClock::shared())),
            idle_shutdown: Some(Duration::MAX),
        };
        let mep =
            MultiUserEndpoint::start(cloud.clone(), reg.endpoint_id, &reg.queue_credential, setup)
                .unwrap();
        let f = PyFunction::new("def f():\n    return 7\n");
        for user in ["ada@site.edu", "bob@site.edu"] {
            let (_, token) = cloud.auth().login(user).unwrap();
            let ex = Executor::new(cloud.clone(), token, reg.endpoint_id).unwrap();
            let fut = ex.submit(&f, vec![], Value::None).unwrap();
            assert_eq!(
                fut.result_timeout(Duration::from_secs(10)).unwrap(),
                Value::Int(7),
                "{user}"
            );
            ex.close();
        }
        assert_eq!(mep.live_endpoints(), 2);
        mep.stop();
        cloud.shutdown();
    }
}
