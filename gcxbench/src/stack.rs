//! Builds the system under test through its public API: service (one
//! replica or a three-replica federation), optional TCP wire server, an
//! endpoint (real agent + engine, or a harness echo drain that takes the
//! endpoint out of the picture) and one SDK executor per endpoint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService, Token};
use gcx_cloud::{CloudConfig, Federation, FederationConfig, WebService, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::{SharedClock, SystemClock};
use gcx_core::error::GcxResult;
use gcx_core::ids::EndpointId;
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::TaskResult;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig, EngineStatus};
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, WireClientConfig};

use crate::trace::{SpanBuf, TraceCtl};

/// Liveness timeouts are raised on every stack so that no heartbeat expiry
/// fires during a run: expiry handling is not what any workload measures.
pub const NO_EXPIRY_MS: u64 = 600_000;

/// How the SDK reaches the service.
#[derive(Clone, Copy, PartialEq)]
pub enum Front {
    /// `Executor::with_config` on an in-process service handle.
    InProc,
    /// `WireServer::listen` on localhost + `Executor::over_wire`, one connection.
    Tcp,
    /// Three replicas on one broker, two endpoints with different ring
    /// owners, one `Executor::federated` per endpoint.
    Fed3,
}

/// What serves the endpoint's task queue.
#[derive(Clone, Copy)]
pub enum Backend {
    /// One harness thread per endpoint: `next_task` → `publish_result(x + 1)`
    /// → `ack_task`. No agent, engine or worker runs.
    Echo,
    /// A real `EndpointAgent` with the engine this YAML names.
    Engine(&'static str),
}

#[derive(Clone, Copy)]
pub struct Layout {
    pub front: Front,
    pub backend: Backend,
    /// `None` keeps `ExecutorConfig::default()` (20 ms / 128).
    pub batch_window: Option<Duration>,
}

/// A harness echo drain and the spans it recorded.
struct EchoDrain {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Option<SpanBuf>>,
}

pub struct Stack {
    svc: WebService,
    fed: Option<Federation>,
    server: Option<WireServer>,
    drains: Vec<EchoDrain>,
    agent: Option<EndpointAgent>,
    pub executors: Vec<Executor>,
    /// The service-side registry: cloud, mq, wire-server, federation and
    /// (for in-process executors) sdk counters all land here.
    metrics: MetricsRegistry,
}

impl Stack {
    /// Bring the whole stack up. `arg_offset` is subtracted from a task's
    /// integer argument to name the task in an echo drain's spans.
    pub fn build(
        layout: Layout,
        arg_offset: i64,
        trace: Option<&Arc<TraceCtl>>,
    ) -> GcxResult<Self> {
        let clock: SharedClock = SystemClock::shared();
        let broker = Broker::with_profile(
            MetricsRegistry::new(),
            clock.clone(),
            LinkProfile::instant(),
        );
        let auth = AuthService::new(clock.clone());
        let cloud_cfg = CloudConfig {
            heartbeat_timeout_ms: NO_EXPIRY_MS,
            ..CloudConfig::default()
        };
        let (svc, fed) = match layout.front {
            Front::Fed3 => {
                let fed = Federation::with_parts(
                    FederationConfig {
                        replicas: 3,
                        heartbeat_timeout_ms: NO_EXPIRY_MS,
                        ..FederationConfig::default()
                    },
                    cloud_cfg,
                    auth,
                    broker,
                    clock.clone(),
                );
                let r0 = fed.replica(0).expect("replica 0 of a fresh federation");
                (r0, Some(fed))
            }
            _ => (
                WebService::new(cloud_cfg, auth, broker, clock.clone()),
                None,
            ),
        };
        let metrics = svc.metrics().clone();
        let (_, token) = svc.auth().login("gcxbench@gcx.dev")?;

        let endpoints = match &fed {
            None => vec![register(&svc, &token, 0)?],
            Some(fed) => {
                // Two endpoints whose ring owners differ, so the federation
                // has ownership to look up and liveness to split.
                let first = register(&svc, &token, 0)?;
                let mut n = 1;
                let second = loop {
                    let reg = register(&svc, &token, n)?;
                    if fed.owner_of(reg.0.uuid()) != fed.owner_of(first.0.uuid()) {
                        break reg;
                    }
                    n += 1;
                };
                vec![first, second]
            }
        };

        let mut drains = Vec::new();
        let mut agent = None;
        match layout.backend {
            Backend::Echo => {
                for (slot, (ep, credential)) in endpoints.iter().enumerate() {
                    let session = svc.connect_endpoint(*ep, credential)?;
                    let stop = Arc::new(AtomicBool::new(false));
                    let stop2 = Arc::clone(&stop);
                    let trace = trace.map(|ctl| (Arc::clone(ctl), slot as u32 + 1));
                    let handle = std::thread::Builder::new()
                        .name(format!("gcxbench-echo-{slot}"))
                        .spawn(move || echo_loop(&session, &stop2, arg_offset, trace))
                        .expect("spawn echo drain");
                    drains.push(EchoDrain { stop, handle });
                }
            }
            Backend::Engine(yaml) => {
                let (ep, credential) = &endpoints[0];
                let config = EndpointConfig::from_yaml(yaml)?;
                agent = Some(EndpointAgent::start(
                    &svc,
                    *ep,
                    credential,
                    &config,
                    AgentEnv::local(clock),
                )?);
            }
        }

        let exec_cfg = ExecutorConfig {
            batch_window: layout
                .batch_window
                .unwrap_or(ExecutorConfig::default().batch_window),
            ..ExecutorConfig::default()
        };
        let mut server = None;
        let mut executors = Vec::new();
        for (ep, _) in &endpoints {
            executors.push(match layout.front {
                Front::InProc => {
                    Executor::with_config(svc.clone(), token.clone(), *ep, exec_cfg.clone())?
                }
                Front::Tcp => {
                    let listener = WireServer::listen(
                        &svc,
                        TransportSpec {
                            idle_timeout_ms: NO_EXPIRY_MS,
                            ..TransportSpec::default()
                        },
                    )?;
                    let addr = listener.addr().to_string();
                    server = Some(listener);
                    Executor::over_wire(
                        vec![addr],
                        &token.0,
                        *ep,
                        exec_cfg.clone(),
                        WireClientConfig::default(),
                    )?
                }
                Front::Fed3 => {
                    let dir = fed.as_ref().expect("fed3 has a federation").directory();
                    Executor::federated(dir, token.clone(), *ep, exec_cfg.clone())?
                }
            });
        }

        Ok(Self {
            svc,
            fed,
            server,
            drains,
            agent,
            executors,
            metrics,
        })
    }

    /// The program's own counters, by name. A counter a later change
    /// renames is simply absent here and reported as `n/a`.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.metrics.counter_snapshot()
    }

    /// The real engine's load, when this stack has one.
    pub fn engine_status(&self) -> Option<EngineStatus> {
        self.agent.as_ref().map(EndpointAgent::engine_status)
    }

    pub fn echo_drains(&self) -> usize {
        self.drains.len()
    }

    /// Stop every thread the stack started and wait for each; returns the
    /// echo drains' span buffers.
    pub fn teardown(self) -> Vec<SpanBuf> {
        for ex in self.executors {
            ex.close();
        }
        let mut bufs = Vec::new();
        for d in self.drains {
            d.stop.store(true, Ordering::Relaxed);
            if let Ok(Some(buf)) = d.handle.join() {
                bufs.push(buf);
            }
        }
        if let Some(agent) = self.agent {
            agent.stop();
        }
        if let Some(server) = self.server {
            server.shutdown();
        }
        match self.fed {
            Some(fed) => fed.shutdown(),
            None => self.svc.shutdown(),
        }
        bufs
    }
}

fn register(svc: &WebService, token: &Token, n: usize) -> GcxResult<(EndpointId, String)> {
    let reg = svc.register_endpoint(
        token,
        &format!("bench-ep-{n}"),
        false,
        AuthPolicy::open(),
        None,
    )?;
    Ok((reg.endpoint_id, reg.queue_credential))
}

/// Span task id for an echo-drain wait that ended without a task.
pub const NO_TASK: u32 = u32::MAX;

fn echo_loop(
    session: &gcx_cloud::EndpointSession,
    stop: &AtomicBool,
    arg_offset: i64,
    trace: Option<(Arc<TraceCtl>, u32)>,
) -> Option<SpanBuf> {
    let mut tracing = trace.map(|(ctl, slot)| {
        let buf = SpanBuf::new(ctl.epoch, slot);
        (ctl, buf)
    });
    let started = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let recording = tracing.as_ref().is_some_and(|(ctl, _)| ctl.recording());
        // Clock reads are taken only on waves that record spans.
        let stamp = || if recording { Instant::now() } else { started };
        let t0 = stamp();
        match session.next_task(Duration::from_millis(10)) {
            Ok(Some((spec, tag))) => {
                let t1 = stamp();
                // The echo computes the function's value from the argument
                // it was handed, so a mangled argument fails verification.
                let x = spec
                    .decode_args()
                    .ok()
                    .and_then(|(args, _)| args.first().and_then(Value::as_int));
                let result = match x {
                    Some(x) => TaskResult::ok(Value::Int(x + 1)),
                    None => TaskResult::Err("echo drain: no integer argument".into()),
                };
                let t2 = stamp();
                let _ = session.publish_result(spec.task_id, &result);
                let t3 = stamp();
                let _ = session.ack_task(tag);
                if let Some((ctl, buf)) = tracing.as_mut().filter(|_| recording) {
                    let t4 = Instant::now();
                    let parent = ctl.wave_span.load(Ordering::Relaxed);
                    let task = x.map_or(NO_TASK, |x| (x - arg_offset) as u32);
                    buf.push("echo.next_task", task, t0, t1, parent);
                    buf.push("echo.publish_result", task, t2, t3, parent);
                    buf.push("echo.ack_task", task, t3, t4, parent);
                }
            }
            Ok(None) => {
                if let Some((ctl, buf)) = tracing.as_mut().filter(|_| recording) {
                    let parent = ctl.wave_span.load(Ordering::Relaxed);
                    buf.push("echo.next_task", NO_TASK, t0, Instant::now(), parent);
                }
            }
            Err(_) => break,
        }
    }
    tracing.map(|(_, buf)| buf)
}
