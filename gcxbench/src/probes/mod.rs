//! Layer probes: each file times one module's public functions in
//! isolation, with inputs drawn from the seed. One probe per file, so a
//! later benchmark change can repair one without touching the rest.
//!
//! A probe figure is the median of [`REPS`] repetitions. Single calls are
//! repeated until a repetition lasts [`REP`]; probes that consume what they
//! measure (a pre-filled queue, a batch of specs) use fixed counts.

mod auth;
mod cloud_conn;
mod cloud_dispatch;
mod cloud_federation;
mod cloud_results;
mod cloud_session;
mod core_codec;
mod core_payload;
mod core_task;
mod core_wire;
mod endpoint_engine;
mod endpoint_worker;
mod mq_broker;
mod pyfn;
mod shell_mpi;

use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService, Token};
use gcx_cloud::{CloudConfig, EndpointSession, WebService};
use gcx_core::clock::{SharedClock, SystemClock};
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};

use crate::report::Values;
use crate::stack::NO_EXPIRY_MS;
use crate::stats::{self, Rng};

pub const REPS: usize = 5;
/// Shorter than a stand-alone micro-benchmark would use: the whole pass
/// shares a `--trace 1` run with the traced workload.
pub const REP: Duration = Duration::from_millis(20);

pub struct Probe<'a> {
    pub rng: &'a mut Rng,
    pub out: &'a mut Values,
}

/// Nanoseconds per call of `op`.
pub fn time_op(mut op: impl FnMut()) -> f64 {
    let mut run = |calls: u64| {
        let from = Instant::now();
        for _ in 0..calls {
            op();
        }
        from.elapsed()
    };
    // Double up to a millisecond's worth of calls (the warm-up), then scale
    // that count to a whole repetition.
    let mut calls = 1u64;
    let mut took = run(calls);
    while took < REP / 20 {
        calls *= 2;
        took = run(calls);
    }
    let calls = (calls as f64 * REP.as_secs_f64() / took.as_secs_f64()).ceil() as u64;
    let per_call: Vec<f64> = (0..REPS)
        .map(|_| run(calls).as_nanos() as f64 / calls as f64)
        .collect();
    stats::median(&per_call)
}

/// Nanoseconds per item of `run`, which consumes the `items`-sized state a
/// fresh `setup` hands it each repetition.
pub fn time_batch<S>(items: usize, mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    let per_item: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = setup();
            let from = Instant::now();
            run(state);
            from.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    stats::median(&per_item)
}

pub fn clock() -> SharedClock {
    SystemClock::shared()
}

/// A default-configured service with one user, one registered function and
/// one endpoint nobody serves unless the probe connects a session.
pub struct Service {
    pub svc: WebService,
    pub token: Token,
    pub function: FunctionId,
    pub endpoint: EndpointId,
    pub credential: String,
}

impl Service {
    pub fn new() -> Self {
        let clock = clock();
        let broker = Broker::with_profile(
            MetricsRegistry::new(),
            clock.clone(),
            LinkProfile::instant(),
        );
        let cfg = CloudConfig {
            heartbeat_timeout_ms: NO_EXPIRY_MS,
            ..CloudConfig::default()
        };
        let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
        let (_, token) = svc.auth().login("probe@gcx.dev").expect("login");
        let function = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x + 1\n"))
            .expect("register function");
        let reg = svc
            .register_endpoint(&token, "probe-ep", false, AuthPolicy::open(), None)
            .expect("register endpoint");
        Self {
            svc,
            token,
            function,
            endpoint: reg.endpoint_id,
            credential: reg.queue_credential,
        }
    }

    pub fn session(&self) -> EndpointSession {
        self.svc
            .connect_endpoint(self.endpoint, &self.credential)
            .expect("connect endpoint")
    }

    /// `n` small specs (one integer argument) for this service's endpoint.
    pub fn specs(&self, rng: &mut Rng, n: usize) -> Vec<TaskSpec> {
        small_specs(rng, self.function, self.endpoint, n)
    }
}

pub fn small_specs(
    rng: &mut Rng,
    function: FunctionId,
    endpoint: EndpointId,
    n: usize,
) -> Vec<TaskSpec> {
    (0..n)
        .map(|_| {
            let mut spec = TaskSpec::new(function, endpoint);
            spec.set_args(vec![Value::Int(rng.below(1 << 40) as i64)], Value::None);
            spec
        })
        .collect()
}

/// Run every probe; each inserts the metrics it owns.
pub fn run_all(rng: &mut Rng, out: &mut Values) {
    let from = Instant::now();
    let mut p = Probe { rng, out };
    type Run = fn(&mut Probe<'_>);
    let probes: [(&str, Run); 15] = [
        ("core_codec", core_codec::run),
        ("core_payload", core_payload::run),
        ("core_task", core_task::run),
        ("core_wire", core_wire::run),
        ("mq_broker", mq_broker::run),
        ("auth", auth::run),
        ("cloud_dispatch", cloud_dispatch::run),
        ("cloud_session", cloud_session::run),
        ("cloud_results", cloud_results::run),
        ("cloud_conn", cloud_conn::run),
        ("cloud_federation", cloud_federation::run),
        ("endpoint_engine", endpoint_engine::run),
        ("endpoint_worker", endpoint_worker::run),
        ("pyfn", pyfn::run),
        ("shell_mpi", shell_mpi::run),
    ];
    for (name, run) in probes {
        let started = Instant::now();
        run(&mut p);
        println!(
            "  probe {name:<18} {:>6.2} s",
            started.elapsed().as_secs_f64()
        );
    }
    println!("  layer probes took {:.1} s", from.elapsed().as_secs_f64());
}
