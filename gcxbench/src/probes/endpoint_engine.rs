//! The engines on their own: `build_engine` + `Engine::submit`, counting
//! `Done` events. Throughput with a backlog, and one task on an idle engine.

use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver};
use gcx_core::function::{FunctionBody, FunctionRecord};
use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
use gcx_core::respec::ResourceSpec;
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_endpoint::agent::build_engine;
use gcx_endpoint::{AgentEnv, EndpointConfig, EngineEvent, ExecutableTask};

use super::{clock, Probe};
use crate::stats;

const BACKLOG: usize = 2000;
/// Backlog repetitions: the engines take ~0.3 s per 2000 tasks, so fewer
/// than the other probes to keep the pass short.
const BACKLOG_REPS: usize = 3;
const IDLE_SAMPLES: usize = 150;

fn wait_done(events: &Receiver<EngineEvent>, mut n: usize) {
    while n > 0 {
        match events.recv_timeout(Duration::from_secs(30)) {
            Ok(EngineEvent::Done { .. }) => n -= 1,
            Ok(_) => {}
            Err(_) => panic!("engine probe: a task never finished"),
        }
    }
}

/// (tasks/s with a backlog, if asked for; p50 µs of one task on the idle engine)
fn measure(p: &mut Probe<'_>, yaml: &str, body: FunctionBody, backlog: bool) -> (f64, f64) {
    let config = EndpointConfig::from_yaml(yaml).expect("engine yaml");
    let (tx, events) = unbounded();
    let mut engine = build_engine(&config, &AgentEnv::local(clock()), tx).expect("build_engine");
    let function = FunctionRecord {
        id: FunctionId::random(),
        owner: IdentityId::random(),
        body,
        registered_at: 0,
    };
    let mut tag = 0u64;
    let mut task = |p: &mut Probe<'_>| {
        let mut spec = TaskSpec::new(function.id, EndpointId::random());
        spec.set_args(vec![Value::Int(p.rng.below(1 << 40) as i64)], Value::None);
        if function.body.requires_mpi() {
            spec.resource_spec = ResourceSpec::nodes(1);
        }
        tag += 1;
        ExecutableTask {
            spec,
            function: function.clone(),
            tag,
        }
    };
    // The first task waits for the provider's block; it is the warm-up.
    engine.submit(task(p)).expect("submit");
    wait_done(&events, 1);

    let mut rates = Vec::new();
    for _ in 0..if backlog { BACKLOG_REPS } else { 0 } {
        let tasks: Vec<_> = (0..BACKLOG).map(|_| task(p)).collect();
        let from = Instant::now();
        for t in tasks {
            engine.submit(t).expect("submit");
        }
        wait_done(&events, BACKLOG);
        rates.push(BACKLOG as f64 / from.elapsed().as_secs_f64());
    }
    let mut idle: Vec<u64> = (0..IDLE_SAMPLES)
        .map(|_| {
            let t = task(p);
            let from = Instant::now();
            engine.submit(t).expect("submit");
            wait_done(&events, 1);
            from.elapsed().as_nanos() as u64
        })
        .collect();
    idle.sort_unstable();
    engine.shutdown();
    (
        stats::median(&rates),
        stats::percentile(&idle, 50.0) as f64 / 1e3,
    )
}

pub fn run(p: &mut Probe<'_>) {
    let plus_one = || FunctionBody::pyfn("def f(x):\n    return x + 1\n");
    let (rate, idle) = measure(
        p,
        "engine:\n  type: ThreadEngine\n  workers: 2\n",
        plus_one(),
        true,
    );
    p.out.insert("endpoint.engine.thread_tasks_per_s", rate);
    p.out.insert("endpoint.engine.thread_idle_task_us", idle);
    let (rate, idle) = measure(
        p,
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
        plus_one(),
        true,
    );
    p.out.insert("endpoint.engine.htex_tasks_per_s", rate);
    p.out.insert("endpoint.engine.htex_idle_task_us", idle);
    let (_, idle) = measure(
        p,
        "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 8\n  mpi_launcher: mpiexec\n",
        FunctionBody::mpi("true"),
        false,
    );
    p.out.insert("endpoint.engine.mpi_idle_launch_us", idle);
}
