//! Convenience driver: run every experiment binary in sequence, then a
//! robustness soak that exercises the fault-injection and recovery
//! machinery and reports its counters.
//!
//! `cargo run --release -p gcx-bench --bin run_all` regenerates every
//! table/figure in EXPERIMENTS.md in one go (several minutes — the
//! data-movement sweep moves hundreds of simulated megabytes).

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gcx_auth::{AuthPolicy, AuthService};
use gcx_batch::{BatchScheduler, ClusterSpec, PartitionSpec, ResourceFaultPlan, ResourceFaultRule};
use gcx_bench::{JsonReport, Table};
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::{SharedClock, SystemClock, VirtualClock};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::respec::ResourceSpec;
use gcx_core::retry::RetryPolicy;
use gcx_core::value::Value;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, FaultDirection, FaultPlan, FaultRule, LinkProfile};
use gcx_sdk::{Executor, ExecutorConfig, MpiFunction, PyFunction};

const EXPERIMENTS: &[&str] = &[
    "fig2_usage",
    "shellfn_walltime",
    "mpifn_hostname",
    "executor_vs_polling",
    "batching_sweep",
    "mpi_partitioning",
    "mep_scaling",
    "data_movement",
    "service_scale",
    "latency_breakdown",
    "overload_soak",
    "ablation_sandbox",
    "ablation_multiplex",
    "ablation_proxy_cache",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!(
            "\n=== {name} {}",
            "=".repeat(60_usize.saturating_sub(name.len()))
        );
        let status = Command::new(bin_dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(*name);
        }
    }

    println!("\n=== robustness soak {}", "=".repeat(44));
    if let Err(e) = robustness_soak() {
        println!("  FAILED: {e}");
        failures.push("robustness_soak");
    }

    println!("\n=== resource-fault soak {}", "=".repeat(40));
    if let Err(e) = resource_fault_soak() {
        println!("  FAILED: {e}");
        failures.push("resource_fault_soak");
    }

    println!("\n=== engine parity {}", "=".repeat(46));
    if let Err(e) = engine_parity() {
        println!("  FAILED: {e}");
        failures.push("engine_parity");
    }

    println!("\n=== summary {}", "=".repeat(52));
    println!(
        "  {} experiments, {} failed",
        EXPERIMENTS.len() + 3,
        failures.len()
    );
    for f in &failures {
        println!("  FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// One combined chaos scenario — a hung agent declared offline by the
/// liveness monitor, poisoned deliveries dead-lettered and resubmitted, a
/// seeded fault plan dropping/duplicating messages, and a severed result
/// stream — followed by a report of the recovery counters.
fn robustness_soak() -> Result<(), String> {
    const TASKS: i64 = 24;
    let clock = SystemClock::shared();
    let cfg = CloudConfig {
        heartbeat_timeout_ms: 150,
        ..CloudConfig::default()
    };
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock.clone());
    let (_, token) = svc
        .auth()
        .login("soak@gcx.dev")
        .map_err(|e| e.to_string())?;
    let reg = svc
        .register_endpoint(&token, "soak-ep", false, AuthPolicy::open(), None)
        .map_err(|e| e.to_string())?;
    svc.broker().set_fault_plan(Some(
        FaultPlan::new(0xBADC0DE)
            .with_rule(FaultRule::drop("tasks.", FaultDirection::Deliver, 0.10))
            .with_rule(FaultRule::duplicate("results.", 0.10)),
    ));

    let ex = Executor::with_config(
        svc.clone(),
        token.clone(),
        reg.endpoint_id,
        ExecutorConfig {
            retry: RetryPolicy::fixed(4, 5),
            ..ExecutorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let square = PyFunction::new("def f(x):\n    return x * x\n");
    let futures: Vec<_> = (0..TASKS)
        .map(|i| ex.submit(&square, vec![Value::Int(i)], Value::None))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    // A doomed first agent: it nacks three tasks to death (dead-letter →
    // retryable failure → SDK resubmission), then hangs holding two more
    // deliveries until the liveness monitor declares it offline and
    // requeues them.
    let doomed = svc
        .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
        .map_err(|e| e.to_string())?;
    let mut ops = 0;
    while ops < 9 {
        if let Some((_, tag)) = doomed
            .next_task(Duration::from_millis(20))
            .map_err(|e| e.to_string())?
        {
            let _ = doomed.nack_task(tag);
            ops += 1;
        }
    }
    let mut held = 0;
    while held < 2 {
        if doomed
            .next_task(Duration::from_millis(20))
            .map_err(|e| e.to_string())?
            .is_some()
        {
            held += 1;
        }
    }
    std::thread::sleep(Duration::from_millis(250));
    svc.check_liveness();

    // A healthy replacement serves everything still queued or requeued.
    let config =
        EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n  workers_per_node: 4\n")
            .map_err(|e| e.to_string())?;
    let agent = EndpointAgent::start(
        &svc,
        reg.endpoint_id,
        &reg.queue_credential,
        &config,
        AgentEnv::local(clock),
    )
    .map_err(|e| e.to_string())?;

    // Sever the result stream mid-workload to exercise reconnect + catch-up.
    if let Some(q) = svc
        .broker()
        .queue_names()
        .into_iter()
        .find(|n| n.starts_with("stream."))
    {
        let _ = svc.broker().delete_queue(&q);
    }

    for (i, f) in futures.iter().enumerate() {
        let got = f
            .result_timeout(Duration::from_secs(30))
            .map_err(|e| format!("task {i}: {e}"))?;
        if got != Value::Int((i * i) as i64) {
            return Err(format!("task {i}: wrong result {got:?}"));
        }
    }

    let m = svc.metrics();
    let mut table = Table::new(&["counter", "value"]);
    for name in [
        "mq.dropped",
        "mq.duplicated",
        "mq.dead_lettered",
        "cloud.endpoints_offline",
        "cloud.retries",
        "cloud.tasks_dead_lettered",
        "cloud.duplicate_results_dropped",
        "sdk.tasks_resubmitted",
        "sdk.stream_reconnects",
    ] {
        table.row(&[name.to_string(), m.counter(name).get().to_string()]);
    }
    println!("  {TASKS} tasks, all completed with correct results despite the chaos:\n");
    table.print();
    let histos = m.histogram_snapshot();
    if !histos.is_empty() {
        let mut table = Table::new(&["histogram", "count", "mean", "p50", "p99"]);
        for (name, h) in &histos {
            table.row(&[
                name.clone(),
                h.count.to_string(),
                format!("{:.2}", h.mean),
                h.p50.to_string(),
                h.p99.to_string(),
            ]);
        }
        println!("\n  service-side latency histograms:\n");
        table.print();
    }
    ex.close();
    agent.stop();
    drop(doomed);
    svc.shutdown();
    Ok(())
}

/// Resource-layer soak: a two-partition simulated site where the batch
/// scheduler preempts the htex block mid-workload and crashes a node inside
/// an active MPI partition, on a virtual clock so the failure points are
/// deterministic. All layers must recover — block re-provisioning,
/// partition-table repair, task re-dispatch — and the recovery counters are
/// printed and emitted as `bench_results/resource_fault_soak.json`.
fn resource_fault_soak() -> Result<(), String> {
    const PYFN_TASKS: usize = 8;
    let vclock = VirtualClock::new();
    let clock: SharedClock = vclock.clone();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(
        CloudConfig {
            heartbeat_timeout_ms: 600_000,
            ..CloudConfig::default()
        },
        AuthService::new(clock.clone()),
        broker,
        clock.clone(),
    );
    let sched = BatchScheduler::new(
        ClusterSpec {
            name: "soak-site".into(),
            partitions: vec![
                PartitionSpec::sized("cpu", "cn", 2, 24 * 3600 * 1000),
                PartitionSpec::sized("mpi", "mn", 2, 24 * 3600 * 1000),
            ],
        },
        clock.clone(),
    );
    sched.set_fault_plan(Some(
        ResourceFaultPlan::new(0x50AC_BEEF)
            .with_rule(ResourceFaultRule::preempt("cpu", 1.0, 1_500).during(0, 2_000))
            .with_rule(ResourceFaultRule::node_crash("mpi", 1.0, 2_000, 3_000).during(0, 5_000)),
    ));

    let (_, token) = svc
        .auth()
        .login("resource-soak@gcx.dev")
        .map_err(|e| e.to_string())?;
    let mut agents = Vec::new();
    let mut endpoints = Vec::new();
    let mut engine_metrics = Vec::new();
    for (name, yaml) in [
        (
            "soak-cpu",
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: 2\n  workers_per_node: 2\n  provider:\n    type: SlurmProvider\n    partition: cpu\n    walltime: \"00:00:30\"\n",
        ),
        (
            "soak-mpi",
            "engine:\n  type: GlobusMPIEngine\n  nodes_per_block: 2\n  provider:\n    type: SlurmProvider\n    partition: mpi\n    walltime: \"00:01:00\"\n",
        ),
    ] {
        let reg = svc
            .register_endpoint(&token, name, false, AuthPolicy::open(), None)
            .map_err(|e| e.to_string())?;
        let mut env = AgentEnv::local(clock.clone());
        env.scheduler = Some(sched.clone());
        engine_metrics.push(env.metrics.clone());
        let config = EndpointConfig::from_yaml(yaml).map_err(|e| e.to_string())?;
        agents.push(
            EndpointAgent::start(&svc, reg.endpoint_id, &reg.queue_credential, &config, env)
                .map_err(|e| e.to_string())?,
        );
        endpoints.push(reg.endpoint_id);
    }

    let executor = |ep| {
        Executor::with_config(
            svc.clone(),
            token.clone(),
            ep,
            ExecutorConfig {
                retry: RetryPolicy::fixed(5, 5),
                ..ExecutorConfig::default()
            },
        )
        .map_err(|e| e.to_string())
    };
    let ex_cpu = executor(endpoints[0])?;
    let ex_mpi = executor(endpoints[1])?;

    let double = PyFunction::new("def f(x):\n    sleep(3)\n    return x * 2\n");
    let py_futures: Vec<_> = (0..PYFN_TASKS)
        .map(|i| ex_cpu.submit(&double, vec![Value::Int(i as i64)], Value::None))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    ex_mpi.set_resource_specification(ResourceSpec::nodes_ranks(2, 2));
    let big = ex_mpi
        .submit(&MpiFunction::new("sleep 4"), vec![], Value::None)
        .map_err(|e| e.to_string())?;
    ex_mpi.set_resource_specification(ResourceSpec::nodes_ranks(1, 1));
    let small: Vec<_> = (0..2)
        .map(|_| ex_mpi.submit(&MpiFunction::new("hostname"), vec![], Value::None))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    // Quiesce (4 pyfn workers + 2 MPI ranks asleep), then drive time.
    vclock.wait_for_sleepers(6);
    let driving = Arc::new(AtomicBool::new(true));
    let driver = {
        let vclock = vclock.clone();
        let driving = Arc::clone(&driving);
        std::thread::spawn(move || {
            while driving.load(Ordering::SeqCst) {
                vclock.advance(100);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut completed = 0u64;
    for (i, f) in py_futures.iter().enumerate() {
        let got = f
            .result_timeout(Duration::from_secs(60))
            .map_err(|e| format!("pyfn task {i}: {e}"))?;
        if got != Value::Int(i as i64 * 2) {
            return Err(format!("pyfn task {i}: wrong result {got:?}"));
        }
        completed += 1;
    }
    for (i, f) in std::iter::once(&big).chain(small.iter()).enumerate() {
        f.result_timeout(Duration::from_secs(60))
            .map_err(|e| format!("mpi task {i}: {e}"))?;
        completed += 1;
    }
    driving.store(false, Ordering::SeqCst);
    let _ = driver.join();

    let stats = sched.fault_stats();
    let m = svc.metrics();
    let htex_m = &engine_metrics[0];
    let mpi_m = &engine_metrics[1];
    let mut report = JsonReport::new("resource_fault_soak");
    report
        .num("tasks_completed", completed)
        .num("nodes_crashed", stats.nodes_crashed)
        .num("nodes_recovered", stats.nodes_recovered)
        .num("jobs_preempted", stats.jobs_preempted)
        .num("jobs_timed_out", stats.jobs_timed_out)
        .num(
            "htex_tasks_redispatched",
            htex_m.counter("htex.tasks_redispatched").get(),
        )
        .num(
            "mpi_partitions_repaired",
            mpi_m.counter("mpi.partitions_repaired").get(),
        )
        .num(
            "mpi_tasks_redispatched",
            mpi_m.counter("mpi.tasks_redispatched").get(),
        )
        .num(
            "mpi_blocks_replaced",
            mpi_m.counter("mpi.blocks_replaced").get(),
        )
        .num(
            "cloud_block_loss_reports",
            m.counter("cloud.block_loss_reports").get(),
        )
        .num(
            "cloud_block_recovery_reports",
            m.counter("cloud.block_recovery_reports").get(),
        )
        .num(
            "sdk_tasks_resubmitted",
            m.counter("sdk.tasks_resubmitted").get(),
        );
    let mut table = Table::new(&["counter", "value"]);
    for (k, v) in [
        ("nodes_crashed", stats.nodes_crashed),
        ("nodes_recovered", stats.nodes_recovered),
        ("jobs_preempted", stats.jobs_preempted),
        (
            "htex.tasks_redispatched",
            htex_m.counter("htex.tasks_redispatched").get(),
        ),
        (
            "mpi.partitions_repaired",
            mpi_m.counter("mpi.partitions_repaired").get(),
        ),
        (
            "mpi.tasks_redispatched",
            mpi_m.counter("mpi.tasks_redispatched").get(),
        ),
        (
            "mpi.blocks_replaced",
            mpi_m.counter("mpi.blocks_replaced").get(),
        ),
        (
            "cloud.block_loss_reports",
            m.counter("cloud.block_loss_reports").get(),
        ),
        (
            "cloud.block_recovery_reports",
            m.counter("cloud.block_recovery_reports").get(),
        ),
    ] {
        table.row(&[k.to_string(), v.to_string()]);
    }
    println!(
        "  {completed} tasks completed despite a preempted block and a node \
         crash inside an active MPI partition:\n"
    );
    table.print();
    let path = report
        .write_to(std::path::Path::new("bench_results"))
        .map_err(|e| e.to_string())?;
    println!("\n  recovery counters written to {}", path.display());

    if stats.jobs_preempted == 0 || stats.nodes_crashed == 0 {
        return Err(format!("faults did not fire: {stats:?}"));
    }
    ex_cpu.close();
    ex_mpi.close();
    for a in agents {
        a.stop();
    }
    svc.shutdown();
    Ok(())
}

/// Engine-parity check: the same single-task round trip over the instant
/// link through a `ThreadEngine` endpoint and a `GlobusComputeEngine`
/// endpoint. Both run the shared execution core, so the comparison isolates
/// the engine-specific leg (in-process worker vs interchange → manager →
/// worker). Latencies are reported, never thresholded — the check fails
/// only on a lost task or wrong result.
fn engine_parity() -> Result<(), String> {
    const WARMUP: usize = 10;
    const ROUNDS: usize = 100;
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let svc = WebService::new(
        CloudConfig::default(),
        AuthService::new(clock.clone()),
        broker,
        clock.clone(),
    );
    let (_, token) = svc
        .auth()
        .login("parity@gcx.dev")
        .map_err(|e| e.to_string())?;

    let mut report = JsonReport::new("engine_parity");
    let mut table = Table::new(&["engine", "rounds", "mean_us", "p50_us", "p99_us"]);
    let mut agents = Vec::new();
    let mut executors = Vec::new();
    for (label, yaml) in [
        ("thread", "engine:\n  type: ThreadEngine\n  workers: 1\n"),
        (
            "htex",
            "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 1\n",
        ),
    ] {
        let reg = svc
            .register_endpoint(
                &token,
                &format!("parity-{label}"),
                false,
                AuthPolicy::open(),
                None,
            )
            .map_err(|e| e.to_string())?;
        let config = EndpointConfig::from_yaml(yaml).map_err(|e| e.to_string())?;
        let agent = EndpointAgent::start(
            &svc,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(clock.clone()),
        )
        .map_err(|e| e.to_string())?;
        let ex = Executor::new(svc.clone(), token.clone(), reg.endpoint_id)
            .map_err(|e| e.to_string())?;

        let ident = PyFunction::new("def f(x):\n    return x\n");
        let round = |i: usize| -> Result<Duration, String> {
            let started = std::time::Instant::now();
            let fut = ex
                .submit(&ident, vec![Value::Int(i as i64)], Value::None)
                .map_err(|e| e.to_string())?;
            let got = fut
                .result_timeout(Duration::from_secs(20))
                .map_err(|e| format!("{label} round {i}: {e}"))?;
            if got != Value::Int(i as i64) {
                return Err(format!("{label} round {i}: wrong result {got:?}"));
            }
            Ok(started.elapsed())
        };
        for i in 0..WARMUP {
            round(i)?;
        }
        let mut us: Vec<u64> = (0..ROUNDS)
            .map(|i| round(i).map(|d| d.as_micros() as u64))
            .collect::<Result<_, _>>()?;
        us.sort_unstable();
        let mean = us.iter().sum::<u64>() / us.len() as u64;
        let p50 = us[us.len() / 2];
        let p99 = us[us.len() * 99 / 100];
        report
            .num(&format!("{label}_mean_us"), mean)
            .num(&format!("{label}_p50_us"), p50)
            .num(&format!("{label}_p99_us"), p99);
        table.row(&[
            label.to_string(),
            ROUNDS.to_string(),
            mean.to_string(),
            p50.to_string(),
            p99.to_string(),
        ]);
        agents.push(agent);
        executors.push(ex);
    }

    println!(
        "  {ROUNDS} sequential round trips per engine on the instant link \
         (engine leg isolated; numbers reported, not thresholded):\n"
    );
    table.print();
    let path = report
        .write_to(std::path::Path::new("bench_results"))
        .map_err(|e| e.to_string())?;
    println!("\n  parity numbers written to {}", path.display());

    for ex in executors {
        ex.close();
    }
    for a in agents {
        a.stop();
    }
    svc.shutdown();
    Ok(())
}
