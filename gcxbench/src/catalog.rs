//! The metric catalogue: every name the benchmark prints, with unit and
//! direction, and for end-to-end metrics the share of the parent's median by
//! which a change may worsen it. `BENCHMARK.json` is generated from this
//! file (`gcxbench --emit-benchmark-json`), so the two cannot drift.
//!
//! `README.md` records, for each per-layer metric, which end-to-end metric
//! on which workload it is predicted to move.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (`--trace 0`).
///
/// Only what repeats on every gated workload is here. CPU per task is
/// printed by the same run and is a per-layer metric of the traced run
/// (`run.cpu_us_per_task`): on the CPU-limited workloads it restates
/// `tasks_per_s` (the process keeps ~1.7 of 2 cores busy whatever the rate),
/// and on `rtt_tcp` it is the cost of the poll loops, which ten runs spread
/// by 8-20% (README "Repeatability").
///
/// The bounds on the times are as wide as the contract allows: ten runs
/// spread 1-8% (interquartile range over median), and the host can do worse
/// for minutes at a time.
pub const END_TO_END: &[EndToEnd] = &[
    // Build a fresh stack + connect + register + warm-up waves, median over
    // the run's repetitions.
    e("setup_s", "s", "lower", 0.25),
    // Tasks per wave / median wave time, median over repetitions. On
    // `rtt_tcp` 1 / median round trip, on `mpi_pack` 24 / median makespan.
    e("tasks_per_s", "1/s", "higher", 0.25),
    // `submit()` call to result in the generator's hand: percentile within
    // blocks of >= 1000 samples, median over blocks.
    e("latency_p50_us", "us", "lower", 0.25),
    e("latency_p99_us", "us", "lower", 0.25),
    // VmHWM when the first repetition ends; one workload per process. Ten
    // runs spread 1-4%.
    e("rss_peak_mib", "MiB", "lower", 0.2),
];

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Printed by `--trace 1`: `run.*` and `sdk.*` come from the traced run of
/// the workload (spans + deltas of the program's own counters), the rest from
/// the layer probes. A metric that does not apply to the workload (or whose
/// counter no longer exists) reads 0 in the result line and `n/a` in the table.
pub const PER_LAYER: &[PerLayer] = &[
    // ---- traced run ----
    m("sdk.executor.submit_call_ns", "ns", "lower"),
    m("sdk.executor.tasks_per_request", "count", "higher"),
    m("run.gen.submit_share", "ratio", "lower"),
    m("run.engine.queued_mean", "count", "lower"),
    m("run.engine.running_share", "ratio", "higher"),
    m("run.echo.wait_share", "ratio", "higher"),
    m("run.echo.publish_result_ns_p50", "ns", "lower"),
    m("run.api.requests_per_ktask", "count", "lower"),
    m("run.api.bytes_per_task", "B", "lower"),
    m("run.mq.messages_per_task", "count", "lower"),
    m("run.mq.bytes_per_task", "B", "lower"),
    m("run.wire.frames_per_ktask", "count", "lower"),
    m("run.fed.submits_forwarded_share", "ratio", "lower"),
    m("run.fed.results_forwarded_share", "ratio", "lower"),
    m("run.payload.encodes_per_task", "count", "lower"),
    m("run.payload.decodes_per_task", "count", "lower"),
    m("run.payload.moved_per_arg_byte", "ratio", "lower"),
    m("run.cas.hit_ratio", "ratio", "higher"),
    m("run.args.mib_per_s", "MiB/s", "higher"),
    m("run.mpi.makespan_s", "s", "lower"),
    m("run.mpi.node_utilization", "ratio", "higher"),
    m("run.cpu_us_per_task", "us", "lower"),
    m("run.latency_p50_us", "us", "lower"),
    m("run.latency_p99_us", "us", "lower"),
    m("run.host_speed_index", "ratio", "higher"),
    m("run.threads_peak", "count", "lower"),
    m("run.trace_overhead_pct", "%", "lower"),
    // ---- layer probes ----
    m("core.codec.encode_small_ns", "ns", "lower"),
    m("core.codec.decode_small_ns", "ns", "lower"),
    m("core.payload.encode_args_48k_us", "us", "lower"),
    m("core.payload.decode_args_48k_us", "us", "lower"),
    m("core.payload.hash_mib_per_s", "MiB/s", "higher"),
    m("core.task.to_message_ns", "ns", "lower"),
    m("core.task.from_message_ns", "ns", "lower"),
    m("core.task.to_envelope_ns", "ns", "lower"),
    m("core.task.from_envelope_ns", "ns", "lower"),
    m("core.wire.encode_frame_batch128_us", "us", "lower"),
    m("core.wire.decode_frame_batch128_us", "us", "lower"),
    m("core.wire.inmem_frame_rtt_us", "us", "lower"),
    m("core.wire.tcp_frame_rtt_us", "us", "lower"),
    m("mq.broker.publish_ns", "ns", "lower"),
    m("mq.broker.publish_batch128_ns_per_msg", "ns", "lower"),
    m("mq.broker.next_ack_ns", "ns", "lower"),
    m("auth.introspect_ns", "ns", "lower"),
    m("cloud.dispatch.submit_batch128_ns_per_task", "ns", "lower"),
    m("cloud.session.next_task_ns", "ns", "lower"),
    m("cloud.session.publish_result_ns", "ns", "lower"),
    m("cloud.session.ack_ns", "ns", "lower"),
    m("cloud.results.land_ns_per_task", "ns", "lower"),
    m("cloud.conn.call_rtt_us", "us", "lower"),
    m("cloud.conn.submit_batch128_ns_per_task_tcp", "ns", "lower"),
    m(
        "cloud.conn.submit_batch128_ns_per_task_inmem_wire",
        "ns",
        "lower",
    ),
    m("cloud.conn.push_ns_per_result_tcp", "ns", "lower"),
    m("cloud.federation.submit_owner_ns_per_task", "ns", "lower"),
    m("cloud.federation.submit_forward_ns_per_task", "ns", "lower"),
    m("endpoint.engine.thread_tasks_per_s", "1/s", "higher"),
    m("endpoint.engine.htex_tasks_per_s", "1/s", "higher"),
    m("endpoint.engine.thread_idle_task_us", "us", "lower"),
    m("endpoint.engine.htex_idle_task_us", "us", "lower"),
    m("endpoint.engine.mpi_idle_launch_us", "us", "lower"),
    m("endpoint.worker.execute_pyfn_noop_us", "us", "lower"),
    m("endpoint.worker.execute_pyfn_48k_us", "us", "lower"),
    m("pyfn.compile_ns", "ns", "lower"),
    m("pyfn.call_noop_ns", "ns", "lower"),
    m("shell.mpi_launch_4rank_us", "us", "lower"),
];
