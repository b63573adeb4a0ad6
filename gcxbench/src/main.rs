//! `gcxbench` — one repeatable end-to-end + per-layer benchmark of the gcx
//! task path. See `README.md` beside this package for the workload table, the
//! metric catalogue and how the layers are predicted to interact.
//!
//! Two ways in:
//! - `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends with a one-line JSON summary
//!   (`--trace 0`: the end-to-end metrics; `--trace 1`: a traced run of the
//!   workload plus the layer probes, the per-layer metrics);
//! - without `--workload` it runs every workload (the four `BENCHMARK.json`
//!   lists and the three diagnostic ones), each in a child process of
//!   its own so resident-set peaks do not leak across workloads, then the
//!   traced runs and the probe pass, and writes
//!   `bench_results/gcxbench/latest.json`.
//!
//! The benchmark touches the program only through its public API, reads its
//! counters by name, and records its own spans around its own calls.

mod catalog;
mod probes;
mod report;
mod speed;
mod stack;
mod stats;
mod trace;
mod workload;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use catalog::{END_TO_END, PER_LAYER};
use report::{Summary, Values};
use stats::{Rng, Spread};
use workload::{Rep, Workload};

const RESULTS_DIR: &str = "bench_results/gcxbench";

/// Which parts of a single-workload run to execute (hidden `--part`, used
/// by the all-workloads mode to avoid running the probes once per workload).
#[derive(Clone, Copy, PartialEq)]
enum Part {
    /// End-to-end, tracing off.
    Run,
    /// Traced run of the workload.
    Traced,
    /// Layer probes.
    Probes,
    /// Traced run + probes: what `--trace 1` means.
    TracedAndProbes,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    part: Option<Part>,
    only: Option<String>,
    trace: bool,
    layers: bool,
    selfcheck: bool,
    emit_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        part: None,
        only: None,
        trace: false,
        layers: false,
        selfcheck: false,
        emit_json: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(i)?),
            "--only" => args.only = Some(value(i)?),
            "--seed" => args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--part" => {
                args.part = Some(match value(i)?.as_str() {
                    "run" => Part::Run,
                    "traced" => Part::Traced,
                    "probes" => Part::Probes,
                    other => return Err(format!("unknown part {other:?}")),
                })
            }
            // `--trace 0|1` as the driver passes it, or bare for the
            // all-workloads mode.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => {
                    args.trace = true;
                    i += 1;
                    continue;
                }
            },
            "--layers" => {
                args.layers = true;
                i += 1;
                continue;
            }
            "--selfcheck" => {
                args.selfcheck = true;
                i += 1;
                continue;
            }
            "--emit-benchmark-json" => {
                args.emit_json = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".into(),
        rev => rev.chars().take(12).collect(),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Seed, revision, machine and build, printed on every invocation; returns
/// the same as JSON fields.
fn run_header(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let load = stats::load_average();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (rev, rustc) = (git_revision(), rustc_version());
    println!(
        "gcxbench  seed={seed}  rev={rev}  nproc={nproc}  load1={load:.2}  {rustc}  profile={profile}"
    );
    if load > nproc as f64 {
        println!("WARNING: load average {load:.2} exceeds nproc {nproc}: timings will be noisy");
    }
    if profile != "release" {
        println!("WARNING: not a release build: do not quote these numbers");
    }
    format!(
        "\"seed\": {seed}, \"rev\": \"{rev}\", \"nproc\": {nproc}, \"load1\": {load}, \"rustc\": \"{}\", \"profile\": \"{profile}\"",
        report::json_escape(&rustc)
    )
}

fn emit_benchmark_json(seconds: u64) {
    let workloads: Vec<String> = workloads::all()
        .iter()
        .filter(|w| w.gated)
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                report::json_escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    println!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"gcxbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"gcxbench\"],\n  \"run_seconds\": {seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    );
}

// ---------------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------------

/// p50 and p99 task latency in µs: taken within blocks of whole waves
/// holding at least 1000 samples (so that ten lie beyond a p99), then the
/// median over all blocks of the run, which one slow wave cannot move. A
/// repetition shorter than a block is one block. With `at_reference_speed`
/// a block's percentiles are scaled by its repetition's `time_scale`.
fn latency_us(w: &Workload, reps: &[Rep], at_reference_speed: bool) -> (f64, f64) {
    let block = w.wave * 1000usize.div_ceil(w.wave);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for rep in reps {
        let whole = rep.latency_ns.len() / block * block;
        let samples = if whole == 0 {
            &rep.latency_ns[..]
        } else {
            &rep.latency_ns[..whole]
        };
        let scale = if at_reference_speed {
            rep.time_scale() / 1e3
        } else {
            1e-3
        };
        for chunk in samples.chunks(block) {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            p50.push(stats::percentile(&sorted, 50.0) as f64 * scale);
            p99.push(stats::percentile(&sorted, 99.0) as f64 * scale);
        }
    }
    (stats::median(&p50), stats::median(&p99))
}

/// End-to-end metrics of an untraced run over fresh stacks. CPU per task
/// comes for free and is printed, but is not an end-to-end metric (see
/// `catalog.rs`).
///
/// On a CPU-limited workload every time is reported at the reference host
/// speed (`speed.rs`): each repetition's figure is scaled by what the speed
/// index and the busy share measured during that repetition make of it
/// (`Rep::time_scale`), then the median over repetitions is taken. Elsewhere
/// the scale is 1 and the figures are as measured.
fn end_to_end(w: &Workload, reps: &[Rep]) -> Values {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let setup = Spread::of(&per_rep(&|r| r.setup_s * r.time_scale()));
    let rate = Spread::of(&per_rep(&|r| r.tasks_per_s(w.wave, false) / r.time_scale()));
    let cpu_us = |r: &Rep| r.cpu_s * 1e6 / r.measured_tasks as f64;
    let cpu = Spread::of(&per_rep(&|r| cpu_us(r) * r.speed_index()));
    // Later repetitions run on a heap the earlier ones left fragmented, and
    // their peaks differ 20-30% between identical runs; the first one's peak
    // (a fresh process, one stack, a fixed number of tasks) repeats within 2%.
    let (rss, rss_run) = (reps[0].rss_peak_mib, reps[reps.len() - 1].rss_peak_mib);
    let (p50, p99) = latency_us(w, reps, true);
    let samples: usize = reps.iter().map(|r| r.latency_ns.len()).sum();
    println!(
        "  repetitions: {} fresh stacks x {} measured waves of {} tasks",
        reps.len(),
        reps[0].wave_s.len(),
        w.wave
    );
    println!("  as measured, per repetition:");
    println!(
        "    rep    setup_s  tasks_per_s  cpu_us_per_task  busy share  host speed index (bursts)"
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "    {:>3} {:>10.4} {:>12.1} {:>16.3} {:>11.3}  {:>16.4} ({})",
            i + 1,
            r.setup_s,
            r.tasks_per_s(w.wave, false),
            cpu_us(r),
            r.busy_share(),
            r.speed_index(),
            r.burst_s.len()
        );
    }
    let at = if w.cpu_limited {
        "at the reference host speed"
    } else {
        "as measured"
    };
    println!("  median over repetitions, {at}:");
    println!("  setup_s          {setup}");
    println!("  tasks_per_s      {rate}");
    println!("  cpu_us_per_task  {cpu}");
    println!("  latency          p50 {p50:.1} us, p99 {p99:.1} us over {samples} samples");
    println!(
        "  rss_peak_mib     {rss:.4} after the first repetition ({rss_run:.4} after the last)"
    );
    Values::from([
        ("setup_s", setup.median),
        ("tasks_per_s", rate.median),
        ("latency_p50_us", p50),
        ("latency_p99_us", p99),
        ("rss_peak_mib", rss),
    ])
}

/// Per-layer metrics of one traced repetition: spans the harness recorded
/// around its own calls, and deltas of the program's counters.
fn traced_metrics(w: &Workload, rep: &Rep, out: &mut Values) {
    let tasks = rep.measured_tasks.max(1) as f64;
    let counter = |name: &str| rep.counters.get(name).map(|v| *v as f64);
    let sum2 = |a: &str, b: &str| Some(counter(a)? + counter(b)?);
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            out.insert(name, v);
        }
    };

    let durations = |name: &str| -> Vec<u64> {
        let mut d: Vec<u64> = rep
            .spans
            .iter()
            .flat_map(|b| b.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    };
    let submit = durations("sdk.submit");
    put(
        "sdk.executor.submit_call_ns",
        (!submit.is_empty()).then(|| stats::percentile(&submit, 50.0) as f64),
    );
    put(
        "sdk.executor.tasks_per_request",
        counter("api.requests").map(|r| tasks / r),
    );
    let wave_total: f64 = rep.wave_s.iter().sum();
    put(
        "run.gen.submit_share",
        Some(rep.submit_s.iter().sum::<f64>() / wave_total),
    );
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    put("run.engine.queued_mean", mean(&rep.queued_samples));
    put("run.engine.running_share", mean(&rep.running_share_samples));
    if rep.echo_drains > 0 {
        let traced_wall: f64 = rep
            .wave_s
            .iter()
            .zip(&rep.wave_traced)
            .filter(|(_, t)| **t)
            .map(|(s, _)| s * 1e9)
            .sum();
        let waited: u64 = durations("echo.next_task").iter().sum();
        put(
            "run.echo.wait_share",
            Some(waited as f64 / (traced_wall * rep.echo_drains as f64)),
        );
        let publish = durations("echo.publish_result");
        put(
            "run.echo.publish_result_ns_p50",
            Some(stats::percentile(&publish, 50.0) as f64),
        );
    }
    put(
        "run.api.requests_per_ktask",
        counter("api.requests").map(|r| r * 1e3 / tasks),
    );
    put(
        "run.api.bytes_per_task",
        sum2("api.bytes_in", "api.bytes_out").map(|b| b / tasks),
    );
    put(
        "run.mq.messages_per_task",
        counter("mq.messages_published").map(|n| n / tasks),
    );
    put(
        "run.mq.bytes_per_task",
        counter("mq.bytes_published").map(|b| b / tasks),
    );
    put(
        "run.wire.frames_per_ktask",
        sum2("wire.frames_in", "wire.frames_out").map(|f| f * 1e3 / tasks),
    );
    put(
        "run.fed.submits_forwarded_share",
        counter("fed.submits_forwarded").map(|n| n / tasks),
    );
    put(
        "run.fed.results_forwarded_share",
        counter("fed.results_forwarded").map(|n| n / tasks),
    );
    put(
        "run.payload.encodes_per_task",
        Some(rep.encodes as f64 / tasks),
    );
    put(
        "run.payload.decodes_per_task",
        Some(rep.decodes as f64 / tasks),
    );
    put(
        "run.payload.moved_per_arg_byte",
        counter("payload.bytes_moved").map(|b| b / rep.arg_bytes.max(1) as f64),
    );
    put(
        "run.cas.hit_ratio",
        sum2("blob.cas_hits", "blob.cas_misses")
            .and_then(|total| Some(counter("blob.cas_hits")? / total)),
    );
    put(
        "run.args.mib_per_s",
        Some(rep.arg_bytes as f64 / wave_total / (1 << 20) as f64),
    );
    if let Some(block) = &w.mpi_block {
        let makespan = stats::median(&rep.wave_s);
        put("run.mpi.makespan_s", Some(makespan));
        put(
            "run.mpi.node_utilization",
            Some(block.useful_node_seconds / (block.nodes * makespan)),
        );
    }
    // What `--trace 0` prints beside its gated metrics, from this one stack
    // (every second wave carries spans) and as measured.
    put(
        "run.cpu_us_per_task",
        Some(rep.cpu_s * 1e6 / rep.measured_tasks.max(1) as f64),
    );
    let (p50, p99) = latency_us(w, std::slice::from_ref(rep), false);
    put("run.latency_p50_us", Some(p50));
    put("run.latency_p99_us", Some(p99));
    put(
        "run.host_speed_index",
        (!rep.burst_s.is_empty()).then(|| rep.speed_index()),
    );
    put("run.threads_peak", Some(rep.threads_peak));
    let (plain, traced) = (
        rep.tasks_per_s(w.wave, false),
        rep.tasks_per_s(w.wave, true),
    );
    put(
        "run.trace_overhead_pct",
        (plain > 0.0 && traced > 0.0).then(|| (plain - traced) / plain * 100.0),
    );

    // A wave span's self time is what the generator spent outside the
    // program's calls (and outside the echo drain's): harness bookkeeping.
    let all: Vec<&trace::Span> = rep.spans.iter().flat_map(|b| b.spans.iter()).collect();
    let (mut self_ns, mut wave_ns) = (0u64, 0u64);
    for wave in all.iter().filter(|s| s.name == "wave") {
        let mut children: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| s.parent == wave.id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_ns += trace::self_time_ns(wave, &mut children);
        wave_ns += wave.end_ns - wave.start_ns;
    }
    let dropped: u64 = rep.spans.iter().map(|b| b.dropped).sum();
    println!(
        "  spans: {} recorded, {dropped} dropped (buffers full); wave self time {:.2}% of traced wave time",
        all.len(),
        self_ns as f64 * 100.0 / wave_ns.max(1) as f64
    );
}

fn print_values(
    title: &str,
    names: impl Iterator<Item = (&'static str, &'static str)>,
    values: &Values,
) {
    println!("  {title}");
    for (name, unit) in names {
        match values.get(name) {
            Some(v) => println!("    {name:<52} {v:>16.4} {unit}"),
            None => println!("    {name:<52} {:>16} {unit}", "n/a"),
        }
    }
}

fn run_single(w: &Workload, args: &Args, part: Part) -> ExitCode {
    let mut rng = Rng::new(args.seed);
    let mut values = Values::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    println!("workload {} — {}", w.name, w.why);

    if part == Part::Run {
        let mut reps = Vec::new();
        for _ in 0..w.reps(args.seconds as f64) {
            match workload::run_rep(w, &mut rng, w.waves_per_rep(), false) {
                Ok(rep) => {
                    let failed = rep.failed > 0;
                    reps.push(rep);
                    if failed {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("{}: stack failed: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        attempted = reps.iter().map(|r| r.attempted).sum();
        failed = reps.iter().map(|r| r.failed).sum();
        values = end_to_end(w, &reps);
        println!(
            "  failed_share     {:.6} ({failed} of {attempted})",
            failed as f64 / attempted.max(1) as f64
        );
    }
    if matches!(part, Part::Traced | Part::TracedAndProbes) {
        // One stack; half the run's waves, since the probes share a
        // `--trace 1` run with it.
        let waves = w.waves_per_rep() * w.reps(args.seconds as f64) / 2;
        let rep = match workload::run_rep(w, &mut rng, waves, true) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("{}: stack failed: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        attempted += rep.attempted;
        failed += rep.failed;
        traced_metrics(w, &rep, &mut values);
        let bufs: Vec<&trace::SpanBuf> = rep.spans.iter().collect();
        let path = std::path::Path::new(RESULTS_DIR).join(format!("trace_{}.jsonl", w.name));
        match trace::write_jsonl(&path, &bufs) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
    }
    if matches!(part, Part::Probes | Part::TracedAndProbes) {
        probes::run_all(&mut rng, &mut values);
        attempted = attempted.max(1);
    }

    let line = if part == Part::Run {
        let names = || END_TO_END.iter().map(|m| (m.name, m.unit));
        print_values("end-to-end", names(), &values);
        report::summary_line(attempted, failed, names(), &values)
    } else {
        // The traced run's metrics are the `run.*` and `sdk.*` ones; a part
        // run on its own lists only its own.
        let listed = |name: &str| match part {
            Part::Traced => name.starts_with("run.") || name.starts_with("sdk."),
            Part::Probes => !(name.starts_with("run.") || name.starts_with("sdk.")),
            _ => true,
        };
        let names = || PER_LAYER.iter().map(|m| (m.name, m.unit));
        print_values("per-layer", names().filter(|(n, _)| listed(n)), &values);
        report::summary_line(attempted, failed, names(), &values)
    };
    println!("{line}");
    if failed > 0 {
        eprintln!(
            "{}: {failed} of {attempted} results wrong, failed or timed out",
            w.name
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Every workload, each in a child process
// ---------------------------------------------------------------------------

/// Re-execute this binary for one workload part; echo its output and return
/// its summary line parsed.
fn run_child(workload: &str, part: &str, args: &Args) -> Option<Summary> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--part", part])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take()?)
        .lines()
        .map_while(Result::ok)
    {
        // The child's own header repeats ours; its summary is re-rendered.
        if !line.starts_with("gcxbench ") && !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().ok()?;
    let summary = report::parse_summary(&last)?;
    (status.success() && summary.correct).then_some(summary)
}

fn summaries_json(set: &[(String, Summary)]) -> String {
    let rows: Vec<String> = set
        .iter()
        .map(|(name, s)| {
            let metrics: Vec<String> = s
                .metrics
                .iter()
                .map(|(m, (v, u))| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect();
            format!(
                "\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                s.attempted,
                s.failed,
                metrics.join(", ")
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn run_everything(args: &Args, header: &str) -> ExitCode {
    let names: Vec<&'static str> = workloads::all()
        .iter()
        .map(|w| w.name)
        .filter(|n| args.only.as_deref().is_none_or(|only| only == *n))
        .collect();
    if names.is_empty() {
        eprintln!("--only: no such workload");
        return ExitCode::FAILURE;
    }
    // `--trace`, `--layers` and `--selfcheck` select those parts alone; none
    // of them selects all.
    let all_parts = !args.trace && !args.layers && !args.selfcheck;
    let mut ok = true;
    let mut run_set = |part: &str, names: &[&str]| -> Vec<(String, Summary)> {
        let mut set = Vec::new();
        for name in names {
            match run_child(name, part, args) {
                Some(s) => set.push((name.to_string(), s)),
                None => {
                    eprintln!("{name} ({part}): failed");
                    ok = false;
                }
            }
        }
        set
    };

    let (mut first, mut second) = (Vec::new(), Vec::new());
    if all_parts || args.selfcheck {
        first = run_set("run", &names);
    }
    if args.selfcheck {
        println!("\nselfcheck: second end-to-end set on the same build");
        second = run_set("run", &names);
    }
    let traced = if all_parts || args.trace {
        run_set("traced", &names)
    } else {
        Vec::new()
    };
    let layers = if all_parts || args.layers {
        run_set("probes", &names[..1])
    } else {
        Vec::new()
    };

    if !first.is_empty() {
        println!("\nend-to-end (median over repetitions; one process per workload)");
        print!("  {:<16}", "workload");
        for m in END_TO_END {
            print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
        }
        println!();
        for (name, s) in &first {
            print!("  {name:<16}");
            for m in END_TO_END {
                print!(" {:>18.3}", s.metrics.get(m.name).map_or(0.0, |(v, _)| *v));
            }
            println!();
        }
    }
    if args.selfcheck {
        println!("\nselfcheck: run 1 vs run 2, relative difference against each metric's bound");
        let gated: Vec<&str> = workloads::all()
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            // A diagnostic workload is shown, not judged.
            let judged = gated.contains(&name.as_str());
            for m in END_TO_END {
                let (Some((va, _)), Some((vb, _))) = (a.metrics.get(m.name), b.metrics.get(m.name))
                else {
                    continue;
                };
                let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
                let verdict = match (judged, diff <= m.bound) {
                    (false, _) => "diagnostic",
                    (true, true) => "ok",
                    (true, false) => "DISAGREE",
                };
                println!(
                    "  {name:<16} {:<18} {va:>14.3} {vb:>14.3} {:>7.2}% (bound {:.0}%) {verdict}",
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                );
                ok &= !judged || diff <= m.bound;
            }
        }
        ok &= first.len() == second.len();
    }

    let json = format!(
        "{{{header}, \"end_to_end\": {}, \"selfcheck\": {}, \"traced\": {}, \"layers\": {}}}\n",
        summaries_json(&first),
        summaries_json(&second),
        summaries_json(&traced),
        summaries_json(&layers)
    );
    let path = std::path::Path::new(RESULTS_DIR).join("latest.json");
    match std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("\nall numbers written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gcxbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.emit_json {
        emit_benchmark_json(args.seconds);
        return ExitCode::SUCCESS;
    }
    let header = run_header(args.seed);
    match &args.workload {
        Some(name) => {
            let Some(w) = workloads::all().into_iter().find(|w| w.name == name) else {
                eprintln!("gcxbench: unknown workload {name:?}");
                return ExitCode::FAILURE;
            };
            let part = args.part.unwrap_or(if args.trace {
                Part::TracedAndProbes
            } else {
                Part::Run
            });
            run_single(&w, &args, part)
        }
        None => run_everything(&args, &header),
    }
}
