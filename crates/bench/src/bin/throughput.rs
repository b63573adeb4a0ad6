//! E10 · Multi-threaded submit/result throughput through the cloud hot
//! path (sharded state stores, one batched publish per endpoint).
//!
//! N client threads each drive their own endpoint: submit M tasks in
//! batches of B through `WebService::submit_batch`, while a small pool of
//! endpoint sessions per endpoint drains the task queues and publishes
//! results back; clients then poll `task_status_batch` until every task is
//! terminal. Aggregate throughput = completed tasks / wall time.
//!
//! Two link models are measured:
//! - a WAN-ish broker link (per-message latency, as the production AMQPS
//!   wire behaves) — here batched publish amortizes the per-message charge,
//!   the §III-A batching claim;
//! - an instant link — isolating the service's own locking and
//!   per-message bookkeeping costs.
//!
//! Emits `bench_results/BENCH_throughput.json`.
//!
//! `--transport tcp` swaps the in-process client threads for true OS
//! processes: the parent runs the service plus a [`WireServer`] on
//! localhost TCP, then re-executes its own binary N times in a hidden
//! `--wire-client` mode. Each child dials the framed wire protocol,
//! submits its share in batches, and polls `task_status_batch` until every
//! task is terminal — request frames, correlation-id multiplexing, and the
//! handshake all on a real socket. Child process startup is inside the
//! measured wall time (a few ms per client; the series is not comparable
//! with the inmem numbers and is reported separately as
//! `bench_results/BENCH_throughput_tcp.json`).
//!
//! `--sweep` runs the payload plane's size sweep instead: an instant
//! link at 64 B / 4 KiB / 256 KiB argument payloads,
//! each with a unique-bytes-per-task series and a 90%-duplicate series.
//! Alongside tasks/s it reads the service's `payload.bytes_moved` and
//! `blob.cas_hits/misses` counters, reporting the dedup win (bytes moved,
//! unique vs duplicate) per size — the content-addressed cache should cut
//! bytes-moved by ~10x at 90% duplication for inline-sized payloads.
//! Emits `bench_results/BENCH_payload_sweep.json`.
//!
//! Flags: `--threads N`, `--tasks M` (per thread), `--batch B`,
//! `--transport inmem|tcp` (tcp runs over real sockets), `--sweep` (payload-size sweep, see above), `--smoke` (tiny
//! parameters for CI), `--baseline <path>` compare this run's tasks/s
//! against a committed baseline JSON and exit nonzero if any shared
//! series drops below `--min-ratio` (default 0.25) of it — a loose
//! perf-regression tripwire, not a precision gate, since CI machines
//! vary wildly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService, Token};
use gcx_bench::{JsonReport, Table};
use gcx_cloud::{CloudConfig, WebService, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_mq::{Broker, LinkProfile};
use gcx_sdk::{Link, WireClientConfig};

#[derive(Clone, Copy)]
struct Params {
    threads: usize,
    tasks_per_thread: usize,
    batch: usize,
    drains_per_endpoint: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Transport {
    Inmem,
    Tcp,
}

struct Gate {
    baseline: Option<std::path::PathBuf>,
    min_ratio: f64,
}

fn parse_args() -> (Params, Transport, Gate, bool) {
    let mut p = Params {
        threads: 8,
        tasks_per_thread: 256,
        batch: 64,
        drains_per_endpoint: 4,
    };
    let mut transport = Transport::Inmem;
    let mut sweep = false;
    let mut gate = Gate {
        baseline: None,
        min_ratio: 0.25,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--threads" => {
                p.threads = need(i).parse().expect("--threads");
                i += 2;
            }
            "--tasks" => {
                p.tasks_per_thread = need(i).parse().expect("--tasks");
                i += 2;
            }
            "--batch" => {
                p.batch = need(i).parse().expect("--batch");
                i += 2;
            }
            "--transport" => {
                transport = match need(i).as_str() {
                    "inmem" => Transport::Inmem,
                    "tcp" => Transport::Tcp,
                    other => panic!("unknown transport {other:?}"),
                };
                i += 2;
            }
            "--sweep" => {
                sweep = true;
                i += 1;
            }
            "--smoke" => {
                p = Params {
                    threads: 2,
                    tasks_per_thread: 48,
                    batch: 16,
                    drains_per_endpoint: 2,
                };
                i += 1;
            }
            "--baseline" => {
                gate.baseline = Some(need(i).into());
                i += 2;
            }
            "--min-ratio" => {
                gate.min_ratio = need(i).parse().expect("--min-ratio");
                i += 2;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(p.batch > 0 && p.threads > 0 && p.tasks_per_thread > 0);
    assert!(gate.min_ratio > 0.0 && gate.min_ratio <= 1.0);
    (p, transport, gate, sweep)
}

/// Pull `"key": <number>` out of a flat `JsonReport`-style file. Keeps
/// the bench dependency-free: no JSON parser ships in the workspace.
fn baseline_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Builds a task's argument list from (client thread, task index within
/// that thread). The sweep uses this to control payload size and
/// duplication; the link comparison keeps the original tiny-int args.
type ArgsFn = dyn Fn(usize, usize) -> Vec<Value> + Send + Sync;

struct RunStats {
    elapsed: Duration,
    completed: u64,
    /// Payload bytes that traveled a task queue inline (CAS references
    /// move ~0), from the service's `payload.bytes_moved` counter.
    payload_bytes_moved: u64,
    cas_hits: u64,
    cas_misses: u64,
}

/// One full in-process run.
fn run_inmem(p: Params, link: LinkProfile, make_args: Arc<ArgsFn>) -> RunStats {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(MetricsRegistry::new(), clock.clone(), link);
    let cfg = CloudConfig {
        result_processors: 4,
        heartbeat_timeout_ms: 600_000,
        ..CloudConfig::default()
    };
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    let (_, token) = svc.auth().login("throughput@gcx.dev").unwrap();
    let fid = svc
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();

    // One endpoint per client thread, each drained by a small session pool
    // that acks tasks and publishes an immediate result.
    let stop = Arc::new(AtomicBool::new(false));
    let mut endpoints: Vec<EndpointId> = Vec::with_capacity(p.threads);
    let mut drains = Vec::new();
    for t in 0..p.threads {
        let reg = svc
            .register_endpoint(&token, &format!("ep-{t}"), false, AuthPolicy::open(), None)
            .unwrap();
        endpoints.push(reg.endpoint_id);
        for _ in 0..p.drains_per_endpoint {
            let session = svc
                .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
                .unwrap();
            let stop = Arc::clone(&stop);
            drains.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match session.next_task(Duration::from_millis(10)) {
                        Ok(Some((spec, tag))) => {
                            let _ = session
                                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)));
                            let _ = session.ack_task(tag);
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
            }));
        }
    }

    let barrier = Arc::new(Barrier::new(p.threads + 1));
    let clients: Vec<_> = (0..p.threads)
        .map(|t| {
            let svc = svc.clone();
            let token: Token = token.clone();
            let ep = endpoints[t];
            let barrier = Arc::clone(&barrier);
            let make_args = Arc::clone(&make_args);
            std::thread::spawn(move || {
                barrier.wait();
                let mut ids: Vec<TaskId> = Vec::with_capacity(p.tasks_per_thread);
                let mut submitted = 0usize;
                while submitted < p.tasks_per_thread {
                    let n = p.batch.min(p.tasks_per_thread - submitted);
                    let specs: Vec<TaskSpec> = (0..n)
                        .map(|k| {
                            let mut spec = TaskSpec::new(fid, ep);
                            spec.set_args(make_args(t, submitted + k), Value::None);
                            spec
                        })
                        .collect();
                    ids.extend(svc.submit_batch(&token, specs).unwrap());
                    submitted += n;
                }
                // Poll until every task is terminal (the polling read path
                // shares the task store with the result processors' writes).
                let mut done = 0u64;
                let mut open = ids;
                while !open.is_empty() {
                    let statuses = svc.task_status_batch(&token, &open).unwrap();
                    let mut still_open = Vec::with_capacity(open.len());
                    for (id, state, _) in statuses {
                        if state.is_terminal() {
                            done += 1;
                        } else {
                            still_open.push(id);
                        }
                    }
                    open = still_open;
                    if !open.is_empty() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                done
            })
        })
        .collect();

    barrier.wait();
    let started = Instant::now();
    let completed: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let elapsed = started.elapsed();

    stop.store(true, Ordering::Relaxed);
    for d in drains {
        let _ = d.join();
    }
    let stats = RunStats {
        elapsed,
        completed,
        payload_bytes_moved: svc.metrics().counter("payload.bytes_moved").get(),
        cas_hits: svc.metrics().counter("blob.cas_hits").get(),
        cas_misses: svc.metrics().counter("blob.cas_misses").get(),
    };
    svc.shutdown();
    stats
}

/// Default argument factory: the original tiny-int payloads used by the
/// link comparison.
fn int_args() -> Arc<ArgsFn> {
    Arc::new(|_, k| vec![Value::Int(k as i64)])
}

/// The payload-plane sweep: instant link, payload sizes
/// 64 B / 4 KiB / 256 KiB, each as a unique-bytes series and a
/// 90%-duplicate series. Reports tasks/s plus the dedup effect on
/// `payload.bytes_moved`.
fn run_sweep(p: Params, report: &mut JsonReport) {
    const SIZES: [(usize, &str); 3] = [(64, "64B"), (4096, "4KiB"), (256 * 1024, "256KiB")];
    let total = (p.threads * p.tasks_per_thread) as u64;
    let mut table = Table::new(&["payload", "series", "tasks/s", "moved_bytes", "cas_hit%"]);
    for (size, label) in SIZES {
        let mut moved = [0u64; 2];
        for (dup, series) in [(false, "unique"), (true, "dup90")] {
            // Unique bytes per task: stamp (thread, index) into the body so
            // no two payloads collide in the CAS. The duplicate series
            // reuses one shared body for 9 of every 10 tasks.
            let make_args: Arc<ArgsFn> = Arc::new(move |t, k| {
                let mut body = vec![0x5au8; size];
                if !dup || k % 10 == 0 {
                    body[..8].copy_from_slice(&((t as u64) << 32 | k as u64).to_le_bytes());
                }
                vec![Value::Bytes(body)]
            });
            let stats = run_inmem(p, LinkProfile::instant(), make_args);
            assert_eq!(stats.completed, total, "sweep {label}/{series}: lost tasks");
            if dup {
                // 9 of 10 payloads repeat; each repeat must hit the CAS
                // rather than re-ship its bytes.
                assert!(
                    stats.cas_hits >= total * 8 / 10,
                    "sweep {label}/dup90: expected ~90% CAS hits, saw {} of {total}",
                    stats.cas_hits
                );
            }
            let tps = total as f64 / stats.elapsed.as_secs_f64();
            let interns = stats.cas_hits + stats.cas_misses;
            let hit_pct = if interns > 0 {
                100.0 * stats.cas_hits as f64 / interns as f64
            } else {
                0.0
            };
            table.row(&[
                label.to_string(),
                series.to_string(),
                format!("{tps:.0}"),
                stats.payload_bytes_moved.to_string(),
                format!("{hit_pct:.0}"),
            ]);
            report.float(&format!("sweep_{label}_{series}_tasks_per_sec"), tps);
            report.num(
                &format!("sweep_{label}_{series}_bytes_moved"),
                stats.payload_bytes_moved,
            );
            report.num(&format!("sweep_{label}_{series}_cas_hits"), stats.cas_hits);
            moved[usize::from(dup)] = stats.payload_bytes_moved;
        }
        // The dedup win only shows in `bytes_moved` for inline-sized
        // payloads: above the inline threshold even unique payloads ship
        // as CAS references, so both series move ~0 bytes.
        if moved[1] > 0 {
            let reduction = moved[0] as f64 / moved[1] as f64;
            report.float(&format!("sweep_{label}_dedup_reduction"), reduction);
            println!("  {label}: 90%-dup moves {reduction:.1}x fewer payload bytes than unique");
        }
    }
    table.print();
}

/// The hidden child mode behind `--transport tcp`: dial the wire server,
/// submit our share in batches, poll `task_status_batch` until every task
/// is terminal, report the count on stdout. Mirrors the in-process client
/// thread exactly, except every call is a framed request over TCP.
fn wire_client_main(args: &[String]) -> ! {
    let mut addr = None;
    let mut token = None;
    let mut endpoint: Option<EndpointId> = None;
    let mut function: Option<FunctionId> = None;
    let mut tasks = 0usize;
    let mut batch = 0usize;
    let mut i = 0;
    while i + 1 < args.len() {
        let v = &args[i + 1];
        match args[i].as_str() {
            "--addr" => addr = Some(v.clone()),
            "--token" => token = Some(v.clone()),
            "--endpoint" => endpoint = Some(v.parse().expect("--endpoint uuid")),
            "--function" => function = Some(v.parse().expect("--function uuid")),
            "--tasks" => tasks = v.parse().expect("--tasks"),
            "--batch" => batch = v.parse().expect("--batch"),
            other => panic!("wire-client: unknown flag {other:?}"),
        }
        i += 2;
    }
    let addr = addr.expect("--addr");
    let token_str = token.expect("--token");
    let ep = endpoint.expect("--endpoint");
    let fid = function.expect("--function");
    assert!(tasks > 0 && batch > 0);

    let link = Link::connect(vec![addr], &token_str, WireClientConfig::default())
        .expect("wire-client: connect");
    let token = Token(token_str);
    let mut ids: Vec<TaskId> = Vec::with_capacity(tasks);
    let mut submitted = 0usize;
    while submitted < tasks {
        let n = batch.min(tasks - submitted);
        let specs: Vec<TaskSpec> = (0..n)
            .map(|k| {
                let mut spec = TaskSpec::new(fid, ep);
                spec.set_args(vec![Value::Int((submitted + k) as i64)], Value::None);
                spec
            })
            .collect();
        ids.extend(
            link.submit_batch(&token, &specs)
                .expect("wire-client: submit_batch"),
        );
        submitted += n;
    }
    let mut done = 0u64;
    let mut open = ids;
    while !open.is_empty() {
        let statuses = link
            .task_status_batch(&token, &open)
            .expect("wire-client: task_status_batch");
        let mut still_open = Vec::with_capacity(open.len());
        for (id, state, _) in statuses {
            if state.is_terminal() {
                done += 1;
            } else {
                still_open.push(id);
            }
        }
        open = still_open;
        if !open.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    link.close();
    println!("completed={done}");
    std::process::exit(0)
}

/// One full TCP run (instant broker link — the wire is the variable
/// under test): returns (elapsed, completed tasks). The measured
/// window spans child-process spawn to last exit, so process startup is
/// part of the cost, as it is for any real out-of-process client fleet.
fn run_tcp(p: Params) -> (Duration, u64) {
    let clock = SystemClock::shared();
    let broker = Broker::with_profile(
        MetricsRegistry::new(),
        clock.clone(),
        LinkProfile::instant(),
    );
    let cfg = CloudConfig {
        result_processors: 4,
        heartbeat_timeout_ms: 600_000,
        ..CloudConfig::default()
    };
    let svc = WebService::new(cfg, AuthService::new(clock.clone()), broker, clock);
    let server = WireServer::listen(
        &svc,
        TransportSpec {
            // Children are busy polling, not heartbeating on a schedule
            // tight enough for the default reaper — give them headroom.
            idle_timeout_ms: 60_000,
            max_connections: (p.threads as u64).max(16),
            ..TransportSpec::default()
        },
    )
    .expect("wire server");
    let addr = server.addr().to_string();
    let (_, token) = svc.auth().login("throughput@gcx.dev").unwrap();
    let fid = svc
        .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut endpoints: Vec<EndpointId> = Vec::with_capacity(p.threads);
    let mut drains = Vec::new();
    for t in 0..p.threads {
        let reg = svc
            .register_endpoint(&token, &format!("ep-{t}"), false, AuthPolicy::open(), None)
            .unwrap();
        endpoints.push(reg.endpoint_id);
        for _ in 0..p.drains_per_endpoint {
            let session = svc
                .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
                .unwrap();
            let stop = Arc::clone(&stop);
            drains.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match session.next_task(Duration::from_millis(10)) {
                        Ok(Some((spec, tag))) => {
                            let _ = session
                                .publish_result(spec.task_id, &TaskResult::ok(Value::Int(1)));
                            let _ = session.ack_task(tag);
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
            }));
        }
    }

    let exe = std::env::current_exe().expect("own path");
    let started = Instant::now();
    let children: Vec<std::process::Child> = (0..p.threads)
        .map(|t| {
            std::process::Command::new(&exe)
                .args([
                    "--wire-client",
                    "--addr",
                    &addr,
                    "--token",
                    &token.0,
                    "--endpoint",
                    &endpoints[t].to_string(),
                    "--function",
                    &fid.to_string(),
                    "--tasks",
                    &p.tasks_per_thread.to_string(),
                    "--batch",
                    &p.batch.to_string(),
                ])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn wire client")
        })
        .collect();
    let mut completed = 0u64;
    for (t, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wire client exit");
        assert!(out.status.success(), "wire client {t}: {}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let count: u64 = stdout
            .lines()
            .find_map(|l| l.strip_prefix("completed="))
            .unwrap_or_else(|| panic!("wire client {t}: no count in {stdout:?}"))
            .trim()
            .parse()
            .expect("wire client count");
        completed += count;
    }
    let elapsed = started.elapsed();

    stop.store(true, Ordering::Relaxed);
    for d in drains {
        let _ = d.join();
    }
    server.shutdown();
    svc.shutdown();
    (elapsed, completed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--wire-client") {
        wire_client_main(&argv[1..]);
    }
    let (p, transport, gate, sweep) = parse_args();
    // Snapshot the baseline up front: the report below overwrites
    // `bench_results/BENCH_throughput.json`, which is the usual gate input.
    let baseline_text = gate.baseline.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()))
    });
    let total = (p.threads * p.tasks_per_thread) as u64;

    if sweep {
        assert!(
            transport == Transport::Inmem,
            "--sweep measures the in-process payload plane; drop --transport tcp"
        );
        println!(
            "payload-size sweep: {} threads x {} tasks, batch {}, instant link",
            p.threads, p.tasks_per_thread, p.batch
        );
        let mut report = JsonReport::new("BENCH_payload_sweep");
        report
            .num("threads", p.threads as u64)
            .num("tasks_per_thread", p.tasks_per_thread as u64)
            .num("batch_size", p.batch as u64)
            .num("total_tasks", total);
        run_sweep(p, &mut report);
        let path = report
            .write_to(std::path::Path::new("bench_results"))
            .expect("write BENCH_payload_sweep.json");
        println!("  written to {}", path.display());
        return;
    }

    if transport == Transport::Tcp {
        println!(
            "submit/result throughput over localhost TCP: {} client processes x {} tasks, batch {}",
            p.threads, p.tasks_per_thread, p.batch
        );
        let (elapsed, completed) = run_tcp(p);
        assert_eq!(completed, total, "tcp: lost tasks");
        let tps = total as f64 / elapsed.as_secs_f64();
        let mut table = Table::new(&["transport", "clients", "elapsed_ms", "tasks/s"]);
        table.row(&[
            "tcp".to_string(),
            p.threads.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1000.0),
            format!("{tps:.0}"),
        ]);
        table.print();
        let mut report = JsonReport::new("BENCH_throughput_tcp");
        report
            .num("threads", p.threads as u64)
            .num("tasks_per_thread", p.tasks_per_thread as u64)
            .num("batch_size", p.batch as u64)
            .num("total_tasks", total);
        report.float("tcp_elapsed_ms", elapsed.as_secs_f64() * 1000.0);
        report.float("tcp_tasks_per_sec", tps);
        let path = report
            .write_to(std::path::Path::new("bench_results"))
            .expect("write BENCH_throughput_tcp.json");
        println!("  written to {}", path.display());

        if let (Some(baseline_path), Some(text)) = (gate.baseline, baseline_text) {
            let Some(base) = baseline_field(&text, "tcp_tasks_per_sec") else {
                panic!(
                    "baseline {} has no tcp_tasks_per_sec series",
                    baseline_path.display()
                );
            };
            let ratio = tps / base;
            println!(
                "\n  perf gate vs {} (min ratio {:.2}): {tps:.0} vs {base:.0} tasks/s ({ratio:.2}x)",
                baseline_path.display(),
                gate.min_ratio
            );
            if base > 0.0 && ratio < gate.min_ratio {
                eprintln!("  perf gate FAILED: tcp throughput regressed below the tolerance");
                std::process::exit(1);
            }
            println!("  perf gate passed");
        }
        return;
    }

    // 1 ms per message, 1 Gbps — TLS-over-WAN-ish, far below production RTT
    // but enough that per-message charges dominate per-byte ones.
    let wan = LinkProfile::wan(1, 1000);

    println!(
        "submit/result throughput: {} threads x {} tasks, batch {}",
        p.threads, p.tasks_per_thread, p.batch
    );
    let mut table = Table::new(&["link", "elapsed_ms", "tasks/s"]);
    let mut report = JsonReport::new("BENCH_throughput");
    report
        .num("threads", p.threads as u64)
        .num("tasks_per_thread", p.tasks_per_thread as u64)
        .num("batch_size", p.batch as u64)
        .num("total_tasks", total)
        .num("wan_latency_ms", 1);

    // Series keep their `_sharded_` names so committed baselines stay
    // comparable across the gate.
    let mut series: Vec<(String, f64)> = Vec::new();
    for (link, link_name) in [(wan, "wan"), (LinkProfile::instant(), "instant")] {
        let stats = run_inmem(p, link, int_args());
        assert_eq!(stats.completed, total, "{link_name}: lost tasks");
        let elapsed_ms = stats.elapsed.as_secs_f64() * 1000.0;
        let tps = total as f64 / stats.elapsed.as_secs_f64();
        table.row(&[
            link_name.to_string(),
            format!("{elapsed_ms:.1}"),
            format!("{tps:.0}"),
        ]);
        report.float(&format!("{link_name}_sharded_elapsed_ms"), elapsed_ms);
        report.float(&format!("{link_name}_sharded_tasks_per_sec"), tps);
        series.push((format!("{link_name}_sharded_tasks_per_sec"), tps));
    }

    table.print();
    let path = report
        .write_to(std::path::Path::new("bench_results"))
        .expect("write BENCH_throughput.json");
    println!("  written to {}", path.display());

    // Perf-regression tripwire: every series present in both this run and
    // the committed baseline must hold at least `min_ratio` of the
    // baseline's tasks/s. The ratio is deliberately generous — it catches
    // order-of-magnitude regressions, not CI-machine jitter.
    if let (Some(baseline_path), Some(text)) = (gate.baseline, baseline_text) {
        let mut compared = 0usize;
        let mut failed = false;
        println!(
            "\n  perf gate vs {} (min ratio {:.2}):",
            baseline_path.display(),
            gate.min_ratio
        );
        for (key, current) in &series {
            let Some(base) = baseline_field(&text, key) else {
                continue;
            };
            if base <= 0.0 {
                continue;
            }
            compared += 1;
            let ratio = current / base;
            let verdict = if ratio >= gate.min_ratio {
                "ok"
            } else {
                "FAIL"
            };
            println!("    {key}: {current:.0} vs {base:.0} tasks/s ({ratio:.2}x) {verdict}");
            if ratio < gate.min_ratio {
                failed = true;
            }
        }
        assert!(
            compared > 0,
            "baseline {} shares no series with this run",
            baseline_path.display()
        );
        if failed {
            eprintln!("  perf gate FAILED: throughput regressed below the tolerance");
            std::process::exit(1);
        }
        println!("  perf gate passed ({compared} series)");
    }
}
