//! # gcx-bench
//!
//! The paper's evaluation as one runner, `gcx-paper <experiment>...
//! [--smoke]` (`cargo run --release -p gcx-bench -- all`). Each experiment
//! runs `REPS` times, once under `--smoke`. A run returns rows of named
//! numeric cells and asserts the experiment's contract, so a broken
//! contract ends the runner non-zero. The runner prints one table per
//! experiment and writes `bench_results/BENCH_<experiment>.json`, both with
//! the n, median and interquartile range of every cell. `EXPERIMENTS.md`
//! holds the recorded tables. Throughput, latency and the per-layer
//! micro-timings are `gcxbench`'s (the repository's benchmark, a package
//! of its own).
//!
//! | name  | module                 | paper artifact                              |
//! |-------|------------------------|---------------------------------------------|
//! | `e4`  | `executor_vs_polling`  | §III-A streaming vs polling                 |
//! | `e5`  | `batching_sweep`       | §III-A request batching                     |
//! | `e6`  | `mpi_partitioning`     | §III-C dynamic partitioning                 |
//! | `e7`  | `mep_scaling`          | §IV/§VI spawn-on-demand, config-hash reuse  |
//! | `e8`  | `data_movement`        | §V 10 MB limit / ProxyStore / Transfer      |
//! | `e9`  | `service_scale`        | §I/§VI one service, many endpoints          |
//! | `e11` | `latency_breakdown`    | per-leg lifecycle latency from trace spans  |
//! | `e12` | `federation_scale`     | replicated cloud: throughput + chaos leg    |
//! | `e13` | `overload_soak`        | admission control vs unprotected meltdown   |
//! | `a1`  | `ablation_sandbox`     | §III-B.2 sandbox contention                 |
//! | `a2`  | `ablation_multiplex`   | §II manager multiplexing                    |
//! | `a3`  | `ablation_proxy_cache` | §V-B worker-side proxy cache                |
//!
//! E1 (Fig. 2), E2 (Listing 3) and E3 (Listings 6/7) are deterministic
//! contract checks, so they are tests of the crates they check.

mod ablation_multiplex;
mod ablation_proxy_cache;
mod ablation_sandbox;
mod batching_sweep;
mod data_movement;
mod executor_vs_polling;
mod federation_scale;
mod latency_breakdown;
mod mep_scaling;
mod mpi_partitioning;
mod overload_soak;
mod service_scale;

use std::process::ExitCode;
use std::time::Instant;

use gcx_auth::{AuthPolicy, Token};
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::SystemClock;
use gcx_core::expo::JsonBody;
use gcx_core::ids::EndpointId;
use gcx_core::metrics::MetricsRegistry;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, LinkProfile};

/// How many times each experiment runs (once under `--smoke`).
const REPS: usize = 5;

/// One experiment: its command-line name, its heading, and one run.
struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(smoke: bool, rep: u64) -> Vec<Row>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e4",
        title: "§III-A: executor (streaming) vs client (polling), 120 tasks of ~5 ms",
        run: executor_vs_polling::run,
    },
    Experiment {
        name: "e5",
        title: "§III-A: submission batching sweep, 400 trivial tasks",
        run: batching_sweep::run,
    },
    Experiment {
        name: "e6",
        title: "§III-C: dynamic partitioning vs whole-block serialization (8-node block)",
        run: mpi_partitioning::run,
    },
    Experiment {
        name: "e7",
        title: "§IV/§VI: MEP spawn-on-demand, 10 users x 2 configs x 5 tasks",
        run: mep_scaling::run,
    },
    Experiment {
        name: "e8",
        title: "§V: data movement paths on a 100 Mbps / 20 ms WAN (ms; - = rejected > 10 MB)",
        run: data_movement::run,
    },
    Experiment {
        name: "e9",
        title: "§I/§VI: one cloud service, many endpoints (1200 tasks)",
        run: service_scale::run,
    },
    Experiment {
        name: "e11",
        title: "task-lifecycle latency per leg from trace spans, in memory and over TCP",
        run: latency_breakdown::run,
    },
    Experiment {
        name: "e12",
        title: "federated cloud: throughput vs replicas, clean and with a replica killed",
        run: federation_scale::run,
    },
    Experiment {
        name: "e13",
        title: "overload soak: admission control vs an unprotected stack",
        run: overload_soak::run,
    },
    Experiment {
        name: "a1",
        title: "§III-B.2 ablation: 48 concurrent ShellFunctions sharing a cwd",
        run: ablation_sandbox::run,
    },
    Experiment {
        name: "a2",
        title: "§II ablation: manager multiplexing, 16 workers, 320 tasks of ~2 ms",
        run: ablation_multiplex::run,
    },
    Experiment {
        name: "a3",
        title: "§V-B ablation: worker-side proxy cache, one 4 MiB model x 16 tasks",
        run: ablation_proxy_cache::run,
    },
];

/// One row of one run: a label and its named cells.
struct Row {
    label: String,
    cells: Vec<(&'static str, f64)>,
}

/// A row labelled `label`.
fn row(label: impl Into<String>, cells: &[(&'static str, f64)]) -> Row {
    Row {
        label: label.into(),
        cells: cells.to_vec(),
    }
}

/// Milliseconds since `t0`.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// The runner: `args` are experiment names, `all`, and `--smoke`.
pub fn cli(args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut smoke = false;
    let mut chosen: Vec<&Experiment> = Vec::new();
    for arg in args {
        let picked: Vec<&Experiment> = match arg.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "all" => EXPERIMENTS.iter().collect(),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => vec![e],
                None => return usage(&format!("unknown experiment `{name}`")),
            },
        };
        for e in picked {
            if !chosen.iter().any(|c| c.name == e.name) {
                chosen.push(e);
            }
        }
    }
    if chosen.is_empty() {
        return usage("no experiment named");
    }
    let reps = if smoke { 1 } else { REPS };
    for exp in chosen {
        println!("\n{} — {}", exp.name.to_uppercase(), exp.title);
        let runs: Vec<Vec<Row>> = (0..reps)
            .map(|rep| {
                let t0 = Instant::now();
                let rows = (exp.run)(smoke, rep as u64);
                println!(
                    "  run {}/{reps}: {:.1} s",
                    rep + 1,
                    t0.elapsed().as_secs_f64()
                );
                rows
            })
            .collect();
        let table = collect(&runs);
        print_table(&table);
        let dir = std::path::Path::new("bench_results");
        let path = dir.join(format!("BENCH_{}.json", exp.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report(exp, reps, &table) + "\n"));
        match written {
            Ok(()) => println!("  written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "{problem}\nusage: gcx-paper <experiment>... [--smoke]\nexperiments: {} all",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// A cell over the runs: how many samples, their median, and their
/// interquartile range.
struct Spread {
    n: usize,
    median: f64,
    iqr: f64,
}

impl Spread {
    /// Quartiles by linear interpolation between order statistics (R's
    /// type 7): one sample has itself as median and an IQR of 0.
    fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let pos = p * (s.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Self {
            n: s.len(),
            median: q(0.5),
            iqr: q(0.75) - q(0.25),
        }
    }
}

/// The rows of every run, each label once in first-seen order, with each
/// cell's samples across the runs.
type Samples = Vec<(String, Vec<(&'static str, Vec<f64>)>)>;

fn collect(runs: &[Vec<Row>]) -> Samples {
    let mut out: Samples = Vec::new();
    for r in runs.iter().flatten() {
        let i = match out.iter().position(|(label, _)| *label == r.label) {
            Some(i) => i,
            None => {
                out.push((r.label.clone(), Vec::new()));
                out.len() - 1
            }
        };
        for &(name, v) in &r.cells {
            let cells = &mut out[i].1;
            match cells.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(v),
                None => cells.push((name, vec![v])),
            }
        }
    }
    out
}

/// A number at a precision its size deserves.
fn fmt(x: f64) -> String {
    if x.fract() == 0.0 || x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// One line per row, one column per cell name: `median [IQR]`, and `-`
/// where a row has no such cell.
fn print_table(rows: &Samples) {
    let mut names: Vec<&'static str> = Vec::new();
    for (_, cells) in rows {
        for (name, _) in cells {
            if !names.contains(name) {
                names.push(name);
            }
        }
    }
    let header = ["row", "n"].iter().chain(&names).map(|h| h.to_string());
    let mut lines = vec![header.collect::<Vec<_>>()];
    for (label, cells) in rows {
        let n = cells.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let mut line = vec![label.clone(), n.to_string()];
        for name in &names {
            line.push(match cells.iter().find(|(n, _)| n == name) {
                Some((_, samples)) => {
                    let s = Spread::of(samples);
                    format!("{} [{}]", fmt(s.median), fmt(s.iqr))
                }
                None => "-".to_string(),
            });
        }
        lines.push(line);
    }
    let widths: Vec<usize> = (0..lines[0].len())
        .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
        .collect();
    for (k, line) in lines.iter().enumerate() {
        let cells: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", cells.join("  "));
        if k == 0 {
            println!(
                "  {}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
            );
        }
    }
}

/// `{"experiment", "title", "reps", "rows": {label: {cell: {n, median,
/// iqr}}}}`; a non-finite number is `null`.
fn report(exp: &Experiment, reps: usize, rows: &Samples) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    };
    let mut body = JsonBody::new();
    body.text("experiment", exp.name);
    body.text("title", exp.title);
    body.num("reps", reps as u64);
    let mut rows_json = JsonBody::new();
    for (label, cells) in rows {
        let mut cells_json = JsonBody::new();
        for (name, samples) in cells {
            let s = Spread::of(samples);
            cells_json.raw(
                name,
                &format!(
                    "{{\"n\":{},\"median\":{},\"iqr\":{}}}",
                    s.n,
                    num(s.median),
                    num(s.iqr)
                ),
            );
        }
        rows_json.raw(label, &cells_json.render());
    }
    body.raw("rows", &rows_json.render());
    body.render()
}

/// A cloud, one endpoint agent and one logged-in user: the standard stack.
struct BenchStack {
    cloud: WebService,
    token: Token,
    endpoint: EndpointId,
    agent: Option<EndpointAgent>,
}

impl BenchStack {
    /// A default cloud on an instant link, one `engine_yaml` endpoint.
    fn new(engine_yaml: &str) -> Self {
        Self::build(
            engine_yaml,
            CloudConfig::default(),
            LinkProfile::instant(),
            |_, _| {},
        )
    }

    /// A cloud with `config` whose broker link is `link`; `env` adjusts the
    /// agent's environment before it starts.
    fn build(
        engine_yaml: &str,
        config: CloudConfig,
        link: LinkProfile,
        env: impl FnOnce(&WebService, &mut AgentEnv),
    ) -> Self {
        let clock = SystemClock::shared();
        let auth = gcx_auth::AuthService::new(clock.clone());
        let broker = Broker::with_profile(MetricsRegistry::new(), clock.clone(), link);
        let cloud = WebService::new(config, auth, broker, clock.clone());
        let (_, token) = cloud.auth().login("bench@gcx.dev").unwrap();
        let reg = cloud
            .register_endpoint(&token, "bench-ep", false, AuthPolicy::open(), None)
            .unwrap();
        let mut agent_env = AgentEnv::local(clock);
        env(&cloud, &mut agent_env);
        let agent = EndpointAgent::start(
            &cloud,
            reg.endpoint_id,
            &reg.queue_credential,
            &EndpointConfig::from_yaml(engine_yaml).unwrap(),
            agent_env,
        )
        .unwrap();
        Self {
            cloud,
            token,
            endpoint: reg.endpoint_id,
            agent: Some(agent),
        }
    }

    /// An executor for this stack's user and endpoint.
    fn executor(&self) -> gcx_sdk::Executor {
        gcx_sdk::Executor::new(self.cloud.clone(), self.token.clone(), self.endpoint).unwrap()
    }

    /// Tear everything down.
    fn stop(mut self) {
        if let Some(a) = self.agent.take() {
            a.stop();
        }
        self.cloud.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::value::Value;
    use gcx_sdk::PyFunction;
    use std::time::Duration;

    #[test]
    fn bench_stack_runs_a_task() {
        let stack = BenchStack::new("engine:\n  type: GlobusComputeEngine\n");
        let ex = stack.executor();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(1)
        );
        ex.close();
        stack.stop();
    }

    /// (n, median, IQR) of `samples`.
    fn spread(samples: &[f64]) -> (usize, f64, f64) {
        let s = Spread::of(samples);
        (s.n, s.median, s.iqr)
    }

    #[test]
    fn spread_of_an_odd_count() {
        assert_eq!(spread(&[5.0, 1.0, 3.0, 2.0, 4.0]), (5, 3.0, 2.0));
    }

    #[test]
    fn spread_of_an_even_count() {
        // Quartiles at positions 0.75 and 2.25 of [1, 2, 3, 4].
        assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0]), (4, 2.5, 1.5));
    }

    #[test]
    fn spread_of_one_sample_as_under_smoke() {
        assert_eq!(spread(&[7.25]), (1, 7.25, 0.0));
    }

    #[test]
    fn runs_collect_by_label_and_report_every_cell() {
        let runs = vec![
            vec![
                row("a", &[("x", 1.0), ("y", 10.0)]),
                row("b", &[("x", 5.0)]),
            ],
            vec![
                row("a", &[("x", 3.0), ("y", 30.0)]),
                row("b", &[("x", 5.0)]),
            ],
        ];
        let rows = collect(&runs);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].1,
            vec![("x", vec![1.0, 3.0]), ("y", vec![10.0, 30.0])]
        );
        let json = report(&EXPERIMENTS[0], 2, &rows);
        assert_eq!(
            json,
            "{\"experiment\":\"e4\",\"title\":\"".to_string()
                + EXPERIMENTS[0].title
                + "\",\"reps\":2,\"rows\":{\"a\":{\"x\":{\"n\":2,\"median\":2,\"iqr\":1},\
                   \"y\":{\"n\":2,\"median\":20,\"iqr\":10}},\
                   \"b\":{\"x\":{\"n\":2,\"median\":5,\"iqr\":0}}}}"
        );
        assert_eq!(fmt(2.0), "2");
        assert_eq!(fmt(1234.4), "1234");
        assert_eq!(fmt(5.4321), "5.43");
        assert_eq!(fmt(0.01234), "0.012");
    }
}
