//! # gcx-bench
//!
//! The benchmark harness: one binary per paper figure/table/claim (see
//! `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for recorded
//! results). Throughput, latency and the per-layer micro-timings are
//! `gcxbench`'s (the repository's benchmark, a package of its own).
//!
//! Binaries (run with `cargo run --release -p gcx-bench --bin <name>`):
//!
//! | binary               | experiment | paper artifact                              |
//! |----------------------|------------|---------------------------------------------|
//! | `fig2_usage`         | E1         | Fig. 2 tasks/day                            |
//! | `shellfn_walltime`   | E2         | Listing 3 walltime → rc 124                 |
//! | `mpifn_hostname`     | E3         | Listings 6/7 per-rank hostnames             |
//! | `executor_vs_polling`| E4         | §III-A streaming vs polling                 |
//! | `batching_sweep`     | E5         | §III-A request batching                     |
//! | `mpi_partitioning`   | E6         | §III-C dynamic partitioning                 |
//! | `mep_scaling`        | E7         | §IV/§VI spawn-on-demand, config-hash reuse  |
//! | `data_movement`      | E8         | §V 10 MB limit / ProxyStore / Transfer      |
//! | `service_scale`      | E9         | §I/§VI one service, many endpoints          |
//! | `latency_breakdown`  | E11        | per-leg lifecycle latency from trace spans  |
//! | `federation_scale`   | E12        | replicated cloud: throughput + chaos leg    |
//! | `overload_soak`      | E13        | admission control vs unprotected meltdown   |
//! | `ablation_sandbox`   | A1         | §III-B.2 sandbox contention                 |
//! | `ablation_multiplex` | A2         | §II manager multiplexing                    |
//! | `ablation_proxy_cache`| A3        | §V-B worker-side proxy cache                |

use std::time::Duration;

use gcx_auth::{AuthPolicy, Token};
use gcx_cloud::{CloudConfig, WebService};
use gcx_core::clock::SharedClock;
use gcx_core::ids::EndpointId;
use gcx_core::metrics::MetricsRegistry;
use gcx_endpoint::{AgentEnv, EndpointAgent, EndpointConfig};
use gcx_mq::{Broker, LinkProfile};

/// A cloud + one endpoint + one logged-in user: the standard bench stack.
pub struct BenchStack {
    /// The web service.
    pub cloud: WebService,
    /// A compute-scoped token.
    pub token: Token,
    /// The endpoint id.
    pub endpoint: EndpointId,
    agent: Option<EndpointAgent>,
}

impl BenchStack {
    /// Bring up a stack with a zero-cost link.
    pub fn new(engine_yaml: &str, clock: SharedClock) -> Self {
        Self::with_link(engine_yaml, clock, LinkProfile::instant())
    }

    /// Bring up a stack whose broker link has the given profile.
    pub(crate) fn with_link(engine_yaml: &str, clock: SharedClock, link: LinkProfile) -> Self {
        let auth = gcx_auth::AuthService::new(clock.clone());
        let broker = Broker::with_profile(MetricsRegistry::new(), clock.clone(), link);
        let cloud = WebService::new(CloudConfig::default(), auth, broker, clock.clone());
        let (_, token) = cloud.auth().login("bench@gcx.dev").unwrap();
        let reg = cloud
            .register_endpoint(&token, "bench-ep", false, AuthPolicy::open(), None)
            .unwrap();
        let config = EndpointConfig::from_yaml(engine_yaml).unwrap();
        let agent = EndpointAgent::start(
            &cloud,
            reg.endpoint_id,
            &reg.queue_credential,
            &config,
            AgentEnv::local(clock),
        )
        .unwrap();
        Self {
            cloud,
            token,
            endpoint: reg.endpoint_id,
            agent: Some(agent),
        }
    }

    /// Tear everything down.
    pub fn stop(mut self) {
        if let Some(a) = self.agent.take() {
            a.stop();
        }
        self.cloud.shutdown();
    }
}

/// Fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// A flat JSON object writer for machine-readable bench outputs:
/// string/number fields appended in order, rendered without any external
/// dependency, written to `<dir>/<name>.json`.
pub struct JsonReport {
    name: String,
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// A report named `name` (also the output file stem).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: vec![("experiment".into(), json_escape(name))],
        }
    }

    /// Append an integer field.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a float field (JSON has no NaN/Inf; those render as null).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Append a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_string(), json_escape(value)));
        self
    }

    /// Render the object.
    pub(crate) fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_escape(k), v))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Write `<dir>/<name>.json`, creating `dir` if needed; returns the path.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.render() + "\n")?;
        Ok(path)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a duration as milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

/// Format bytes human-readably.
pub fn human_bytes(n: u64) -> String {
    if n >= 1024 * 1024 {
        format!("{:.1}MB", n as f64 / (1024.0 * 1024.0))
    } else if n >= 1024 {
        format!("{:.1}KB", n as f64 / 1024.0)
    } else {
        format!("{n}B")
    }
}

/// A deterministic xorshift RNG for workload generation.
pub struct BenchRng(u64);

impl BenchRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// Uniform in [0, 1).
    pub fn f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.f64() * n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::SystemClock;
    use gcx_core::value::Value;
    use gcx_sdk::{Executor, PyFunction};

    #[test]
    fn bench_stack_runs_a_task() {
        let stack = BenchStack::new(
            "engine:\n  type: GlobusComputeEngine\n",
            SystemClock::shared(),
        );
        let ex = Executor::new(stack.cloud.clone(), stack.token.clone(), stack.endpoint).unwrap();
        let f = PyFunction::new("def f():\n    return 1\n");
        let fut = ex.submit(&f, vec![], Value::None).unwrap();
        assert_eq!(
            fut.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(1)
        );
        ex.close();
        stack.stop();
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0MB");
        assert_eq!(human_bytes(10), "10B");
    }

    #[test]
    fn json_report_renders_and_writes() {
        let mut r = JsonReport::new("soak");
        r.num("tasks", 10)
            .float("rate", 2.5)
            .text("note", "a \"quoted\"\nline");
        assert_eq!(
            r.render(),
            "{\"experiment\": \"soak\", \"tasks\": 10, \"rate\": 2.5, \
             \"note\": \"a \\\"quoted\\\"\\nline\"}"
        );
        let dir = std::env::temp_dir().join("gcx-bench-json-test");
        let path = r.write_to(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.render() + "\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = BenchRng::new(9);
        let mut b = BenchRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.f64(), b.f64());
        }
        let x = a.below(10);
        assert!(x < 10);
    }
}
