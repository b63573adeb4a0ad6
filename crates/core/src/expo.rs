//! Metrics and trace exposition: Prometheus text format and a JSON
//! snapshot, both dependency-free.
//!
//! Components that hold a [`MetricsRegistry`] (the cloud service, the
//! endpoint agent) render their counters, histogram buckets, trace leg
//! summaries, and whatever extra gauges they own (per-endpoint health,
//! engine occupancy) through the builders here. The Prometheus renderer
//! follows the text exposition format: `# TYPE` headers, `_bucket` series
//! with cumulative `le` labels, `_sum`/`_count` companions.

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, MetricsRegistry};
use crate::trace::{json_escape, Tracer};

/// Map an internal dotted metric name ("cloud.tasks_submitted") to a valid
/// Prometheus metric name ("gcx_cloud_tasks_submitted").
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("gcx_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Incremental Prometheus text builder.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// Empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// One counter sample.
    pub fn counter(&mut self, name: &str, value: u64) {
        let n = prom_name(name);
        let _ = writeln!(self.out, "# TYPE {n} counter");
        let _ = writeln!(self.out, "{n} {value}");
    }

    /// One gauge sample with optional labels.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let n = prom_name(name);
        let _ = writeln!(self.out, "# TYPE {n} gauge");
        if labels.is_empty() {
            let _ = writeln!(self.out, "{n} {value}");
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", json_escape(v)))
                .collect();
            let _ = writeln!(self.out, "{n}{{{}}} {value}", rendered.join(","));
        }
    }

    /// One histogram: cumulative `le` buckets plus `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, snap: &HistogramSnapshot) {
        let n = prom_name(name);
        let _ = writeln!(self.out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &snap.buckets {
            cumulative += count;
            if *bound == u64::MAX {
                continue; // folded into +Inf below
            }
            let _ = writeln!(self.out, "{n}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(self.out, "{n}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(self.out, "{n}_sum {}", snap.sum);
        let _ = writeln!(self.out, "{n}_count {}", snap.count);
    }

    /// Every counter and histogram in `registry`.
    pub fn registry(&mut self, registry: &MetricsRegistry) {
        for (name, value) in registry.counter_snapshot() {
            self.counter(&name, value);
        }
        for (name, snap) in registry.histogram_snapshot() {
            self.histogram(&name, &snap);
        }
    }

    /// Per-leg trace duration summaries as labeled gauges.
    pub fn trace_summary(&mut self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        let legs = tracer.leg_summary();
        if legs.is_empty() {
            return;
        }
        let n = "gcx_trace_leg_ms";
        let _ = writeln!(self.out, "# TYPE {n} gauge");
        for (leg, stats) in &legs {
            for (stat, v) in [
                ("count", stats.count),
                ("p50", stats.p50_ms),
                ("p95", stats.p95_ms),
                ("max", stats.max_ms),
            ] {
                let _ = writeln!(
                    self.out,
                    "{n}{{leg=\"{}\",stat=\"{stat}\"}} {v}",
                    json_escape(leg)
                );
            }
        }
        self.gauge("trace.retained", &[], tracer.trace_count() as u64);
        self.gauge("trace.evicted", &[], tracer.traces_evicted());
    }

    /// The rendered page.
    pub fn render(self) -> String {
        self.out
    }
}

/// Incremental JSON object builder for exposition snapshots. Values added
/// with [`JsonBody::raw`] must already be valid JSON.
#[derive(Debug, Default)]
pub struct JsonBody {
    out: String,
}

impl JsonBody {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.out.is_empty() {
            self.out.push(',');
        }
        let _ = write!(self.out, "\"{}\":", json_escape(key));
    }

    /// Add a pre-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push_str(value);
    }

    /// Add a string value.
    pub fn text(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.out, "\"{}\"", json_escape(value));
    }

    /// Add an integer value.
    pub fn num(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Add every counter (`counters`), histogram (`histograms`), gauge
    /// (`gauges`), and — if the tracer is enabled — trace leg summary
    /// (`trace_legs`).
    pub fn registry(&mut self, registry: &MetricsRegistry, tracer: &Tracer) {
        let mut counters = String::from("{");
        for (i, (name, value)) in registry.counter_snapshot().iter().enumerate() {
            if i > 0 {
                counters.push(',');
            }
            let _ = write!(counters, "\"{}\":{value}", json_escape(name));
        }
        counters.push('}');
        self.raw("counters", &counters);

        let mut hists = String::from("{");
        for (i, (name, s)) in registry.histogram_snapshot().iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            let _ = write!(
                hists,
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_escape(name),
                s.count,
                s.sum,
                s.mean,
                s.p50,
                s.p90,
                s.p99
            );
        }
        hists.push('}');
        self.raw("histograms", &hists);

        let mut gauges = String::from("{");
        for (i, (name, value)) in registry.gauge_snapshot().iter().enumerate() {
            if i > 0 {
                gauges.push(',');
            }
            let _ = write!(gauges, "\"{}\":{value}", json_escape(name));
        }
        gauges.push('}');
        self.raw("gauges", &gauges);

        if tracer.enabled() {
            let mut legs = String::from("{");
            for (i, (leg, s)) in tracer.leg_summary().iter().enumerate() {
                if i > 0 {
                    legs.push(',');
                }
                let _ = write!(
                    legs,
                    "\"{}\":{{\"count\":{},\"mean_ms\":{:.3},\"p50_ms\":{},\"p95_ms\":{},\"max_ms\":{}}}",
                    json_escape(leg),
                    s.count,
                    s.mean_ms,
                    s.p50_ms,
                    s.p95_ms,
                    s.max_ms
                );
            }
            legs.push('}');
            self.raw("trace_legs", &legs);
            self.num("traces_retained", tracer.trace_count() as u64);
        }
    }

    /// The rendered `{...}` object.
    pub fn render(self) -> String {
        format!("{{{}}}", self.out)
    }
}

/// Whole-registry Prometheus text page (counters, histograms, trace legs).
pub fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut page = PromText::new();
    page.registry(registry);
    page.trace_summary(&registry.tracer());
    page.render()
}

/// Whole-registry JSON snapshot.
pub fn json_snapshot(registry: &MetricsRegistry) -> String {
    let mut body = JsonBody::new();
    body.registry(registry, &registry.tracer());
    body.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SharedClock, VirtualClock};
    use crate::trace::{TraceConfig, Tracer};

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(
            prom_name("cloud.tasks_submitted"),
            "gcx_cloud_tasks_submitted"
        );
        assert_eq!(
            prom_name("block_loss_node-crash"),
            "gcx_block_loss_node_crash"
        );
    }

    #[test]
    fn prometheus_page_renders_counters_and_cumulative_buckets() {
        let r = MetricsRegistry::new();
        r.counter("cloud.tasks_submitted").add(3);
        let h = r.histogram("mq.publish_ms");
        h.record(1);
        h.record(1);
        h.record(5);
        let page = prometheus_text(&r);
        assert!(page.contains("# TYPE gcx_cloud_tasks_submitted counter"));
        assert!(page.contains("gcx_cloud_tasks_submitted 3"));
        assert!(page.contains("# TYPE gcx_mq_publish_ms histogram"));
        // Two 1s in the le="1" bucket, cumulative 3 by le="7", +Inf = count.
        assert!(page.contains("gcx_mq_publish_ms_bucket{le=\"1\"} 2"));
        assert!(page.contains("gcx_mq_publish_ms_bucket{le=\"7\"} 3"));
        assert!(page.contains("gcx_mq_publish_ms_bucket{le=\"+Inf\"} 3"));
        assert!(page.contains("gcx_mq_publish_ms_sum 7"));
        assert!(page.contains("gcx_mq_publish_ms_count 3"));
    }

    #[test]
    fn trace_legs_appear_in_both_formats() {
        let vclock = VirtualClock::new();
        let clock: SharedClock = vclock.clone();
        let r = MetricsRegistry::new();
        r.set_tracer(Tracer::new(clock, TraceConfig::default()));
        let t = r.tracer();
        let ctx = t.start_trace("task");
        vclock.advance(10);
        t.record_span(ctx.as_ref(), "queue", 0, 10);

        let page = prometheus_text(&r);
        assert!(page.contains("gcx_trace_leg_ms{leg=\"queue\",stat=\"p50\"} 10"));
        assert!(page.contains("gcx_trace_retained 1"));

        let json = json_snapshot(&r);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"trace_legs\":{"));
        assert!(json.contains("\"queue\":{\"count\":1"));
        assert!(json.contains("\"traces_retained\":1"));
    }

    #[test]
    fn json_snapshot_without_tracer_omits_trace_keys() {
        let r = MetricsRegistry::new();
        r.counter("a.b").inc();
        let json = json_snapshot(&r);
        assert!(json.contains("\"a.b\":1"));
        assert!(!json.contains("trace_legs"));
    }

    #[test]
    fn json_body_composes_extra_keys() {
        let mut b = JsonBody::new();
        b.text("health", "online");
        b.num("endpoints", 2);
        b.raw("extra", "[1,2]");
        assert_eq!(
            b.render(),
            "{\"health\":\"online\",\"endpoints\":2,\"extra\":[1,2]}"
        );
    }
}
