//! Result lines: the one-object JSON summary a run ends with, and the
//! reader the all-workloads mode uses on its children's summaries. No JSON
//! crate is vendored, so both sides are written against this one format.

use std::collections::BTreeMap;

/// Measured values by metric name. A metric that does not apply (or whose
/// counter is gone) is absent.
pub type Values = BTreeMap<&'static str, f64>;

/// A run's summary as read back from its last line.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// `names` fixes which metrics the line carries and in which order; an absent
/// value is written as 0 (JSON has no "not applicable").
pub fn summary_line(
    attempted: u64,
    failed: u64,
    names: impl Iterator<Item = (&'static str, &'static str)>,
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .map(|(name, unit)| {
            let value = values.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Read a line written by [`summary_line`].
pub fn parse_summary(line: &str) -> Option<Summary> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut summary = Summary {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics: BTreeMap::new(),
    };
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = name_end + rest[name_end..].find("\"value\": ")? + 9;
        let value_end = value_at + rest[value_at..].find(',')?;
        let unit_at = value_end + rest[value_end..].find("\"unit\": \"")? + 9;
        let unit_end = unit_at + rest[unit_at..].find('"')?;
        summary.metrics.insert(
            name.to_string(),
            (
                rest[value_at..value_end].parse().ok()?,
                rest[unit_at..unit_end].to_string(),
            ),
        );
        rest = &rest[unit_end + 2..];
    }
    Some(summary)
}

pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}
