//! `ShellResult` — the structured result of a `ShellFunction` or
//! `MPIFunction` (§III-B.1 of the paper).
//!
//! Encapsulates the return code, the last *N* lines of the stdout and stderr
//! streams (1000 by default, configurable), and the formatted command line
//! that was executed.

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Return code used when a command is killed for exceeding its walltime —
/// the shell convention for `timeout(1)` (§III-B.3, Listing 3).
pub const WALLTIME_RETURNCODE: i32 = 124;

/// Default number of trailing output lines captured from each stream.
pub const DEFAULT_SNIPPET_LINES: usize = 1000;

/// The outcome of running a shell/MPI command on an endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShellResult {
    /// Process return code (124 when killed by walltime).
    pub returncode: i32,
    /// Last N lines of standard output.
    pub stdout: String,
    /// Last N lines of standard error.
    pub stderr: String,
    /// The formatted command line string that was executed (after
    /// `{placeholder}` substitution and, for MPI, launcher prefixing).
    pub cmd: String,
}

impl ShellResult {
    /// True if the command was killed for exceeding its walltime.
    pub fn timed_out(&self) -> bool {
        self.returncode == WALLTIME_RETURNCODE
    }

    /// Keep only the last `n` lines of `text` (the stream-snippet rule).
    pub fn snippet(text: &str, n: usize) -> String {
        if n == 0 {
            return String::new();
        }
        let total = text.lines().count();
        if total <= n {
            return text.to_string();
        }
        let mut out: String = text.lines().skip(total - n).collect::<Vec<_>>().join("\n");
        if text.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Pack into the generic [`Value`] payload for shipping through the
    /// cloud as a task result.
    pub fn to_value(&self) -> Value {
        Value::map([
            ("returncode", Value::Int(self.returncode as i64)),
            ("stdout", Value::str(&self.stdout)),
            ("stderr", Value::str(&self.stderr)),
            ("cmd", Value::str(&self.cmd)),
        ])
    }

    /// Reconstruct from a [`Value`] produced by [`ShellResult::to_value`].
    /// Returns `None` if the shape does not match.
    pub fn from_value(v: &Value) -> Option<Self> {
        let m = v.as_map()?;
        Some(Self {
            returncode: m.get("returncode")?.as_int()? as i32,
            stdout: m.get("stdout")?.as_str()?.to_string(),
            stderr: m.get("stderr")?.as_str()?.to_string(),
            cmd: m.get("cmd")?.as_str()?.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_keeps_last_lines() {
        let text = "1\n2\n3\n4\n5\n";
        assert_eq!(ShellResult::snippet(text, 2), "4\n5\n");
        assert_eq!(ShellResult::snippet(text, 10), text);
        assert_eq!(ShellResult::snippet(text, 0), "");
        assert_eq!(ShellResult::snippet("", 3), "");
    }

    #[test]
    fn snippet_without_trailing_newline() {
        let text = "a\nb\nc";
        assert_eq!(ShellResult::snippet(text, 2), "b\nc");
    }

    #[test]
    fn walltime_detection() {
        let r = ShellResult {
            returncode: WALLTIME_RETURNCODE,
            stdout: String::new(),
            stderr: String::new(),
            cmd: "sleep 2".into(),
        };
        assert!(r.timed_out());
    }

    #[test]
    fn value_roundtrip() {
        let r = ShellResult {
            returncode: 0,
            stdout: "hello\n".into(),
            stderr: String::new(),
            cmd: "echo 'hello'".into(),
        };
        let v = r.to_value();
        assert_eq!(ShellResult::from_value(&v).unwrap(), r);
    }

    #[test]
    fn from_value_rejects_wrong_shape() {
        assert!(ShellResult::from_value(&Value::Int(3)).is_none());
        let v = Value::map([("returncode", Value::str("zero"))]);
        assert!(ShellResult::from_value(&v).is_none());
    }
}
