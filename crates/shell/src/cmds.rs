//! The builtin command set for the mini shell.
//!
//! Real ShellFunctions invoke whatever binaries exist on the endpoint; the
//! reproduction ships a small, deterministic "coreutils" that the examples
//! and benchmarks exercise. Every command reads/writes the endpoint's
//! [`Vfs`] and tells time through the endpoint's clock.

use std::collections::BTreeMap;
use std::time::Duration;

use gcx_core::clock::{SharedClock, TimeMs};

use crate::vfs::{normalize, Vfs};

/// Execution context handed to each builtin.
pub(crate) struct CmdCtx<'a> {
    /// The endpoint host's filesystem.
    pub(crate) vfs: &'a Vfs,
    /// The endpoint's clock (virtual in simulations).
    pub(crate) clock: &'a SharedClock,
    /// Environment variables.
    pub(crate) env: &'a BTreeMap<String, String>,
    /// Working directory (absolute).
    pub(crate) cwd: &'a str,
    /// Standard input (from a pipe or `<` redirect).
    pub(crate) stdin: &'a str,
    /// Absolute deadline (clock ms); commands that wait must not sleep past
    /// it.
    pub(crate) deadline: Option<TimeMs>,
}

/// Result of one builtin invocation.
pub(crate) struct CmdOut {
    /// Exit code.
    pub(crate) code: i32,
    /// Standard output.
    pub(crate) stdout: String,
    /// Standard error.
    pub(crate) stderr: String,
    /// Set by `exit`: terminate the whole command line.
    pub(crate) hard_exit: bool,
    /// Set when the command hit the walltime deadline.
    pub(crate) timed_out: bool,
}

impl CmdOut {
    fn ok(stdout: impl Into<String>) -> Self {
        Self {
            code: 0,
            stdout: stdout.into(),
            stderr: String::new(),
            hard_exit: false,
            timed_out: false,
        }
    }

    fn fail(code: i32, stderr: impl Into<String>) -> Self {
        Self {
            code,
            stdout: String::new(),
            stderr: stderr.into(),
            hard_exit: false,
            timed_out: false,
        }
    }

    fn timeout() -> Self {
        Self {
            code: gcx_core::shellres::WALLTIME_RETURNCODE,
            stdout: String::new(),
            stderr: String::new(),
            hard_exit: false,
            timed_out: true,
        }
    }
}

/// Run a builtin. `argv[0]` is the command name.
pub(crate) fn run(argv: &[String], ctx: &CmdCtx<'_>) -> CmdOut {
    let name = argv[0].as_str();
    let args = &argv[1..];
    match name {
        "true" => CmdOut::ok(""),
        "false" => CmdOut::fail(1, ""),
        "echo" => {
            let (no_newline, rest) = match args.first().map(String::as_str) {
                Some("-n") => (true, &args[1..]),
                _ => (false, args),
            };
            let mut out = rest.join(" ");
            if !no_newline {
                out.push('\n');
            }
            CmdOut::ok(out)
        }
        "pwd" => CmdOut::ok(format!("{}\n", ctx.cwd)),
        "env" => {
            let mut out = String::new();
            for (k, v) in ctx.env {
                out.push_str(&format!("{k}={v}\n"));
            }
            CmdOut::ok(out)
        }
        "hostname" => {
            let host = ctx
                .env
                .get("HOSTNAME")
                .cloned()
                .unwrap_or_else(|| "localhost".into());
            CmdOut::ok(format!("{host}\n"))
        }
        "exit" => {
            let code = args
                .first()
                .and_then(|a| a.parse::<i32>().ok())
                .unwrap_or(0);
            CmdOut {
                code,
                stdout: String::new(),
                stderr: String::new(),
                hard_exit: true,
                timed_out: false,
            }
        }
        "sleep" => {
            let Some(secs) = args.first().and_then(|a| a.parse::<f64>().ok()) else {
                return CmdOut::fail(1, "sleep: invalid time interval\n");
            };
            let want_ms = (secs.max(0.0) * 1000.0) as u64;
            let now = ctx.clock.now_ms();
            if let Some(deadline) = ctx.deadline {
                if now.saturating_add(want_ms) > deadline {
                    // Sleep only to the deadline, then report the timeout —
                    // this is the cooperative walltime kill (§III-B.3).
                    let allowed = deadline.saturating_sub(now);
                    if allowed > 0 {
                        ctx.clock.sleep(Duration::from_millis(allowed));
                    }
                    return CmdOut::timeout();
                }
            }
            ctx.clock.sleep(Duration::from_millis(want_ms));
            CmdOut::ok("")
        }
        "seq" => {
            let nums: Vec<i64> = args.iter().filter_map(|a| a.parse().ok()).collect();
            let (lo, hi) = match (nums.first(), nums.get(1), args.len()) {
                (Some(&hi), None, 1) => (1, hi),
                (Some(&lo), Some(&hi), 2) => (lo, hi),
                _ => return CmdOut::fail(1, "seq: usage: seq LAST | seq FIRST LAST\n"),
            };
            if hi - lo > 1_000_000 {
                return CmdOut::fail(1, "seq: range too large\n");
            }
            let mut out = String::new();
            for i in lo..=hi {
                out.push_str(&format!("{i}\n"));
            }
            CmdOut::ok(out)
        }
        "cat" => {
            if args.is_empty() {
                return CmdOut::ok(ctx.stdin.to_string());
            }
            let mut out = String::new();
            for path in args {
                match ctx.vfs.read_to_string(&normalize(path, ctx.cwd)) {
                    Ok(text) => out.push_str(&text),
                    Err(e) => return CmdOut::fail(1, format!("cat: {e}\n")),
                }
            }
            CmdOut::ok(out)
        }
        "grep" => {
            let Some(pattern) = args.first() else {
                return CmdOut::fail(2, "grep: missing pattern\n");
            };
            let text = match args.get(1) {
                Some(path) => match ctx.vfs.read_to_string(&normalize(path, ctx.cwd)) {
                    Ok(t) => t,
                    Err(e) => return CmdOut::fail(2, format!("grep: {e}\n")),
                },
                None => ctx.stdin.to_string(),
            };
            let mut out = String::new();
            for line in text.lines() {
                if line.contains(pattern.as_str()) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            if out.is_empty() {
                CmdOut::fail(1, "")
            } else {
                CmdOut::ok(out)
            }
        }
        "wc" => {
            // Read raw bytes: `wc -c` must count binary files too.
            let bytes: Vec<u8> = match args.iter().find(|a| !a.starts_with('-')) {
                Some(path) => match ctx.vfs.read(&normalize(path, ctx.cwd)) {
                    Ok(b) => b,
                    Err(e) => return CmdOut::fail(1, format!("wc: {e}\n")),
                },
                None => ctx.stdin.as_bytes().to_vec(),
            };
            if args.iter().any(|a| a == "-c") {
                return CmdOut::ok(format!("{}\n", bytes.len()));
            }
            let text = String::from_utf8_lossy(&bytes);
            if args.iter().any(|a| a == "-l") {
                CmdOut::ok(format!("{}\n", text.lines().count()))
            } else {
                let words: usize = text.split_whitespace().count();
                CmdOut::ok(format!(
                    "{} {} {}\n",
                    text.lines().count(),
                    words,
                    bytes.len()
                ))
            }
        }
        "head" | "tail" => {
            let mut n = 10usize;
            let mut path = None;
            let mut it = args.iter();
            while let Some(a) = it.next() {
                if a == "-n" {
                    n = it.next().and_then(|x| x.parse().ok()).unwrap_or(10);
                } else {
                    path = Some(a.clone());
                }
            }
            let text = match path {
                Some(p) => match ctx.vfs.read_to_string(&normalize(&p, ctx.cwd)) {
                    Ok(t) => t,
                    Err(e) => return CmdOut::fail(1, format!("{name}: {e}\n")),
                },
                None => ctx.stdin.to_string(),
            };
            let lines: Vec<&str> = text.lines().collect();
            let selected: Vec<&str> = if name == "head" {
                lines.iter().take(n).copied().collect()
            } else {
                lines
                    .iter()
                    .skip(lines.len().saturating_sub(n))
                    .copied()
                    .collect()
            };
            let mut out = selected.join("\n");
            if !out.is_empty() {
                out.push('\n');
            }
            CmdOut::ok(out)
        }
        "ls" => {
            let path = args.first().map(String::as_str).unwrap_or(ctx.cwd);
            match ctx.vfs.list(&normalize(path, ctx.cwd)) {
                Ok(names) => {
                    let mut out = names.join("\n");
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    CmdOut::ok(out)
                }
                Err(e) => CmdOut::fail(1, format!("ls: {e}\n")),
            }
        }
        "mkdir" => {
            let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
            if paths.is_empty() {
                return CmdOut::fail(1, "mkdir: missing operand\n");
            }
            for p in paths {
                if let Err(e) = ctx.vfs.mkdir_p(&normalize(p, ctx.cwd)) {
                    return CmdOut::fail(1, format!("mkdir: {e}\n"));
                }
            }
            CmdOut::ok("")
        }
        "rm" => {
            let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
            if paths.is_empty() {
                return CmdOut::fail(1, "rm: missing operand\n");
            }
            for p in paths {
                if let Err(e) = ctx.vfs.remove(&normalize(p, ctx.cwd)) {
                    return CmdOut::fail(1, format!("rm: {e}\n"));
                }
            }
            CmdOut::ok("")
        }
        "touch" => {
            for p in args {
                let path = normalize(p, ctx.cwd);
                if !ctx.vfs.exists(&path) {
                    if let Err(e) = ctx.vfs.write(&path, b"") {
                        return CmdOut::fail(1, format!("touch: {e}\n"));
                    }
                }
            }
            CmdOut::ok("")
        }
        "mpiexec" | "mpirun" | "srun" | "aprun" => {
            // Reaching the launcher as a plain builtin means the engine did
            // not set up an MPI context; a real cluster would fail similarly.
            CmdOut::fail(
                127,
                format!("{name}: MPI launches must go through the GlobusMPIEngine\n"),
            )
        }
        other => CmdOut::fail(127, format!("{other}: command not found\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{SystemClock, VirtualClock};

    fn ctx<'a>(
        vfs: &'a Vfs,
        clock: &'a SharedClock,
        env: &'a BTreeMap<String, String>,
        stdin: &'a str,
    ) -> CmdCtx<'a> {
        CmdCtx {
            vfs,
            clock,
            env,
            cwd: "/",
            stdin,
            deadline: None,
        }
    }

    fn run_cmd(argv: &[&str], stdin: &str) -> CmdOut {
        let vfs = Vfs::new();
        let clock: SharedClock = SystemClock::shared();
        let env = BTreeMap::new();
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&argv, &ctx(&vfs, &clock, &env, stdin))
    }

    #[test]
    fn echo_variants() {
        assert_eq!(
            run_cmd(&["echo", "hello", "world"], "").stdout,
            "hello world\n"
        );
        assert_eq!(run_cmd(&["echo", "-n", "x"], "").stdout, "x");
        assert_eq!(run_cmd(&["echo"], "").stdout, "\n");
    }

    #[test]
    fn hostname_reads_env() {
        let vfs = Vfs::new();
        let clock: SharedClock = SystemClock::shared();
        let mut env = BTreeMap::new();
        env.insert("HOSTNAME".to_string(), "exp-14-08".to_string());
        let out = run(&["hostname".to_string()], &ctx(&vfs, &clock, &env, ""));
        assert_eq!(out.stdout, "exp-14-08\n");
    }

    #[test]
    fn seq_and_pipes_material() {
        assert_eq!(run_cmd(&["seq", "3"], "").stdout, "1\n2\n3\n");
        assert_eq!(run_cmd(&["seq", "2", "4"], "").stdout, "2\n3\n4\n");
        assert!(run_cmd(&["seq"], "").code != 0);
    }

    #[test]
    fn cat_grep_wc_from_stdin_and_files() {
        let vfs = Vfs::new();
        vfs.write("/data.txt", b"alpha\nbeta\ngamma\n").unwrap();
        let clock: SharedClock = SystemClock::shared();
        let env = BTreeMap::new();
        let c = ctx(&vfs, &clock, &env, "");
        assert_eq!(
            run(&["cat".into(), "/data.txt".into()], &c).stdout,
            "alpha\nbeta\ngamma\n"
        );
        assert_eq!(
            run(&["grep".into(), "am".into(), "/data.txt".into()], &c).stdout,
            "gamma\n"
        );
        assert_eq!(
            run(&["wc".into(), "-l".into(), "/data.txt".into()], &c).stdout,
            "3\n"
        );

        assert_eq!(run_cmd(&["cat"], "piped").stdout, "piped");
        assert_eq!(run_cmd(&["grep", "b"], "a\nb\n").stdout, "b\n");
        assert_eq!(run_cmd(&["wc", "-c"], "1234").stdout, "4\n");
        assert_eq!(run_cmd(&["grep", "zz"], "a\n").code, 1);
    }

    #[test]
    fn head_tail() {
        let input = "1\n2\n3\n4\n5\n";
        assert_eq!(run_cmd(&["head", "-n", "2"], input).stdout, "1\n2\n");
        assert_eq!(run_cmd(&["tail", "-n", "2"], input).stdout, "4\n5\n");
    }

    #[test]
    fn fs_commands() {
        let vfs = Vfs::new();
        let clock: SharedClock = SystemClock::shared();
        let env = BTreeMap::new();
        let c = ctx(&vfs, &clock, &env, "");
        assert_eq!(run(&["mkdir".into(), "/w/x".into()], &c).code, 0);
        assert_eq!(run(&["touch".into(), "/w/x/f".into()], &c).code, 0);
        let out = run(&["ls".into(), "/w/x".into()], &c);
        assert_eq!(out.stdout, "f\n");
        assert_eq!(run(&["rm".into(), "/w/x".into()], &c).code, 0);
        assert!(!vfs.exists("/w/x"));
        assert!(run(&["ls".into(), "/w/x".into()], &c).code != 0);
    }

    #[test]
    fn exit_sets_hard_exit() {
        let out = run_cmd(&["exit", "3"], "");
        assert_eq!(out.code, 3);
        assert!(out.hard_exit);
    }

    #[test]
    fn unknown_command_127() {
        let out = run_cmd(&["frobnicate"], "");
        assert_eq!(out.code, 127);
        assert!(out.stderr.contains("command not found"));
    }

    #[test]
    fn bare_mpiexec_refused() {
        let out = run_cmd(&["mpiexec", "-n", "4", "app"], "");
        assert_eq!(out.code, 127);
        assert!(out.stderr.contains("GlobusMPIEngine"));
    }

    #[test]
    fn sleep_respects_deadline_on_virtual_clock() {
        let clock_v = VirtualClock::new();
        let clock: SharedClock = clock_v.clone();
        let vfs = Vfs::new();
        let env = BTreeMap::new();
        let handle = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let c = CmdCtx {
                    vfs: &vfs,
                    clock: &clock,
                    env: &env,
                    cwd: "/",
                    stdin: "",
                    deadline: Some(1_000),
                };
                // Listing 3: sleep 2 with walltime 1 → return code 124.
                run(&["sleep".to_string(), "2".to_string()], &c)
            })
        };
        clock_v.wait_for_sleepers(1);
        clock_v.advance(1_000);
        let out = handle.join().unwrap();
        assert_eq!(out.code, 124);
        assert!(out.timed_out);
        // Crucially: only 1000 virtual ms elapsed, not 2000.
        assert_eq!(clock.now_ms(), 1_000);
    }

    #[test]
    fn sleep_within_deadline_completes() {
        let clock_v = VirtualClock::new();
        let clock: SharedClock = clock_v.clone();
        let vfs = Vfs::new();
        let env = BTreeMap::new();
        let handle = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let c = CmdCtx {
                    vfs: &vfs,
                    clock: &clock,
                    env: &env,
                    cwd: "/",
                    stdin: "",
                    deadline: Some(5_000),
                };
                run(&["sleep".to_string(), "1".to_string()], &c)
            })
        };
        clock_v.wait_for_sleepers(1);
        clock_v.advance(1_000);
        let out = handle.join().unwrap();
        assert_eq!(out.code, 0);
        assert!(!out.timed_out);
    }
}
