//! The shell interpreter: pipelines, sequencing, redirects, and walltime.
//!
//! Grammar executed here:
//!
//! ```text
//! line     := andor (";" andor)*
//! andor    := pipeline (("&&" | "||") pipeline)*
//! pipeline := simple ("|" simple)*
//! simple   := WORD+ redirect*
//! redirect := ">" WORD | ">>" WORD | "<" WORD
//! ```
//!
//! Expansion order matches a POSIX shell closely enough for the paper's use
//! cases: `$VAR` expansion first (respecting single quotes), then
//! tokenization with quote removal.

use std::collections::BTreeMap;

use gcx_core::clock::{SharedClock, TimeMs};
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::shellres::WALLTIME_RETURNCODE;

use crate::cmds::{self, CmdCtx};
use crate::vfs::{normalize, Vfs};
use crate::words::{expand_vars, tokenize, ShTok};

/// The outcome of running one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Exit code of the last executed pipeline (124 on walltime kill).
    pub returncode: i32,
    /// Accumulated standard output (full; callers snippet it).
    pub stdout: String,
    /// Accumulated standard error.
    pub stderr: String,
    /// True when the walltime deadline killed execution.
    pub(crate) timed_out: bool,
}

/// A shell bound to one endpoint host (filesystem + clock).
#[derive(Clone)]
pub struct ShellExecutor {
    vfs: Vfs,
    clock: SharedClock,
}

struct Simple {
    argv: Vec<String>,
    redirect_out: Option<(String, bool)>, // (path, append)
    redirect_in: Option<String>,
}

impl ShellExecutor {
    /// Create a shell over a filesystem and clock.
    pub fn new(vfs: Vfs, clock: SharedClock) -> Self {
        Self { vfs, clock }
    }

    /// Run a command line.
    ///
    /// * `env` — environment variables (`$VAR` expansion, `hostname`, …).
    /// * `cwd` — working directory; must exist in the VFS.
    /// * `walltime_ms` — optional relative deadline; exceeding it stops
    ///   execution with return code 124 (§III-B.3).
    pub fn run(
        &self,
        cmdline: &str,
        env: &BTreeMap<String, String>,
        cwd: &str,
        walltime_ms: Option<u64>,
    ) -> GcxResult<ExecOutcome> {
        if !self.vfs.is_dir(cwd) {
            return Err(GcxError::Execution(format!(
                "no such working directory: '{cwd}'"
            )));
        }
        let deadline: Option<TimeMs> = walltime_ms.map(|w| self.clock.now_ms().saturating_add(w));

        let expanded = expand_vars(cmdline, env);
        let tokens = tokenize(&expanded)?;
        let sequences = split_top(&tokens, &ShTok::Semi);

        let mut stdout_acc = String::new();
        let mut stderr_acc = String::new();
        let mut last_code = 0i32;

        'outer: for seq in sequences {
            if seq.is_empty() {
                continue;
            }
            // Split the and-or list, keeping the operators.
            let mut pipelines: Vec<(&[ShTok], Option<ShTok>)> = Vec::new();
            let mut start = 0usize;
            for (i, t) in seq.iter().enumerate() {
                if matches!(t, ShTok::AndIf | ShTok::OrIf) {
                    pipelines.push((&seq[start..i], Some(t.clone())));
                    start = i + 1;
                }
            }
            pipelines.push((&seq[start..], None));

            let mut skip_until_op: Option<bool> = None; // Some(true)=skip while last was success…
            for (pipe_toks, op_after) in pipelines {
                let should_run = match skip_until_op {
                    None => true,
                    Some(run_if_success) => (last_code == 0) == run_if_success,
                };
                if should_run {
                    if let Some(deadline) = deadline {
                        if self.clock.now_ms() >= deadline {
                            return Ok(ExecOutcome {
                                returncode: WALLTIME_RETURNCODE,
                                stdout: stdout_acc,
                                stderr: stderr_acc,
                                timed_out: true,
                            });
                        }
                    }
                    let (code, out, err, timed_out, hard_exit) =
                        self.run_pipeline(pipe_toks, env, cwd, deadline)?;
                    stdout_acc.push_str(&out);
                    stderr_acc.push_str(&err);
                    last_code = code;
                    if timed_out {
                        return Ok(ExecOutcome {
                            returncode: WALLTIME_RETURNCODE,
                            stdout: stdout_acc,
                            stderr: stderr_acc,
                            timed_out: true,
                        });
                    }
                    if hard_exit {
                        break 'outer;
                    }
                }
                skip_until_op = match op_after {
                    Some(ShTok::AndIf) => Some(true), // next runs only on success
                    Some(ShTok::OrIf) => Some(false), // next runs only on failure
                    _ => None,
                };
            }
        }

        Ok(ExecOutcome {
            returncode: last_code,
            stdout: stdout_acc,
            stderr: stderr_acc,
            timed_out: false,
        })
    }

    fn run_pipeline(
        &self,
        tokens: &[ShTok],
        env: &BTreeMap<String, String>,
        cwd: &str,
        deadline: Option<TimeMs>,
    ) -> GcxResult<(i32, String, String, bool, bool)> {
        let stages = split_top(tokens, &ShTok::Pipe);
        let mut simples = Vec::new();
        for stage in &stages {
            simples.push(parse_simple(stage)?);
        }
        if simples.is_empty() {
            return Ok((0, String::new(), String::new(), false, false));
        }

        let n = simples.len();
        let mut piped_input = String::new();
        let mut stderr_acc = String::new();
        let mut final_stdout = String::new();
        let mut code = 0i32;
        let mut hard_exit = false;

        for (i, simple) in simples.into_iter().enumerate() {
            let is_last = i == n - 1;
            let stdin_data = match &simple.redirect_in {
                Some(path) => self.vfs.read_to_string(&normalize(path, cwd))?,
                None => std::mem::take(&mut piped_input),
            };
            let ctx = CmdCtx {
                vfs: &self.vfs,
                clock: &self.clock,
                env,
                cwd,
                stdin: &stdin_data,
                deadline,
            };
            let out = cmds::run(&simple.argv, &ctx);
            stderr_acc.push_str(&out.stderr);
            if out.timed_out {
                return Ok((WALLTIME_RETURNCODE, final_stdout, stderr_acc, true, false));
            }
            code = out.code;
            hard_exit = out.hard_exit;

            // Route stdout: redirect beats pipe beats accumulation.
            if let Some((path, append)) = &simple.redirect_out {
                let p = normalize(path, cwd);
                if *append {
                    self.vfs.append(&p, out.stdout.as_bytes())?;
                } else {
                    self.vfs.write(&p, out.stdout.as_bytes())?;
                }
            } else if is_last {
                final_stdout.push_str(&out.stdout);
            } else {
                piped_input = out.stdout;
            }
            if hard_exit {
                break;
            }
        }
        Ok((code, final_stdout, stderr_acc, false, hard_exit))
    }
}

fn split_top<'a>(tokens: &'a [ShTok], sep: &ShTok) -> Vec<&'a [ShTok]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        if t == sep {
            out.push(&tokens[start..i]);
            start = i + 1;
        }
    }
    out.push(&tokens[start..]);
    out
}

fn parse_simple(tokens: &[ShTok]) -> GcxResult<Simple> {
    let mut argv = Vec::new();
    let mut redirect_out = None;
    let mut redirect_in = None;
    let mut it = tokens.iter();
    while let Some(t) = it.next() {
        match t {
            ShTok::Word(w) => argv.push(w.clone()),
            ShTok::RedirOut | ShTok::RedirAppend => {
                let append = matches!(t, ShTok::RedirAppend);
                match it.next() {
                    Some(ShTok::Word(path)) => redirect_out = Some((path.clone(), append)),
                    _ => return Err(GcxError::Parse("redirect requires a target".into())),
                }
            }
            ShTok::RedirIn => match it.next() {
                Some(ShTok::Word(path)) => redirect_in = Some(path.clone()),
                _ => return Err(GcxError::Parse("redirect requires a source".into())),
            },
            other => {
                return Err(GcxError::Parse(format!(
                    "unexpected token {other:?} in command"
                )))
            }
        }
    }
    if argv.is_empty() {
        return Err(GcxError::Parse("empty command".into()));
    }
    Ok(Simple {
        argv,
        redirect_out,
        redirect_in,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{SystemClock, VirtualClock};

    fn shell() -> ShellExecutor {
        ShellExecutor::new(Vfs::new(), SystemClock::shared())
    }

    fn env() -> BTreeMap<String, String> {
        BTreeMap::new()
    }

    #[test]
    fn echo_hello() {
        let out = shell().run("echo 'hello'", &env(), "/", None).unwrap();
        assert_eq!(out.returncode, 0);
        assert_eq!(out.stdout, "hello\n");
    }

    #[test]
    fn pipelines() {
        let out = shell()
            .run("seq 10 | grep 1 | wc -l", &env(), "/", None)
            .unwrap();
        assert_eq!(out.stdout, "2\n"); // 1 and 10
        let out = shell().run("echo 'a b c' | wc", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "1 3 6\n");
    }

    #[test]
    fn sequencing_and_conditionals() {
        let out = shell().run("echo a; echo b", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "a\nb\n");
        let out = shell().run("true && echo yes", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "yes\n");
        let out = shell().run("false && echo no", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "");
        assert_eq!(out.returncode, 1);
        let out = shell()
            .run("false || echo fallback", &env(), "/", None)
            .unwrap();
        assert_eq!(out.stdout, "fallback\n");
        let out = shell()
            .run("true || echo skipped; echo always", &env(), "/", None)
            .unwrap();
        assert_eq!(out.stdout, "always\n");
    }

    #[test]
    fn redirects() {
        let sh = shell();
        sh.run("echo line1 > /out.txt", &env(), "/", None).unwrap();
        sh.run("echo line2 >> /out.txt", &env(), "/", None).unwrap();
        assert_eq!(sh.vfs.read_to_string("/out.txt").unwrap(), "line1\nline2\n");
        let out = sh.run("wc -l < /out.txt", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "2\n");
        // Redirected output does not appear on stdout.
        let out = sh.run("echo hidden > /h.txt", &env(), "/", None).unwrap();
        assert_eq!(out.stdout, "");
    }

    #[test]
    fn cwd_resolution() {
        let sh = shell();
        sh.vfs.mkdir_p("/work").unwrap();
        sh.run("echo data > rel.txt", &env(), "/work", None)
            .unwrap();
        assert!(sh.vfs.exists("/work/rel.txt"));
        let out = sh.run("cat rel.txt", &env(), "/work", None).unwrap();
        assert_eq!(out.stdout, "data\n");
        assert!(sh.run("echo x", &env(), "/nope", None).is_err());
    }

    #[test]
    fn env_expansion_in_commands() {
        let mut e = env();
        e.insert("NAME".into(), "world".into());
        let out = shell().run("echo hello $NAME", &e, "/", None).unwrap();
        assert_eq!(out.stdout, "hello world\n");
        // Single quotes suppress expansion.
        let out = shell().run("echo '$NAME'", &e, "/", None).unwrap();
        assert_eq!(out.stdout, "$NAME\n");
    }

    #[test]
    fn exit_stops_line() {
        let out = shell()
            .run("echo a; exit 3; echo b", &env(), "/", None)
            .unwrap();
        assert_eq!(out.stdout, "a\n");
        assert_eq!(out.returncode, 3);
    }

    #[test]
    fn stderr_captured_separately() {
        let out = shell()
            .run("cat /missing; echo ok", &env(), "/", None)
            .unwrap();
        assert!(out.stderr.contains("no such file"));
        assert_eq!(out.stdout, "ok\n");
    }

    #[test]
    fn listing3_walltime_kill() {
        // ShellFunction("sleep 2", walltime=1) → returncode 124.
        let clock = VirtualClock::new();
        let sh = ShellExecutor::new(Vfs::new(), clock.clone());
        let h = {
            let sh = sh.clone();
            std::thread::spawn(move || {
                sh.run("sleep 2", &BTreeMap::new(), "/", Some(1_000))
                    .unwrap()
            })
        };
        clock.wait_for_sleepers(1);
        clock.advance(1_000);
        let out = h.join().unwrap();
        assert_eq!(out.returncode, 124);
        assert!(out.timed_out);
    }

    #[test]
    fn walltime_preserves_partial_output() {
        let clock = VirtualClock::new();
        let sh = ShellExecutor::new(Vfs::new(), clock.clone());
        let h = {
            let sh = sh.clone();
            std::thread::spawn(move || {
                sh.run(
                    "echo started; sleep 5; echo done",
                    &BTreeMap::new(),
                    "/",
                    Some(2_000),
                )
                .unwrap()
            })
        };
        clock.wait_for_sleepers(1);
        clock.advance(2_000);
        let out = h.join().unwrap();
        assert_eq!(out.returncode, 124);
        assert_eq!(out.stdout, "started\n");
        assert!(!out.stdout.contains("done"));
    }

    #[test]
    fn walltime_not_hit() {
        let out = shell().run("echo fast", &env(), "/", Some(60_000)).unwrap();
        assert_eq!(out.returncode, 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn parse_errors_surface() {
        assert!(shell().run("echo >", &env(), "/", None).is_err());
        assert!(shell().run("| echo", &env(), "/", None).is_err());
        assert!(shell()
            .run("echo 'unterminated", &env(), "/", None)
            .is_err());
    }

    #[test]
    fn multi_stage_pipeline_with_files() {
        let sh = shell();
        sh.run("seq 100 > /nums.txt", &env(), "/", None).unwrap();
        let out = sh
            .run("cat /nums.txt | grep 9 | wc -l", &env(), "/", None)
            .unwrap();
        // 9, 19, …, 89, 90-99 → 19 lines containing '9'.
        assert_eq!(out.stdout, "19\n");
    }
}
