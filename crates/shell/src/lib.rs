//! # gcx-shell
//!
//! The execution substrate for `ShellFunction` and `MPIFunction` (§III-B/C
//! of the paper): a from-scratch mini shell running against a virtual
//! filesystem and a pluggable clock.
//!
//! The production system forks `/bin/sh`; this reproduction interprets a
//! POSIX-flavoured subset deterministically so that:
//! - walltime enforcement (return code **124**) is exact under virtual time;
//! - sandbox directories (§III-B.2) are observable as VFS state;
//! - MPI rank placement (Listing 7's per-rank `hostname` output) is
//!   reproducible.
//!
//! Modules:
//! - `vfs` — a thread-safe in-memory filesystem (one per endpoint host);
//! - [`words`] — command-line tokenization (quotes, escapes), `$VAR` /
//!   `${VAR}` expansion, and the `{placeholder}` formatting that
//!   `ShellFunction` applies to its command template at invocation time;
//! - `cmds` — the builtin command set (`echo`, `sleep`, `hostname`,
//!   `cat`, `grep`, `wc`, `seq`, `head`, `tail`, `ls`, `mkdir`, `rm`,
//!   `touch`, `env`, `pwd`, `true`, `false`, `exit`);
//! - `exec` — the interpreter: pipelines, `&&` / `||` / `;` sequencing,
//!   redirects, cwd, environment, and cooperative walltime enforcement;
//! - [`mpi`] — the simulated MPI launcher: expands `$PARSL_MPI_PREFIX` and
//!   runs one rank per allocated slot with `RANK`/`SIZE`/`HOSTNAME` set.

pub(crate) mod cmds;
pub(crate) mod exec;
pub mod mpi;
pub(crate) mod vfs;
pub mod words;

pub use exec::ShellExecutor;
pub use vfs::Vfs;
pub use words::format_command;
