//! The simulated MPI launcher.
//!
//! `MPIFunction` commands are "automatically prefix\[ed\] with
//! `$PARSL_MPI_PREFIX` which resolves to an appropriate MPI launcher prefix
//! (e.g., `mpiexec -n 4 -host <NODE1, NODE2>`)" (§III-C.1). The engine
//! resolves the prefix from the task's normalized resource specification and
//! the nodes its partitioner picked; this module then *executes* the launch:
//! one simulated rank per slot, each running the application command in the
//! mini shell with `RANK`, `SIZE`, and `HOSTNAME` set.
//!
//! Ranks are mapped to nodes cyclically (rank *i* → node *i mod N*), which
//! is what produces the alternating hostname pattern of Listing 7. Ranks run
//! on real threads so their (virtual-clock) sleeps overlap like real MPI
//! processes; output is concatenated in rank order so results are
//! deterministic.

use std::collections::BTreeMap;

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::shellres::WALLTIME_RETURNCODE;

use crate::exec::{ExecOutcome, ShellExecutor};

/// Which MPI launcher the endpoint is configured with (`mpi_launcher` in
/// Listing 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LauncherKind {
    /// `mpiexec -n <ranks> -host <nodes>`
    Mpiexec,
    /// `srun --ntasks=<ranks> --nodelist=<nodes>`
    Srun,
    /// `aprun -n <ranks> -L <nodes>`
    Aprun,
}

impl LauncherKind {
    /// Parse the configuration string (`mpiexec` / `srun` / `aprun`).
    pub fn parse(s: &str) -> GcxResult<Self> {
        match s {
            "mpiexec" | "mpirun" => Ok(LauncherKind::Mpiexec),
            "srun" => Ok(LauncherKind::Srun),
            "aprun" => Ok(LauncherKind::Aprun),
            other => Err(GcxError::InvalidConfig(format!(
                "unknown mpi_launcher '{other}'"
            ))),
        }
    }
}

/// A concrete launch plan: the nodes the engine's partitioner assigned plus
/// the rank layout from the task's resource specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiLaunchPlan {
    /// Hostnames of the assigned nodes.
    pub nodes: Vec<String>,
    /// Total ranks to launch.
    pub num_ranks: u32,
    /// The configured launcher.
    pub launcher: LauncherKind,
}

impl MpiLaunchPlan {
    /// The `$PARSL_MPI_PREFIX` string this plan resolves to.
    pub fn prefix(&self) -> String {
        let hosts = self.nodes.join(",");
        match self.launcher {
            LauncherKind::Mpiexec => format!("mpiexec -n {} -host {hosts}", self.num_ranks),
            LauncherKind::Srun => {
                format!("srun --ntasks={} --nodelist={hosts}", self.num_ranks)
            }
            LauncherKind::Aprun => format!("aprun -n {} -L {hosts}", self.num_ranks),
        }
    }

    /// The node each rank lands on (cyclic distribution).
    pub(crate) fn node_of_rank(&self, rank: u32) -> &str {
        &self.nodes[rank as usize % self.nodes.len()]
    }
}

/// Executes launch plans against an endpoint host's shell.
#[derive(Clone)]
pub struct MpiLauncher {
    shell: ShellExecutor,
}

impl MpiLauncher {
    /// A launcher over the endpoint host's shell.
    pub fn new(shell: ShellExecutor) -> Self {
        Self { shell }
    }

    /// Launch `app_cmd` according to `plan`.
    ///
    /// Each rank gets `RANK` (its index), `SIZE` (total ranks), `HOSTNAME`
    /// (its node), and `PARSL_MPI_PREFIX` in its environment. Per-rank
    /// stdout/stderr are concatenated in rank order. The collective return
    /// code is 124 if any rank timed out, otherwise the first non-zero rank
    /// code, otherwise 0.
    pub fn run(
        &self,
        plan: &MpiLaunchPlan,
        app_cmd: &str,
        env: &BTreeMap<String, String>,
        cwd: &str,
        walltime_ms: Option<u64>,
    ) -> GcxResult<ExecOutcome> {
        if plan.nodes.is_empty() {
            return Err(GcxError::InvalidConfig("MPI launch with zero nodes".into()));
        }
        if plan.num_ranks == 0 {
            return Err(GcxError::InvalidConfig("MPI launch with zero ranks".into()));
        }

        let mut handles = Vec::with_capacity(plan.num_ranks as usize);
        for rank in 0..plan.num_ranks {
            let shell = self.shell.clone();
            let mut rank_env = env.clone();
            rank_env.insert("RANK".to_string(), rank.to_string());
            rank_env.insert("SIZE".to_string(), plan.num_ranks.to_string());
            rank_env.insert("HOSTNAME".to_string(), plan.node_of_rank(rank).to_string());
            rank_env.insert("PARSL_MPI_PREFIX".to_string(), plan.prefix());
            let cmd = app_cmd.to_string();
            let cwd = cwd.to_string();
            handles.push(std::thread::spawn(move || {
                shell.run(&cmd, &rank_env, &cwd, walltime_ms)
            }));
        }

        let mut stdout = String::new();
        let mut stderr = String::new();
        let mut code = 0i32;
        let mut timed_out = false;
        for h in handles {
            let out = h
                .join()
                .map_err(|_| GcxError::Internal("MPI rank thread panicked".into()))??;
            stdout.push_str(&out.stdout);
            stderr.push_str(&out.stderr);
            if out.timed_out {
                timed_out = true;
            } else if out.returncode != 0 && code == 0 {
                code = out.returncode;
            }
        }
        if timed_out {
            code = WALLTIME_RETURNCODE;
        }
        Ok(ExecOutcome {
            returncode: code,
            stdout,
            stderr,
            timed_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::Vfs;
    use gcx_core::clock::{SystemClock, VirtualClock};

    fn launcher() -> MpiLauncher {
        MpiLauncher::new(ShellExecutor::new(Vfs::new(), SystemClock::shared()))
    }

    fn plan(nodes: &[&str], ranks: u32, kind: LauncherKind) -> MpiLaunchPlan {
        MpiLaunchPlan {
            nodes: nodes.iter().map(|s| s.to_string()).collect(),
            num_ranks: ranks,
            launcher: kind,
        }
    }

    #[test]
    fn prefix_strings() {
        let p = plan(&["exp-14-08", "exp-14-20"], 4, LauncherKind::Mpiexec);
        assert_eq!(p.prefix(), "mpiexec -n 4 -host exp-14-08,exp-14-20");
        let p = plan(&["n1"], 2, LauncherKind::Srun);
        assert_eq!(p.prefix(), "srun --ntasks=2 --nodelist=n1");
        let p = plan(&["n1"], 2, LauncherKind::Aprun);
        assert_eq!(p.prefix(), "aprun -n 2 -L n1");
    }

    #[test]
    fn launcher_kind_parse() {
        assert_eq!(LauncherKind::parse("srun").unwrap(), LauncherKind::Srun);
        assert_eq!(
            LauncherKind::parse("mpiexec").unwrap(),
            LauncherKind::Mpiexec
        );
        assert!(LauncherKind::parse("qsub").is_err());
    }

    #[test]
    fn listing7_hostname_pattern() {
        // Listing 6/7: 2 nodes, ranks_per_node n∈{1,2}; `hostname` per rank.
        let l = launcher();
        // n=1 → 2 ranks → one line per node.
        let p = plan(&["exp-14-08", "exp-14-20"], 2, LauncherKind::Mpiexec);
        let out = l.run(&p, "hostname", &BTreeMap::new(), "/", None).unwrap();
        assert_eq!(out.stdout, "exp-14-08\nexp-14-20\n");
        // n=2 → 4 ranks → cyclic node pattern, as in the paper's output.
        let p = plan(&["exp-14-08", "exp-14-20"], 4, LauncherKind::Mpiexec);
        let out = l.run(&p, "hostname", &BTreeMap::new(), "/", None).unwrap();
        assert_eq!(out.stdout, "exp-14-08\nexp-14-20\nexp-14-08\nexp-14-20\n");
        assert_eq!(out.returncode, 0);
    }

    #[test]
    fn rank_and_size_env() {
        let l = launcher();
        let p = plan(&["n1", "n2"], 4, LauncherKind::Srun);
        let out = l
            .run(
                &p,
                "echo rank=$RANK of $SIZE on $HOSTNAME",
                &BTreeMap::new(),
                "/",
                None,
            )
            .unwrap();
        assert_eq!(
            out.stdout,
            "rank=0 of 4 on n1\nrank=1 of 4 on n2\nrank=2 of 4 on n1\nrank=3 of 4 on n2\n"
        );
    }

    #[test]
    fn failing_rank_sets_collective_code() {
        let l = launcher();
        let p = plan(&["n1", "n2"], 2, LauncherKind::Mpiexec);
        let out = l
            .run(&p, "exit $RANK", &BTreeMap::new(), "/", None)
            .unwrap();
        // Rank 1 exits 1 → collective failure.
        assert_eq!(out.returncode, 1);
    }

    #[test]
    fn walltime_kills_all_ranks() {
        let clock = VirtualClock::new();
        let l = MpiLauncher::new(ShellExecutor::new(Vfs::new(), clock.clone()));
        let p = plan(&["n1", "n2"], 2, LauncherKind::Mpiexec);
        let h = std::thread::spawn(move || {
            l.run(&p, "sleep 10", &BTreeMap::new(), "/", Some(1_000))
                .unwrap()
        });
        clock.wait_for_sleepers(2);
        clock.advance(1_000);
        let out = h.join().unwrap();
        assert_eq!(out.returncode, 124);
        assert!(out.timed_out);
    }

    #[test]
    fn ranks_share_the_vfs() {
        let vfs = Vfs::new();
        let l = MpiLauncher::new(ShellExecutor::new(vfs.clone(), SystemClock::shared()));
        let p = plan(&["n1", "n2", "n3"], 3, LauncherKind::Mpiexec);
        l.run(
            &p,
            "echo $HOSTNAME >> /ranks.log",
            &BTreeMap::new(),
            "/",
            None,
        )
        .unwrap();
        let text = vfs.read_to_string("/ranks.log").unwrap();
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn zero_plans_rejected() {
        let l = launcher();
        let p = plan(&[], 1, LauncherKind::Mpiexec);
        assert!(l.run(&p, "hostname", &BTreeMap::new(), "/", None).is_err());
        let p = plan(&["n1"], 0, LauncherKind::Mpiexec);
        assert!(l.run(&p, "hostname", &BTreeMap::new(), "/", None).is_err());
    }

    #[test]
    fn prefix_visible_to_ranks() {
        let l = launcher();
        let p = plan(&["n1"], 1, LauncherKind::Mpiexec);
        let out = l
            .run(
                &p,
                "echo \"$PARSL_MPI_PREFIX\"",
                &BTreeMap::new(),
                "/",
                None,
            )
            .unwrap();
        assert_eq!(out.stdout, "mpiexec -n 1 -host n1\n");
    }
}
