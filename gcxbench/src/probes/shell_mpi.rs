//! The MPI launcher on its own: four ranks of `sleep 0`.

use std::collections::BTreeMap;
use std::hint::black_box;

use gcx_shell::mpi::{LauncherKind, MpiLaunchPlan, MpiLauncher};
use gcx_shell::{ShellExecutor, Vfs};

use super::{clock, time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let launcher = MpiLauncher::new(ShellExecutor::new(Vfs::new(), clock()));
    let plan = MpiLaunchPlan {
        nodes: (0..4).map(|n| format!("node-{n}")).collect(),
        num_ranks: 4,
        launcher: LauncherKind::Mpiexec,
    };
    let env = BTreeMap::new();
    p.out.insert(
        "shell.mpi_launch_4rank_us",
        time_op(|| {
            let out = launcher
                .run(&plan, "sleep 0", &env, "/", None)
                .expect("launch");
            assert_eq!(black_box(out).returncode, 0);
        }) / 1e3,
    );
}
