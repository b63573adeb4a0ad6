//! # gcx-batch
//!
//! A batch-scheduler simulator standing in for Slurm/PBS (§II "Endpoints"
//! relies on Parsl *Providers* over these schedulers; §III-C's
//! `GlobusMPIEngine` "can automatically discover the resources available
//! within a batch job on the Slurm and PBSPro batch systems").
//!
//! The simulator models what the endpoint stack actually observes:
//! - a cluster of named nodes, grouped into partitions with walltime limits
//!   and account allow-lists;
//! - job submission (`num_nodes`, walltime, partition, account) returning a
//!   job id;
//! - FIFO scheduling with EASY backfill (later jobs may jump ahead only if
//!   they cannot delay the head job's reservation);
//! - job states (`Pending → Running → Completed/TimedOut/Cancelled/
//!   Preempted/NodeFail`);
//! - node lists handed to running jobs (the `SLURM_JOB_NODELIST` /
//!   `$PBS_NODEFILE` equivalent that the MPI engine partitions);
//! - walltime enforcement;
//! - a seeded [`ResourceFaultPlan`] injecting node crashes, whole-job
//!   preemption, and scheduler holds, deterministically per seed.
//!
//! Time comes from a [`gcx_core::clock::Clock`], so tests drive the cluster
//! deterministically under virtual time. Scheduling passes run on every
//! public call; a real deployment's scheduling loop is the endpoint
//! provider's poll.

pub(crate) mod sim;

pub use sim::{
    BatchScheduler, ClusterSpec, JobRequest, JobState, PartitionSpec, ResourceFaultPlan,
    ResourceFaultRule,
};
