//! # gcx-mq
//!
//! An in-process message broker modelling the cloud-hosted RabbitMQ that
//! Globus Compute endpoints talk to over AMQPS (§II "Endpoints"): named
//! durable queues, acknowledgements with redelivery, per-consumer prefetch,
//! access credentials, and — because the paper's executor-efficiency claims
//! are about *bytes over the wire* — byte-accurate metering and an optional
//! latency/bandwidth model on every publish.
//!
//! The web service creates a *task queue* and a *result queue* per endpoint;
//! the endpoint consumes tasks and publishes results; the SDK's executor
//! opens a result-stream consumer of its own (§III-A). All of those run on
//! this broker.
//!
//! Reliability model: a message is removed from the queue only when acked.
//! Dropping a consumer (worker crash, endpoint restart) requeues its
//! unacknowledged deliveries with the `redelivered` flag set, which is what
//! makes fire-and-forget task submission safe.

//! Fault injection: [`fault::FaultPlan`] scripts deterministic drops,
//! duplicates, delays, and partitions per queue and direction; queues carry a
//! [`broker::QueuePolicy`] that dead-letters messages whose delivery budget
//! is exhausted, so poisoned tasks surface instead of looping forever.

pub mod broker;
pub mod fault;
pub mod link;

pub use broker::{Broker, Consumer, Delivery, Headers, Message, QueuePolicy, QueueStats};
pub use fault::{
    FaultDirection, FaultPlan, FaultRule, PublishOutcome, ReplicaAction, ReplicaFaultRule,
};
pub use link::LinkProfile;
