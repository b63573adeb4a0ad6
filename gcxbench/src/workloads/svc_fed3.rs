//! The federation layer through the user-facing API.

use crate::stack::Front;
use crate::workload::Workload;

pub fn workload() -> Workload {
    super::echo_service(
        "svc_fed3",
        "Three replicas, two endpoints, two federated executors used alternately: ownership lookup, forwarding envelopes and the durable task log do most of the work.",
        Front::Fed3,
        25.0,
    )
}
