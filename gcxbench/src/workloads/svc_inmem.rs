//! Service capacity with the endpoint taken out.

use crate::stack::Front;
use crate::workload::Workload;

pub fn workload() -> Workload {
    super::echo_service(
        "svc_inmem",
        "In-process executor to an echo drain: SDK batching, auth, dispatch, mq, result processors and the push stream do all the work; wire and engines do none. Times at the reference host speed.",
        Front::InProc,
        70.0,
    )
}
