//! `svc_inmem` plus the wire layer; the ratio of the two is the wire tax.

use crate::stack::Front;
use crate::workload::Workload;

pub fn workload() -> Workload {
    super::echo_service(
        "svc_tcp",
        "Same work as svc_inmem plus localhost TCP (framing, corr-id mux, server push) on one connection: a wire optimisation must move this and leave svc_inmem alone. Times at the reference host speed.",
        Front::Tcp,
        32.0,
    )
}
