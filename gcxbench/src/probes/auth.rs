//! `gcx_auth::AuthService::introspect`, paid once per API request.

use std::hint::black_box;

use gcx_auth::service::COMPUTE_SCOPE;
use gcx_auth::AuthService;

use super::{clock, time_op, Probe};

pub fn run(p: &mut Probe<'_>) {
    let auth = AuthService::new(clock());
    let (_, token) = auth.login("probe@gcx.dev").expect("login");
    p.out.insert(
        "auth.introspect_ns",
        time_op(|| {
            black_box(
                auth.introspect(black_box(&token), COMPUTE_SCOPE)
                    .expect("introspect"),
            );
        }),
    );
}
