//! `WebService::submit_batch`: auth, admission, records, CAS intern and
//! the batched publish, with nobody consuming.

use super::{time_batch, Probe, Service};

const BATCHES: usize = 24;

pub fn run(p: &mut Probe<'_>) {
    let service = Service::new();
    let ns = time_batch(
        BATCHES * 128,
        || -> Vec<_> { (0..BATCHES).map(|_| service.specs(p.rng, 128)).collect() },
        |batches| {
            for specs in batches {
                service
                    .svc
                    .submit_batch(&service.token, specs)
                    .expect("submit_batch");
            }
        },
    );
    p.out
        .insert("cloud.dispatch.submit_batch128_ns_per_task", ns);
    service.svc.shutdown();
}
