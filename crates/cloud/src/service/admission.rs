//! Admission control and overload protection: per-tenant token buckets,
//! in-flight quotas, brownout shedding, and the deadline/TTL expiry sweep.
//!
//! The service's defense against *demand* faults. Every `submit_batch`
//! passes through [`WebService::admit_batch`] before any validation work:
//! a tenant over its rate or in-flight quota gets a typed
//! [`GcxError::Overloaded`] with a `retry_after_ms` hint instead of
//! enqueueing work the service can't serve. When the oldest task still
//! waiting on an endpoint's queue has waited longer than the brownout
//! threshold (the dispatch-lag signal — typically a dead endpoint or a
//! drowning queue), the service enters *brownout* and sheds lowest-priority
//! traffic first, keeping high-priority submissions flowing.
//!
//! The same sweep that measures dispatch lag enforces per-task deadlines:
//! a buffered task whose TTL elapsed is expired through the idempotent
//! cancel path (terminal `Cancelled` + a typed deadline result), with an
//! `Expired` tombstone in the federation task log so a handover replay
//! never resurrects it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::health::TenantHealth;
use gcx_core::ids::{IdentityId, TaskId};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_mq::{Message, Nudge};
use parking_lot::Mutex;

use super::{task_queue_name, WebService};

/// Admission-control tunables: per-tenant token-bucket rate limits,
/// in-flight quotas, and the brownout threshold that starts shedding
/// low-priority traffic when dispatch lags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Master switch. When `false` every submit is admitted (the default,
    /// preserving pre-admission behavior).
    pub enabled: bool,
    /// Steady-state tokens (task submissions) granted per tenant per second.
    pub rate_per_sec: u64,
    /// Bucket capacity: the largest burst a tenant may submit at once.
    pub burst: u64,
    /// Maximum non-terminal tasks a single tenant may have in the service
    /// at once; `0` = unlimited.
    pub max_inflight: u64,
    /// Upper bound on the `retry_after_ms` hint returned with a typed
    /// `Overloaded` rejection.
    pub retry_after_cap_ms: u64,
    /// Brownout trigger: when the oldest undispatched task has waited
    /// longer than this, the service starts shedding low-priority traffic.
    /// `0` disables brownout.
    pub brownout_threshold_ms: u64,
    /// During brownout only tasks with `priority >=` this value are
    /// admitted; everything below is shed with a typed `Overloaded`.
    pub brownout_min_priority: i64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            rate_per_sec: 500,
            burst: 1000,
            max_inflight: 10_000,
            retry_after_cap_ms: 5_000,
            brownout_threshold_ms: 2_000,
            brownout_min_priority: 0,
        }
    }
}

/// A lazily-refilled token bucket (tokens are task submissions).
struct TokenBucket {
    tokens: f64,
    last_refill_ms: u64,
}

/// Shared admission state hanging off `CloudInner`.
pub(crate) struct AdmissionState {
    pub(super) cfg: AdmissionConfig,
    buckets: Mutex<HashMap<IdentityId, TokenBucket>>,
    inflight: Mutex<HashMap<IdentityId, u64>>,
    brownout: AtomicBool,
    /// Whether an expiry sweep may find a task to expire: set by each
    /// deadline task's install, cleared by a sweep that finds none still
    /// live. It gates the sweep, so a deployment that never uses TTLs (and
    /// has admission off) pays no scan, and one whose deadline tasks have
    /// all ended stops paying.
    deadline_armed: AtomicBool,
    /// Wakes the result processor that runs the sweeps when the first
    /// deadline task arms its expiry sweep (`None`: nothing sweeps).
    sweep_nudge: Option<Nudge>,
    /// Per-tenant admission ledger: `identity → (admitted, rejected)`
    /// task counts, feeding the health document's tenant table. One lock
    /// take per *batch*, so it stays off the per-task hot path.
    ledger: Mutex<HashMap<IdentityId, (u64, u64)>>,
}

impl AdmissionState {
    pub(super) fn new(cfg: AdmissionConfig, sweep_nudge: Option<Nudge>) -> Self {
        Self {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            brownout: AtomicBool::new(false),
            deadline_armed: AtomicBool::new(false),
            sweep_nudge,
            ledger: Mutex::new(HashMap::new()),
        }
    }

    fn ledger_note(&self, who: IdentityId, admitted: u64, rejected: u64) {
        let mut ledger = self.ledger.lock();
        let entry = ledger.entry(who).or_insert((0, 0));
        entry.0 += admitted;
        entry.1 += rejected;
    }

    /// The per-tenant table for the health document, sorted by tenant id.
    pub(super) fn tenant_health(&self) -> Vec<TenantHealth> {
        let mut rows: Vec<TenantHealth> = self
            .ledger
            .lock()
            .iter()
            .map(|(who, (admitted, rejected))| {
                TenantHealth::new(who.to_string(), *admitted, *rejected)
            })
            .collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }

    /// A deadline task was installed. One that arms the sweep makes
    /// `sweep_needed` hold: the sweeper's take may be parked with no expiry
    /// due, so it is nudged to arm one. Call it after the install, so that
    /// a sweep that disarmed first sees the task in its walk or is nudged.
    pub(super) fn note_deadline_task(&self) {
        // A load first: the armed flag is written once an arming, not once
        // a task.
        if self.deadline_armed.load(Ordering::SeqCst)
            || self.deadline_armed.swap(true, Ordering::SeqCst)
        {
            return;
        }
        if let Some(nudge) = self.sweep_nudge.as_ref() {
            nudge.nudge();
        }
    }

    /// Whether the expiry sweep has anything to look for.
    pub(super) fn sweep_needed(&self) -> bool {
        self.cfg.enabled || self.deadline_armed.load(Ordering::Relaxed)
    }

    /// Refill `who`'s bucket to `now` and try to take `n` tokens. On
    /// failure returns the deficit-derived wait (ms) before `n` tokens
    /// will exist, uncapped.
    fn take_tokens(&self, who: IdentityId, n: u64, now: u64) -> Result<(), u64> {
        let mut buckets = self.buckets.lock();
        let b = buckets.entry(who).or_insert(TokenBucket {
            tokens: self.cfg.burst as f64,
            last_refill_ms: now,
        });
        let elapsed = now.saturating_sub(b.last_refill_ms);
        b.tokens = (b.tokens + elapsed as f64 * self.cfg.rate_per_sec as f64 / 1000.0)
            .min(self.cfg.burst as f64);
        b.last_refill_ms = now;
        let need = n as f64;
        if b.tokens >= need {
            b.tokens -= need;
            Ok(())
        } else {
            let deficit = need - b.tokens;
            let wait_ms = (deficit * 1000.0 / self.cfg.rate_per_sec as f64).ceil() as u64;
            Err(wait_ms.max(1))
        }
    }
}

impl WebService {
    /// Whether the service is currently shedding low-priority traffic.
    pub fn brownout_active(&self) -> bool {
        self.inner.admission.brownout.load(Ordering::Relaxed)
    }

    /// The admission gate every submit batch passes. All-or-nothing per
    /// batch, matching `submit_batch`'s whole-batch error semantics. On
    /// success the tenant's in-flight count has been charged `specs.len()`;
    /// the caller must release it again if the batch later fails
    /// validation, and per task as each reaches a terminal state.
    pub(super) fn admit_batch(&self, who: IdentityId, specs: &[TaskSpec]) -> GcxResult<()> {
        let adm = &self.inner.admission;
        if specs.is_empty() {
            return Ok(());
        }
        let n = specs.len() as u64;
        if !adm.cfg.enabled {
            adm.ledger_note(who, n, 0);
            return Ok(());
        }
        let now = self.inner.clock.now_ms();

        // Brownout sheds first: the batch's lowest-priority task decides.
        if adm.cfg.brownout_threshold_ms > 0
            && adm.brownout.load(Ordering::Relaxed)
            && specs
                .iter()
                .any(|s| s.priority < adm.cfg.brownout_min_priority)
        {
            self.inner.m.tasks_shed_brownout.add(n);
            let wait_ms = adm.cfg.brownout_threshold_ms;
            return self.refuse(who, n, wait_ms, "brownout_shed", String::new());
        }

        // Rate limit (consumes tokens), then in-flight quota (commits the
        // charge). Both locks are tenant-keyed maps with O(1) work inside.
        if let Err(wait_ms) = adm.take_tokens(who, n, now) {
            let more = format!(" wait_ms={wait_ms}");
            return self.refuse(who, n, wait_ms, "rate_reject", more);
        }
        if adm.cfg.max_inflight > 0 {
            let mut inflight = adm.inflight.lock();
            let cur = inflight.entry(who).or_insert(0);
            if *cur + n > adm.cfg.max_inflight {
                let more = format!(" inflight={cur}");
                drop(inflight);
                // No time-based estimate exists for quota pressure; suggest
                // a fraction of the cap so clients spread their retries.
                let wait_ms = adm.cfg.retry_after_cap_ms / 4;
                return self.refuse(who, n, wait_ms, "quota_reject", more);
            }
            *cur += n;
        }
        adm.ledger_note(who, n, 0);
        self.inner.m.admission_inflight.add(n);
        Ok(())
    }

    /// Refuse `who`'s batch of `n` as `Overloaded`, to retry after
    /// `wait_ms` (capped): counted, noted in the ledger, and recorded in
    /// the flight ring as `event`, with `more` after the tenant and count.
    fn refuse(
        &self,
        who: IdentityId,
        n: u64,
        wait_ms: u64,
        event: &'static str,
        more: String,
    ) -> GcxResult<()> {
        let adm = &self.inner.admission;
        self.inner.m.submits_rejected_overload.inc();
        adm.ledger_note(who, 0, n);
        let detail = format!("tenant={who} tasks={n}{more}");
        let flight = self.inner.metrics.flight();
        flight.record(self.inner.clock.now_ms(), "cloud.admission", event, detail);
        let retry_after_ms = wait_ms.min(adm.cfg.retry_after_cap_ms).max(1);
        Err(GcxError::Overloaded { retry_after_ms })
    }

    /// Return `n` units of `who`'s in-flight quota (tasks reached a
    /// terminal state, were forwarded to another replica, or the batch
    /// failed after admission).
    pub(super) fn admission_release(&self, who: IdentityId, n: u64) {
        let adm = &self.inner.admission;
        if !adm.cfg.enabled || adm.cfg.max_inflight == 0 || n == 0 {
            return;
        }
        let mut inflight = adm.inflight.lock();
        if let Some(cur) = inflight.get_mut(&who) {
            *cur = cur.saturating_sub(n);
            if *cur == 0 {
                inflight.remove(&who);
            }
        }
        drop(inflight);
        self.inner.m.admission_inflight.sub(n);
    }

    /// The clock-driven overload sweep: expire every non-terminal task
    /// whose deadline passed (through the idempotent cancel path, with a
    /// federation tombstone), measure dispatch lag (the age of the oldest
    /// task still waiting on an endpoint's queue), and flip brownout
    /// accordingly. Returns how many tasks were expired.
    ///
    /// Called periodically by result processor 0 (`gcx-result-proc-0`) on
    /// a real clock, and only while `AdmissionState::sweep_needed`; tests on a
    /// virtual clock call it explicitly after advancing time — exactly the
    /// [`WebService::check_liveness`] pattern.
    pub fn check_expiry(&self) -> usize {
        let now = self.inner.clock.now_ms();
        let mut expired: Vec<(TaskId, IdentityId)> = Vec::new();
        // Only a sweep armed by a deadline task walks the records: nothing
        // else can expire. It disarms before the walk and re-arms if the
        // walk finds a deadline task still live, so a task installed during
        // the walk is either seen or re-arms the sweep itself.
        let armed = &self.inner.admission.deadline_armed;
        if armed.swap(false, Ordering::SeqCst) {
            let mut live = false;
            self.inner.tasks.for_each(|id, rec| {
                let expires_at = rec.spec.expires_at(rec.submitted_at);
                match expires_at.filter(|_| !rec.state.is_terminal()) {
                    Some(at) if now > at => expired.push((*id, rec.owner)),
                    Some(_) => live = true,
                    None => {}
                }
            });
            if live {
                armed.store(true, Ordering::SeqCst);
            }
        }
        let mut count = 0;
        for (id, owner) in expired {
            // Re-check under the shard write lock — a result may have
            // landed between the sweep and now; terminal records are left
            // untouched (the idempotent cancel semantics).
            let did_expire = self.inner.tasks.update(&id, |rec| match rec {
                Some(rec) if !rec.state.is_terminal() => {
                    let _ = rec.transition(TaskState::Cancelled, now);
                    rec.result = Some(TaskResult::deadline_err(id));
                    true
                }
                _ => false,
            });
            if !did_expire {
                continue;
            }
            count += 1;
            self.inner.m.tasks_expired.inc();
            self.admission_release(owner, 1);
            // Tombstone: a handover replay must see this task as dead, not
            // re-open (and republish) it.
            self.fed_log_expired(id);
            self.inner.metrics.flight().record(
                now,
                "cloud.expiry",
                "deadline_exceeded",
                format!("task={id} tenant={owner}"),
            );
        }
        if count > 0 {
            self.inner
                .metrics
                .flight()
                .trigger(now, "deadline_exceeded");
        }
        self.update_brownout(now);
        count
    }

    /// Dispatch lag: how long the oldest task still waiting on any
    /// endpoint's queue has waited, from its message's publish stamp —
    /// which every task message carries, traced or not. A task an agent
    /// has taken has left the queue; one this replica does not hold live
    /// (cancelled, expired, retired, or another replica's) is passed over.
    /// A message put back (a nack, a recovery) counts from its publish.
    fn dispatch_lag_ms(&self, now: u64) -> u64 {
        let mut queues = Vec::new();
        self.inner
            .endpoints
            .for_each(|id, _| queues.push(task_queue_name(*id)));
        let live = |message: &Message| {
            TaskSpec::from_message(&message.body).is_ok_and(|(spec, _)| {
                let tasks = &self.inner.tasks;
                tasks.with(&spec.task_id, |rec| {
                    rec.is_some_and(|rec| !rec.state.is_terminal())
                })
            })
        };
        let broker = &self.inner.broker;
        queues
            .iter()
            .filter_map(|queue| broker.oldest_ready_ms(queue, live).ok().flatten())
            .map(|sent| now.saturating_sub(sent))
            .max()
            .unwrap_or(0)
    }

    fn update_brownout(&self, now: u64) {
        let adm = &self.inner.admission;
        if !adm.cfg.enabled || adm.cfg.brownout_threshold_ms == 0 {
            return;
        }
        let oldest_wait_ms = self.dispatch_lag_ms(now);
        let active = oldest_wait_ms > adm.cfg.brownout_threshold_ms;
        let was = adm.brownout.swap(active, Ordering::Relaxed);
        if active && !was {
            self.inner.metrics.counter("cloud.brownout_entries").inc();
        }
        if active != was {
            self.inner.metrics.flight().record(
                self.inner.clock.now_ms(),
                "cloud.admission",
                if active {
                    "brownout_enter"
                } else {
                    "brownout_exit"
                },
                format!("dispatch_lag_ms={oldest_wait_ms}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::login;
    use super::super::CloudConfig;
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::VirtualClock;
    use gcx_core::function::FunctionBody;
    use gcx_mq::Broker;

    fn virtual_service(admission: AdmissionConfig) -> (std::sync::Arc<VirtualClock>, WebService) {
        virtual_service_with(CloudConfig {
            admission,
            ..CloudConfig::default()
        })
    }

    fn virtual_service_with(cfg: CloudConfig) -> (std::sync::Arc<VirtualClock>, WebService) {
        let vclock = VirtualClock::new();
        let clock: gcx_core::clock::SharedClock = vclock.clone();
        let auth = gcx_auth::AuthService::new(clock.clone());
        let broker = Broker::with_profile(
            gcx_core::metrics::MetricsRegistry::new(),
            clock.clone(),
            gcx_mq::LinkProfile::instant(),
        );
        (vclock, WebService::new(cfg, auth, broker, clock))
    }

    fn setup(
        svc: &WebService,
        user: &str,
    ) -> (
        gcx_auth::Token,
        gcx_core::ids::FunctionId,
        gcx_core::ids::EndpointId,
    ) {
        let token = login(svc, user);
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        (token, fid, reg.endpoint_id)
    }

    #[test]
    fn token_bucket_rejects_burst_overflow_with_retry_hint() {
        let (vclock, svc) = virtual_service(AdmissionConfig {
            enabled: true,
            rate_per_sec: 10,
            burst: 3,
            max_inflight: 0,
            ..AdmissionConfig::default()
        });
        let (token, fid, ep) = setup(&svc, "hot@x.y");
        for _ in 0..3 {
            svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        }
        let err = svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap_err();
        let retry_after = err.retry_after_ms().expect("typed Overloaded");
        assert!(retry_after >= 1, "deficit-derived hint: {retry_after}");
        assert_eq!(
            svc.metrics()
                .counter("cloud.submits_rejected_overload")
                .get(),
            1
        );
        // Waiting for the refill (1 token per 100 ms) reopens admission.
        vclock.advance(retry_after + 1);
        svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        svc.shutdown();
    }

    #[test]
    fn rate_limits_are_per_tenant() {
        let (_vclock, svc) = virtual_service(AdmissionConfig {
            enabled: true,
            rate_per_sec: 10,
            burst: 2,
            max_inflight: 0,
            ..AdmissionConfig::default()
        });
        let (hot, fid, ep) = setup(&svc, "hot@x.y");
        let quiet = login(&svc, "quiet@x.y");
        for _ in 0..2 {
            svc.submit_task(&hot, TaskSpec::new(fid, ep)).unwrap();
        }
        assert!(svc.submit_task(&hot, TaskSpec::new(fid, ep)).is_err());
        // The hot tenant's exhaustion does not tax the quiet one.
        svc.submit_task(&quiet, TaskSpec::new(fid, ep)).unwrap();
        svc.shutdown();
    }

    #[test]
    fn inflight_quota_releases_on_completion_and_cancel() {
        let (_vclock, svc) = virtual_service(AdmissionConfig {
            enabled: true,
            rate_per_sec: 1000,
            burst: 1000,
            max_inflight: 2,
            ..AdmissionConfig::default()
        });
        let (token, fid, ep) = setup(&svc, "u@x.y");
        let a = svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        let _b = svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        assert_eq!(svc.metrics().gauge("cloud.admission_inflight").get(), 2);
        let err = svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap_err();
        assert!(matches!(err, GcxError::Overloaded { .. }));
        // Cancelling one frees a slot.
        svc.cancel_task(&token, a).unwrap();
        assert_eq!(svc.metrics().gauge("cloud.admission_inflight").get(), 1);
        svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        svc.shutdown();
    }

    #[test]
    fn buffered_task_past_deadline_expires_via_sweep() {
        let (vclock, svc) = virtual_service(AdmissionConfig::default());
        let (token, fid, ep) = setup(&svc, "u@x.y");
        let mut spec = TaskSpec::new(fid, ep);
        spec.deadline_ms = Some(500);
        let id = svc.submit_task(&token, spec).unwrap();
        // Not yet.
        vclock.advance(400);
        assert_eq!(svc.check_expiry(), 0);
        vclock.advance(200);
        // On a virtual clock the result processors leave the sweep to the
        // test: several of its periods later nothing has expired.
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert_eq!(svc.metrics().counter("cloud.tasks_expired").get(), 0);
        assert_eq!(svc.check_expiry(), 1);
        let rec = svc.task_record(id).unwrap();
        assert_eq!(rec.state, TaskState::Cancelled);
        assert!(rec.result.as_ref().unwrap().is_deadline_err());
        assert_eq!(
            rec.result.unwrap().into_result().unwrap_err(),
            GcxError::DeadlineExceeded(id)
        );
        assert_eq!(svc.metrics().counter("cloud.tasks_expired").get(), 1);
        // Idempotent: a second sweep finds nothing.
        assert_eq!(svc.check_expiry(), 0);
        svc.shutdown();
    }

    #[test]
    fn expiry_loses_race_to_a_landed_result() {
        let (vclock, svc) = virtual_service(AdmissionConfig::default());
        let (token, fid, ep) = setup(&svc, "u@x.y");
        let mut spec = TaskSpec::new(fid, ep);
        spec.deadline_ms = Some(100);
        let id = svc.submit_task(&token, spec).unwrap();
        vclock.advance(200);
        // The result lands just before the sweep runs.
        let mut fan_out = crate::service::results::FanOut::default();
        let result = TaskResult::ok(gcx_core::value::Value::Int(7));
        svc.finish_task_local(id, result, None, None, &mut fan_out)
            .unwrap();
        fan_out.flush(svc.broker(), &svc.inner.streams);
        assert_eq!(svc.check_expiry(), 0, "terminal record is left untouched");
        let rec = svc.task_record(id).unwrap();
        assert_eq!(rec.state, TaskState::Success);
        svc.shutdown();
    }

    #[test]
    fn brownout_sheds_low_priority_and_exits_when_lag_clears() {
        let (vclock, svc) = virtual_service(AdmissionConfig {
            enabled: true,
            rate_per_sec: 1_000_000,
            burst: 1_000_000,
            max_inflight: 0,
            brownout_threshold_ms: 1_000,
            brownout_min_priority: 5,
            ..AdmissionConfig::default()
        });
        let (token, fid, ep) = setup(&svc, "u@x.y");
        // A task buffers on a dead endpoint (never connects, never
        // dispatches): dispatch lag builds.
        let stuck = svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        assert!(!svc.brownout_active());
        vclock.advance(1_500);
        svc.check_expiry();
        assert!(svc.brownout_active(), "dispatch lag crossed the threshold");

        // Low priority sheds; high priority still flows.
        let low = TaskSpec::new(fid, ep);
        let err = svc.submit_task(&token, low).unwrap_err();
        assert!(matches!(err, GcxError::Overloaded { .. }));
        assert!(svc.metrics().counter("cloud.tasks_shed_brownout").get() >= 1);
        let mut high = TaskSpec::new(fid, ep);
        high.priority = 5;
        let high_id = svc.submit_task(&token, high).unwrap();

        // Cancelling the stuck tasks clears the lag; brownout exits.
        svc.cancel_task(&token, stuck).unwrap();
        svc.cancel_task(&token, high_id).unwrap();
        svc.check_expiry();
        assert!(!svc.brownout_active());
        assert_eq!(svc.metrics().counter("cloud.brownout_entries").get(), 1);
        let edges: Vec<&str> = svc
            .metrics()
            .flight()
            .events()
            .iter()
            .filter(|e| e.component == "cloud.admission" && e.event.starts_with("brownout_e"))
            .map(|e| e.event)
            .collect();
        assert_eq!(edges, ["brownout_enter", "brownout_exit"]);
        svc.shutdown();
    }

    /// Dispatch lag is read where every task waits — its endpoint's queue
    /// — not from a stamp only a traced task gets: a task an endpoint has
    /// taken never counts as waiting, and one nobody takes always does,
    /// sampled or not.
    #[test]
    fn brownout_reads_the_same_lag_whether_or_not_a_task_is_traced() {
        for sample_every in [1, 0] {
            let (vclock, svc) = virtual_service_with(CloudConfig {
                admission: AdmissionConfig {
                    enabled: true,
                    rate_per_sec: 1_000_000,
                    burst: 1_000_000,
                    max_inflight: 0,
                    brownout_threshold_ms: 1_000,
                    ..AdmissionConfig::default()
                },
                trace: gcx_core::trace::TraceConfig {
                    sample_every,
                    ..Default::default()
                },
                ..CloudConfig::default()
            });
            let token = login(&svc, "u@x.y");
            let fid = svc
                .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
                .unwrap();
            let reg = svc
                .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
                .unwrap();
            let session = svc
                .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
                .unwrap();
            let taken = svc
                .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
            let (spec, _tag) = session
                .next_task(std::time::Duration::from_secs(5))
                .unwrap()
                .unwrap();
            assert_eq!(spec.task_id, taken);
            assert_eq!(spec.trace.is_some(), sample_every == 1);
            // The endpoint runs the task past the threshold: no lag.
            vclock.advance(1_500);
            svc.check_expiry();
            assert!(!svc.brownout_active(), "sample_every {sample_every}");

            // A second task waits on the queue past the threshold: lag.
            svc.submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
                .unwrap();
            vclock.advance(1_500);
            svc.check_expiry();
            assert!(svc.brownout_active(), "sample_every {sample_every}");
            drop(session);
            svc.shutdown();
        }
    }

    #[test]
    fn disabled_admission_is_a_noop() {
        let (_vclock, svc) = virtual_service(AdmissionConfig {
            enabled: false,
            rate_per_sec: 1,
            burst: 1,
            max_inflight: 1,
            ..AdmissionConfig::default()
        });
        let (token, fid, ep) = setup(&svc, "u@x.y");
        for _ in 0..20 {
            svc.submit_task(&token, TaskSpec::new(fid, ep)).unwrap();
        }
        assert_eq!(
            svc.metrics()
                .counter("cloud.submits_rejected_overload")
                .get(),
            0
        );
        svc.shutdown();
    }
}
