//! Endpoint liveness: heartbeats, degradation reports, and the
//! stale-endpoint sweep that requeues in-flight tasks.

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::EndpointId;

use super::{task_queue_name, WebService};
use crate::records::EndpointHealth;

impl WebService {
    /// Record a heartbeat from an endpoint agent. A heartbeat from an
    /// endpoint previously declared offline brings it back online.
    pub fn heartbeat(&self, endpoint_id: EndpointId) -> GcxResult<()> {
        let now = self.inner.clock.now_ms();
        self.inner.endpoints.update(&endpoint_id, |rec| {
            let rec = rec.ok_or(GcxError::EndpointNotFound(endpoint_id))?;
            rec.last_heartbeat_ms = now;
            rec.connected = true;
            Ok(())
        })
    }

    /// An agent reports lost batch capacity (a dead block or crashed
    /// nodes): the endpoint is marked *degraded*, not offline — it is
    /// still alive and recovering on its own.
    pub fn report_block_loss(&self, endpoint_id: EndpointId, reason: &str) -> GcxResult<()> {
        self.inner.endpoints.update(&endpoint_id, |rec| {
            let rec = rec.ok_or(GcxError::EndpointNotFound(endpoint_id))?;
            rec.degraded = true;
            Ok(())
        })?;
        self.inner.m.block_loss_reports.inc();
        // Per-reason counters are dynamically named; those stay on the
        // registry path.
        self.inner
            .metrics
            .counter(&format!("cloud.block_loss_{reason}"))
            .inc();
        Ok(())
    }

    /// An agent reports a running block again: capacity is back, the
    /// endpoint is no longer degraded.
    pub fn report_block_recovery(&self, endpoint_id: EndpointId) -> GcxResult<()> {
        self.inner.endpoints.update(&endpoint_id, |rec| {
            let rec = rec.ok_or(GcxError::EndpointNotFound(endpoint_id))?;
            rec.degraded = false;
            Ok(())
        })?;
        self.inner.m.block_recovery_reports.inc();
        Ok(())
    }

    /// Coarse health: offline (no session) vs degraded (alive but missing
    /// batch capacity) vs online.
    pub fn endpoint_health(&self, endpoint_id: EndpointId) -> GcxResult<EndpointHealth> {
        self.inner.endpoints.with(&endpoint_id, |rec| {
            let rec = rec.ok_or(GcxError::EndpointNotFound(endpoint_id))?;
            Ok(if !rec.connected {
                EndpointHealth::Offline
            } else if rec.degraded {
                EndpointHealth::Degraded
            } else {
                EndpointHealth::Online
            })
        })
    }

    /// Sweep for endpoints whose heartbeat has gone stale: mark them
    /// offline and requeue their in-flight tasks so they are redelivered
    /// when an agent next connects (tasks over their delivery budget are
    /// dead-lettered and failed instead). Returns how many endpoints were
    /// newly marked offline.
    ///
    /// Called periodically by the service's cold-path thread on a real
    /// clock; tests on a virtual clock call it explicitly after advancing
    /// time.
    pub fn check_liveness(&self) -> usize {
        let now = self.inner.clock.now_ms();
        let timeout = self.inner.cfg.heartbeat_timeout_ms;
        let mut stale: Vec<EndpointId> = Vec::new();
        self.inner.endpoints.for_each(|_, r| {
            // Federated: the endpoint store is shared, so only the
            // endpoint's ring owner sweeps it — a dead endpoint is requeued
            // once, not once per replica.
            if let Some(fed) = &self.inner.fed {
                if !fed.is_mine(r.id.uuid()) {
                    return;
                }
            }
            if r.connected && now.saturating_sub(r.last_heartbeat_ms) > timeout {
                stale.push(r.id);
            }
        });
        let mut newly_offline = 0;
        for id in stale {
            // Re-check under the shard write lock: a heartbeat may have
            // landed between the sweep and now.
            let went_offline = self.inner.endpoints.update(&id, |rec| match rec {
                Some(rec)
                    if rec.connected && now.saturating_sub(rec.last_heartbeat_ms) > timeout =>
                {
                    rec.connected = false;
                    true
                }
                _ => false,
            });
            if !went_offline {
                continue;
            }
            newly_offline += 1;
            self.inner.m.endpoints_offline.inc();
            let requeued = self
                .inner
                .broker
                .recover_queue(&task_queue_name(id))
                .unwrap_or(0);
            self.inner.m.retries.add(requeued as u64);
            self.inner.metrics.flight().record(
                now,
                "cloud.liveness",
                "endpoint_offline",
                format!("endpoint={id} requeued={requeued}"),
            );
        }
        self.reap_abandoned_streams(now, timeout);
        newly_offline
    }

    /// Reap result streams whose consumer stopped polling. A client that
    /// drops its [`ResultStream`](super::ResultStream) (or closes its wire
    /// connection) tears the stream down explicitly; one that is killed
    /// outright leaves the entry behind, and `finish_task` would fan every
    /// future result into a queue nobody drains. The broker stamps each
    /// queue's last consumer poll, so any stream quieter than **twice** the
    /// heartbeat timeout is closed here. The doubled bar is deliberate:
    /// wrongly reaping a live stream destroys its queued results, and a
    /// healthy consumer polls on wall-clock cadence while this sweep may be
    /// driven by a virtual clock — the slack keeps a just-advanced clock
    /// from outrunning the consumer's next stamp.
    fn reap_abandoned_streams(&self, now: u64, timeout: u64) {
        let bar = timeout.saturating_mul(2);
        let mut dead: Vec<(gcx_core::ids::IdentityId, String)> = Vec::new();
        self.inner.streams.for_each(|identity, list| {
            for (qname, _) in list.iter() {
                match self.inner.broker.queue_stats(qname) {
                    Ok(stats) if now.saturating_sub(stats.last_poll_ms) > bar => {
                        dead.push((*identity, qname.clone()));
                    }
                    // Queue already gone (e.g. broker-side delete): the
                    // map entry is pure leak, drop it too.
                    Err(_) => dead.push((*identity, qname.clone())),
                    _ => {}
                }
            }
        });
        for (identity, qname) in dead {
            self.close_result_stream(identity, &qname);
            self.inner.m.streams_reaped.inc();
            self.inner.metrics.flight().record(
                now,
                "cloud.liveness",
                "stream_reaped",
                format!("queue={qname}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{login, T};
    use super::super::CloudConfig;
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::VirtualClock;
    use gcx_core::function::FunctionBody;
    use gcx_core::task::TaskSpec;
    use gcx_mq::Broker;

    fn virtual_service(heartbeat_timeout_ms: u64) -> (std::sync::Arc<VirtualClock>, WebService) {
        let vclock = VirtualClock::new();
        let clock: gcx_core::clock::SharedClock = vclock.clone();
        let auth = gcx_auth::AuthService::new(clock.clone());
        let broker = Broker::with_profile(
            gcx_core::metrics::MetricsRegistry::new(),
            clock.clone(),
            gcx_mq::LinkProfile::instant(),
        );
        let cfg = CloudConfig {
            heartbeat_timeout_ms,
            ..CloudConfig::default()
        };
        (vclock, WebService::new(cfg, auth, broker, clock))
    }

    #[test]
    fn stale_endpoint_goes_offline_and_in_flight_tasks_requeue() {
        let (vclock, svc) = virtual_service(1_000);
        let token = login(&svc, "u@x.y");
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let id = svc
            .submit_task(&token, TaskSpec::new(fid, reg.endpoint_id))
            .unwrap();

        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (got, _tag) = session.next_task(T).unwrap().unwrap();
        assert_eq!(got.task_id, id);

        // Fresh heartbeat (stamped at connect): nothing is stale yet.
        assert_eq!(svc.check_liveness(), 0);

        // The agent freezes: no heartbeats while the timeout elapses. On a
        // virtual clock nothing in the background sweeps — several periods
        // of the cold-path thread later the endpoint is still connected,
        // and the sweep driven by hand is the one that finds it.
        vclock.advance(1_500);
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert!(svc.endpoint_record(reg.endpoint_id).unwrap().connected);
        assert_eq!(svc.check_liveness(), 1);
        assert!(!svc.endpoint_record(reg.endpoint_id).unwrap().connected);
        // The sweep's event is in the one event ring, which the JSON
        // exposition serves.
        let json = svc.exposition_json();
        assert!(
            json.contains("\"component\":\"cloud.liveness\",\"event\":\"endpoint_offline\""),
            "events array lacks the offline event: {json}"
        );
        assert_eq!(svc.metrics().counter("cloud.endpoints_offline").get(), 1);
        assert_eq!(svc.metrics().counter("cloud.retries").get(), 1);
        let stats = svc
            .broker()
            .queue_stats(&task_queue_name(reg.endpoint_id))
            .unwrap();
        assert_eq!(stats.ready, 1, "in-flight task requeued");
        assert_eq!(stats.unacked, 0);

        // A heartbeat brings the endpoint back online...
        session.heartbeat().unwrap();
        assert!(svc.endpoint_record(reg.endpoint_id).unwrap().connected);

        // ...and a replacement session receives the requeued task.
        let second = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (again, tag) = second.next_task(T).unwrap().unwrap();
        assert_eq!(again.task_id, id);
        second.ack_task(tag).unwrap();
        svc.shutdown();
    }

    #[test]
    fn degraded_endpoint_is_not_dead() {
        // Block-loss reports mark the endpoint degraded, never offline:
        // as long as the agent heartbeats, the liveness monitor leaves a
        // recovering endpoint alone ("endpoint lost capacity, recovering"
        // vs "endpoint dead").
        let (vclock, svc) = virtual_service(1_000);
        let token = login(&svc, "u@x.y");
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Offline,
            "registered but never connected"
        );
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Online
        );

        session.report_block_lost("preempted", 2).unwrap();
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Degraded
        );
        assert_eq!(svc.metrics().counter("cloud.block_loss_reports").get(), 1);
        assert_eq!(svc.metrics().counter("cloud.block_loss_preempted").get(), 1);

        // Heartbeating through the degraded window: never marked offline.
        vclock.advance(800);
        session.heartbeat().unwrap();
        vclock.advance(800);
        session.heartbeat().unwrap();
        assert_eq!(svc.check_liveness(), 0);
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Degraded
        );

        session.report_block_recovered(2).unwrap();
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Online
        );
        assert_eq!(
            svc.metrics().counter("cloud.block_recovery_reports").get(),
            1
        );

        // Only heartbeat staleness takes an endpoint offline.
        vclock.advance(1_500);
        assert_eq!(svc.check_liveness(), 1);
        assert_eq!(
            svc.endpoint_health(reg.endpoint_id).unwrap(),
            EndpointHealth::Offline
        );
        svc.shutdown();
    }

    #[test]
    fn abandoned_result_stream_is_reaped_by_liveness_sweep() {
        // Regression: a client killed without `close_result_stream` (no
        // Drop runs) used to leak its stream queue forever — every future
        // result fanned out into a queue nobody drained.
        let (vclock, svc) = virtual_service(1_000);
        let token = login(&svc, "leaky@x.y");

        let stream = svc.open_result_stream(&token).unwrap();
        let qname = stream.queue_name().to_string();
        // Simulate a SIGKILLed client: the stream vanishes without Drop.
        std::mem::forget(stream);
        assert!(svc.broker().queue_stats(&qname).is_ok());

        // Within the reaping bar (2x heartbeat timeout): left alone.
        vclock.advance(1_500);
        svc.check_liveness();
        assert!(
            svc.broker().queue_stats(&qname).is_ok(),
            "stream inside the staleness bar must survive"
        );

        // Past the bar: queue deleted and fan-out entry removed.
        vclock.advance(2_000);
        svc.check_liveness();
        assert!(
            svc.broker().queue_stats(&qname).is_err(),
            "abandoned stream queue must be deleted"
        );
        assert_eq!(svc.metrics().counter("cloud.streams_reaped").get(), 1);

        // The fan-out map no longer references the reaped queue: landing a
        // result publishes to zero streams.
        let mut fanout = Vec::new();
        svc.inner
            .streams
            .for_each(|_, list| fanout.extend(list.iter().cloned()));
        assert!(
            fanout.is_empty(),
            "streams map must forget the reaped queue: {fanout:?}"
        );

        // A stream whose consumer keeps polling is never reaped, however
        // stale the rest of the world gets.
        let live = svc.open_result_stream(&token).unwrap();
        vclock.advance(5_000);
        let _ = live.consumer.next(std::time::Duration::from_millis(1));
        svc.check_liveness();
        assert!(
            svc.broker().queue_stats(live.queue_name()).is_ok(),
            "actively polled stream must survive the sweep"
        );
        assert_eq!(svc.metrics().counter("cloud.streams_reaped").get(), 1);
        drop(live);
        svc.shutdown();
    }
}
