//! Federation: N cloud replicas behind one broker, with consistent-hash
//! ownership, epoch-guarded forwarding, and failure handover.
//!
//! The funcX papers describe a *federated* function-serving fabric; a
//! single web-service instance — however well sharded — is a single point
//! of failure. This module runs N [`WebService`] replicas over the same
//! broker and auth service:
//!
//! - **Ownership.** A consistent-hash ring ([`ring::HashRing`], virtual
//!   nodes) assigns every task id to exactly one replica. Only the owner
//!   holds the task's record, appends to the durable task log, and lands
//!   its result; every other replica forwards (`fed.rpc.<r>` envelopes)
//!   instead of writing.
//! - **Epochs.** The ring has a monotonically increasing epoch, bumped on
//!   every membership change. Forwarded envelopes carry the sender's
//!   epoch; a receiver that is not the owner re-forwards (hop-capped) and
//!   counts stale-epoch traffic, so writes after a handover converge on
//!   the new owner instead of landing on the stale one.
//! - **Liveness.** Each replica's rpc loop heartbeats the federation the
//!   same way endpoint agents heartbeat the cloud; [`Federation::check_replicas`]
//!   sweeps for stale replicas exactly like `check_liveness` sweeps for
//!   stale endpoints (explicitly driven under a virtual clock).
//! - **Handover.** A dead replica's durable task log (`fed.tasklog.<r>`)
//!   is drained and replayed: orphaned open tasks are adopted by their new
//!   ring owners (visible as a `handover` span on the task's trace),
//!   terminal results are preserved, and the dead replica's pending rpc
//!   envelopes are re-routed. Idempotent result ingestion at the owner
//!   makes the whole dance exactly-once for completions.
//!
//! Metadata (functions, endpoints, credentials, result streams) rides
//! *shared* stores — the stand-in for the production service's replicated
//! config database — while the task hot path stays shared-nothing per
//! replica. Endpoint ownership still matters: only an endpoint's ring
//! owner sweeps it for liveness, so a dead endpoint is requeued once, not
//! once per replica.

pub mod envelope;
pub mod log;
pub(crate) mod ring;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::{RecvTimeoutError, Sender};
use gcx_auth::AuthService;
use gcx_core::clock::SharedClock;
use gcx_core::error::GcxResult;
use gcx_core::ids::{TaskId, Uuid};
use gcx_core::metrics::{Counter, MetricsRegistry};
use gcx_core::trace::Tracer;
use gcx_mq::{Broker, FaultPlan, Message, ReplicaAction};
use parking_lot::{Mutex, RwLock};

use crate::service::{CloudConfig, SharedStores, WebService};
use envelope::{Body, Envelope};
use log::{fed_log_queue, fed_rpc_queue, FED_CRED};
pub use ring::{HashRing, ReplicaId};

/// Forwarded envelopes are dropped (and counted) after this many
/// replica-to-replica hops — the backstop against ownership flapping.
pub const MAX_FORWARD_HOPS: u64 = 4;

/// Federation tunables (size + replica liveness).
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of replicas to launch.
    pub replicas: usize,
    /// A replica that has not heartbeated for this long is declared dead
    /// and its ownership ranges are handed over.
    pub heartbeat_timeout_ms: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            heartbeat_timeout_ms: 30_000,
        }
    }
}

/// Per-replica liveness state tracked by the federation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemberState {
    pub(crate) last_heartbeat_ms: u64,
    /// Still contributing points to the ring (cleared on death detection).
    pub(crate) in_ring: bool,
    /// Killed (or never restarted): rejects client requests outright.
    pub(crate) down: bool,
    /// Partitioned from the broker until this instant (0 = not partitioned).
    pub(crate) partitioned_until: u64,
}

/// The shared heart of a federation: ring + epoch + membership. Cheap to
/// share with every replica (no service handles in here — the handle map
/// lives on [`Federation`] to keep `CloudInner` cycle-free).
/// How often a heartbeat judged against `timeout_ms` is stamped or swept
/// for: a quarter of it (a live peer's stamp is never stale), at least 25 ms.
pub(crate) fn heartbeat_every(timeout_ms: u64) -> Duration {
    Duration::from_millis((timeout_ms / 4).max(25))
}

pub(crate) struct FedCore {
    pub(crate) heartbeat_timeout_ms: u64,
    ring: RwLock<HashRing>,
    epoch: AtomicU64,
    members: RwLock<BTreeMap<ReplicaId, MemberState>>,
}

impl FedCore {
    fn new(cfg: &FederationConfig) -> Self {
        Self {
            heartbeat_timeout_ms: cfg.heartbeat_timeout_ms,
            ring: RwLock::new(HashRing::default()),
            epoch: AtomicU64::new(0),
            members: RwLock::new(BTreeMap::new()),
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub(crate) fn owner_of(&self, id: Uuid) -> Option<ReplicaId> {
        self.ring.read().owner(id)
    }

    pub(crate) fn heartbeat(&self, replica: ReplicaId, now: u64) {
        let mut members = self.members.write();
        if let Some(m) = members.get_mut(&replica) {
            if !m.down && m.partitioned_until <= now {
                m.last_heartbeat_ms = now;
            }
        }
    }

    pub(crate) fn is_down(&self, replica: ReplicaId) -> bool {
        self.members
            .read()
            .get(&replica)
            .map(|m| m.down)
            .unwrap_or(true)
    }

    pub(crate) fn is_partitioned(&self, replica: ReplicaId, now: u64) -> bool {
        self.members
            .read()
            .get(&replica)
            .map(|m| m.partitioned_until > now)
            .unwrap_or(false)
    }

    /// Put `env` on `to`'s rpc queue.
    pub(crate) fn send(&self, broker: &Broker, to: ReplicaId, env: &Envelope) -> GcxResult<()> {
        broker.publish(
            &fed_rpc_queue(to),
            Message::new(env.encode()?),
            Some(FED_CRED),
        )
    }

    /// Decide, under the current ring, where each part of `env` goes. The
    /// part `me` owns is handed back for the caller to act on. Every other
    /// part — the sender held a stale ring, or the addressee died — is sent
    /// on to its owner with one more hop under the current epoch; a submit
    /// batch whose ring moved under it splits, one envelope per owner. Past
    /// [`MAX_FORWARD_HOPS`] a part is dropped and counted instead, the
    /// backstop against ownership flapping. The live rpc loop (`me` = the
    /// receiver) and the death handover (`me` = nobody) both route here.
    /// Also returns whether anything was sent on.
    pub(crate) fn route(
        &self,
        broker: &Broker,
        env: Envelope,
        me: Option<ReplicaId>,
    ) -> (Option<Body>, bool) {
        // With no survivors on the ring, better to act than to drop work.
        let owner_of = |id: TaskId| self.owner_of(id.uuid()).or(me);
        let parts: Vec<(ReplicaId, Body)> = match env.body {
            Body::Submit(from, specs) => {
                let mut groups: BTreeMap<ReplicaId, Vec<_>> = BTreeMap::new();
                for spec in specs {
                    if let Some(owner) = owner_of(spec.task_id) {
                        groups.entry(owner).or_default().push(spec);
                    }
                }
                let submit = |(owner, specs)| (owner, Body::Submit(from, specs));
                groups.into_iter().map(submit).collect()
            }
            body => {
                let owner = body.routing_id().and_then(owner_of);
                owner.map(|owner| (owner, body)).into_iter().collect()
            }
        };
        let metrics = broker.metrics();
        let (epoch, hop) = (self.epoch(), env.hop + 1);
        let (mut mine, mut sent_on) = (None, false);
        for (owner, body) in parts {
            if Some(owner) == me {
                mine = Some(body);
            } else if hop > MAX_FORWARD_HOPS {
                metrics.counter("fed.hops_exhausted").inc();
                let task = body.routing_id().map(|t| t.to_string());
                metrics.flight().record(
                    metrics.tracer().now_ms(),
                    "fed",
                    "hops_exhausted",
                    format!("task_id={} hops={hop}", task.unwrap_or_default()),
                );
            } else {
                if env.epoch < epoch {
                    metrics.counter("fed.stale_epoch_rejected").inc();
                }
                sent_on |= self
                    .send(broker, owner, &Envelope { epoch, hop, body })
                    .is_ok();
            }
        }
        (mine, sent_on)
    }
}

/// One replica's view of its federation: its id plus the shared core.
/// Stored on `CloudInner` (`None` for a standalone service).
#[derive(Clone)]
pub(crate) struct FedMembership {
    pub(crate) replica: ReplicaId,
    pub(crate) core: Arc<FedCore>,
}

impl FedMembership {
    pub(crate) fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    pub(crate) fn owner(&self, id: Uuid) -> Option<ReplicaId> {
        self.core.owner_of(id)
    }

    /// True when this replica owns `id` — or when the ring is empty (no
    /// survivors; better to act than to drop work on the floor).
    pub(crate) fn is_mine(&self, id: Uuid) -> bool {
        match self.core.owner_of(id) {
            Some(owner) => owner == self.replica,
            None => true,
        }
    }

    pub(crate) fn heartbeat(&self, now: u64) {
        self.core.heartbeat(self.replica, now);
    }

    pub(crate) fn is_down(&self) -> bool {
        self.core.is_down(self.replica)
    }

    pub(crate) fn is_partitioned(&self, now: u64) -> bool {
        self.core.is_partitioned(self.replica, now)
    }
}

/// Pre-resolved federation counters.
struct FedCounters {
    replicas_dead: Arc<Counter>,
    replica_kills: Arc<Counter>,
    replica_partitions: Arc<Counter>,
    replica_restarts: Arc<Counter>,
    replica_rejoins: Arc<Counter>,
    tasks_adopted: Arc<Counter>,
    tasks_rebalanced: Arc<Counter>,
    envelopes_rerouted: Arc<Counter>,
}

impl FedCounters {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            replicas_dead: metrics.counter("fed.replicas_dead"),
            replica_kills: metrics.counter("fed.replica_kills"),
            replica_partitions: metrics.counter("fed.replica_partitions"),
            replica_restarts: metrics.counter("fed.replica_restarts"),
            replica_rejoins: metrics.counter("fed.replica_rejoins"),
            tasks_adopted: metrics.counter("fed.tasks_adopted"),
            tasks_rebalanced: metrics.counter("fed.tasks_rebalanced"),
            envelopes_rerouted: metrics.counter("fed.envelopes_rerouted"),
        }
    }
}

/// A running federation of [`WebService`] replicas.
pub struct Federation {
    cfg: FederationConfig,
    core: Arc<FedCore>,
    replicas: Arc<RwLock<BTreeMap<ReplicaId, WebService>>>,
    broker: Broker,
    auth: AuthService,
    clock: SharedClock,
    tracer: Tracer,
    cloud_cfg: CloudConfig,
    shared: SharedStores,
    counters: Arc<FedCounters>,
    /// Watermark for scripted replica-fault actions (see
    /// [`Federation::apply_fault_actions`]).
    fault_watermark: Mutex<u64>,
    /// The monitor thread, and the only sender of the channel its wait for
    /// the next sweep listens on: dropping it stops the monitor at once.
    monitor: Mutex<Option<(Sender<()>, std::thread::JoinHandle<()>)>>,
}

impl Federation {
    /// Launch `replicas` replicas with default configs on `clock` (fresh
    /// auth service and instant-link broker).
    pub fn new(replicas: usize, clock: SharedClock) -> Self {
        let auth = AuthService::new(clock.clone());
        let broker = Broker::with_profile(
            MetricsRegistry::new(),
            clock.clone(),
            gcx_mq::LinkProfile::instant(),
        );
        Self::with_parts(
            FederationConfig {
                replicas,
                ..FederationConfig::default()
            },
            CloudConfig::default(),
            auth,
            broker,
            clock,
        )
    }

    /// Launch a federation over the given auth service and broker.
    pub fn with_parts(
        cfg: FederationConfig,
        cloud_cfg: CloudConfig,
        auth: AuthService,
        broker: Broker,
        clock: SharedClock,
    ) -> Self {
        let metrics = broker.metrics().clone();
        // One tracer across all replicas: a task's spans (submit on the
        // entry replica, handover on the adopter, result on the final
        // owner) land in one trace.
        let tracer = if cloud_cfg.trace.sample_every > 0 {
            Tracer::new(clock.clone(), cloud_cfg.trace.clone())
        } else {
            Tracer::disabled()
        };
        metrics.set_tracer(tracer.clone());
        let core = Arc::new(FedCore::new(&cfg));
        let shared = SharedStores::default();
        let now = clock.now_ms();
        // Seed membership and the ring before spawning any replica, so the
        // first submit already routes correctly.
        {
            let mut members = core.members.write();
            let mut ring = core.ring.write();
            for r in 0..cfg.replicas {
                let rid = ReplicaId(r as u32);
                members.insert(
                    rid,
                    MemberState {
                        last_heartbeat_ms: now,
                        in_ring: true,
                        down: false,
                        partitioned_until: 0,
                    },
                );
                ring.add(rid);
            }
        }
        let mut map = BTreeMap::new();
        for r in 0..cfg.replicas {
            let rid = ReplicaId(r as u32);
            broker
                .declare_queue(&fed_rpc_queue(rid), Some(FED_CRED))
                .expect("fresh fed rpc queue");
            broker
                .declare_queue(&fed_log_queue(rid), Some(FED_CRED))
                .expect("fresh fed log queue");
            let svc = WebService::new_federated(
                cloud_cfg.clone(),
                auth.clone(),
                broker.clone(),
                clock.clone(),
                FedMembership {
                    replica: rid,
                    core: core.clone(),
                },
                shared.clone(),
                tracer.clone(),
            );
            map.insert(rid, svc);
        }
        let fed = Self {
            counters: Arc::new(FedCounters::resolve(&metrics)),
            cfg,
            core,
            replicas: Arc::new(RwLock::new(map)),
            broker,
            auth,
            clock,
            tracer,
            cloud_cfg,
            shared,
            fault_watermark: Mutex::new(0),
            monitor: Mutex::new(None),
        };
        // On a virtual clock the test harness drives `check_replicas`
        // explicitly, exactly like endpoint liveness.
        if !fed.clock.is_virtual() {
            fed.spawn_monitor();
        }
        fed
    }

    fn spawn_monitor(&self) {
        let core = self.core.clone();
        let (stop, stopped) = crossbeam_channel::unbounded::<()>();
        let replicas = self.replicas.clone();
        let broker = self.broker.clone();
        let clock = self.clock.clone();
        let counters = self.counters.clone();
        let sweep = heartbeat_every(self.cfg.heartbeat_timeout_ms);
        let handle = std::thread::Builder::new()
            .name("gcx-fed-monitor".into())
            .spawn(move || {
                while stopped.recv_timeout(sweep) == Err(RecvTimeoutError::Timeout) {
                    sweep_replicas(&core, &replicas, &broker, clock.now_ms(), &counters);
                }
            })
            .expect("spawn fed monitor");
        *self.monitor.lock() = Some((stop, handle));
    }

    fn stop_monitor(&self) {
        if let Some((stop, handle)) = self.monitor.lock().take() {
            drop(stop);
            let _ = handle.join();
        }
    }

    /// One membership event into the flight recorder.
    fn record(&self, event: &'static str, detail: String) {
        let flight = self.broker.metrics().flight();
        flight.record(self.clock.now_ms(), "fed", event, detail);
    }

    /// The federation's ownership epoch (bumped on every membership change).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// A handle to replica `r` (whether or not it is live).
    pub fn replica(&self, r: u32) -> Option<WebService> {
        self.replicas.read().get(&ReplicaId(r)).cloned()
    }

    /// The replica ids currently accepting client requests.
    pub fn live_replicas(&self) -> Vec<u32> {
        let now = self.clock.now_ms();
        let members = self.core.members.read();
        members
            .iter()
            .filter(|(_, m)| !m.down && m.partitioned_until <= now)
            .map(|(r, _)| r.0)
            .collect()
    }

    /// The ring owner of an id (for tests and smart clients).
    pub fn owner_of(&self, id: Uuid) -> Option<u32> {
        self.core.owner_of(id).map(|r| r.0)
    }

    /// A discovery handle for SDK clients.
    pub fn directory(&self) -> ReplicaDirectory {
        ReplicaDirectory {
            core: self.core.clone(),
            replicas: self.replicas.clone(),
            clock: self.clock.clone(),
        }
    }

    /// The shared auth service.
    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    /// The shared broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The shared metrics registry (counters aggregate across replicas).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.broker.metrics()
    }

    /// The shared tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stamp a fresh heartbeat for every replica that is up and not
    /// partitioned. Tests on a virtual clock call this before
    /// [`Federation::check_replicas`] so replicas whose rpc loops run on
    /// wall time are not falsely declared dead after a big clock jump.
    pub fn heartbeat_all(&self) {
        let now = self.clock.now_ms();
        let ids: Vec<ReplicaId> = self.core.members.read().keys().copied().collect();
        for r in ids {
            self.core.heartbeat(r, now);
        }
    }

    /// Sweep for dead replicas (stale heartbeats) and healed replicas
    /// (partition expired, heartbeating again, but out of the ring):
    /// dead ones hand their ownership ranges over, healed ones rejoin
    /// with a rebalance. Returns how many replicas were newly declared
    /// dead. Driven by a background thread on a real clock; tests call it
    /// explicitly after advancing a virtual clock.
    pub fn check_replicas(&self) -> usize {
        let now = self.clock.now_ms();
        let dead = sweep_replicas(
            &self.core,
            &self.replicas,
            &self.broker,
            now,
            &self.counters,
        );
        // Rejoin healed members: up, not partitioned, heartbeating, but
        // out of the ring (their ranges were handed over while they were
        // unreachable).
        let healed: Vec<ReplicaId> = {
            let members = self.core.members.read();
            members
                .iter()
                .filter(|(_, m)| {
                    !m.down
                        && !m.in_ring
                        && m.partitioned_until <= now
                        && now.saturating_sub(m.last_heartbeat_ms) <= self.cfg.heartbeat_timeout_ms
                })
                .map(|(r, _)| *r)
                .collect()
        };
        for r in healed {
            self.counters.replica_rejoins.inc();
            self.rejoin(r, now);
        }
        dead
    }

    /// Kill replica `r`: it stops heartbeating, stops consuming, and
    /// rejects client requests. Death is *detected* (and ownership handed
    /// over) by the next [`Federation::check_replicas`] sweep after the
    /// heartbeat timeout — exactly how a crashed process looks from the
    /// outside.
    pub fn kill(&self, r: u32) {
        let rid = ReplicaId(r);
        let svc = {
            let mut members = self.core.members.write();
            match members.get_mut(&rid) {
                Some(m) if !m.down => m.down = true,
                _ => return,
            }
            self.replicas.read().get(&rid).cloned()
        };
        self.counters.replica_kills.inc();
        self.record("replica_kill", format!("replica={rid}"));
        if let Some(svc) = svc {
            // Joins the replica's threads; dropped consumers requeue their
            // unacked deliveries (results, rpc envelopes) for survivors.
            svc.shutdown();
        }
    }

    /// Partition replica `r` from the federation until `until_ms` (cloud
    /// clock): it keeps running but cannot heartbeat or consume, so peers
    /// declare it dead if the partition outlives the heartbeat timeout.
    /// Heals automatically; the healed replica rejoins on the next sweep.
    pub(crate) fn partition(&self, r: u32, until_ms: u64) {
        let rid = ReplicaId(r);
        if let Some(m) = self.core.members.write().get_mut(&rid) {
            m.partitioned_until = until_ms;
        }
        self.counters.replica_partitions.inc();
        self.record(
            "replica_partition",
            format!("replica={rid} until_ms={until_ms}"),
        );
    }

    /// Restart a killed replica: a fresh [`WebService`] under the same id
    /// rejoins the ring (epoch bump) and takes back its ownership ranges
    /// via a rebalance. Requires the replica to be down; if its death was
    /// never detected, the handover runs first so no log entry is lost.
    pub fn restart(&self, r: u32) {
        let rid = ReplicaId(r);
        let now = self.clock.now_ms();
        {
            let members = self.core.members.read();
            match members.get(&rid) {
                Some(m) if m.down => {}
                _ => return,
            }
        }
        // If the kill was never detected the dead replica is still in the
        // ring with a durable log nobody replayed. Hand over first.
        if self
            .core
            .members
            .read()
            .get(&rid)
            .is_some_and(|m| m.in_ring)
        {
            handover(
                &self.core,
                &self.replicas,
                &self.broker,
                rid,
                now,
                &self.counters,
            );
        }
        let fresh = WebService::new_federated(
            self.cloud_cfg.clone(),
            self.auth.clone(),
            self.broker.clone(),
            self.clock.clone(),
            FedMembership {
                replica: rid,
                core: self.core.clone(),
            },
            self.shared.clone(),
            self.tracer.clone(),
        );
        self.replicas.write().insert(rid, fresh);
        if let Some(m) = self.core.members.write().get_mut(&rid) {
            m.down = false;
            m.partitioned_until = 0;
            m.last_heartbeat_ms = now;
        }
        self.counters.replica_restarts.inc();
        self.record("replica_restart", format!("replica={rid}"));
        self.rejoin(rid, now);
    }

    /// Put `r` back on the ring and rebalance: every live replica sheds
    /// the records it no longer owns (logging `Moved` tombstones) and the
    /// new owners adopt them.
    fn rejoin(&self, rid: ReplicaId, now: u64) {
        {
            let mut members = self.core.members.write();
            let Some(m) = members.get_mut(&rid) else {
                return;
            };
            if m.in_ring {
                return;
            }
            m.in_ring = true;
            m.last_heartbeat_ms = now;
            self.core.ring.write().add(rid);
            self.core.epoch.fetch_add(1, Ordering::SeqCst);
        }
        self.record(
            "replica_rejoin",
            format!("replica={rid} epoch={}", self.core.epoch()),
        );
        let live: Vec<(ReplicaId, WebService)> = {
            let members = self.core.members.read();
            self.replicas
                .read()
                .iter()
                .filter(|(r, _)| members.get(r).is_some_and(|m| !m.down && m.in_ring))
                .map(|(r, svc)| (*r, svc.clone()))
                .collect()
        };
        let mut moved = Vec::new();
        for (from, svc) in &live {
            for rec in svc.fed_extract_misplaced() {
                moved.push((*from, rec));
            }
        }
        self.counters.tasks_rebalanced.add(moved.len() as u64);
        for (from, rec) in moved {
            let Some(owner) = self.core.owner_of(rec.spec.task_id.uuid()) else {
                continue;
            };
            if let Some(svc) = self.replicas.read().get(&owner).cloned() {
                // Records shed by a live replica were already shipped to
                // their endpoint queues: adopt without republishing.
                svc.fed_adopt_record(rec, from, now, false);
            }
        }
    }

    /// Apply the scripted replica-fault actions from `plan` that became
    /// due since the last call (watermark on the schedule's `at_ms`, so
    /// each action fires exactly once however often this is polled).
    /// Returns how many actions fired.
    pub fn apply_fault_actions(&self, plan: &FaultPlan) -> usize {
        let now = self.clock.now_ms();
        let due = {
            let mut watermark = self.fault_watermark.lock();
            let due = plan.replica_actions_due(*watermark, now);
            *watermark = now;
            due
        };
        let fired = due.len();
        for rule in due {
            match rule.action {
                ReplicaAction::Kill => self.kill(rule.replica),
                ReplicaAction::Partition { until_ms } => self.partition(rule.replica, until_ms),
                ReplicaAction::Restart => self.restart(rule.replica),
            }
        }
        fired
    }

    /// Stop the monitor and shut every live replica down.
    pub fn shutdown(&self) {
        self.stop_monitor();
        let members = self.core.members.read().clone();
        let services: Vec<(ReplicaId, WebService)> = self
            .replicas
            .read()
            .iter()
            .map(|(r, s)| (*r, s.clone()))
            .collect();
        for (rid, svc) in services {
            if members.get(&rid).is_some_and(|m| m.down) {
                continue; // already joined by kill()
            }
            svc.shutdown();
        }
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        self.stop_monitor();
    }
}

/// Sweep for replicas whose heartbeat went stale and hand their ranges
/// over. Free function so the monitor thread can run it without holding a
/// `Federation` handle (which would keep the federation alive forever).
fn sweep_replicas(
    core: &Arc<FedCore>,
    replicas: &Arc<RwLock<BTreeMap<ReplicaId, WebService>>>,
    broker: &Broker,
    now: u64,
    counters: &FedCounters,
) -> usize {
    let stale: Vec<ReplicaId> = {
        let members = core.members.read();
        members
            .iter()
            .filter(|(_, m)| {
                m.in_ring && now.saturating_sub(m.last_heartbeat_ms) > core.heartbeat_timeout_ms
            })
            .map(|(r, _)| *r)
            .collect()
    };
    let mut newly_dead = 0;
    for rid in stale {
        if handover(core, replicas, broker, rid, now, counters) {
            newly_dead += 1;
        }
    }
    newly_dead
}

/// Declare `dead` dead: remove it from the ring (epoch bump), mark it
/// down, replay its durable task log into the surviving owners, and
/// re-route its pending rpc envelopes. Returns false if someone else got
/// there first.
fn handover(
    core: &Arc<FedCore>,
    replicas: &Arc<RwLock<BTreeMap<ReplicaId, WebService>>>,
    broker: &Broker,
    dead: ReplicaId,
    now: u64,
    counters: &FedCounters,
) -> bool {
    {
        let mut members = core.members.write();
        let Some(m) = members.get_mut(&dead) else {
            return false;
        };
        if !m.in_ring {
            return false;
        }
        m.in_ring = false;
        m.down = true;
        core.ring.write().remove(dead);
        core.epoch.fetch_add(1, Ordering::SeqCst);
    }
    counters.replicas_dead.inc();
    let flight = broker.metrics().flight();
    flight.record(
        now,
        "fed",
        "replica_dead",
        format!("replica={dead} epoch={}", core.epoch()),
    );
    // A killed replica's threads were already joined (its consumers
    // requeued everything unacked); a partitioned-to-death replica keeps
    // running but is fenced by the ownership checks on every write path.
    // Replay the durable task log: adopt orphans, preserve results.
    let entries: Vec<log::TaskLogEntry> = drain_queue(broker, &fed_log_queue(dead))
        .iter()
        .filter_map(|body| log::TaskLogEntry::decode(body).ok())
        .collect();
    let records = log::replay(&entries, now);
    let adopted = records.len();
    for rec in records {
        let Some(owner) = core.owner_of(rec.spec.task_id.uuid()) else {
            continue; // no survivors: nothing can adopt
        };
        if let Some(svc) = replicas.read().get(&owner).cloned() {
            // The dead replica's in-memory delivery state is gone, so
            // open tasks are republished to their endpoint queues — a
            // possible duplicate delivery, made safe by idempotent result
            // ingestion.
            svc.fed_adopt_record(rec, dead, now, true);
        }
    }
    counters.tasks_adopted.add(adopted as u64);
    // Re-route rpc envelopes addressed to the corpse.
    let pending = drain_queue(broker, &fed_rpc_queue(dead));
    for body in &pending {
        if Envelope::decode(body).is_ok_and(|env| core.route(broker, env, None).1) {
            counters.envelopes_rerouted.inc();
        }
    }
    // Black-box entry plus — on a handover *storm* (several dead replicas
    // in one process) — a one-shot dump for the postmortem.
    flight.record(
        now,
        "fed",
        "handover",
        format!(
            "replica={dead} log_entries={} adopted={adopted} rerouted={}",
            entries.len(),
            pending.len()
        ),
    );
    if counters.replicas_dead.get() >= 2 {
        flight.trigger(now, "handover_storm");
    }
    true
}

/// Drain every ready message body off `queue`. The consumer is dropped
/// afterwards, so anything that arrives later stays put.
fn drain_queue(broker: &Broker, queue: &str) -> Vec<Bytes> {
    let Ok(consumer) = broker.consume(queue, Some(FED_CRED), 0) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    while let Ok(Some(d)) = consumer.next(Duration::from_millis(5)) {
        let _ = consumer.ack(d.tag);
        out.push(d.message.body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_auth::AuthPolicy;
    use gcx_core::clock::SystemClock;
    use gcx_core::function::FunctionBody;
    use gcx_core::ids::{EndpointId, FunctionId};
    use gcx_core::task::{TaskRecord, TaskResult, TaskSpec, TaskState};
    use std::time::Duration;

    #[test]
    fn federated_submit_routes_to_owner_and_results_land_exactly_once() {
        let fed = Federation::new(2, SystemClock::shared());
        let r0 = fed.replica(0).unwrap();
        let r1 = fed.replica(1).unwrap();
        let token = fed.auth().login("u@x.y").unwrap().1;
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        // Metadata is shared: the endpoint registered on r0 is visible to r1.
        let session = r1
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();

        // Submit through both replicas; ownership is by task id, so both
        // entry points exercise the local and the forwarded path.
        let specs_a: Vec<TaskSpec> = (0..8)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let specs_b: Vec<TaskSpec> = (0..8)
            .map(|_| TaskSpec::new(fid, reg.endpoint_id))
            .collect();
        let mut ids = r0.submit_batch(&token, specs_a).unwrap();
        ids.extend(r1.submit_batch(&token, specs_b).unwrap());

        let t = Duration::from_millis(2000);
        for _ in 0..ids.len() {
            let (spec, tag) = session.next_task(t).unwrap().expect("task delivered");
            session
                .publish_result(
                    spec.task_id,
                    &TaskResult::ok(gcx_core::value::Value::Int(7)),
                )
                .unwrap();
            session.ack_task(tag).unwrap();
        }

        // Every task reaches Success on its owner replica, exactly once.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        for id in &ids {
            let owner = fed.owner_of(id.uuid()).unwrap();
            let svc = fed.replica(owner).unwrap();
            loop {
                match svc.task_record(*id) {
                    Ok(rec) if rec.state == TaskState::Success => break,
                    _ => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "task {id} never completed on its owner r{owner}"
                        );
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            // The non-owner never holds the record; it redirects.
            let other = fed.replica(1 - owner).unwrap();
            assert!(matches!(
                other.task_status(&token, *id),
                Err(gcx_core::GcxError::NotOwner { owner: o }) if o == owner
            ));
        }
        assert_eq!(
            fed.metrics().counter("cloud.results_processed").get(),
            ids.len() as u64
        );
        assert_eq!(
            fed.metrics()
                .counter("cloud.duplicate_results_dropped")
                .get(),
            0
        );
        // Both paths were exercised.
        assert!(fed.metrics().counter("fed.submits_forwarded").get() > 0);
        fed.shutdown();
    }

    /// The `execute` leg is stamped where the result lands, so a task has
    /// it whichever replica its endpoint's session is connected to — the
    /// session's own replica holds the record of one task in three.
    #[test]
    fn every_task_has_one_execute_span_whichever_replica_serves_it() {
        let fed = Federation::new(3, SystemClock::shared());
        let r0 = fed.replica(0).unwrap();
        let token = fed.auth().login("u@x.y").unwrap().1;
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let t = Duration::from_secs(2);
        let mut traces = Vec::new();
        for serving in 0..3 {
            let session = fed
                .replica(serving)
                .unwrap()
                .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
                .unwrap();
            let specs = (0..3).map(|owner| spec_owned_by(&fed, owner, fid, reg.endpoint_id));
            let ids = r0.submit_batch(&token, specs.collect()).unwrap();
            for n in 0..ids.len() {
                let (spec, tag) = session.next_task(t).unwrap().expect("task delivered");
                if n % 2 == 0 {
                    session
                        .report_state(spec.task_id, TaskState::Running)
                        .unwrap();
                }
                session
                    .publish_result(spec.task_id, &TaskResult::ok(1.into()))
                    .unwrap();
                session.ack_task(tag).unwrap();
                traces.push((serving, spec.trace.expect("tracing is on by default")));
            }
            for id in ids {
                let owner = fed.replica(fed.owner_of(id.uuid()).unwrap()).unwrap();
                let done = || owner.task_record(id).is_ok_and(|r| r.state.is_terminal());
                assert!(wait_until(t, done), "task {id} never completed");
            }
        }
        let read = fed.tracer().traces();
        for (serving, ctx) in traces {
            let td = read.iter().find(|td| td.trace_id == ctx.trace_id).unwrap();
            let executes = td.spans_named("execute").count();
            assert_eq!(executes, 1, "session on r{serving}: {td:?}");
            assert!(td.orphan_spans().is_empty());
        }
        fed.shutdown();
    }

    // ---- a task owned here behaves the same however it got here ----------

    fn wait_until(limit: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + limit;
        while std::time::Instant::now() < deadline {
            if ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        ok()
    }

    /// Two replicas on the real clock (so the expiry monitor runs), one
    /// function, one endpoint with no agent connected.
    fn two_replicas(
        cloud_cfg: CloudConfig,
        heartbeat_timeout_ms: u64,
    ) -> (Federation, gcx_auth::Token, FunctionId, EndpointId) {
        let clock = SystemClock::shared();
        let fed = Federation::with_parts(
            FederationConfig {
                replicas: 2,
                heartbeat_timeout_ms,
            },
            cloud_cfg,
            AuthService::new(clock.clone()),
            Broker::with_profile(
                MetricsRegistry::new(),
                clock.clone(),
                gcx_mq::LinkProfile::instant(),
            ),
            clock,
        );
        let r0 = fed.replica(0).unwrap();
        let token = fed.auth().login("u@x.y").unwrap().1;
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let ep = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap()
            .endpoint_id;
        (fed, token, fid, ep)
    }

    fn spec_owned_by(fed: &Federation, owner: u32, fid: FunctionId, ep: EndpointId) -> TaskSpec {
        loop {
            let s = TaskSpec::new(fid, ep);
            if fed.owner_of(s.task_id.uuid()) == Some(owner) {
                return s;
            }
        }
    }

    fn cancelled(svc: &WebService, id: TaskId) -> bool {
        svc.task_record(id)
            .is_ok_and(|r| r.state == TaskState::Cancelled)
    }

    fn logged_expired(fed: &Federation, replica: u32, id: TaskId) -> bool {
        drain_queue(fed.broker(), &fed_log_queue(ReplicaId(replica)))
            .iter()
            .filter_map(|body| log::TaskLogEntry::decode(body).ok())
            .any(|e| e == log::TaskLogEntry::Expired { task_id: id })
    }

    #[test]
    fn forwarded_deadline_task_expires_at_its_owner() {
        let (fed, token, fid, ep) = two_replicas(CloudConfig::default(), 30_000);
        let r0 = fed.replica(0).unwrap();
        let r1 = fed.replica(1).unwrap();
        // The locally-owned control and the forwarded task, both via r0.
        let mut control = spec_owned_by(&fed, 0, fid, ep);
        control.deadline_ms = Some(50);
        let mut forwarded = spec_owned_by(&fed, 1, fid, ep);
        forwarded.deadline_ms = Some(50);
        let control = r0.submit_task(&token, control).unwrap();
        let forwarded = r0.submit_task(&token, forwarded).unwrap();
        assert!(
            wait_until(Duration::from_secs(1), || cancelled(&r0, control)),
            "control: the locally-owned deadline task must expire"
        );
        assert!(
            wait_until(Duration::from_secs(1), || cancelled(&r1, forwarded)),
            "forwarded deadline task still {:?} at its owner after 1 s",
            r1.task_record(forwarded).map(|r| r.state)
        );
        let rec = r1.task_record(forwarded).unwrap();
        assert!(rec.result.as_ref().is_some_and(TaskResult::is_deadline_err));
        assert!(logged_expired(&fed, 1, forwarded), "no Expired tombstone");
        fed.shutdown();
    }

    #[test]
    fn adopted_deadline_task_expires_at_its_new_owner() {
        let (fed, token, fid, ep) = two_replicas(CloudConfig::default(), 100);
        let r0 = fed.replica(0).unwrap();
        let r1 = fed.replica(1).unwrap();
        let mut spec = spec_owned_by(&fed, 1, fid, ep);
        spec.deadline_ms = Some(400);
        let id = r1.submit_task(&token, spec).unwrap();
        fed.kill(1);
        assert!(
            wait_until(Duration::from_secs(2), || r0.task_record(id).is_ok()),
            "the survivor must adopt the dead owner's task"
        );
        assert!(
            wait_until(Duration::from_millis(1500), || cancelled(&r0, id)),
            "adopted deadline task still {:?} at its new owner",
            r0.task_record(id).map(|r| r.state)
        );
        let rec = r0.task_record(id).unwrap();
        assert!(rec.result.as_ref().is_some_and(TaskResult::is_deadline_err));
        assert!(logged_expired(&fed, 0, id), "no Expired tombstone");
        fed.shutdown();
    }

    #[test]
    fn forwarded_submit_into_a_full_queue_fails_typed() {
        let cfg = CloudConfig {
            task_queue_depth: 2,
            ..CloudConfig::default()
        };
        let (fed, token, fid, ep) = two_replicas(cfg, 30_000);
        let r0 = fed.replica(0).unwrap();
        let r1 = fed.replica(1).unwrap();
        let queue = format!("tasks.{ep}");
        let stream = r0.open_result_stream(&token).unwrap();
        for _ in 0..2 {
            r0.submit_task(&token, spec_owned_by(&fed, 0, fid, ep))
                .unwrap();
        }
        // Control: the local path refuses a third task typed.
        assert!(matches!(
            r0.submit_task(&token, spec_owned_by(&fed, 0, fid, ep)),
            Err(gcx_core::GcxError::QueueFull { .. })
        ));
        // The forwarded path has already said Ok when the owner finds the
        // queue full; the failure must come back as the task's result. Two
        // rounds: the rpc loop keeps serving after the first.
        for round in 0..2 {
            let id = r0
                .submit_task(&token, spec_owned_by(&fed, 1, fid, ep))
                .unwrap();
            assert!(
                wait_until(Duration::from_secs(1), || r1
                    .task_record(id)
                    .is_ok_and(|r| r.state.is_terminal())),
                "round {round}: forwarded task is {:?} at its owner: a live orphan",
                r1.task_record(id).map(|r| r.state)
            );
            let result = r1.task_record(id).unwrap().result.unwrap();
            assert!(result.is_retryable_err(), "{result:?}");
            assert!(
                matches!(&result, TaskResult::Err(e) if e.contains(&queue)),
                "the error must name the queue: {result:?}"
            );
            let d = stream
                .consumer
                .next(Duration::from_secs(1))
                .unwrap()
                .expect("the failure fans out to the submitter's stream");
            let (got, streamed, _) = TaskResult::from_envelope(&d.message.body).unwrap();
            assert_eq!((got, streamed), (id, result));
            stream.consumer.ack(d.tag).unwrap();
            assert_eq!(fed.broker().queue_stats(&queue).unwrap().ready, 2);
        }
        fed.shutdown();
    }

    /// A poison task's queue dead-letters it into the shared result queue;
    /// whichever replica's processor takes it fails it through the ring,
    /// so it fails once, at its owner, and the retryable error reaches the
    /// submitter's stream.
    #[test]
    fn a_poison_task_fails_once_at_its_owner() {
        let fed = Federation::new(2, SystemClock::shared());
        let r0 = fed.replica(0).unwrap();
        let token = fed.auth().login("u@x.y").unwrap().1;
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let stream = r0.open_result_stream(&token).unwrap();
        // Submitted to, and served by, the replica that does not own it.
        let spec = spec_owned_by(&fed, 1, fid, reg.endpoint_id);
        let id = r0.submit_task(&token, spec).unwrap();
        let session = r0
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let t = Duration::from_secs(2);
        for _ in 0..3 {
            let (_, tag) = session.next_task(t).unwrap().expect("within budget");
            session.nack_task(tag).unwrap();
        }
        let d = stream
            .consumer
            .next(t)
            .unwrap()
            .expect("the failure fans out to the submitter's stream");
        let (got, streamed, _) = TaskResult::from_envelope(&d.message.body).unwrap();
        assert_eq!(got, id);
        assert!(streamed.is_retryable_err(), "{streamed:?}");
        stream.consumer.ack(d.tag).unwrap();
        let rec = fed.replica(1).unwrap().task_record(id).unwrap();
        assert_eq!((rec.state, rec.result), (TaskState::Failed, Some(streamed)));
        assert!(matches!(
            r0.task_status(&token, id),
            Err(gcx_core::GcxError::NotOwner { owner: 1 })
        ));
        let m = fed.metrics();
        assert_eq!(m.counter("cloud.tasks_dead_lettered").get(), 1);
        assert_eq!(m.counter("cloud.duplicate_results_dropped").get(), 0);
        assert!(stream
            .consumer
            .next(Duration::from_millis(50))
            .unwrap()
            .is_none());
        fed.shutdown();
    }

    /// `cloud.tasks_resident` counts each record a replica installs, by
    /// either path (a submit at its owner, a carried-over record), when it
    /// is installed. A replica retires nothing, so the gauge never falls:
    /// not as results land, and not on a confirm.
    #[test]
    fn the_resident_gauge_counts_a_replicas_installs_and_never_falls() {
        let fed = Federation::new(3, SystemClock::shared());
        let r0 = fed.replica(0).unwrap();
        let (identity, token) = fed.auth().login("u@x.y").unwrap();
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f():\n    return 1\n"))
            .unwrap();
        let reg = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let resident = fed.metrics().gauge("cloud.tasks_resident");
        let mut ids = Vec::new();
        for owner in 0..3 {
            let specs = (0..4)
                .map(|_| spec_owned_by(&fed, owner, fid, reg.endpoint_id))
                .collect();
            let svc = fed.replica(owner).unwrap();
            ids.extend(svc.submit_batch(&token, specs).unwrap());
            assert_eq!(resident.get(), ids.len() as u64, "counted as installed");
        }
        let session = r0
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let t = Duration::from_secs(2);
        for _ in 0..ids.len() {
            let (spec, tag) = session.next_task(t).unwrap().expect("task delivered");
            session
                .publish_result(spec.task_id, &TaskResult::ok(1.into()))
                .unwrap();
            session.ack_task(tag).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        for id in &ids {
            let owner = fed.replica(fed.owner_of(id.uuid()).unwrap()).unwrap();
            while !owner.task_record(*id).is_ok_and(|r| r.state.is_terminal()) {
                assert!(std::time::Instant::now() < deadline, "{id} never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(resident.get(), 12, "a landing moves nothing");
        }
        for owner in 0..3 {
            let svc = fed.replica(owner).unwrap();
            svc.confirm_taken(&token, &ids).unwrap();
        }
        assert_eq!(resident.get(), 12, "a replica ignores a confirm");
        // A record carried over as it stands (a rebalance's adoption) is
        // one install, however often it is offered.
        let mut carried =
            TaskRecord::new(spec_owned_by(&fed, 1, fid, reg.endpoint_id), identity.id, 0);
        carried.transition(TaskState::Running, 0).unwrap();
        carried.complete(TaskResult::ok(1.into()), 0).unwrap();
        let r1 = fed.replica(1).unwrap();
        r1.fed_adopt_record(carried.clone(), ReplicaId(2), 0, false);
        assert_eq!(resident.get(), 13);
        r1.fed_adopt_record(carried, ReplicaId(2), 0, false);
        assert_eq!(resident.get(), 13);
        fed.shutdown();
        assert_eq!(resident.get(), 0, "stopped replicas hold nothing");
    }
}

/// Replica discovery for SDK clients: which replicas exist, which are
/// live, and a handle to each. Cloning shares the directory.
#[derive(Clone)]
pub struct ReplicaDirectory {
    core: Arc<FedCore>,
    replicas: Arc<RwLock<BTreeMap<ReplicaId, WebService>>>,
    clock: SharedClock,
}

impl ReplicaDirectory {
    /// A handle to replica `r` (even if down — requests to a down replica
    /// fail with [`gcx_core::error::GcxError::ReplicaUnavailable`]).
    pub fn get(&self, r: u32) -> Option<WebService> {
        self.replicas.read().get(&ReplicaId(r)).cloned()
    }

    /// Ids of replicas currently accepting requests.
    pub fn live(&self) -> Vec<u32> {
        let now = self.clock.now_ms();
        let members = self.core.members.read();
        members
            .iter()
            .filter(|(_, m)| !m.down && m.partitioned_until <= now)
            .map(|(r, _)| r.0)
            .collect()
    }

    /// Any live replica's handle (lowest id), for bootstrap.
    pub fn any_live(&self) -> Option<WebService> {
        self.live().first().and_then(|r| self.get(*r))
    }

    /// The next live replica strictly after `r` in ring order (wrapping),
    /// for clients rotating away from a dead or partitioned target.
    pub fn next_live_after(&self, r: u32) -> Option<WebService> {
        let live = self.live();
        if live.is_empty() {
            return None;
        }
        let next = live
            .iter()
            .find(|id| **id > r)
            .or_else(|| live.first())
            .copied()?;
        self.get(next)
    }
}
