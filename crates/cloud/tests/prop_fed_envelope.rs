//! Properties of what replicas send each other and keep in the task log
//! (`gcx_cloud::federation::envelope`), and of the replica that receives it.
//!
//! The codec half: every envelope kind and log entry round-trips, and any
//! damage — a cut at any byte, a flipped bit, plain garbage — is a typed
//! `Codec` refusal, never a panic.
//!
//! The service half plays a peer that lies to an owner (the federation
//! twin of `prop_lying_peer.rs`): a forwarded submit whose body carries a
//! forged hash, a wrong length or a reference-form entry among honest ones
//! must be refused whole — task store, task log, endpoint queue and
//! admission gauge untouched — with the rpc loop still serving the next
//! envelope. It also pins the one routing function from both its call
//! sites (the live rpc loop and the death handover): the hop cap drops and
//! counts, and a batch whose ring moved under it splits per current owner.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use gcx_auth::{AuthPolicy, AuthService};
use gcx_cloud::federation::envelope::{Body, Envelope, Forwarded};
use gcx_cloud::federation::log::{fed_log_queue, fed_rpc_queue, TaskLogEntry, FED_CRED};
use gcx_cloud::{AdmissionConfig, CloudConfig, Federation, FederationConfig, ReplicaId};
use gcx_core::clock::{SharedClock, SystemClock, VirtualClock};
use gcx_core::error::GcxError;
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId, IdentityId, TaskId, Uuid};
use gcx_core::metrics::MetricsRegistry;
use gcx_core::payload::{ContentHash, Payload};
use gcx_core::task::{TaskResult, TaskSpec, TaskState};
use gcx_core::trace::{SpanId, TraceContext, TraceId};
use gcx_core::wire::batch;
use gcx_mq::{Broker, LinkProfile, Message};
use proptest::collection::vec;
use proptest::prelude::*;

// ---- the codec: round trips and damage ------------------------------------

fn uuid() -> impl Strategy<Value = Uuid> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| Uuid(((hi as u128) << 64) | lo as u128))
}

/// Specs with the optional sections of the flat form, payloads on both
/// sides of the ingress copy threshold.
fn spec() -> impl Strategy<Value = TaskSpec> {
    (
        (uuid(), uuid(), uuid()),
        prop_oneof![vec(any::<u8>(), 0..64), vec(any::<u8>(), 1000..1100)],
        prop::option::of((uuid(), 1u64..=u64::MAX)),
        prop::option::of(any::<u64>()),
        any::<i64>(),
    )
        .prop_map(|((t, f, e), payload, trace, deadline_ms, priority)| {
            let mut spec = TaskSpec::new(FunctionId(f), EndpointId(e));
            spec.task_id = TaskId(t);
            spec.payload = Payload::from_vec(payload);
            spec.trace = trace.map(|(id, span)| TraceContext {
                trace_id: TraceId(id),
                parent: SpanId(span),
            });
            spec.deadline_ms = deadline_ms;
            spec.priority = priority;
            spec
        })
}

fn result() -> impl Strategy<Value = TaskResult> {
    prop_oneof![
        vec(any::<u8>(), 0..200).prop_map(|b| TaskResult::Ok(Payload::from_vec(b))),
        "[ -~]{0,60}".prop_map(TaskResult::Err),
    ]
}

fn submit(identity: IdentityId, specs: Vec<TaskSpec>) -> Body {
    let from = Forwarded {
        identity,
        submitted_at: 5,
        forwarded_ms: 7,
    };
    Body::Submit(from, specs)
}

fn envelope() -> impl Strategy<Value = Envelope> {
    use TaskState::*;
    let state = proptest::sample::select(vec![
        Received,
        WaitingForNodes,
        Running,
        Success,
        Failed,
        Cancelled,
    ]);
    let body = prop_oneof![
        (uuid(), vec(spec(), 1..5)).prop_map(|(who, specs)| submit(IdentityId(who), specs)),
        (
            uuid(),
            result(),
            prop::option::of(any::<u64>()),
            any::<u64>()
        )
            .prop_map(|(task, result, sent_ms, retry)| Body::Result {
                task_id: TaskId(task),
                result,
                sent_ms,
                retry,
            }),
        (uuid(), uuid(), state).prop_map(|(task, endpoint, state)| Body::State {
            task_id: TaskId(task),
            endpoint: EndpointId(endpoint),
            state,
        }),
    ];
    (any::<u64>(), any::<u64>(), body).prop_map(|(epoch, hop, body)| Envelope { epoch, hop, body })
}

fn log_entry() -> impl Strategy<Value = TaskLogEntry> {
    prop_oneof![
        (spec(), uuid(), any::<u64>()).prop_map(|(spec, owner, submitted_at)| {
            TaskLogEntry::Open {
                spec: Box::new(spec),
                owner: IdentityId(owner),
                submitted_at,
            }
        }),
        (uuid(), result()).prop_map(|(task, result)| TaskLogEntry::Done {
            task_id: TaskId(task),
            result,
        }),
        uuid().prop_map(|t| TaskLogEntry::Moved { task_id: TaskId(t) }),
        uuid().prop_map(|t| TaskLogEntry::Expired { task_id: TaskId(t) }),
    ]
}

fn is_codec<T>(r: &Result<T, GcxError>) -> bool {
    matches!(r, Err(GcxError::Codec(_)))
}

proptest! {
    #[test]
    fn envelopes_and_log_entries_round_trip(env in envelope(), entry in log_entry()) {
        prop_assert_eq!(Envelope::decode(&env.encode().unwrap()).unwrap(), env);
        prop_assert_eq!(TaskLogEntry::decode(&entry.encode().unwrap()).unwrap(), entry);
    }

    /// Cut anywhere, a message is refused typed. The one honest exception
    /// is a submit cut exactly between two specs: that is a shorter batch.
    #[test]
    fn a_message_cut_at_any_byte_is_refused_typed(env in envelope(), entry in log_entry()) {
        let bytes = env.encode().unwrap();
        for cut in 0..bytes.len() {
            match (Envelope::decode(&bytes.slice(..cut)), &env.body) {
                (Ok(Envelope { body: Body::Submit(_, got), .. }), Body::Submit(_, specs)) => {
                    prop_assert!(!got.is_empty() && got.len() < specs.len());
                    prop_assert_eq!(&got[..], &specs[..got.len()]);
                }
                (other, _) => prop_assert!(is_codec(&other), "cut at {}: {:?}", cut, other),
            }
        }
        let bytes = entry.encode().unwrap();
        for cut in 0..bytes.len() {
            let got = TaskLogEntry::decode(&bytes.slice(..cut));
            prop_assert!(is_codec(&got), "cut at {}: {:?}", cut, got);
        }
    }

    /// A flipped bit either still decodes (it hit a scalar) or is refused
    /// typed; garbage likewise. Neither panics.
    #[test]
    fn bit_flips_and_garbage_never_panic(
        env in envelope(),
        entry in log_entry(),
        pos in any::<usize>(),
        bit in 0u8..8,
        garbage in vec(any::<u8>(), 0..256),
    ) {
        let mut damaged = vec![garbage];
        for honest in [env.encode().unwrap(), entry.encode().unwrap()] {
            let mut bytes = honest.to_vec();
            let at = pos % bytes.len();
            bytes[at] ^= 1 << bit;
            damaged.push(bytes);
        }
        for bytes in damaged.into_iter().map(Bytes::from) {
            let got = Envelope::decode(&bytes);
            prop_assert!(got.is_ok() || is_codec(&got), "{:?}", got);
            let got = TaskLogEntry::decode(&bytes);
            prop_assert!(got.is_ok() || is_codec(&got), "{:?}", got);
        }
    }
}

#[test]
fn a_body_that_is_not_about_its_routing_id_is_refused() {
    let env = Envelope {
        epoch: 1,
        hop: 0,
        body: Body::Result {
            task_id: TaskId::random(),
            result: TaskResult::Err("boom".into()),
            sent_ms: None,
            retry: 0,
        },
    };
    let mut bytes = env.encode().unwrap().to_vec();
    bytes[2] ^= 1; // first byte of the routing task id, after version and kind
    assert!(is_codec(&Envelope::decode(&Bytes::from(bytes))));
    let empty = Envelope {
        body: submit(IdentityId::random(), Vec::new()),
        ..env
    };
    assert!(is_codec(&empty.encode()), "a submit routes by a spec");
}

// ---- the receiving replica -------------------------------------------------

fn wait_until(mut ok: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ok() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

/// A federation with one function and one agent-less endpoint, and the
/// means to put raw bytes on a replica's rpc queue as a peer would.
struct Peer {
    fed: Federation,
    identity: IdentityId,
    fid: FunctionId,
    ep: EndpointId,
}

impl Peer {
    fn new(replicas: usize, clock: SharedClock) -> Self {
        let fed = Federation::with_parts(
            FederationConfig {
                replicas,
                heartbeat_timeout_ms: 1_000,
            },
            CloudConfig {
                // On, and out of the way: only a leaked charge can show.
                admission: AdmissionConfig {
                    enabled: true,
                    rate_per_sec: 1_000_000,
                    burst: 1_000_000,
                    max_inflight: 1_000_000,
                    ..AdmissionConfig::default()
                },
                ..CloudConfig::default()
            },
            AuthService::new(clock.clone()),
            Broker::with_profile(
                MetricsRegistry::new(),
                clock.clone(),
                LinkProfile::instant(),
            ),
            clock,
        );
        let r0 = fed.replica(0).unwrap();
        let (identity, token) = fed.auth().login("peer@test.org").unwrap();
        let fid = r0
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
            .unwrap();
        let ep = r0
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap()
            .endpoint_id;
        Self {
            fed,
            identity: identity.id,
            fid,
            ep,
        }
    }

    /// A spec with `payload` whose task id `owner` owns.
    fn spec(&self, owner: u32, payload: Vec<u8>) -> TaskSpec {
        loop {
            let mut spec = TaskSpec::new(self.fid, self.ep);
            if self.fed.owner_of(spec.task_id.uuid()) == Some(owner) {
                spec.payload = Payload::from_vec(payload);
                return spec;
            }
        }
    }

    /// An honest submit envelope for `specs`, as bytes.
    fn submit(&self, hop: u64, specs: &[TaskSpec]) -> Bytes {
        let env = Envelope {
            epoch: self.fed.epoch(),
            hop,
            body: submit(self.identity, specs.to_vec()),
        };
        env.encode().unwrap()
    }

    fn send(&self, replica: u32, bytes: Bytes) {
        let queue = fed_rpc_queue(ReplicaId(replica));
        let broker = self.fed.broker();
        broker
            .publish(&queue, Message::new(bytes), Some(FED_CRED))
            .unwrap();
    }

    fn holds(&self, replica: u32, id: TaskId) -> bool {
        self.fed.replica(replica).unwrap().task_record(id).is_ok()
    }

    fn published(&self, queue: &str) -> u64 {
        self.fed.broker().queue_stats(queue).unwrap().published
    }

    /// What a refused envelope must leave untouched at `replica`: its task
    /// log, the endpoint's queue, and the admission gauge.
    fn footprint(&self, replica: u32) -> (u64, u64, u64) {
        (
            self.published(&fed_log_queue(ReplicaId(replica))),
            self.published(&format!("tasks.{}", self.ep)),
            self.fed.metrics().gauge("cloud.admission_inflight").get(),
        )
    }
}

/// How the peer lies about the victim entry of its batch.
#[derive(Debug, Clone)]
enum Lie {
    /// The carried hash is not the hash of the carried bytes.
    Hash { flip: u128 },
    /// The payload length field disagrees with the bytes that follow.
    PayloadLen { delta: i8 },
    /// Hash and length only — the form the service sends endpoints, which
    /// no replica may send another.
    Reference,
}

fn lie() -> impl Strategy<Value = Lie> {
    prop_oneof![
        (any::<u64>(), 1u64..=u64::MAX).prop_map(|(hi, lo)| Lie::Hash {
            flip: ((hi as u128) << 64) | lo as u128
        }),
        prop_oneof![-100i8..=-1, 1i8..=100].prop_map(|delta| Lie::PayloadLen { delta }),
        Just(Lie::Reference),
    ]
}

/// Offset of the one-byte payload length inside a packed entry of a plain
/// spec (no optional sections, payload under 128 bytes): u32 prefix,
/// version, three uuids, flags, content hash.
const PAYLOAD_LEN_AT: usize = 4 + 1 + 48 + 1 + 16;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_lying_forward_is_refused_whole_and_leaves_nothing_behind(
        before in vec(vec(any::<u8>(), 1..100), 0..3),
        victim in vec(any::<u8>(), 1..100),
        after in vec(vec(any::<u8>(), 1..100), 0..3),
        lie in lie(),
    ) {
        // One federation shared by every case: a lie must not cost the
        // *next* envelope anything either.
        const OWNER: u32 = 1;
        static PEER: OnceLock<Mutex<Peer>> = OnceLock::new();
        let peer = PEER.get_or_init(|| Mutex::new(Peer::new(2, SystemClock::shared())));
        let peer = peer.lock().unwrap_or_else(|e| e.into_inner());

        let honest = |payloads: Vec<Vec<u8>>| -> Vec<TaskSpec> {
            payloads.into_iter().map(|p| peer.spec(OWNER, p)).collect()
        };
        let (before, victim, after) = (honest(before), peer.spec(OWNER, victim), honest(after));
        let mut entry = batch::pack_specs(std::slice::from_ref(&victim)).unwrap();
        match lie {
            Lie::Hash { flip } => {
                let mut spec = victim.clone();
                let forged = ContentHash(spec.payload.hash().0 ^ flip);
                spec.payload = Payload::from_parts_unchecked(spec.payload.bytes().clone(), forged);
                entry = batch::pack_specs(&[spec]).unwrap();
            }
            Lie::PayloadLen { delta } => {
                let len = entry[PAYLOAD_LEN_AT];
                prop_assert_eq!(len as usize, victim.payload.len());
                // Stay a one-byte varint, and stay a lie.
                let lied = (len as i16 + delta as i16).clamp(0, 127) as u8;
                entry[PAYLOAD_LEN_AT] = if lied == len { len ^ 1 } else { lied };
            }
            Lie::Reference => {
                let msg = victim.to_message(false);
                entry = (msg.len() as u32).to_be_bytes().to_vec();
                entry.extend_from_slice(&msg);
            }
        }
        // An honest header (routed by the batch's first task) in front of
        // the forged body.
        let all: Vec<TaskSpec> = before.iter().chain([&victim]).chain(&after).cloned().collect();
        let whole = peer.submit(0, &all);
        let header = whole.len() - batch::pack_specs(&all).unwrap().len();
        let mut bytes = whole[..header].to_vec();
        bytes.extend_from_slice(&batch::pack_specs(&before).unwrap());
        bytes.extend_from_slice(&entry);
        bytes.extend_from_slice(&batch::pack_specs(&after).unwrap());
        let bytes = Bytes::from(bytes);
        let refusal = Envelope::decode(&bytes);
        prop_assert!(is_codec(&refusal), "{:?} must be a typed refusal, got {:?}", lie, refusal);

        // The owner's rpc queue is served in order by one loop: once the
        // honest marker behind the lie has landed, the lie has been handled.
        // Landed means published to the endpoint's queue: the record is
        // installed (and the log appended) before the task ships.
        let (log, queue, gauge) = peer.footprint(OWNER);
        let marker = peer.spec(OWNER, vec![7]);
        peer.send(OWNER, bytes);
        peer.send(OWNER, peer.submit(0, std::slice::from_ref(&marker)));
        prop_assert!(
            wait_until(|| peer.holds(OWNER, marker.task_id) && peer.footprint(OWNER).1 > queue),
            "the rpc loop stopped serving after {:?}", lie
        );
        for spec in &all {
            let id = spec.task_id;
            prop_assert!(!peer.holds(OWNER, id) && !peer.holds(0, id), "a refused batch installed {id}");
        }
        prop_assert_eq!(peer.footprint(OWNER), (log + 1, queue + 1, gauge), "only the marker may show");
    }
}

/// The hop cap, reached from the live rpc loop: an envelope that has one
/// hop left is passed on, one that has none is dropped and counted.
#[test]
fn the_hop_cap_drops_and_counts_in_the_rpc_loop() {
    let peer = Peer::new(2, VirtualClock::new());
    let max = gcx_cloud::federation::MAX_FORWARD_HOPS;
    let (last_hop, too_far) = (peer.spec(1, vec![1]), peer.spec(1, vec![2]));
    // Both reach replica 0, which owns neither.
    peer.send(0, peer.submit(max, std::slice::from_ref(&too_far)));
    peer.send(0, peer.submit(max - 1, std::slice::from_ref(&last_hop)));
    assert!(
        wait_until(|| peer.holds(1, last_hop.task_id)),
        "an envelope with a hop left must reach its owner"
    );
    assert_eq!(peer.fed.metrics().counter("fed.hops_exhausted").get(), 1);
    assert!(!peer.holds(1, too_far.task_id) && !peer.holds(0, too_far.task_id));
    peer.fed.shutdown();
}

/// The same cap, reached from the death handover re-routing a dead
/// replica's pending envelopes.
#[test]
fn the_hop_cap_drops_and_counts_in_the_handover() {
    let vclock = VirtualClock::new();
    let peer = Peer::new(2, vclock.clone());
    let max = gcx_cloud::federation::MAX_FORWARD_HOPS;
    let (rescued, too_far) = (peer.spec(1, vec![1]), peer.spec(1, vec![2]));
    peer.fed.kill(1); // its rpc loop is gone: what we send now stays queued
    peer.send(1, peer.submit(max, std::slice::from_ref(&too_far)));
    peer.send(1, peer.submit(0, std::slice::from_ref(&rescued)));
    vclock.advance(1_500);
    peer.fed.heartbeat_all();
    assert_eq!(peer.fed.check_replicas(), 1, "replica 1 must be found dead");
    assert!(
        wait_until(|| peer.holds(0, rescued.task_id)),
        "the survivor must receive the re-routed envelope"
    );
    let m = peer.fed.metrics();
    assert_eq!(m.counter("fed.hops_exhausted").get(), 1);
    assert_eq!(m.counter("fed.envelopes_rerouted").get(), 1);
    assert!(!peer.holds(0, too_far.task_id));
    peer.fed.shutdown();
}

/// A forwarded batch reaches a replica after the ring moved under it: the
/// receiver keeps what it owns and sends the rest on, one envelope per
/// current owner.
#[test]
fn a_batch_whose_ring_moved_is_split_per_current_owner() {
    let peer = Peer::new(3, VirtualClock::new());
    let specs: Vec<TaskSpec> = [0, 1, 2, 1, 2, 0, 2]
        .iter()
        .map(|owner| peer.spec(*owner, vec![*owner as u8]))
        .collect();
    let sent = |r| peer.published(&fed_rpc_queue(ReplicaId(r)));
    let before = [sent(0), sent(1), sent(2)];
    peer.send(0, peer.submit(0, &specs));
    for spec in &specs {
        let owner = peer.fed.owner_of(spec.task_id.uuid()).unwrap();
        assert!(
            wait_until(|| peer.holds(owner, spec.task_id)),
            "task {} never reached replica {owner}",
            spec.task_id
        );
    }
    assert_eq!(
        [sent(0), sent(1), sent(2)],
        [before[0] + 1, before[1] + 1, before[2] + 1],
        "ours, then one envelope per other owner — not one per task"
    );
    // Counted once `fed_ingest` returns, after the records appear.
    let m = peer.fed.metrics();
    let ingested = m.counter("fed.submits_ingested");
    assert!(
        wait_until(|| ingested.get() == specs.len() as u64),
        "{} of {} ingested",
        ingested.get(),
        specs.len()
    );
    assert_eq!(m.counter("fed.hops_exhausted").get(), 0);
    peer.fed.shutdown();
}
