//! Property test for the wire's trust boundary: a peer that lies.
//!
//! Inside the service a payload's content hash is trusted — a reference
//! resolves to the task record's payload by it, queues ship it in place of
//! the bytes. That trust is established exactly once, where bytes enter
//! from a peer: the wire server
//! recomputes each inline payload's hash on `submit_batch` ingress. This
//! suite plays a client that handshakes honestly and then sends submit
//! bodies that are wrong in every way a flat body can be — a forged hash, a
//! forged payload length, a forged entry length, a body cut mid-entry, a
//! by-reference body (hash, no bytes) — each hidden in a batch with honest
//! neighbours. Every one must come back as a typed `Codec` refusal of the
//! whole batch, with no task record installed (least of all the one
//! carrying the forged hash), no task accepted, no admission charge left
//! behind, and
//! the connection — whose server thread must not have panicked — still
//! serving the honest request that follows.
//!
//! The same client may also say which results it holds (`Confirm`). That
//! claim is checked where it is acted on: a record is retired only if it is
//! the confirming identity's and terminal, so a confirm naming someone
//! else's results, the peer's own unfinished task or ids nobody submitted
//! retires nothing; a body that is not whole ids drops that connection and
//! no other.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gcx_auth::{AuthPolicy, AuthService, Token};
use gcx_cloud::{AdmissionConfig, CloudConfig, EndpointSession, WebService, WireServer};
use gcx_config::TransportSpec;
use gcx_core::clock::SystemClock;
use gcx_core::error::GcxError;
use gcx_core::function::FunctionBody;
use gcx_core::ids::{EndpointId, FunctionId, TaskId};
use gcx_core::payload::{ContentHash, Payload};
use gcx_core::task::{TaskResult, TaskSpec};
use gcx_core::value::Value;
use gcx_core::wire::{batch, error_from_value, Frame, FrameType, InMemTransport, Transport};
use gcx_mq::Broker;
use proptest::collection::vec;
use proptest::prelude::*;

/// One service, one wire server, one honest-looking connection, shared by
/// every case: a lie must not cost the *next* request anything either.
struct Peer {
    svc: WebService,
    server: WireServer,
    transport: Arc<InMemTransport>,
    token: Token,
    fid: FunctionId,
    ep: EndpointId,
    corr: u64,
}

impl Peer {
    fn new() -> Self {
        let clock = SystemClock::shared();
        let svc = WebService::new(
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
            Broker::new(),
            clock,
        );
        let (_, token) = svc.auth().login("liar@test.org").unwrap();
        let fid = svc
            .register_function(&token, FunctionBody::pyfn("def f(x):\n    return x\n"))
            .unwrap();
        let reg = svc
            .register_endpoint(&token, "ep", false, AuthPolicy::open(), None)
            .unwrap();
        let server = WireServer::inmem(
            &svc,
            TransportSpec {
                idle_timeout_ms: 3_600_000,
                ..TransportSpec::default()
            },
        );
        let transport = handshake(&server, &token);
        Peer {
            svc,
            server,
            transport,
            token,
            fid,
            ep: reg.endpoint_id,
            corr: 0,
        }
    }

    /// An honest packed body carrying one spec per payload.
    fn honest(&self, payloads: &[Vec<u8>]) -> Vec<u8> {
        let specs: Vec<TaskSpec> = payloads.iter().map(|p| self.spec(p.clone())).collect();
        batch::pack_specs(&specs).unwrap()
    }

    fn spec(&self, payload: Vec<u8>) -> TaskSpec {
        let mut spec = TaskSpec::new(self.fid, self.ep);
        spec.payload = Payload::from_vec(payload);
        spec
    }

    /// Send `body` as a `submit_batch` request; the `ok` value or the typed
    /// error of the response.
    fn submit(&mut self, body: Vec<u8>) -> Result<Value, GcxError> {
        self.corr += 1;
        self.transport
            .send(&Frame::request(
                self.corr,
                "submit_batch",
                Value::Bytes(body),
            ))
            .unwrap();
        let resp = self
            .transport
            .recv(Duration::from_secs(5))
            .expect("connection must survive")
            .expect("server must answer");
        assert_eq!(resp.frame_type, FrameType::Response);
        assert_eq!(resp.corr_id, self.corr);
        match (resp.payload.get("ok"), resp.payload.get("err")) {
            (Some(ok), _) => Ok(ok.clone()),
            (_, Some(err)) => Err(error_from_value(err)),
            _ => panic!("response with neither ok nor err"),
        }
    }

    /// What a refused batch must leave untouched.
    fn footprint(&self) -> (u64, u64, u64) {
        let m = self.svc.metrics();
        (
            m.gauge("cloud.tasks_resident").get(),
            m.counter("cloud.tasks_submitted").get(),
            m.gauge("cloud.admission_inflight").get(),
        )
    }
}

/// A connection to `server` whose handshake is done by hand, so nothing
/// but the test ever writes on it.
fn handshake(server: &WireServer, token: &Token) -> Arc<InMemTransport> {
    let transport = server.connect_inmem();
    transport.send(&Frame::hello(token.0.clone())).unwrap();
    let ack = transport.recv(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(ack.frame_type, FrameType::HelloAck);
    transport
}

fn peer() -> &'static Mutex<Peer> {
    static PEER: OnceLock<Mutex<Peer>> = OnceLock::new();
    PEER.get_or_init(|| Mutex::new(Peer::new()))
}

/// How the peer lies about the victim entry of its batch.
#[derive(Debug, Clone)]
enum Lie {
    /// The carried hash is not the hash of the carried bytes.
    Hash { flip: u128 },
    /// The payload length field disagrees with the bytes that follow.
    PayloadLen { delta: i8 },
    /// The entry's u32 length prefix disagrees with the message.
    EntryLen { delta: i8 },
    /// The body ends inside the victim entry.
    Truncated { cut: usize },
    /// Hash and length only — the form the service sends endpoints, which
    /// no client may send it.
    Reference,
}

fn lie_strategy() -> impl Strategy<Value = Lie> {
    prop_oneof![
        (any::<u64>(), 1u64..=u64::MAX).prop_map(|(hi, lo)| Lie::Hash {
            flip: ((hi as u128) << 64) | lo as u128
        }),
        prop_oneof![-100i8..=-1, 1i8..=100].prop_map(|delta| Lie::PayloadLen { delta }),
        prop_oneof![-60i8..=-1, 1i8..=100].prop_map(|delta| Lie::EntryLen { delta }),
        any::<usize>().prop_map(|cut| Lie::Truncated { cut }),
        Just(Lie::Reference),
    ]
}

/// Offset of the one-byte payload length inside a packed entry of a plain
/// spec (no optional sections, payload under 128 bytes): u32 prefix,
/// version, three uuids, flags, content hash.
const PAYLOAD_LEN_AT: usize = 4 + 1 + 48 + 1 + 16;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn forged_submit_bodies_are_refused_whole_and_leave_nothing_behind(
        before in vec(vec(any::<u8>(), 1..100), 0..3),
        victim in vec(any::<u8>(), 1..100),
        after in vec(vec(any::<u8>(), 1..100), 0..3),
        lie in lie_strategy(),
    ) {
        let mut peer = peer().lock().unwrap_or_else(|e| e.into_inner());
        let mut entry = batch::pack_specs(&[peer.spec(victim.clone())]).unwrap();
        let mut forged_task = None;
        let mut tail = peer.honest(&after);
        match lie {
            Lie::Hash { flip } => {
                let mut spec = peer.spec(victim.clone());
                let forged = ContentHash(spec.payload.hash().0 ^ flip);
                spec.payload = Payload::from_parts_unchecked(spec.payload.bytes().clone(), forged);
                forged_task = Some(spec.task_id);
                entry = batch::pack_specs(&[spec]).unwrap();
            }
            Lie::PayloadLen { delta } => {
                let len = entry[PAYLOAD_LEN_AT];
                prop_assert_eq!(len as usize, victim.len());
                // Stay a one-byte varint, and stay a lie.
                let lied = (len as i16 + delta as i16).clamp(0, 127) as u8;
                entry[PAYLOAD_LEN_AT] = if lied == len { len ^ 1 } else { lied };
            }
            Lie::EntryLen { delta } => {
                let len = u32::from_be_bytes(entry[..4].try_into().unwrap());
                let lied = (len as i64 + delta as i64) as u32;
                entry[..4].copy_from_slice(&lied.to_be_bytes());
            }
            Lie::Truncated { cut } => {
                // Strictly inside the entry: a cut on a boundary is an
                // honest, shorter batch.
                entry.truncate(1 + cut % (entry.len() - 1));
                tail.clear();
            }
            Lie::Reference => {
                let msg = peer.spec(victim.clone()).to_message(false);
                entry = (msg.len() as u32).to_be_bytes().to_vec();
                entry.extend_from_slice(&msg);
            }
        }
        let mut body = peer.honest(&before);
        body.extend_from_slice(&entry);
        body.extend_from_slice(&tail);

        let untouched = peer.footprint();
        let refusal = peer.submit(body);
        prop_assert!(
            matches!(refusal, Err(GcxError::Codec(_))),
            "{lie:?} must be refused with a typed Codec error, got {refusal:?}"
        );
        prop_assert_eq!(peer.footprint(), untouched, "a refused batch left something behind");
        if let Some(forged) = forged_task {
            prop_assert!(peer.svc.task_record(forged).is_err(), "record installed under a forged hash");
        }

        // The same connection still serves an honest client.
        let honest = peer.honest(&[victim]);
        let ok = peer.submit(honest).expect("honest submit after a lie");
        let Value::Bytes(ids) = ok else { panic!("ids must be packed bytes") };
        prop_assert_eq!(batch::unpack_ids(&ids).unwrap().len(), 1);
        prop_assert_eq!(peer.footprint().0, untouched.0 + 1);
        prop_assert_eq!(peer.footprint().1, untouched.1 + 1);
        prop_assert_eq!(peer.footprint().2, untouched.2 + 1);
    }
}

fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// The confirm cases' service: a [`Peer`] whose endpoint nobody serves
/// (its tasks stay open), one more endpoint served task by task, and a
/// second identity with finished tasks of its own.
struct Confirmer {
    peer: Peer,
    served: EndpointId,
    session: EndpointSession,
    victim: Token,
    victim_fid: FunctionId,
}

impl Confirmer {
    fn new() -> Self {
        let peer = Peer::new();
        let svc = &peer.svc;
        let reg = svc
            .register_endpoint(&peer.token, "served", false, AuthPolicy::open(), None)
            .unwrap();
        let session = svc
            .connect_endpoint(reg.endpoint_id, &reg.queue_credential)
            .unwrap();
        let (_, victim) = svc.auth().login("victim@test.org").unwrap();
        let victim_fid = svc
            .register_function(&victim, FunctionBody::pyfn("def g():\n    return 2\n"))
            .unwrap();
        Self {
            served: reg.endpoint_id,
            session,
            victim,
            victim_fid,
            peer,
        }
    }

    /// A task of `token`'s, run to its terminal state.
    fn finished(&self, token: &Token, fid: FunctionId) -> TaskId {
        let svc = &self.peer.svc;
        let id = svc
            .submit_task(token, TaskSpec::new(fid, self.served))
            .unwrap();
        let (spec, tag) = self
            .session
            .next_task(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(spec.task_id, id);
        self.session
            .publish_result(id, &TaskResult::ok(Value::Int(1)))
            .unwrap();
        self.session.ack_task(tag).unwrap();
        assert!(wait_until(|| svc
            .task_record(id)
            .is_ok_and(|r| r.state.is_terminal())));
        id
    }

    fn confirm(&self, body: Value) {
        let frame = Frame::new(FrameType::Confirm, 0, body);
        self.peer.transport.send(&frame).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn a_lying_confirm_retires_only_the_peers_own_results(
        theirs in 0usize..4,
        own_open in any::<bool>(),
        unknown in 0usize..4,
        at in any::<usize>(),
    ) {
        static CONFIRMER: OnceLock<Mutex<Confirmer>> = OnceLock::new();
        let c = CONFIRMER.get_or_init(|| Mutex::new(Confirmer::new()));
        let c = c.lock().unwrap_or_else(|e| e.into_inner());
        let svc = &c.peer.svc;

        // Somebody else's finished tasks, and the peer's own open one.
        let mut held: Vec<TaskId> = (0..theirs)
            .map(|_| c.finished(&c.victim, c.victim_fid))
            .collect();
        if own_open {
            let open = TaskSpec::new(c.peer.fid, c.peer.ep);
            held.push(svc.submit_task(&c.peer.token, open).unwrap());
        }
        let mut named = held.clone();
        named.extend((0..unknown).map(|_| TaskId::random()));
        // One true claim among the lies: the peer's own finished task.
        let mine = c.finished(&c.peer.token, c.peer.fid);
        named.insert(at % (named.len() + 1), mine);

        let inflight = svc.metrics().gauge("cloud.admission_inflight");
        let charged = inflight.get();
        c.confirm(Value::Bytes(batch::pack_ids(&named)));
        // One body is retired in one pass: once the true claim is gone,
        // every lie beside it has been judged.
        prop_assert!(
            wait_until(|| matches!(svc.task_record(mine), Err(GcxError::TaskNotFound(_)))),
            "the peer's own result was never retired"
        );
        for id in &held {
            prop_assert!(svc.task_record(*id).is_ok(), "a lying confirm retired {id}");
        }
        prop_assert_eq!(inflight.get(), charged, "a confirm moved the admission gauge");
    }
}

/// A confirm body that is not whole ids is a protocol violation: that
/// connection is dropped, the flight recorder says why, and every other
/// connection is still served.
#[test]
fn a_malformed_confirm_drops_only_its_own_connection() {
    let mut peer = Peer::new();
    let bodies = [
        Value::Bytes(vec![0u8; 17]),
        Value::Bytes(vec![0u8; 15]),
        Value::Int(16),
    ];
    for body in &bodies {
        let liar = handshake(&peer.server, &peer.token);
        let open = peer.server.conn_count();
        liar.send(&Frame::new(FrameType::Confirm, 0, body.clone()))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match liar.recv(Duration::from_millis(50)) {
                Err(_) => break,
                Ok(None) => assert!(Instant::now() < deadline, "{body:?}: still open"),
                Ok(Some(frame)) => panic!("{body:?}: the server answered {frame:?}"),
            }
        }
        assert!(wait_until(|| peer.server.conn_count() == open - 1));
        // The peer's own connection still serves an honest submit.
        let honest = peer.honest(&[vec![1, 2, 3]]);
        assert!(peer.submit(honest).is_ok(), "{body:?} cost a bystander");
    }
    let violations = peer
        .svc
        .metrics()
        .flight()
        .events()
        .into_iter()
        .filter(|e| e.event == "protocol_violation")
        .count();
    assert_eq!(violations, bodies.len());
    peer.server.shutdown();
    peer.svc.shutdown();
}
