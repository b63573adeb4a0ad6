//! The engine hand-offs are event-driven: a task submitted to an idle
//! engine is seen by the `exec_core` driver when it is sent, and its
//! `Finished` when the worker reports it — neither waits for a timer.
//!
//! A driver that sleeps between looks at its channel cannot pass: a lone
//! task then pays the sleep once on `Submit` (half of it on average) and
//! again, in full, on `Finished`, which always lands just after the driver
//! went back to sleep — with a 500 µs sleep that is a floor of 500 µs per
//! task, twice the bound asserted here.
//!
//! The broker hop is held to the same standard: a waiter yields once before
//! it parks, and that yield must not show on an idle system.

use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver};
use gcx_core::clock::SystemClock;
use gcx_core::function::{FunctionBody, FunctionRecord};
use gcx_core::ids::{EndpointId, FunctionId, IdentityId};
use gcx_core::task::TaskSpec;
use gcx_core::value::Value;
use gcx_endpoint::agent::build_engine;
use gcx_endpoint::{AgentEnv, EndpointConfig, EngineEvent, ExecutableTask};
use gcx_mq::{Broker, Message};

const TASKS: usize = 200;
const BOUND: Duration = Duration::from_micros(250);
const BROKER_BOUND: Duration = Duration::from_micros(150);

fn wait_done(events: &Receiver<EngineEvent>) {
    loop {
        match events.recv_timeout(Duration::from_secs(30)) {
            Ok(EngineEvent::Done { .. }) => return,
            Ok(_) => {}
            Err(_) => panic!("a task never finished"),
        }
    }
}

/// Median `submit` → `Done` of [`TASKS`] single tasks, each submitted to
/// the engine only after the one before it finished.
fn median_idle_task(engine_yaml: &str) -> Duration {
    let config = EndpointConfig::from_yaml(engine_yaml).unwrap();
    let (tx, events) = unbounded();
    let mut engine = build_engine(&config, &AgentEnv::local(SystemClock::shared()), tx).unwrap();
    let function = FunctionRecord {
        id: FunctionId::random(),
        owner: IdentityId::random(),
        body: FunctionBody::pyfn("def f(x):\n    return x\n"),
        registered_at: 0,
    };
    let task = |tag: u64| {
        let mut spec = TaskSpec::new(function.id, EndpointId::random());
        spec.set_args(vec![Value::Int(tag as i64)], Value::None);
        ExecutableTask {
            spec,
            function: function.clone(),
            tag,
        }
    };
    // The first task waits for the provider's block: warm-up, not a sample.
    engine.submit(task(0)).unwrap();
    wait_done(&events);
    let mut took: Vec<Duration> = (1..=TASKS as u64)
        .map(|tag| {
            let t = task(tag);
            let from = Instant::now();
            engine.submit(t).unwrap();
            wait_done(&events);
            from.elapsed()
        })
        .collect();
    engine.shutdown();
    took.sort_unstable();
    took[TASKS / 2]
}

/// Median `publish` → delivery of [`TASKS`] single messages to a consumer
/// parked in `next`: the broker hop is one condvar wake, and the yield a
/// consumer makes before it parks is over long before the next publish.
fn median_publish_to_parked_consumer() -> Duration {
    let broker = Broker::new();
    broker.declare_queue("q", None).unwrap();
    let (tx, delivered) = unbounded();
    let mut took: Vec<Duration> = std::thread::scope(|s| {
        s.spawn(|| {
            let consumer = broker.consume("q", None, 1).unwrap();
            while let Ok(Some(d)) = consumer.next(Duration::from_secs(30)) {
                tx.send(Instant::now()).unwrap();
                consumer.ack(d.tag).unwrap();
            }
        });
        let took = (0..TASKS)
            .map(|_| {
                // Let the consumer run dry and park.
                std::thread::sleep(Duration::from_millis(1));
                let from = Instant::now();
                broker.publish("q", Message::new("m".into()), None).unwrap();
                let at = delivered.recv_timeout(Duration::from_secs(30)).unwrap();
                at.saturating_duration_since(from)
            })
            .collect();
        broker.delete_queue("q").unwrap();
        took
    });
    took.sort_unstable();
    took[TASKS / 2]
}

/// One test, so the hops are timed one after the other.
#[test]
fn a_task_on_an_idle_engine_waits_for_no_timer() {
    let median = median_publish_to_parked_consumer();
    assert!(
        median < BROKER_BOUND,
        "median publish -> delivery {median:?} to a parked consumer, expected < {BROKER_BOUND:?}"
    );
    for yaml in [
        "engine:\n  type: ThreadEngine\n  workers: 2\n",
        "engine:\n  type: GlobusComputeEngine\n  workers_per_node: 2\n",
    ] {
        let median = median_idle_task(yaml);
        assert!(
            median < BOUND,
            "median submit -> Done {median:?} on an idle engine, expected < {BOUND:?}: {yaml}"
        );
    }
}
