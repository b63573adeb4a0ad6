//! Property-based tests for the broker's delivery guarantees.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use gcx_mq::{Broker, Message, QueuePolicy, QueueStats};
use proptest::prelude::*;

/// What `requeue_entry_points_agree` compares: the ready queue, head first,
/// as (body, delivery count, redelivered), and the dead-lettered bodies.
type Returned = (Vec<(Bytes, u32, bool)>, Vec<Bytes>);

/// What `a_take_is_the_singles_take` compares: every delivery in order as
/// (body, redelivered, delivery count); then both queues' stats, less the
/// poll stamp; then every counter and gauge.
type Drained = (
    Vec<(Bytes, bool, u32)>,
    Vec<QueueStats>,
    BTreeMap<String, u64>,
    BTreeMap<String, u64>,
);

/// Publish `n_msgs` messages and drain them in rounds: a consumer with
/// `prefetch` takes `ks[round]` (cycled) as one `next_batch` (`batched`) or
/// as up to that many `next` calls, then acts on each delivery by `script`
/// (cycled): 0 = ack, 1 = nack, 2 = hold, 3 = hold and drop the consumer
/// after the round (a fresh one takes over). Stops at an empty take.
fn drain(
    batched: bool,
    n_msgs: usize,
    budget: u32,
    prefetch: usize,
    ks: &[usize],
    script: &[u8],
) -> Drained {
    const ROUNDS: usize = 64;
    let broker = Broker::new();
    broker.declare_queue("q", None).unwrap();
    broker.declare_queue("dead", None).unwrap();
    broker
        .set_queue_policy("q", QueuePolicy::dead_letter(budget, "dead"))
        .unwrap();
    for i in 0..n_msgs {
        let body = Bytes::from(format!("m{i}"));
        broker.publish("q", Message::new(body), None).unwrap();
    }
    let mut consumer = broker.consume("q", None, prefetch).unwrap();
    let (mut seen, mut taken, mut step) = (Vec::new(), Vec::new(), 0);
    for round in 0..ROUNDS {
        let k = ks[round % ks.len()];
        if batched {
            consumer.next_batch(Duration::ZERO, k, &mut taken).unwrap();
        } else {
            let singles = (0..k).map_while(|_| consumer.next(Duration::ZERO).unwrap());
            taken.extend(singles);
        }
        if taken.is_empty() {
            break;
        }
        let mut crash = false;
        for d in taken.drain(..) {
            let m = &d.message;
            seen.push((m.body.clone(), m.redelivered, m.delivery_count));
            match script[step % script.len()] {
                0 => consumer.ack(d.tag).unwrap(),
                1 => consumer.nack(d.tag).unwrap(),
                2 => {}
                _ => crash = true,
            }
            step += 1;
        }
        if crash {
            consumer = broker.consume("q", None, prefetch).unwrap();
        }
    }
    drop(consumer);
    let stats = ["q", "dead"].map(|q| QueueStats {
        last_poll_ms: 0,
        ..broker.queue_stats(q).unwrap()
    });
    let m = broker.metrics();
    (seen, stats.into(), m.counter_snapshot(), m.gauge_snapshot())
}

/// Deliver `n_msgs` messages to one consumer that follows `script` (0 = hold,
/// 1 = ack, 2 = nack and take it again; hold once the script runs out), then
/// put what it holds back through
/// entry point `how`: 0 = `nack` each, newest first; 1 = drop the consumer;
/// 2 = `recover_queue`.
fn hold_then_return(how: u8, n_msgs: usize, budget: u32, script: &[u8]) -> Returned {
    // One thread, nothing in flight: what is not ready now never will be.
    let wait = Duration::ZERO;
    let broker = Broker::new();
    broker.declare_queue("q", None).unwrap();
    broker.declare_queue("dead", None).unwrap();
    broker
        .set_queue_policy("q", QueuePolicy::dead_letter(budget, "dead"))
        .unwrap();
    for i in 0..n_msgs {
        let body = Bytes::from(format!("m{i}"));
        broker.publish("q", Message::new(body), None).unwrap();
    }
    let consumer = broker.consume("q", None, 0).unwrap();
    let mut held = Vec::new();
    let mut script = script.iter();
    while let Some(d) = consumer.next(wait).unwrap() {
        match script.next().unwrap_or(&0) {
            0 => held.push(d.tag),
            1 => consumer.ack(d.tag).unwrap(),
            _ => consumer.nack(d.tag).unwrap(),
        }
    }
    match how {
        0 => held
            .iter()
            .rev()
            .for_each(|tag| consumer.nack(*tag).unwrap()),
        1 => drop(consumer),
        _ => {
            broker.recover_queue("q").unwrap();
        }
    }
    let drain = |queue: &str| {
        let reader = broker.consume(queue, None, 0).unwrap();
        let mut seen = Vec::new();
        while let Some(d) = reader.next(wait).unwrap() {
            reader.ack(d.tag).unwrap();
            seen.push(d.message);
        }
        seen
    };
    let ready = drain("q").into_iter();
    let mut dead: Vec<Bytes> = drain("dead").into_iter().map(|m| m.body).collect();
    dead.sort_by(|a, b| a[..].cmp(&b[..]));
    let ready = ready.map(|m| (m.body, m.delivery_count, m.redelivered));
    (ready.collect(), dead)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Acked messages are delivered exactly once, in FIFO order, for any
    /// payload set — single consumer.
    #[test]
    fn fifo_exactly_once(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..40)) {
        let broker = Broker::new();
        broker.declare_queue("q", None).unwrap();
        for p in &payloads {
            broker.publish("q", Message::new(Bytes::from(p.clone())), None).unwrap();
        }
        let consumer = broker.consume("q", None, 0).unwrap();
        let mut seen = Vec::new();
        while let Some(d) = consumer.next(Duration::from_millis(100)).unwrap() {
            seen.push(d.message.body.to_vec());
            consumer.ack(d.tag).unwrap();
        }
        prop_assert_eq!(seen, payloads);
        let stats = broker.queue_stats("q").unwrap();
        prop_assert_eq!(stats.ready, 0);
        prop_assert_eq!(stats.unacked, 0);
    }

    /// Under a random interleaving of acks, nacks, and consumer crashes,
    /// every message is eventually delivered and acked exactly once
    /// (at-least-once delivery + idempotent consumption = no loss).
    #[test]
    fn no_loss_under_nacks_and_crashes(
        n_msgs in 1usize..30,
        // For each message-processing step: 0=ack, 1=nack-then-ack, 2=crash consumer.
        script in prop::collection::vec(0u8..3, 1..60),
    ) {
        let broker = Broker::new();
        broker.declare_queue("q", None).unwrap();
        for i in 0..n_msgs {
            broker.publish("q", Message::new(Bytes::from(format!("m{i}"))), None).unwrap();
        }

        let mut acked: BTreeMap<String, u32> = BTreeMap::new();
        let mut step = 0usize;
        // An all-nack/all-crash script would loop forever; bound the chaos
        // phase, then drain with plain acks.
        let max_steps = (n_msgs + script.len()) * 4;
        let mut consumer = broker.consume("q", None, 0).unwrap();
        while step < max_steps {
            match consumer.next(Duration::from_millis(50)).unwrap() {
                None => break,
                Some(d) => {
                    let body = String::from_utf8(d.message.body.to_vec()).unwrap();
                    match script[step % script.len()] {
                        0 => {
                            consumer.ack(d.tag).unwrap();
                            *acked.entry(body).or_insert(0) += 1;
                        }
                        1 => {
                            consumer.nack(d.tag).unwrap(); // comes back redelivered
                        }
                        _ => {
                            // Crash: drop the consumer with the delivery unacked.
                            drop(consumer);
                            consumer = broker.consume("q", None, 0).unwrap();
                        }
                    }
                    step += 1;
                }
            }
        }
        // Anything still unacked is a test-logic bug, not a broker bug:
        // drain leftovers (possible if the script ends in nacks/crashes).
        while let Some(d) = consumer.next(Duration::from_millis(50)).unwrap() {
            let body = String::from_utf8(d.message.body.to_vec()).unwrap();
            consumer.ack(d.tag).unwrap();
            *acked.entry(body).or_insert(0) += 1;
        }

        prop_assert_eq!(acked.len(), n_msgs, "every message eventually consumed");
        for (body, count) in acked {
            prop_assert_eq!(count, 1, "message {} acked exactly once", body);
        }
    }

    /// Prefetch never allows more unacked deliveries than the window.
    #[test]
    fn prefetch_window_is_respected(prefetch in 1usize..8, n_msgs in 1usize..40) {
        let broker = Broker::new();
        broker.declare_queue("q", None).unwrap();
        for i in 0..n_msgs {
            broker.publish("q", Message::new(Bytes::from(format!("{i}"))), None).unwrap();
        }
        let consumer = broker.consume("q", None, prefetch).unwrap();
        let mut held = Vec::new();
        while let Some(d) = consumer.next(Duration::from_millis(20)).unwrap() {
            held.push(d.tag);
            let stats = consumer.stats();
            prop_assert!(stats.unacked <= prefetch, "unacked {} > prefetch {prefetch}", stats.unacked);
            if held.len() == prefetch {
                for tag in held.drain(..) {
                    consumer.ack(tag).unwrap();
                }
            }
        }
        for tag in held {
            consumer.ack(tag).unwrap();
        }
        prop_assert_eq!(consumer.stats().unacked, 0);
    }

    /// One rule puts a delivery back, whichever way it is asked to: after
    /// the same deliveries, nacking each held tag, dropping the consumer and
    /// `recover_queue` leave the same ready order, the same delivery counts
    /// and the same dead-lettered set under a delivery budget.
    #[test]
    fn requeue_entry_points_agree(
        n_msgs in 1usize..24,
        budget in 0u32..4,
        script in prop::collection::vec(0u8..3, 0..40),
    ) {
        let nacked = hold_then_return(0, n_msgs, budget, &script);
        prop_assert_eq!(&nacked, &hold_then_return(1, n_msgs, budget, &script));
        prop_assert_eq!(&nacked, &hold_then_return(2, n_msgs, budget, &script));
    }

    /// One take body: a take of `k` is `k` successive `next` calls. Under
    /// any mix of acks, nacks, holds, consumer drops, prefetch windows and
    /// delivery budgets, draining by `next_batch` hands out the same
    /// deliveries in the same order, and leaves the same queue stats,
    /// counters and gauges, as draining by `next`.
    #[test]
    fn a_take_is_the_singles_take(
        n_msgs in 1usize..24,
        budget in 0u32..4,
        prefetch in 0usize..6,
        ks in prop::collection::vec(1usize..8, 1..6),
        script in prop::collection::vec(0u8..4, 1..40),
    ) {
        let singles = drain(false, n_msgs, budget, prefetch, &ks, &script);
        prop_assert_eq!(singles, drain(true, n_msgs, budget, prefetch, &ks, &script));
    }
}
