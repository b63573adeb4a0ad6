//! `gcx_mq::Broker`: publish, batched publish, consume + ack.

use std::time::Duration;

use bytes::Bytes;
use gcx_core::metrics::MetricsRegistry;
use gcx_mq::{Broker, LinkProfile, Message};

use super::{clock, time_batch, Probe};

const MESSAGES: usize = 128 * 64;
const QUEUE: &str = "probe.q";

fn fresh() -> Broker {
    let broker = Broker::with_profile(MetricsRegistry::new(), clock(), LinkProfile::instant());
    broker.declare_queue(QUEUE, None).expect("declare");
    broker
}

pub fn run(p: &mut Probe<'_>) {
    let body = Bytes::from(p.rng.bytes(96));
    let messages =
        || -> Vec<Message> { (0..MESSAGES).map(|_| Message::new(body.clone())).collect() };
    p.out.insert(
        "mq.broker.publish_ns",
        time_batch(
            MESSAGES,
            || (fresh(), messages()),
            |(broker, messages)| {
                for m in messages {
                    broker.publish(QUEUE, m, None).expect("publish");
                }
            },
        ),
    );
    p.out.insert(
        "mq.broker.publish_batch128_ns_per_msg",
        time_batch(
            MESSAGES,
            || {
                let mut rest = messages();
                let mut batches = Vec::new();
                while !rest.is_empty() {
                    let tail = rest.split_off(rest.len().min(128));
                    batches.push(std::mem::replace(&mut rest, tail));
                }
                (fresh(), batches)
            },
            |(broker, batches)| {
                for batch in batches {
                    broker
                        .publish_batch(QUEUE, batch, None)
                        .expect("publish_batch");
                }
            },
        ),
    );
    p.out.insert(
        "mq.broker.next_ack_ns",
        time_batch(
            MESSAGES,
            || {
                let broker = fresh();
                broker
                    .publish_batch(QUEUE, messages(), None)
                    .expect("pre-fill");
                broker.consume(QUEUE, None, 0).expect("consume")
            },
            |consumer| {
                for _ in 0..MESSAGES {
                    let delivery = consumer
                        .next(Duration::from_secs(1))
                        .expect("next")
                        .expect("pre-filled queue");
                    consumer.ack(delivery.tag).expect("ack");
                }
            },
        ),
    );
}
