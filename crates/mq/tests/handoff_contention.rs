//! No lost wake-up under contention: a notify skipped because "nobody is
//! parked" must never leave a consumer asleep on a queue with work in it.
//! A lost wake-up shows as a `next` that sits out its whole timeout.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gcx_mq::{Broker, Message};

const Q: &str = "q";
const PRODUCERS: u32 = 2;
const PER_PRODUCER: u32 = 100_000;
const TOTAL: usize = (PRODUCERS * PER_PRODUCER) as usize;

#[test]
fn two_producers_two_consumers_lose_nothing_and_never_stall() {
    let broker = Broker::new();
    broker.declare_queue(Q, None).unwrap();
    let taken = AtomicUsize::new(0);

    let (seen, longest_wait) = thread::scope(|s| {
        for p in 0..PRODUCERS {
            let broker = &broker;
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i;
                    let body = Bytes::copy_from_slice(&id.to_le_bytes());
                    broker.publish(Q, Message::new(body), None).unwrap();
                }
            });
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let consumer = broker.consume(Q, None, 64).unwrap();
                    let mut ids = Vec::new();
                    let mut longest = Duration::ZERO;
                    loop {
                        let from = Instant::now();
                        let next = consumer.next(Duration::from_secs(5));
                        longest = longest.max(from.elapsed());
                        // The queue is deleted under whoever is still
                        // waiting once the last message is taken.
                        let Ok(next) = next else { break };
                        let d = next.expect("a consumer sat out its 5 s timeout");
                        consumer.ack(d.tag).unwrap();
                        ids.push(u32::from_le_bytes(d.message.body[..].try_into().unwrap()));
                        if taken.fetch_add(1, Ordering::SeqCst) + 1 == TOTAL {
                            broker.delete_queue(Q).unwrap();
                            break;
                        }
                    }
                    (ids, longest)
                })
            })
            .collect();
        let mut seen = vec![0u8; TOTAL];
        let mut longest_wait = Duration::ZERO;
        for c in consumers {
            let (ids, longest) = c.join().unwrap();
            for id in ids {
                seen[id as usize] += 1;
            }
            longest_wait = longest_wait.max(longest);
        }
        (seen, longest_wait)
    });

    assert!(
        seen.iter().all(|n| *n == 1),
        "every message exactly once: {} missing, {} repeated",
        seen.iter().filter(|n| **n == 0).count(),
        seen.iter().filter(|n| **n > 1).count(),
    );
    assert!(
        longest_wait < Duration::from_secs(1),
        "a `next` waited {longest_wait:?} with producers running"
    );
}
