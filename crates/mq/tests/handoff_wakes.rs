//! A broker hand-off costs a wake syscall only when a consumer is parked.
//!
//! `parking_lot::notifies_forwarded()` counts the notifies that found a
//! waiter and went on to `std` (the futex wake). The count is process-wide,
//! so this file is ONE `#[test]`: a second would race it.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use gcx_mq::{Broker, Message};
use parking_lot::notifies_forwarded;

const Q: &str = "q";

fn msg(i: u32) -> Message {
    Message::new(Bytes::copy_from_slice(&i.to_le_bytes()))
}

#[test]
fn a_notify_reaches_the_kernel_only_when_a_consumer_is_parked() {
    let broker = Broker::new();
    broker.declare_queue(Q, None).unwrap();

    // Publish, take, ack on one thread: three notify sites a message and
    // nobody asleep.
    let consumer = broker.consume(Q, None, 16).unwrap();
    let before = notifies_forwarded();
    for i in 0..1_000 {
        broker.publish(Q, msg(i), None).unwrap();
        let d = consumer.next(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(d.message.body, msg(i).body);
        consumer.ack(d.tag).unwrap();
    }
    assert_eq!(notifies_forwarded() - before, 0, "no consumer was parked");

    // A zero timeout on an empty queue returns without parking: a parked
    // `next` would be caught by one of the concurrent `notify_all`s.
    thread::scope(|s| {
        let notifier = s.spawn(|| {
            for _ in 0..2_000 {
                assert_eq!(broker.recover_queue(Q).unwrap(), 0);
            }
        });
        while !notifier.is_finished() {
            assert!(consumer.next(Duration::ZERO).unwrap().is_none());
        }
    });
    assert_eq!(notifies_forwarded() - before, 0, "next(0) parked");

    // With a second consumer parked on the empty queue, acks that leave the
    // first one's window open tell it nothing; one publish wakes it once.
    for i in 0..4 {
        broker.publish(Q, msg(i), None).unwrap();
    }
    let held: Vec<u64> = (0..4)
        .map(|_| consumer.next(Duration::ZERO).unwrap().unwrap().tag)
        .collect();
    let (entering, entered) = mpsc::channel();
    thread::scope(|s| {
        let parked = s.spawn(|| {
            let other = broker.consume(Q, None, 16).unwrap();
            entering.send(()).unwrap();
            let d = other.next(Duration::from_secs(5)).unwrap();
            if let Some(d) = &d {
                other.ack(d.tag).unwrap();
            }
            d.map(|d| d.message.body)
        });
        entered.recv().unwrap();
        // Nothing outside the broker shows that `next` has parked: give it
        // far longer than the one yield it makes first.
        thread::sleep(Duration::from_millis(200));
        for tag in held {
            consumer.ack(tag).unwrap();
        }
        assert_eq!(notifies_forwarded() - before, 0, "an ack below the window");
        broker.publish(Q, msg(77), None).unwrap();
        assert_eq!(parked.join().unwrap(), Some(msg(77).body));
    });
    assert_eq!(notifies_forwarded() - before, 1, "one publish, one parked");

    // A 64-message take and its one ack, nobody asleep: no wake at all.
    let wide = broker.consume(Q, None, 64).unwrap();
    let mut taken = Vec::new();
    let before = notifies_forwarded();
    broker
        .publish_batch(Q, (0..64).map(msg).collect::<Vec<_>>(), None)
        .unwrap();
    assert_eq!(wide.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 64);
    let tags: Vec<u64> = taken.drain(..).map(|d| d.tag).collect();
    wide.ack_batch(&tags).unwrap();
    assert_eq!(
        notifies_forwarded() - before,
        0,
        "a batch with nobody parked"
    );

    // An `ack_batch` that opens a full window wakes the `next` blocked on
    // it, once.
    broker
        .publish_batch(Q, (0..65).map(msg).collect::<Vec<_>>(), None)
        .unwrap();
    assert_eq!(wide.next_batch(Duration::ZERO, 64, &mut taken).unwrap(), 64);
    let tags: Vec<u64> = taken.drain(..).map(|d| d.tag).collect();
    let before = notifies_forwarded();
    thread::scope(|s| {
        let blocked = s.spawn(|| wide.next(Duration::from_secs(5)).unwrap());
        thread::sleep(Duration::from_millis(200));
        assert!(!blocked.is_finished(), "a window of 64 is full");
        wide.ack_batch(&tags).unwrap();
        let d = blocked.join().unwrap().expect("the 65th message");
        assert_eq!(d.message.body, msg(64).body);
    });
    assert_eq!(notifies_forwarded() - before, 1, "one batch ack, one wake");
}
