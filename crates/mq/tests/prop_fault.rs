//! Property: under any fault plan whose drop probability is below 1.0, with
//! a bounded delivery budget and a dead-letter queue, every message reaches
//! a terminal state — acked by a consumer or parked on the DLQ. Nothing is
//! lost in limbo and nothing loops forever.

use std::time::Duration;

use bytes::Bytes;
use gcx_mq::{Broker, FaultDirection, FaultPlan, FaultRule, Message, QueuePolicy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_message_terminates_under_faults(
        seed in 0u64..10_000,
        drop_p in 0.0f64..0.9,
        dup_p in 0.0f64..0.5,
        n in 1usize..16,
        max_deliveries in 1u32..5,
    ) {
        let b = Broker::new();
        b.declare_queue("work", None).unwrap();
        b.declare_queue("dead", None).unwrap();
        b.set_queue_policy("work", QueuePolicy::dead_letter(max_deliveries, "dead")).unwrap();
        b.set_fault_plan(Some(
            FaultPlan::new(seed)
                .with_rule(FaultRule::drop("work", FaultDirection::Deliver, drop_p))
                .with_rule(FaultRule::duplicate("work", dup_p)),
        ));

        for i in 0..n {
            b.publish("work", Message::new(Bytes::from(format!("m{i}"))), None).unwrap();
        }
        // Duplication means more copies than publishes; all must terminate.
        let arrived = b.queue_stats("work").unwrap().published;
        prop_assert!(arrived >= n as u64);

        let c = b.consume("work", None, 0).unwrap();
        let mut acked = 0u64;
        while let Some(d) = c.next(Duration::from_millis(50)).unwrap() {
            c.ack(d.tag).unwrap();
            acked += 1;
        }

        let work = b.queue_stats("work").unwrap();
        let dead = b.queue_stats("dead").unwrap().ready as u64;
        prop_assert_eq!(work.ready, 0, "no message may be stuck ready");
        prop_assert_eq!(work.unacked, 0, "no message may be stuck unacked");
        prop_assert_eq!(
            acked + dead,
            arrived,
            "every copy must end acked or dead-lettered (acked {} dead {} arrived {})",
            acked,
            dead,
            arrived
        );
    }

    #[test]
    fn nacked_messages_terminate_too(
        seed in 0u64..10_000,
        nack_every in 2usize..5,
        n in 1usize..12,
    ) {
        let b = Broker::new();
        b.declare_queue("work", None).unwrap();
        b.declare_queue("dead", None).unwrap();
        b.set_queue_policy("work", QueuePolicy::dead_letter(3, "dead")).unwrap();
        b.set_fault_plan(Some(
            FaultPlan::new(seed)
                .with_rule(FaultRule::drop("work", FaultDirection::Deliver, 0.3)),
        ));
        for i in 0..n {
            b.publish("work", Message::new(Bytes::from(format!("m{i}"))), None).unwrap();
        }
        let c = b.consume("work", None, 0).unwrap();
        let mut acked = 0u64;
        let mut handled = 0usize;
        while let Some(d) = c.next(Duration::from_millis(50)).unwrap() {
            handled += 1;
            if handled.is_multiple_of(nack_every) {
                c.nack(d.tag).unwrap();
            } else {
                c.ack(d.tag).unwrap();
                acked += 1;
            }
        }
        let work = b.queue_stats("work").unwrap();
        let dead = b.queue_stats("dead").unwrap().ready as u64;
        prop_assert_eq!(work.ready, 0);
        prop_assert_eq!(work.unacked, 0);
        prop_assert_eq!(acked + dead, n as u64);
    }

    /// One admit body: a seeded plan draws the same fates, in the same
    /// order, whether N messages arrive as N publishes or as one batch — the
    /// queue holds the same messages and every `mq.*` counter and gauge
    /// reads the same.
    #[test]
    fn a_batch_admits_what_singles_admit(
        seed in 0u64..10_000,
        drop_p in 0.0f64..0.6,
        dup_p in 0.0f64..0.6,
        n in 1usize..24,
    ) {
        let run = |batched: bool| {
            let b = Broker::new();
            b.declare_queue("q", None).unwrap();
            // Publish-side rules only, so reading the queue back draws nothing.
            b.set_fault_plan(Some(
                FaultPlan::new(seed)
                    .with_rule(FaultRule::drop("q", FaultDirection::Publish, drop_p))
                    .with_rule(FaultRule::duplicate("q", dup_p)),
            ));
            let messages = (0..n).map(|i| Message::new(Bytes::from(format!("m{i}"))));
            if batched {
                b.publish_batch("q", messages.collect::<Vec<_>>(), None).unwrap();
            } else {
                messages.for_each(|m| b.publish("q", m, None).unwrap());
            }
            let published = b.queue_stats("q").unwrap().published;
            let metrics = (b.metrics().counter_snapshot(), b.metrics().gauge_snapshot());
            let c = b.consume("q", None, 0).unwrap();
            let mut contents = Vec::new();
            while let Some(d) = c.next(Duration::ZERO).unwrap() {
                contents.push(d.message);
            }
            (contents, published, metrics)
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// One take body: under a seeded plan that loses deliveries, a take of
    /// `k` draws what `k` successive `next` calls draw — the same messages
    /// come out in the same order with the same delivery counts, the same
    /// ones are charged, lost and dead-lettered, and every `mq.*` counter
    /// and gauge reads the same.
    #[test]
    fn a_take_draws_what_singles_draw(
        seed in 0u64..10_000,
        drop_p in 0.0f64..0.9,
        dup_p in 0.0f64..0.5,
        n in 1usize..24,
        max_deliveries in 1u32..5,
        ks in prop::collection::vec(1usize..8, 1..6),
        nacks in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let run = |batched: bool| {
            let b = Broker::new();
            b.declare_queue("work", None).unwrap();
            b.declare_queue("dead", None).unwrap();
            b.set_queue_policy("work", QueuePolicy::dead_letter(max_deliveries, "dead")).unwrap();
            b.set_fault_plan(Some(
                FaultPlan::new(seed)
                    .with_rule(FaultRule::drop("work", FaultDirection::Deliver, drop_p))
                    .with_rule(FaultRule::duplicate("work", dup_p)),
            ));
            for i in 0..n {
                b.publish("work", Message::new(Bytes::from(format!("m{i}"))), None).unwrap();
            }
            let c = b.consume("work", None, 0).unwrap();
            let (mut seen, mut taken, mut step) = (Vec::new(), Vec::new(), 0);
            for round in 0..256 {
                let k = ks[round % ks.len()];
                if batched {
                    c.next_batch(Duration::ZERO, k, &mut taken).unwrap();
                } else {
                    taken.extend((0..k).map_while(|_| c.next(Duration::ZERO).unwrap()));
                }
                if taken.is_empty() {
                    break;
                }
                for d in taken.drain(..) {
                    let m = &d.message;
                    seen.push((m.body.clone(), m.redelivered, m.delivery_count));
                    if nacks[step % nacks.len()] {
                        c.nack(d.tag).unwrap();
                    } else {
                        c.ack(d.tag).unwrap();
                    }
                    step += 1;
                }
            }
            let stats = ["work", "dead"].map(|q| {
                let s = b.queue_stats(q).unwrap();
                (s.ready, s.unacked, s.published)
            });
            let metrics = (b.metrics().counter_snapshot(), b.metrics().gauge_snapshot());
            (seen, stats, metrics)
        };
        prop_assert_eq!(run(false), run(true));
    }
}
