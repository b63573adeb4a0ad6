//! Resolving a future costs a wake syscall only when a caller is parked on
//! it.
//!
//! `parking_lot::notifies_forwarded()` counts the notifies that found a
//! waiter and went on to `std` (the futex wake). The count is process-wide,
//! so this file is ONE `#[test]`: a second would race it.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use gcx_core::ids::TaskId;
use gcx_core::value::Value;
use gcx_sdk::TaskFuture;
use parking_lot::notifies_forwarded;

#[test]
fn resolve_reaches_the_kernel_only_when_a_caller_is_parked() {
    let before = notifies_forwarded();
    for i in 0..1_000 {
        let f = TaskFuture::pending(TaskId::random());
        f.resolve(Ok(Value::Int(i)));
        assert_eq!(f.result().unwrap(), Value::Int(i));
    }
    assert_eq!(notifies_forwarded() - before, 0, "nobody was waiting");

    let f = TaskFuture::pending(TaskId::random());
    let (entering, entered) = mpsc::channel();
    thread::scope(|s| {
        let parked = s.spawn(|| {
            entering.send(()).unwrap();
            f.result()
        });
        entered.recv().unwrap();
        // Nothing outside the future shows that `result` has parked: give
        // it far longer than the one yield it makes first.
        thread::sleep(Duration::from_millis(200));
        f.resolve(Ok(Value::str("late")));
        assert_eq!(parked.join().unwrap().unwrap(), Value::str("late"));
    });
    assert_eq!(notifies_forwarded() - before, 1, "one resolve, one parked");
}
