//! `TaskFuture` — the future returned by the executor's `submit`.
//!
//! Modeled on `concurrent.futures.Future`: blocking `result()`, optional
//! timeout, `done()` checks, and completion callbacks. Resolution happens on
//! the executor's result-stream thread.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::TaskId;
use gcx_core::shellres::ShellResult;
use gcx_core::value::Value;
use parking_lot::{Condvar, Mutex};

type Callback = Box<dyn FnOnce(&GcxResult<Value>) + Send>;

struct Inner {
    task_id: TaskId,
    /// Set once, under the `callbacks` lock (a waiter that saw it empty under
    /// that lock is counted by `cond` before `resolve` notifies); readable
    /// without the lock once set.
    outcome: OnceLock<GcxResult<Value>>,
    callbacks: Mutex<Vec<Callback>>,
    cond: Condvar,
}

/// A handle to a task's eventual result. Cloning shares the handle.
#[derive(Clone)]
pub struct TaskFuture {
    inner: Arc<Inner>,
}

impl TaskFuture {
    /// A pending future for `task_id`.
    pub fn pending(task_id: TaskId) -> Self {
        Self {
            inner: Arc::new(Inner {
                task_id,
                outcome: OnceLock::new(),
                callbacks: Mutex::new(Vec::new()),
                cond: Condvar::new(),
            }),
        }
    }

    /// The task this future tracks.
    pub fn task_id(&self) -> TaskId {
        self.inner.task_id
    }

    /// True once a result or error has landed.
    pub fn done(&self) -> bool {
        self.inner.outcome.get().is_some()
    }

    /// Resolve the future (called by the executor). Later resolutions are
    /// ignored (first result wins), mirroring Future.set_result semantics
    /// under duplicate deliveries. Callbacks run after the lock is released,
    /// so they may use this future.
    pub fn resolve(&self, outcome: GcxResult<Value>) {
        let callbacks = {
            let mut callbacks = self.inner.callbacks.lock();
            if self.inner.outcome.set(outcome).is_err() {
                return;
            }
            std::mem::take(&mut *callbacks)
        };
        self.inner.cond.notify_all();
        let outcome = self.inner.outcome.get().expect("just set");
        for cb in callbacks {
            cb(outcome);
        }
    }

    /// Wait for the outcome until `deadline` (`None`: for ever). A caller
    /// that finds nothing yields once before it parks: a result a few
    /// microseconds behind then lands on a running thread, and `resolve`
    /// has nobody to wake.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<&GcxResult<Value>> {
        let outcome = &self.inner.outcome;
        if outcome.get().is_some() || deadline.is_some_and(|d| Instant::now() >= d) {
            return outcome.get();
        }
        std::thread::yield_now();
        let mut callbacks = self.inner.callbacks.lock();
        while outcome.get().is_none() {
            match deadline {
                None => self.inner.cond.wait(&mut callbacks),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.inner.cond.wait_for(&mut callbacks, left);
                }
            }
        }
        outcome.get()
    }

    /// Block until the result is available.
    pub fn result(&self) -> GcxResult<Value> {
        self.wait_until(None).expect("resolved").clone()
    }

    /// Block up to `timeout`; `Err(Timeout)` if the result has not landed.
    pub fn result_timeout(&self, timeout: Duration) -> GcxResult<Value> {
        self.wait_until(Some(Instant::now() + timeout))
            .cloned()
            .unwrap_or_else(|| Err(GcxError::Timeout(format!("task {}", self.inner.task_id))))
    }

    /// Run `cb` when the future resolves (immediately if already resolved).
    pub fn on_done(&self, cb: impl FnOnce(&GcxResult<Value>) + Send + 'static) {
        if self.inner.outcome.get().is_none() {
            let mut callbacks = self.inner.callbacks.lock();
            if self.inner.outcome.get().is_none() {
                callbacks.push(Box::new(cb));
                return;
            }
        }
        cb(self.inner.outcome.get().expect("resolved"));
    }

    /// Convenience for shell/MPI tasks: block, then decode the
    /// [`ShellResult`].
    pub fn shell_result(&self) -> GcxResult<ShellResult> {
        let v = self.result()?;
        ShellResult::from_value(&v)
            .ok_or_else(|| GcxError::Codec("task did not return a ShellResult".into()))
    }
}

impl std::fmt::Debug for TaskFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TaskFuture({}, done={})",
            self.inner.task_id,
            self.done()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn resolve_then_result() {
        let f = TaskFuture::pending(TaskId::random());
        assert!(!f.done());
        f.resolve(Ok(Value::Int(1)));
        assert!(f.done());
        assert_eq!(f.result().unwrap(), Value::Int(1));
        // Idempotent: second resolution ignored.
        f.resolve(Ok(Value::Int(2)));
        assert_eq!(f.result().unwrap(), Value::Int(1));
    }

    #[test]
    fn result_blocks_until_resolved() {
        let f = TaskFuture::pending(TaskId::random());
        let f2 = f.clone();
        let h = std::thread::spawn(move || f2.result());
        std::thread::sleep(Duration::from_millis(30));
        f.resolve(Ok(Value::str("late")));
        assert_eq!(h.join().unwrap().unwrap(), Value::str("late"));
    }

    #[test]
    fn result_timeout() {
        let f = TaskFuture::pending(TaskId::random());
        let err = f.result_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, GcxError::Timeout(_)));
        f.resolve(Err(GcxError::Execution("boom".into())));
        let err = f.result_timeout(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, GcxError::Execution(_)));
    }

    #[test]
    fn result_timeout_ignores_wakeups_that_bring_no_result() {
        let f = TaskFuture::pending(TaskId::random());
        let stop = Arc::new(AtomicBool::new(false));
        let nagger = {
            let (f, stop) = (f.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    f.inner.cond.notify_all();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let t0 = Instant::now();
        let err = f.result_timeout(Duration::from_millis(200)).unwrap_err();
        assert!(matches!(err, GcxError::Timeout(_)));
        assert!(
            t0.elapsed() >= Duration::from_millis(200),
            "timed out early"
        );

        let resolver = {
            let f = f.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                f.resolve(Ok(Value::Int(7)));
            })
        };
        let t0 = Instant::now();
        assert_eq!(
            f.result_timeout(Duration::from_secs(10)).unwrap(),
            Value::Int(7)
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "woken by resolve");
        stop.store(true, Ordering::SeqCst);
        nagger.join().unwrap();
        resolver.join().unwrap();
    }

    #[test]
    fn a_callback_may_touch_its_own_future() {
        let f = TaskFuture::pending(TaskId::random());
        let (tx, rx) = std::sync::mpsc::channel();
        let f2 = f.clone();
        f.on_done(move |_| {
            let done = f2.done();
            let value = f2.result();
            let tx2 = tx.clone();
            f2.on_done(move |r| tx2.send(r.clone()).unwrap());
            tx.send(value).unwrap();
            assert!(done);
        });
        // Resolve on a thread of its own: at a self-deadlock the receive
        // below times out and the test fails instead of hanging.
        let f3 = f.clone();
        let resolver = std::thread::spawn(move || f3.resolve(Ok(Value::Int(5))));
        for _ in 0..2 {
            let got = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("callback deadlocked on its own future");
            assert_eq!(got.unwrap(), Value::Int(5));
        }
        resolver.join().unwrap();
    }

    #[test]
    fn callbacks_fire_once() {
        let f = TaskFuture::pending(TaskId::random());
        let count = Arc::new(AtomicUsize::new(0));
        let c1 = Arc::clone(&count);
        f.on_done(move |_| {
            c1.fetch_add(1, Ordering::SeqCst);
        });
        f.resolve(Ok(Value::None));
        // Callback registered after resolution fires immediately.
        let c2 = Arc::clone(&count);
        f.on_done(move |r| {
            assert!(r.is_ok());
            c2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn shell_result_decoding() {
        let f = TaskFuture::pending(TaskId::random());
        let sr = ShellResult {
            returncode: 0,
            stdout: "x\n".into(),
            stderr: String::new(),
            cmd: "echo x".into(),
        };
        f.resolve(Ok(sr.to_value()));
        assert_eq!(f.shell_result().unwrap(), sr);

        let g = TaskFuture::pending(TaskId::random());
        g.resolve(Ok(Value::Int(3)));
        assert!(g.shell_result().is_err());
    }
}
