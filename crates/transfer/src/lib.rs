//! # gcx-transfer
//!
//! The Globus Transfer stand-in (§V-A of the paper): "a secure,
//! fire-and-forget model for reliable and performant file transfer between
//! Globus Connect endpoints".
//!
//! - a [`TransferService`] registry of *transfer endpoints*, each exposing a
//!   collection (a directory subtree of a host's [`gcx_shell::Vfs`]);
//! - chunked, bandwidth-modelled transfers between endpoints, charged on
//!   the service clock;
//! - *reliability*: transient chunk faults (injectable) are retried with
//!   resume-from-offset, so a submitted transfer either completes or fails
//!   only after exhausting retries — the caller never babysits it
//!   (fire-and-forget);
//! - asynchronous status polling and blocking waits.
//!
//! The data-movement experiment (E8) uses this as the file-based
//! out-of-band path: tasks write results to the endpoint's filesystem and
//! ship file *paths* through the cloud instead of payload bytes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_core::clock::SharedClock;
use gcx_core::error::{GcxError, GcxResult};
use gcx_core::ids::TransferId;
use gcx_core::metrics::MetricsRegistry;
use gcx_mq::LinkProfile;
use gcx_shell::Vfs;
use parking_lot::{Condvar, Mutex, RwLock};

/// Transfer chunk size (bytes). Real GridFTP pipelines much larger blocks;
/// 256 KiB keeps simulated transfers observable.
pub(crate) const CHUNK_SIZE: usize = 256 * 1024;

/// How a transfer is doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferStatus {
    /// Queued or copying; `bytes_done` of `bytes_total` moved so far.
    Active {
        /// Bytes copied.
        bytes_done: usize,
        /// Total bytes.
        bytes_total: usize,
        /// Transient faults retried so far.
        faults_retried: u32,
    },
    /// Completed successfully.
    Succeeded,
    /// Failed permanently.
    Failed(String),
}

struct TransferEndpoint {
    vfs: Vfs,
    root: String,
}

/// A transfer's status, and the condvar a [`TransferService::wait`] parks on
/// until it changes.
struct TransferRecord {
    status: Mutex<TransferStatus>,
    changed: Condvar,
}

impl TransferRecord {
    fn set(&self, status: TransferStatus) {
        *self.status.lock() = status;
        self.changed.notify_all();
    }
}

struct ServiceInner {
    endpoints: RwLock<HashMap<String, TransferEndpoint>>,
    transfers: RwLock<HashMap<TransferId, Arc<TransferRecord>>>,
    clock: SharedClock,
    link: LinkProfile,
    metrics: MetricsRegistry,
    /// Probability that a chunk transfer transiently faults (0.0–1.0).
    fault_rate: f64,
    /// Chunk retry budget before a transfer fails permanently.
    max_chunk_retries: u32,
}

/// The transfer service. Cloning shares state.
#[derive(Clone)]
pub struct TransferService {
    inner: Arc<ServiceInner>,
}

impl TransferService {
    /// A service moving data over `link`, with no fault injection.
    pub fn new(clock: SharedClock, link: LinkProfile, metrics: MetricsRegistry) -> Self {
        Self::with_faults(clock, link, metrics, 0.0, 5)
    }

    /// A service with fault injection: each chunk faults with probability
    /// `fault_rate` and is retried up to `max_chunk_retries` times.
    pub fn with_faults(
        clock: SharedClock,
        link: LinkProfile,
        metrics: MetricsRegistry,
        fault_rate: f64,
        max_chunk_retries: u32,
    ) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                endpoints: RwLock::new(HashMap::new()),
                transfers: RwLock::new(HashMap::new()),
                clock,
                link,
                metrics,
                fault_rate: fault_rate.clamp(0.0, 1.0),
                max_chunk_retries,
            }),
        }
    }

    /// Register a transfer endpoint exposing `root` on `vfs` (deploying
    /// Globus Connect on a resource).
    pub fn register_endpoint(&self, name: &str, vfs: Vfs, root: &str) -> GcxResult<()> {
        vfs.mkdir_p(root)?;
        self.inner.endpoints.write().insert(
            name.to_string(),
            TransferEndpoint {
                vfs,
                root: root.to_string(),
            },
        );
        Ok(())
    }

    fn resolve(&self, endpoint: &str, path: &str) -> GcxResult<(Vfs, String)> {
        let endpoints = self.inner.endpoints.read();
        let ep = endpoints
            .get(endpoint)
            .ok_or_else(|| GcxError::Internal(format!("no transfer endpoint '{endpoint}'")))?;
        let full = format!(
            "{}/{}",
            ep.root.trim_end_matches('/'),
            path.trim_start_matches('/')
        );
        Ok((ep.vfs.clone(), full))
    }

    /// Submit a transfer (fire-and-forget): returns immediately with an id.
    pub fn submit(
        &self,
        src_endpoint: &str,
        src_path: &str,
        dst_endpoint: &str,
        dst_path: &str,
    ) -> GcxResult<TransferId> {
        let (src_vfs, src_full) = self.resolve(src_endpoint, src_path)?;
        let (dst_vfs, dst_full) = self.resolve(dst_endpoint, dst_path)?;
        let data = src_vfs.read(&src_full)?;
        let total = data.len();

        let id = TransferId::random();
        let record = Arc::new(TransferRecord {
            status: Mutex::new(TransferStatus::Active {
                bytes_done: 0,
                bytes_total: total,
                faults_retried: 0,
            }),
            changed: Condvar::new(),
        });
        self.inner.transfers.write().insert(id, Arc::clone(&record));

        let inner = Arc::clone(&self.inner);
        let seed = id.uuid().0 as u64 | 1;
        std::thread::Builder::new()
            .name(format!("gcx-transfer-{id}"))
            .spawn(move || run_transfer(inner, record, data, dst_vfs, dst_full, seed))
            .map_err(|e| GcxError::Internal(format!("spawn transfer: {e}")))?;
        Ok(id)
    }

    fn record(&self, id: TransferId) -> GcxResult<Arc<TransferRecord>> {
        self.inner
            .transfers
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| GcxError::Internal(format!("no such transfer {id}")))
    }

    /// Current status.
    pub fn status(&self, id: TransferId) -> GcxResult<TransferStatus> {
        Ok(self.record(id)?.status.lock().clone())
    }

    /// Block (in wall time) until the transfer finishes or `timeout` passes,
    /// parked between status changes.
    pub fn wait(&self, id: TransferId, timeout: Duration) -> GcxResult<TransferStatus> {
        let deadline = Instant::now() + timeout;
        let record = self.record(id)?;
        let mut status = record.status.lock();
        while let TransferStatus::Active { .. } = *status {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(GcxError::Timeout(format!("transfer {id}")));
            }
            record.changed.wait_for(&mut status, left);
        }
        Ok(status.clone())
    }
}

fn run_transfer(
    inner: Arc<ServiceInner>,
    record: Arc<TransferRecord>,
    data: Vec<u8>,
    dst_vfs: Vfs,
    dst_full: String,
    seed: u64,
) {
    // Ensure the destination directory exists (Globus Transfer creates
    // missing directories on the destination collection).
    if let Some(slash) = dst_full.rfind('/') {
        let _ = dst_vfs.mkdir_p(&dst_full[..slash.max(1)]);
    }
    inner.metrics.counter("transfer.started").inc();

    let mut rng_state = seed;
    let mut rand01 = move || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        (rng_state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };

    // Truncate any previous content, then append chunk by chunk.
    if dst_vfs.write(&dst_full, b"").is_err() {
        record.set(TransferStatus::Failed(format!("cannot write '{dst_full}'")));
        return;
    }

    let total = data.len();
    let mut offset = 0usize;
    let mut faults_retried = 0u32;
    while offset < total || (total == 0 && offset == 0) {
        let end = (offset + CHUNK_SIZE).min(total);
        let chunk = &data[offset..end];
        let mut attempts = 0u32;
        loop {
            // Pay the wire cost for the attempt (failed attempts cost too).
            inner.link.charge(&inner.clock, chunk.len().max(1));
            if inner.fault_rate > 0.0 && rand01() < inner.fault_rate {
                attempts += 1;
                faults_retried += 1;
                inner.metrics.counter("transfer.chunk_faults").inc();
                if attempts > inner.max_chunk_retries {
                    record.set(TransferStatus::Failed(format!(
                        "chunk at offset {offset} failed after {attempts} attempts"
                    )));
                    return;
                }
                continue;
            }
            break;
        }
        if dst_vfs.append(&dst_full, chunk).is_err() {
            record.set(TransferStatus::Failed(format!("write error at {offset}")));
            return;
        }
        offset = end;
        inner
            .metrics
            .counter("transfer.bytes_moved")
            .add(chunk.len() as u64);
        record.set(TransferStatus::Active {
            bytes_done: offset,
            bytes_total: total,
            faults_retried,
        });
        if total == 0 {
            break;
        }
    }
    record.set(TransferStatus::Succeeded);
    inner.metrics.counter("transfer.succeeded").inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::SystemClock;

    fn service() -> (TransferService, Vfs, Vfs) {
        let svc = TransferService::new(
            SystemClock::shared(),
            LinkProfile::instant(),
            MetricsRegistry::new(),
        );
        let src = Vfs::new();
        let dst = Vfs::new();
        svc.register_endpoint("aps#clutch", src.clone(), "/data")
            .unwrap();
        svc.register_endpoint("alcf#theta", dst.clone(), "/projects")
            .unwrap();
        (svc, src, dst)
    }

    #[test]
    fn basic_transfer() {
        let (svc, src, dst) = service();
        src.write("/data/scan.h5", &vec![9u8; 100_000]).unwrap();
        let id = svc
            .submit("aps#clutch", "scan.h5", "alcf#theta", "run1/scan.h5")
            .unwrap();
        let status = svc.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(status, TransferStatus::Succeeded);
        assert_eq!(
            dst.read("/projects/run1/scan.h5").unwrap(),
            vec![9u8; 100_000]
        );
    }

    #[test]
    fn empty_file_transfers() {
        let (svc, src, dst) = service();
        src.write("/data/empty", b"").unwrap();
        let id = svc
            .submit("aps#clutch", "empty", "alcf#theta", "empty")
            .unwrap();
        assert_eq!(
            svc.wait(id, Duration::from_secs(5)).unwrap(),
            TransferStatus::Succeeded
        );
        assert_eq!(dst.read("/projects/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn missing_source_rejected_at_submit() {
        let (svc, _, _) = service();
        assert!(svc
            .submit("aps#clutch", "nope.dat", "alcf#theta", "x")
            .is_err());
        assert!(svc.submit("ghost#ep", "x", "alcf#theta", "x").is_err());
    }

    #[test]
    fn faults_are_retried_and_reported() {
        let svc = TransferService::with_faults(
            SystemClock::shared(),
            LinkProfile::instant(),
            MetricsRegistry::new(),
            0.3,
            50,
        );
        let src = Vfs::new();
        let dst = Vfs::new();
        svc.register_endpoint("a", src.clone(), "/a").unwrap();
        svc.register_endpoint("b", dst.clone(), "/b").unwrap();
        src.write("/a/big", &vec![1u8; CHUNK_SIZE * 8]).unwrap();
        let id = svc.submit("a", "big", "b", "big").unwrap();
        let status = svc.wait(id, Duration::from_secs(10)).unwrap();
        assert_eq!(
            status,
            TransferStatus::Succeeded,
            "retries mask transient faults"
        );
        assert_eq!(dst.read("/b/big").unwrap().len(), CHUNK_SIZE * 8);
    }

    #[test]
    fn permanent_failure_after_retry_budget() {
        let svc = TransferService::with_faults(
            SystemClock::shared(),
            LinkProfile::instant(),
            MetricsRegistry::new(),
            1.0, // every chunk faults
            3,
        );
        let src = Vfs::new();
        let dst = Vfs::new();
        svc.register_endpoint("a", src.clone(), "/a").unwrap();
        svc.register_endpoint("b", dst, "/b").unwrap();
        src.write("/a/f", b"data").unwrap();
        let id = svc.submit("a", "f", "b", "f").unwrap();
        let status = svc.wait(id, Duration::from_secs(10)).unwrap();
        assert!(matches!(status, TransferStatus::Failed(_)));
    }

    #[test]
    fn progress_is_observable() {
        let (svc, src, _) = service();
        src.write("/data/f", &vec![0u8; CHUNK_SIZE * 4]).unwrap();
        let id = svc.submit("aps#clutch", "f", "alcf#theta", "f").unwrap();
        let final_status = svc.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(final_status, TransferStatus::Succeeded);
        // After success the status stays terminal.
        assert_eq!(svc.status(id).unwrap(), TransferStatus::Succeeded);
        assert!(svc.status(TransferId::random()).is_err());
    }

    #[test]
    fn bandwidth_model_charges_clock() {
        use gcx_core::clock::{Clock, VirtualClock};
        let clock = VirtualClock::new();
        let svc = TransferService::new(
            clock.clone(),
            LinkProfile::wan(0, 1000), // 125 KB/ms, no latency
            MetricsRegistry::new(),
        );
        let src = Vfs::new();
        let dst = Vfs::new();
        svc.register_endpoint("a", src.clone(), "/a").unwrap();
        svc.register_endpoint("b", dst, "/b").unwrap();
        src.write("/a/f", &vec![0u8; 250_000]).unwrap();
        let id = svc.submit("a", "f", "b", "f").unwrap();
        // 250 KB at 125 KB/ms: one chunk of 256 KiB? No — file is 250_000 <
        // CHUNK_SIZE (262144), so a single chunk: ceil(250000/125000)=2 ms.
        clock.wait_for_sleepers(1);
        clock.advance(2);
        let status = svc.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(status, TransferStatus::Succeeded);
        assert_eq!(clock.now_ms(), 2);
    }

    /// CPU time (user + system, in clock ticks) the calling thread has used.
    fn thread_cpu_ticks() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // Fields after the parenthesised thread name; utime and stime are
        // the 14th and 15th of the line, 12th and 13th after the name.
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    }

    /// A transfer stalled on its link (a virtual clock nobody advances)
    /// leaves its waiter parked: the wait times out having used almost no
    /// CPU, and the status change that ends a transfer still wakes it.
    #[test]
    fn wait_on_a_stalled_transfer_parks() {
        use gcx_core::clock::VirtualClock;
        let clock = VirtualClock::new();
        let svc = TransferService::new(
            clock.clone(),
            LinkProfile::wan(0, 1000),
            MetricsRegistry::new(),
        );
        let src = Vfs::new();
        svc.register_endpoint("a", src.clone(), "/a").unwrap();
        svc.register_endpoint("b", Vfs::new(), "/b").unwrap();
        src.write("/a/f", &vec![0u8; 250_000]).unwrap();
        let id = svc.submit("a", "f", "b", "f").unwrap();
        clock.wait_for_sleepers(1);

        let Some(before) = thread_cpu_ticks() else {
            eprintln!("no /proc/thread-self/stat here, CPU time not counted");
            return;
        };
        let started = Instant::now();
        let waited = svc.wait(id, Duration::from_millis(300));
        let ticks = thread_cpu_ticks().unwrap() - before;
        assert!(matches!(waited, Err(GcxError::Timeout(_))), "{waited:?}");
        // /proc counts in 10 ms ticks: 10% of one core is elapsed_ms / 100.
        let budget = started.elapsed().as_millis() as u64 / 100;
        assert!(ticks < budget, "{ticks} ticks of CPU, budget {budget}");

        clock.advance(2);
        let status = svc.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(status, TransferStatus::Succeeded);
    }
}
