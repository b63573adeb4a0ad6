//! The wave generator every workload runs under, and the per-repetition
//! measurements it takes.
//!
//! One generator thread submits `wave` tasks back-to-back with
//! `Executor::submit`, then gathers all of their futures, and repeats for a
//! fixed number of waves. Runs are count-based, not time-based: `--seconds`
//! is turned into a number of stacks and a wave count per stack once (see
//! [`Workload::reps`] and [`Workload::waves_per_rep`]), so every run does the
//! same work, the throughput figure (`wave / median wave
//! time`) has no quantisation error, and memory and counters do not depend on
//! how fast the machine happened to be. A sliding closed-loop window is
//! deliberately not used: it phase-locks with the executor's 20 ms batch
//! window into a trickle that differs 3x between identical runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx_core::error::GcxResult;
use gcx_core::payload;
use gcx_core::respec::ResourceSpec;
use gcx_core::shellres::ShellResult;
use gcx_core::value::Value;
use gcx_sdk::{Function, TaskFuture};

use crate::speed;
use crate::stack::{Layout, Stack};
use crate::stats::{self, Rng};
use crate::trace::{SpanBuf, TraceCtl, SPANS_PER_THREAD};

/// A hang ends as a counted failure, not a stuck benchmark: every future of
/// a wave must resolve within this long of the wave's last submit, and a
/// run stops at the first wave with a failure.
const WAVE_TIMEOUT: Duration = Duration::from_secs(30);

/// What the generator expects a task to return.
pub enum Expect {
    Int(i64),
    /// A shell result with return code 0 and one stdout line per MPI rank.
    RankLines(usize),
}

/// One generated task.
pub struct Job {
    pub args: Vec<Value>,
    pub kwargs: Value,
    /// MPI nodes to request; 0 leaves the resource specification alone.
    pub nodes: u32,
    pub expect: Expect,
    /// Argument bytes the task carries (reported as MiB/s).
    pub arg_bytes: u64,
}

/// Produces a workload's inputs from the seed; the program under test
/// receives only what this generates.
pub trait Generator {
    /// Append one wave of jobs. `first_task` is the run-wide index of the
    /// wave's first task.
    fn wave(&mut self, rng: &mut Rng, first_task: u64, out: &mut Vec<Job>);
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub layout: Layout,
    pub function: fn() -> Box<dyn Function>,
    /// `arg_offset` is added to integer arguments (see `Stack::build`);
    /// `wave` is the field below.
    pub generator: fn(rng: &mut Rng, arg_offset: i64, wave: usize) -> Box<dyn Generator>,
    /// Tasks per wave; they go to the stack's executors in turn.
    pub wave: usize,
    /// Waves per second this workload completes on the 2-core reference
    /// machine (rounded down): what turns `rep_seconds` into a wave count.
    pub nominal_waves_per_s: f64,
    /// Discarded waves on each fresh stack before measuring.
    pub warmup_waves: usize,
    /// The generator pauses for a seeded, uniformly random time below this
    /// before each wave, outside the wave's clock; 0 for none. With one task
    /// outstanding and no pause, every submit falls on the same phase of the
    /// program's poll loops for the life of a stack, and identical stacks
    /// read round trips of 1.3, 1.7 or 2.3 ms depending on how their loops
    /// happened to line up; a client that thinks for a random while sees the
    /// average over phases, which is the same on every stack.
    pub think_time_us: u64,
    /// Measured seconds on each freshly built stack on the reference
    /// machine. A longer run builds more stacks, it does not keep one longer:
    /// the reported value is the median over stacks, because thread placement
    /// differs more between stacks than between waves on one stack, and the
    /// first repetition (whose peak resident set is reported) does the same
    /// work whatever `--seconds` is.
    pub rep_seconds: f64,
    /// For MPI workloads: what a wave asks of the engine's block.
    pub mpi_block: Option<MpiBlock>,
    /// Throughput is limited by CPU (the process keeps both cores busy), so
    /// every time follows the host's speed phases one to one and is reported
    /// at the reference host speed (see `speed.rs`). False for workloads
    /// whose time is sleeps, polls and process launches.
    pub cpu_limited: bool,
    /// Listed in `BENCHMARK.json`, so later changes are held to its numbers.
    /// False for a workload whose identical stacks fall into two regimes
    /// (README "Repeatability"): it still runs by name and in the
    /// all-workloads mode, as a diagnostic.
    pub gated: bool,
}

pub struct MpiBlock {
    /// Nodes in the block the engine partitions.
    pub nodes: f64,
    /// Node-seconds of application work in one wave.
    pub useful_node_seconds: f64,
}

impl Workload {
    /// Freshly built stacks in a run meant to measure for `seconds`.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.rep_seconds).round() as usize).max(3)
    }

    /// Measured waves on each stack.
    pub fn waves_per_rep(&self) -> usize {
        ((self.rep_seconds * self.nominal_waves_per_s).round() as usize).max(2)
    }
}

/// What one repetition (one freshly built stack) measured.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Per measured wave: first submit → last result in hand.
    pub wave_s: Vec<f64>,
    /// Per measured wave: time inside the submit loop.
    pub submit_s: Vec<f64>,
    /// Whether the wave recorded spans (traced runs alternate).
    pub wave_traced: Vec<bool>,
    /// Per task: `submit()` call → result in the generator's hand.
    pub latency_ns: Vec<u64>,
    /// Process CPU seconds over the measured waves (input generation
    /// between waves included, the harness's own host-speed bursts not).
    pub cpu_s: f64,
    pub measured_tasks: u64,
    /// Peak resident set of the process (`VmHWM`) when this repetition's
    /// last wave was gathered.
    pub rss_peak_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub arg_bytes: u64,
    /// Counter deltas of the program over the measured window.
    pub counters: BTreeMap<String, u64>,
    pub encodes: u64,
    pub decodes: u64,
    /// Traced runs only: engine backlog and occupancy, thread count.
    pub queued_samples: Vec<f64>,
    pub running_share_samples: Vec<f64>,
    pub threads_peak: f64,
    pub echo_drains: usize,
    pub spans: Vec<SpanBuf>,
    /// Host-speed sentinel bursts timed between measured waves (CPU-limited
    /// workloads only), in seconds.
    pub burst_s: Vec<f64>,
}

impl Rep {
    /// Host speed over this repetition relative to the reference; 1 on a
    /// workload that is not CPU-limited.
    pub fn speed_index(&self) -> f64 {
        speed::index(&self.burst_s)
    }

    /// Share of the measured waves' time the process was on a CPU, over all
    /// cores: the part of a time that follows the host's speed.
    pub fn busy_share(&self) -> f64 {
        let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let wave_s: f64 = self.wave_s.iter().sum();
        (self.cpu_s / (cores * wave_s)).clamp(0.0, 1.0)
    }

    /// What a time measured in this repetition is multiplied by to give the
    /// time at the reference host speed (a rate is divided by it): the busy
    /// share scales with the speed index, the rest (sleeps, polls, waits for
    /// the other end) does not. 1 on a workload that is not CPU-limited.
    pub fn time_scale(&self) -> f64 {
        let busy = self.busy_share();
        1.0 - busy + busy * self.speed_index()
    }

    /// `wave / median wave time` over the waves with the given tracing state.
    /// On a traced stack only the waves up to the last traced one count:
    /// recording stops before the span buffers fill, and the untraced waves
    /// after that run against a service holding more records (they made the
    /// tracing overhead read -4% to -16%).
    pub fn tasks_per_s(&self, wave: usize, traced: bool) -> f64 {
        let window = self
            .wave_traced
            .iter()
            .rposition(|t| *t)
            .map_or(self.wave_s.len(), |last| last + 1);
        let times: Vec<f64> = self.wave_s[..window]
            .iter()
            .zip(&self.wave_traced)
            .filter(|(_, t)| **t == traced)
            .map(|(s, _)| *s)
            .collect();
        if times.is_empty() {
            0.0
        } else {
            wave as f64 / stats::median(&times)
        }
    }
}

struct Pending {
    future: Option<TaskFuture>,
    submit_at: Instant,
    expect: Expect,
}

fn verify(outcome: GcxResult<Value>, expect: &Expect) -> bool {
    match (outcome, expect) {
        (Ok(Value::Int(got)), Expect::Int(want)) => got == *want,
        (Ok(v), Expect::RankLines(ranks)) => ShellResult::from_value(&v)
            .is_some_and(|sr| sr.returncode == 0 && sr.stdout.lines().count() == *ranks),
        _ => false,
    }
}

/// The generator thread's state on one stack.
struct Driver<'a> {
    stack: &'a Stack,
    function: Box<dyn Function>,
    generator: Box<dyn Generator>,
    rng: &'a mut Rng,
    wave: usize,
    think_time_us: u64,
    jobs: Vec<Job>,
    pending: Vec<Pending>,
    next_task: u64,
    wave_no: u32,
    /// Span buffer and control block of a traced repetition.
    tracing: Option<(&'a TraceCtl, SpanBuf)>,
    rep: Rep,
}

impl Driver<'_> {
    /// Generate one wave, submit it, gather it, verify every value. Inputs
    /// are generated before the wave's clock starts.
    fn run_wave(&mut self, measured: bool, record: bool) {
        let first_task = self.next_task;
        self.generator.wave(self.rng, first_task, &mut self.jobs);
        let rep = &mut self.rep;
        let mut tracing = self.tracing.as_mut().filter(|_| record);
        if self.think_time_us > 0 {
            std::thread::sleep(Duration::from_micros(self.rng.below(self.think_time_us)));
        }
        let t0 = Instant::now();
        let wave_span = match tracing.as_mut() {
            Some((ctl, buf)) => {
                let id = buf.push("wave", self.wave_no, t0, t0, 0);
                ctl.wave_span.store(id, Ordering::Relaxed);
                ctl.on.store(true, Ordering::Relaxed);
                id
            }
            None => 0,
        };
        for (i, job) in self.jobs.drain(..).enumerate() {
            let executor = &self.stack.executors[i % self.stack.executors.len()];
            if job.nodes > 0 {
                executor.set_resource_specification(ResourceSpec::nodes(job.nodes));
            }
            rep.arg_bytes += if measured { job.arg_bytes } else { 0 };
            let submit_at = Instant::now();
            let future = executor.submit(&*self.function, job.args, job.kwargs).ok();
            if let Some((_, buf)) = tracing.as_mut() {
                let task = (first_task + i as u64) as u32;
                buf.push("sdk.submit", task, submit_at, Instant::now(), wave_span);
            }
            self.pending.push(Pending {
                future,
                submit_at,
                expect: job.expect,
            });
        }
        let submitted = Instant::now();
        let deadline = submitted + WAVE_TIMEOUT;
        let mut done = submitted;
        for (i, p) in self.pending.drain(..).enumerate() {
            let wait_from = if record { Instant::now() } else { t0 };
            let ok = p.future.is_some_and(|f| {
                let left = deadline.saturating_duration_since(Instant::now());
                verify(f.result_timeout(left), &p.expect)
            });
            done = Instant::now();
            rep.attempted += 1;
            rep.failed += u64::from(!ok);
            if measured {
                rep.latency_ns
                    .push(done.duration_since(p.submit_at).as_nanos() as u64);
            }
            if let Some((_, buf)) = tracing.as_mut() {
                let task = (first_task + i as u64) as u32;
                buf.push("sdk.gather", task, wait_from, done, wave_span);
            }
        }
        if let Some((ctl, buf)) = tracing.as_mut() {
            ctl.on.store(false, Ordering::Relaxed);
            buf.close(wave_span, done);
        }
        if measured {
            rep.wave_s.push(done.duration_since(t0).as_secs_f64());
            rep.submit_s
                .push(submitted.duration_since(t0).as_secs_f64());
            rep.wave_traced.push(tracing.is_some());
            rep.measured_tasks += self.wave as u64;
        }
        self.next_task += self.wave as u64;
        self.wave_no += 1;
    }
}

/// Build a fresh stack, warm it up, measure `waves` waves, tear the stack
/// down. With `trace`, every second measured wave records spans and a
/// sampler reads engine load and thread count at 20 Hz.
pub fn run_rep(w: &Workload, rng: &mut Rng, waves: usize, trace: bool) -> GcxResult<Rep> {
    let setup_from = Instant::now();
    let arg_offset = rng.below(1 << 40) as i64;
    let generator = (w.generator)(rng, arg_offset, w.wave);
    let ctl = trace.then(|| Arc::new(TraceCtl::new()));
    let stack = Stack::build(w.layout, arg_offset, ctl.as_ref())?;
    let mut driver = Driver {
        stack: &stack,
        function: (w.function)(),
        generator,
        rng,
        wave: w.wave,
        think_time_us: w.think_time_us,
        jobs: Vec::with_capacity(w.wave),
        pending: Vec::with_capacity(w.wave),
        next_task: 0,
        wave_no: 0,
        tracing: ctl.as_deref().map(|ctl| (ctl, SpanBuf::new(ctl.epoch, 0))),
        rep: Rep {
            echo_drains: stack.echo_drains(),
            ..Rep::default()
        },
    };
    for _ in 0..w.warmup_waves {
        if driver.rep.failed == 0 {
            driver.run_wave(false, false);
        }
    }
    driver.rep.setup_s = setup_from.elapsed().as_secs_f64();

    let sampling = AtomicBool::new(trace);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = (Vec::new(), Vec::new(), 0.0f64);
            while sampling.load(Ordering::Relaxed) {
                if let Some(status) = stack.engine_status() {
                    samples.0.push(status.queued as f64);
                    if status.capacity > 0 {
                        samples
                            .1
                            .push(status.running as f64 / status.capacity as f64);
                    }
                }
                samples.2 = samples.2.max(stats::thread_count());
                std::thread::sleep(Duration::from_millis(50));
            }
            samples
        });

        let before = stack.counters();
        let (enc0, dec0) = (payload::encode_count(), payload::decode_count());
        let cpu0 = stats::process_cpu_s();
        let mut traced_tasks = 0;
        let mut last_burst = Instant::now();
        for _ in 0..waves {
            if driver.rep.failed > 0 {
                break;
            }
            // Tracing alternates wave by wave on one stack, so the traced and
            // untraced wave times that give the tracing overhead share
            // everything but the spans. Waves stop recording once another
            // one might not fit the span buffers (an echo drain records up
            // to 3 spans per task and its idle waits), so no traced wave is
            // ever missing spans.
            let record =
                trace && driver.wave_no % 2 == 1 && (traced_tasks + w.wave) * 4 <= SPANS_PER_THREAD;
            traced_tasks += if record { w.wave } else { 0 };
            driver.run_wave(true, record);
            // The wave after a burst starts on the caches the burst left. A
            // traced stack alternates traced and untraced waves, and a burst
            // timed by the clock alone would precede one kind only whenever
            // two waves fit between bursts (it moved the tracing overhead to
            // -21% and +14%); after every third wave it precedes both kinds
            // equally often.
            let due = if trace {
                driver.wave_no.is_multiple_of(3)
            } else {
                last_burst.elapsed() >= speed::SAMPLE_EVERY
            };
            if w.cpu_limited && due {
                driver.rep.burst_s.push(speed::burst());
                last_burst = Instant::now();
            }
        }
        let rep = &mut driver.rep;
        // A burst is one thread computing: its CPU time is its wall time.
        rep.cpu_s = stats::process_cpu_s() - cpu0 - rep.burst_s.iter().sum::<f64>();
        rep.encodes = payload::encode_count() - enc0;
        rep.decodes = payload::decode_count() - dec0;
        for (name, after) in stack.counters() {
            let delta = after - before.get(&name).copied().unwrap_or(0);
            rep.counters.insert(name, delta);
        }
        sampling.store(false, Ordering::Relaxed);
        let (queued, running, threads) = sampler.join().expect("sampler thread");
        rep.queued_samples = queued;
        rep.running_share_samples = running;
        rep.threads_peak = threads;
    });

    let Driver {
        mut rep, tracing, ..
    } = driver;
    let generator_spans = tracing.map(|(_, buf)| buf);
    rep.rss_peak_mib = stats::rss_peak_mib();
    rep.spans = generator_spans
        .into_iter()
        .chain(stack.teardown())
        .collect();

    Ok(rep)
}
