//! A std-only parallel execution subsystem for sharding independent
//! simulation runs across cores.
//!
//! The experiment matrix (17 benchmarks × policies × configs) is
//! embarrassingly parallel: each `(workload, policy, config)` run is a
//! pure function of its inputs. [`parallel_map`] shards such tasks over a
//! work-stealing pool built on [`std::thread::scope`] — no external
//! crates, no unsafe — and returns results **in input order**, so any
//! consumer that formats results sequentially produces byte-identical
//! output at every thread count.
//!
//! Every task runs inside a `catch_unwind` boundary, so one poisoned
//! simulation cannot take down a whole sweep: [`try_parallel_map`]
//! surfaces each task's outcome as a `Result<R, ExecError>` (with a
//! bounded retry budget via [`TaskOptions`]), while the infallible
//! [`parallel_map`] re-raises the *original* panic payload after the
//! pool joins — callers that can't tolerate failure keep exactly the
//! pre-existing semantics.
//!
//! Determinism rules:
//!
//! * Task closures must not consult global mutable state; every stochastic
//!   decision must flow from an explicit seed. [`task_seed`] derives a
//!   per-task seed from a root seed and the task index with the same
//!   SplitMix64 mixer the [`crate::rng`] child-derivation uses.
//! * Results are collected by task index, never by completion order.
//! * Progress lines go to stderr; stdout is reserved for deterministic
//!   experiment output.
//!
//! ```
//! use ramp_sim::exec::{parallel_map, task_seed};
//! use ramp_sim::SimRng;
//!
//! let inputs: Vec<u64> = (0..32).collect();
//! let one = parallel_map(1, inputs.clone(), |i, &x| {
//!     SimRng::from_seed(task_seed(2018, i as u64)).next_u64() ^ x
//! });
//! let many = parallel_map(4, inputs, |i, &x| {
//!     SimRng::from_seed(task_seed(2018, i as u64)).next_u64() ^ x
//! });
//! assert_eq!(one, many); // bit-identical at any thread count
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::chaos::{self, Chaos};
use crate::rng::mix64;

/// Derives the deterministic seed of task `index` under `root_seed`.
///
/// Every parallel task that needs randomness should seed its own
/// [`crate::SimRng`] from this — never share a generator across tasks —
/// so results are independent of scheduling.
pub fn task_seed(root_seed: u64, index: u64) -> u64 {
    mix64(root_seed ^ mix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// The number of worker threads to use: the `RAMP_THREADS` environment
/// variable if set (minimum 1), else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RAMP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate counters for one parallel stage, shared across workers.
///
/// All fields are atomics so workers update them lock-free; read them
/// after the stage completes (or concurrently, for progress displays).
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Tasks finished so far (successfully or with a final failure).
    pub completed: AtomicUsize,
    /// Total tasks in the stage.
    pub total: AtomicUsize,
    /// Summed task execution time in nanoseconds (busy time across all
    /// workers; compare against wall time for a parallel-efficiency read).
    pub busy_nanos: AtomicU64,
    /// Number of successful steals (tasks executed by a worker other than
    /// the one they were initially queued on).
    pub steals: AtomicU64,
    /// Panicked task attempts that were retried within the budget.
    pub retried: AtomicU64,
    /// Tasks that exhausted their retry budget and failed.
    pub failed: AtomicU64,
}

impl ExecMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Busy time accumulated by all workers.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Exports the metrics into `scope` of `reg` and marks the scope
    /// volatile: steal counts and wall-clock busy time depend on
    /// scheduling and thread count, so they must never enter the
    /// deterministic snapshot payload.
    pub fn export_telemetry(&self, reg: &mut crate::telemetry::StatRegistry, scope: &str) {
        reg.counter_add(
            scope,
            "tasks_total",
            self.total.load(Ordering::Relaxed) as u64,
        );
        reg.counter_add(
            scope,
            "tasks_completed",
            self.completed.load(Ordering::Relaxed) as u64,
        );
        reg.counter_add(scope, "steals", self.steals.load(Ordering::Relaxed));
        reg.counter_add(scope, "tasks_retried", self.retried.load(Ordering::Relaxed));
        reg.counter_add(scope, "tasks_failed", self.failed.load(Ordering::Relaxed));
        reg.gauge_set(scope, "busy_seconds", self.busy().as_secs_f64());
        reg.set_volatile(scope);
    }
}

/// A labelled wall-clock timer for one pipeline stage; reports to stderr.
///
/// ```no_run
/// let t = ramp_sim::exec::StageTimer::new("profiling");
/// // ... run the stage ...
/// t.finish(); // stderr: "[profiling] 1.23s"
/// ```
#[derive(Debug)]
pub struct StageTimer {
    label: String,
    start: Instant,
}

impl StageTimer {
    /// Starts timing a stage.
    pub fn new(label: impl Into<String>) -> Self {
        StageTimer {
            label: label.into(),
            start: Instant::now(),
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Prints `[label] <elapsed>` to stderr and returns the elapsed time.
    pub fn finish(self) -> Duration {
        let d = self.start.elapsed();
        eprintln!("[{}] {:.2}s", self.label, d.as_secs_f64());
        d
    }
}

/// Why a task in a [`try_parallel_map`] stage did not produce a result.
#[derive(Debug)]
pub enum ExecError {
    /// The task panicked on every attempt within its retry budget.
    Panicked {
        /// Input-order index of the failed task.
        task: usize,
        /// Total attempts made (1 + retries taken).
        attempts: u32,
        /// Downcast panic message of the final attempt.
        message: String,
    },
    /// The task vanished without reporting a result (its worker died
    /// outside the catch_unwind boundary — should be unreachable, but a
    /// lost slot must classify, not panic, during join).
    Lost {
        /// Input-order index of the lost task.
        task: usize,
    },
}

impl ExecError {
    /// Input-order index of the task this error belongs to.
    pub fn task(&self) -> usize {
        match self {
            ExecError::Panicked { task, .. } | ExecError::Lost { task } => *task,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Panicked {
                task,
                attempts,
                message,
            } => {
                write!(
                    f,
                    "task {task} panicked after {attempts} attempt(s): {message}"
                )
            }
            ExecError::Lost { task } => write!(f, "task {task} produced no result"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-stage execution knobs for the fallible [`try_parallel_map`] APIs.
#[derive(Clone, Debug, Default)]
pub struct TaskOptions {
    /// How many times a panicked task is re-run before it fails.
    pub retries: u32,
    /// Optional fault-injection registry; when set, each task attempt
    /// rolls the `exec.task` site for injected delays and panics.
    pub chaos: Option<Arc<Chaos>>,
}

impl TaskOptions {
    /// No retries, no fault injection — `catch_unwind` is the only
    /// difference from the infallible path.
    pub fn none() -> Self {
        TaskOptions::default()
    }

    /// Options driven by the process-wide [`chaos::global`] registry:
    /// its retry budget and injection sites when `RAMP_CHAOS` is set,
    /// [`TaskOptions::none`] otherwise.
    pub fn from_env() -> Self {
        match chaos::global() {
            Some(c) => TaskOptions {
                retries: c.retries(),
                chaos: Some(c),
            },
            None => TaskOptions::none(),
        }
    }
}

/// Internal failure record carrying the *original* panic payload so the
/// infallible wrapper can `resume_unwind` it unchanged.
struct TaskFailure {
    attempts: u32,
    payload: Box<dyn Any + Send>,
}

/// Work-stealing deques: one per worker, round-robin seeded.
struct Queues<T> {
    queues: Vec<Mutex<VecDeque<(usize, T)>>>,
}

impl<T> Queues<T> {
    fn new(workers: usize, items: Vec<T>) -> Self {
        let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i % workers].push_back((i, item));
        }
        Queues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Pops the next task for worker `w`: front of its own deque, else
    /// steals from the back of the first non-empty sibling. Returns the
    /// task and whether it was stolen.
    fn pop(&self, w: usize) -> Option<(usize, T, bool)> {
        if let Some((i, t)) = self.queues[w].lock().expect("queue poisoned").pop_front() {
            return Some((i, t, false));
        }
        let n = self.queues.len();
        for k in 1..n {
            let v = (w + k) % n;
            if let Some((i, t)) = self.queues[v].lock().expect("queue poisoned").pop_back() {
                return Some((i, t, true));
            }
        }
        None
    }
}

/// Runs `f` over `items` on `threads` workers with work stealing,
/// returning results in input order.
///
/// `f` receives `(task_index, &item)`. With `threads <= 1` the items are
/// processed inline on the caller's thread (identical results, no pool).
/// A worker panic propagates to the caller after the scope joins, with
/// the original payload; sibling tasks still complete first.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_metrics(threads, items, &ExecMetrics::new(), None, f)
}

/// [`parallel_map`] with shared [`ExecMetrics`] and optional stderr
/// progress reporting (`progress = Some(label)` prints `label k/n` as
/// tasks complete).
pub fn parallel_map_metrics<T, R, F>(
    threads: usize,
    items: Vec<T>,
    metrics: &ExecMetrics,
    progress: Option<&str>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut failure: Option<Box<dyn Any + Send>> = None;
    let out: Vec<R> = run_tasks(threads, items, metrics, progress, &TaskOptions::none(), f)
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| match slot {
            Some(Ok(r)) => Some(r),
            Some(Err(fail)) => {
                failure.get_or_insert(fail.payload);
                None
            }
            None => {
                if failure.is_none() {
                    panic!("task {i} produced no result");
                }
                None
            }
        })
        .collect();
    if let Some(payload) = failure {
        resume_unwind(payload);
    }
    out
}

/// Fallible [`parallel_map`]: every task outcome is returned in input
/// order as a `Result`, so one poisoned task no longer aborts the stage.
///
/// Panicked tasks are re-run up to `opts.retries` times; when `opts.chaos`
/// is set, each attempt also rolls the `exec.task` injection site for
/// delays and injected panics. Nothing here panics during join: a task
/// that cannot produce a result classifies as [`ExecError`].
///
/// ```
/// use ramp_sim::exec::{try_parallel_map, ExecError, TaskOptions};
///
/// let out = try_parallel_map(2, vec![1u64, 2, 3], &TaskOptions::none(), |_, &x| {
///     if x == 2 {
///         panic!("bad input {x}");
///     }
///     x * 10
/// });
/// assert_eq!(out[0].as_ref().ok(), Some(&10));
/// assert!(matches!(out[1], Err(ExecError::Panicked { task: 1, .. })));
/// assert_eq!(out[2].as_ref().ok(), Some(&30));
/// ```
pub fn try_parallel_map<T, R, F>(
    threads: usize,
    items: Vec<T>,
    opts: &TaskOptions,
    f: F,
) -> Vec<Result<R, ExecError>>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_parallel_map_metrics(threads, items, &ExecMetrics::new(), None, opts, f)
}

/// [`try_parallel_map`] with shared [`ExecMetrics`] and optional stderr
/// progress reporting.
pub fn try_parallel_map_metrics<T, R, F>(
    threads: usize,
    items: Vec<T>,
    metrics: &ExecMetrics,
    progress: Option<&str>,
    opts: &TaskOptions,
    f: F,
) -> Vec<Result<R, ExecError>>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_tasks(threads, items, metrics, progress, opts, f)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(Ok(r)) => Ok(r),
            Some(Err(fail)) => Err(ExecError::Panicked {
                task: i,
                attempts: fail.attempts,
                message: chaos::panic_message(fail.payload.as_ref()),
            }),
            None => Err(ExecError::Lost { task: i }),
        })
        .collect()
}

/// The shared work-stealing core. Every task attempt runs inside
/// `catch_unwind`; panicked attempts are retried within `opts.retries`.
/// Slots stay `None` only if a worker died outside the unwind boundary.
fn run_tasks<T, R, F>(
    threads: usize,
    items: Vec<T>,
    metrics: &ExecMetrics,
    progress: Option<&str>,
    opts: &TaskOptions,
    f: F,
) -> Vec<Option<Result<R, TaskFailure>>>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    metrics.total.fetch_add(n, Ordering::Relaxed);
    let run_one = |i: usize, item: &T| -> Result<R, TaskFailure> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let outcome = loop {
            let attempt_result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(chaos) = &opts.chaos {
                    chaos.maybe_slow("exec.task");
                    chaos.maybe_panic("exec.task");
                }
                f(i, item)
            }));
            match attempt_result {
                Ok(r) => break Ok(r),
                Err(payload) => {
                    if attempt < opts.retries {
                        attempt += 1;
                        metrics.retried.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "  [exec] task {i} panicked ({}); retry {attempt}/{}",
                            chaos::panic_message(payload.as_ref()),
                            opts.retries
                        );
                        continue;
                    }
                    metrics.failed.fetch_add(1, Ordering::Relaxed);
                    break Err(TaskFailure {
                        attempts: attempt + 1,
                        payload,
                    });
                }
            }
        };
        metrics
            .busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let done = metrics.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(label) = progress {
            eprintln!(
                "  [{label}] {done}/{}",
                metrics.total.load(Ordering::Relaxed)
            );
        }
        outcome
    };

    if threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| Some(run_one(i, t)))
            .collect();
    }

    let workers = threads.min(n);
    let queues = Queues::new(workers, items);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, TaskFailure>)>();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let run_one = &run_one;
            handles.push(s.spawn(move || {
                while let Some((i, item, stolen)) = queues.pop(w) {
                    if stolen {
                        metrics.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    let r = run_one(i, &item);
                    if tx.send((i, r)).is_err() {
                        return; // receiver gone: caller is unwinding
                    }
                }
            }));
        }
        drop(tx);
        let mut slots: Vec<Option<Result<R, TaskFailure>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Join the workers rather than only waiting for their closures:
        // the allocator hands a thread's arena to a new thread only once
        // the old thread has exited, and a caller that starts the next
        // stage at once would otherwise grow a fresh arena per stage.
        for handle in handles {
            let _ = handle.join(); // a lost worker already shows as an empty slot
        }
        slots
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn results_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, items.clone(), |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rng_tasks_are_bit_identical_across_thread_counts() {
        let work = |i: usize, _: &()| {
            let mut rng = SimRng::from_seed(task_seed(7, i as u64));
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let one = parallel_map(1, vec![(); 64], work);
        let eight = parallel_map(8, vec![(); 64], work);
        assert_eq!(one, eight);
    }

    #[test]
    fn task_seeds_are_decorrelated() {
        let a = task_seed(1, 0);
        let b = task_seed(1, 1);
        let c = task_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Consecutive indices share no obvious structure.
        assert_ne!(a ^ b, task_seed(1, 1) ^ task_seed(1, 2));
    }

    #[test]
    fn metrics_account_every_task() {
        let m = ExecMetrics::new();
        let out = parallel_map_metrics(4, (0..37).collect::<Vec<u64>>(), &m, None, |_, &x| x);
        assert_eq!(out.len(), 37);
        assert_eq!(m.completed.load(Ordering::Relaxed), 37);
        assert_eq!(m.total.load(Ordering::Relaxed), 37);
        assert_eq!(m.retried.load(Ordering::Relaxed), 0);
        assert_eq!(m.failed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = parallel_map(4, Vec::<u64>::new(), |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(16, vec![1u64, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn stage_timer_reports_elapsed() {
        let t = StageTimer::new("test-stage");
        assert!(t.elapsed() < Duration::from_secs(5));
        let d = t.finish();
        assert!(d < Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        parallel_map(2, vec![0u64, 1, 2, 3], |_, &x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn try_map_isolates_panics_per_task() {
        for threads in [1, 4] {
            let m = ExecMetrics::new();
            let out = try_parallel_map_metrics(
                threads,
                (0..16u64).collect::<Vec<_>>(),
                &m,
                None,
                &TaskOptions::none(),
                |_, &x| {
                    if x % 5 == 0 {
                        panic!("divisible by five: {x}");
                    }
                    x * 2
                },
            );
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 0 {
                    match r {
                        Err(ExecError::Panicked {
                            task,
                            attempts,
                            message,
                        }) => {
                            assert_eq!(*task, i);
                            assert_eq!(*attempts, 1);
                            assert_eq!(message, &format!("divisible by five: {i}"));
                        }
                        other => panic!("expected classified panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i as u64 * 2)));
                }
            }
            assert_eq!(m.completed.load(Ordering::Relaxed), 16);
            assert_eq!(m.failed.load(Ordering::Relaxed), 4); // 0, 5, 10, 15
        }
    }

    #[test]
    fn retry_budget_recovers_flaky_tasks() {
        use std::sync::atomic::AtomicU32;
        let tries = AtomicU32::new(0);
        let opts = TaskOptions {
            retries: 2,
            chaos: None,
        };
        let m = ExecMetrics::new();
        let out = try_parallel_map_metrics(1, vec![7u64], &m, None, &opts, |_, &x| {
            if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            x
        });
        assert_eq!(out[0].as_ref().ok(), Some(&7));
        assert_eq!(m.retried.load(Ordering::Relaxed), 2);
        assert_eq!(m.failed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn exhausted_retries_classify_with_attempt_count() {
        let opts = TaskOptions {
            retries: 3,
            chaos: None,
        };
        let out = try_parallel_map(1, vec![0u64], &opts, |_, _| -> u64 { panic!("always") });
        match &out[0] {
            Err(ExecError::Panicked {
                attempts, message, ..
            }) => {
                assert_eq!(*attempts, 4);
                assert_eq!(message, "always");
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }

    #[test]
    fn chaos_injected_panics_are_retried_and_classified() {
        // p = 1 panics on every attempt: the task must fail classified,
        // never unwind out of the stage.
        let chaos = Arc::new(Chaos::from_spec(11, "panic=1.0").unwrap());
        let opts = TaskOptions {
            retries: 1,
            chaos: Some(Arc::clone(&chaos)),
        };
        let m = ExecMetrics::new();
        let out = try_parallel_map_metrics(2, vec![1u64, 2], &m, None, &opts, |_, &x| x);
        for r in &out {
            match r {
                Err(ExecError::Panicked {
                    attempts, message, ..
                }) => {
                    assert_eq!(*attempts, 2);
                    assert!(message.contains("chaos: injected panic"), "{message}");
                }
                other => panic!("expected injected panic, got {other:?}"),
            }
        }
        assert_eq!(m.retried.load(Ordering::Relaxed), 2);
        assert_eq!(m.failed.load(Ordering::Relaxed), 2);
        assert_eq!(chaos.injected(crate::chaos::FaultKind::Panic), 4);
    }

    #[test]
    fn exec_error_display_is_stable() {
        let e = ExecError::Panicked {
            task: 3,
            attempts: 2,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "task 3 panicked after 2 attempt(s): boom");
        assert_eq!(e.task(), 3);
        let l = ExecError::Lost { task: 9 };
        assert_eq!(l.to_string(), "task 9 produced no result");
        assert_eq!(l.task(), 9);
    }
}
