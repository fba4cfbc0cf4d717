//! A hand-rolled scoped thread pool for the render hot path.
//!
//! The container this workspace builds in has no crates.io access, so —
//! mirroring the offline shims under `crates/compat` — this crate
//! provides the small slice of `rayon`-style functionality the renderer
//! needs, on `std::thread` alone:
//!
//! - a [`ThreadPool`] of persistent workers (no per-call thread spawn,
//!   so even thousands of tiny parallel regions stay cheap), driving
//!   *scoped* closures that may borrow caller stack
//!   data;
//! - [`ThreadPool::map_indexed`] — a parallel map whose output ordering
//!   is **index-stable**: element `i` of the result is `f(i, &items[i])`
//!   no matter which worker computed it or when, so parallel results are
//!   bit-identical to serial;
//! - [`ThreadPool::for_each_mut`] /
//!   [`ThreadPool::for_each_mut_with`] — parallel in-place mutation of
//!   disjoint jobs (e.g. one tile row of a frame buffer each), the
//!   latter with one reusable scratch state per worker so the hot loop
//!   itself allocates nothing.
//!
//! # Determinism
//!
//! Work is claimed dynamically (an atomic index), so *which worker* runs
//! a job varies run to run — but every primitive writes its result by
//! job index into storage owned by that job alone, and jobs never share
//! mutable state, so the *outputs* are identical across any thread count
//! including 1. The renderer's property tests pin this bit-for-bit.
//!
//! # Panics
//!
//! A panic inside a parallel closure is caught on the worker, the batch
//! is run to completion, and the payload is re-raised on the calling
//! thread — the same contract as `std::thread::scope`.
//!
//! # Nesting
//!
//! The pool executes one parallel region at a time. A parallel closure
//! that re-enters the pool (or a second thread racing for it) simply
//! runs its region inline on the calling worker — correct, just serial —
//! so nested use can never deadlock.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the global pool's worker count.
pub const THREADS_ENV: &str = "GBU_THREADS";

/// Type-erased pointer to the batch closure. The lifetime is erased
/// (workers see it as `'static`); soundness comes from [`ThreadPool::run`]
/// never returning — not even by unwinding — before every participant
/// has finished with it.
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer only crosses threads inside one `run` batch, which
// outlives all uses (see `FinishGuard`).
unsafe impl Send for TaskPtr {}

/// One in-flight parallel region.
struct Job {
    task: TaskPtr,
    /// Batch identity, so a worker never claims the same batch twice.
    epoch: u64,
    /// Worker slots still claimable (ids `1..workers`; the caller is 0).
    slots: usize,
    next_slot: usize,
    /// Participants currently inside the closure.
    running: usize,
    /// First panic payload raised by a participant.
    panic: Option<Box<dyn Any + Send>>,
}

struct State {
    job: Option<Job>,
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new batch.
    work: Condvar,
    /// The batch owner waits here for participants to finish.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads executing scoped
/// parallel regions. See the crate docs for the determinism, panic and
/// nesting contracts.
pub struct ThreadPool {
    threads: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total workers (clamped to ≥ 1).
    /// `threads - 1` persistent threads are spawned; the calling thread
    /// is always participant 0 of each batch, so `new(1)` spawns nothing
    /// and every primitive runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { job: None, epoch: 0, shutdown: false }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { threads, shared, handles }
    }

    /// Total worker count (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when the pool runs everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Executes `task(worker_id)` on up to `workers` participants
    /// concurrently (ids `0..workers`, id 0 being the calling thread)
    /// and returns once all of them have finished. The closure may
    /// borrow caller stack data — this call never returns (even by
    /// panic) while a participant is still inside it.
    ///
    /// At high trace verbosity (`GBU_TRACE=2`) each participant's stay
    /// in the batch is recorded as a `par_worker` wall span, making pool
    /// imbalance visible in the timeline; otherwise the telemetry check
    /// is one branch per *batch*, not per item.
    fn run(&self, workers: usize, task: &(dyn Fn(usize) + Sync)) {
        let recorder = gbu_telemetry::global();
        if recorder.detailed() {
            let traced = move |w: usize| {
                let _span =
                    recorder.wall_span("par_worker", gbu_telemetry::Labels::worker(w as u32));
                task(w);
            };
            self.run_inner(workers, &traced);
        } else {
            self.run_inner(workers, task);
        }
    }

    /// The untraced batch executor behind [`ThreadPool::run`].
    fn run_inner(&self, workers: usize, task: &(dyn Fn(usize) + Sync)) {
        let workers = workers.clamp(1, self.threads);
        if workers == 1 {
            task(0);
            return;
        }
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            if st.job.is_some() {
                // Busy (nested or concurrent use): run inline instead of
                // queueing behind the active batch — see crate docs.
                drop(st);
                task(0);
                return;
            }
            st.epoch += 1;
            let ptr = task as *const (dyn Fn(usize) + Sync);
            // SAFETY: lifetime erasure only; `FinishGuard` below keeps
            // this frame alive until every participant is done.
            let task = TaskPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
            });
            st.job = Some(Job {
                task,
                epoch: st.epoch,
                slots: workers - 1,
                next_slot: 1,
                running: 0,
                panic: None,
            });
        }
        self.shared.work.notify_all();
        let guard = FinishGuard { shared: &self.shared };
        task(0);
        drop(guard); // waits for workers; re-raises a worker panic
    }

    /// Parallel, index-stable map: returns `[f(0, &items[0]), …]` exactly
    /// as a serial loop would, computed on up to [`ThreadPool::threads`]
    /// workers. Empty input returns an empty vector without touching the
    /// pool.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SendPtr(out.as_mut_ptr());
        // Claim items in small contiguous chunks: one atomic per chunk,
        // and neighbouring items stay on one worker for cache locality.
        let chunk = (n / (workers * 16)).max(1);
        let next = AtomicUsize::new(0);
        self.run(workers, &|_| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            #[allow(clippy::needless_range_loop)]
            // index i is the contract: out[i] = f(i, items[i])
            for i in start..(start + chunk).min(n) {
                let r = f(i, &items[i]);
                // SAFETY: every index is claimed by exactly one worker
                // (fetch_add hands out disjoint ranges), so this is the
                // only live `&mut` to slot `i`.
                unsafe { *slots.slot(i) = Some(r) };
            }
        });
        out.into_iter().map(|r| r.expect("every index was claimed")).collect()
    }

    /// Parallel in-place pass over disjoint jobs: calls `f(i, &mut
    /// jobs[i])` for every index, each exactly once, on up to
    /// [`ThreadPool::threads`] workers.
    pub fn for_each_mut<T, F>(&self, jobs: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        // One unit scratch per possible participant (a Vec of ZSTs never
        // heap-allocates), so this adds no worker cap and no allocation.
        let mut unit_scratch = vec![(); self.threads];
        self.for_each_mut_with(&mut unit_scratch, jobs, |_, i, job| f(i, job));
    }

    /// Like [`ThreadPool::for_each_mut`], with one reusable scratch state
    /// per worker: participant `w` works through jobs with exclusive use
    /// of `scratch[w]`. At most `min(threads, scratch.len(), jobs.len())`
    /// participants run, so a caller-owned `Vec<S>` sized once to
    /// [`ThreadPool::threads`] makes the whole pass allocation-free.
    pub fn for_each_mut_with<S, T, F>(&self, scratch: &mut [S], jobs: &mut [T], f: F)
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize, &mut T) + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        let workers = self.threads.min(n).min(scratch.len()).max(1);
        if workers == 1 {
            let s = scratch.first_mut().expect("scratch may not be empty");
            for (i, job) in jobs.iter_mut().enumerate() {
                f(s, i, job);
            }
            return;
        }
        let jobs_ptr = SendPtr(jobs.as_mut_ptr());
        let scratch_ptr = SendPtr(scratch.as_mut_ptr());
        let next = AtomicUsize::new(0);
        self.run(workers, &|w| {
            // SAFETY: participant ids are unique within a batch and
            // `w < workers <= scratch.len()`, so this is the only live
            // `&mut` to `scratch[w]`.
            let s = unsafe { &mut *scratch_ptr.slot(w) };
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: each job index is claimed exactly once.
                f(s, i, unsafe { &mut *jobs_ptr.slot(i) });
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Raw-pointer wrapper so a `Sync` closure may capture a base pointer to
/// storage whose elements the claiming discipline hands out disjointly.
/// (Access goes through [`SendPtr::slot`] rather than the field so the
/// 2021-edition disjoint capture grabs the wrapper, not the bare `*mut`.)
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Pointer to element `i` of the wrapped base pointer.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation the base pointer came
    /// from; the caller's claiming discipline must guarantee no two live
    /// `&mut` to the same slot.
    unsafe fn slot(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

// SAFETY: access discipline is enforced at each use site (disjoint
// indices / unique worker ids), never by this wrapper alone.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Blocks until the current batch's workers are done when dropped, and
/// re-raises the first worker panic (unless the caller is already
/// unwinding, in which case the caller's panic wins).
struct FinishGuard<'a> {
    shared: &'a Shared,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        let payload = {
            let mut st = self.shared.state.lock().expect("pool lock");
            if let Some(j) = st.job.as_mut() {
                j.slots = 0; // no late joiners
            }
            while st.job.as_ref().is_some_and(|j| j.running > 0) {
                st = self.shared.done.wait(st).expect("pool lock");
            }
            st.job.take().and_then(|j| j.panic)
        };
        if let Some(p) = payload {
            if !std::thread::panicking() {
                resume_unwind(p);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (task, slot, epoch) = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                match st.job.as_mut() {
                    Some(j) if j.epoch != seen_epoch && j.slots > 0 => {
                        seen_epoch = j.epoch;
                        let slot = j.next_slot;
                        j.next_slot += 1;
                        j.slots -= 1;
                        j.running += 1;
                        break (TaskPtr(j.task.0), slot, j.epoch);
                    }
                    _ => st = shared.work.wait(st).expect("pool lock"),
                }
            }
        };
        // SAFETY: the batch owner blocks in `FinishGuard` until
        // `running` returns to zero, so the closure outlives this call.
        let f = unsafe { &*task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| f(slot)));
        let mut st = shared.state.lock().expect("pool lock");
        if let Some(j) = st.job.as_mut() {
            debug_assert_eq!(j.epoch, epoch, "job changed under a participant");
            if let Err(p) = result {
                j.panic.get_or_insert(p);
            }
            j.running -= 1;
            if j.running == 0 {
                shared.done.notify_all();
            }
        }
    }
}

/// Worker count for the global pool: the `GBU_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process-wide pool used by the renderer's public entry points.
/// Sized once, on first use, from [`default_threads`].
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_index_stable() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map_indexed(&items, |i, &x| x * 2 + i as u64);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, items[i] * 2 + i as u64);
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.map_indexed(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        pool.for_each_mut(&mut [] as &mut [u32], |_, _| unreachable!());
    }

    #[test]
    fn for_each_mut_visits_every_job_once() {
        let pool = ThreadPool::new(3);
        let mut jobs = vec![0u32; 257];
        pool.for_each_mut(&mut jobs, |i, j| *j += 1 + i as u32);
        for (i, &j) in jobs.iter().enumerate() {
            assert_eq!(j, 1 + i as u32);
        }
    }

    #[test]
    fn scratch_is_per_worker() {
        let pool = ThreadPool::new(4);
        let mut scratch = vec![Vec::<usize>::new(); pool.threads()];
        let mut jobs = vec![0u8; 100];
        pool.for_each_mut_with(&mut scratch, &mut jobs, |s, i, _| s.push(i));
        let mut seen: Vec<usize> = scratch.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert!(pool.is_serial());
        let out = pool.map_indexed(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
