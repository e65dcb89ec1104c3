//! A bounded work queue and a restartable worker pool.
//!
//! [`par_map`](crate::par::par_map) fans a *batch* out and joins; a
//! long-lived server needs the dual shape: producers pushing jobs into a
//! **bounded** queue (back-pressure instead of unbounded memory growth)
//! and a pool of workers that can be stopped, respawned and joined
//! individually — the silver execution service kills a worker mid-job
//! and resumes the job from its checkpoint on another worker, so worker
//! lifetime must be decoupled from queue lifetime.
//!
//! Everything here is `std`-only (`Mutex` + `Condvar` + `thread`), like
//! the rest of `testkit`.
//!
//! * [`WorkQueue`] — multi-producer/multi-consumer FIFO with a capacity
//!   bound, a non-blocking [`try_push`](WorkQueue::try_push), a
//!   capacity-exempt [`push_front`](WorkQueue::push_front) (the requeue
//!   lane for migrated jobs: it must never deadlock against full
//!   queues), and close semantics (pops drain remaining items, then
//!   report closed).
//! * [`WorkerPool`] — N threads running one shared handler; each worker
//!   carries a stop flag ([`WorkerCtl`]) that the handler can poll at
//!   its own safe points (checkpoint boundaries), so a stop request
//!   interrupts *between* units of progress, never mid-unit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (the item is handed back).
    Full(T),
    /// The queue is closed (the item is handed back).
    Closed(T),
}

/// The outcome of a timed pop.
#[derive(Debug)]
pub enum Pop<T> {
    /// An item.
    Item(T),
    /// Nothing arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

struct QState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer FIFO.
pub struct WorkQueue<T> {
    cap: usize,
    state: Mutex<QState<T>>,
    can_pop: Condvar,
    can_push: Condvar,
}

impl<T> WorkQueue<T> {
    /// A queue admitting at most `cap` items (≥ 1) through the
    /// capacity-checked push paths.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    #[must_use]
    pub fn bounded(cap: usize) -> Arc<WorkQueue<T>> {
        assert!(cap > 0, "WorkQueue capacity must be at least 1");
        Arc::new(WorkQueue {
            cap,
            state: Mutex::new(QState { items: VecDeque::new(), closed: false }),
            can_pop: Condvar::new(),
            can_push: Condvar::new(),
        })
    }

    /// Pushes, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Hands the item back when the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.cap {
                st.items.push_back(item);
                self.can_pop.notify_one();
                return Ok(());
            }
            st = self.can_push.wait(st).expect("queue lock");
        }
    }

    /// Pushes without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] when
    /// closed; both hand the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        self.can_pop.notify_one();
        Ok(())
    }

    /// Pushes to the *front*, exempt from the capacity bound — the
    /// requeue lane: a worker handing back an interrupted job must never
    /// block (it may be the only worker) and the job should be resumed
    /// before fresh work is started.
    ///
    /// # Errors
    ///
    /// Hands the item back when the queue is closed.
    pub fn push_front(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return Err(item);
        }
        st.items.push_front(item);
        self.can_pop.notify_one();
        Ok(())
    }

    /// Pops, blocking until an item arrives or the queue is closed and
    /// drained (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = st.items.pop_front() {
                self.can_push.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.can_pop.wait(st).expect("queue lock");
        }
    }

    /// [`pop`](WorkQueue::pop) with a timeout, so workers can interleave
    /// stop-flag checks with waiting.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = st.items.pop_front() {
                self.can_push.notify_one();
                return Pop::Item(item);
            }
            if st.closed {
                return Pop::Closed;
            }
            let (next, res) = self.can_pop.wait_timeout(st, timeout).expect("queue lock");
            st = next;
            if res.timed_out() && st.items.is_empty() && !st.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Closes the queue: further pushes fail, pops drain what remains.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.closed = true;
        self.can_pop.notify_all();
        self.can_push.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-worker control handle, passed to the handler on every item. The
/// handler polls [`stop_requested`](WorkerCtl::stop_requested) at its
/// own safe points (e.g. checkpoint boundaries) and winds the item down
/// cooperatively; it may also [`request_stop`](WorkerCtl::request_stop)
/// on itself to simulate a worker death after handing work back.
pub struct WorkerCtl {
    /// Stable worker index within its pool (respawned workers get fresh
    /// indices).
    pub index: usize,
    stop: Arc<AtomicBool>,
}

impl WorkerCtl {
    /// Whether this worker has been asked to stop.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Asks this worker to stop (it exits after the current item).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

struct PoolWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// How long an idle worker waits before re-checking its stop flag.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// A pool of worker threads draining one [`WorkQueue`] through a shared
/// handler. Workers exit when the queue closes, when individually
/// stopped, or when the handler panics; [`spawn_worker`]
/// (WorkerPool::spawn_worker) replaces dead ones with the same handler.
pub struct WorkerPool<T: Send + 'static> {
    queue: Arc<WorkQueue<T>>,
    handler: Arc<dyn Fn(&WorkerCtl, T) + Send + Sync>,
    workers: Vec<PoolWorker>,
    next_index: usize,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `n` workers running `handler` over `queue`.
    #[must_use]
    pub fn new(
        queue: Arc<WorkQueue<T>>,
        n: usize,
        handler: impl Fn(&WorkerCtl, T) + Send + Sync + 'static,
    ) -> WorkerPool<T> {
        let mut pool = WorkerPool {
            queue,
            handler: Arc::new(handler),
            workers: Vec::new(),
            next_index: 0,
        };
        for _ in 0..n {
            pool.spawn_worker();
        }
        pool
    }

    /// Spawns one more worker; returns its index.
    pub fn spawn_worker(&mut self) -> usize {
        let index = self.next_index;
        self.next_index += 1;
        let stop = Arc::new(AtomicBool::new(false));
        let ctl = WorkerCtl { index, stop: Arc::clone(&stop) };
        let queue = Arc::clone(&self.queue);
        let handler = Arc::clone(&self.handler);
        let handle = std::thread::spawn(move || loop {
            if ctl.stop_requested() {
                break;
            }
            match queue.pop_timeout(IDLE_TICK) {
                Pop::Item(item) => handler(&ctl, item),
                Pop::TimedOut => {}
                Pop::Closed => break,
            }
        });
        self.workers.push(PoolWorker { stop, handle: Some(handle) });
        index
    }

    /// Signals worker `i` to stop (it exits after its current item; a
    /// cooperative handler exits mid-item at its next safe point).
    /// Returns `false` for an unknown index.
    pub fn stop_worker(&mut self, i: usize) -> bool {
        match self.workers.get(i) {
            Some(w) => {
                w.stop.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Joins worker `i` (after [`stop_worker`](WorkerPool::stop_worker)
    /// or queue close), propagating its panic. Returns `false` for an
    /// unknown or already-joined index.
    ///
    /// # Panics
    ///
    /// Re-raises the worker's panic.
    pub fn join_worker(&mut self, i: usize) -> bool {
        match self.workers.get_mut(i).and_then(|w| w.handle.take()) {
            Some(h) => {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
                true
            }
            None => false,
        }
    }

    /// Joins every worker. Close the queue (or stop each worker) first,
    /// or this blocks forever.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have stopped.
    pub fn join(mut self) {
        let mut first_panic = None;
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                if let Err(p) = h.join() {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_order_with_one_worker() {
        let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(16);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let pool = WorkerPool::new(Arc::clone(&q), 1, move |_ctl, item| {
            seen2.lock().unwrap().push(item);
        });
        for i in 0..10 {
            q.push(i).unwrap();
        }
        q.close();
        pool.join();
        assert_eq!(*seen.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_push_reports_full_and_closed() {
        let q: Arc<WorkQueue<u8>> = WorkQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(4)) => {}
            other => panic!("expected Closed(4), got {other:?}"),
        }
        // Close drains: remaining items still pop, then Closed.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_front_jumps_the_line_and_ignores_capacity() {
        let q: Arc<WorkQueue<u8>> = WorkQueue::bounded(1);
        q.push(1).unwrap();
        q.push_front(9).unwrap();
        assert_eq!(q.len(), 2, "push_front is capacity-exempt");
        assert_eq!(q.pop(), Some(9), "requeued item comes first");
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn pop_timeout_times_out_on_an_open_empty_queue() {
        let q: Arc<WorkQueue<u8>> = WorkQueue::bounded(1);
        match q.pop_timeout(Duration::from_millis(5)) {
            Pop::TimedOut => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
        q.close();
        match q.pop_timeout(Duration::from_millis(5)) {
            Pop::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn blocking_push_resumes_when_capacity_frees() {
        let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(1);
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.pop(), Some(0), "frees capacity for the blocked push");
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn multi_worker_pool_processes_every_item_exactly_once() {
        let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(8);
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (sum2, count2) = (Arc::clone(&sum), Arc::clone(&count));
        let pool = WorkerPool::new(Arc::clone(&q), 4, move |_ctl, item: u64| {
            sum2.fetch_add(item, Ordering::Relaxed);
            count2.fetch_add(1, Ordering::Relaxed);
        });
        for i in 1..=100 {
            q.push(i).unwrap();
        }
        q.close();
        pool.join();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn stopped_worker_exits_and_a_respawn_takes_over() {
        let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(8);
        let count = Arc::new(AtomicU64::new(0));
        let count2 = Arc::clone(&count);
        let mut pool = WorkerPool::new(Arc::clone(&q), 1, move |_ctl, _item| {
            count2.fetch_add(1, Ordering::Relaxed);
        });
        q.push(1).unwrap();
        // Wait until the first item is handled, then stop the worker.
        while count.load(Ordering::Relaxed) < 1 {
            std::thread::yield_now();
        }
        pool.stop_worker(0);
        pool.join_worker(0);
        // Work queued while no worker is alive is picked up by a respawn.
        q.push(2).unwrap();
        let idx = pool.spawn_worker();
        assert_eq!(idx, 1, "respawned worker gets a fresh index");
        while count.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        q.close();
        pool.join();
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn handler_sees_stop_request_mid_item() {
        let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(2);
        let observed = Arc::new(AtomicBool::new(false));
        let observed2 = Arc::clone(&observed);
        let mut pool = WorkerPool::new(Arc::clone(&q), 1, move |ctl, _item| {
            // Simulate a sliced job polling its safe point.
            while !ctl.stop_requested() {
                std::thread::yield_now();
            }
            observed2.store(true, Ordering::Relaxed);
        });
        q.push(1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        pool.stop_worker(0);
        pool.join_worker(0);
        assert!(observed.load(Ordering::Relaxed), "handler observed the stop mid-item");
        q.close();
        pool.join();
    }

    #[test]
    fn pool_join_propagates_handler_panics() {
        let r = std::panic::catch_unwind(|| {
            let q: Arc<WorkQueue<u64>> = WorkQueue::bounded(2);
            let pool = WorkerPool::new(Arc::clone(&q), 1, |_ctl, item: u64| {
                assert!(item != 7, "item 7 fails");
            });
            q.push(7).unwrap();
            q.close();
            pool.join();
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }
}
