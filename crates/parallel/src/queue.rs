//! A bounded MPMC queue with an optional schedule turnstile.
//!
//! The pool feeds chunk indices through a [`BoundedQueue`]: the producer
//! blocks when `capacity` items are in flight, consumers block when the
//! queue is empty, and [`BoundedQueue::close`] lets consumers drain what
//! remains and then observe end-of-work (`pop` → `None`). Everything is a
//! single mutex + two condvars — no atomics, so the audit's
//! `atomics-ordering` rule has nothing to even look at.
//!
//! The two condvars (`not_empty` for consumers, `not_full` for the
//! producer) replace an earlier single-condvar design whose every push
//! and pop `notify_all`'d all parties — the wakeup storm the roadmap
//! flagged: N-1 workers woke, found either no item or somebody else's
//! turn, and went straight back to sleep. Without a turnstile a push now
//! wakes exactly one consumer and a pop exactly the producer. With a
//! turnstile installed, pops still `notify_all` consumers — the grant
//! names one specific worker and `notify_one` could wake the wrong one
//! and strand the schedule. Lock poisoning is recovered everywhere
//! (`unwrap_or_else(|p| p.into_inner())`, the serve-crate idiom): queue
//! state is a `VecDeque` plus counters, consistent at every await point,
//! and a panicked worker must not cascade into aborting the whole
//! measurement campaign.
//!
//! The turnstile is how schedules become enforceable: when a worker order
//! is installed, the `s`-th successful `pop` is only granted to the worker
//! the order names for step `s`. Any recorded order is feasible (every
//! worker loops on `pop` until the queue reports end-of-work), so replay
//! cannot deadlock. Each grant is recorded as a [`Step`], which is the
//! trace the pool hands back for replay.

use crate::schedule::Step;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
    /// Successful pops so far (the step counter of the turnstile).
    seq: usize,
    /// Worker granted each step; free-for-all past the end or when `None`.
    order: Option<Vec<usize>>,
    /// The recorded interleaving.
    steps: Vec<Step>,
    /// Counted traffic and blocking — see [`QueueStats`].
    stats: QueueStats,
}

/// Counted queue traffic: how many items moved through and how many times
/// either side had to block for them. Counts, not wall-clock — so tests
/// can assert on contention shape (a wakeup storm means consumers loop
/// through `wait` far more often than items exist) without any timing
/// flakiness. One `wait` call is one count, whether it slept or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items successfully enqueued.
    pub pushes: u64,
    /// Items successfully dequeued.
    pub pops: u64,
    /// Times a consumer blocked in `pop` (queue empty, or a turnstile
    /// grant named somebody else).
    pub consumer_waits: u64,
    /// Times the producer blocked in `push` (queue at capacity).
    pub producer_waits: u64,
}

/// Bounded multi-producer/multi-consumer queue; see the module docs.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives, the queue closes, or (under a
    /// turnstile) the step sequence advances.
    not_empty: Condvar,
    /// Signalled when a slot frees up or the queue closes.
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1),
    /// with no turnstile.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue::with_order(capacity, None)
    }

    /// A queue whose `s`-th pop is reserved for worker `order[s]`.
    pub fn with_order(capacity: usize, order: Option<Vec<usize>>) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
                seq: 0,
                order,
                steps: Vec::new(),
                stats: QueueStats::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The state mutex with poison recovery: a consumer that panicked in
    /// user code never held the lock across an inconsistent state, so
    /// the queue keeps serving the surviving workers.
    fn locked(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Signals item arrival (or a turnstile step advance) to consumers.
    /// One waiter suffices in free-for-all mode; a turnstile grant names
    /// a specific worker, so everyone must look. Takes the guard, not the
    /// state, so a caller cannot notify without holding the lock.
    fn signal_consumers(&self, st: &MutexGuard<'_, State<T>>) {
        if st.order.is_some() {
            self.not_empty.notify_all();
        } else {
            self.not_empty.notify_one();
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the queue was closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.locked();
        loop {
            if st.closed {
                return false;
            }
            if st.items.len() < st.capacity {
                st.items.push_back(item);
                st.stats.pushes += 1;
                self.signal_consumers(&st);
                return true;
            }
            st.stats.producer_waits += 1;
            st = self.not_full.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Dequeues the next item for `worker`, blocking while the queue is
    /// empty or the turnstile has reserved the next step for somebody
    /// else. Returns `None` once the queue is closed *and* drained — the
    /// shutdown contract: close never discards queued work.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let mut st = self.locked();
        loop {
            let my_turn = match &st.order {
                Some(order) => order.get(st.seq).is_none_or(|&w| w == worker),
                None => true,
            };
            if my_turn {
                if let Some(item) = st.items.pop_front() {
                    let chunk = st.seq;
                    st.steps.push(Step { worker, chunk });
                    st.seq += 1;
                    st.stats.pops += 1;
                    // A slot freed for the producer; under a turnstile the
                    // advanced seq also changes whose turn it is, so the
                    // other consumers must re-check.
                    self.not_full.notify_one();
                    if st.order.is_some() {
                        self.not_empty.notify_all();
                    }
                    return Some(item);
                }
                if st.closed {
                    return None;
                }
            } else if st.closed && st.items.is_empty() {
                return None;
            }
            st.stats.consumer_waits += 1;
            st = self.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: producers fail fast, consumers drain and exit.
    pub fn close(&self) {
        let mut st = self.locked();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (racy by nature; for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.locked().items.len()
    }

    /// Whether the queue holds no items right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded interleaving (the `s`-th entry is the worker
    /// that won step `s`).
    pub fn take_steps(&self) -> Vec<Step> {
        std::mem::take(&mut self.locked().steps)
    }

    /// A snapshot of the counted traffic so far.
    pub fn stats(&self) -> QueueStats {
        self.locked().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_consumer() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            assert!(q.push(i));
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn close_drains_queued_work_then_signals_end() {
        let q = Arc::new(BoundedQueue::new(8));
        for i in 0..5 {
            q.push(i);
        }
        q.close();
        // All five queued items survive the close; only then end-of-work.
        assert_eq!(q.len(), 5);
        let mut got = Vec::new();
        while let Some(v) = q.pop(0) {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        // Pushing after close reports failure instead of blocking.
        assert!(!q.push(99));
    }

    #[test]
    fn capacity_blocks_producer_until_a_pop() {
        let q = Arc::new(BoundedQueue::new(2));
        assert!(q.push(1));
        assert!(q.push(2));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || qp.push(3));
        // The producer can only finish once a slot frees up.
        assert_eq!(q.pop(0), Some(1));
        assert!(producer.join().unwrap());
        q.close();
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), Some(3));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn turnstile_grants_steps_in_the_installed_order() {
        let q = Arc::new(BoundedQueue::with_order(8, Some(vec![1, 0, 1])));
        for i in 0..3 {
            q.push(i);
        }
        q.close();
        let q0 = Arc::clone(&q);
        let w0 = std::thread::spawn(move || std::iter::from_fn(|| q0.pop(0)).count());
        let q1 = Arc::clone(&q);
        let w1 = std::thread::spawn(move || std::iter::from_fn(|| q1.pop(1)).count());
        assert_eq!(w0.join().unwrap() + w1.join().unwrap(), 3);
        let steps: Vec<usize> = q.take_steps().iter().map(|s| s.worker).collect();
        assert_eq!(steps, vec![1, 0, 1]);
    }

    #[test]
    fn poisoned_lock_recovers_and_the_queue_keeps_serving() {
        // Regression for the poison-recovery audit fix: a thread that
        // panics while holding the state mutex poisons it, and every
        // subsequent `.lock().unwrap()` would have cascaded that panic
        // into the surviving workers. `unwrap_or_else(into_inner)` keeps
        // the queue serving instead.
        let q = Arc::new(BoundedQueue::new(4));
        q.push(1);
        let qp = Arc::clone(&q);
        std::thread::spawn(move || {
            let _g = qp.state.lock().unwrap();
            panic!("poison the queue mutex");
        })
        .join()
        .unwrap_err();
        assert!(q.state.is_poisoned());
        assert!(q.push(2), "push survives the poisoned lock");
        assert_eq!(q.pop(0), Some(1), "pop survives the poisoned lock");
        assert_eq!(q.pop(0), Some(2));
        q.close();
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn single_notify_never_strands_a_consumer() {
        // Regression for the wakeup-storm redesign: push wakes exactly one
        // consumer (`notify_one`) in free-for-all mode. If that ever lost
        // a wakeup — woke a consumer that could not make progress while a
        // hungry one slept — this drain would hang rather than complete.
        const ITEMS: usize = 256;
        let q = Arc::new(BoundedQueue::new(2));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let qc = Arc::clone(&q);
                std::thread::spawn(move || std::iter::from_fn(|| qc.pop(w)).count())
            })
            .collect();
        for i in 0..ITEMS {
            assert!(q.push(i));
        }
        q.close();
        let drained: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(drained, ITEMS, "every queued item reaches some consumer");
    }

    #[test]
    fn stats_count_traffic_and_blocking() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(10));
        let qp = Arc::clone(&q);
        // Queue is at capacity, so this push must block at least once.
        let producer = std::thread::spawn(move || qp.push(20));
        // `push` counts the wait under the lock before it blocks: pop
        // only once that happened, or the producer might never block.
        while q.stats().producer_waits == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.pop(0), Some(10));
        assert!(producer.join().unwrap());
        q.close();
        assert_eq!(q.pop(0), Some(20));
        // Drained + closed: this pop returns None without waiting.
        assert_eq!(q.pop(0), None);
        let stats = q.stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.pops, 2);
        assert!(stats.producer_waits >= 1, "{stats:?}");
    }

    #[test]
    fn steps_record_chunk_sequence() {
        let q = BoundedQueue::new(4);
        q.push("a");
        q.push("b");
        q.close();
        q.pop(7);
        q.pop(7);
        let steps = q.take_steps();
        assert_eq!(steps.len(), 2);
        assert_eq!((steps[0].worker, steps[0].chunk), (7, 0));
        assert_eq!((steps[1].worker, steps[1].chunk), (7, 1));
    }
}
