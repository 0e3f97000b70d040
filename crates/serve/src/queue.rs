//! Bounded admission queue with explicit backpressure.
//!
//! The whole point of admission control is that the queue can say *no*: a
//! full queue rejects at the door (the caller gets `retry_after` guidance)
//! instead of growing without bound until the process dies of memory
//! pressure. The queue also tracks its high-watermark so a soak run can
//! prove the bound was never exceeded.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later.
    Full {
        /// The fixed capacity that was hit.
        capacity: usize,
    },
    /// The queue is closed (engine shutting down); retrying is pointless.
    Closed,
}

/// Result of a pop.
#[derive(Debug)]
pub enum Popped<T> {
    /// An item was dequeued.
    Item(T),
    /// Nothing was available (within the timeout, for a blocking pop).
    Empty,
    /// The queue is closed *and* drained; the worker should exit.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// A fixed-capacity MPMC queue: non-blocking producers (admission control),
/// blocking consumers (workers), and a non-blocking pop for a worker that
/// gathers only what is already queued.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false, max_depth: 0 }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking enqueue. Returns the depth *after* the push on success,
    /// so admission control can log exactly how full the system was. On
    /// refusal the item is handed back so the caller can respond to it.
    pub fn try_push(&self, item: T) -> Result<usize, (T, PushError)> {
        let mut st = self.inner.lock().unwrap();
        if st.closed {
            return Err((item, PushError::Closed));
        }
        if st.items.len() >= self.capacity {
            return Err((item, PushError::Full { capacity: self.capacity }));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        st.max_depth = st.max_depth.max(depth);
        drop(st);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocking dequeue with a timeout. A closed queue keeps yielding its
    /// remaining items (drain-then-exit) and only reports [`Popped::Closed`]
    /// once empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Popped<T> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                return Popped::Item(item);
            }
            if st.closed {
                return Popped::Closed;
            }
            let (next, res) = self.not_empty.wait_timeout(st, timeout).unwrap();
            st = next;
            if res.timed_out() {
                return match st.items.pop_front() {
                    Some(item) => Popped::Item(item),
                    None if st.closed => Popped::Closed,
                    None => Popped::Empty,
                };
            }
        }
    }

    /// Non-blocking dequeue: the head item if there is one, else
    /// [`Popped::Empty`] at once, never entering the condvar wait. Like
    /// [`BoundedQueue::pop_timeout`], a closed queue yields its remaining
    /// items before it reports [`Popped::Closed`].
    pub fn try_pop(&self) -> Popped<T> {
        let mut st = self.inner.lock().unwrap();
        match st.items.pop_front() {
            Some(item) => Popped::Item(item),
            None if st.closed => Popped::Closed,
            None => Popped::Empty,
        }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest depth ever observed (the bound-proof for soak tests).
    pub fn max_depth(&self) -> usize {
        self.inner.lock().unwrap().max_depth
    }

    /// Closes the queue: producers are refused, consumers drain what is
    /// left and then see [`Popped::Closed`].
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_reports_depth_and_full() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        // The refused item comes back with the error.
        assert_eq!(q.try_push(3), Err((3, PushError::Full { capacity: 2 })));
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_drains_fifo_then_times_out() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert!(matches!(q.pop_timeout(Duration::from_millis(1)), Popped::Item("a")));
        assert!(matches!(q.pop_timeout(Duration::from_millis(1)), Popped::Item("b")));
        assert!(matches!(q.pop_timeout(Duration::from_millis(1)), Popped::Empty));
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err((8, PushError::Closed)));
        assert!(matches!(q.pop_timeout(Duration::from_millis(1)), Popped::Item(7)));
        assert!(matches!(q.pop_timeout(Duration::from_millis(1)), Popped::Closed));
    }

    #[test]
    fn try_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        for i in 1..=3 {
            q.try_push(i).unwrap();
        }
        for i in 1..=3 {
            assert!(matches!(q.try_pop(), Popped::Item(x) if x == i));
        }
    }

    #[test]
    fn try_pop_on_an_empty_queue_returns_at_once() {
        let q = BoundedQueue::<u32>::new(1);
        let t0 = std::time::Instant::now();
        assert!(matches!(q.try_pop(), Popped::Empty));
        // No wait at all; the bound only absorbs a descheduled thread.
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn try_pop_drains_a_closed_queue_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.try_push(8).unwrap();
        q.close();
        assert!(matches!(q.try_pop(), Popped::Item(7)));
        assert!(matches!(q.try_pop(), Popped::Item(8)));
        assert!(matches!(q.try_pop(), Popped::Closed));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            matches!(q2.pop_timeout(Duration::from_secs(30)), Popped::Closed)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap());
    }

    #[test]
    fn max_depth_never_exceeds_capacity() {
        let q = BoundedQueue::new(3);
        for i in 0..10 {
            let _ = q.try_push(i);
            if i % 2 == 0 {
                let _ = q.pop_timeout(Duration::from_millis(1));
            }
        }
        assert!(q.max_depth() <= 3);
    }
}
