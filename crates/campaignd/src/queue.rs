//! Bounded FIFO submission queue with blocking consumption.
//!
//! The campaign server executes submissions strictly in arrival order
//! on a single executor thread: HTTP handler threads enqueue with
//! [`SubmissionQueue::try_enqueue`] (refused — the server's 503 — when
//! the queue is at capacity) and the executor drains with
//! [`SubmissionQueue::next_job`]. One consumer plus FIFO order is what
//! makes concurrent submissions deterministic: result streams are
//! produced one campaign at a time, never interleaved.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// A bounded multi-producer single-consumer FIFO queue.
#[derive(Debug)]
pub struct SubmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> SubmissionQueue<T> {
    /// A queue admitting at most `capacity` waiting items. Zero is
    /// legal and refuses every enqueue — the configuration the
    /// overflow tests use to force a deterministic 503.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// A poisoned queue mutex means a producer or the consumer panicked
    /// mid-operation; the queue's state (a VecDeque and a bool) is
    /// valid under any interleaving, so recover the guard instead of
    /// propagating the panic into every other connection thread.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends `item` unless the queue is full or closed; the item
    /// comes back in the error so the caller can answer the client.
    ///
    /// # Errors
    ///
    /// Returns `item` itself when the queue is at capacity or closed.
    pub fn try_enqueue(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item in FIFO order; `None` once the queue is
    /// closed and drained.
    pub fn next_job(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = match self.ready.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: pending items still drain, new enqueues are
    /// refused, and the consumer unblocks once empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting (excludes anything already dequeued).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether no items are waiting.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_is_preserved() {
        let q = SubmissionQueue::new(8);
        for i in 0..5 {
            q.try_enqueue(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.next_job()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn capacity_overflow_returns_the_item() {
        let q = SubmissionQueue::new(2);
        assert_eq!(q.try_enqueue("a"), Ok(()));
        assert_eq!(q.try_enqueue("b"), Ok(()));
        assert_eq!(q.try_enqueue("c"), Err("c"));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let q = SubmissionQueue::new(0);
        assert_eq!(q.try_enqueue(1), Err(1));
        assert!(q.is_empty());
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q = Arc::new(SubmissionQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.next_job());
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.try_enqueue(7), Err(7), "closed queue refuses enqueues");
    }

    #[test]
    fn producers_from_many_threads_all_arrive() {
        let q = Arc::new(SubmissionQueue::new(64));
        let producers: Vec<_> = (0..8)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.try_enqueue(i).is_ok())
            })
            .collect();
        for p in producers {
            assert!(p.join().unwrap());
        }
        q.close();
        let mut drained: Vec<i32> = std::iter::from_fn(|| q.next_job()).collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }
}
