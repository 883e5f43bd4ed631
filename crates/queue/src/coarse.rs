use std::collections::VecDeque;
use std::fmt;

use cds_core::ConcurrentQueue;
use cds_sync::Mutex;

/// A coarse-grained lock-based queue: a `VecDeque` behind one mutex.
///
/// The baseline for experiment E3. Enqueuers and dequeuers exclude each
/// other even though they touch opposite ends of the queue — the exact
/// waste [`TwoLockQueue`](crate::TwoLockQueue) removes.
///
/// # Example
///
/// ```
/// use cds_core::ConcurrentQueue;
/// use cds_queue::CoarseQueue;
///
/// let q = CoarseQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// ```
pub struct CoarseQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> CoarseQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CoarseQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for CoarseQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> ConcurrentQueue<T> for CoarseQueue<T> {
    const NAME: &'static str = "coarse";

    fn enqueue(&self, value: T) {
        self.items.lock().push_back(value);
    }

    fn dequeue(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

impl<T> fmt::Debug for CoarseQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseQueue")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_order() {
        let q = CoarseQueue::new();
        q.enqueue('a');
        q.enqueue('b');
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some('a'));
        assert_eq!(q.dequeue(), Some('b'));
        assert_eq!(q.dequeue(), None);
    }
}
