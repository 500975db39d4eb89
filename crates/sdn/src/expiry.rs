//! Expiry-ordered queues: how the controller and the service forget a
//! finished record once its deadline + horizon has passed (DESIGN.md
//! §10, "Forgetting finished work").
//!
//! A queue holds `(expiry, key)` pairs in a min-heap. Whoever owns the
//! records pops the keys whose expiry the clock has passed and decides
//! per key whether the record is still finished and still expired (a
//! key can be re-queued, or its record replaced, after it was pushed).
//! No timer and no walk over the retained records: each pop is
//! O(log n), and each record is pushed once per time it turns finished.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

#[derive(Clone, Copy, Debug)]
struct Entry<K> {
    at: f64,
    key: K,
}

impl<K: Ord> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl<K: Ord> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord> Eq for Entry<K> {}

/// Keys ordered by expiry time, earliest first.
#[derive(Clone, Debug)]
pub struct ExpiryQueue<K> {
    heap: BinaryHeap<Reverse<Entry<K>>>,
}

impl<K: Ord + Copy> Default for ExpiryQueue<K> {
    fn default() -> Self {
        ExpiryQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<K: Ord + Copy> ExpiryQueue<K> {
    /// Queues `key` to expire once the clock passes `at`.
    pub fn push(&mut self, at: f64, key: K) {
        self.heap.push(Reverse(Entry { at, key }));
    }

    /// Takes the earliest key whose expiry `now` has passed
    /// (`expiry < now`), if any.
    pub fn pop_expired(&mut self, now: f64) -> Option<K> {
        let Reverse(top) = self.heap.peek()?;
        if top.at.total_cmp(&now) != Ordering::Less {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e.key)
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_leave_in_expiry_order_once_passed() {
        let mut q = ExpiryQueue::default();
        q.push(3.0, 30usize);
        q.push(1.0, 10);
        q.push(2.0, 21);
        q.push(2.0, 20);
        assert_eq!(q.pop_expired(1.0), None, "expiry 1.0 has not passed at 1.0");
        assert_eq!(q.pop_expired(2.5), Some(10));
        assert_eq!(q.pop_expired(2.5), Some(20), "ties leave in key order");
        assert_eq!(q.pop_expired(2.5), Some(21));
        assert_eq!(q.pop_expired(2.5), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_expired(f64::INFINITY), Some(30));
        assert!(q.is_empty());
    }
}
