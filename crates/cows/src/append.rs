//! An append-only table whose reads take no lock.
//!
//! The automaton's state table and the symbol interner's string table are
//! written rarely (once per new state or string) and read on every replay
//! step by every worker thread. Behind a `RwLock<Vec<_>>` each read is a
//! read-modify-write of the lock word, a cache line all readers bounce
//! between cores. [`AppendOnly`] stores its slots in power-of-two buckets
//! that are never moved or freed while the table lives: bucket `b` holds
//! the `2^b` indices `2^b - 1 ..= 2^(b+1) - 2`, allocated on the first push
//! that reaches it. A slot is a [`OnceLock`], so a read is two acquire
//! loads (bucket pointer, slot) and returns a borrow of the stored value.
//! Appends are serialized by one mutex, as the `Vec` write lock serialized
//! them before.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Buckets needed to address every `u32` index: bucket 31 ends at
/// `2^32 - 2`.
const BUCKETS: usize = 32;

/// Bucket and offset of `index`.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let k = index + 1;
    let bucket = (usize::BITS - 1 - k.leading_zeros()) as usize;
    (bucket, k - (1 << bucket))
}

/// An append-only sequence of `T` with lock-free indexed reads. Nothing is
/// allocated until the first push.
pub(crate) struct AppendOnly<T> {
    buckets: [OnceLock<Box<[OnceLock<T>]>>; BUCKETS],
    /// Number of filled slots; every slot below it is set.
    len: AtomicUsize,
    push: Mutex<()>,
}

impl<T> AppendOnly<T> {
    pub(crate) fn new() -> AppendOnly<T> {
        AppendOnly {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            push: Mutex::new(()),
        }
    }

    /// Number of values pushed so far. Every index below it resolves.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The value at `index`, if it has been pushed.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        let (bucket, offset) = locate(index);
        self.buckets.get(bucket)?.get()?.get(offset)?.get()
    }

    /// Append `value`, returning its index and a borrow of the stored copy.
    pub(crate) fn push(&self, value: T) -> (usize, &T) {
        let _serialized = self.push.lock();
        let index = self.len.load(Ordering::Relaxed);
        let (bucket, offset) = locate(index);
        let slots = self
            .buckets
            .get(bucket)
            .expect("append-only table full")
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        let slot = &slots[offset];
        assert!(slot.set(value).is_ok(), "slot {index} pushed twice");
        self.len.store(index + 1, Ordering::Release);
        (index, slot.get().expect("slot was just set"))
    }

    /// The values pushed so far, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map(|i| self.get(i).expect("slots below len are set"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        assert_eq!(locate(3), (2, 0));
        assert_eq!(locate(6), (2, 3));
        assert_eq!(locate(7), (3, 0));
        assert_eq!(locate(1022), (9, 511));
        assert_eq!(locate(1023), (10, 0));
        assert_eq!(locate(u32::MAX as usize - 1), (31, (1 << 31) - 1));
    }

    #[test]
    fn ids_on_bucket_boundaries_round_trip() {
        let table = AppendOnly::new();
        for i in 0..1030usize {
            let (index, stored) = table.push(i.to_string());
            assert_eq!(index, i);
            assert_eq!(*stored, i.to_string());
        }
        assert_eq!(table.len(), 1030);
        for i in [0, 1, 2, 3, 6, 7, 14, 15, 1022, 1023, 1029] {
            assert_eq!(
                table.get(i).map(String::as_str),
                Some(i.to_string().as_str())
            );
        }
        assert_eq!(table.get(1030), None);
        assert_eq!(table.get(u32::MAX as usize), None);
        assert!(table.iter().enumerate().all(|(i, s)| *s == i.to_string()));
    }

    #[test]
    fn a_new_table_allocates_nothing() {
        let table: AppendOnly<u64> = AppendOnly::new();
        assert_eq!(table.len(), 0);
        assert!(table.buckets.iter().all(|b| b.get().is_none()));
        assert_eq!(table.get(0), None);
    }
}
