//! Minimal, offline drop-in for the subset of [rayon](https://crates.io/crates/rayon)
//! this workspace uses: `par_iter()` / `into_par_iter()` followed by
//! `.map(..).collect()`, and `par_chunks_mut(size).enumerate().for_each(..)`.
//!
//! The build environment has no crates-io access, so this shim provides
//! the same names with a real work-stealing-free but genuinely parallel
//! implementation: items are distributed to `available_parallelism()`
//! scoped threads through an atomic cursor, and results are written
//! back into their original slots, so collection order is identical to
//! the serial order (the property the campaign/scan determinism tests
//! rely on).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Number of worker threads used for parallel sections.
fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f` over `items` in parallel, preserving order.
fn par_map_vec<T: Send, R: Send, F>(items: Vec<T>, f: F) -> Vec<R>
where
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = workers().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Hand out items through an atomic cursor; slots are pre-allocated
    // so each worker writes results back in place.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each slot is taken exactly once");
                let r = f(item);
                *outputs[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("worker filled slot"))
        .collect()
}

/// A materialized parallel iterator: the items to fan out plus the
/// mapping stage, evaluated on `collect`.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The `map` adapter of [`ParIter`].
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    /// Attach the mapping stage.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParMap { items: self.items, f }
    }
}

/// Terminal operations shared by the adapters (the shim only needs
/// `collect`).
pub trait ParallelIterator {
    /// The produced item type.
    type Item: Send;

    /// Evaluate in parallel into an ordered `Vec`.
    fn to_vec(self) -> Vec<Self::Item>;

    /// Evaluate and collect into any `FromIterator` container,
    /// preserving the serial order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C
    where
        Self: Sized,
    {
        self.to_vec().into_iter().collect()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn to_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParallelIterator for ParMap<T, F> {
    type Item = R;
    fn to_vec(self) -> Vec<R> {
        par_map_vec(self.items, self.f)
    }
}

/// `into_par_iter()` — consuming conversion.
pub trait IntoParallelIterator {
    /// Item type of the produced iterator.
    type Item: Send;
    /// Convert into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter { items: self.collect() }
    }
}

/// `par_iter()` — borrowing conversion.
pub trait IntoParallelRefIterator<'a> {
    /// Item type of the produced iterator (a shared reference).
    type Item: Send;
    /// Convert into a [`ParIter`] over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// `par_chunks_mut()` — disjoint mutable chunks of a slice, processed
/// in parallel.
pub trait ParallelSliceMut<T: Send> {
    /// Split into chunks of `chunk_size` elements (the last may be
    /// shorter), in order. Panics when `chunk_size == 0`, as rayon does.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut { slice: self, chunk_size }
    }
}

/// The parallel iterator of [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ChunksMut<'a, T> {
    /// Pair every chunk with its index.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut { chunks: self }
    }
}

/// The `enumerate` adapter of [`ChunksMut`].
pub struct EnumerateChunksMut<'a, T> {
    chunks: ChunksMut<'a, T>,
}

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Call `f((index, chunk))` once per chunk. Chunks are handed out
    /// through the same atomic cursor as `map`; a slice that fits in
    /// one chunk runs on the calling thread.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync + Send,
    {
        let ChunksMut { slice, chunk_size } = self.chunks;
        par_map_vec(slice.chunks_mut(chunk_size).enumerate().collect(), f);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn par_iter_over_refs() {
        let data: Vec<String> = (0..64).map(|i| format!("x{}", i)).collect();
        let lens: Vec<usize> = data.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens[0], 2);
        assert_eq!(lens[10], 3);
        assert_eq!(lens.len(), 64);
    }

    #[test]
    fn empty_input() {
        let v: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once_with_its_index_and_bounds() {
        use std::sync::Mutex;
        for (len, size) in [(0usize, 3usize), (1, 3), (3, 3), (1000, 64), (1024, 64), (7, 100)] {
            let mut data: Vec<usize> = (0..len).collect();
            let seen = Mutex::new(Vec::new());
            data.par_chunks_mut(size).enumerate().for_each(|(i, chunk)| {
                seen.lock().unwrap().push((i, chunk.first().copied(), chunk.len()));
                for v in chunk.iter_mut() {
                    *v = i;
                }
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let expected: Vec<_> = (0..len.div_ceil(size))
                .map(|i| (i, Some(i * size), size.min(len - i * size)))
                .collect();
            assert_eq!(seen, expected, "len {} size {}", len, size);
            assert!(data.iter().enumerate().all(|(at, &i)| i == at / size));
        }
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = [0u8; 16];
        data.par_chunks_mut(16).enumerate().for_each(|(_, _)| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    #[should_panic(expected = "chunk_size must not be zero")]
    fn zero_chunk_size_panics() {
        [0u8; 4].par_chunks_mut(0);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..256usize)
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            })
            .collect();
        let distinct = seen.lock().unwrap().len();
        if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) > 1 {
            assert!(distinct >= 1); // >1 on multi-core, but never flaky.
        }
    }
}
