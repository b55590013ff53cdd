//! Offline stand-in for `crossbeam`: scoped threads with the crossbeam
//! calling convention (`scope` returns a `Result`, spawned closures
//! receive the scope), implemented over `std::thread::scope`.

/// Scoped threads.
pub mod thread {
    use std::any::Any;

    /// A thread-spawning scope; structurally borrows from the enclosing
    /// environment like `crossbeam::thread::Scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope so it
        /// can spawn further threads, as in crossbeam.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: for<'a> FnOnce(&'a Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f` with a scope; all spawned threads are joined before
    /// returning. A panicking child propagates as a panic from the std
    /// scope, so `Err` is never actually constructed — the `Result`
    /// only preserves crossbeam's signature for callers that `expect`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_threads_share_stack_data() {
        let counter = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| counter.fetch_add(1, Ordering::SeqCst));
            }
        })
        .expect("no panics");
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_spawn_from_child() {
        let counter = AtomicUsize::new(0);
        thread::scope(|scope| {
            scope.spawn(|inner| {
                inner.spawn(|_| counter.fetch_add(1, Ordering::SeqCst));
            });
        })
        .expect("no panics");
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
