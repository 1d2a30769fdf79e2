//! The admission gate for heavy requests: a bounded number of run slots
//! and a bounded wait for one. Requests are never handed off; each waits
//! on its own connection thread and runs there once it holds a slot.

use std::sync::{Condvar, Mutex, MutexGuard};

use netexpl_obs::SharedMetrics;

/// At most `slots` heavy requests run at once and at most `room` more
/// wait for a slot; [`Admission::enter`] sheds the rest.
pub(crate) struct Admission {
    /// `(running, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    slots: usize,
    room: usize,
}

/// A running request's slot, given back on drop.
pub(crate) struct Permit<'a>(&'a Admission);

impl Admission {
    pub(crate) fn new(slots: usize, room: usize) -> Admission {
        Admission {
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
            slots: slots.max(1),
            room: room.max(1),
        }
    }

    // Each update is one counter step that a panic cannot interrupt, so
    // a poisoned state is still valid.
    fn lock(&self) -> MutexGuard<'_, (usize, usize)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a slot, first waiting for one while every slot is busy; `None`
    /// (shed) when the waiting room is full too. The gauge tracks the
    /// waiting count.
    pub(crate) fn enter(&self, metrics: &SharedMetrics) -> Option<Permit<'_>> {
        let mut state = self.lock();
        if state.0 >= self.slots {
            if state.1 >= self.room {
                return None;
            }
            state.1 += 1;
            metrics.gauge_set("serve.queue_depth", state.1 as i64);
            while state.0 >= self.slots {
                state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.1 -= 1;
            metrics.gauge_set("serve.queue_depth", state.1 as i64);
        }
        state.0 += 1;
        Some(Permit(self))
    }

    /// Requests waiting for a slot right now.
    pub(crate) fn waiting(&self) -> usize {
        self.lock().1
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().0 -= 1;
        self.0.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Start `n` threads that each wait for a slot, take it, and give it
    /// straight back; returns once all `n` are waiting.
    fn spawn_waiters<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        gate: &'s Admission,
        metrics: &'s SharedMetrics,
        n: usize,
    ) -> Vec<std::thread::ScopedJoinHandle<'s, bool>> {
        let waiters = (0..n)
            .map(|_| s.spawn(|| gate.enter(metrics).is_some()))
            .collect();
        while gate.waiting() < n {
            std::thread::yield_now();
        }
        waiters
    }

    #[test]
    fn push_pop_respects_capacity() {
        // One slot and two waiting places: the first request runs, the
        // next two wait, the fourth is shed.
        let gate = Admission::new(1, 2);
        let metrics = SharedMetrics::new();
        let running = gate.enter(&metrics).expect("a free slot admits at once");
        std::thread::scope(|s| {
            let waiters = spawn_waiters(s, &gate, &metrics, 2);
            assert_eq!(metrics.gauge("serve.queue_depth"), Some(2));
            assert!(
                gate.enter(&metrics).is_none(),
                "slot and waiting room both full: shed"
            );
            drop(running);
            for waiter in waiters {
                assert!(waiter.join().unwrap(), "each freed slot admits a waiter");
            }
        });
        assert_eq!(metrics.gauge("serve.queue_depth"), Some(0));
        assert_eq!(*gate.lock(), (0, 0), "every permit gave its slot back");
        assert!(
            gate.enter(&metrics).is_some(),
            "a freed slot admits at once"
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        // Zero slots and zero waiting places are clamped to one each.
        let gate = Admission::new(0, 0);
        let metrics = SharedMetrics::new();
        let running = gate.enter(&metrics).expect("a free slot admits at once");
        std::thread::scope(|s| {
            let waiters = spawn_waiters(s, &gate, &metrics, 1);
            assert_eq!(metrics.gauge("serve.queue_depth"), Some(1));
            assert!(
                gate.enter(&metrics).is_none(),
                "slot and waiting room both full: shed"
            );
            drop(running);
            for waiter in waiters {
                assert!(waiter.join().unwrap(), "a freed slot admits the waiter");
            }
        });
        assert_eq!(*gate.lock(), (0, 0), "every permit gave its slot back");
    }
}
