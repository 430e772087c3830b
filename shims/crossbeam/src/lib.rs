//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the `channel` module subset used by this workspace is provided —
//! what `dl-framework`'s autograd hand-over calls: `unbounded()`,
//! `Sender::{send, clone}` and `Receiver::recv`, over a `VecDeque` behind
//! a mutex with two condition variables. `send` and `recv` are kept
//! exactly as they were when the shim also had bounded channels (the
//! capacity check and the `not_full` wait included): the simulated
//! substrate's timing is the repo benchmark's denominator.

#![forbid(unsafe_code)]

/// Multi-producer channels (crossbeam-channel API subset).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    /// Error returned by [`Sender::send`] when the channel is disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv` — senders skip the condvar notify
        /// entirely when nobody is waiting, keeping the uncontended send
        /// path to one lock round-trip.
        recv_waiters: usize,
        /// Senders blocked in `send` (none: every channel is unbounded).
        send_waiters: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `usize::MAX`: every channel is unbounded.
        cap: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                // Wake receivers blocked on an empty queue so they can
                // observe the disconnect.
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a message. Fails only if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.queue.len() < self.0.cap {
                    state.queue.push_back(value);
                    let wake = state.recv_waiters > 0;
                    drop(state);
                    if wake {
                        self.0.not_empty.notify_one();
                    }
                    return Ok(());
                }
                state.send_waiters += 1;
                state = self
                    .0
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.send_waiters -= 1;
            }
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    let wake = state.send_waiters > 0;
                    drop(state);
                    if wake {
                        self.0.not_full.notify_one();
                    }
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.recv_waiters += 1;
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.recv_waiters -= 1;
            }
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiters: 0,
                send_waiters: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: usize::MAX,
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
        }

        #[test]
        fn recv_errors_when_senders_dropped() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn cloned_senders_feed_one_receiver() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(1).unwrap())
                .join()
                .unwrap();
            tx.send(2).unwrap();
            let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
            got.sort();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn send_errors_when_receivers_dropped() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }
    }
}
