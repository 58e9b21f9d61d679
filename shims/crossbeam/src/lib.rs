//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided, implemented over
//! `Mutex<VecDeque> + Condvar`. Semantics match the subset this
//! workspace relies on: MPSC-style use of MPMC channels, blocking
//! `recv`/`recv_timeout`, and disconnection when all senders or the
//! receiver side drop. `bounded` ignores its capacity (every channel is
//! unbounded), which is acceptable here because the runtime only uses
//! `bounded(1)` for single-shot reply channels.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        cond: Condvar,
    }

    /// Called (outside the channel lock) to wake a parked receiver.
    pub type Waker = Arc<dyn Fn() + Send + Sync>;

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `cond` right now.
        blocked: usize,
        /// A receiver is parked outside the channel and wants `waker`.
        parked: bool,
        waker: Option<Waker>,
    }

    impl<T> Inner<T> {
        /// Clears the parked flag and hands back the waker to call, if a
        /// receiver was parked.
        fn take_wake(&mut self) -> Option<Waker> {
            if std::mem::take(&mut self.parked) {
                self.waker.clone()
            } else {
                None
            }
        }
    }

    /// Sending half; clone freely.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; clone freely.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The channel is disconnected (no receivers remain).
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and disconnected.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a bounded-wait receive.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the deadline.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Outcome of a non-blocking receive.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                blocked: 0,
                parked: false,
                waker: None,
            }),
            cond: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates a "bounded" channel; the capacity is not enforced (see
    /// module docs).
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Sender<T> {
        /// Sends a value, failing if no receiver remains.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            let notify = inner.blocked > 0;
            let wake = inner.take_wake();
            drop(inner);
            if notify {
                self.shared.cond.notify_one();
            }
            if let Some(wake) = wake {
                wake();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                let wake = inner.take_wake();
                drop(inner);
                self.shared.cond.notify_all();
                if let Some(wake) = wake {
                    wake();
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.blocked += 1;
                inner = self.shared.cond.wait(inner).unwrap();
                inner.blocked -= 1;
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.shared.inner.lock().unwrap().queue.is_empty()
        }

        /// Number of values queued right now (a momentary reading, like
        /// the real crate's `len`).
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }

        /// Installs the waker a parked receiver is woken with (see
        /// [`Receiver::park`]); replaces any earlier one.
        pub fn set_waker(&self, waker: Waker) {
            self.shared.inner.lock().unwrap().waker = Some(waker);
        }

        /// Declares that this receiver is about to wait outside the
        /// channel. Refuses (returns `false`) while a value is queued or
        /// after every sender is gone — the caller must not wait then.
        /// Otherwise the next `send`, or the last sender's drop, calls
        /// the waker once and clears the flag.
        pub fn park(&self) -> bool {
            let mut inner = self.shared.inner.lock().unwrap();
            if !inner.queue.is_empty() || inner.senders == 0 {
                return false;
            }
            inner.parked = true;
            true
        }

        /// Ends a wait begun with [`Receiver::park`]: later sends no
        /// longer call the waker.
        pub fn unpark(&self) {
            self.shared.inner.lock().unwrap().parked = false;
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut inner = self.shared.inner.lock().unwrap();
            // The clock is read only once the queue is found empty: a
            // value already waiting costs no clock read.
            let mut deadline = None;
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.blocked += 1;
                let (guard, result) = self
                    .shared
                    .cond
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
                inner.blocked -= 1;
                if result.timed_out() && inner.queue.is_empty() {
                    return if inner.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.inner.lock().unwrap().receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::thread;

        #[test]
        fn send_recv_across_threads() {
            let (tx, rx) = unbounded();
            let t = thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<i32> = (0..100).map(|_| rx.recv().unwrap()).collect();
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_receiver_drops() {
            let (tx, rx) = bounded::<u8>(1);
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        fn counting_waker() -> (Waker, Arc<AtomicUsize>) {
            let calls = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&calls);
            let waker: Waker = Arc::new(move || {
                c.fetch_add(1, SeqCst);
            });
            (waker, calls)
        }

        #[test]
        fn send_while_parked_calls_the_waker_exactly_once() {
            let (tx, rx) = unbounded();
            let (waker, calls) = counting_waker();
            rx.set_waker(waker);
            tx.send(0).unwrap();
            assert_eq!(calls.load(SeqCst), 0, "not parked");
            assert_eq!(rx.try_recv(), Ok(0));
            assert!(rx.park());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(calls.load(SeqCst), 1, "once per park");
            rx.unpark();
            assert!(!rx.park(), "values are queued");
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert!(rx.park());
            rx.unpark();
            tx.send(3).unwrap();
            assert_eq!(calls.load(SeqCst), 1, "unparked");
        }

        #[test]
        fn park_refuses_while_a_message_is_queued() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            assert!(!rx.park());
            assert_eq!(rx.try_recv(), Ok(7));
            assert!(rx.park());
        }

        #[test]
        fn last_sender_drop_wakes_a_parked_receiver_into_disconnected() {
            let (tx, rx) = unbounded::<u8>();
            let (waker, calls) = counting_waker();
            rx.set_waker(waker);
            let tx2 = tx.clone();
            assert!(rx.park());
            drop(tx);
            assert_eq!(calls.load(SeqCst), 0, "a sender remains");
            drop(tx2);
            assert_eq!(calls.load(SeqCst), 1);
            rx.unpark();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert!(!rx.park(), "nothing could ever wake it");
        }

        #[test]
        fn blocked_receiver_is_still_notified() {
            let (tx, rx) = unbounded();
            let t = thread::spawn(move || rx.recv_timeout(Duration::from_secs(10)));
            thread::sleep(Duration::from_millis(20));
            tx.send(4).unwrap();
            assert_eq!(t.join().unwrap(), Ok(4));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        }
    }
}
