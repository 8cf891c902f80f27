//! Wall-clock guard: every simulator call runs on one long-lived runner
//! thread while the caller waits, parked, with a deadline.
//!
//! A call that panics is reported as [`Outcome::Panicked`]. A call that
//! overruns the deadline is reported as [`Outcome::Hung`] and poisons the
//! guard: the runner is stuck inside the simulator (a panicked cluster
//! worker leaves the runtime's coordinating thread at its barrier
//! forever), so no further call is started and the caller ends the run.
//! At most one simulator call is in flight at any moment, so the
//! benchmark never holds more runnable threads than the simulator itself
//! spawns: the caller is parked while the runner works.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

/// How one guarded call ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// Returned normally.
    Done(T),
    /// Panicked, with the panic message.
    Panicked(String),
    /// Overran the deadline (or the guard was already poisoned).
    Hung,
}

/// The runner thread and its deadline.
pub struct Guard {
    jobs: Option<Sender<Job>>,
    runner: Option<JoinHandle<()>>,
    limit: Duration,
    hung: bool,
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Guard {
    /// Spawns the runner; each call may take at most `limit` of wall time.
    pub fn new(limit: Duration) -> Self {
        let (tx, rx) = channel::<Job>();
        let runner = std::thread::Builder::new()
            .name("simbench-runner".into())
            .spawn(move || {
                for job in rx {
                    job();
                }
            })
            .expect("spawning the runner thread");
        Guard {
            jobs: Some(tx),
            runner: Some(runner),
            limit,
            hung: false,
        }
    }

    /// Whether a call has overrun its deadline.
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Runs `f` on the runner thread and waits for it, up to the limit.
    pub fn run<T, F>(&mut self, f: F) -> Outcome<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.hung {
            return Outcome::Hung;
        }
        let (tx, rx): (Sender<std::thread::Result<T>>, Receiver<_>) = channel();
        let job: Job = Box::new(move || {
            // The receiver is gone only if the caller gave up on this
            // call; nobody is left to tell.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        self.jobs
            .as_ref()
            .expect("jobs sender lives until drop")
            .send(job)
            .expect("the runner outlives every job it has not finished");
        match rx.recv_timeout(self.limit) {
            Ok(Ok(v)) => Outcome::Done(v),
            Ok(Err(p)) => Outcome::Panicked(panic_message(p.as_ref())),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                self.hung = true;
                Outcome::Hung
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // Closing the job channel ends the runner's loop. A hung runner
        // never returns from its call, so it is left behind for process
        // exit to reap rather than joined.
        drop(self.jobs.take());
        if let Some(h) = self.runner.take() {
            if !self.hung {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_panicked_and_hung() {
        let mut g = Guard::new(Duration::from_millis(300));
        assert!(matches!(g.run(|| 7), Outcome::Done(7)));
        match g.run(|| -> u32 { panic!("boom") }) {
            Outcome::Panicked(m) => assert!(m.contains("boom")),
            o => panic!("expected a panic, got {o:?}"),
        }
        // The runner survives a panicking call.
        assert!(matches!(g.run(|| 8), Outcome::Done(8)));
        // A call that never returns: the runner parks until the test
        // process exits.
        assert!(matches!(
            g.run(|| -> () {
                loop {
                    std::thread::park();
                }
            }),
            Outcome::Hung
        ));
        assert!(g.is_hung());
        // A poisoned guard starts nothing more.
        assert!(matches!(g.run(|| 9), Outcome::Hung));
    }
}
