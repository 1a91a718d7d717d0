//! The benchmark's only wall-clock reads.
//!
//! The repository's determinism lint rejects `Instant` outside an
//! explicit `lint:allow(wall-clock)` marker. Host time is what this
//! benchmark measures, so every read lives here, each marked, and the
//! rest of the benchmark calls [`Stopwatch`].

// lint:allow(wall-clock)
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    // lint:allow(wall-clock)
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            // lint:allow(wall-clock)
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`start`](Self::start).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`start`](Self::start).
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
