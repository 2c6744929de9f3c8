//! A throttled stderr progress meter for long sweeps.
//!
//! `Sync`: `update` is called from sweep worker threads; the last
//! print instant sits behind a mutex and the throttle keeps the lock
//! traffic to a few acquisitions per second.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between printed lines (the final line always
/// prints).
const PRINT_EVERY: Duration = Duration::from_millis(500);

/// Tracks `done`/`total` work units and periodically prints
/// `[label] done/total cells, rate cells/s, ETA`.
pub struct ProgressMeter {
    label: String,
    total: usize,
    start: Instant,
    last_print: Mutex<Option<Instant>>,
}

impl ProgressMeter {
    pub fn new(label: &str, total: usize) -> ProgressMeter {
        ProgressMeter::new_at(label, total, Instant::now())
    }

    /// Construction with an explicit start instant, so tests can
    /// drive the rate/ETA math with synthetic clocks.
    fn new_at(label: &str, total: usize, start: Instant) -> ProgressMeter {
        ProgressMeter {
            label: label.to_string(),
            total,
            start,
            last_print: Mutex::new(None),
        }
    }

    /// Record that `done` units are now complete and print a line if
    /// the throttle allows (always prints on completion).
    pub fn update(&self, done: usize) {
        if let Some(line) = self.update_at(done, Instant::now()) {
            eprintln!("{line}");
        }
    }

    /// The clock-injected core of [`update`](Self::update): returns
    /// the line to print, or `None` when the throttle suppresses it.
    fn update_at(&self, done: usize, now: Instant) -> Option<String> {
        let mut last_print = self.last_print.lock().expect("progress lock");
        let due = match *last_print {
            None => true,
            Some(at) => now.duration_since(at) >= PRINT_EVERY,
        };
        if !(due || done >= self.total) {
            return None;
        }
        *last_print = Some(now);
        let elapsed = now.duration_since(self.start).as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        Some(render_line(&self.label, done, self.total, rate))
    }
}

/// Render the progress line.
fn render_line(label: &str, done: usize, total: usize, rate: f64) -> String {
    let eta = if rate > 0.0 && total > done {
        format!("{:.0}s", (total - done) as f64 / rate)
    } else if done >= total {
        "done".to_string()
    } else {
        "?".to_string()
    };
    format!("[{label}] {done}/{total} cells, {rate:.1} cells/s, ETA {eta}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_renders_from_the_registry() {
        let line = render_line("fig13", 5, 10, 2.5);
        assert_eq!(line, "[fig13] 5/10 cells, 2.5 cells/s, ETA 2s");
    }

    #[test]
    fn throttle_window_suppresses_lines_between_prints() {
        let t0 = Instant::now();
        let meter = ProgressMeter::new_at("t", 100, t0);
        assert!(
            meter.update_at(1, t0 + Duration::from_millis(1)).is_some(),
            "first update always prints"
        );
        assert!(
            meter
                .update_at(2, t0 + Duration::from_millis(200))
                .is_none(),
            "inside the {PRINT_EVERY:?} window"
        );
        assert!(
            meter
                .update_at(3, t0 + Duration::from_millis(700))
                .is_some(),
            "window elapsed since the last print"
        );
        assert!(
            meter
                .update_at(4, t0 + Duration::from_millis(800))
                .is_none(),
            "window restarts at each print"
        );
    }

    #[test]
    fn rate_and_eta_math_from_a_synthetic_clock() {
        let t0 = Instant::now();
        let meter = ProgressMeter::new_at("fig13", 10, t0);
        // 4 cells in 2s → 2 cells/s → 6 remaining → ETA 3s.
        let line = meter.update_at(4, t0 + Duration::from_secs(2)).unwrap();
        assert_eq!(line, "[fig13] 4/10 cells, 2.0 cells/s, ETA 3s");
    }

    #[test]
    fn final_flush_prints_through_the_throttle() {
        let t0 = Instant::now();
        let meter = ProgressMeter::new_at("t", 10, t0);
        assert!(meter.update_at(1, t0 + Duration::from_millis(1)).is_some());
        // Completion lands inside the throttle window but must print,
        // and renders the terminal "done" ETA.
        let line = meter
            .update_at(10, t0 + Duration::from_millis(100))
            .expect("final line always flushes");
        assert!(line.ends_with("ETA done"), "{line}");
        assert!(line.starts_with("[t] 10/10 cells"), "{line}");
    }
}
