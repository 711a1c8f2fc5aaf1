//! The benchmark's only reads of the host: wall-clock time and the
//! process's peak resident set. Everything else in `msbench` (and in
//! the simulator) is a pure function of the seed.

// simlint::allow(D002): the benchmark times the simulator from outside; a reading never enters simulated state, a count or a fingerprint
use std::time::Instant as WallClock;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(WallClock);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(WallClock::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Time one call; returns its result and the seconds it took.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let sw = Stopwatch::start();
        let out = f();
        (out, sw.elapsed_s())
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`), `None` where the file or the field is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_a_status_file() {
        let status = "Name:\tmsbench\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn stopwatch_runs_forward() {
        let (v, s) = Stopwatch::time(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(s >= 0.0);
    }
}
