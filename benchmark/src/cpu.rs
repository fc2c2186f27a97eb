//! Process CPU time from `/proc/self/stat`, with the standard library only.
//!
//! `utime + stime` of the process counts every thread, including threads
//! that have already exited (their time is folded into the process on
//! exit), which is what a swarm run needs: its reactor workers are gone
//! by the time the run returns. The unit is `USER_HZ` clock ticks, which
//! the kernel fixes at 100 per second for user space, so the resolution
//! is 10 ms.

use std::io;
use std::time::Duration;

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`).
const USER_HZ: u64 = 100;

/// User plus system CPU time consumed so far by the whole process.
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or not in the documented format.
pub fn process_cpu() -> io::Result<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat(&stat).ok_or_else(|| io::Error::other("unexpected /proc/self/stat format"))
}

/// Seconds of CPU the process spent while `work` ran, with its result.
///
/// # Errors
///
/// When the CPU clock cannot be read.
pub fn measure<T>(work: impl FnOnce() -> T) -> io::Result<(T, f64)> {
    let before = process_cpu()?;
    let result = work();
    let after = process_cpu()?;
    Ok((result, after.saturating_sub(before).as_secs_f64()))
}

/// `utime + stime` from the text of a `stat` file. The command name in
/// field 2 may contain spaces and parentheses, so fields are counted from
/// the last `)`: `utime` and `stime` are fields 14 and 15 overall.
fn parse_stat(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let ticks = utime.checked_add(stime)?;
    Some(Duration::from_millis(ticks.checked_mul(1000 / USER_HZ)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::Mutex;
    use std::time::Instant;

    /// The clock is process-wide: tests that read it must not overlap.
    static CLOCK: Mutex<()> = Mutex::new(());

    fn spin(for_how_long: Duration) -> u64 {
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < for_how_long {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        x
    }

    #[test]
    fn parses_the_documented_layout() {
        let line = "42 (a) b) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_stat(line), Some(Duration::from_millis(2_800)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn advances_under_a_busy_loop() {
        let _serial = CLOCK.lock().expect("no test panicked holding the clock");
        let ((), cpu) = measure(|| {
            spin(Duration::from_millis(300));
        })
        .expect("cpu clock readable");
        assert!(cpu >= 0.2, "300 ms of spinning read as {cpu} s");
    }

    #[test]
    fn counts_threads_that_have_exited() {
        let _serial = CLOCK.lock().expect("no test panicked holding the clock");
        let ((), cpu) = measure(|| {
            std::thread::spawn(|| spin(Duration::from_millis(300))).join().expect("spinner");
        })
        .expect("cpu clock readable");
        assert!(cpu >= 0.2, "a joined thread's 300 ms read as {cpu} s");
    }
}
