//! Process-level readings from `/proc` (Linux; zeros elsewhere).

use std::fs;

/// `VmHWM` of this process in MiB — its peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// User + system CPU time of the whole process (exited threads included)
/// in milliseconds, at the kernel's 10 ms `USER_HZ` granularity.
pub fn cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(0.0)
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU (second field of its `schedstat`).
pub fn runq_wait_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}
