//! CPU time and peak memory of the server processes, read from `/proc`
//! as text. No libc: the tick rate is the Linux constant, not a
//! `sysconf` call.
//!
//! CPU time is utime + stime. `/proc/<pid>/stat` reports it in 10 ms
//! ticks, which is a 5 % step on a window that burns 200 ms of CPU, so
//! the reader prefers the scheduler's own nanosecond count of the same
//! quantity (`/proc/<pid>/task/<tid>/schedstat`, summed over the
//! process's threads) and falls back to the ticks where the kernel does
//! not expose it.

/// `USER_HZ`: what `/proc/<pid>/stat` counts CPU time in. Fixed at 100
/// on every Linux ABI this benchmark runs on.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    pub state: char,
    pub ppid: u32,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl ProcStat {
    pub fn cpu_ms(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 * 1000.0 / TICKS_PER_SECOND
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let close = text.rfind(')')?;
    let mut rest = text[close + 1..].split_ascii_whitespace();
    // after the comm: state(3) ppid(4) ... utime(14) stime(15)
    let state = rest.next()?.chars().next()?;
    let ppid = rest.next()?.parse().ok()?;
    let mut rest = rest.skip(9);
    let utime_ticks = rest.next()?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(ProcStat {
        state,
        ppid,
        utime_ticks,
        stime_ticks,
    })
}

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// On-CPU nanoseconds from one `schedstat` line
/// (`<run_ns> <wait_ns> <timeslices>`).
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// On-CPU time of every live thread of `pid`, in milliseconds.
fn read_sched_cpu_ms(pid: u32) -> Option<f64> {
    let mut total_ns = 0u64;
    let mut threads = 0usize;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // a thread may exit between the listing and the read
        if let Some(ns) = std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(parse_schedstat_run_ns)
        {
            total_ns += ns;
            threads += 1;
        }
    }
    (threads > 0).then_some(total_ns as f64 / 1e6)
}

pub fn read_stat(pid: u32) -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

pub fn read_vm_hwm_kib(pid: u32) -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Whether `pid` still runs. A zombie has exited and only waits for its
/// parent to reap it, so it does not count.
pub fn alive(pid: u32) -> bool {
    read_stat(pid).is_some_and(|s| s.state != 'Z' && s.state != 'X')
}

/// Summed CPU milliseconds of `pids` (exited ones contribute nothing).
pub fn cpu_ms(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|&p| read_sched_cpu_ms(p).or_else(|| read_stat(p).map(|s| s.cpu_ms())))
        .sum()
}

/// Summed peak resident set of `pids`, in MiB.
pub fn rss_peak_mib(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|&p| read_vm_hwm_kib(p))
        .map(|kib| kib as f64 / 1024.0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (fvtool) S 4100 4242 4100 34816 4242 4194304 1523 0 0 0 \
                        187 23 0 0 20 0 3 0 8812345 25165824 2817 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 17474 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    #[test]
    fn stat_fields_are_counted_after_the_comm() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(
            s,
            ProcStat {
                state: 'S',
                ppid: 4100,
                utime_ticks: 187,
                stime_ticks: 23
            }
        );
        assert_eq!(s.cpu_ms(), 2100.0);
    }

    #[test]
    fn comm_with_spaces_and_parens_does_not_shift_fields() {
        let tricky = STAT.replace("(fvtool)", "(fv tool) (x) 9)");
        assert_eq!(parse_stat(&tricky), parse_stat(STAT));
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 2"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat_run_ns("4090592 1218233 7\n"), Some(4090592));
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tfvtool\nVmPeak:\t  300000 kB\nVmHWM:\t   11264 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(11264));
        assert_eq!(parse_vm_hwm_kib("Name:\tkthreadd\n"), None);
    }

    #[test]
    fn this_process_is_alive_and_pid_zero_is_not() {
        assert!(alive(std::process::id()));
        assert!(!alive(0));
        assert!(cpu_ms(&[std::process::id()]) >= 0.0);
        assert!(rss_peak_mib(&[std::process::id()]) > 0.0);
    }
}
