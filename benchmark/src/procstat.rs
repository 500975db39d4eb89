//! CPU time and peak memory of a process, read from `/proc`.

use std::fs;

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks. The second
/// field (the command name) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `AT_CLKTCK` from an ELF auxiliary vector (native-endian word pairs).
pub fn parse_auxv_clk_tck(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    auxv.chunks_exact(2 * WORD).find_map(|pair| {
        let word = |b: &[u8]| {
            let mut buf = [0u8; 8];
            buf[..WORD].copy_from_slice(b);
            u64::from_ne_bytes(buf)
        };
        (word(&pair[..WORD]) == AT_CLKTCK).then(|| word(&pair[WORD..]))
    })
}

/// Clock ticks per second of this machine (100 when the auxiliary
/// vector cannot be read, the Linux default).
pub fn clk_tck() -> u64 {
    fs::read("/proc/self/auxv")
        .ok()
        .and_then(|a| parse_auxv_clk_tck(&a))
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// On-CPU nanoseconds, the first field of `/proc/<pid>/schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds consumed so far by `pid`: the scheduler's nanosecond
/// count where the kernel exposes it (every process measured here has
/// one thread), else `utime + stime` in 10 ms clock ticks.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    if let Some(ns) = fs::read_to_string(format!("/proc/{pid}/schedstat"))
        .ok()
        .and_then(|s| parse_schedstat_ns(&s))
    {
        return Some(ns as f64 / 1e9);
    }
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_ticks(&stat)? as f64 / clk_tck() as f64)
}

/// Resets this process's peak-resident-set watermark to its current
/// resident set (`echo 5 > /proc/self/clear_refs`), so that a later
/// [`peak_rss_mb`] reads the peak since now rather than since exec.
/// Best effort: where the kernel refuses, the watermark just stays.
pub fn reset_own_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of `pid`, in MB (1e6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_command_names() {
        let stat = "4242 (taps (serviced) x) S 1 4242 4242 0 -1 4194304 1200 0 3 0 \
                    731 19 0 0 20 0 1 0 8812345 12345678 900 18446744073709551615 1 1 0";
        assert_eq!(parse_stat_ticks(stat), Some(750));
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(parse_schedstat_ns("1390177 218150 1\n"), Some(1_390_177));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\ttaps-serviced\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn auxv_clock_tick_entry_is_found() {
        let mut auxv = Vec::new();
        for (k, v) in [(6usize, 4096usize), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clk_tck(&auxv), Some(100));
        assert_eq!(parse_auxv_clk_tck(&auxv[..16]), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
    }
}
