//! CPU time and peak memory of a process, read from `/proc`.

use std::ffi::c_long;

extern "C" {
    fn sysconf(name: i32) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU times.
fn ticks_per_second() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// User + system CPU ticks from the text of a `/proc/<pid>/stat` file:
/// fields 14 and 15 (`utime`, `stime`), counted after the parenthesised
/// command name, which may itself contain spaces and parentheses.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // After the comm, field 3 (state) is the first; utime is field 14.
    let utime: u64 = fields.nth(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`
/// (the `VmHWM:` line).
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User + system CPU seconds consumed so far by every thread of `pid`
/// (`"self"` for this process).
pub fn cpu_seconds(pid: &str) -> std::io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_ticks(&text).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "unparsable /proc stat")
    })?;
    Ok(ticks as f64 / ticks_per_second())
}

/// Peak resident set size of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> std::io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = parse_vm_hwm_kb(&text).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM in /proc status")
    })?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_sum_utime_and_stime() {
        let line = "4242 (patchdb) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    731 96 0 0 20 0 5 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(731 + 96));
    }

    #[test]
    fn stat_comm_may_hold_spaces_and_parens() {
        let line = "77 (a (b) c) R 1 77 77 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 9 9 9";
        assert_eq!(parse_stat_ticks(line), Some(15));
    }

    #[test]
    fn stat_rejects_truncated_text() {
        assert_eq!(parse_stat_ticks("77 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_ticks("no parens here"), None);
    }

    #[test]
    fn live_self_stat_parses() {
        let busy: u64 = (0..2_000_000u64).map(|i| i.wrapping_mul(i) % 7).sum();
        assert!(busy > 0);
        assert!(cpu_seconds("self").unwrap() >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_line_is_found() {
        let status = "Name:\tpatchdb\nVmPeak:\t  900 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
