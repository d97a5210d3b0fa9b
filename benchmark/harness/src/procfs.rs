//! Process accounting read from `/proc/self` (Linux): CPU time and minor
//! faults from `stat`, peak resident set from `status`.

/// Kernel clock ticks per second for `utime`/`stime`. `sysconf(_SC_CLK_TCK)`
/// is 100 on every Linux ABI; reading it would need libc.
const CLK_TCK: f64 = 100.0;

/// The `/proc/<pid>/stat` fields the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStat {
    /// Minor page faults so far (field 10).
    pub minflt: u64,
    /// User + system CPU seconds so far, all threads (fields 14 + 15).
    pub cpu_s: f64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        cpu_s: (field(14)? + field(15)?) as f64 / CLK_TCK,
    })
}

/// Parses the `VmHWM` line (peak resident set, reported in kB) of
/// `/proc/<pid>/status` into bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value * 1024),
        _ => None,
    }
}

/// This process's counters now.
pub fn stat() -> ProcStat {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("parse /proc/self/stat")
}

/// This process's peak resident set in bytes.
pub fn vm_hwm() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_command_name() {
        // comm holds a space and a ')' to prove the rfind.
        let line = "4242 (ga ted) x) S 1 4242 4242 0 -1 4194304 1234 0 7 0 250 50 0 0 20 0 3 0 \
                    100 1000000 500 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minflt, 1234);
        assert_eq!(s.cpu_s, 3.0);
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_in_bytes() {
        let status =
            "Name:\tgated\nVmPeak:\t  300000 kB\nVmHWM:\t  117564 kB\nVmRSS:\t  90000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(117_564 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tgated\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_process_reads() {
        assert!(vm_hwm() > 0);
        let a = stat();
        let b = stat();
        assert!(b.minflt >= a.minflt && b.cpu_s >= a.cpu_s);
    }
}
