//! What the benchmark reads from the host: its own `/proc` entries.

/// The value of `key:` in `/proc/self/status`.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    Some(value.trim().to_owned())
}

/// `VmHWM` of this process, in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line: the benchmark
/// cannot report `peak_rss_mib` there.
pub fn peak_rss_mib() -> f64 {
    let kib: f64 = status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The CPUs this process may run on, as the kernel lists them (`0-1`).
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_owned())
}

/// The last CPU of a kernel CPU list such as `0-1` or `0,2-3`.
pub fn last_cpu(list: &str) -> Option<u32> {
    list.rsplit([',', '-']).next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_kernel_lists() {
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("0,2-3"), Some(3));
        assert_eq!(last_cpu("5"), Some(5));
        assert_eq!(last_cpu("0-3,8"), Some(8));
        assert_eq!(last_cpu("unknown"), None);
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_cpu() {
        assert!(peak_rss_mib() > 0.0);
        assert!(last_cpu(&cpus_allowed()).is_some());
    }
}
