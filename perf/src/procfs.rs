//! What the operating system says about this process: peak memory and
//! write traffic from `/proc/self`, and the size of a data directory.

use std::path::Path;

/// The number after `key` on its line of a `/proc` key/value file.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    #[allow(clippy::cast_precision_loss)] // kB counts are far below 2^52
    field(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Bytes and system calls this process has issued to `write`-family calls
/// so far (`wchar`, `syscw`) — page-cache traffic, not device traffic.
#[must_use]
pub fn write_counters() -> Option<(u64, u64)> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    Some((field(&io, "wchar:")?, field(&io, "syscw:")?))
}

/// Total size of the regular files directly inside `dir` whose name ends
/// with `suffix` (`""` for all).
#[must_use]
pub fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let text = "VmPeak:\t  100 kB\nVmHWM:\t    1828 kB\nwchar: 42\n";
        assert_eq!(field(text, "VmHWM:"), Some(1828));
        assert_eq!(field(text, "wchar:"), Some(42));
        assert_eq!(field(text, "syscw:"), None);
    }

    #[test]
    fn this_process_has_a_peak_and_write_counters() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(write_counters().is_some());
    }
}
