//! Process memory from `/proc` (Linux).

/// A `kB` field of `/proc/<pid>/status` (`"self"` for this process), in
/// MiB.
pub fn status_mib(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    status_mib(pid, "VmHWM").ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Current resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("self", "VmRSS").unwrap_or(0.0)
}

/// Resets this process's peak RSS to its current RSS, so that a later
/// [`peak_rss_mib`] reads the peak of what ran in between.
pub fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// `(steal, total)` CPU time in clock ticks since boot, over all CPUs,
/// from the first line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor gave to other guests since `from`
/// (a [`cpu_ticks`] reading): the host contention a run measured under.
pub fn steal_since(from: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    (steal - from.0) as f64 / (total - from.1).max(1) as f64
}
