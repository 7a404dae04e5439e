//! Readers for the `/proc` files the benchmark measures the process
//! through, and the host record printed with every run.
//!
//! The parsers take the file's text so the tests can feed them fixtures.

use std::path::Path;

/// Clock ticks per second of `/proc/self/stat`'s CPU fields. The kernel
/// reports them in `USER_HZ`, which is 100 on every Linux architecture
/// this benchmark targets.
const USER_HZ: f64 = 100.0;

/// `write_bytes` of `/proc/<pid>/io`: bytes this process caused to be
/// sent to the storage layer.
pub fn parse_io_write_bytes(text: &str) -> Option<u64> {
    text.lines().find_map(|l| l.strip_prefix("write_bytes:")).and_then(|v| v.trim().parse().ok())
}

/// A `kB` field of `/proc/<pid>/status` (for example `VmHWM`), in kB.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User plus system CPU seconds from `/proc/<pid>/stat`. Fields are
/// counted after the closing parenthesis of the command name, which may
/// itself contain spaces or parentheses.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After ")": state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Whole-process CPU seconds so far.
pub fn cpu_s() -> f64 {
    read("/proc/self/stat").and_then(|t| parse_stat_cpu_s(&t)).expect("/proc/self/stat readable")
}

/// Bytes written to storage by this process so far.
pub fn write_bytes() -> u64 {
    read("/proc/self/io").and_then(|t| parse_io_write_bytes(&t)).expect("/proc/self/io readable")
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = read("/proc/self/status")
        .and_then(|t| parse_status_kb(&t, "VmHWM"))
        .expect("/proc/self/status has VmHWM");
    kb as f64 / 1024.0
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// The filesystem type `/proc/self/mounts` lists for the mount holding
/// `path` (longest mount-point prefix wins).
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

/// The host facts a result depends on, as one JSON object.
pub fn host_record(durable_dir: &Path) -> String {
    let cpu = read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel =
        read("/proc/sys/kernel/osrelease").map_or("unknown".into(), |s| s.trim().to_string());
    let nproc = nproc();
    let fs = durable_dir
        .canonicalize()
        .ok()
        .and_then(|d| parse_fs_type(&read("/proc/self/mounts")?, &d))
        .map_or("null".to_string(), |k| format!("\"{k}\""));
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"kernel\": \"{}\", \"durable_fs\": {fs}}}",
        cpu.replace('"', "'"),
        kernel.replace('"', "'")
    )
}

/// Processor count, for busy shares.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_write_bytes() {
        let text = "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 1\nread_bytes: 0\nwrite_bytes: 40960\ncancelled_write_bytes: 4096\n";
        assert_eq!(parse_io_write_bytes(text), Some(40960));
        assert_eq!(parse_io_write_bytes("rchar: 1\n"), None);
    }

    #[test]
    fn status_kb_fields() {
        let text = "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t    1692 kB\nVmRSS:\t    1500 kB\nThreads:\t9\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(1692));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(1500));
        assert_eq!(parse_status_kb(text, "Threads"), None, "not a kB field");
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
    }

    #[test]
    fn stat_cpu_seconds_survive_odd_command_names() {
        // utime = 250 ticks, stime = 50 ticks.
        let text = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 250 50 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_stat_cpu_s(text), Some(3.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(parse_fs_type(mounts, Path::new("/tmp/x")), Some("tmpfs".into()));
        assert_eq!(parse_fs_type(mounts, Path::new("/home/x")), Some("ext4".into()));
        assert_eq!(parse_fs_type(mounts, Path::new("/tmpfoo")), Some("ext4".into()));
    }
}
