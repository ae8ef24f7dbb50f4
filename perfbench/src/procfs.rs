//! `/proc` readers: the server child's CPU time and resident set, the
//! host's CPU split (to witness a noisy neighbour), and the file system
//! the working directory sits on. Parsing is separate from reading so the
//! tests run on captured text.

use std::path::Path;

/// `/proc` reports CPU time in `USER_HZ` ticks, which the Linux ABI fixes
/// at 100 per second regardless of the kernel's own `HZ`.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` of a process in seconds, from `/proc/<pid>/stat`.
pub fn parse_process_cpu_secs(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses; fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// `VmRSS` in MB (2^20 bytes), from `/proc/<pid>/status`.
pub fn parse_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCpu {
    /// user + nice + system + irq + softirq: time some process ran.
    pub busy: f64,
    /// Time the hypervisor ran something else on our cores.
    pub steal: f64,
    /// Every column summed, idle and iowait included.
    pub total: f64,
}

pub fn parse_host_cpu(proc_stat: &str) -> Option<HostCpu> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let cols: Vec<f64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|c| c.parse::<u64>().map(|t| t as f64 / TICKS_PER_SEC))
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    if cols.len() < 8 {
        return None;
    }
    Some(HostCpu {
        busy: cols[0] + cols[1] + cols[2] + cols[5] + cols[6],
        steal: cols[7],
        total: cols[..8].iter().sum(),
    })
}

/// File-system type of the mount that holds `path`, from `/proc/mounts`
/// text: the longest mount point that prefixes the path wins.
pub fn fs_type_of(path: &Path, mounts: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_ascii_whitespace();
            let (_dev, mount_point, fs) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

pub fn process_cpu_secs(pid: u32) -> Option<f64> {
    parse_process_cpu_secs(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

pub fn rss_mb(pid: u32) -> Option<f64> {
    parse_rss_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&std::fs::read_to_string("/proc/stat").ok()?)
}

pub fn workdir_fs(path: &Path) -> String {
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| fs_type_of(path, &m))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the calibration machine (Linux 6.18), command name
    // edited to the worst case the kernel allows.
    const STAT: &str = "334 (lshe) serve) R 330 334 330 0 -1 4194304 83 0 0 0 1234 567 0 0 20 0 \
        1 0 5653192 2703360 336 18446744073709551615 93993598337024 93993598356905 \
        140723716820864 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";
    const STATUS: &str = "Name:\tlshe\nVmPeak:\t  300000 kB\nVmHWM:\t  262144 kB\n\
        VmRSS:\t  131072 kB\nThreads:\t5\n";
    const PROC_STAT: &str = "cpu  3750774 10 651523 6553842 63005 0 175864 44076 0 0\n\
        cpu0 1875387 0 325761 3276921 31502 0 87932 22038 0 0\nintr 1 2 3\n";
    const MOUNTS: &str = "/dev/vda / ext4 rw,relatime 0 0\n\
        proc /proc proc rw,relatime 0 0\n\
        tmpfs /dev/shm tmpfs rw,nosuid,nodev 0 0\n";

    #[test]
    fn process_cpu_skips_a_hostile_command_name() {
        assert_eq!(parse_process_cpu_secs(STAT), Some(18.01));
        assert_eq!(parse_process_cpu_secs("1 (x) R 2"), None);
        assert_eq!(parse_process_cpu_secs(""), None);
    }

    #[test]
    fn rss_is_reported_in_mb() {
        assert_eq!(parse_rss_mb(STATUS), Some(128.0));
        assert_eq!(parse_rss_mb("Name:\tkthread\n"), None);
    }

    #[test]
    fn host_cpu_splits_busy_steal_and_total() {
        let cpu = parse_host_cpu(PROC_STAT).unwrap();
        assert!((cpu.busy - 45_781.71).abs() < 1e-6);
        assert_eq!(cpu.steal, 440.76);
        assert!((cpu.total - 112_390.94).abs() < 1e-6);
        assert_eq!(parse_host_cpu("cpu0 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_matching_mount() {
        let fs = |p: &str| fs_type_of(Path::new(p), MOUNTS);
        assert_eq!(fs("/dev/shm/perfbench-1").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo/target").as_deref(), Some("ext4"));
        assert_eq!(fs_type_of(Path::new("relative"), MOUNTS), None);
    }
}
