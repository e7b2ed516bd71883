//! What the benchmark reads about its own process and machine, from
//! Linux's `/proc`: CPU time, the CPU model, and the filesystem a
//! directory lives on.

use std::path::Path;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture the benchmark runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds this process has spent so far, threads
/// that already exited included. Resolution is one clock tick (10 ms).
pub fn process_cpu_secs() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or((f64::NAN, f64::NAN), |(user, sys)| {
        (user as f64 / TICKS_PER_SEC, sys as f64 / TICKS_PER_SEC)
    })
}

/// `(utime, stime)` from a `/proc/<pid>/stat` line. The command name is
/// parenthesised and may hold spaces, so fields are counted from the
/// last `)`: utime and stime are fields 14 and 15 of the line.
fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Type of the filesystem `dir` lives on (`tmpfs`, `ext4`, ...): the
/// mount with the longest mount point that prefixes the directory's
/// canonical path.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mount_fs_type(&mounts, &path.to_string_lossy()).unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the longest mount point in `mountinfo` text
/// that contains `path`. Each line reads `id parent dev root mountpoint
/// options [optional...] - fstype source superoptions`.
fn mount_fs_type(mountinfo: &str, path: &str) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let mount_point = fields.nth(4)?;
            let fs_type = fields.skip_while(|f| *f != "-").nth(1)?;
            let inside = path == mount_point
                || mount_point == "/"
                || path.starts_with(&format!("{mount_point}/"));
            inside.then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// True for filesystems that keep files in memory.
pub fn is_memory_backed(fs_type: &str) -> bool {
    matches!(fs_type, "tmpfs" | "ramfs")
}

/// The commit the checkout was taken from, read from `.git` under `root`
/// without running git; `"unknown"` when the checkout is no repository.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let line = "42 (my (odd) cmd) R 1 42 42 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 3";
        assert_eq!(parse_cpu_ticks(line), Some((250, 37)));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn longest_mount_point_wins() {
        let info = "\
28 1 254:0 / / rw,relatime - ext4 /dev/vda rw
26 25 0:24 / /dev/shm rw,relatime - tmpfs tmpfs rw
31 28 0:30 / /work/fast rw shared:5 - tmpfs tmpfs rw";
        assert_eq!(
            mount_fs_type(info, "/work/fast/spill").as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            mount_fs_type(info, "/work/fastish").as_deref(),
            Some("ext4")
        );
        assert_eq!(mount_fs_type(info, "/dev/shm").as_deref(), Some("tmpfs"));
        assert!(is_memory_backed("tmpfs"));
        assert!(!is_memory_backed("ext4"));
    }

    #[test]
    fn this_process_reads_its_own_usage() {
        let (user, sys) = process_cpu_secs();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
