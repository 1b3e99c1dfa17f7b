//! Where the run happened: the facts a reader needs before comparing two
//! results files, and the checks that refuse a run that would measure
//! nothing.

use crate::json::{obj, Json};
use crate::stats::percentile;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A log device faster than this is memory, not a disk: commit latency
/// would be the group-commit timer alone.
pub const MIN_FSYNC_FLOOR_US: f64 = 20.0;

/// How long a run waits, at most, for the log device to recover from
/// whatever ran before it, and how far apart it probes.
pub const SETTLE_CAP: std::time::Duration = std::time::Duration::from_secs(6);
pub const SETTLE_PAUSE: std::time::Duration = std::time::Duration::from_millis(300);

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop connections: one per processor, at most four.
pub fn default_conns() -> usize {
    nproc().min(4)
}

/// Resident set size of this process in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Filesystem type holding `path`: the longest mount point in
/// `/proc/self/mountinfo` that is a prefix of it.
pub fn fs_type(path: &Path) -> String {
    let Ok(canonical) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(point), Some(ty)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if canonical.starts_with(point) && best.as_ref().map_or(true, |(n, _)| point.len() >= *n) {
            best = Some((point.len(), ty.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Time of `write(4 KiB)` + `sync_data` in `dir`, in µs: the same two
/// calls the engine's file backend makes per log page, so no commit can
/// be faster than the median of these. Returns `(p50, p99)`.
pub fn fsync_floor_us(dir: &Path, samples: usize) -> std::io::Result<(f64, f64)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-floor.tmp");
    let mut file = std::fs::File::create(&path)?;
    let page = [0xA5u8; 4096];
    let mut ns = Vec::with_capacity(samples);
    for i in 0..samples + 8 {
        let t = Instant::now();
        file.write_all(&page)?;
        file.sync_data()?;
        // The first few calls allocate the file's first extents.
        if i >= 8 {
            ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    drop(file);
    std::fs::remove_file(&path)?;
    let p50 = percentile(&mut ns, 0.50).unwrap_or(0) as f64 / 1e3;
    let p99 = percentile(&mut ns, 0.99).unwrap_or(0) as f64 / 1e3;
    Ok((p50, p99))
}

/// `git rev-parse HEAD` of the tree the benchmark was built from, or
/// "unknown" outside a repository (the driver's checkout is not one).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What the log directory is made of.
#[derive(Debug, Clone)]
pub struct Device {
    pub fs_type: String,
    pub fsync_4k_us_p50: f64,
    pub fsync_4k_us_p99: f64,
}

impl Device {
    /// Probes `dir`, first waiting for the device to settle. `Err` carries
    /// the reason the run must be refused: on a memory filesystem
    /// `oltp_transfer` measures nothing.
    ///
    /// A run that wrote many megabytes leaves the device slow for seconds
    /// after it has exited, and the next run would measure that. So the
    /// floor is probed again and again, [`SETTLE_PAUSE`] apart, while
    /// each probe is over a fifth faster than the one before, for at most
    /// [`SETTLE_CAP`]; the last probe is the one attested. A quiet device
    /// costs two probes.
    pub fn probe(dir: &Path) -> Result<Device, String> {
        let probe =
            || fsync_floor_us(dir, 100).map_err(|e| format!("probing {}: {e}", dir.display()));
        let started = Instant::now();
        let (mut p50, mut p99) = probe()?;
        while started.elapsed() < SETTLE_CAP {
            std::thread::sleep(SETTLE_PAUSE);
            let (next_p50, next_p99) = probe()?;
            let still_recovering = next_p50 < 0.8 * p50;
            (p50, p99) = (next_p50, next_p99);
            if !still_recovering {
                break;
            }
        }
        let device = Device {
            fs_type: fs_type(dir),
            fsync_4k_us_p50: p50,
            fsync_4k_us_p99: p99,
        };
        if matches!(device.fs_type.as_str(), "tmpfs" | "ramfs") {
            return Err(format!(
                "{} is on {}: the log must be on a disk-backed filesystem",
                dir.display(),
                device.fs_type
            ));
        }
        if p50 < MIN_FSYNC_FLOOR_US {
            return Err(format!(
                "write+sync of 4 KiB in {} takes {p50:.1} µs (< {MIN_FSYNC_FLOOR_US} µs): \
                 that is memory, not a disk",
                dir.display()
            ));
        }
        Ok(device)
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("log_dir_fs_type", self.fs_type.as_str().into()),
            ("wal.fsync_4k_us_p50", self.fsync_4k_us_p50.into()),
            ("wal.fsync_4k_us_p99", self.fsync_4k_us_p99.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_rss_and_a_filesystem_type() {
        assert!(rss_bytes().unwrap() > 100 * 1024);
        assert_eq!(fs_type(Path::new("/proc")), "proc");
        assert_eq!(fs_type(Path::new("/no/such/path")), "unknown");
    }
}
