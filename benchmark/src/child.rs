//! Hermetic child processes, measured from outside: wall time, CPU time,
//! peak resident memory, and the bytes a run leaves on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports child CPU time in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;
/// How often `/proc/<pid>/status` is read for the peak-RSS high-water mark.
const RSS_POLL: Duration = Duration::from_millis(10);
/// How often the wait loop checks for exit; it bounds the wall-time error.
const EXIT_POLL: Duration = Duration::from_millis(1);

/// Gives `cmd` this process's environment minus every `P10SIM_*`
/// variable, so a stray setting (a `P10SIM_SAMPLING` turns every point
/// sampled) cannot change what a run does. Set the run's own variables
/// after this call.
pub fn hermetic(cmd: &mut Command) -> &mut Command {
    cmd.env_clear()
        .envs(std::env::vars_os().filter(|(k, _)| !k.to_string_lossy().starts_with("P10SIM_")))
        .stdin(Stdio::null())
}

/// A scratch directory for one benchmark process, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<base>/<pid>`, first removing whatever earlier (killed)
    /// benchmark processes left under `base`.
    pub fn create(base: &Path) -> std::io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(base);
        let dir = base.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The persistent state a `figures` run reads and writes.
pub struct StateDirs {
    pub cache: PathBuf,
    pub ckpt: PathBuf,
    pub ledger: PathBuf,
}

impl StateDirs {
    /// Cache and checkpoint dirs under `root`, with a ledger dir of its own
    /// per `tag` so a first run and its rerun, which share a root, never
    /// share a ledger.
    pub fn under(root: &Path, tag: &str) -> StateDirs {
        StateDirs {
            cache: root.join("cache"),
            ckpt: root.join("ckpt"),
            ledger: root.join(format!("ledger-{tag}")),
        }
    }
}

/// Total length of the regular files under `path` (0 if it is missing).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// What one supervised child run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Exited with status 0 before its deadline.
    pub success: bool,
    pub timed_out: bool,
    pub wall_s: f64,
    /// User + system CPU seconds of the child and the children it reaped.
    pub cpu_s: f64,
    /// Last `VmHWM` read from `/proc/<pid>/status`, in MB.
    pub peak_rss_mb: f64,
}

/// Spawns `cmd` with stdout and stderr sent to `<log_stem>.out` / `.err`,
/// waits for it (killing it past `timeout`), and measures it.
pub fn supervise(
    cmd: &mut Command,
    log_stem: &Path,
    timeout: Duration,
) -> std::io::Result<Measured> {
    cmd.stdout(std::fs::File::create(log_stem.with_extension("out"))?)
        .stderr(std::fs::File::create(log_stem.with_extension("err"))?);
    let cpu_before = children_cpu_s()?;
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0u64;
    let mut last_poll: Option<Instant> = None;
    let (status, wall_s, timed_out) = loop {
        if let Some(status) = child.try_wait()? {
            break (status, start.elapsed().as_secs_f64(), false);
        }
        if last_poll.is_none_or(|t| t.elapsed() >= RSS_POLL) {
            last_poll = Some(Instant::now());
            if let Some(kb) = std::fs::read_to_string(&status_path)
                .ok()
                .and_then(|s| parse_vm_hwm_kb(&s))
            {
                peak_kb = peak_kb.max(kb);
            }
        }
        if start.elapsed() > timeout {
            child.kill()?;
            let status = child.wait()?;
            break (status, start.elapsed().as_secs_f64(), true);
        }
        std::thread::sleep(EXIT_POLL);
    };
    Ok(Measured {
        success: status.success() && !timed_out,
        timed_out,
        wall_s,
        cpu_s: children_cpu_s()? - cpu_before,
        #[allow(clippy::cast_precision_loss)]
        peak_rss_mb: peak_kb as f64 / 1024.0,
    })
}

/// The last lines of a run's stderr log, for failure messages.
pub fn stderr_tail(log_stem: &Path, lines: usize) -> String {
    let text = std::fs::read_to_string(log_stem.with_extension("err")).unwrap_or_default();
    let all: Vec<&str> = text.lines().collect();
    all[all.len().saturating_sub(lines)..].join("\n")
}

/// CPU seconds of every child this process has reaped so far.
fn children_cpu_s() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_children_ticks(&stat).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unparseable /proc/self/stat",
        )
    })?;
    #[allow(clippy::cast_precision_loss)]
    Ok(ticks as f64 / TICKS_PER_S)
}

/// `cutime + cstime` (fields 16 and 17) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its closing parenthesis.
fn parse_children_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let cutime: u64 = fields.get(13)?.parse().ok()?;
    let cstime: u64 = fields.get(14)?.parse().ok()?;
    Some(cutime + cstime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let stat = "4242 (fig (x) ures) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    11 12 345 67 20 0 3 0 999 1000 200 18446744073709551615";
        assert_eq!(parse_children_ticks(stat), Some(345 + 67));
        assert_eq!(parse_children_ticks("4242 (short) S 1"), None);
        assert_eq!(parse_children_ticks("no parenthesis"), None);
    }

    #[test]
    fn own_stat_parses() {
        assert!(children_cpu_s().expect("readable /proc/self/stat") >= 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tfigures\nVmPeak:\t  900000 kB\nVmHWM:\t  241236 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(241_236));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn supervised_child_is_measured_and_hermetic() {
        let dir = std::env::temp_dir().join(format!("p10-benchmark-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stem = dir.join("env");
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "env; i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done",
        ])
        .env("P10SIM_SAMPLING", "simpoints:100:2");
        hermetic(&mut cmd);
        let m = supervise(&mut cmd, &stem, Duration::from_secs(30)).expect("spawn sh");
        assert!(m.success && !m.timed_out);
        assert!(m.wall_s > 0.0 && m.peak_rss_mb > 0.0);
        let out = std::fs::read_to_string(stem.with_extension("out")).expect("stdout log");
        assert!(!out.contains("P10SIM_"), "inherited P10SIM_* leaked: {out}");

        let mut sleeper = Command::new("sleep");
        sleeper.arg("5");
        let m = supervise(&mut sleeper, &dir.join("sleep"), Duration::from_millis(50))
            .expect("spawn sleep");
        assert!(m.timed_out && !m.success && m.wall_s < 4.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir = std::env::temp_dir().join(format!("p10-benchmark-bytes-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("a/b")).expect("temp dirs");
        std::fs::write(dir.join("x"), [0u8; 10]).expect("write");
        std::fs::write(dir.join("a/b/y"), [0u8; 32]).expect("write");
        assert_eq!(dir_bytes(&dir), 42);
        assert_eq!(dir_bytes(&dir.join("missing")), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
