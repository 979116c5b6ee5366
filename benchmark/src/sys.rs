//! Process-level helpers: paths, memory high-water marks, child processes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// `benchmark/out`, where traces and scratch stores go.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// A fresh, empty scratch directory for this process under `out/work`,
/// removed when the returned guard drops.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `out/work/<label>-<pid>`, wiping any leftover of that name.
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        let path = out_dir()
            .join("work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes every `RAMP_*` variable, so a run depends on its arguments
/// only. Called once, before any thread starts.
pub fn clear_ramp_env() {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("RAMP_") {
            std::env::remove_var(&k);
        }
    }
}

/// `VmHWM` (peak resident set) of process `pid` (or this process) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the `ramp-served` and `ramp-router` binaries of the repository
/// (release profile, offline) and returns the directory holding them.
/// A no-op build takes well under a second, so every run calls this and
/// the first run of a fresh checkout pays for the whole build.
pub fn build_fleet_binaries() -> Result<PathBuf, String> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => {
            let t = PathBuf::from(t);
            if t.is_absolute() {
                t
            } else {
                std::env::current_dir()
                    .map_err(|e| format!("current dir: {e}"))?
                    .join(t)
            }
        }
        None => root.join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ramp-serve",
            "--bin",
            "ramp-served",
            "--bin",
            "ramp-router",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the fleet binaries failed: {status}"));
    }
    Ok(target.join("release"))
}

/// A child process that is killed and reaped if still running on drop.
pub struct ChildGuard {
    child: Option<Child>,
    /// What the child is, for messages.
    pub label: String,
}

impl ChildGuard {
    /// Spawns `cmd`.
    pub fn spawn(mut cmd: Command, label: &str) -> Result<ChildGuard, String> {
        let child = cmd.spawn().map_err(|e| format!("spawning {label}: {e}"))?;
        Ok(ChildGuard {
            child: Some(child),
            label: label.to_string(),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits up to `limit` for the child to exit on its own; kills it
    /// after that. Returns whether it exited successfully by itself.
    pub fn wait_exit(&mut self, limit: Duration) -> bool {
        let Some(mut child) = self.child.take() else {
            return true;
        };
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
