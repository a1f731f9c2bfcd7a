//! The measured programs run as child processes of this same binary: the
//! daemon (`--child daemon`) and the trainer (`--child train`). A child
//! reports readiness and results as lines on its standard output.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use uae_serve::{Daemon, DaemonConfig, FaultPlan, FrozenModel};

/// A running child. Dropping it kills and reaps the process, so no child
/// outlives the run even when a check fails half-way; and a child exits by
/// itself when its standard input closes, which happens when this process
/// dies without dropping it (see [`exit_with_parent`]).
pub struct Child {
    proc: std::process::Child,
    out: BufReader<ChildStdout>,
    _stdin: ChildStdin,
    pub spawned: Instant,
}

impl Child {
    pub fn spawn(args: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let spawned = Instant::now();
        let mut proc = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let out = BufReader::new(proc.stdout.take().expect("piped stdout"));
        let stdin = proc.stdin.take().expect("piped stdin");
        Ok(Child {
            proc,
            out,
            _stdin: stdin,
            spawned,
        })
    }

    /// The next line the child prints (without its newline).
    pub fn line(&mut self) -> Result<String, String> {
        let mut s = String::new();
        match self.out.read_line(&mut s) {
            Ok(0) => Err("child exited before reporting".into()),
            Ok(_) => Ok(s.trim_end().to_string()),
            Err(e) => Err(format!("reading child output: {e}")),
        }
    }

    /// Peak resident memory of the child so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.proc.id()))
    }

    /// User plus system CPU time the child's threads have used so far, in
    /// seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        cpu_seconds(&std::fs::read_to_string(format!("/proc/{}/stat", self.proc.id())).ok()?)
    }

    /// Waits for a clean exit, killing the child if it takes longer than
    /// `limit`.
    pub fn wait(mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.proc.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("child still running after {limit:?}")),
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
    }
}

/// In a child: exits the process as soon as its standard input closes,
/// that is, when the parent is gone, so a killed benchmark leaves no
/// daemon or trainer behind.
pub fn exit_with_parent() {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(1);
    });
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `utime` + `stime` of a `/proc/<pid>/stat` line, in seconds: both are
/// counted in the 1/100 s ticks (`USER_HZ`) that file always uses.
fn cpu_seconds(stat: &str) -> Option<f64> {
    // After the parenthesised command name (which may hold spaces and
    // parentheses) the fields run from `state` (field 3); `utime` is field
    // 14 and `stime` 15.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / 100.0)
}

/// A daemon child serving `artifact`, with its set-up time: from spawn
/// until it has opened the artifact, built the scorer and bound its socket.
pub struct DaemonChild {
    pub child: Child,
    pub addr: String,
    pub setup: Duration,
}

pub fn spawn_daemon(artifact: &Path, trace: bool) -> Result<DaemonChild, String> {
    let mut child = Child::spawn(&[
        "--child".into(),
        "daemon".into(),
        artifact.display().to_string(),
        if trace { "1" } else { "0" }.into(),
    ])?;
    let line = child.line()?;
    let setup = child.spawned.elapsed();
    let addr = line
        .strip_prefix("ready ")
        .ok_or_else(|| format!("daemon child said {line:?}"))?
        .to_string();
    Ok(DaemonChild { child, addr, setup })
}

/// Entry point of `--child daemon <artifact> <trace 0|1>`: the daemon as
/// `uae serve` runs it, on an ephemeral port.
pub fn daemon_main(artifact: &str, trace: &str) -> Result<(), String> {
    let frozen = FrozenModel::open(Path::new(artifact)).map_err(|e| e.to_string())?;
    let cfg = DaemonConfig {
        trace: trace == "1",
        flight_dir: crate::workload::work_dir(),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(frozen, cfg, FaultPlan::none()).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "ready {}", daemon.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    daemon.run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_reads_utime_and_stime_after_the_command_name() {
        let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 103 0 0 0 250 75 0 0 20 0 3 0";
        assert_eq!(cpu_seconds(stat), Some(3.25));
        assert_eq!(cpu_seconds("4242 (cut short) S 1 2"), None);
    }
}
