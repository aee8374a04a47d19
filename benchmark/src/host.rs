//! What the run ran on: recorded in every result file, so a number is
//! never read without its host.

use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
    /// Git tree hash of `benchmark/` as staged (what a commit would
    /// record), or `None` outside a git checkout, where the benchmark
    /// driver runs.
    pub tree_hash: Option<String>,
}

fn read_trimmed(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .map_err(|e| format!("cannot read {path}: {e}"))
}

impl Host {
    pub fn probe() -> Result<Host, String> {
        let cpuinfo = read_trimmed("/proc/cpuinfo")?;
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        let tree_hash = Command::new("git")
            .args([
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "write-tree",
                "--prefix=benchmark/",
            ])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        Ok(Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trimmed("/proc/sys/kernel/osrelease")?,
            cpu_model,
            tree_hash,
        })
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"kernel\":\"{}\",\"cpu_model\":\"{}\",\"tree_hash\":{}}}",
            self.nproc,
            self.kernel,
            self.cpu_model,
            self.tree_hash
                .as_ref()
                .map_or("null".to_string(), |h| format!("\"{h}\""))
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read_trimmed("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
