//! What the benchmark reads about its own process and host: CPU time and
//! peak memory from `/proc`, and the provenance every result records.

use ssplane_scenario::json::Json;
use std::error::Error;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` times: Linux reports them
/// in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of this process, all threads included (also
/// threads that have already exited) \[s\].
pub fn cpu_seconds() -> Result<f64, Box<dyn Error>> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesized command name, which may hold spaces:
    // state is field 3, utime field 14 and stime field 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, Box<dyn Error>> {
        Ok(fields.get(i).ok_or("short /proc/self/stat")?.parse::<u64>()? as f64)
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident memory of this process so far (`VmHWM`) \[MB\].
pub fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = fs::read_to_string("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in status")?;
    let kb: f64 = line.split_whitespace().nth(1).ok_or("malformed VmHWM")?.parse()?;
    Ok(kb / 1024.0)
}

/// The machine's available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The first line a command prints, or `None` if it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's git revision. Discovery stops at the working
/// directory, so a checkout that is not itself a repository reports
/// `none` instead of an enclosing repository's revision.
fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_string_lossy().into_owned();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "none".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// FNV-1a over the program's sources (`crates/**/*.{rs,toml}`, the root
/// manifest and lock file), in sorted path order: identifies the code
/// measured when the checkout carries no git metadata.
fn source_fingerprint() -> String {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    collect(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").into()];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The CPU model `/proc/cpuinfo` names.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to reproduce a result.
pub fn provenance(workload: &str, seed: u64, threads: usize) -> Json {
    Json::obj()
        .str("git_revision", &git_revision())
        .str("source_fnv1a", &source_fingerprint())
        .str("rustc", &command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .uint("nproc", nproc() as u64)
        .uint("runner_threads", threads as u64)
        .str("workload", workload)
        .uint("seed", seed)
        .str("cpu_model", &cpu_model())
        .build()
}
