//! `ssplane-lint` CLI.
//!
//! ```text
//! cargo run -p ssplane-lint -- --workspace            # full scan, human output
//! cargo run -p ssplane-lint -- --workspace --json     # machine-readable
//! cargo run -p ssplane-lint -- --scenarios            # scenario-schema only
//! cargo run -p ssplane-lint -- path/to/file.rs …      # ad-hoc files (all token rules)
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use ssplane_lint::rules::{scan_rust, ALL_RULES};
use ssplane_lint::{find_root, scan_scenarios, scan_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    scenarios: bool,
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workspace: false, scenarios: false, json: false, root: None, files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--scenarios" => args.scenarios = true,
            "--json" => args.json = true,
            "--root" => {
                let path = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err("usage: ssplane-lint [--workspace | --scenarios | FILES…] [--json] \
                            [--root PATH]"
                    .to_string())
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if !args.workspace && !args.scenarios && args.files.is_empty() {
        return Err(
            "nothing to do: pass --workspace, --scenarios, or file paths (--help)".to_string()
        );
    }
    Ok(args)
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = find_root(args.root.as_deref(), &cwd);

    let mut report = if args.workspace {
        scan_workspace(&root)?
    } else {
        let mut r = Report {
            findings: Vec::new(),
            allows: Default::default(),
            files_scanned: 0,
            scenarios_checked: 0,
        };
        if args.scenarios {
            scan_scenarios(&root, &mut r)?;
        }
        r
    };

    // Ad-hoc file mode: every token rule, no path-based scoping — the
    // caller pointed at the file on purpose.
    for path in &args.files {
        let rel = path.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{rel}: {e}"))?;
        if rel.ends_with(".toml") {
            let keys = ssplane_lint::live_keys(&root)?;
            ssplane_lint::schema::validate_scenario(&rel, &src, &keys, &mut report.findings);
            report.scenarios_checked += 1;
        } else {
            let (findings, allows) = scan_rust(&rel, &src, &ALL_RULES);
            report.findings.extend(findings);
            report.allows.absorb(&allows);
            report.files_scanned += 1;
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    if args.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "ssplane-lint: {} finding(s), {} allow(s) declared ({} used), {} file(s) scanned, \
             {} scenario(s) checked",
            report.findings.len(),
            report.allows.declared,
            report.allows.used,
            report.files_scanned,
            report.scenarios_checked
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    match run() {
        Ok(report) if report.is_clean() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ssplane-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
