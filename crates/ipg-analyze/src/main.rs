//! CLI entry point for the workspace lint gate.
//!
//! ```text
//! ipg-analyze [--root <dir>] [--format human|json] [--rules R1,R2]
//!             [--member <crate>] [--list-rules]
//! ```
//!
//! A finding is excused only by an inline suppression comment that gives
//! a reason (syntax in [`ipg_analyze::rules`]); anything else is new.
//!
//! Exit codes: 0 clean, 2 new findings, 1 usage / IO error (an empty
//! `--rules` list and a `--member` naming no workspace member are usage
//! errors, so a filter can never turn the gate into a no-op).

use ipg_analyze::driver::{self, Config};
use ipg_analyze::report;
use ipg_analyze::rules;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(msg) => {
            eprintln!("ipg-analyze: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = "human".to_string();
    let mut rules_filter: Option<Vec<String>> = None;
    let mut member: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(need(&mut it, "--root")?)),
            "--format" => {
                format = need(&mut it, "--format")?.to_string();
                if format != "human" && format != "json" {
                    return Err(format!("unknown format `{format}` (human|json)"));
                }
            }
            "--rules" => {
                let list: Vec<String> = need(&mut it, "--rules")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if list.is_empty() {
                    return Err("--rules needs at least one rule (try --list-rules)".into());
                }
                for r in &list {
                    if !rules::known_rule(r) {
                        return Err(format!("unknown rule `{r}` (try --list-rules)"));
                    }
                }
                rules_filter = Some(list);
            }
            "--member" => member = Some(need(&mut it, "--member")?.to_string()),
            "--list-rules" => {
                for r in rules::all_rules() {
                    println!(
                        "{:<9} [{:<7}] {}",
                        r.id(),
                        r.severity().as_str(),
                        r.describe()
                    );
                }
                return Ok(true);
            }
            "--help" | "-h" => {
                println!(
                    "usage: ipg-analyze [--root <dir>] [--format human|json] [--rules R1,R2]\n\
                     \x20                  [--member <crate>] [--list-rules]"
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    let root = match root {
        Some(r) => driver::find_root(&r)?,
        None => {
            driver::find_root(&std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?)?
        }
    };
    let outcome = driver::analyze(&Config {
        root,
        rules_filter,
        member,
    })?;

    match format.as_str() {
        "json" => print!("{}", report::jsonl(&outcome)),
        _ => print!("{}", report::human(&outcome)),
    }
    Ok(outcome.ok())
}

fn need<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} needs a value"))
}
