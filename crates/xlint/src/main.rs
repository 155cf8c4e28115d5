//! CLI for the workspace contract linter.
//!
//! ```text
//! cargo run -p gigatest-xlint --release --offline                 # lint the tree
//! cargo run -p gigatest-xlint --release --offline -- --fix-allowlist   # re-capture baseline
//! cargo run -p gigatest-xlint --release --offline -- --format sarif > xlint.sarif
//! ```
//!
//! Flags: `--root DIR`, `--baseline FILE`, `--fix-allowlist`,
//! `--format text|json|sarif`. In the machine formats the document goes
//! to stdout and the human summary to stderr.
//!
//! Exit status: 0 when there are no deny-tier findings and no warn-tier
//! findings beyond the committed baseline; 1 otherwise; 2 on internal
//! errors (unreadable tree, unlexable file, malformed baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xlint::output::{findings_json, sarif};
use xlint::{analyze_root, Baseline, Severity, XlintError};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    baseline: PathBuf,
    fix_allowlist: bool,
    format: Format,
}

fn parse_args() -> Result<Options, String> {
    let mut root = PathBuf::from(".");
    let mut baseline = None;
    let mut fix_allowlist = false;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root requires a path")?);
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(args.next().ok_or("--baseline requires a path")?));
            }
            "--fix-allowlist" => fix_allowlist = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    _ => return Err("--format requires one of: text, json, sarif".to_string()),
                };
            }
            "--help" | "-h" => {
                return Err("usage: xlint [--root DIR] [--baseline FILE] [--fix-allowlist] \
                            [--format text|json|sarif]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let baseline = baseline.unwrap_or_else(|| root.join("xlint.baseline"));
    Ok(Options { root, baseline, fix_allowlist, format })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xlint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> Result<bool, XlintError> {
    let analysis = analyze_root(&opts.root)?;

    if opts.fix_allowlist {
        let captured = Baseline::capture(&analysis.findings);
        let rendered = captured.render();
        std::fs::write(&opts.baseline, &rendered).map_err(|e| XlintError::Io {
            path: opts.baseline.display().to_string(),
            msg: e.to_string(),
        })?;
        let entries = rendered.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
        println!(
            "xlint: wrote {} with {entries} warn-tier entries ({} files scanned)",
            opts.baseline.display(),
            analysis.files
        );
        return Ok(true);
    }

    let baseline = Baseline::load(&opts.baseline)?;
    let warn_findings: Vec<_> =
        analysis.findings.iter().filter(|f| f.severity == Severity::Warn).cloned().collect();
    let (regressions, improved) = baseline.compare(&warn_findings);

    // Machine formats: the document on stdout, the summary on stderr.
    // Pass/fail semantics are identical to text mode.
    match opts.format {
        Format::Json => println!("{}", findings_json(&analysis).render()),
        Format::Sarif => println!("{}", sarif(&analysis).render()),
        Format::Text => {}
    }

    let mut failed = false;
    let report = |line: String| match opts.format {
        Format::Text => println!("{line}"),
        _ => eprintln!("{line}"),
    };
    for f in analysis.findings.iter().filter(|f| f.severity == Severity::Deny) {
        report(format!("{}:{}:{}: [{}] deny: {}", f.rel_path, f.line, f.col, f.rule_id, f.message));
        failed = true;
    }
    for reg in &regressions {
        report(format!(
            "{}: [{}] warn count {} exceeds baseline {} — new findings:",
            reg.rel_path, reg.rule_id, reg.current, reg.allowed
        ));
        for f in
            warn_findings.iter().filter(|f| f.rel_path == reg.rel_path && f.rule_id == reg.rule_id)
        {
            report(format!(
                "  {}:{}:{}: [{}] warn: {}",
                f.rel_path, f.line, f.col, f.rule_id, f.message
            ));
        }
        failed = true;
    }

    let denies = analysis.findings.iter().filter(|f| f.severity == Severity::Deny).count();
    report(format!(
        "xlint: {} files, {} deny, {} warn ({} suppressed with reasons, {} groups under \
         baseline)",
        analysis.files,
        denies,
        warn_findings.len(),
        analysis.suppressed,
        improved
    ));
    if improved > 0 && !failed {
        report(
            "xlint: warn-tier debt shrank — run `cargo run -p gigatest-xlint --release --offline \
             -- --fix-allowlist` to tighten the ratchet"
                .to_string(),
        );
    }
    Ok(!failed)
}
