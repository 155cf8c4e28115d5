//! Workspace walking and file classification.
//!
//! Rules care *where* code lives: panics are fine in tests and benches,
//! stream names may be replayed in tests, and the unit-safety rules only
//! bind outside the crates that own the escape hatch. This module maps
//! every `.rs` file under the root to a [`FileClass`] and skips the trees
//! that are not ours to lint (`target/` and the linter's own violation
//! fixtures).

use std::path::{Path, PathBuf};

use crate::error::XlintError;

/// Where a file sits in the workspace, which decides which rules bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileClass {
    /// Library/binary code under `crates/<name>/src/`.
    Src {
        /// The crate directory name, e.g. `pstime`.
        crate_name: String,
    },
    /// Integration tests (`crates/*/tests/`, root `tests/`) and benches.
    Test,
    /// Example programs under `examples/`.
    Example,
    /// Cargo build scripts (`build.rs`, `crates/*/build.rs`). These run at
    /// compile time and feed generated code into the build, so the
    /// hermeticity rules (`no-adhoc-rng`, `no-wall-clock`) bind here too —
    /// a wall-clock read or ad-hoc seed in a build script makes the
    /// *artifact* nondeterministic before any test runs.
    BuildScript,
}

/// One file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Classification.
    pub class: FileClass,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "xlint_fixtures"];

/// Walk `root` and classify every `.rs` file the linter owns.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, XlintError> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), XlintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| XlintError::Io { path: dir.display().to_string(), msg: e.to_string() })?;
    for entry in entries {
        let entry = entry
            .map_err(|e| XlintError::Io { path: dir.display().to_string(), msg: e.to_string() })?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel: String = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            if let Some(class) = classify(&rel) {
                files.push(SourceFile { rel_path: rel, abs_path: path, class });
            }
        }
    }
    Ok(())
}

/// Classify a root-relative path, or `None` if the file is out of scope.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, "src", ..] => Some(FileClass::Src { crate_name: (*krate).to_string() }),
        ["crates", _, "tests", ..] | ["crates", _, "benches", ..] | ["tests", ..] => {
            Some(FileClass::Test)
        }
        ["examples", ..] | ["crates", _, "examples", ..] => Some(FileClass::Example),
        ["build.rs"] | ["crates", _, "build.rs"] => Some(FileClass::BuildScript),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        assert_eq!(
            classify("crates/pstime/src/duration.rs"),
            Some(FileClass::Src { crate_name: "pstime".to_string() })
        );
        assert_eq!(classify("crates/pecl/tests/proptests.rs"), Some(FileClass::Test));
        assert_eq!(classify("tests/determinism.rs"), Some(FileClass::Test));
        assert_eq!(classify("examples/quickstart.rs"), Some(FileClass::Example));
        assert_eq!(classify("Cargo.toml.rs"), None);
    }

    #[test]
    fn build_scripts_are_in_scope() {
        assert_eq!(classify("build.rs"), Some(FileClass::BuildScript));
        assert_eq!(classify("crates/pecl/build.rs"), Some(FileClass::BuildScript));
        // Only the canonical locations: a stray build.rs deeper in a tree
        // is ordinary source or out of scope, not a build script.
        assert_eq!(
            classify("crates/pecl/src/build.rs"),
            Some(FileClass::Src { crate_name: "pecl".to_string() })
        );
        assert_eq!(classify("scripts/build.rs"), None);
    }
}
