//! Drift guard for `SAFETY.md`'s policy: the workspace contains no
//! `unsafe` code, and every library crate root forbids it.
//!
//! The first test counts `unsafe` tokens in code (comments stripped)
//! across `src/` and every `crates/*/src`, bin targets included, so an
//! `unsafe` anywhere is a red test. The second checks that each library
//! crate root carries `#![forbid(unsafe_code)]`, which makes a new
//! `unsafe` a compile error in the first place.

use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("source dir must be readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// `src/` plus every `crates/*/src` directory of the workspace.
fn source_roots() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    roots
}

/// Counts `unsafe` tokens in code (not comments), ignoring the
/// `forbid(unsafe_code)` attribute itself.
fn count_unsafe(src: &str) -> usize {
    src.lines()
        .map(|line| match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        })
        .filter(|code| !code.contains("forbid(unsafe_code)"))
        .map(|code| code.matches("unsafe").count())
        .sum()
}

#[test]
fn no_source_file_contains_unsafe() {
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for dir in source_roots() {
        for file in rust_files(&dir) {
            scanned += 1;
            let src = std::fs::read_to_string(&file).expect("source must be UTF-8");
            let n = count_unsafe(&src);
            if n > 0 {
                offenders.push(format!("{} ({n})", file.display()));
            }
        }
    }
    assert!(scanned > 100, "only {scanned} source files found");
    assert!(
        offenders.is_empty(),
        "`unsafe` found in {offenders:?}; SAFETY.md's policy is zero `unsafe`"
    );
}

#[test]
fn every_library_crate_root_forbids_unsafe() {
    let roots = source_roots();
    assert!(roots.len() >= 11, "expected the root crate and ten crates");
    for dir in roots {
        let lib = dir.join("lib.rs");
        let src =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        assert!(
            src.lines().any(|l| l.trim() == FORBID),
            "{} lacks `{FORBID}`",
            lib.display()
        );
    }
}
