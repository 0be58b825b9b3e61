//! Transcript goldens for the `cumf` CLI.
//!
//! `cumf chaos --quick` (fault matrix plus serve slice) and
//! `cumf analyze --all` are bit-deterministic, so their stdout is pinned
//! byte for byte under `tests/golden/`. A change that moves a transcript
//! on purpose updates the file and says why in CHANGES.md.
//!
//! The analyze transcript stops before the `== sanitize` header: with
//! `--features sanitize` that section lists the race instances the
//! lockset sanitizer happened to observe, which vary from run to run.

use std::process::Command;

fn cumf_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cumf"))
        .args(args)
        .output()
        .expect("spawn cumf");
    assert!(
        out.status.success(),
        "cumf {} exited with {}\nstderr:\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("cumf stdout is UTF-8")
}

fn assert_matches_golden(name: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let (mut a, mut g) = (actual.lines(), golden.lines());
    for line in 1.. {
        match (a.next(), g.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => panic!(
                "{name} differs from tests/golden/{name} at line {line}\n  golden: {}\n  actual: {}",
                y.unwrap_or("<end of file>"),
                x.unwrap_or("<end of output>")
            ),
        }
    }
    panic!("{name} differs from tests/golden/{name} only in line endings");
}

#[test]
fn chaos_quick_transcript_is_pinned() {
    let actual = cumf_stdout(&["chaos", "--quick"]);
    assert_matches_golden(
        "chaos_quick.txt",
        &actual,
        include_str!("golden/chaos_quick.txt"),
    );
}

#[test]
fn analyze_all_transcript_is_pinned() {
    let actual = cumf_stdout(&["analyze", "--all"]);
    let end = actual
        .find("== sanitize")
        .expect("analyze --all prints a sanitize section");
    assert_matches_golden(
        "analyze_all.txt",
        &actual[..end],
        include_str!("golden/analyze_all.txt"),
    );
}
