//! Transcript goldens for the `cumf` CLI.
//!
//! `cumf chaos --quick` (fault matrix plus serve slice) and
//! `cumf analyze --all` are bit-deterministic, so their stdout is pinned
//! byte for byte under `tests/golden/`. A change that moves a transcript
//! on purpose updates the file and says why in CHANGES.md.
//!
//! The analyze transcript is pinned whole. The default build skips the
//! lockset sanitizer, so `analyze_all.txt` ends with its `[SKIP]`
//! section; with `--features sanitize` the same transcript ends with the
//! sanitize section in `analyze_sanitize.txt` instead, which reports the
//! racy sites and their counts.

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
    let golden = include_str!("golden/analyze_all.txt");
    if cfg!(feature = "sanitize") {
        let (head, _) = golden
            .split_once("== sanitize")
            .expect("the golden has a sanitize section");
        let expected = format!("{head}{}", include_str!("golden/analyze_sanitize.txt"));
        assert_matches_golden("analyze_sanitize.txt", &actual, &expected);
    } else {
        assert_matches_golden("analyze_all.txt", &actual, golden);
    }
}
