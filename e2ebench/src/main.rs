//! End-to-end benchmark of the cuMF_SGD workspace.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <file>] [--quick]
//! benchmark --compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! One invocation runs one workload in one single-threaded process,
//! checks that its outputs are correct, prints every metric by name with
//! its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones from a separate traced run (see
//! `README.md`). `--out` appends the same result, with spreads and
//! sample counts, as one JSON line; `--compare` reads two such files
//! and classifies every end-to-end metric on every workload.

mod catalog;
mod serve;
mod stats;
mod tracer;
mod train;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cumf_bench::json::{num, parse, quote, Json};

use catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{compare, iqr, median, Verdict};

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// Tiny inputs and one trial: the smoke-test mode.
    pub quick: bool,
}

/// A metric's value with the median, spread and count of the samples
/// it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Measured {
    fn from(value: f64, samples: &[f64]) -> Self {
        Measured {
            value,
            median: median(samples),
            iqr: iqr(samples),
            n: samples.len(),
        }
    }

    /// The median of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        Self::from(median(samples), samples)
    }

    /// The smallest of `samples`: the trial least disturbed by other
    /// work on a shared machine.
    pub fn min(samples: &[f64]) -> Self {
        Self::from(samples.iter().copied().fold(f64::NAN, f64::min), samples)
    }

    /// The largest of `samples` (the rate of the least disturbed trial).
    pub fn max(samples: &[f64]) -> Self {
        Self::from(samples.iter().copied().fold(f64::NAN, f64::max), samples)
    }

    pub fn single(value: f64) -> Self {
        Self::from(value, &[value])
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness failure, human-readable. Empty means correct.
    pub problems: Vec<String>,
    /// Declared metrics (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Workload-specific numbers printed and saved alongside, never
    /// compared: quality, simulated time, error rate.
    pub extra: Vec<(&'static str, &'static str, Measured)>,
    /// Free-form report printed before the metric table.
    pub notes: String,
}

impl Outcome {
    /// Records a failed operation and why.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn set(&mut self, name: &'static str, m: Measured) {
        assert!(catalog::metric(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name, m);
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, m: Measured) {
        self.extra.push((name, unit, m));
    }

    /// Sets every declared metric of `defs` not yet set to 0: the layers
    /// this workload does not run.
    pub fn zero_rest(&mut self, defs: &[MetricDef]) {
        for d in defs {
            self.metrics.entry(d.name).or_insert(Measured::single(0.0));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a traced run writes its Chrome trace by default: the
/// benchmark's own, git-ignored `out/` directory.
fn default_trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <file>] [--quick]
       benchmark --compare <parent.jsonl> <change.jsonl>";

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("--compare takes two result files".into()),
        };
    }
    let mut args = Args {
        workload: String::new(),
        seed: 2017,
        seconds: 15.0,
        trace: false,
        out: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--quick" => args.quick = true,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            names.join(", "),
            args.workload
        ));
    }
    Ok(Command::Run(args))
}

/// Runs the workload `args` names; a traced run also returns its spans.
pub fn run(args: &Args) -> (Outcome, Option<tracer::Tracer>) {
    match args.workload.as_str() {
        "netflix-bh-f32" => train::run::<f32>(&train::NETFLIX_BH, args),
        "netflix-bh-f16" => train::run::<cumf_core::F16>(&train::NETFLIX_BH, args),
        "yahoo-wavefront-f32" => train::run::<f32>(&train::YAHOO_WAVEFRONT, args),
        "serve-zipf" => serve::run(args),
        w => unreachable!("workload {w} was validated"),
    }
}

/// The machine-readable result: the last line of standard output.
fn result_line(o: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = o.metrics.get(d.name).map_or(f64::NAN, |m| m.value);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(d.name),
                num(v),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    )
}

/// The `--out` record: the result plus spreads, counts and extras.
fn record_line(args: &Args, o: &Outcome, defs: &[MetricDef]) -> String {
    let m = |name: &str, unit: &str, x: &Measured| {
        format!(
            "{}:{{\"value\":{},\"unit\":{},\"median\":{},\"iqr\":{},\"n\":{}}}",
            quote(name),
            num(x.value),
            quote(unit),
            num(x.median),
            num(x.iqr),
            x.n
        )
    };
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| o.metrics.get(d.name).map(|x| m(d.name, d.unit, x)))
        .collect();
    let extra: Vec<String> = o.extra.iter().map(|(n, u, x)| m(n, u, x)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"correct\":{},\"attempted\":{},\
         \"failed\":{},\"metrics\":{{{}}},\"extra\":{{{}}}}}",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(","),
        extra.join(",")
    )
}

fn render_table(o: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{:<30} {:>16} {:<6} {:>16} {:>12} {:>4}\n",
        "metric", "value", "unit", "median", "iqr", "n"
    );
    let rows = defs
        .iter()
        .filter_map(|d| o.metrics.get(d.name).map(|m| (d.name, d.unit, m)))
        .chain(o.extra.iter().map(|(n, u, m)| (*n, *u, m)));
    for (name, unit, m) in rows {
        out.push_str(&format!(
            "{name:<30} {:>16.6} {unit:<6} {:>16.6} {:>12.6} {:>4}\n",
            m.value, m.median, m.iqr, m.n
        ));
    }
    out
}

fn measure(args: &Args) -> Result<bool, String> {
    let (mut outcome, trace) = run(args);
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for d in defs {
        match outcome.metrics.get(d.name) {
            Some(m) if m.value.is_finite() => {}
            _ => outcome
                .problems
                .push(format!("metric {} is missing or not finite", d.name)),
        }
    }
    if let Some(tr) = &trace {
        let dir = default_trace_dir();
        let path = match &args.out {
            Some(out) => out.with_extension("trace.json"),
            None => dir.join(format!("trace-{}-{}.json", args.workload, args.seed)),
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "self time per span (traced run):\n{}",
            tr.render_self_times()
        );
        println!("chrome trace: {}", path.display());
    }
    print!("{}", outcome.notes);
    println!(
        "workload {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    print!("{}", render_table(&outcome, defs));
    for p in &outcome.problems {
        eprintln!("INCORRECT: {p}");
    }
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", record_line(args, &outcome, defs))
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome, defs));
    Ok(outcome.correct())
}

/// Reads the untraced records of an `--out` file: workload → metric →
/// one value per run.
fn load_runs(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec.get("workload").and_then(Json::as_str).ok_or(format!(
            "{}:{}: no workload",
            path.display(),
            i + 1
        ))?;
        let per = runs.entry(workload.to_string()).or_default();
        if let Some(Json::Obj(fields)) = rec.get("metrics") {
            for (name, m) in fields {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

fn compare_files(parent: &Path, change: &Path) -> Result<bool, String> {
    let (p, c) = (load_runs(parent)?, load_runs(change)?);
    let mut regressed = false;
    println!(
        "{:<20} {:<18} {:>6} {:>14} {:>12} {:>14} {:>12}  verdict",
        "workload", "metric", "bound", "parent_med", "parent_iqr", "change_med", "change_iqr"
    );
    for (workload, _) in WORKLOADS {
        let (Some(pw), Some(cw)) = (p.get(workload), c.get(workload)) else {
            continue;
        };
        for d in &END_TO_END {
            let empty = Vec::new();
            let (pv, cv) = (
                pw.get(d.name).unwrap_or(&empty),
                cw.get(d.name).unwrap_or(&empty),
            );
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let verdict = compare(pv, cv, bound, d.better);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<20} {:<18} {bound:>6.2} {:>14.6} {:>12.6} {:>14.6} {:>12.6}  {} ({} vs {} runs, {} is better)",
                d.name,
                median(pv),
                iqr(pv),
                median(cv),
                iqr(cv),
                verdict.as_str(),
                pv.len(),
                cv.len(),
                d.better.as_str()
            );
        }
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Command::Run(args)) => measure(&args),
        Ok(Command::Compare(a, b)) => compare_files(&a, &b),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            out: None,
            quick: true,
        }
    }

    /// The benchmark declaration at the repository root.
    fn declared() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared_metrics(key: &str) -> Vec<(String, String, String, Option<f64>)> {
        declared()
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<_> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(
                ours,
                declared_metrics(key),
                "{key} drifted from BENCHMARK.json"
            );
        }
        let workloads: Vec<(String, String)> = declared()
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(ours, workloads);
    }

    #[test]
    fn rejects_bad_arguments() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "serve-zipf", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "serve-zipf", "--seed"])).is_err());
        assert!(parse_args(&s(&["--workload", "serve-zipf", "--seconds", "-1"])).is_err());
        assert!(parse_args(&s(&["--compare", "a"])).is_err());
        match parse_args(&s(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "3",
            "--trace",
            "1",
        ])) {
            Ok(Command::Run(a)) => assert!(a.trace && a.seed == 3 && a.seconds == 15.0),
            _ => panic!("valid command line rejected"),
        }
    }

    /// Smoke-runs `workload` in both modes and checks it emits exactly
    /// the declared metrics, correct and finite, and a parsable result.
    fn smoke(workload: &str) {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let args = quick(workload, trace);
            let (o, tr) = run(&args);
            assert!(o.correct(), "{workload} trace={trace}: {:?}", o.problems);
            assert!(o.attempted > 0 && o.failed == 0);
            assert_eq!(tr.is_some(), trace);
            let names: Vec<&str> = o.metrics.keys().copied().collect();
            let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload} trace={trace}");
            for (name, m) in &o.metrics {
                assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
            }
            let line = parse(&result_line(&o, defs)).expect("result line parses");
            for d in defs {
                let m = line
                    .get("metrics")
                    .and_then(|m| m.get(d.name))
                    .expect(d.name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            }
            let rec = parse(&record_line(&args, &o, defs)).expect("record parses");
            assert_eq!(rec.get("workload").and_then(Json::as_str), Some(workload));
        }
    }

    #[test]
    fn smoke_netflix_bh_f32() {
        smoke("netflix-bh-f32");
    }

    #[test]
    fn smoke_netflix_bh_f16() {
        smoke("netflix-bh-f16");
    }

    #[test]
    fn smoke_yahoo_wavefront_f32() {
        smoke("yahoo-wavefront-f32");
    }

    #[test]
    fn smoke_serve_zipf() {
        smoke("serve-zipf");
    }

    #[test]
    fn compare_reads_records_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("cumf-e2ebench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, scale: f64| {
            let path = dir.join(name);
            let lines: Vec<String> = (0..10)
                .map(|i| {
                    let t = (1.0 + 0.001 * i as f64) * scale;
                    format!(
                        "{{\"workload\":\"serve-zipf\",\"trace\":0,\"metrics\":{{\
                         \"time_to_result_s\":{{\"value\":{t}}},\"ops_per_s\":{{\"value\":{}}},\
                         \"setup_s\":{{\"value\":0.2}},\"peak_rss_mb\":{{\"value\":30}}}}}}",
                        1.0 / t
                    )
                })
                .collect();
            std::fs::write(&path, lines.join("\n")).expect("write records");
            path
        };
        let parent = write("parent.jsonl", 1.0);
        let same = write("same.jsonl", 1.0);
        let slow = write("slow.jsonl", 1.5);
        assert_eq!(compare_files(&parent, &same), Ok(true));
        assert_eq!(compare_files(&parent, &slow), Ok(false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
