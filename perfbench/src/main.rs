//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload paper-diagnose|paper-ect|test-runtime|all
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//!           [--determinism]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. The lines before it name every
//! metric with its unit, including the ones only some workloads define.
//! `--determinism` runs the workload twice with the same seed, each in its
//! own process, and fails unless quality ratios and work counts agree.
//! See `perfbench/README.md`.

use climate_rca::model::ModelSource;
use climate_rca::rca::RcaError;
use climate_rca::stats::Verdict;
use perfbench::{ms, prepare, run_subject, Finished, Prepared, SetupTimes, Spans, Workload};
use rca_campaign::CampaignScenario;
use serde::{Json, Serialize};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    determinism: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload paper-diagnose|paper-ect|test-runtime|all\n\
         \x20                [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n\
         \x20                [--determinism]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 51966,
        seconds: 25.0,
        trace: false,
        spans: None,
        determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--spans" => args.spans = Some(value().into()),
            "--determinism" => args.determinism = true,
            _ => usage(),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        usage();
    }
    args
}

/// What the closed loop recorded about one subject.
#[derive(Debug)]
struct Record {
    name: String,
    expects_fail: bool,
    /// `None` when the pipeline returned an error.
    verdict: Option<Verdict>,
    located: bool,
    wall: Duration,
    /// Traced runs only: the stage spans, and the wall time of the same
    /// subject run bare on the twin session.
    spans: Option<(Spans, Duration)>,
}

/// Everything one run measured.
#[derive(Debug)]
struct Run {
    setups: Vec<SetupTimes>,
    records: Vec<Record>,
    loop_time: Duration,
    peak_rss_mb: f64,
    /// Verification failures; empty means correct.
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = parse_args();
    // One client thread drives the loop; the program's own fan-outs get
    // every core, and nothing else.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.determinism {
        return check_determinism(&args);
    }
    let workload = Workload::parse(&args.workload).expect("validated in parse_args");
    match measure(workload, &args) {
        Ok(run) => {
            report(workload, &args, &run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(child_args(args, w));
        if args.determinism {
            cmd.arg("--determinism");
        }
        ok &= cmd.status().is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_args(args: &Args, w: Workload) -> Vec<String> {
    vec![
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if args.trace { "1" } else { "0" }.into(),
    ]
}

/// Runs the traced workload twice with the same seed and compares the
/// `deterministic` lines (quality ratios and work counts).
fn check_determinism(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let w = Workload::parse(&args.workload).expect("validated in parse_args");
    let traced = Args {
        trace: true,
        ..args.clone()
    };
    let mut lines = Vec::new();
    for _ in 0..2 {
        let out = Command::new(&exe)
            .args(child_args(&traced, w))
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        else {
            eprintln!("perfbench: could not run {}", w.name());
            return ExitCode::FAILURE;
        };
        let line = out
            .lines()
            .find(|l| l.starts_with("deterministic "))
            .map(str::to_string);
        let Some(line) = line else {
            eprintln!("perfbench: {} printed no deterministic line", w.name());
            return ExitCode::FAILURE;
        };
        println!("{line}");
        lines.push(line);
    }
    if lines[0] == lines[1] {
        println!("determinism {}: identical", w.name());
        ExitCode::SUCCESS
    } else {
        println!("determinism {}: DIFFERENT", w.name());
        ExitCode::FAILURE
    }
}

/// Sets up `workload` repeatedly, then runs its closed loop.
fn measure(workload: Workload, args: &Args) -> Result<Run, RcaError> {
    let model = workload.model();
    // A traced run keeps two sessions: subjects run bare on one and traced
    // on the other, so the overhead ratio compares the same subjects with
    // neither session's program cache warmed by the other.
    let keep = if args.trace { 2 } else { 1 };
    let mut setups = Vec::new();
    let subjects = workload.subjects(args.seconds);
    let set_up = |count: usize, setups: &mut Vec<SetupTimes>| {
        set_up(workload, &model, args.seed, subjects, count, keep, setups)
    };
    let mut kept = set_up(workload.setups(), &mut setups)?;
    let diagnose = workload.diagnoses();
    let mut problems = Vec::new();
    let mut replay = None;
    let mut records = Vec::new();
    // Loop time excludes the set-ups of later rounds.
    let mut loop_time = Duration::ZERO;
    for i in 0..subjects {
        let pos = i % kept[0].plan.len();
        if i > 0 && pos == 0 {
            kept.clear();
            kept = set_up(keep, &mut setups)?;
        }
        let started = Instant::now();
        let main = kept.last().expect("at least one set-up");
        let cs = &main.plan[pos];
        let (finished, wall, spans) = match kept.first().filter(|_| args.trace) {
            None => {
                let (finished, wall) = timed(main, cs, diagnose, None);
                (finished, wall, None)
            }
            Some(twin) => {
                let mut spans = Spans {
                    id: i,
                    ..Spans::default()
                };
                // Alternate which goes first so neither side always runs
                // on caches the other warmed.
                let ((b, b_wall), (finished, wall)) = if i % 2 == 0 {
                    let b = timed(twin, cs, diagnose, None);
                    (b, timed(main, cs, diagnose, Some(&mut spans)))
                } else {
                    let t = timed(main, cs, diagnose, Some(&mut spans));
                    (timed(twin, cs, diagnose, None), t)
                };
                let agree = match (&b, &finished) {
                    (Ok(b), Ok(t)) => b.agrees(t),
                    (b, t) => b.is_ok() == t.is_ok(),
                };
                if !agree {
                    problems.push(format!(
                        "{}: traced and bare runs disagree",
                        cs.scenario.name
                    ));
                }
                (finished, wall, Some((spans, b_wall)))
            }
        };
        records.push(Record {
            name: cs.scenario.name.clone(),
            expects_fail: cs.class.expects_fail(),
            verdict: finished.as_ref().ok().map(Finished::verdict),
            located: finished.as_ref().is_ok_and(Finished::located),
            wall,
            spans,
        });
        loop_time += started.elapsed();
        match &finished {
            Ok(f @ Finished::Diagnosed(_)) if replay.is_none() => {
                replay = f.json().map(|json| (pos, json));
            }
            Err(e) => eprintln!("perfbench: {}: {e}", cs.scenario.name),
            _ => {}
        }
    }
    let peak_rss_mb = peak_rss_mb();
    // The staged client must give what the shipped entry point gives (on
    // this session, whichever round produced the staged diagnosis).
    if let Some((pos, staged)) = replay {
        let main = kept.last().expect("at least one set-up");
        let cs = &main.plan[pos];
        match main.session.diagnose_scenario(&cs.scenario) {
            Ok(d) if serde_json::to_string(&d).expect("infallible") == staged => {}
            _ => problems.push(format!(
                "{}: staged diagnosis differs from diagnose_scenario",
                cs.scenario.name
            )),
        }
    }
    if args.trace {
        problems.extend(reconciliation_problems(&records));
        write_spans(workload, args, &records);
    }
    Ok(Run {
        setups,
        records,
        loop_time,
        peak_rss_mb,
        problems,
    })
}

/// Runs `count` fresh set-ups, recording each one's times, and keeps the
/// last `keep` sessions (older ones are dropped before the next is built).
fn set_up<'m>(
    workload: Workload,
    model: &'m Arc<ModelSource>,
    seed: u64,
    subjects: usize,
    count: usize,
    keep: usize,
    setups: &mut Vec<SetupTimes>,
) -> Result<Vec<Prepared<'m>>, RcaError> {
    let mut kept = Vec::new();
    for _ in 0..count.max(keep) {
        if kept.len() == keep {
            kept.remove(0);
        }
        let p = prepare(workload, model, seed, subjects)?;
        setups.push(p.times);
        kept.push(p);
    }
    Ok(kept)
}

/// One subject through the staged client, with its wall time measured
/// around the whole call.
fn timed(
    p: &Prepared<'_>,
    cs: &CampaignScenario,
    diagnose: bool,
    spans: Option<&mut Spans>,
) -> (Result<Finished, RcaError>, Duration) {
    let t = Instant::now();
    let finished = run_subject(&p.session, cs, diagnose, spans);
    (finished, t.elapsed())
}

/// Checks each traced subject's spans two ways. They must add up to the
/// subject's wall time, which holds by construction (the spans are laps of
/// one stopwatch) and so only guards against time counted twice, such as
/// the oracle's inside refine. And on full diagnoses, the span around each
/// of `statistics_scenario`, `slice` and `refine_with` must agree with the
/// program's own timer for that phase: an independent measure, which
/// catches a span that times more or less than the call it names.
fn reconciliation_problems(records: &[Record]) -> Vec<String> {
    let mut problems = Vec::new();
    for r in records {
        let Some((spans, _)) = &r.spans else { continue };
        let gap = ms(r.wall) - ms(spans.accounted());
        if gap.abs() > (ms(r.wall) * 0.01).max(0.5) {
            problems.push(format!("{}: spans miss {gap:.3} ms of the subject", r.name));
        }
        for c in &spans.phases {
            let Some(inside) = c.inside else {
                problems.push(format!("{}: no single {} in the profile", r.name, c.phase));
                continue;
            };
            // The span holds the program's timer, so it is never shorter;
            // the slack above covers the few calls between the two clocks
            // and the thread being descheduled there.
            let gap = ms(c.outside) - ms(inside);
            if !(0.0..=(ms(c.outside) * 0.05).max(5.0)).contains(&gap) {
                problems.push(format!(
                    "{}: the span around {} differs from the program's timer by {gap:.3} ms",
                    r.name, c.phase
                ));
            }
        }
    }
    problems
}

/// Writes every span, one JSON line each, once the run has ended.
fn write_spans(workload: Workload, args: &Args, records: &[Record]) {
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_out").join(format!(
            "{}-seed{}.spans.jsonl",
            workload.name(),
            args.seed
        ))
    });
    let text: String = records
        .iter()
        .filter_map(|r| r.spans.as_ref().map(|(s, _)| s.to_jsonl(&r.name, r.wall)))
        .collect();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Share of `num` over `den`; an empty denominator counts as perfect, as
/// in the campaign scorecard.
fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Quality ratios that go into the JSON line (every workload defines them,
/// and a working pipeline holds them at 1 for every seed).
const GATED: [&str; 2] = ["ok_share", "clean_pass_rate"];

/// Lowest acceptable quality ratios. A run below one is not correct: the
/// campaign scorecard's fixed-seed floors, loosened to what a short run's
/// sample of any seed still clears.
const FLOORS: [(&str, f64); 3] = [
    ("flagged_rate", 0.5),
    ("clean_pass_rate", 0.9),
    ("localization_rate", 0.9),
];

/// Quality ratios over a run's subjects (a fixed set for a seed, so they
/// repeat exactly).
fn quality(workload: Workload, records: &[Record]) -> Vec<(&'static str, f64)> {
    let ok = records.iter().filter(|r| r.verdict.is_some()).count();
    let mutants = records.iter().filter(|r| r.expects_fail).count();
    let flagged: Vec<&Record> = records
        .iter()
        .filter(|r| r.expects_fail && r.verdict == Some(Verdict::Fail))
        .collect();
    let cleans = records.len() - mutants;
    let passed = records
        .iter()
        .filter(|r| !r.expects_fail && r.verdict == Some(Verdict::Pass))
        .count();
    let mut q = vec![
        ("ok_share", rate(ok, records.len())),
        ("flagged_rate", rate(flagged.len(), mutants)),
        ("clean_pass_rate", rate(passed, cleans)),
    ];
    if workload.diagnoses() {
        let located = flagged.iter().filter(|r| r.located).count();
        q.push(("localization_rate", rate(located, flagged.len())));
    }
    q
}

/// Work counts summed over a run's subjects (traced runs only).
fn counts(records: &[Record]) -> Vec<(&'static str, usize)> {
    let spans: Vec<&Spans> = records
        .iter()
        .filter_map(|r| r.spans.as_ref().map(|(s, _)| s))
        .collect();
    let sum = |f: fn(&Spans) -> usize| spans.iter().map(|s| f(s)).sum::<usize>();
    vec![
        ("compile.programs", sum(|s| s.programs)),
        ("slice.nodes", sum(|s| s.slice_nodes)),
        ("slice.edges", sum(|s| s.slice_edges)),
        ("refine.iterations", sum(|s| s.iterations)),
        ("oracle.queries", sum(|s| s.queries)),
        ("oracle.nodes", sum(|s| s.nodes)),
    ]
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value_ms)`; `None` below twenty samples.
fn tail(walls_ms: &[f64]) -> Option<(f64, f64)> {
    let n = walls_ms.len();
    if n < 20 {
        return None;
    }
    let mut v = walls_ms.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

fn report(workload: Workload, args: &Args, run: &Run) {
    let ok: Vec<&Record> = run.records.iter().filter(|r| r.verdict.is_some()).collect();
    let walls: Vec<f64> = ok.iter().map(|r| ms(r.wall)).collect();
    let setup =
        |f: fn(&SetupTimes) -> Duration| median(run.setups.iter().map(|t| ms(f(t))).collect());
    println!(
        "workload {} seed {} seconds {} trace {} subjects {} set-ups {} loop_s {:.3}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.records.len(),
        run.setups.len(),
        run.loop_time.as_secs_f64()
    );
    let quality = quality(workload, &run.records);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("setup_s".into(), setup(SetupTimes::total) / 1e3, "s"));
        metrics.push((
            "diagnoses_per_s".into(),
            ok.len() as f64 / run.loop_time.as_secs_f64(),
            "1/s",
        ));
        metrics.push(("diag_p50_ms".into(), median(walls.clone()), "ms"));
        metrics.push(("peak_rss_mb".into(), run.peak_rss_mb, "MB"));
        // The JSON line carries the same metrics for every workload and
        // each must hold steady across seeds. The ratios below vary with
        // the seed's sample of mutants, or exist on some workloads only,
        // so they are reported here and floored, not bounded.
        for (name, v) in &quality {
            if GATED.contains(name) {
                metrics.push(((*name).into(), *v, "ratio"));
            } else {
                println!("metric {name} {v} ratio");
            }
        }
        if !workload.diagnoses() {
            println!("metric localization_rate n/a (stops at the verdict)");
        }
        match tail(&walls) {
            Some((p, v)) => println!(
                "metric diag_tail_ms {v} ms (p{p:.1}, {} samples, 10 beyond)",
                walls.len()
            ),
            None => println!("metric diag_tail_ms n/a ({} samples < 20)", walls.len()),
        }
    } else {
        let traced: Vec<(&Spans, f64)> = ok
            .iter()
            .filter_map(|r| r.spans.as_ref().map(|(s, _)| (s, ms(r.wall))))
            .collect();
        let layer = |f: fn(&Spans) -> Duration| mean(traced.iter().map(|(s, _)| ms(f(s))));
        let wall = mean(traced.iter().map(|(_, w)| *w));
        let selves = [
            ("compile.self_ms", layer(|s| s.compile)),
            ("statistics.self_ms", layer(|s| s.statistics)),
            ("slice.self_ms", layer(|s| s.slice)),
            ("oracle.self_ms", layer(|s| s.oracle)),
            ("refine.self_ms", layer(|s| s.refine)),
        ];
        let other = wall - selves.iter().map(|(_, v)| v).sum::<f64>();
        for (name, v) in selves {
            metrics.push((name.into(), v, "ms"));
        }
        metrics.push(("diagnosis.other_ms".into(), other, "ms"));
        for (name, v) in counts(&run.records) {
            metrics.push((name.into(), v as f64, "count"));
        }
        metrics.push(("setup.build_ms".into(), setup(|t| t.build), "ms"));
        metrics.push(("setup.ensemble_ms".into(), setup(|t| t.ensemble), "ms"));
        metrics.push(("setup.analyze_ms".into(), setup(|t| t.analyze), "ms"));
        metrics.push(("setup.plan_ms".into(), setup(|t| t.plan), "ms"));
        let bare: f64 = run
            .records
            .iter()
            .filter_map(|r| r.spans.as_ref().map(|(_, b)| ms(*b)))
            .sum();
        let traced_sum: f64 = run.records.iter().map(|r| ms(r.wall)).sum();
        metrics.push(("trace.overhead_ratio".into(), bare / traced_sum, "ratio"));
        for (name, v, _) in &metrics[..6] {
            let share = if wall > 0.0 { v / wall } else { 0.0 };
            println!("share {name} {share:.4} of {wall:.3} ms per subject");
        }
        for phase in ["phase.statistics", "phase.slice", "phase.refine"] {
            let gaps: Vec<f64> = traced
                .iter()
                .flat_map(|(s, _)| &s.phases)
                .filter(|c| c.phase == phase)
                .filter_map(|c| Some(ms(c.outside) - ms(c.inside?)))
                .collect();
            if gaps.is_empty() {
                continue;
            }
            let min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
            let max = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "reconcile {phase} span minus program timer: {min:.3} to {max:.3} ms over {} subjects",
                gaps.len()
            );
        }
    }
    // Quality ratios and work counts repeat exactly for a seed: any drift
    // between two runs is a behaviour change, never noise.
    let mut det: Vec<(&str, Json)> = quality.iter().map(|(n, v)| (*n, v.to_json())).collect();
    if args.trace {
        det.extend(
            counts(&run.records)
                .into_iter()
                .map(|(n, v)| (n, v.to_json())),
        );
    }
    println!(
        "deterministic {}",
        serde_json::to_string(&Json::obj(det)).expect("infallible")
    );
    for (i, r) in run.records.iter().enumerate() {
        let verdict = r
            .verdict
            .map_or_else(|| "error".to_string(), |v| v.to_string());
        println!(
            "subject {i} {} verdict {verdict} located {} ms {:.3}",
            r.name,
            r.located,
            ms(r.wall)
        );
    }
    let floors = quality.iter().filter_map(|(name, v)| {
        let (_, floor) = FLOORS.iter().find(|(n, _)| n == name)?;
        (v < floor).then(|| format!("{name} {v} is below its floor {floor}"))
    });
    let problems: Vec<String> = run.problems.iter().cloned().chain(floors).collect();
    for p in &problems {
        println!("problem {p}");
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    let attempted = run.records.len();
    let line = Json::obj([
        ("correct", problems.is_empty().to_json()),
        ("attempted", attempted.to_json()),
        ("failed", (attempted - ok.len()).to_json()),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", unit.to_json())]),
                )
            })),
        ),
    ]);
    println!("{}", serde_json::to_string(&line).expect("infallible"));
}
