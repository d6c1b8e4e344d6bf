//! Layered benchmark for CATE-HGN: three workloads driven through the
//! program's public API, output checks, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run's context (host CPUs, tensor threads, sample counts,
//! check results). See `perfbench/README.md` for the metric table.

mod api;
mod check;
mod churn;
mod clock;
mod serve;
mod stats;
mod trace;
mod train;

use crate::clock::Stopwatch;
use check::Checks;
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Tensor worker threads. One keeps the process busy exactly while the
/// measured code runs, which the CPU-time clock relies on.
const TENSOR_THREADS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainFull,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrainFull,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFull => "train-full",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// Workload sizes. `Bench` is what the benchmark measures; `Smoke` runs
/// the same code on a tiny world for the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Smoke,
}

/// How large a phase runs: as the workload's own measured phase, or as a
/// short probe that lets a traced run of another workload report the
/// phase's layers on its own data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    Main,
    Probe,
}

/// Everything one run accumulates.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: Tracer,
    pub checks: Checks,
    /// Operations attempted and failed (errors and shed requests).
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Context printed beside the result: sample counts, check values.
    pub detail: BTreeMap<String, String>,
    /// Directory for shard generations; removed when the run ends.
    pub work_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    /// Records the outcome of an operation that answers `n` requests.
    pub fn attempt<T>(&mut self, what: &str, n: u64, res: Result<T, String>) -> Option<T> {
        self.attempted += n;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                self.checks.record(what, Err(e));
                None
            }
        }
    }

    /// A seed for one named input stream of this run.
    pub fn stream_seed(&self, salt: u64) -> u64 {
        splitmix(self.seed ^ splitmix(salt))
    }
}

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `SETUP_REPS` set-ups, records their median as `setup_s` and
/// returns the last one.
pub fn timed_setup<T>(
    ctx: &mut Ctx,
    mut f: impl FnMut(&mut Ctx) -> Result<T, String>,
) -> Result<T, String> {
    let reps = if ctx.scale == Scale::Smoke {
        2
    } else {
        SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Stopwatch::start();
        last = Some(f(ctx)?);
        times.push(t.secs());
    }
    ctx.e2e.insert("setup_s", stats::median(&times));
    ctx.note("setup_reps", reps);
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// A dataset builder for one world.
pub type Builder = fn(&api::WorldConfig) -> Result<api::Dataset, String>;

/// The data-pipeline layers, measured on the workload's own world:
/// papers per second through the streaming generator, one dataset build,
/// and one shard write of the built graph.
pub fn data_layers(
    ctx: &mut Ctx,
    world: &api::WorldConfig,
    build: Builder,
    ds: &api::Dataset,
) -> Result<(), String> {
    let t = Stopwatch::start();
    let n = ctx
        .tracer
        .span("dblp-sim.stream", 0, || api::stream_papers(world));
    ctx.layers
        .insert("dblp-sim.stream.papers_per_s", n as f64 / t.secs());
    ctx.checks
        .require("stream yields every paper", n == world.n_papers, || {
            format!("{n} of {} papers", world.n_papers)
        });

    let t = Stopwatch::start();
    let rebuilt = ctx.tracer.span("dblp-sim.assemble", 0, || build(world))?;
    ctx.layers.insert("dblp-sim.assemble.s", t.secs());
    ctx.checks.require(
        "dataset build is deterministic",
        api::content_fingerprint(&rebuilt.graph) == api::content_fingerprint(&ds.graph),
        || "two builds of one world differ".into(),
    );

    let dir = ctx.work_dir.join("write-probe");
    let t = Stopwatch::start();
    let res = ctx.tracer.span("hetgraph.shard.write", 0, || {
        api::shard_write(&dir, &ds.graph)
    });
    ctx.layers.insert("hetgraph.shard.write.ms", t.ms());
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// End-to-end metrics and their units, in report order.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ready_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("qps", "1/s"),
];

/// Per-layer metrics and their units, in report order.
pub const LAYERS: [(&str, &str); 33] = [
    ("hetgraph.sample_blocks.ms", "ms"),
    ("core.encoder.ms", "ms"),
    ("core.layer.ms", "ms"),
    ("core.mi.ms", "ms"),
    ("tensor.backward.ms", "ms"),
    ("tensor.optim.ms", "ms"),
    ("core.ca.ms_per_round", "ms"),
    ("core.te.ms_per_round", "ms"),
    ("tensor.circcorr.gflops", "GFLOP/s"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("core.predict.ms_per_paper", "ms"),
    ("hetgraph.blockcache.hit_ratio", "ratio"),
    ("train.unattributed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("core.serve.validate.ms", "ms"),
    ("tensor.matmul_tb.scan.ms", "ms"),
    ("core.serve.select.ms", "ms"),
    ("core.serve.request_unattributed.ms", "ms"),
    ("core.serve.batch_size.p50", "count"),
    ("core.serve.batch_size.p99", "count"),
    ("core.serve.queue_wait.ms.p99", "ms"),
    ("core.serve.cold_start.ms", "ms"),
    ("bench.gen_late.ms.p99", "ms"),
    ("core.serve.embed.us_per_candidate", "us"),
    ("hetgraph.shard.open.ms", "ms"),
    ("hetgraph.shard.load.ms", "ms"),
    ("core.serve.reload.ms", "ms"),
    ("core.serve.rebuild_frac", "ratio"),
    ("core.serve.cache_hit_ratio", "ratio"),
    ("core.serve.cache_rebuilds", "count"),
    ("dblp-sim.stream.papers_per_s", "1/s"),
    ("dblp-sim.assemble.s", "s"),
    ("hetgraph.shard.write.ms", "ms"),
];

/// One finished run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub context: String,
    pub spans_jsonl: String,
}

/// Runs `workload` and checks its outputs. `work_dir` must not exist yet;
/// it is created for shard files and removed before returning.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    work_dir: PathBuf,
) -> Outcome {
    api::set_tensor_threads(TENSOR_THREADS);
    let mut ctx = Ctx {
        seed,
        seconds,
        scale,
        tracer: Tracer::new(traced),
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        detail: BTreeMap::new(),
        work_dir,
    };
    let res = std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("create {}: {e}", ctx.work_dir.display()))
        .and_then(|()| match workload {
            Workload::TrainFull => train::workload(&mut ctx),
            Workload::ServeWarm => serve::workload(&mut ctx),
            Workload::ServeChurn => churn::workload(&mut ctx),
        });
    if let Err(e) = res {
        ctx.checks.record("run", Err(e));
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);

    let wanted: &[(&'static str, &'static str)] = if traced { &LAYERS } else { &E2E };
    let source = if traced { &ctx.layers } else { &ctx.e2e };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match source.get(name) {
            Some(&v) if v.is_finite() => metrics.push((name, unit, v)),
            Some(&v) => ctx.checks.record("metric", Err(format!("{name} = {v}"))),
            None if ctx.checks.ok() => ctx
                .checks
                .record("metric", Err(format!("{name} was not measured"))),
            None => {}
        }
    }
    let (speed_checks, slowdown) = clock::speed_summary();
    ctx.note("host_speed_checks", speed_checks);
    ctx.note("host_slowdown_median", slowdown);
    ctx.note("thread_cpu_s", clock::cpu_ns() as f64 / 1e9);
    ctx.note("process_cpu_s", clock::process_cpu_ns() as f64 / 1e9);
    ctx.note("host_cpus", api::host_cpus());
    ctx.note("tensor_threads", api::tensor_threads());
    ctx.note("checks_run", ctx.checks.checked);
    let context = context_json(workload, &ctx);
    Outcome {
        correct: ctx.checks.ok() && ctx.attempted > 0,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        context,
        spans_jsonl: ctx.tracer.to_jsonl(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn context_json(workload: Workload, ctx: &Ctx) -> String {
    let detail: Vec<String> = ctx
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = ctx.checks.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"detail\": {{{}}}, \"check_failures\": [{}]}}",
        json_str(workload.name()),
        ctx.seed,
        ctx.traced(),
        detail.join(", "),
        failures.join(", ")
    )
}

/// The result line the benchmark contract asks for.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <train-full|serve-warm|serve-churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = clock::start_sampler() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    // Everything the run writes stays under the benchmark's own directory
    // of the checkout it runs from.
    let out_dir = PathBuf::from("perfbench").join("out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    let o = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Bench,
        work_dir,
    );
    if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &o.spans_jsonl))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", o.context);
    println!("{}", result_json(&o));
    if !o.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, traced: bool) -> Outcome {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{}-{traced}",
            std::process::id(),
            w.name()
        ));
        run(w, 7, 0.5, traced, Scale::Smoke, dir)
    }

    fn assert_complete(w: Workload, traced: bool) {
        let o = smoke(w, traced);
        assert!(o.correct, "{} traced={traced}: {}", w.name(), o.context);
        let want = if traced { LAYERS.len() } else { E2E.len() };
        assert_eq!(o.metrics.len(), want, "{}", o.context);
        assert!(o.attempted > 0);
        let line = result_json(&o);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }

    #[test]
    fn train_full_smoke() {
        assert_complete(Workload::TrainFull, false);
    }

    #[test]
    fn serve_warm_smoke() {
        assert_complete(Workload::ServeWarm, false);
    }

    #[test]
    fn serve_churn_smoke() {
        assert_complete(Workload::ServeChurn, false);
    }

    #[test]
    fn traced_smoke_reports_every_layer() {
        for w in Workload::ALL {
            assert_complete(w, true);
        }
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = text.split_whitespace().collect();
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                flat.contains(&entry),
                "{name} ({unit}) is not in BENCHMARK.json"
            );
        }
        let workloads = Workload::ALL.len();
        assert_eq!(
            flat.matches("\"name\":").count(),
            workloads + E2E.len() + LAYERS.len()
        );
        for w in Workload::ALL {
            assert!(flat.contains(&format!("\"name\":\"{}\",\"why\"", w.name())));
        }
    }

    #[test]
    fn seeds_split_into_independent_streams() {
        assert_ne!(splitmix(1), splitmix(2));
        assert_eq!(splitmix(5), splitmix(5));
    }
}
