//! Machine-readable perf harness: measures ns/event for the profiling hot
//! paths over every bundled workload and writes the results as JSON.
//!
//! This is the driver behind the `BENCH_*.json` files (the repo's perf
//! trajectory; `BENCH_15.json` is the latest):
//!
//! ```text
//! cargo bench -p alchemist-bench --bench perf_json -- --out BENCH_15.json
//! ```
//!
//! Paths measured per workload at `Scale::Tiny` (the base size):
//!
//! * `live_profile` — run the interpreter with the online profiler attached
//!   (the paper's Table III configuration);
//! * `live_profile_metrics` — the same path with an `obs::Metrics` handle
//!   attached to the interpreter (the `--metrics` configuration); the
//!   harness asserts the aggregate overhead stays under 5% ns/event;
//! * `execute` — run the interpreter into a `NullSink`, no analysis;
//! * `decode` — decode the recorded trace into a `NullSink`
//!   (`replay_batched_into`), no analysis. Recording pays off only while
//!   this row stays below `execute`: otherwise re-running the program is
//!   cheaper than replaying its trace. The rows record the ordering; no
//!   gate checks it, since a wall-clock ordering depends on the host;
//! * `replay_profile_batched` — sequential batched replay of a recorded
//!   trace into the profiler;
//! * `replay_profile_batched_par4` — the full `replay --jobs 4` pipeline
//!   (`replay_pipelined`: three decode workers feeding one profiler in
//!   trace order).
//!
//! The last four paths are then re-measured at `Scale::Huge` (the
//! tens-of-millions-of-events regime where per-event costs dominate
//! setup and hand-off — the size parallel replay is for). In quick mode
//! only ogg and bzip2 run the scaled paths; a full run scales the whole
//! suite. On a machine with 2+ CPUs the harness **asserts** that par4
//! ns/event does not exceed sequential ns/event on ogg and bzip2 at the
//! scaled size; on a single-CPU machine the parallel pipeline cannot win
//! wall-clock by construction (the decode workers and the profiler
//! time-slice one core), so the numbers are recorded but the gate is
//! skipped.
//!
//! Every sample is a full pass over the workload's event stream; the
//! reported figure is the **best** of `--iters N` passes (default 5,
//! capped at 3 for the scaled sizes) divided by the stream's event count.
//! `ALCHEMIST_BENCH_QUICK=1` drops to one pass per base path (the CI
//! smoke mode).
//!
//! The output is a JSON object `{cpus, rows}` where `rows` is an array of
//! `{workload, path, scale, events, ns_per_event}` objects — stable keys,
//! one object per (workload, path, scale) triple — so perf trajectories
//! can be diffed across commits without scraping bench logs. `cpus`
//! records the parallelism the numbers were taken under.

use alchemist_core::{AlchemistProfiler, ProfileConfig};
use alchemist_obs::{Counter, Metrics};
use alchemist_trace::{replay_pipelined, ReplayOptions, TraceReader, TraceWriter};
use alchemist_vm::{NullSink, DEFAULT_BATCH_EVENTS};
use alchemist_workloads::Scale;
use std::io::Write as _;
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::var_os("ALCHEMIST_BENCH_QUICK").is_some()
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Row {
    workload: &'static str,
    path: &'static str,
    scale: Scale,
    events: u64,
    ns_per_event: f64,
}

/// Times `f` (one full pass per call) `iters` times; returns best-of ns.
fn best_of<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Records `w` at `scale` to an in-memory trace; returns the encoded bytes
/// the replay paths consume, the event count and the step count.
fn record(w: &alchemist_workloads::Workload, scale: Scale) -> (Vec<u8>, u64, u64) {
    let module = w.module();
    // Threaded workloads need the v2 tid column; single-threaded ones
    // stay on v1.
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header");
    let outcome = alchemist_vm::run(&module, &w.exec_config(scale), &mut writer).expect("runs");
    let (bytes, stats) = writer.finish(outcome.steps).expect("finish");
    (bytes, stats.events, outcome.steps)
}

/// Measures execution alone, decode alone and the two replay paths
/// (sequential batched, pipelined `--jobs 4`) over `bytes`; pushes one row
/// each and returns the replay paths' `(seq, par)` ns/event for the
/// scaled-size gate.
fn measure_replay(
    w: &alchemist_workloads::Workload,
    scale: Scale,
    bytes: &[u8],
    events: u64,
    iters: usize,
    rows: &mut Vec<Row>,
) -> (f64, f64) {
    let module = w.module();
    let cfg = w.exec_config(scale);
    let mut row = |path, ns: f64| {
        rows.push(Row {
            workload: w.name,
            path,
            scale,
            events,
            ns_per_event: ns / events as f64,
        })
    };
    row(
        "execute",
        best_of(iters, || {
            alchemist_vm::run(&module, &cfg, &mut NullSink).expect("workload runs");
        }),
    );
    row(
        "decode",
        best_of(iters, || {
            let mut reader = TraceReader::new(bytes).expect("header");
            let summary = reader.replay_batched_into(&mut NullSink, DEFAULT_BATCH_EVENTS);
            assert_eq!(summary.expect("decode").events, events);
        }),
    );
    let seq_ns = best_of(iters, || {
        let mut reader = TraceReader::new(bytes).expect("header");
        let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
        let summary = reader
            .replay_batched_into(&mut prof, DEFAULT_BATCH_EVENTS)
            .expect("replay");
        let _ = std::hint::black_box(prof.into_profile(summary.total_steps));
    });
    row("replay_profile_batched", seq_ns);

    let par_ns = best_of(iters, || {
        let reader = TraceReader::new(bytes).expect("header");
        let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
        let options = ReplayOptions {
            jobs: 4,
            ..ReplayOptions::default()
        };
        let summary = replay_pipelined(reader, &mut prof, options).expect("replay");
        let _ = std::hint::black_box(prof.into_profile(summary.total_steps));
    });
    row("replay_profile_batched_par4", par_ns);
    (seq_ns / events as f64, par_ns / events as f64)
}

/// Accumulated best-of wall times for the metrics-overhead gate:
/// `(live_profile_ns, live_profile_metrics_ns)`, summed over workloads.
type OverheadTotals = (f64, f64);

/// The base-size (Tiny) measurement: all six paths.
fn measure_workload(
    w: &alchemist_workloads::Workload,
    iters: usize,
    rows: &mut Vec<Row>,
    totals: &mut OverheadTotals,
) {
    let module = w.module();
    let cfg = w.exec_config(Scale::Tiny);
    let (bytes, events, steps) = record(w, Scale::Tiny);

    // The live/metrics pair feeds the overhead assertion, so even quick
    // mode takes best-of-3: the minimum converges on the true pass time
    // and keeps a one-shot scheduling hiccup from tripping the gate.
    let oiters = iters.max(3);
    let live_ns = best_of(oiters, || {
        let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
        alchemist_vm::run(&module, &cfg, &mut prof).expect("workload runs");
        let _ = std::hint::black_box(prof.into_profile(steps));
    });
    rows.push(Row {
        workload: w.name,
        path: "live_profile",
        scale: Scale::Tiny,
        events,
        ns_per_event: live_ns / events as f64,
    });

    let metrics_ns = best_of(oiters, || {
        let metrics = Metrics::new();
        let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
        alchemist_vm::run_with_metrics(&module, &cfg, &mut prof, Some(&metrics))
            .expect("workload runs");
        let _ = std::hint::black_box(prof.into_profile(steps));
        assert_eq!(
            metrics.get(Counter::VmEvents),
            events,
            "meter sees every event"
        );
    });
    rows.push(Row {
        workload: w.name,
        path: "live_profile_metrics",
        scale: Scale::Tiny,
        events,
        ns_per_event: metrics_ns / events as f64,
    });
    totals.0 += live_ns;
    totals.1 += metrics_ns;

    measure_replay(w, Scale::Tiny, &bytes, events, iters, rows);
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("\"cpus\": {},\n", cpus()));
    out.push_str("\"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"path\": \"{}\", \"scale\": \"{}\", \
             \"events\": {}, \"ns_per_event\": {:.2}}}{}\n",
            r.workload,
            r.path,
            r.scale.name(),
            r.events,
            r.ns_per_event,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = std::env::var("ALCHEMIST_BENCH_JSON").ok();
    let mut iters = if quick_mode() { 1 } else { 5 };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--iters" => {
                iters = it
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters: not a number");
            }
            // `cargo bench` forwards harness flags like `--bench`; ignore.
            _ => {}
        }
    }

    let mut rows = Vec::new();
    let mut totals: OverheadTotals = (0.0, 0.0);
    for w in alchemist_workloads::all() {
        eprintln!("measuring {} ({} passes per path)...", w.name, iters);
        measure_workload(w, iters, &mut rows, &mut totals);
    }

    // Metrics must be observationally free: aggregated over every workload
    // (so per-workload timer noise averages out), attaching a Metrics
    // handle to the live profiling path may cost at most 5% ns/event. The
    // small absolute slack absorbs clock granularity on sub-ms passes.
    let (base_ns, metered_ns) = totals;
    let overhead = (metered_ns - base_ns) / base_ns * 100.0;
    eprintln!(
        "metrics-on overhead: {overhead:+.2}% ({:.3} ms -> {:.3} ms aggregate best-of)",
        base_ns / 1e6,
        metered_ns / 1e6
    );
    assert!(
        metered_ns <= base_ns * 1.05 + 50_000.0,
        "metrics-on live profiling exceeded the 5% overhead budget: \
         {base_ns:.0} ns -> {metered_ns:.0} ns ({overhead:+.2}%)"
    );

    // The scaled replay pair. Quick mode covers the two gate workloads;
    // a full run scales the whole suite. Passes are capped at 2-3: at
    // tens of millions of events one pass is milliseconds of work per
    // event column, and best-of converges fast.
    let scaled = Scale::Huge;
    let scaled_iters = iters.clamp(2, 3);
    let gate = cpus() >= 2;
    if !gate {
        eprintln!(
            "note: {} CPU available — recording scaled seq-vs-par numbers \
             but skipping the par4<=seq gate (a lone core cannot win \
             wall-clock by adding workers)",
            cpus()
        );
    }
    for w in alchemist_workloads::all() {
        let gated = w.name == "ogg" || w.name == "bzip2";
        if quick_mode() && !gated {
            continue;
        }
        eprintln!(
            "measuring {} at --scale {} ({scaled_iters} passes per path)...",
            w.name,
            scaled.name()
        );
        let (bytes, events, _) = record(w, scaled);
        let (seq, par) = measure_replay(w, scaled, &bytes, events, scaled_iters, &mut rows);
        eprintln!(
            "  {} events: seq {seq:.1} ns/event, par4 {par:.1} ns/event",
            events
        );
        if gate && gated {
            // 2% slack: the gate is "parallel replay wins", not "wins by
            // a margin that survives timer jitter".
            assert!(
                par <= seq * 1.02,
                "{} at --scale {}: par4 replay ({par:.1} ns/event) must not \
                 exceed sequential ({seq:.1} ns/event) on a {}-CPU machine",
                w.name,
                scaled.name(),
                cpus()
            );
        }
    }

    let json = render_json(&rows);
    match out_path {
        Some(path) => {
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            f.write_all(json.as_bytes()).expect("write json");
            eprintln!("wrote {} rows to {path}", rows.len());
        }
        None => print!("{json}"),
    }
}
