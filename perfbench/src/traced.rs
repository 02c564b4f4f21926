//! The traced run: the public calls the CLI makes for each timed command,
//! made in the same order from this process, one span per call.
//!
//! Spans are kept in memory and written out when the run ends. Each span
//! is named `<layer>.<operation>`; the five command spans (`cli.record`,
//! `cli.live_profile`, …) parent the calls of one command, and `bench.*`
//! spans hold the harness's own work (capturing the event stream,
//! probes, verification), which no command total includes.

use crate::checks::{self, Tally};
use crate::workload::Program;
use alchemist_core::shadow::{Access, ShadowMemory};
use alchemist_core::{
    profile_batches, profile_batches_par_spec, shard_batch_counts_spec, AlchemistProfiler,
    DepProfile, ProfileConfig, ProfileReport, ShardSpec, ShardTuning,
};
use alchemist_obs::{Counter, Metrics, Stage};
use alchemist_parsim::{
    extract_tasks_from_batches_par_with, simulate, suggest_candidates, ExtractConfig, SimConfig,
};
use alchemist_trace::{
    decode_batches_par_with, write_atomic, AtomicFile, MultiSink, ProfileArtifact, TraceReader,
    TraceWriter,
};
use alchemist_vm::{
    compile_source, run, run_with_metrics, CountingSink, Event, EventBatch, ExecConfig, Module,
    NullSink, Pc, RecordingSink, Tid, Time, TraceSink, DEFAULT_BATCH_EVENTS,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The timed commands, in the order the end-to-end run times them.
pub const COMMANDS: [&str; 5] = [
    "record",
    "live_profile",
    "replay_profile",
    "replay_profile_jobs2",
    "replay_all",
];

/// Bytes one `EventBatch` row occupies: tag, time, addr, pc, aux, tid.
const BATCH_ROW_BYTES: u64 = 1 + 8 + 4 + 4 + 4 + 4;

/// Threads `advise` simulates by default.
const ADVISE_THREADS: usize = 4;

/// Passes over the workload's programs. Like the end-to-end rounds, each
/// time is the fastest pass's: this host's vCPUs alternate between two
/// speeds, and one pass lands in either.
const PASSES: u32 = 3;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// The program this span's work belongs to (spans of one program
    /// share it).
    pub program: String,
    /// Which pass over the workload's programs made the span.
    pub pass: u32,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Events the call handled (0 where it handles none).
    pub events: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans; nesting follows the closures.
pub struct Tracer {
    epoch: Instant,
    program: String,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            program: String::new(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` that handled `events` events.
    fn span<T>(&mut self, name: &'static str, events: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            program: self.program.clone(),
            pass: self.pass,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            events,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        let out = f(self);
        self.spans[id].end_ns = self.now();
        self.open.pop();
        out
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"program\": \"{}\", \"pass\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"events\": {}}}",
                s.name, s.program, s.pass, s.start_ns, s.end_ns, s.events
            );
        }
        std::fs::write(path, out)
    }

    /// Adds up `ns(span index, span)` per program and pass, then sums each
    /// program's fastest pass.
    fn fastest_pass(&self, ns: impl Fn(usize, &Span) -> Option<u64>) -> u64 {
        let mut per_pass: BTreeMap<(&str, u32), u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(v) = ns(i, s) {
                *per_pass.entry((&s.program, s.pass)).or_insert(0) += v;
            }
        }
        let mut fastest: BTreeMap<&str, u64> = BTreeMap::new();
        for ((program, _), v) in per_pass {
            let best = fastest.entry(program).or_insert(v);
            *best = (*best).min(v);
        }
        fastest.values().sum()
    }

    /// Nanoseconds of `name` spans directly under a `parent` span.
    fn total(&self, parent: &str, name: &str) -> u64 {
        self.fastest_pass(|_, s| {
            let under = s.parent.is_some_and(|p| self.spans[p].name == parent);
            (s.name == name && under).then(|| s.ns())
        })
    }

    /// Self time of `layer` within the commands: each of its spans'
    /// duration minus its children's.
    fn layer_self_ns(&self, layer: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let in_command = |mut i: usize| loop {
            if self.spans[i].name.starts_with("cli.") && self.spans[i].parent.is_some() {
                // A command span sits under its program's root span.
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        self.fastest_pass(|i, s| {
            (s.layer() == layer && in_command(i)).then(|| s.ns().saturating_sub(child_ns[i]))
        })
    }
}

/// The stats analysis's memory sinks, as `replay --analysis stats` builds
/// them next to a `CountingSink`: the touched address range and a
/// reader-cap audit over a shadow memory of the globals.
struct MemAudit {
    lo: u32,
    hi: u32,
    shadow: ShadowMemory<()>,
    global_words: u32,
}

impl MemAudit {
    fn new(module: &Module) -> Self {
        MemAudit {
            lo: u32::MAX,
            hi: 0,
            shadow: ShadowMemory::with_dense_limit(
                ProfileConfig::default().reader_cap,
                module.global_words,
            ),
            global_words: module.global_words,
        }
    }

    fn touch(&mut self, addr: u32, pc: Pc, t: Time, tid: Tid) -> Option<Access<()>> {
        (self.lo, self.hi) = (self.lo.min(addr), self.hi.max(addr));
        (addr < self.global_words).then_some(Access {
            pc,
            t,
            tid,
            node: (),
        })
    }
}

impl TraceSink for MemAudit {
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if let Some(access) = self.touch(addr, pc, t, tid) {
            let _ = self.shadow.on_read(addr, access);
        }
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if let Some(access) = self.touch(addr, pc, t, tid) {
            self.shadow.on_write(addr, access, &mut |_, _| {});
        }
    }
}

/// Per-layer figures gathered from the calls' results (the other times
/// come from the spans). One program's, or a workload's once added up.
#[derive(Default)]
struct Figures {
    events: u64,
    steps: u64,
    context_switches: u64,
    profiled_mem: u64,
    ignored_mem: u64,
    batch_bytes_max: u64,
    shadow_pages_max: u64,
    shard_shadow_pages_max: u64,
    dropped_readers: u64,
    deps: u64,
    cross_deps: u64,
    block_words_min: Option<u32>,
    shard_max: u64,
    shard_min: u64,
    shard_partition_ns: u64,
    shard_busy_ns: u64,
    shard_recv_ns: u64,
    shard_send_ns: u64,
    shard_merge_ns: u64,
    tasks: u64,
}

impl Figures {
    /// The shard timings of `other`'s pass, where they are faster.
    fn keep_fastest(&mut self, other: &Figures) {
        self.shard_partition_ns = self.shard_partition_ns.min(other.shard_partition_ns);
        self.shard_busy_ns = self.shard_busy_ns.min(other.shard_busy_ns);
        self.shard_recv_ns = self.shard_recv_ns.min(other.shard_recv_ns);
        self.shard_send_ns = self.shard_send_ns.min(other.shard_send_ns);
        self.shard_merge_ns = self.shard_merge_ns.min(other.shard_merge_ns);
    }

    /// Adds another program's figures: counts and times add up, the
    /// memory figures keep the largest program's and the block size the
    /// finest.
    fn add(&mut self, o: &Figures) {
        self.events += o.events;
        self.steps += o.steps;
        self.context_switches += o.context_switches;
        self.profiled_mem += o.profiled_mem;
        self.ignored_mem += o.ignored_mem;
        self.batch_bytes_max = self.batch_bytes_max.max(o.batch_bytes_max);
        self.shadow_pages_max = self.shadow_pages_max.max(o.shadow_pages_max);
        self.shard_shadow_pages_max = self.shard_shadow_pages_max.max(o.shard_shadow_pages_max);
        self.dropped_readers += o.dropped_readers;
        self.deps += o.deps;
        self.cross_deps += o.cross_deps;
        self.block_words_min = match (self.block_words_min, o.block_words_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.shard_max += o.shard_max;
        self.shard_min += o.shard_min;
        self.shard_partition_ns += o.shard_partition_ns;
        self.shard_busy_ns += o.shard_busy_ns;
        self.shard_recv_ns += o.shard_recv_ns;
        self.shard_send_ns += o.shard_send_ns;
        self.shard_merge_ns += o.shard_merge_ns;
        self.tasks += o.tasks;
    }
}

fn compile(t: &mut Tracer, source: &str) -> Result<Module, String> {
    t.span("lang.compile", 0, |_| compile_source(source))
        .map_err(|e| format!("compile: {e}"))
}

fn open(t: &mut Tracer, path: &Path) -> Result<TraceReader<BufReader<std::fs::File>>, String> {
    t.span("trace.open", 0, |_| {
        let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
        TraceReader::new(BufReader::new(f)).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("open {}: {e}", path.display()))
}

/// Encodes and commits a `--profile-out` artifact, returning its bytes.
fn save_artifact(
    t: &mut Tracer,
    profile: DepProfile,
    source: &str,
    path: &Path,
) -> Result<Vec<u8>, String> {
    let bytes = t.span("trace.alcp_encode", 0, |_| {
        ProfileArtifact::new(profile).with_source(source).to_bytes()
    });
    t.span("trace.alcp_write", 0, |_| write_atomic(path, &bytes))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(bytes)
}

fn embedded_source(reader: &TraceReader<BufReader<std::fs::File>>) -> Result<String, String> {
    reader
        .source()
        .map(str::to_owned)
        .ok_or_else(|| "trace has no embedded source".to_owned())
}

/// Traces the five commands for one program and checks that the profiles
/// they produce agree with one another and with the CLI's `replay`.
fn trace_program(
    t: &mut Tracer,
    p: &Program,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Figures, String> {
    let mut fig = Figures::default();
    let cfg = ExecConfig::with_input(p.input.clone());
    let trace_path = dir.join(format!("{}.traced.alct", p.name));
    let artifact = |cmd: &str| dir.join(format!("{}.traced.{cmd}.alcp", p.name));

    // The harness's copy of the event stream, outside every command span:
    // the encode and live-profile calls are fed from it.
    let (events, stream_batches): (Vec<Event>, Vec<EventBatch>) =
        t.span("bench.capture", 0, |_| -> Result<_, String> {
            let module = compile_source(p.source).map_err(|e| e.to_string())?;
            let mut rec = RecordingSink::default();
            run(&module, &cfg, &mut rec).map_err(|e| e.to_string())?;
            let batches = rec
                .events
                .chunks(DEFAULT_BATCH_EVENTS)
                .map(EventBatch::from_events)
                .collect();
            for e in &rec.events {
                if let Event::Read { addr, .. } | Event::Write { addr, .. } = *e {
                    if addr < module.global_words {
                        fig.profiled_mem += 1;
                    } else {
                        fig.ignored_mem += 1;
                    }
                }
            }
            Ok((rec.events, batches))
        })?;
    let n = events.len() as u64;
    fig.events += n;

    // record: compile, execute, encode, commit.
    let steps = t.span("cli.record", n, |t| -> Result<u64, String> {
        let module = compile(t, p.source)?;
        let metrics = Metrics::new();
        let out = t
            .span("vm.execute", n, |_| {
                run_with_metrics(&module, &cfg, &mut NullSink, Some(&metrics))
            })
            .map_err(|e| e.to_string())?;
        fig.steps += out.steps;
        fig.context_switches += metrics.get(Counter::VmContextSwitches);
        let bytes = t
            .span("trace.encode", n, |_| {
                let mut w = if module.uses_threads() {
                    TraceWriter::new_v2(Vec::new(), Some(p.source))?
                } else {
                    TraceWriter::new(Vec::new(), Some(p.source))?
                };
                for e in &events {
                    e.dispatch(&mut w);
                }
                w.finish(out.steps).map(|(bytes, _)| bytes)
            })
            .map_err(|e| e.to_string())?;
        t.span("trace.commit", n, |_| -> std::io::Result<()> {
            let mut f = AtomicFile::create(&trace_path)?;
            f.write_all(&bytes)?;
            f.commit()
        })
        .map_err(|e| format!("commit {}: {e}", trace_path.display()))?;
        Ok(out.steps)
    })?;

    // run --profile-out: execute, with the profiler fed one event at a time.
    let live = t.span("cli.live_profile", n, |t| -> Result<DepProfile, String> {
        let module = compile(t, p.source)?;
        t.span("vm.execute", n, |_| run(&module, &cfg, &mut NullSink))
            .map_err(|e| e.to_string())?;
        let profile = t.span("core.profile_live", n, |_| {
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            for e in &events {
                e.dispatch(&mut prof);
            }
            prof.into_profile(steps)
        });
        save_artifact(t, profile.clone(), p.source, &artifact("live"))?;
        Ok(profile)
    })?;

    // replay --analysis profile (--jobs 1): streaming decode, then profile.
    let seq = t.span("cli.replay_profile", n, |t| -> Result<DepProfile, String> {
        let metrics = Arc::new(Metrics::new());
        let reader = open(t, &trace_path)?;
        let source = embedded_source(&reader)?;
        let module = compile(t, &source)?;
        let mut reader = reader.with_metrics(Arc::clone(&metrics));
        let summary = t
            .span("trace.decode", n, |_| {
                reader.replay_batched_into(&mut NullSink, DEFAULT_BATCH_EVENTS)
            })
            .map_err(|e| e.to_string())?;
        let profile = t.span("core.profile", n, |_| {
            profile_batches(
                &module,
                &stream_batches,
                summary.total_steps,
                ProfileConfig::default(),
            )
            .0
        });
        save_artifact(t, profile.clone(), &source, &artifact("j1"))?;
        Ok(profile)
    })?;
    fig.shadow_pages_max = seq.shadow_stats.pages_allocated;
    fig.dropped_readers += seq.dropped_readers;
    fig.deps += seq.intra_thread_deps + seq.cross_thread_deps;
    fig.cross_deps += seq.cross_thread_deps;

    // replay --jobs 2: materialize, choose the partition, shard.
    let sharded = t.span(
        "cli.replay_profile_jobs2",
        n,
        |t| -> Result<DepProfile, String> {
            let metrics = Metrics::new();
            let reader = open(t, &trace_path)?;
            let source = embedded_source(&reader)?;
            let module = compile(t, &source)?;
            let (batches, summary) = t
                .span("trace.materialize_jobs2", n, |_| {
                    decode_batches_par_with(reader, 2, Some(&metrics))
                })
                .map_err(|e| e.to_string())?;
            let spec = t.span("core.shard_choose", n, |_| {
                ShardSpec::for_batches(&batches, 2)
            });
            let (profile, _, _) = t
                .span("core.shard_profile", n, |_| {
                    profile_batches_par_spec(
                        &module,
                        &batches,
                        summary.total_steps,
                        ProfileConfig::default(),
                        spec,
                        ShardTuning::default(),
                        Some(&metrics),
                    )
                })
                .map_err(|e| e.to_string())?;
            let per_shard = t.span("core.shard_counts", n, |_| {
                shard_batch_counts_spec(&batches, spec)
            });
            fig.block_words_min = Some(spec.block_words());
            fig.shard_max += per_shard.iter().copied().max().unwrap_or(0);
            fig.shard_min += per_shard.iter().copied().min().unwrap_or(0);
            fig.shard_partition_ns += metrics.stage(Stage::ShardPartition).0;
            fig.shard_merge_ns += metrics.stage(Stage::Merge).0;
            for row in metrics.shards() {
                fig.shard_busy_ns += row.busy_ns;
                fig.shard_recv_ns += row.recv_wait_ns;
                fig.shard_send_ns += row.send_wait_ns;
            }
            fig.shard_shadow_pages_max = profile.shadow_stats.pages_allocated;
            save_artifact(t, profile.clone(), &source, &artifact("j2"))?;
            Ok(profile)
        },
    )?;

    // replay --analysis profile,advise,stats (--jobs 1): one materialized
    // decode feeds the stats sinks, the profiler and the advisor.
    let all = t.span("cli.replay_all", n, |t| -> Result<DepProfile, String> {
        let metrics = Metrics::new();
        t.span("trace.stats_scan", 0, |_| -> Result<(), String> {
            let f = std::fs::File::open(&trace_path).map_err(|e| e.to_string())?;
            let mut reader = TraceReader::new(BufReader::new(f)).map_err(|e| e.to_string())?;
            reader.read_chunk_infos().map_err(|e| e.to_string())?;
            Ok(())
        })?;
        let reader = open(t, &trace_path)?;
        let source = embedded_source(&reader)?;
        let module = compile(t, &source)?;
        let (batches, summary) = t
            .span("trace.materialize", n, |_| {
                decode_batches_par_with(reader, 1, Some(&metrics))
            })
            .map_err(|e| e.to_string())?;
        let held: u64 = batches
            .iter()
            .map(|b| b.len() as u64 * BATCH_ROW_BYTES)
            .sum();
        fig.batch_bytes_max = held;
        t.span("cli.stats_sinks", n, |_| {
            let mut counts = CountingSink::default();
            let mut audit = MemAudit::new(&module);
            let mut fan = MultiSink::new();
            fan.push(&mut counts).push(&mut audit);
            for b in &batches {
                fan.on_batch(b);
            }
        });
        let spec = t.span("core.shard_choose", n, |_| {
            ShardSpec::for_batches(&batches, 1)
        });
        let (profile, _, _) = t
            .span("core.profile", n, |_| {
                profile_batches_par_spec(
                    &module,
                    &batches,
                    summary.total_steps,
                    ProfileConfig::default(),
                    spec,
                    ShardTuning::default(),
                    Some(&metrics),
                )
            })
            .map_err(|e| e.to_string())?;
        let candidates = t.span("parsim.suggest", 0, |_| {
            let report = ProfileReport::new(&profile, &module);
            suggest_candidates(&report, &module, 0.02, 0)
        });
        if let Some(best) = candidates.first() {
            let mut cfg = ExtractConfig::default().mark(best.head);
            for v in &best.privatize {
                cfg = cfg.privatize(v);
            }
            let tasks = t
                .span("parsim.extract", n, |_| {
                    extract_tasks_from_batches_par_with(
                        &module,
                        cfg,
                        &batches,
                        summary.total_steps,
                        1,
                        Some(&metrics),
                    )
                })
                .map_err(|e| e.to_string())?;
            fig.tasks += tasks.tasks.len() as u64;
            t.span("parsim.simulate", 0, |_| {
                simulate(&tasks, &SimConfig::with_threads(ADVISE_THREADS))
            });
        }
        save_artifact(t, profile.clone(), &source, &artifact("all"))?;
        Ok(profile)
    })?;

    // Verification, outside the commands: the traced profiles agree with
    // one another and with the CLI's own replay artifact.
    t.span("bench.verify", 0, |t| -> Result<(), String> {
        let cli_bytes = std::fs::read(dir.join(format!("{}.j1.alcp", p.name)))
            .map_err(|e| format!("read the CLI's artifact: {e}"))?;
        let traced_bytes = std::fs::read(artifact("live")).map_err(|e| e.to_string())?;
        let cli = t
            .span("trace.alcp_decode", 0, |_| {
                ProfileArtifact::from_bytes(&cli_bytes)
            })
            .map_err(|e| e.to_string())?;
        let traced = ProfileArtifact::from_bytes(&traced_bytes).map_err(|e| e.to_string())?;
        let what = |s: &str| format!("{}: traced {s}", p.name);
        tally.record(
            &what("live == CLI replay"),
            checks::profiles_equal(&traced.profile, &cli.profile),
        );
        tally.record(&what("replay == live"), checks::profiles_equal(&seq, &live));
        tally.record(
            &what("jobs 2 == live"),
            checks::profiles_equal(&sharded, &live),
        );
        tally.record(&what("all == live"), checks::profiles_equal(&all, &live));
        Ok(())
    })?;

    // A probe the CLI never makes on its own: the raw chunk read inside
    // every materialized decode.
    t.span("bench.probe", 0, |t| -> Result<(), String> {
        let mut reader = TraceReader::new(BufReader::new(
            std::fs::File::open(&trace_path).map_err(|e| e.to_string())?,
        ))
        .map_err(|e| e.to_string())?;
        t.span("trace.read", n, |_| reader.read_raw_chunks())
            .map_err(|e| e.to_string())?;
        Ok(())
    })?;
    Ok(fig)
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The traced run's result.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Milliseconds of spans per command, summed over the programs.
    pub command_ms: Vec<(&'static str, f64)>,
    /// Consistency checks of the traced profiles.
    pub tally: Tally,
}

/// Traces every program of a workload, writes the spans to `spans_path`
/// and derives the per-layer metrics.
pub fn run_traced(programs: &[Program], dir: &Path, spans_path: &Path) -> Result<Traced, String> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let mut per_program: BTreeMap<String, Figures> = BTreeMap::new();
    for pass in 0..PASSES {
        t.pass = pass;
        for p in programs {
            t.program = p.name.clone();
            let f = t
                .span("bench.program", 0, |t| trace_program(t, p, dir, &mut tally))
                .map_err(|e| format!("{}: {e}", p.name))?;
            match per_program.get_mut(&p.name) {
                Some(best) => best.keep_fastest(&f),
                None => {
                    per_program.insert(p.name.clone(), f);
                }
            }
        }
    }
    let mut fig = Figures::default();
    for f in per_program.values() {
        fig.add(f);
    }
    t.write_jsonl(spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let ms = |ns: u64| ns as f64 / 1e6;
    let events = fig.events.max(1) as f64;
    let per_event = |cmd: &str, name: &str| t.total(cmd, name) as f64 / events;
    let mut metrics: Vec<Metric> = vec![
        (
            "lang.compile_ms",
            ms(t.total("cli.record", "lang.compile")),
            "ms",
        ),
        (
            "vm.execute_ns_per_event",
            per_event("cli.record", "vm.execute"),
            "ns/event",
        ),
        ("vm.events", fig.events as f64, "count"),
        ("vm.steps", fig.steps as f64, "count"),
        ("vm.context_switches", fig.context_switches as f64, "count"),
        (
            "trace.encode_ns_per_event",
            per_event("cli.record", "trace.encode"),
            "ns/event",
        ),
        (
            "trace.commit_ms",
            ms(t.total("cli.record", "trace.commit")),
            "ms",
        ),
        (
            "trace.decode_ns_per_event",
            per_event("cli.replay_profile", "trace.decode"),
            "ns/event",
        ),
        (
            "trace.read_ns_per_event",
            per_event("bench.probe", "trace.read"),
            "ns/event",
        ),
        (
            "trace.materialize_ns_per_event",
            per_event("cli.replay_all", "trace.materialize"),
            "ns/event",
        ),
        (
            "trace.materialize_jobs2_ns_per_event",
            per_event("cli.replay_profile_jobs2", "trace.materialize_jobs2"),
            "ns/event",
        ),
        (
            "trace.batch_mb",
            fig.batch_bytes_max as f64 / (1 << 20) as f64,
            "MiB",
        ),
        (
            "trace.alcp_encode_ms",
            ms(t.total("cli.live_profile", "trace.alcp_encode")),
            "ms",
        ),
        (
            "trace.alcp_decode_ms",
            ms(t.total("bench.verify", "trace.alcp_decode")),
            "ms",
        ),
        (
            "core.profile_ns_per_event",
            per_event("cli.replay_profile", "core.profile"),
            "ns/event",
        ),
        (
            "core.profile_live_ns_per_event",
            per_event("cli.live_profile", "core.profile_live"),
            "ns/event",
        ),
        ("core.profiled_mem_events", fig.profiled_mem as f64, "count"),
        ("core.ignored_mem_events", fig.ignored_mem as f64, "count"),
        (
            "core.profiled_mem_share",
            fig.profiled_mem as f64 / (fig.profiled_mem + fig.ignored_mem).max(1) as f64,
            "ratio",
        ),
        ("core.shadow_pages", fig.shadow_pages_max as f64, "count"),
        ("core.dropped_readers", fig.dropped_readers as f64, "count"),
        ("core.deps", fig.deps as f64, "count"),
        ("core.cross_thread_deps", fig.cross_deps as f64, "count"),
        (
            "core.shard_choose_ms",
            ms(t.total("cli.replay_profile_jobs2", "core.shard_choose")),
            "ms",
        ),
        (
            "core.shard_block_words",
            f64::from(fig.block_words_min.unwrap_or(0)),
            "words",
        ),
        (
            "core.shard_imbalance",
            fig.shard_max as f64 / fig.shard_min.max(1) as f64,
            "ratio",
        ),
        ("core.shard_max_mem_events", fig.shard_max as f64, "count"),
        ("core.shard_min_mem_events", fig.shard_min as f64, "count"),
        (
            "core.shard_shadow_pages",
            fig.shard_shadow_pages_max as f64,
            "count",
        ),
        (
            "core.shard_profile_ns_per_event",
            per_event("cli.replay_profile_jobs2", "core.shard_profile"),
            "ns/event",
        ),
        ("core.shard_partition_ms", ms(fig.shard_partition_ns), "ms"),
        ("core.shard_busy_ms", ms(fig.shard_busy_ns), "ms"),
        ("core.shard_recv_wait_ms", ms(fig.shard_recv_ns), "ms"),
        ("core.shard_send_wait_ms", ms(fig.shard_send_ns), "ms"),
        ("core.shard_merge_ms", ms(fig.shard_merge_ns), "ms"),
        (
            "parsim.extract_ns_per_event",
            per_event("cli.replay_all", "parsim.extract"),
            "ns/event",
        ),
        (
            "parsim.simulate_ms",
            ms(t.total("cli.replay_all", "parsim.simulate")),
            "ms",
        ),
        ("parsim.tasks", fig.tasks as f64, "count"),
    ];
    for (layer, name) in [
        ("lang", "lang.self_ms"),
        ("vm", "vm.self_ms"),
        ("trace", "trace.self_ms"),
        ("core", "core.self_ms"),
        ("parsim", "parsim.self_ms"),
    ] {
        metrics.push((name, ms(t.layer_self_ns(layer)), "ms"));
    }
    let command_ms = COMMANDS
        .iter()
        .map(|&c| {
            let span = match c {
                "record" => "cli.record",
                "live_profile" => "cli.live_profile",
                "replay_profile" => "cli.replay_profile",
                "replay_profile_jobs2" => "cli.replay_profile_jobs2",
                _ => "cli.replay_all",
            };
            (c, ms(t.total("bench.program", span)))
        })
        .collect();
    Ok(Traced {
        metrics,
        command_ms,
        tally,
    })
}
