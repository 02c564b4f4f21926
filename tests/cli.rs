//! End-to-end tests of the `alchemist` command-line binary.

use std::io::Write as _;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alchemist"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("alchemist-test-{name}-{}.mc", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const PROGRAM: &str = "
int out[64];
int stats;
void work(int c) {
    int i;
    for (i = 0; i < 16; i++) out[c * 16 + i] = c * i;
    stats += c;
}
int main() {
    int c;
    for (c = 0; c < 4; c++) work(c);
    print(stats);
    return stats;
}
";

/// Workspace-wiring smoke test: the built `alchemist` binary profiles a
/// minimal program end-to-end and renders a report naming `Method main`.
#[test]
fn profile_smoke_renders_method_main() {
    let path = write_temp(
        "smoke",
        "int g;\nint main() { int i; for (i = 0; i < 8; i++) g += i; return g; }\n",
    );
    let out = bin().args(["profile"]).arg(&path).output().expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Method main"), "report missing: {stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_command_executes_and_prints() {
    let path = write_temp("run", PROGRAM);
    let out = bin().args(["run"]).arg(&path).output().expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6"), "print output missing: {stdout}");
    assert!(stdout.contains("exit value: 6"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn profile_command_renders_report() {
    let path = write_temp("profile", PROGRAM);
    let out = bin()
        .args(["profile"])
        .arg(&path)
        .args(["--top", "5", "--war-waw", "work"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Method main"), "{stdout}");
    assert!(stdout.contains("Method work"), "{stdout}");
    assert!(stdout.contains("Tdur="), "{stdout}");
    assert!(
        stdout.contains("WAR/WAW profile for Method work"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn advise_command_suggests_and_simulates() {
    let path = write_temp("advise", PROGRAM);
    let out = bin()
        .args(["advise"])
        .arg(&path)
        .args(["--threads", "4"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("parallelization candidates") || stdout.contains("no construct qualifies"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn input_flag_feeds_the_program() {
    let path = write_temp(
        "input",
        "int main() { print(input(0) + input(1)); return input_len(); }",
    );
    let out = bin()
        .args(["run"])
        .arg(&path)
        .args(["--input", "40,2"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("42"), "{stdout}");
    assert!(stdout.contains("exit value: 2"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn workloads_command_lists_suite() {
    let out = bin().args(["workloads"]).output().expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["gzip-1.3.5", "bzip2", "197.parser", "delaunay"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn workloads_json_flag_emits_machine_readable_suite() {
    let out = bin()
        .args(["workloads", "--json"])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.trim_end().ends_with(']'), "{stdout}");
    assert!(stdout.contains("\"name\": \"gzip-1.3.5\""), "{stdout}");
    assert!(stdout.contains("\"paper_speedup\": 3.46"), "{stdout}");
    assert!(stdout.contains("\"paper_speedup\": null"), "{stdout}");
    assert!(stdout.contains("\"loc\": "), "{stdout}");
}

#[test]
fn unknown_flag_is_named_without_generic_usage() {
    let out = bin()
        .args(["workloads", "--frobnicate"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--frobnicate"), "{stderr}");
    assert!(stderr.contains("workloads"), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "unknown-flag errors must not dump the usage block: {stderr}"
    );

    let path = write_temp("unknownflag", PROGRAM);
    let out = bin()
        .args(["profile"])
        .arg(&path)
        .args(["--nope"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--nope"), "{stderr}");
    assert!(stderr.contains("--war-waw"), "lists valid flags: {stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

fn temp_trace_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("alchemist-test-{name}-{}.alct", std::process::id()))
}

#[test]
fn record_then_replay_profile_matches_live_profile() {
    let src_path = write_temp("recordrt", PROGRAM);
    let trace_path = temp_trace_path("recordrt");

    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let rec_out = String::from_utf8_lossy(&rec.stdout);
    assert!(rec_out.contains("recorded"), "{rec_out}");
    assert!(rec_out.contains("bytes/event"), "{rec_out}");

    let live = bin()
        .args(["profile"])
        .arg(&src_path)
        .output()
        .expect("spawns");
    let replayed = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "profile"])
        .output()
        .expect("spawns");
    assert!(
        replayed.status.success(),
        "{}",
        String::from_utf8_lossy(&replayed.stderr)
    );
    let live_out = String::from_utf8_lossy(&live.stdout);
    let replay_out = String::from_utf8_lossy(&replayed.stdout);
    // The ranked construct report (everything after the run header) must be
    // byte-identical between the live and the replayed analysis.
    let tail = |s: &str| s.split_once("\n\n").map(|x| x.1.to_owned()).unwrap();
    assert_eq!(tail(&live_out), tail(&replay_out), "reports diverge");

    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn parallel_replay_report_is_identical_to_sequential() {
    let src_path = write_temp("recordpar", PROGRAM);
    let trace_path = temp_trace_path("recordpar");
    // Small chunks, so the pipelined replays below hand many batches
    // through their workers.
    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .args(["--chunk-events", "64", "-o"])
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    // Determinism guarantee: the report on stdout is byte-identical on
    // every job count, with no line filtered out.
    let replay_with = |jobs: &str| {
        let out = bin()
            .args(["replay"])
            .arg(&trace_path)
            .args(["--analysis", "profile", "--jobs", jobs])
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "--jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let seq_out = replay_with("1");
    assert!(seq_out.contains("Method main"), "{seq_out}");
    for jobs in ["2", "4"] {
        assert_eq!(seq_out, replay_with(jobs), "--jobs {jobs} report diverges");
    }

    // The stats analysis honors --jobs too (pipelined decode), with
    // identical output.
    let stats_seq = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "stats"])
        .output()
        .expect("spawns");
    let stats_par = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "stats", "--jobs", "2"])
        .output()
        .expect("spawns");
    assert!(stats_par.status.success());
    assert_eq!(stats_seq.stdout, stats_par.stdout, "stats diverge");
    // Throughput is wall-clock (run-dependent), so it reports on stderr
    // where it cannot perturb the deterministic stats block above.
    for out in [&stats_seq, &stats_par] {
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("throughput: "),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let zero = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--jobs", "0"])
        .output()
        .expect("spawns");
    assert!(!zero.status.success());
    assert!(
        String::from_utf8_lossy(&zero.stderr).contains("--jobs must be >= 1"),
        "{}",
        String::from_utf8_lossy(&zero.stderr)
    );

    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn batch_size_is_validated_and_changes_nothing_observable() {
    let src_path = write_temp("batchsize", PROGRAM);
    let trace_path = temp_trace_path("batchsize");
    // --batch-size 0 is rejected with a named-flag error on every command
    // that takes it.
    for cmd in [&["run"][..], &["record"], &["replay"]] {
        let out = bin()
            .args(cmd)
            .arg(&src_path)
            .args(["--batch-size", "0"])
            .output()
            .expect("spawns");
        assert!(!out.status.success(), "{cmd:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--batch-size must be >= 1"),
            "{cmd:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Recording with a tiny batch size produces a byte-identical trace.
    let rec_default = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(rec_default.status.success());
    let default_bytes = std::fs::read(&trace_path).expect("trace written");
    let rec_tiny = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .args(["--batch-size", "3"])
        .output()
        .expect("spawns");
    assert!(rec_tiny.status.success());
    let tiny_bytes = std::fs::read(&trace_path).expect("trace written");
    assert_eq!(default_bytes, tiny_bytes, ".alct must be byte-identical");
    // Replaying with an odd batch size renders the identical report.
    let a = bin()
        .args(["replay"])
        .arg(&trace_path)
        .output()
        .expect("spawns");
    let b = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--batch-size", "7"])
        .output()
        .expect("spawns");
    assert!(b.status.success());
    assert_eq!(a.stdout, b.stdout, "replay report diverges");
    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn scale_and_shard_tunables_are_validated() {
    let src_path = write_temp("scaleflags", PROGRAM);
    let trace_path = temp_trace_path("scaleflags");
    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(rec.status.success());
    // Replay no longer shards by address, so the old hand-off tunables
    // are unknown flags: a usage error that names them.
    for flag in ["--shard-flush", "--shard-depth"] {
        let out = bin()
            .args(["replay"])
            .arg(&trace_path)
            .args([flag, "1"])
            .output()
            .expect("spawns");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown flag `{flag}`")),
            "{flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // --scale is for bundled workload names; on a real file it is an
    // error, not a silent no-op.
    let out = bin()
        .args(["run"])
        .arg(&src_path)
        .args(["--scale", "small"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--scale only applies"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A bad scale value names the accepted set.
    let out = bin()
        .args(["run", "ogg", "--scale", "gigantic"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown scale `gigantic`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A positional that is neither a file nor a workload name fails with a
    // message pointing at both possibilities.
    let out = bin()
        .args(["replay", "no_such_workload_anywhere"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no bundled workload has that name"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn workload_name_positional_records_and_replays() {
    // `record <workload>` and `replay <workload>` resolve bundled names:
    // replaying the name must render the same report as recording that
    // workload to a file and replaying the file.
    let trace_path =
        std::env::temp_dir().join(format!("alchemist-test-wlname-{}.alct", std::process::id()));
    let rec = bin()
        .args(["record", "130.li", "-o"])
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let from_file = bin()
        .args(["replay"])
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(from_file.status.success());
    let from_name = bin().args(["replay", "130.li"]).output().expect("spawns");
    assert!(
        from_name.status.success(),
        "{}",
        String::from_utf8_lossy(&from_name.stderr)
    );
    assert_eq!(
        from_file.stdout, from_name.stdout,
        "workload-name replay diverges from file replay"
    );
    // The job count changes scheduling, never results: the pipelined
    // replays render the sequential report byte for byte.
    for jobs in ["2", "3", "4"] {
        let par = bin()
            .args(["replay", "130.li", "--jobs", jobs])
            .output()
            .expect("spawns");
        assert!(
            par.status.success(),
            "{}",
            String::from_utf8_lossy(&par.stderr)
        );
        assert_eq!(
            from_file.stdout, par.stdout,
            "--jobs {jobs} leaked into the report"
        );
    }
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn replay_analysis_accepts_a_comma_separated_list() {
    let src_path = write_temp("analysislist", PROGRAM);
    let trace_path = temp_trace_path("analysislist");
    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(rec.status.success());

    let combined = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "profile,advise,stats"])
        .output()
        .expect("spawns");
    assert!(
        combined.status.success(),
        "{}",
        String::from_utf8_lossy(&combined.stderr)
    );
    let out = String::from_utf8_lossy(&combined.stdout);
    assert!(out.contains("Method main"), "profile section: {out}");
    assert!(
        out.contains("parallelization candidates") || out.contains("no construct qualifies"),
        "advise section: {out}"
    );
    assert!(out.contains("embedded source: yes"), "stats section: {out}");
    // Each single-analysis run's output appears verbatim in the combined
    // run, in the requested order.
    for (i, analysis) in ["profile", "advise", "stats"].iter().enumerate() {
        let single = bin()
            .args(["replay"])
            .arg(&trace_path)
            .args(["--analysis", analysis])
            .output()
            .expect("spawns");
        let single_out = String::from_utf8_lossy(&single.stdout).into_owned();
        let at = out.find(single_out.as_str());
        assert!(at.is_some(), "{analysis} section missing from combined run");
        if i == 0 {
            assert_eq!(at, Some(0), "profile leads the combined output");
        }
    }

    let bad = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "profile,bogus"])
        .output()
        .expect("spawns");
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown analysis `bogus`"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn replay_stats_and_advise_run_offline() {
    let src_path = write_temp("replaystats", PROGRAM);
    let trace_path = temp_trace_path("replaystats");
    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("--out")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(rec.status.success());
    // The source file is gone: replay must work from the trace alone.
    let _ = std::fs::remove_file(&src_path);

    let stats = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "stats"])
        .output()
        .expect("spawns");
    assert!(
        stats.status.success(),
        "{}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert!(stats_out.contains("embedded source: yes"), "{stats_out}");
    assert!(stats_out.contains("bytes/event"), "{stats_out}");
    assert!(stats_out.contains("reads"), "{stats_out}");

    let advise = bin()
        .args(["replay"])
        .arg(&trace_path)
        .args(["--analysis", "advise", "--threads", "4"])
        .output()
        .expect("spawns");
    assert!(
        advise.status.success(),
        "{}",
        String::from_utf8_lossy(&advise.stderr)
    );
    let advise_out = String::from_utf8_lossy(&advise.stdout);
    assert!(
        advise_out.contains("parallelization candidates")
            || advise_out.contains("no construct qualifies"),
        "{advise_out}"
    );
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn replay_rejects_foreign_files_with_typed_error() {
    let path = write_temp("notatrace", PROGRAM);
    let out = bin().args(["replay"]).arg(&path).output().expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad magic"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_source_reports_error_and_nonzero_exit() {
    let path = write_temp("bad", "int main( { return 0; }");
    let out = bin().args(["profile"]).arg(&path).output().expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_file_reports_error() {
    let out = bin()
        .args(["run", "/nonexistent/alchemist-test.mc"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unknown_command_prints_usage() {
    let out = bin().args(["bogus"]).output().expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn simulate_command_reports_speedup() {
    let path = write_temp("simulate", PROGRAM);
    let out = bin()
        .args(["simulate"])
        .arg(&path)
        .args(["--mark", "work", "--privatize", "stats", "--threads", "4"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 tasks"), "{stdout}");
    assert!(stdout.contains("x"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn simulate_timeline_renders_workers() {
    let path = write_temp("timeline", PROGRAM);
    let out = bin()
        .args(["simulate"])
        .arg(&path)
        .args(["--mark", "work", "--privatize", "stats", "--timeline"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("w0 |"), "{stdout}");
    assert!(stdout.contains("speedup="), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn simulate_rejects_unknown_mark_and_privatize() {
    let path = write_temp("simbad", PROGRAM);
    let out = bin()
        .args(["simulate"])
        .arg(&path)
        .args(["--mark", "nonexistent"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no function"));
    let out = bin()
        .args(["simulate"])
        .arg(&path)
        .args(["--mark", "work", "--privatize", "ghost"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no global"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn profile_csv_exports_are_written() {
    let path = write_temp("csv", PROGRAM);
    let c_path = std::env::temp_dir().join(format!("alch-c-{}.csv", std::process::id()));
    let e_path = std::env::temp_dir().join(format!("alch-e-{}.csv", std::process::id()));
    let out = bin()
        .args(["profile"])
        .arg(&path)
        .arg("--csv-constructs")
        .arg(&c_path)
        .arg("--csv-edges")
        .arg(&e_path)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let constructs = std::fs::read_to_string(&c_path).expect("constructs csv written");
    assert!(constructs.starts_with("rank,label,kind"));
    let edges = std::fs::read_to_string(&e_path).expect("edges csv written");
    assert!(edges.starts_with("construct,kind,head_line"));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(c_path);
    let _ = std::fs::remove_file(e_path);
}

fn temp_artifact_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("alchemist-test-{name}-{}.alcp", std::process::id()))
}

/// The headline `.alcp` invariant, end to end through the binary: merging
/// per-run artifacts yields byte-for-byte the artifact of the directly
/// aggregated run, and `profile query` renders the same report for both.
#[test]
fn profile_save_merge_query_round_trips_through_files() {
    let src = write_temp("alcp-rt", PROGRAM);
    let (a, b) = (temp_artifact_path("rt-a"), temp_artifact_path("rt-b"));
    let (merged, direct) = (temp_artifact_path("rt-m"), temp_artifact_path("rt-d"));

    for (input, path) in [("1,2,3", &a), ("4,5", &b)] {
        let out = bin()
            .args(["profile", "save"])
            .arg(&src)
            .args(["--input", input, "-o"])
            .arg(path)
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("wrote profile artifact"), "{stdout}");
    }
    let out = bin()
        .args(["profile", "merge"])
        .args([&a, &b])
        .arg("-o")
        .arg(&merged)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["profile", "save"])
        .arg(&src)
        .args(["--input", "1,2,3", "--input", "4,5", "-o"])
        .arg(&direct)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&merged).expect("merged artifact"),
        std::fs::read(&direct).expect("direct artifact"),
        "merged artifact bytes differ from the direct aggregate's"
    );

    // Both query identically (the report never prints the file path), and
    // the report names the hot construct.
    let query = |p: &std::path::PathBuf| {
        let out = bin()
            .args(["profile", "query"])
            .arg(p)
            .args(["--analysis", "profile"])
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let report = query(&merged);
    assert_eq!(report, query(&direct), "query outputs diverge");
    assert!(report.contains("profile artifact:"), "{report}");
    assert!(report.contains("Method main"), "{report}");

    for p in [a, b, merged, direct] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(src);
}

/// The `--profile-out` rider writes the same bytes whether it rides a
/// live `run`, a `record`, or a `replay` of the recorded trace; a full
/// `profile save` of that trace additionally embeds the task summary but
/// queries identically for the profile analysis.
#[test]
fn profile_out_rider_is_identical_across_run_record_and_replay() {
    let src = write_temp("alcp-rider", PROGRAM);
    let trace = temp_trace_path("alcp-rider");
    let via_run = temp_artifact_path("rider-run");
    let via_record = temp_artifact_path("rider-record");
    let via_replay = temp_artifact_path("rider-replay");
    let via_save = temp_artifact_path("rider-save");

    let run = bin()
        .args(["run"])
        .arg(&src)
        .arg("--profile-out")
        .arg(&via_run)
        .output()
        .expect("spawns");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let rec = bin()
        .args(["record"])
        .arg(&src)
        .arg("-o")
        .arg(&trace)
        .arg("--profile-out")
        .arg(&via_record)
        .output()
        .expect("spawns");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let rep = bin()
        .args(["replay"])
        .arg(&trace)
        .args(["--analysis", "stats", "--profile-out"])
        .arg(&via_replay)
        .output()
        .expect("spawns");
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let reference = std::fs::read(&via_run).expect("run artifact");
    assert_eq!(
        std::fs::read(&via_record).expect("record artifact"),
        reference,
        "record rider diverges from run rider"
    );
    assert_eq!(
        std::fs::read(&via_replay).expect("replay artifact"),
        reference,
        "replay rider diverges from run rider"
    );

    // A full save of the trace also embeds the task summary for offline
    // advise (the rider deliberately skips that extra pass)...
    let save = bin()
        .args(["profile", "save"])
        .arg(&trace)
        .arg("-o")
        .arg(&via_save)
        .output()
        .expect("spawns");
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    let stats = bin()
        .args(["profile", "query"])
        .arg(&via_save)
        .args(["--analysis", "stats"])
        .output()
        .expect("spawns");
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert!(stats_out.contains("task summary: yes"), "{stats_out}");
    let advise = bin()
        .args(["profile", "query"])
        .arg(&via_save)
        .args(["--analysis", "advise"])
        .output()
        .expect("spawns");
    let advise_out = String::from_utf8_lossy(&advise.stdout);
    assert!(advise_out.contains("embedded task summary"), "{advise_out}");
    assert!(advise_out.contains("speedup"), "{advise_out}");

    // ...while the profile analysis reads identically from either.
    let query_profile = |p: &std::path::PathBuf| {
        let out = bin()
            .args(["profile", "query"])
            .arg(p)
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(
        query_profile(&via_replay),
        query_profile(&via_save),
        "rider and full save render different profile reports"
    );

    for p in [via_run, via_record, via_replay, via_save] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(src);
}

#[test]
fn profile_query_rejects_unknown_analysis_and_corrupt_artifacts() {
    let src = write_temp("alcp-err", PROGRAM);
    let artifact = temp_artifact_path("err");
    let out = bin()
        .args(["profile", "save"])
        .arg(&src)
        .arg("-o")
        .arg(&artifact)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unknown analysis name: typed error naming the value and the menu.
    let out = bin()
        .args(["profile", "query"])
        .arg(&artifact)
        .args(["--analysis", "bogus"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown analysis `bogus`"), "{stderr}");
    assert!(stderr.contains("profile, advise or stats"), "{stderr}");

    // Truncation: typed decode error, not a panic.
    let bytes = std::fs::read(&artifact).expect("artifact");
    std::fs::write(&artifact, &bytes[..bytes.len() / 2]).expect("truncate");
    let out = bin()
        .args(["profile", "query"])
        .arg(&artifact)
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");

    // A trace is not a profile artifact: the magic is named.
    let trace = temp_trace_path("alcp-err");
    let rec = bin()
        .args(["record"])
        .arg(&src)
        .arg("-o")
        .arg(&trace)
        .output()
        .expect("spawns");
    assert!(rec.status.success());
    let out = bin()
        .args(["profile", "query"])
        .arg(&trace)
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad magic"), "{stderr}");

    let _ = std::fs::remove_file(artifact);
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(src);
}

/// `--metrics-out` and `--profile-out` into a missing directory fail with
/// a typed `cannot create` error naming the path, not an unwrap.
#[test]
fn sink_paths_into_missing_directories_are_typed_errors() {
    let src = write_temp("badsink", PROGRAM);
    let cases: [&[&str]; 2] = [
        &["--metrics", "text", "--metrics-out", "/no/such/dir/m.txt"],
        &["--profile-out", "/no/such/dir/p.alcp"],
    ];
    for extra in cases {
        let out = bin()
            .args(["run"])
            .arg(&src)
            .args(extra)
            .output()
            .expect("spawns");
        assert!(!out.status.success(), "{extra:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot create /no/such/dir/"),
            "{extra:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(src);
}

#[test]
fn workloads_json_reports_profile_bytes() {
    let out = bin()
        .args(["workloads", "--json"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"profile_bytes\":"), "{stdout}");
}

/// Runs the CLI with a stdout pipe that the reader closes after reading
/// `keep` bytes (`alchemist ... | head -c keep`); returns the exit code
/// and stderr.
fn run_into_closed_pipe(args: &[&std::ffi::OsStr], keep: usize) -> (Option<i32>, String) {
    use std::io::Read as _;
    let mut child = bin()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = vec![0u8; keep];
    stdout.read_exact(&mut head).expect("first bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("waits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_stdout_ends_commands_quietly() {
    let src_path = write_temp("brokenpipe", PROGRAM);
    let trace_path = temp_trace_path("brokenpipe");
    let rec = bin()
        .args(["record"])
        .arg(&src_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("spawns");
    assert!(rec.status.success());
    let workloads = ["workloads", "--json"].map(std::ffi::OsStr::new);
    let replay = [
        std::ffi::OsStr::new("replay"),
        trace_path.as_os_str(),
        std::ffi::OsStr::new("--top"),
        std::ffi::OsStr::new("50"),
    ];
    for args in [&workloads[..], &replay[..]] {
        // Closed before the first write: the documented exit code, with
        // nothing on stderr (no panic, no backtrace, no error line).
        let (code, stderr) = run_into_closed_pipe(args, 0);
        assert_eq!(code, Some(141), "{args:?}: {stderr}");
        assert_eq!(stderr, "", "{args:?}");
        // Closed after a few bytes, like `| head -c 10`: the output may
        // already sit in the pipe buffer, so success is fine too.
        let (code, stderr) = run_into_closed_pipe(args, 10);
        assert!(matches!(code, Some(0 | 141)), "{args:?}: {code:?} {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(src_path);
    let _ = std::fs::remove_file(trace_path);
}
