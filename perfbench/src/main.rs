//! Harness of the `alchemist` CLI benchmark; `run.py` drives it.
//!
//! ```text
//! perfbench gen   --workload W --seed N --dir D   # write programs and inputs
//! perfbench check --workload W --seed N --dir D   # check the CLI's outputs
//! perfbench trace --workload W --seed N --dir D   # the traced per-layer run
//! ```
//!
//! Every subcommand rebuilds the workload from `(W, N)`, so they agree on
//! the programs and inputs without passing them around. The files in `D`
//! follow one naming scheme, `<program>.<what>`, shared with `run.py`.

mod checks;
mod traced;
mod workload;

use alchemist_core::oracle::oracle_profile;
use alchemist_trace::ProfileArtifact;
use alchemist_vm::{compile_source, run, ExecConfig, RecordingSink};
use checks::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{input_arg, Program, WorkloadSpec};

struct Args {
    command: String,
    spec: WorkloadSpec,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().cloned().ok_or("no subcommand")?;
    let (mut name, mut seed, mut dir) = (None, None, None);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let spec = workload::build(&name, seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected one of {})",
            workload::WORKLOADS.join(", ")
        )
    })?;
    Ok(Args {
        command,
        spec,
        dir: dir.ok_or("--dir is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn tally_json(t: &Tally) -> String {
    let failures: Vec<String> = t.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "\"attempted\": {}, \"failures\": [{}]",
        t.attempted,
        failures.join(", ")
    )
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_text(path: &Path) -> Result<String, String> {
    String::from_utf8(read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes every program's source and input and the merge check's, and
/// prints the program names, one a line.
fn gen(a: &Args) -> Result<(), String> {
    for p in &a.spec.programs {
        write(&a.dir.join(format!("{}.mc", p.name)), p.source)?;
        write(&a.dir.join(format!("{}.in", p.name)), &input_arg(&p.input))?;
        println!("{}", p.name);
    }
    let (_, source, input_a, input_b) = &a.spec.merge;
    write(&a.dir.join("merge.mc"), source)?;
    write(&a.dir.join("merge.a.in"), &input_arg(input_a))?;
    write(&a.dir.join("merge.b.in"), &input_arg(input_b))?;
    Ok(())
}

/// Checks one program's CLI outputs against an independent VM run of the
/// same program and input and against the oracle profile of its events.
fn check_program(dir: &Path, p: &Program, tally: &mut Tally) -> Result<(), String> {
    let file = |what: &str| dir.join(format!("{}.{what}", p.name));
    let module = compile_source(p.source).map_err(|e| format!("{}: {e}", p.name))?;
    let mut rec = RecordingSink::default();
    let out = run(&module, &ExecConfig::with_input(p.input.clone()), &mut rec)
        .map_err(|e| format!("{}: {e}", p.name))?;
    let events = rec.events.len() as u64;
    let oracle = oracle_profile(&module, &rec.events, out.steps);
    drop(rec);

    let mut profiles = Vec::new();
    for cmd in ["live", "j1", "j2", "all"] {
        let artifact = ProfileArtifact::from_bytes(&read(&file(&format!("{cmd}.alcp")))?)
            .map_err(|e| format!("{}.{cmd}.alcp: {e}", p.name))?;
        profiles.push((cmd, artifact.profile));
    }
    let what = |s: &str| format!("{}: {s}", p.name);
    let live = &profiles[0].1;
    tally.record(
        &what("live profile against the oracle"),
        checks::against_oracle(live, &oracle),
    );
    for (cmd, profile) in &profiles[1..] {
        tally.record(
            &what(&format!("{cmd} profile == live")),
            checks::profiles_equal(profile, live),
        );
    }

    let replay_out = read_text(&file("j1.out"))?;
    tally.record(
        &what("replay event count"),
        checks::replay_counts(&replay_out, events, out.steps),
    );
    let all_out = read_text(&file("all.out"))?;
    tally.record(
        &what("stats event counts"),
        checks::stats_counts(&all_out, events),
    );
    let expected = p.expected_output.as_ref().unwrap_or(&out.output);
    tally.record(
        &what("program output"),
        checks::program_output(
            &read_text(&file("live.out"))?,
            expected,
            out.exit_value,
            out.steps,
        ),
    );
    tally.record(
        &what("replayed advise == live advise"),
        checks::advise_matches(&all_out, &read_text(&file("advise.out"))?),
    );
    Ok(())
}

fn check(a: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    for p in &a.spec.programs {
        check_program(&a.dir, p, &mut tally)?;
    }
    let merged = read(&a.dir.join("merge.merged.alcp"))?;
    let direct = read(&a.dir.join("merge.direct.alcp"))?;
    tally.record(
        &format!(
            "{}: profile merge == profile save of both inputs",
            a.spec.merge.0
        ),
        checks::bytes_identical(&merged, &direct),
    );
    println!("{{{}}}", tally_json(&tally));
    Ok(())
}

fn trace(a: &Args) -> Result<(), String> {
    let spans = a.dir.join("spans.jsonl");
    let result = traced::run_traced(&a.spec.programs, &a.dir, &spans)?;
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let commands: Vec<String> = result
        .command_ms
        .iter()
        .map(|(c, ms)| format!("{}: {ms}", json_str(c)))
        .collect();
    println!(
        "{{\"metrics\": {{{}}}, \"command_ms\": {{{}}}, \"spans\": {}, {}}}",
        metrics.join(", "),
        commands.join(", "),
        json_str(&spans.display().to_string()),
        tally_json(&result.tally)
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.command.as_str() {
        "gen" => gen(&a),
        "check" => check(&a),
        "trace" => trace(&a),
        other => Err(format!(
            "unknown subcommand `{other}` (expected gen, check or trace)"
        )),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
