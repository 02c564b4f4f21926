#!/usr/bin/env python3
"""End-to-end benchmark of the alchemist CLI.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

The script builds the release `alchemist` CLI and the benchmark harness
(`perfbench/`, a cargo package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload's programs and inputs from
the seed, then:

* records every program once (`setup_s`);
* with `--trace 0`, repeats whole rounds of `run --profile-out`, `replay`,
  `replay --jobs 2` and `replay --analysis profile,advise,stats` over every
  program until `--seconds` have passed, timing each command and reading
  its peak RSS from outside the process, and reports each metric's median
  over the rounds;
* with `--trace 1`, times the same rounds, then runs the traced run, which
  makes the CLI's library calls from the harness with one span per call,
  and reports the per-layer metrics, including how far each command's
  traced spans fall short of its untraced time;
* checks every result against computations made apart from the path under
  test (see `src/checks.rs`).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. Everything the run writes lives under
`.bench_tmp/` and is deleted before it exits.
"""

import sys
import time

# Set-up is timed from the process's start; this is the fallback clock.
SCRIPT_START = time.perf_counter()
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

WORKLOADS = ("paper-suite", "wide-memory", "threaded")

# The timed commands after set-up, in round order, with their `--trace 0`
# metric stems.
ROUND = (
    ("live", "live_profile"),
    ("j1", "replay_profile"),
    ("j2", "replay_profile_jobs2"),
    ("all", "replay_all"),
)

PER_COMMAND_SELF = (
    ("record", "cli.record_self_ms"),
    ("live_profile", "cli.live_profile_self_ms"),
    ("replay_profile", "cli.replay_profile_self_ms"),
    ("replay_profile_jobs2", "cli.replay_profile_jobs2_self_ms"),
    ("replay_all", "cli.replay_all_self_ms"),
)


class Ops:
    """Operations attempted and failed: commands and checks alike."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {why}" if why else what)


def since_process_start():
    """Seconds since this process started: from the kernel's start time on
    Linux (10 ms resolution), else since the script began."""
    try:
        with open("/proc/self/stat") as f:
            # Field 22, counted after the parenthesised command name.
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - SCRIPT_START


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Builds the CLI and the harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "alchemist"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        r = subprocess.run(argv, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"`{' '.join(argv)}` failed with exit code {r.returncode}", 1)
    release = os.path.join(target, "release")
    return os.path.join(release, "alchemist"), os.path.join(release, "perfbench")


def timed(argv, out_path, err_path):
    """Runs one command to completion: (wall seconds, peak RSS MiB, exit code)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def harness(exe, sub, workload, seed, d):
    r = subprocess.run(
        [exe, sub, "--workload", workload, "--seed", str(seed), "--dir", d],
        stdout=subprocess.PIPE,
        text=True,
    )
    if r.returncode != 0:
        return None
    return r.stdout


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Bench:
    def __init__(self, cli, d, programs, ops):
        self.cli = cli
        self.d = d
        self.programs = programs
        self.ops = ops
        self.inputs = {p: read(self.path(p, "in")).decode() for p in programs}

    def path(self, program, what):
        return os.path.join(self.d, f"{program}.{what}")

    def command(self, program, what, args):
        """Runs one CLI command, stdout to `<program>.<what>.out`."""
        out = self.path(program, f"{what}.out")
        wall, rss, code = timed([self.cli] + args, out, self.path(program, "err"))
        ok = code == 0
        why = ""
        if not ok:
            why = f"exit code {code}: " + read(self.path(program, "err")).decode(errors="replace")
        self.ops.record(f"{program}: alchemist {args[0]} ({what})", ok, why.strip())
        return wall, rss

    def args(self, program, what):
        src, trace = self.path(program, "mc"), self.path(program, "alct")
        alcp = self.path(program, f"{what}.alcp")
        inp = self.inputs[program]
        return {
            "record": ["record", src, "--input", inp, "-o", trace],
            "live": ["run", src, "--input", inp, "--profile-out", alcp],
            "j1": ["replay", trace, "--analysis", "profile", "--profile-out", alcp],
            "j2": ["replay", trace, "--analysis", "profile", "--jobs", "2", "--profile-out", alcp],
            "all": [
                "replay", trace, "--analysis", "profile,advise,stats", "--profile-out", alcp,
            ],
            "advise": ["advise", src, "--input", inp],
        }[what]

    def setup(self):
        """One cold `record` per program: (seconds, trace bytes / event)."""
        total, size, events = 0.0, 0, 0
        for p in self.programs:
            wall, _ = self.command(p, "record", self.args(p, "record"))
            total += wall
            if os.path.exists(self.path(p, "alct")):
                size += os.path.getsize(self.path(p, "alct"))
                words = read(self.path(p, "record.out")).decode().split()
                events += int(words[1]) if words[:1] == ["recorded"] else 0
        return total, size / max(events, 1)

    def round(self, first):
        """One timed pass of the four commands over every program:
        `{(program, stem): (seconds, peak RSS MiB)}`. Each output is checked
        against the first round's: the commands are deterministic, and the
        first round's outputs are checked in full later."""
        sample = {}
        for p in self.programs:
            for what, stem in ROUND:
                sample[(p, stem)] = self.command(p, what, self.args(p, what))
                outputs = tuple(
                    read(f) if os.path.exists(f) else b""
                    for f in (self.path(p, f"{what}.out"), self.path(p, f"{what}.alcp"))
                )
                key = (p, what)
                if key in first:
                    self.ops.record(
                        f"{p}: {what} outputs equal the first round's", outputs == first[key]
                    )
                else:
                    first[key] = outputs
        return sample

    def rounds(self, seconds):
        """Whole rounds until `seconds` have passed (at least one)."""
        first, samples = {}, []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(self.round(first))
        # Leave the first round's outputs in place for the full checks.
        for (p, what), outputs in first.items():
            for suffix, data in zip(("out", "alcp"), outputs):
                with open(self.path(p, f"{what}.{suffix}"), "wb") as f:
                    f.write(data)
        return samples

    def checks(self, exe, workload, seed):
        """Untimed commands the checks compare against, then the harness's
        checks of every output."""
        for p in self.programs:
            self.command(p, "advise", self.args(p, "advise"))
        m = lambda what: os.path.join(self.d, f"merge.{what}")  # noqa: E731
        a, b = read(m("a.in")).decode(), read(m("b.in")).decode()
        for what, args in (
            ("a", ["profile", "save", m("mc"), "--input", a, "-o", m("a.alcp")]),
            ("b", ["profile", "save", m("mc"), "--input", b, "-o", m("b.alcp")]),
            ("merged", ["profile", "merge", m("a.alcp"), m("b.alcp"), "-o", m("merged.alcp")]),
            (
                "direct",
                ["profile", "save", m("mc"), "--input", a, "--input", b, "-o", m("direct.alcp")],
            ),
        ):
            self.command("merge", what, args)
        out = harness(exe, "check", workload, seed, self.d)
        if out is None:
            self.ops.record("harness checks", False, "the harness failed")
            return
        result = json.loads(out.strip().splitlines()[-1])
        self.ops.attempted += result["attempted"]
        self.ops.failures += result["failures"]


def fastest_rounds(bench, samples):
    """Seconds per command: the sum over programs of each program's fastest
    round. This host's vCPUs each alternate between two speeds for seconds
    at a time, so a median over rounds lands in either mode, while the
    fastest of several rounds repeats."""
    return {
        stem: sum(min(s[(p, stem)][0] for s in samples) for p in bench.programs)
        for _, stem in ROUND
    }


def end_to_end(bench, seconds):
    """Set-up, then rounds. Times are `fastest_rounds`; a peak RSS is the
    largest of the programs' medians over rounds."""
    _, bytes_per_event = bench.setup()
    metrics = {"setup_s": {"value": since_process_start(), "unit": "s"}}
    samples = bench.rounds(seconds)
    for stem, secs in fastest_rounds(bench, samples).items():
        metrics[f"{stem}_s"] = {"value": secs, "unit": "s"}
    for _, stem in ROUND:
        rss = max(statistics.median(s[(p, stem)][1] for s in samples) for p in bench.programs)
        metrics[f"{stem}_rss_mb"] = {"value": rss, "unit": "MiB"}
    metrics["trace_bytes_per_event"] = {"value": bytes_per_event, "unit": "bytes/event"}
    print(f"{len(samples)} round(s) of {len(bench.programs)} program(s)", file=sys.stderr)
    for _, stem in ROUND:
        sums = [sum(s[(p, stem)][0] for p in bench.programs) for s in samples]
        print(
            f"  {stem}_s per round: min {min(sums):.4f} median {statistics.median(sums):.4f} "
            f"max {max(sums):.4f}",
            file=sys.stderr,
        )
    return metrics


def untraced_times(bench, seconds):
    """Milliseconds per command, untraced: the one cold `record` per
    program, then `fastest_rounds` over rounds lasting `seconds`."""
    untraced = {"record": bench.setup()[0] * 1e3}
    for stem, secs in fastest_rounds(bench, bench.rounds(seconds)).items():
        untraced[stem] = secs * 1e3
    return untraced


def traced_metrics(bench, exe, workload, seed, untraced):
    out = harness(exe, "trace", workload, seed, bench.d)
    if out is None:
        bench.ops.record("traced run", False, "the harness failed")
        return {}
    result = json.loads(out.strip().splitlines()[-1])
    bench.ops.attempted += result["attempted"]
    bench.ops.failures += result["failures"]
    metrics = dict(result["metrics"])
    print("command               untraced_ms  traced_spans_ms  difference_ms", file=sys.stderr)
    for cmd, name in PER_COMMAND_SELF:
        spans = result["command_ms"][cmd]
        metrics[name] = {"value": untraced[cmd] - spans, "unit": "ms"}
        print(
            f"{cmd:<21} {untraced[cmd]:>11.1f}  {spans:>15.1f}  {untraced[cmd] - spans:>13.1f}",
            file=sys.stderr,
        )
    print("layer self time (ms): " + ", ".join(
        f"{k.split('.')[0]} {v['value']:.1f}" for k, v in metrics.items() if k.endswith(".self_ms")
    ), file=sys.stderr)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--spans-out", help="also copy the traced run's spans (JSON lines) here")
    args = ap.parse_args()

    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            fail(f"`{needed}` not found: run from the root of an alchemist checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cli, exe = build(target)

    base = os.path.abspath(".bench_tmp")
    d = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(d)
    try:
        listing = harness(exe, "gen", args.workload, args.seed, d)
        if listing is None:
            fail("the harness could not generate the workload", 1)
        programs = listing.split()
        ops = Ops()
        bench = Bench(os.path.abspath(cli), d, programs, ops)
        if args.trace:
            untraced = untraced_times(bench, args.seconds)
            bench.checks(exe, args.workload, args.seed)
            metrics = traced_metrics(bench, exe, args.workload, args.seed, untraced)
            if args.spans_out and os.path.exists(os.path.join(d, "spans.jsonl")):
                shutil.copyfile(os.path.join(d, "spans.jsonl"), args.spans_out)
        else:
            metrics = end_to_end(bench, args.seconds)
            bench.checks(exe, args.workload, args.seed)
    finally:
        shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    for f in ops.failures:
        print(f"FAILED {f}", file=sys.stderr)
    failed = len(ops.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
