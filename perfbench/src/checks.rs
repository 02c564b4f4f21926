//! The benchmark's correctness checks. Each takes outputs of the CLI (or
//! values decoded from them) plus a reference computed apart from the path
//! under test, and returns `Err` with a reason when they disagree.

use alchemist_core::DepProfile;

/// Tallies checks: each one is an operation the run attempted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one check, keeping its reason if it failed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// The first difference between two profiles, if any, for diagnostics.
fn first_difference(a: &DepProfile, b: &DepProfile) -> Option<String> {
    if a.total_steps != b.total_steps {
        return Some(format!(
            "total_steps {} vs {}",
            a.total_steps, b.total_steps
        ));
    }
    if a.dropped_readers != b.dropped_readers {
        return Some(format!(
            "dropped_readers {} vs {}",
            a.dropped_readers, b.dropped_readers
        ));
    }
    if (a.intra_thread_deps, a.cross_thread_deps) != (b.intra_thread_deps, b.cross_thread_deps) {
        return Some(format!(
            "intra/cross deps {}/{} vs {}/{}",
            a.intra_thread_deps, a.cross_thread_deps, b.intra_thread_deps, b.cross_thread_deps
        ));
    }
    if a.len() != b.len() {
        return Some(format!("{} vs {} constructs", a.len(), b.len()));
    }
    for ca in a.constructs() {
        let Some(cb) = b.construct(ca.id.head) else {
            return Some(format!("construct at pc {} missing", ca.id.head.0));
        };
        if ca != cb {
            let edge = ca
                .edges
                .iter()
                .find(|(k, s)| cb.edges.get(k) != Some(s))
                .map(|(k, s)| format!(", edge {k:?}: {s:?} vs {:?}", cb.edges.get(k)));
            return Some(format!(
                "construct at pc {} differs (inst {} vs {}, ttotal {} vs {}{})",
                ca.id.head.0,
                ca.inst,
                cb.inst,
                ca.ttotal,
                cb.ttotal,
                edge.unwrap_or_default()
            ));
        }
    }
    None
}

/// Two profiles of one run must be `==`.
pub fn profiles_equal(a: &DepProfile, b: &DepProfile) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    Err(first_difference(a, b).unwrap_or_else(|| "profiles differ".to_owned()))
}

/// An online profile against the unbounded oracle of the same events.
///
/// With no read dropped at the reader cap the two must be `==`. With
/// drops the oracle bounds the profile instead: the same constructs with
/// the same instance counts and durations, no edge the oracle lacks, no
/// `min_tdep` below the oracle's and no `count` above it.
pub fn against_oracle(online: &DepProfile, oracle: &DepProfile) -> Result<(), String> {
    if online.dropped_readers == 0 {
        return profiles_equal(online, oracle);
    }
    if online.total_steps != oracle.total_steps {
        return Err(format!(
            "total_steps {} vs oracle {}",
            online.total_steps, oracle.total_steps
        ));
    }
    if online.len() != oracle.len() {
        return Err(format!(
            "{} constructs vs oracle {}",
            online.len(),
            oracle.len()
        ));
    }
    for c in online.constructs() {
        let pc = c.id.head.0;
        let Some(o) = oracle.construct(c.id.head) else {
            return Err(format!("construct at pc {pc} missing from the oracle"));
        };
        if (c.id, c.inst, c.ttotal) != (o.id, o.inst, o.ttotal) {
            return Err(format!(
                "construct at pc {pc}: inst {} ttotal {} vs oracle inst {} ttotal {}",
                c.inst, c.ttotal, o.inst, o.ttotal
            ));
        }
        for (key, stat) in &c.edges {
            let Some(os) = o.edges.get(key) else {
                return Err(format!(
                    "construct at pc {pc}: edge {key:?} not in the oracle"
                ));
            };
            if stat.min_tdep < os.min_tdep {
                return Err(format!(
                    "construct at pc {pc}: edge {key:?} min_tdep {} below the oracle's {}",
                    stat.min_tdep, os.min_tdep
                ));
            }
            if stat.count > os.count {
                return Err(format!(
                    "construct at pc {pc}: edge {key:?} count {} above the oracle's {}",
                    stat.count, os.count
                ));
            }
        }
    }
    Ok(())
}

/// The first line of `stdout` starting with `prefix`, minus the prefix.
fn line_after<'a>(stdout: &'a str, prefix: &str) -> Result<&'a str, String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .ok_or_else(|| format!("no line starting with `{prefix}`"))
}

/// The leading unsigned integer of `s`.
fn leading_u64(s: &str) -> Result<u64, String> {
    let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| format!("expected a number at `{s}`"))
}

/// `replay --analysis profile` must report exactly the events and steps
/// of an independent VM run of the same program and input.
pub fn replay_counts(stdout: &str, events: u64, steps: u64) -> Result<(), String> {
    // "replayed N events (M recorded instructions), K static constructs"
    let rest = line_after(stdout, "replayed ")?;
    let n = leading_u64(rest)?;
    let m = leading_u64(rest.split_once('(').map_or("", |(_, r)| r))?;
    if (n, m) != (events, steps) {
        return Err(format!(
            "replay reports {n} events / {m} instructions, the VM run {events} / {steps}"
        ));
    }
    Ok(())
}

/// The stats section must count the VM run's events, with as many
/// function exits as enters.
pub fn stats_counts(stdout: &str, events: u64) -> Result<(), String> {
    // "events: N total — enters E, exits X, blocks …"
    let rest = line_after(stdout, "events: ")?;
    let n = leading_u64(rest)?;
    let field = |name: &str| -> Result<u64, String> {
        let at = rest
            .find(name)
            .ok_or_else(|| format!("no `{name}` count in `{rest}`"))?;
        leading_u64(&rest[at + name.len()..])
    };
    let (enters, exits) = (field("enters ")?, field("exits ")?);
    if n != events {
        return Err(format!("stats count {n} events, the VM run {events}"));
    }
    if enters != exits {
        return Err(format!("{enters} enters but {exits} exits"));
    }
    Ok(())
}

/// `run` must print `expected`, one value a line, then the exit value and
/// instruction count of the reference run.
pub fn program_output(
    stdout: &str,
    expected: &[i64],
    exit_value: i64,
    steps: u64,
) -> Result<(), String> {
    let mut printed = Vec::new();
    let mut tail = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("exit value: ") {
            tail = Some(rest);
            break;
        }
        printed.push(
            line.trim()
                .parse::<i64>()
                .map_err(|_| format!("unexpected output line `{line}`"))?,
        );
    }
    if printed != expected {
        return Err(format!("printed {printed:?}, expected {expected:?}"));
    }
    let tail = tail.ok_or("no `exit value:` line")?;
    let want = format!("{exit_value} ({steps} instructions)");
    if tail != want {
        return Err(format!("exit line `{tail}`, expected `{want}`"));
    }
    Ok(())
}

/// The advise section of `replay --analysis profile,advise,stats`: from
/// its first line to the blank line before the stats section.
fn advise_section(stdout: &str) -> Option<String> {
    let lines: Vec<&str> = stdout.lines().collect();
    let start = lines.iter().position(|l| {
        l.starts_with("parallelization candidates") || l.starts_with("no construct qualifies")
    })?;
    let end = lines[start..]
        .iter()
        .position(|l| l.starts_with("trace ") && l.contains(": format v"))
        .map_or(lines.len(), |i| start + i);
    let section = lines[start..end].join("\n");
    Some(section.trim_end().to_owned())
}

/// The replayed advise section must equal the stdout of `alchemist
/// advise`, which executes the program live and reads no trace.
pub fn advise_matches(replay_all_stdout: &str, advise_stdout: &str) -> Result<(), String> {
    let replayed = advise_section(replay_all_stdout).ok_or("no advise section in the replay")?;
    let live = advise_stdout.trim_end();
    if replayed == live {
        return Ok(());
    }
    let differing = replayed
        .lines()
        .zip(live.lines())
        .find(|(a, b)| a != b)
        .map_or_else(
            || "one output is longer".to_owned(),
            |(a, b)| format!("`{a}` vs `{b}`"),
        );
    Err(format!("advise output differs: {differing}"))
}

/// Two artifacts that must be byte-identical.
pub fn bytes_identical(a: &[u8], b: &[u8]) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Err(format!(
        "{} vs {} bytes, first difference at byte {at}",
        a.len(),
        b.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_core::oracle::oracle_profile;
    use alchemist_core::{profile_events, EdgeStat, ProfileConfig};
    use alchemist_vm::{compile_source, run, Event, ExecConfig, RecordingSink};

    const SRC: &str = "int a[64]; int s;
        int main() {
            int i; int j;
            for (i = 0; i < 40; i++) {
                for (j = 0; j < 12; j++) s = s + a[(i + j) & 63];
                a[i & 63] = s & 1023;
            }
            print(s);
            return s & 7;
        }";

    fn recorded() -> (alchemist_vm::Module, Vec<Event>, u64) {
        let module = compile_source(SRC).expect("compiles");
        let mut rec = RecordingSink::default();
        let out = run(&module, &ExecConfig::default(), &mut rec).expect("runs");
        (module, rec.events, out.steps)
    }

    fn profiled(cfg: ProfileConfig) -> (DepProfile, DepProfile) {
        let (module, events, steps) = recorded();
        let (online, _, _) = profile_events(&module, events.iter().copied(), steps, cfg);
        (online, oracle_profile(&module, &events, steps))
    }

    /// `p` with one edge's `min_tdep` lowered by one.
    fn lowered_min_tdep(p: &DepProfile) -> DepProfile {
        let mut damaged = p.clone();
        let (id, key, stat) = p
            .constructs()
            .find_map(|c| {
                c.edges
                    .iter()
                    .find(|(_, s)| s.min_tdep > 0)
                    .map(|(k, s)| (c.id, *k, *s))
            })
            .expect("the program has a dependence edge");
        damaged.merge_edge(
            id,
            key,
            EdgeStat {
                min_tdep: stat.min_tdep - 1,
                count: 0,
                cross_count: 0,
                ..stat
            },
        );
        damaged
    }

    #[test]
    fn exact_oracle_check_rejects_a_lowered_min_tdep() {
        let (online, oracle) = profiled(ProfileConfig::default());
        assert_eq!(online.dropped_readers, 0);
        assert_eq!(against_oracle(&online, &oracle), Ok(()));
        let err = against_oracle(&lowered_min_tdep(&online), &oracle).unwrap_err();
        assert!(err.contains("min_tdep"), "{err}");
    }

    #[test]
    fn bounded_oracle_check_rejects_a_lowered_min_tdep() {
        // A cap of 2 drops reads of the 12-site inner loop.
        let cfg = ProfileConfig {
            reader_cap: 2,
            ..ProfileConfig::default()
        };
        let (online, oracle) = profiled(cfg);
        assert!(online.dropped_readers > 0);
        assert_ne!(online, oracle);
        assert_eq!(against_oracle(&online, &oracle), Ok(()));
        let err = against_oracle(&lowered_min_tdep(&online), &oracle).unwrap_err();
        assert!(err.contains("below the oracle"), "{err}");
    }

    #[test]
    fn bounded_oracle_check_rejects_an_invented_edge_or_count() {
        let cfg = ProfileConfig {
            reader_cap: 2,
            ..ProfileConfig::default()
        };
        let (online, oracle) = profiled(cfg);
        let (id, key, stat) = online
            .constructs()
            .find_map(|c| c.edges.iter().next().map(|(k, s)| (c.id, *k, *s)))
            .expect("an edge");
        let mut more = online.clone();
        more.merge_edge(
            id,
            key,
            EdgeStat {
                count: oracle.construct(id.head).expect("construct").edges[&key].count,
                ..stat
            },
        );
        assert!(against_oracle(&more, &oracle)
            .unwrap_err()
            .contains("count"));
    }

    #[test]
    fn a_missing_event_fails_the_counts_and_the_profile() {
        let (module, events, steps) = recorded();
        let n = events.len() as u64;
        let replay =
            format!("replayed {n} events ({steps} recorded instructions), 3 static constructs\n");
        assert_eq!(replay_counts(&replay, n, steps), Ok(()));
        assert!(replay_counts(&replay, n - 1, steps).is_err());
        let stats =
            format!("trace t.alct: format v1\nevents: {n} total — enters 1, exits 1, blocks 9\n");
        assert_eq!(stats_counts(&stats, n), Ok(()));
        assert!(stats_counts(&stats, n - 1).is_err());
        // Without the final function exit the enters and exits disagree.
        let short = stats.replace("exits 1", "exits 0");
        assert!(stats_counts(&short, n).unwrap_err().contains("enters"));
        // And a stream missing a read profiles differently.
        let at = events
            .iter()
            .position(|e| matches!(e, Event::Read { addr, .. } if *addr < module.global_words))
            .expect("a global read");
        let mut fewer = events.clone();
        fewer.remove(at);
        let full = oracle_profile(&module, &events, steps);
        let (cut, _, _) = profile_events(
            &module,
            fewer.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        assert!(against_oracle(&cut, &full).is_err());
    }

    #[test]
    fn a_changed_output_value_is_rejected() {
        let stdout = "17\n-3\nexit value: 5 (900 instructions)\n";
        assert_eq!(program_output(stdout, &[17, -3], 5, 900), Ok(()));
        assert!(program_output(stdout, &[17, -4], 5, 900).is_err());
        assert!(program_output(stdout, &[17], 5, 900).is_err());
        assert!(program_output(stdout, &[17, -3], 6, 900).is_err());
        assert!(program_output(stdout, &[17, -3], 5, 901).is_err());
        assert!(program_output("17\n", &[17], 5, 900).is_err());
    }

    #[test]
    fn an_altered_advise_line_is_rejected() {
        let advise = "parallelization candidates (largest first):\n\n  Method work   \
                      40.0% of run, violating RAW: 0\n\nsimulating `Method work` as a future \
                      on 4 threads: 2.50x speedup (8 tasks, 1 joins)\n";
        let replay = format!(
            "replayed 10 events (20 recorded instructions), 2 static constructs\n\nreport\n\n\
             {advise}\ntrace x.alct: format v1\nevents: 10 total — enters 1, exits 1\n"
        );
        assert_eq!(advise_matches(&replay, advise), Ok(()));
        let altered = replay.replace("2.50x", "2.51x");
        assert!(advise_matches(&altered, advise).is_err());
        let dropped = replay.replace("  Method work", "  Method other");
        assert!(advise_matches(&dropped, advise).is_err());
        assert!(advise_matches("replayed 1 events\n", advise).is_err());
    }

    #[test]
    fn differing_artifacts_are_rejected() {
        assert_eq!(bytes_identical(b"ALCP1", b"ALCP1"), Ok(()));
        assert!(bytes_identical(b"ALCP1", b"ALCP2")
            .unwrap_err()
            .contains("byte 4"));
        assert!(bytes_identical(b"ALCP", b"ALCP1").is_err());
    }

    #[test]
    fn the_tally_counts_failures() {
        let mut t = Tally::default();
        t.record("ok", Ok(()));
        t.record("bad", Err("why".into()));
        assert_eq!(t.attempted, 2);
        assert_eq!(t.failures, vec!["bad: why".to_owned()]);
    }
}
