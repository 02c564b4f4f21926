//! Fault injection over the full pipeline: traces truncated at every
//! chunk boundary (a mid-record kill), sampled mid-chunk truncations and
//! seeded random byte flips must (a) fail *typed* without `--recover` and
//! (b) salvage under `--recover` exactly the events of the surviving
//! intact chunks — the profile of the salvaged stream must equal a clean
//! replay of those same events. The CLI half pins the exit-code taxonomy:
//! 0 for a successful salvage, 3 for missing input, 4 for corrupt input.

use std::process::Command;

use alchemist_core::{profile_events, DepProfile, ProfileConfig};
use alchemist_trace::format::VERSION_V3;
use alchemist_trace::{
    decode_batches_par_recover, varint, RecoveryReport, TraceError, TraceReader, TraceWriter,
};
use alchemist_vm::{compile_source, Event, ExecConfig, NullSink};

const SRC: &str = "int g;
int work(int x) { int i; for (i = 0; i < 9; i++) g += x * i; return g; }
int main() { int i; for (i = 0; i < 12; i++) { if (i % 2 == 0) work(i); } return g; }";

/// Records `SRC` under v3 with small chunks: several CRC-protected chunks
/// plus the footer, the shape every injection below mutates.
fn record_v3() -> (alchemist_vm::Module, Vec<u8>, u64) {
    let module = compile_source(SRC).expect("compiles");
    let mut w = TraceWriter::new_v3(Vec::new(), Some(SRC))
        .expect("header")
        .with_chunk_capacity(64);
    let out = alchemist_vm::run(&module, &ExecConfig::default(), &mut w).expect("runs");
    let (bytes, stats) = w.finish(out.steps).expect("finish");
    assert!(stats.chunks >= 3, "test needs a multi-chunk trace");
    (module, bytes, out.steps)
}

/// Byte offsets where each chunk (footer included) starts, plus the file
/// end — derived by walking the wire format: after the header, each chunk
/// is `payload_len event_count t_first t_span` varints, a 4-byte CRC (v3),
/// then `payload_len` payload bytes.
fn chunk_starts(bytes: &[u8]) -> Vec<usize> {
    let mut pos = 4 + 2 + 2; // magic, version, flags
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    if flags & 1 != 0 {
        let src_len = varint::read_u64(bytes, &mut pos).expect("src_len") as usize;
        pos += src_len;
    }
    let mut starts = Vec::new();
    while pos < bytes.len() {
        starts.push(pos);
        let payload_len = varint::read_u64(bytes, &mut pos).expect("payload_len") as usize;
        for _ in 0..3 {
            varint::read_u64(bytes, &mut pos).expect("chunk head varint");
        }
        pos += 4 + payload_len; // CRC word + payload
    }
    assert_eq!(pos, bytes.len(), "walker must land exactly on EOF");
    starts.push(pos);
    starts
}

/// The clean event stream, split at the recorded chunk boundaries.
fn clean_chunk_events(bytes: &[u8]) -> Vec<Vec<Event>> {
    let events: Vec<Event> = TraceReader::new(bytes)
        .expect("header")
        .map(|e| e.expect("clean decode"))
        .collect();
    let counts: Vec<usize> = TraceReader::new(bytes)
        .expect("header")
        .read_chunk_infos()
        .expect("clean scan")
        .iter()
        .map(|c| c.events as usize)
        .collect();
    let mut chunks = Vec::new();
    let mut pos = 0;
    for n in counts {
        chunks.push(events[pos..pos + n].to_vec());
        pos += n;
    }
    assert_eq!(pos, events.len());
    chunks
}

/// Salvages `bytes`, returning the recovered events, the summary's step
/// count and the report. Exercised at two job counts: salvage must be
/// deterministic under sharded decode too.
fn salvage(bytes: &[u8]) -> (Vec<Event>, u64, RecoveryReport) {
    let reader = TraceReader::new(bytes).expect("header survives");
    let (batches, summary, report) = decode_batches_par_recover(reader, 1, None);
    let events: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
    assert_eq!(events.len() as u64, summary.events);

    let reader4 = TraceReader::new(bytes).expect("header survives");
    let (batches4, summary4, report4) = decode_batches_par_recover(reader4, 4, None);
    let events4: Vec<Event> = batches4.iter().flat_map(|b| b.iter()).collect();
    assert_eq!(events4, events, "salvage must not depend on --jobs");
    assert_eq!(report4, report, "recovery report must not depend on --jobs");
    assert_eq!(summary4.total_steps, summary.total_steps);

    (events, summary.total_steps, report)
}

fn profile_of(module: &alchemist_vm::Module, events: &[Event], steps: u64) -> DepProfile {
    let (p, ..) = profile_events(
        module,
        events.iter().copied(),
        steps,
        ProfileConfig::default(),
    );
    p
}

/// Replays without recovery; the typed error a plain replay must raise.
fn strict_replay(bytes: &[u8]) -> Result<u64, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    reader.replay_into(&mut NullSink).map(|s| s.events)
}

#[test]
fn truncation_at_every_chunk_boundary_salvages_the_exact_prefix() {
    let (module, bytes, _) = record_v3();
    let starts = chunk_starts(&bytes);
    let chunks = clean_chunk_events(&bytes);
    // starts[i] = first byte of chunk i, so truncating there leaves the
    // first i chunks intact (the last start is EOF — the clean file).
    for (i, &cut) in starts.iter().enumerate().take(starts.len() - 1) {
        let prefix = &bytes[..cut];
        let err = strict_replay(prefix).expect_err("footer is gone");
        assert!(
            matches!(err, TraceError::Truncated(_)),
            "boundary cut {i}: want Truncated, got {err:?}"
        );

        let (salvaged, steps, report) = salvage(prefix);
        let expect: Vec<Event> = chunks
            .iter()
            .take(i.min(chunks.len()))
            .flatten()
            .copied()
            .collect();
        assert_eq!(salvaged, expect, "boundary cut {i}: salvaged event set");
        assert!(!report.footer_recovered, "boundary cut {i}");
        assert_eq!(
            profile_of(&module, &salvaged, steps),
            profile_of(&module, &expect, steps),
            "boundary cut {i}: salvaged profile must equal a clean replay \
             of the surviving events"
        );
    }
}

#[test]
fn sampled_mid_chunk_truncations_salvage_only_complete_chunks() {
    let (module, bytes, _) = record_v3();
    let starts = chunk_starts(&bytes);
    let chunks = clean_chunk_events(&bytes);
    let body = starts[0]..bytes.len() - 1;
    let step = ((body.end - body.start) / 97).max(1);
    for cut in body.step_by(step) {
        if starts.contains(&cut) {
            continue; // boundary cuts are pinned exhaustively above
        }
        let prefix = &bytes[..cut];
        assert!(strict_replay(prefix).is_err(), "cut {cut}: must fail typed");

        // The cut lands inside chunk k: exactly chunks 0..k survive.
        let k = starts.iter().take_while(|&&s| s < cut).count() - 1;
        let (salvaged, steps, report) = salvage(prefix);
        let expect: Vec<Event> = chunks
            .iter()
            .take(k.min(chunks.len()))
            .flatten()
            .copied()
            .collect();
        assert_eq!(salvaged, expect, "cut {cut}: salvaged event set");
        assert!(
            report.truncated_tail || !report.footer_recovered,
            "cut {cut}"
        );
        assert_eq!(
            profile_of(&module, &salvaged, steps),
            profile_of(&module, &expect, steps),
            "cut {cut}: salvaged profile"
        );
    }
}

#[test]
fn crc_flip_is_a_precise_typed_error_and_recover_skips_exactly_that_chunk() {
    let (module, bytes, steps) = record_v3();
    let starts = chunk_starts(&bytes);
    let chunks = clean_chunk_events(&bytes);
    // Flip one payload byte in the middle event-bearing chunk.
    let victim = (starts.len() - 2) / 2;
    let mut mutated = bytes.clone();
    let mid = (starts[victim] + starts[victim + 1]) / 2;
    mutated[mid] ^= 0x40;

    match strict_replay(&mutated).expect_err("CRC must catch the flip") {
        TraceError::ChecksumMismatch { chunk_index, .. } => {
            assert_eq!(chunk_index, victim as u64, "error names the damaged chunk")
        }
        other => panic!("want ChecksumMismatch, got {other:?}"),
    }

    let (salvaged, salvaged_steps, report) = salvage(&mutated);
    let expect: Vec<Event> = chunks
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .flat_map(|(_, c)| c.iter().copied())
        .collect();
    assert_eq!(salvaged, expect, "exactly the damaged chunk is dropped");
    assert_eq!(report.chunks_skipped, 1);
    assert_eq!(report.crc_mismatches, 1);
    assert_eq!(report.events_lost, chunks[victim].len() as u64);
    assert!(
        report.footer_recovered,
        "damage was mid-file, footer intact"
    );
    assert_eq!(salvaged_steps, steps, "footer step count survives");
    assert_eq!(
        profile_of(&module, &salvaged, salvaged_steps),
        profile_of(&module, &expect, steps),
        "salvaged profile equals a clean replay of surviving events"
    );
}

/// Deterministic xorshift — seeded, so a failure reproduces exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn seeded_random_byte_flips_never_panic_and_salvage_stays_chunk_aligned() {
    let (_, bytes, _) = record_v3();
    let starts = chunk_starts(&bytes);
    let chunks = clean_chunk_events(&bytes);
    let mut rng = Rng(0x5DEECE66D);
    for round in 0..64 {
        let mut mutated = bytes.clone();
        let at = (rng.next() as usize) % mutated.len();
        let bit = 1u8 << (rng.next() % 8);
        mutated[at] ^= bit;

        // Flips in the header/source region may reject at open; that is a
        // typed error, not a salvage case.
        if at < starts[0] {
            match TraceReader::new(mutated.as_slice()) {
                Ok(_) => {} // e.g. a source-text flip that stays valid UTF-8
                Err(e) => {
                    let _ = e.to_string(); // typed and printable, job done
                    continue;
                }
            }
        }

        // Strict replay must never panic; an error is acceptable and often
        // mandatory, success only if the flip dodged every checksum (it
        // cannot — every byte past the header is CRC-covered — or it hit
        // the source region without breaking UTF-8).
        let _ = strict_replay(&mutated);

        // Salvage must never panic, and every salvaged event must come
        // from an intact chunk, in order: the result is the clean chunk
        // sequence with zero or more whole chunks deleted.
        let (salvaged, _, report) = salvage(&mutated);
        let mut pos = 0;
        for chunk in &chunks {
            if salvaged.len() - pos >= chunk.len() && salvaged[pos..pos + chunk.len()] == chunk[..]
            {
                pos += chunk.len();
            }
        }
        assert_eq!(
            pos,
            salvaged.len(),
            "round {round}: flip at byte {at} (bit {bit:#04x}) produced a \
             salvage that is not a chunk-aligned subsequence"
        );
        assert!(
            report.chunks_total as usize <= chunks.len() + 1,
            "round {round}: report counts more chunks than were written"
        );
    }
}

#[test]
fn recover_on_a_clean_trace_is_clean_and_equal_to_strict_replay() {
    let (module, bytes, steps) = record_v3();
    let clean: Vec<Event> = TraceReader::new(bytes.as_slice())
        .expect("header")
        .map(|e| e.expect("decode"))
        .collect();
    let (salvaged, salvaged_steps, report) = salvage(&bytes);
    assert!(
        report.is_clean(),
        "clean trace must report clean: {report:?}"
    );
    assert_eq!(report.chunks_skipped, 0);
    assert_eq!(salvaged, clean);
    assert_eq!(salvaged_steps, steps);
    assert_eq!(
        profile_of(&module, &salvaged, salvaged_steps),
        profile_of(&module, &clean, steps)
    );
}

// ---------------------------------------------------------------------------
// CLI half: the same faults through the binary, pinning the exit taxonomy.
// ---------------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alchemist"))
}

fn temp(name: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "alchemist-fault-{name}-{}.{ext}",
        std::process::id()
    ))
}

#[test]
fn cli_truncated_trace_replays_under_recover_and_exits_corrupt_without() {
    let src = temp("cli-src", "mc");
    std::fs::write(&src, SRC).expect("write source");
    let trace = temp("cli-trace", "alct");
    let out = bin()
        .args(["record", "--crc", "--chunk-events", "64", "-o"])
        .arg(&trace)
        .arg(&src)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Kill the tail mid-chunk: a simulated mid-record crash.
    let bytes = std::fs::read(&trace).expect("read trace");
    let starts = chunk_starts(&bytes);
    assert!(starts.len() >= 4, "need multiple chunks");
    std::fs::write(&trace, &bytes[..starts[starts.len() - 2] + 3]).expect("truncate");

    // Without --recover: corrupt-input exit code, precise message.
    let strict = bin().args(["replay"]).arg(&trace).output().expect("spawns");
    assert_eq!(strict.status.code(), Some(4), "corrupt trace exits 4");
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");

    // With --recover: success, salvage surfaced on stderr, stats report it.
    let rec = bin()
        .args(["replay", "--recover", "--analysis", "stats"])
        .arg(&trace)
        .output()
        .expect("spawns");
    assert_eq!(
        rec.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let stdout = String::from_utf8_lossy(&rec.stdout);
    let stderr = String::from_utf8_lossy(&rec.stderr);
    assert!(stderr.contains("salvaged replay:"), "stderr: {stderr}");
    assert!(stdout.contains("recovery:"), "stdout: {stdout}");

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn cli_whole_trace_decode_reports_the_streaming_replays_error() {
    // A first-chunk `payload_len` one off: the streaming replay fails
    // inside that chunk's payload, while the chunk scan of the whole-trace
    // decode `advise` needs runs into a misaligned header further on.
    // Both must report the error the streaming replay meets first.
    let src = temp("len-src", "mc");
    std::fs::write(&src, SRC).expect("write source");
    let trace = temp("len-trace", "alct");
    let out = bin()
        .args(["record", "--chunk-events", "64", "-o"])
        .arg(&trace)
        .arg(&src)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mut pos = 4 + 2 + 2; // magic, version, flags
    if bytes[6] & 1 != 0 {
        pos += varint::read_u64(&bytes, &mut pos).expect("src_len") as usize;
    }
    bytes[pos] ^= 1;
    std::fs::write(&trace, &bytes).expect("write trace");

    let stderr_of = |analysis: &str| {
        let out = bin()
            .args(["replay", "--analysis", analysis])
            .arg(&trace)
            .output()
            .expect("spawns");
        assert_eq!(
            out.status.code(),
            Some(4),
            "{analysis}: corrupt trace exits 4"
        );
        String::from_utf8(out.stderr).expect("utf-8 stderr")
    };
    assert_eq!(stderr_of("profile,advise"), stderr_of("profile"));

    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn cli_missing_trace_exits_with_io_code_and_names_the_path() {
    let out = bin()
        .args(["replay", "/no/such/alchemist-trace.alct"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(3), "missing input exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/no/such/alchemist-trace.alct"),
        "stderr must name the path: {stderr}"
    );
}

#[test]
fn cli_merge_of_only_corrupt_artifacts_exits_corrupt_and_writes_nothing() {
    let a = temp("merge-a", "alcp");
    let b = temp("merge-b", "alcp");
    std::fs::write(&a, b"not an artifact").expect("write");
    std::fs::write(&b, b"also garbage").expect("write");
    let out_path = temp("merge-out", "alcp");
    let out = bin()
        .args(["profile", "merge", "-o"])
        .arg(&out_path)
        .arg(&a)
        .arg(&b)
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(4), "all-corrupt merge exits 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nothing was merged"), "stderr: {stderr}");
    assert!(!out_path.exists(), "no empty artifact may be published");
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn cli_record_emits_v3_only_when_asked() {
    let src = temp("v3-src", "mc");
    std::fs::write(&src, SRC).expect("write source");
    for (crc, want_version) in [(false, 1u16), (true, VERSION_V3)] {
        let trace = temp(if crc { "v3-on" } else { "v3-off" }, "alct");
        let mut cmd = bin();
        cmd.arg("record");
        if crc {
            cmd.arg("--crc");
        }
        let out = cmd
            .arg("-o")
            .arg(&trace)
            .arg(&src)
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&trace).expect("read");
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        assert_eq!(version, want_version, "--crc={crc}");
        let _ = std::fs::remove_file(trace);
    }
    let _ = std::fs::remove_file(src);
}
