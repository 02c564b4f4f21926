//! The benchmark's workloads: which programs each one runs, and the inputs
//! it generates for them from the seed.
//!
//! Every input is a pure function of `(workload, seed)`, so a run can be
//! repeated exactly and two seeds give two different input sets of the
//! same shape and size.

use alchemist_workloads::{inputs, InputKind, Scale, Workload};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-suite", "wide-memory", "threaded"];

/// Read-modify-writes per wide-memory program (phase one); phase two runs
/// a quarter as many read bursts.
const WIDE_N: i64 = 100_000;
/// Seeded runs of each bundled threaded program.
const THREADED_SEEDS: u64 = 2;

const WIDE_RMW: &str = include_str!("../programs/wide_rmw.mc");
const WIDE_HASH: &str = include_str!("../programs/wide_hash.mc");

/// One program run of a workload: its source and the input `--input` gets.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// File-name stem, unique within the workload.
    pub name: String,
    /// Mini-C source.
    pub source: &'static str,
    /// The program's input.
    pub input: Vec<i64>,
    /// What the program prints, computed natively (the benchmark's own
    /// programs only).
    pub expected_output: Option<Vec<i64>>,
}

/// A workload: its programs, plus the program and the two inputs of its
/// `profile merge` check.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The programs, timed one after another.
    pub programs: Vec<Program>,
    /// `(stem, source, input A, input B)` for the merge check.
    pub merge: (String, &'static str, Vec<i64>, Vec<i64>),
}

/// SplitMix64: decorrelates the per-program seeds derived from one
/// benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` values of the bundled workload's input shape, drawn from `seed`.
fn shaped_input(w: &Workload, n: usize, seed: u64) -> Vec<i64> {
    match w.input_kind {
        InputKind::Literals => inputs::literal_stream(n, seed),
        InputKind::Words => inputs::word_stream(n, seed),
        InputKind::Exprs => inputs::expr_stream(n, seed),
        InputKind::Waves => inputs::wave_stream(n, seed),
        InputKind::Bytes => inputs::byte_stream(n, seed),
        InputKind::Qualities => inputs::quality_stream(n, seed),
    }
}

fn bundled(name: &str) -> &'static Workload {
    alchemist_workloads::by_name(name).expect("bundled workload exists")
}

/// A file-name stem for a bundled workload (`gzip-1.3.5` -> `gzip-1_3_5`).
fn stem(name: &str) -> String {
    name.replace('.', "_")
}

/// Builds workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<WorkloadSpec> {
    match name {
        "paper-suite" => Some(paper_suite(seed)),
        "wide-memory" => Some(wide_memory(seed)),
        "threaded" => Some(threaded(seed)),
        _ => None,
    }
}

/// The paper's eight programs, each on a seeded input of its own shape at
/// `--scale large` size.
fn paper_suite(seed: u64) -> WorkloadSpec {
    let n_of = |w: &Workload| w.base_input * Scale::Large.factor();
    let programs = alchemist_workloads::paper_suite()
        .iter()
        .enumerate()
        .map(|(i, w)| Program {
            name: stem(w.name),
            source: w.source,
            input: shaped_input(w, n_of(w), mix(seed, i as u64)),
            expected_output: None,
        })
        .collect();
    let li = bundled("130.li");
    WorkloadSpec {
        programs,
        merge: (
            stem(li.name),
            li.source,
            shaped_input(li, li.base_input, mix(seed, 100)),
            shaped_input(li, li.base_input, mix(seed, 101)),
        ),
    }
}

/// Seeds the wide-memory programs accept (see their headers).
fn wide_seed(seed: u64, salt: u64) -> i64 {
    (mix(seed, salt) % (1 << 29)) as i64
}

/// The benchmark's two wide-memory programs; each takes `(seed, n)`.
fn wide_memory(seed: u64) -> WorkloadSpec {
    let rmw_seed = wide_seed(seed, 1);
    let hash_seed = wide_seed(seed, 2);
    WorkloadSpec {
        programs: vec![
            Program {
                name: "wide_rmw".into(),
                source: WIDE_RMW,
                input: vec![rmw_seed, WIDE_N],
                expected_output: Some(native_wide_rmw(rmw_seed, WIDE_N)),
            },
            Program {
                name: "wide_hash".into(),
                source: WIDE_HASH,
                input: vec![hash_seed, WIDE_N],
                expected_output: Some(native_wide_hash(hash_seed, WIDE_N)),
            },
        ],
        merge: (
            "wide_hash".into(),
            WIDE_HASH,
            vec![wide_seed(seed, 100), WIDE_N / 8],
            vec![wide_seed(seed, 101), WIDE_N / 8],
        ),
    }
}

/// The three bundled threaded programs on seeded byte inputs at
/// `--scale huge` size, each run on several seeds.
fn threaded(seed: u64) -> WorkloadSpec {
    let mut programs = Vec::new();
    for round in 0..THREADED_SEEDS {
        for (i, w) in alchemist_workloads::threaded_suite().iter().enumerate() {
            let salt = round * 16 + i as u64;
            programs.push(Program {
                name: format!("{}_{round}", stem(w.name)),
                source: w.source,
                input: shaped_input(w, w.base_input * Scale::Huge.factor(), mix(seed, salt)),
                expected_output: None,
            });
        }
    }
    let fs = bundled("false_sharing");
    WorkloadSpec {
        programs,
        merge: (
            stem(fs.name),
            fs.source,
            shaped_input(fs, fs.base_input, mix(seed, 100)),
            shaped_input(fs, fs.base_input, mix(seed, 101)),
        ),
    }
}

/// `programs/wide_rmw.mc`, computed natively with the VM's wrapping i64
/// arithmetic.
pub fn native_wide_rmw(seed: i64, n: i64) -> Vec<i64> {
    let mut table = vec![0i64; 1 << 20];
    let mut x = seed;
    let next = |x: &mut i64| {
        *x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345) & 2_147_483_647;
        ((*x >> 11) & 1_048_575) as usize
    };
    let mut chk = 0i64;
    for _ in 0..n {
        let a = next(&mut x);
        let v = table[a] + (x >> 20) + 1;
        table[a] = v;
        chk = (chk.wrapping_mul(31).wrapping_add(v)) & 1_073_741_823;
    }
    let phase1 = chk;
    chk = 0;
    for _ in 0..n / 4 {
        let a = next(&mut x);
        let t = table[a];
        let mut v = t;
        v = v.wrapping_add(t.wrapping_mul(3));
        v ^= t;
        v = v.wrapping_add(t >> 1);
        v = v.wrapping_add(t.wrapping_mul(5));
        v ^= t.wrapping_shl(2);
        v = v.wrapping_add(t.wrapping_mul(7));
        v = v.wrapping_add(t & 255);
        v ^= t >> 3;
        v = v.wrapping_add(t.wrapping_mul(11));
        table[a] = v & 65_535;
        chk = (chk.wrapping_mul(31).wrapping_add(v)) & 1_073_741_823;
    }
    vec![phase1, chk]
}

/// `programs/wide_hash.mc`, computed natively with the VM's wrapping i64
/// arithmetic.
pub fn native_wide_hash(seed: i64, n: i64) -> Vec<i64> {
    let mut table = vec![0i64; 1 << 20];
    let hash = |key: i64| key.wrapping_mul(2_654_435_761) & 4_294_967_295;
    let mut chk = 0i64;
    for i in 0..n {
        let k = hash(seed + i);
        let a = ((k >> 12) & 1_048_575) as usize;
        table[a] += 1;
        table[a ^ 1] ^= k & 65_535;
        chk = (chk.wrapping_mul(33).wrapping_add(table[a])) & 1_073_741_823;
    }
    let phase1 = chk;
    chk = 0;
    for i in 0..n / 4 {
        let k = hash(seed + n + i);
        let a = ((k >> 12) & 1_048_575) as usize;
        let t = table[a];
        let mut v = t + 1;
        v = v.wrapping_add(t.wrapping_mul(3));
        v ^= t;
        v = v.wrapping_add(t >> 2);
        v = v.wrapping_add(t.wrapping_mul(5));
        v ^= t.wrapping_shl(1);
        v = v.wrapping_add(t.wrapping_mul(9));
        v = v.wrapping_add(t & 1023);
        v ^= t >> 4;
        v = v.wrapping_add(t.wrapping_mul(13));
        v = v.wrapping_add(t | 1);
        v ^= t.wrapping_mul(17);
        if k & 1 == 0 {
            table[a] = v & 65_535;
        }
        chk = (chk.wrapping_mul(33).wrapping_add(v)) & 1_073_741_823;
    }
    vec![phase1, chk]
}

/// Renders an input the way `--input` takes it.
pub fn input_arg(input: &[i64]) -> String {
    let parts: Vec<String> = input.iter().map(i64::to_string).collect();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_vm::{compile_source, run, ExecConfig, NullSink};

    /// Linux refuses a single argument of 128 KiB or more.
    const ARG_LIMIT: usize = 128 * 1024;

    #[test]
    fn a_different_seed_changes_every_input() {
        for name in WORKLOADS {
            let a = build(name, 1).expect("known workload");
            let b = build(name, 2).expect("known workload");
            assert_eq!(a.programs.len(), b.programs.len());
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.name, pb.name);
                assert_eq!(pa.input.len(), pb.input.len(), "{name}/{}", pa.name);
                assert_ne!(pa.input, pb.input, "{name}/{}", pa.name);
            }
            assert_ne!(a.merge.2, b.merge.2);
        }
    }

    #[test]
    fn the_same_seed_repeats_every_input() {
        for name in WORKLOADS {
            assert_eq!(build(name, 7), build(name, 7));
        }
    }

    #[test]
    fn every_input_fits_in_one_argument() {
        for name in WORKLOADS {
            let w = build(name, 3).expect("known workload");
            for p in &w.programs {
                let arg = input_arg(&p.input);
                assert!(arg.len() < ARG_LIMIT, "{}: {} bytes", p.name, arg.len());
            }
        }
    }

    #[test]
    fn native_references_match_the_vm() {
        for (src, native) in [
            (WIDE_RMW, native_wide_rmw as fn(i64, i64) -> Vec<i64>),
            (WIDE_HASH, native_wide_hash),
        ] {
            let module = compile_source(src).expect("program compiles");
            for (seed, n) in [(1, 4000), (536_870_911, 2_000)] {
                let out = run(
                    &module,
                    &ExecConfig::with_input(vec![seed, n]),
                    &mut NullSink,
                )
                .expect("program runs");
                assert_eq!(out.output, native(seed, n));
            }
        }
    }
}
