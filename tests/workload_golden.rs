//! Golden-value regression tests: the workloads are fully deterministic,
//! so their Tiny-scale instruction counts, exit values and printed output
//! are pinned exactly. Any change to a workload program, the input
//! generators, the compiler or the VM that shifts these values must be
//! deliberate (and the `alchemist-bench` tables re-run).

use alchemist::workloads::{self, Scale};

#[test]
fn tiny_scale_outputs_are_pinned() {
    let golden: &[(&str, u64, i64, Vec<i64>)] = &[
        ("197.parser", 113210, 235, vec![235, 200]),
        ("bzip2", 481670, 68, vec![68, 420]),
        ("gzip-1.3.5", 57548, 122, vec![122, 600]),
        ("130.li", 24221, 338228, vec![2, 338228]),
        ("ogg", 869131, 489, vec![489, 512, 8]),
        ("aes", 137708, 32, vec![512, 32]),
        // Step count re-pinned when the staging-buffer wrap (`& 8191`) was
        // extended to the verify/recombine loops so Scale::Huge inputs
        // (n > 8192) stay in bounds; outputs and events are unchanged.
        ("par2", 435854, 1024, vec![4, 1024]),
        ("delaunay", 664613, 1166, vec![508, 1016, 1166]),
        ("producer_consumer", 34042, 729340, vec![400, 400, 729340]),
        ("pipeline", 33843, 73144, vec![61105, 49315, 73144]),
        (
            "false_sharing",
            10873,
            172226,
            vec![21533, 21457, 342, 172226],
        ),
    ];
    assert_eq!(golden.len(), workloads::all().len(), "all workloads pinned");
    for (name, steps, exit, output) in golden {
        let w = workloads::by_name(name).expect("workload exists");
        let out = w.run_native(Scale::Tiny);
        assert_eq!(out.steps, *steps, "{name}: instruction count drifted");
        assert_eq!(out.exit_value, *exit, "{name}: exit value drifted");
        assert_eq!(&out.output, output, "{name}: printed output drifted");
    }
}

#[test]
fn workload_self_checks_hold() {
    // Cross-workload sanity that the programs compute what they claim.
    let gzip = workloads::by_name("gzip-1.3.5")
        .unwrap()
        .run_native(Scale::Tiny);
    assert_eq!(gzip.output[1], 600, "gzip consumed all 600 input literals");
    assert!(gzip.output[0] > 0, "gzip produced output bytes");

    let bzip2 = workloads::by_name("bzip2").unwrap().run_native(Scale::Tiny);
    assert_eq!(bzip2.output[1], 420, "bzip2 consumed its whole input");

    let aes = workloads::by_name("aes").unwrap().run_native(Scale::Tiny);
    assert_eq!(aes.output[0], 512, "aes emitted one byte per input byte");
    assert_eq!(aes.output[1], 32, "aes processed 32 blocks of 16 bytes");

    let par2 = workloads::by_name("par2").unwrap().run_native(Scale::Tiny);
    assert_eq!(par2.output[0], 4, "par2 opened all four files");

    let ogg = workloads::by_name("ogg").unwrap().run_native(Scale::Tiny);
    assert_eq!(ogg.output[1], 512, "ogg read every sample");

    let del = workloads::by_name("delaunay")
        .unwrap()
        .run_native(Scale::Tiny);
    assert!(del.output[2] > del.output[0], "refinement grew the mesh");

    let pc = workloads::by_name("producer_consumer")
        .unwrap()
        .run_native(Scale::Tiny);
    assert_eq!(pc.output[0], pc.output[1], "every produced item consumed");
    assert_eq!(pc.output[0], 400, "producer handled the whole input");

    let fs = workloads::by_name("false_sharing")
        .unwrap()
        .run_native(Scale::Tiny);
    assert_eq!(
        fs.output[2], 342,
        "the contended stamp reflects the deterministic interleaving \
         (lost updates are possible but must be reproducible)"
    );
}

#[test]
fn threaded_workloads_profile_cross_thread_dependences() {
    // The thread-aware profiler must classify a healthy share of each
    // threaded workload's dependences as cross-thread, and the eight
    // single-threaded programs must show none.
    let expected: &[(&str, u64, u64)] = &[
        ("producer_consumer", 6795, 402),
        ("pipeline", 4219, 772),
        ("false_sharing", 1818, 340),
    ];
    for (name, intra, cross) in expected {
        let w = workloads::by_name(name).expect("workload exists");
        let (_, profile, _) = w.profile(Scale::Tiny);
        assert_eq!(
            profile.intra_thread_deps, *intra,
            "{name}: intra-thread count drifted"
        );
        assert_eq!(
            profile.cross_thread_deps, *cross,
            "{name}: cross-thread count drifted"
        );
        assert!(*cross > 0, "{name} must share across threads");
    }
    for w in workloads::paper_suite() {
        let (_, profile, _) = w.profile(Scale::Tiny);
        assert_eq!(
            profile.cross_thread_deps, 0,
            "{}: single-threaded programs have no cross-thread deps",
            w.name
        );
    }
}
