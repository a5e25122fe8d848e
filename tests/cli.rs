//! End-to-end tests of the `sgx-preload` command-line tool.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sgx-preload"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn sgx-preload");
    assert!(
        out.status.success(),
        "sgx-preload {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn run_err(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn sgx-preload");
    assert!(
        !out.status.success(),
        "sgx-preload {args:?} unexpectedly succeeded"
    );
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

#[test]
fn list_names_all_benchmarks_and_schemes() {
    let out = run_ok(&["list"]);
    for name in ["microbenchmark", "lbm", "mcf.2006", "mixed-blood", "SIFT"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    assert!(out.contains("dfp-stop"));
    assert!(out.contains("(no SIP)"), "Fortran exclusions flagged");
}

#[test]
fn run_reports_improvement() {
    let out = run_ok(&["run", "--bench", "lbm", "--scheme", "dfp", "--scale", "dev"]);
    assert!(out.contains("lbm [DFP]"));
    assert!(out.contains("improvement over baseline: +"));
}

#[test]
fn run_respects_parameter_overrides() {
    // LOADLENGTH 1 must differ from LOADLENGTH 4 on lbm.
    let a = run_ok(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "--load-length",
        "1",
    ]);
    let b = run_ok(&[
        "run",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "--load-length",
        "4",
    ]);
    assert_ne!(a, b);
}

#[test]
fn profile_shows_plan_and_sites() {
    let out = run_ok(&["profile", "--bench", "deepsjeng", "--scale", "dev"]);
    assert!(out.contains("instrumentation plan"));
    assert!(out.contains("top sites by irregular ratio"));
}

#[test]
fn trace_then_replay_roundtrip() {
    let dir = std::env::temp_dir().join("sgx_preload_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lbm.csv");
    let out = run_ok(&[
        "trace",
        "--bench",
        "lbm",
        "--scale",
        "dev",
        "-n",
        "800",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.contains("recorded 800 accesses"));
    let out = run_ok(&[
        "replay",
        "--trace",
        path.to_str().unwrap(),
        "--scheme",
        "dfp",
        "--scale",
        "dev",
    ]);
    assert!(out.contains("improvement over baseline"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_record_convert_replay_roundtrip() {
    let dir = std::env::temp_dir().join("sgx_preload_cli_sgxt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let sgxt = dir.join("kv.sgxt");
    let csv = dir.join("kv.csv");
    let sgxt2 = dir.join("kv2.sgxt");
    let bench_json = dir.join("replay_bench.json");

    // Record the full kvstore stream in the binary format.
    let out = run_ok(&[
        "trace",
        "record",
        "--bench",
        "kvstore",
        "--scale",
        "24",
        "--out",
        sgxt.to_str().unwrap(),
    ]);
    assert!(out.contains("recorded"), "{out}");

    // Convert .sgxt -> CSV -> .sgxt; the binary files must be identical.
    run_ok(&[
        "trace",
        "convert",
        "--in",
        sgxt.to_str().unwrap(),
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "trace",
        "convert",
        "--in",
        csv.to_str().unwrap(),
        "--out",
        sgxt2.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&sgxt).unwrap(),
        std::fs::read(&sgxt2).unwrap(),
        ".sgxt -> CSV -> .sgxt must be byte-identical"
    );
    // The binary format earns its keep against the text format.
    let bin_len = std::fs::metadata(&sgxt).unwrap().len();
    let csv_len = std::fs::metadata(&csv).unwrap().len();
    assert!(
        bin_len * 2 < csv_len,
        ".sgxt ({bin_len} B) should be well under half the CSV ({csv_len} B)"
    );

    // Replay with the source declared and --diff: the replayed report
    // must match the generator run exactly.
    let out = run_ok(&[
        "trace",
        "replay",
        "--trace",
        sgxt.to_str().unwrap(),
        "--scale",
        "24",
        "--scheme",
        "dfp",
        "--source-bench",
        "kvstore",
        "--diff",
        "--bench-out",
        bench_json.to_str().unwrap(),
    ]);
    assert!(
        out.contains("replay matches the kvstore/DFP generator run exactly"),
        "{out}"
    );
    let json = std::fs::read_to_string(&bench_json).unwrap();
    for key in ["\"replayed_pages_per_sec\":", "\"bytes_per_access\":"] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_replay_rejects_corrupt_inputs_with_structured_errors() {
    let dir = std::env::temp_dir().join("sgx_preload_cli_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        p
    };

    // A valid .sgxt to corrupt: record a tiny benchmark first.
    let good = dir.join("good.sgxt");
    run_ok(&[
        "trace",
        "record",
        "--bench",
        "microbenchmark",
        "--scale",
        "24",
        "-n",
        "500",
        "--out",
        good.to_str().unwrap(),
    ]);
    let good_bytes = std::fs::read(&good).unwrap();

    let replay =
        |p: &std::path::Path| run_err(&["trace", "replay", "--trace", p.to_str().unwrap()]);

    // Truncated header.
    let p = write("trunc.sgxt", &good_bytes[..6]);
    assert!(
        replay(&p).contains("truncated .sgxt trace"),
        "truncated header"
    );
    // Truncated mid-stream.
    let p = write("cut.sgxt", &good_bytes[..good_bytes.len() - 3]);
    assert!(
        replay(&p).contains("truncated .sgxt trace"),
        "truncated body"
    );
    // Wrong version.
    let mut v = good_bytes.clone();
    v[4] = 9;
    let p = write("badver.sgxt", &v);
    assert!(
        replay(&p).contains("unsupported .sgxt version 9"),
        "bad version"
    );
    // A varint that never terminates (0xff forever) overruns.
    let mut o = good_bytes[..10].to_vec();
    o.extend([0xff; 12]);
    let p = write("overrun.sgxt", &o);
    assert!(replay(&p).contains("varint"), "varint overrun");
    // Trailing garbage after the last section.
    let mut t = good_bytes.clone();
    t.extend(b"junk");
    let p = write("trailing.sgxt", &t);
    assert!(replay(&p).contains("trailing garbage"), "trailing garbage");
    // A bad magic demotes the file to the CSV parser, which rejects it.
    let p = write("badmagic.sgxt", b"SGXU not a trace at all");
    assert!(replay(&p).contains("line 1"), "bad magic falls back to CSV");
    // Missing file.
    let err = run_err(&[
        "trace",
        "replay",
        "--trace",
        dir.join("absent.sgxt").to_str().unwrap(),
    ]);
    assert!(err.contains("cannot read"), "missing file: {err}");
    // Empty trace.
    let p = write("empty.csv", b"page,compute,site,repeats\n");
    assert!(replay(&p).contains("is empty"), "empty trace");
    // --diff without --source-bench cannot reproduce the generator.
    let err = run_err(&[
        "trace",
        "replay",
        "--trace",
        good.to_str().unwrap(),
        "--diff",
    ]);
    assert!(err.contains("--source-bench"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn timeline_streams_kernel_events() {
    let out = run_ok(&[
        "timeline",
        "--bench",
        "microbenchmark",
        "--scheme",
        "dfp",
        "--scale",
        "dev",
        "-n",
        "20",
    ]);
    assert!(out.contains("fault"));
    assert!(out.contains("demand-loaded"));
    assert!(out.contains("preload-start"), "DFP should preload:\n{out}");
}

#[test]
fn chaos_reports_slowdown_and_holds_invariants() {
    let dir = std::env::temp_dir().join("sgx_preload_cli_chaos_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("chaos.json");
    let out = run_ok(&[
        "chaos",
        "--bench",
        "microbenchmark",
        "--scheme",
        "dfp",
        "--scale",
        "48",
        "--preset",
        "light",
        "--chaos-seed",
        "5",
        "--json-out",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.contains("chaos microbenchmark/DFP:"),
        "summary line:\n{out}"
    );
    assert!(
        out.contains("invariants hold"),
        "clean exit states the contract:\n{out}"
    );
    let json = std::fs::read_to_string(&json_path).expect("chaos JSON written");
    for key in [
        "\"bench\":\"microbenchmark\"",
        "\"scheme\":\"DFP\"",
        "\"chaos\":{\"seed\":5",
        "\"baseline_total_cycles\":",
        "\"chaos_total_cycles\":",
        "\"slowdown\":",
        "\"invariants\":{\"violations\":[]}",
        "\"events\":{\"faults\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn chaos_schedule_knobs_override_the_preset() {
    // Two different drop rates must produce different runs.
    let base = [
        "chaos",
        "--bench",
        "lbm",
        "--scheme",
        "dfp",
        "--scale",
        "48",
        "--chaos-seed",
        "3",
    ];
    let mut a_args = base.to_vec();
    a_args.extend(["--drop", "0.5", "--retries", "2", "--backoff", "10000"]);
    let mut b_args = base.to_vec();
    b_args.extend(["--drop", "0.05", "--retries", "2", "--backoff", "10000"]);
    let a = run_ok(&a_args);
    let b = run_ok(&b_args);
    assert_ne!(a, b, "drop rate had no effect");
}

#[test]
fn chaos_exits_nonzero_on_envelope_violation_and_bad_flags() {
    // An impossible envelope: injection cannot *halve* total cycles.
    let err = run_err(&[
        "chaos",
        "--bench",
        "microbenchmark",
        "--scale",
        "48",
        "--preset",
        "heavy",
        "--max-slowdown",
        "0.5",
    ]);
    assert!(
        err.contains("exceeds --max-slowdown"),
        "envelope breach reported: {err}"
    );
    // Rate validation.
    let err = run_err(&["chaos", "--bench", "lbm", "--drop", "1.5"]);
    assert!(err.contains("must be in [0, 1]"), "{err}");
    // An all-zero schedule is refused (nothing to inject).
    let err = run_err(&["chaos", "--bench", "lbm"]);
    assert!(err.contains("all-zero"), "{err}");
    // The user-level scheme has no kernel to disturb.
    let err = run_err(&[
        "chaos",
        "--bench",
        "lbm",
        "--scheme",
        "user-level",
        "--preset",
        "light",
    ]);
    assert!(err.contains("user-level"), "{err}");
}

#[test]
fn helpful_errors() {
    assert!(run_err(&["run", "--scheme", "dfp"]).contains("missing --bench"));
    assert!(run_err(&["run", "--bench", "nope"]).contains("unknown benchmark"));
    assert!(run_err(&["run", "--bench", "lbm", "--scheme", "warp"]).contains("unknown scheme"));
    assert!(run_err(&["frobnicate"]).contains("unknown command"));
    assert!(run_err(&[]).contains("USAGE"));
    assert!(run_err(&["run", "--bench", "lbm", "--threshold", "7"]).contains("must be in [0, 1]"));
}

/// Zero values that would trip a constructor's assertion are rejected at
/// flag parsing: exit 1 with an error naming the flag, never a panic.
#[test]
fn zero_sizes_are_flag_errors_not_panics() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["run", "--bench", "microbenchmark", "--scale", "0"],
            "--scale must be positive",
        ),
        (&["leakage", "--scale", "0"], "--scale must be positive"),
        (
            &[
                "run",
                "--bench",
                "lbm",
                "--scheme",
                "dfp",
                "--load-length",
                "0",
            ],
            "--load-length must be positive",
        ),
        (
            &[
                "run",
                "--bench",
                "lbm",
                "--scheme",
                "dfp",
                "--list-len",
                "0",
            ],
            "--list-len must be positive",
        ),
    ];
    for (args, want) in cases {
        let out = cli().args(args).output().expect("spawn sgx-preload");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}
