//! The `repro` CLI's single-artifact modes, pinned against REPORT.md.
//!
//! `--table N`, `--figure N`, `--figure fault` and every `--extra NAME`
//! print one experiment's section, which must appear verbatim in the
//! committed report. Bare `repro` prints Tables I–V and Figures 1–5 and
//! must equal the report's "Paper artifacts" block plus one newline.

use std::process::Command;

/// Run the built `repro` with the persistent cache off; its stdout.
fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--no-cache")
        .args(args)
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "repro {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn report() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPORT.md");
    std::fs::read_to_string(path).expect("REPORT.md is committed")
}

macro_rules! section_in_report {
    ($($test:ident => [$($arg:literal),+]),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                let args = [$($arg),+];
                let out = repro(&args);
                assert!(!out.is_empty(), "repro {args:?} printed nothing");
                assert!(
                    report().contains(&out),
                    "repro {args:?} printed a section REPORT.md does not contain:\n{out}"
                );
            }
        )+
    };
}

section_in_report! {
    table_1 => ["--table", "1"],
    table_2 => ["--table", "2"],
    table_3 => ["--table", "3"],
    table_4 => ["--table", "4"],
    table_5 => ["--table", "5"],
    figure_1 => ["--figure", "1"],
    figure_2 => ["--figure", "2"],
    figure_3 => ["--figure", "3"],
    figure_4 => ["--figure", "4"],
    figure_5 => ["--figure", "5"],
    figure_fault => ["--figure", "fault"],
    extra_cluster => ["--extra", "cluster"],
    extra_fault => ["--extra", "fault"],
    extra_validate => ["--extra", "validate"],
    extra_batch => ["--extra", "batch"],
    extra_energy => ["--extra", "energy"],
    extra_storage => ["--extra", "storage"],
    extra_sensitivity => ["--extra", "sensitivity"],
    extra_variance => ["--extra", "variance"],
}

#[test]
fn bare_run_prints_the_paper_artifacts_block() {
    let report = report();
    let open = "## Paper artifacts\n\n```text\n";
    let start = report.find(open).expect("paper artifacts section") + open.len();
    let len = report[start..].find("```\n").expect("block is closed");
    assert_eq!(repro(&[]), format!("{}\n", &report[start..start + len]));
}

/// `repro sweep` prices at the run count of the `Config` it resolves:
/// `MLPERF_RUNS=8` appends the replication columns to the header, and
/// without the variable the sweep writes the point header.
#[test]
fn sweep_takes_its_run_count_from_the_environment() {
    let dir = std::env::temp_dir().join(format!("mlperf_cli_sweep_runs_{}", std::process::id()));
    let header = |runs: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["--no-cache", "sweep", "figure4_scaling", "--out"])
            .arg(&dir);
        match runs {
            Some(n) => cmd.env("MLPERF_RUNS", n),
            None => cmd.env_remove("MLPERF_RUNS"),
        };
        let out = cmd.output().expect("repro starts");
        assert!(
            out.status.success(),
            "repro sweep (MLPERF_RUNS={runs:?}) exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(dir.join("figure4_scaling.csv")).expect("sweep CSV");
        csv.lines().next().expect("a header row").to_string()
    };
    let replicated = header(Some("8"));
    assert!(
        replicated.contains(",epochs,runs,epochs_median,"),
        "MLPERF_RUNS=8 must add the replication columns: {replicated}"
    );
    let point = header(None);
    assert!(
        point.ends_with(",epochs,error") && !point.contains("runs"),
        "without MLPERF_RUNS the sweep writes the point header: {point}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
