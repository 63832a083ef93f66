//! End-to-end tests of the `oasys` command-line binary.

use std::process::Command;

fn repo_root() -> std::path::PathBuf {
    // crates/oasys → workspace root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn cli_synthesizes_the_example_spec() {
    let root = repo_root();
    let deck_path = std::env::temp_dir().join("oasys_cli_test_deck.sp");
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--out",
            deck_path.to_str().unwrap(),
            "--no-verify",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("two-stage"), "{stdout}");
    assert!(stdout.contains("DC gain"));
    let deck = std::fs::read_to_string(&deck_path).unwrap();
    assert!(deck.contains(".MODEL MODN NMOS"));
    let _ = std::fs::remove_file(deck_path);
}

#[test]
fn cli_reports_missing_files() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["/nonexistent/spec.txt", "/nonexistent/tech.tech"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("nonexistent"));
}

#[test]
fn cli_reports_usage_without_args() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

#[test]
fn cli_rejects_unknown_flags() {
    let root = repo_root();
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--frobnicate",
        ])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("frobnicate"));
}

#[test]
fn cli_lint_plans_only_is_clean_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "json", "--deny-warnings"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&output.stdout), "[]\n");
}

#[test]
fn cli_lint_example_spec_passes_deny_warnings() {
    let root = repo_root();
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .current_dir(&root)
        .args([
            "lint",
            "data/example-spec.txt",
            "data/generic-5um.tech",
            "--deny-warnings",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("no diagnostics"));
}

#[test]
fn cli_lint_sarif_is_well_formed() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "sarif", "--deny-warnings"])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The builtin plans are clean, so the log carries an empty results
    // array — but the envelope must still be a complete SARIF run.
    assert!(stdout.contains("\"version\":\"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"oasys-lint\""), "{stdout}");
    assert!(stdout.contains("\"results\":[]"), "{stdout}");
    assert!(stdout.ends_with('\n'), "SARIF output is newline-terminated");
}

#[test]
fn cli_lint_rejects_bad_format() {
    let output = Command::new(env!("CARGO_BIN_EXE_oasys"))
        .args(["lint", "--format", "yaml"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("yaml"));
}

/// `oasys … | head -1`: the reader closes the pipe long before the
/// report is written. The printing subcommands exit quietly instead of
/// panicking with "failed printing to stdout: Broken pipe" (status 101).
#[test]
fn cli_exits_quietly_when_stdout_closes_early() {
    use std::process::Stdio;
    let root = repo_root();
    for args in [
        &["data/spec-a.txt", "data/generic-5um.tech"][..],
        &["lint", "data/spec-a.txt", "data/generic-5um.tech"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_oasys"))
            .current_dir(&root)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Close the read end before the first line arrives.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
        assert_ne!(output.status.code(), Some(101), "{args:?}: {stderr}");
    }
}
