//! Command-line contract of the `reproduce` binary: malformed invocations
//! fail with exit status 2 before any experiment runs.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("spawn");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    out.status.code()
}

#[test]
fn json_without_a_file_exits_2() {
    assert_eq!(exit_code(&["e2", "--quick", "--json"]), Some(2));
    assert_eq!(exit_code(&["--json", "--quick", "e2"]), Some(2));
}

#[test]
fn telemetry_without_a_dir_exits_2() {
    assert_eq!(exit_code(&["e1", "--quick", "--telemetry"]), Some(2));
}

#[test]
fn unknown_experiment_exits_2() {
    assert_eq!(exit_code(&["e99", "--quick"]), Some(2));
}
