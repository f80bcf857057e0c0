//! Every committed `scenarios/*.json` must go through the hand-rolled
//! strict JSON layer — and the strictness itself is pinned here: the
//! same documents with trailing garbage or a duplicated key must be
//! rejected, so no committed scenario silently depends on lenient
//! parsing. The committed `sample.json` must also match what
//! `customize --sample` writes, and unknown options must be usage
//! errors rather than scenario paths.

use tsn_types::json::{parse, Json};

fn committed_scenarios() -> Vec<(String, String)> {
    let dir = format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|x| x == "json"))
        .map(|entry| {
            let path = entry.path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (name, text)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "expected the committed scenario set, found {files:?}"
    );
    files
}

#[test]
fn every_committed_scenario_parses_strictly() {
    for (name, text) in committed_scenarios() {
        let root = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            matches!(root, Json::Obj(_)),
            "{name}: scenario roots are objects"
        );
    }
}

#[test]
fn trailing_garbage_after_any_scenario_is_rejected() {
    for (name, text) in committed_scenarios() {
        let garbled = format!("{text} trailing");
        assert!(
            parse(&garbled).is_err(),
            "{name}: trailing garbage was accepted"
        );
    }
}

#[test]
fn duplicating_a_scenario_key_is_rejected() {
    for (name, text) in committed_scenarios() {
        // Duplicate the root object's first member verbatim. Every
        // committed scenario is pretty-printed with one member per line,
        // so line 1 (after the opening brace) is a complete member.
        let mut lines: Vec<&str> = text.lines().collect();
        let first_member = lines[1].trim_end_matches(',').to_owned();
        let duplicated = format!("{first_member},");
        lines.insert(1, &duplicated);
        let garbled = lines.join("\n");
        assert!(
            parse(&garbled).is_err(),
            "{name}: duplicated key {first_member:?} was accepted"
        );
    }
}

#[test]
fn committed_sample_matches_what_customize_writes() {
    // `customize --sample` writes `scenarios/sample.json` under its
    // working directory; run it in a scratch directory and compare with
    // the committed copy, so the committed sample cannot drift.
    let workdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("customize_sample");
    std::fs::create_dir_all(&workdir).expect("can create the scratch directory");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_customize"))
        .arg("--sample")
        .current_dir(&workdir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("customize runs");
    assert!(status.success(), "customize --sample failed: {status}");
    let written = std::fs::read_to_string(workdir.join("scenarios/sample.json"))
        .expect("customize wrote the sample");
    let committed = std::fs::read_to_string(format!(
        "{}/../../scenarios/sample.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("scenarios/sample.json is committed");
    assert_eq!(written, committed, "regenerate with `customize --sample`");
}

#[test]
fn unknown_customize_options_are_usage_errors() {
    for args in [
        &["--shards", "2"][..],
        &["--bogus"],
        &["--sample", "--bogus"],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_customize"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("customize runs");
        assert_eq!(output.status.code(), Some(2), "customize {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage: customize <scenario.json>... | customize --sample"),
            "customize {args:?} printed {stderr:?}"
        );
        assert!(
            output.stdout.is_empty(),
            "customize {args:?} ran a scenario"
        );
    }
}
