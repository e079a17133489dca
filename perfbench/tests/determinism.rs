//! The benchmark's simulated metrics are exact: bit-identical at one and
//! two worker threads and between two runs of one seed, while a held-out
//! seed gives different inputs under the same metric names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

/// A seed used nowhere else in the benchmark's tuning.
const HELD_OUT_SEED: u64 = 987_654_321;

struct Run {
    /// Every simulated value, by name, as its JSON text.
    exact: BTreeMap<String, String>,
    digest: String,
    metric_names: Vec<String>,
}

/// Run one workload as a child process and wait for it.
fn run(workload: &str, seed: u64, threads: usize) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .env("SWDNN_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} threads {threads} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines[lines.len() - 1];
    let detail = lines[lines.len() - 2];
    assert!(result.contains("\"correct\":true"), "{result}");
    assert_eq!(field(detail, "\"threads\":"), threads.to_string());
    Run {
        exact: object_fields(field(detail, "\"exact\":")),
        digest: field(detail, "\"digest\":").to_string(),
        metric_names: object_fields(field(result, "\"metrics\":"))
            .into_keys()
            .collect(),
    }
}

/// The JSON value that follows `key` in `line` (an object or a scalar).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
    let rest = &line[start..];
    if rest.starts_with('{') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return &rest[..=i];
                    }
                }
                _ => {}
            }
        }
        panic!("unbalanced object after {key}");
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    &rest[..end]
}

/// Top-level `"name": value` pairs of a JSON object, values as text.
fn object_fields(obj: &str) -> BTreeMap<String, String> {
    let body = &obj[1..obj.len() - 1];
    let mut out = BTreeMap::new();
    let (mut depth, mut start) = (0, 0);
    let mut push = |part: &str| {
        if let Some((k, v)) = part.split_once(':') {
            out.insert(k.trim_matches('"').to_string(), v.to_string());
        }
    };
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    push(&body[start..]);
    out
}

fn check(workload: &str) {
    let one = run(workload, 7, 1);
    let two = run(workload, 7, 2);
    let again = run(workload, 7, 2);
    assert!(!one.exact.is_empty());
    assert_eq!(one.exact, two.exact, "{workload}: 1 vs 2 threads");
    assert_eq!(one.digest, two.digest, "{workload}: 1 vs 2 threads");
    assert_eq!(two.exact, again.exact, "{workload}: two runs of one seed");
    assert_eq!(two.digest, again.digest, "{workload}: two runs of one seed");

    let held_out = run(workload, HELD_OUT_SEED, 2);
    assert_eq!(held_out.metric_names, two.metric_names, "{workload}");
    assert_eq!(
        held_out.exact.keys().collect::<Vec<_>>(),
        two.exact.keys().collect::<Vec<_>>(),
        "{workload}: same simulated metric names"
    );
    assert_ne!(held_out.digest, two.digest, "{workload}: held-out inputs");
    assert_ne!(
        held_out.exact["sim_ms_per_sample"], two.exact["sim_ms_per_sample"],
        "{workload}: held-out seed must change the simulated work"
    );
}

#[test]
fn conv_fwd_is_exact() {
    check("conv_fwd");
}

#[test]
fn train_dp_is_exact() {
    check("train_dp");
}

#[test]
fn serve_open_is_exact() {
    check("serve_open");
}
