//! Metrics, provenance and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Directory for span dumps and result records, inside the benchmark's package.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints for `value`.
fn json_num(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite");
    format!("{value}")
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

pub struct Provenance<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: &'a str,
    /// The workload's generated parameters, as a JSON object.
    pub generated: String,
}

impl Provenance<'_> {
    pub fn json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"commit\":{},\"rustc\":{},\"nproc\":{nproc},\"clients\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"generated\":{},\"note\":{}}}",
            json_str(env!("PERFBENCH_GIT_COMMIT")),
            json_str(env!("PERFBENCH_RUSTC_VERSION")),
            crate::drive::CLIENTS,
            json_str(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            json_str(self.scale),
            self.generated,
            json_str("a performance claim must also hold on a seed not used while the change was written"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[metric("latency_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
