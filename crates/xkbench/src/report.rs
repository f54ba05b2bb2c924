//! Output: the `name workload value unit n=<samples>` lines, the saved
//! run file, the driver's one-line JSON result, and the A/A comparison
//! rule shared by `xkbench aa` and `xkbench compare`.

use crate::json::{self, num, obj, str, Value};
use std::fmt::Write as _;

/// Workload column of a metric that does not depend on the workload.
pub const ANY_WORKLOAD: &str = "-";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub workload: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
}

impl Row {
    /// `name workload value unit n=<samples>`.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} {} n={}",
            self.name, self.workload, self.value, self.unit, self.n
        )
    }

    /// Inverse of [`Row::line`]; `None` for any other line.
    pub fn parse_line(line: &str) -> Option<Row> {
        let mut parts = line.split_whitespace();
        let row = Row {
            name: parts.next()?.to_string(),
            workload: parts.next()?.to_string(),
            value: parts.next()?.parse().ok()?,
            unit: parts.next()?.to_string(),
            n: parts.next()?.strip_prefix("n=")?.parse().ok()?,
        };
        parts.next().is_none().then_some(row)
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("name", str(&self.name)),
            ("workload", str(&self.workload)),
            ("value", num(self.value)),
            ("unit", str(&self.unit)),
            ("n", num(self.n as f64)),
        ])
    }

    fn from_json(v: &Value) -> Option<Row> {
        Some(Row {
            name: v.get("name")?.as_str()?.to_string(),
            workload: v.get("workload")?.as_str()?.to_string(),
            value: v.get("value")?.as_f64()?,
            unit: v.get("unit")?.as_str()?.to_string(),
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

/// Everything needed to know whether two runs may be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHeader {
    pub scale: String,
    pub git_rev: String,
    pub nproc: usize,
    pub seed: u64,
    pub clients: usize,
    pub workers: usize,
    pub warmup_s: f64,
    pub window_s: f64,
    pub sub_windows: usize,
    pub setups: usize,
}

pub fn run_file(header: &RunHeader, rows: &[Row]) -> String {
    obj([
        ("schema", str("xkbench/v1")),
        ("scale", str(&header.scale)),
        ("git_rev", str(&header.git_rev)),
        ("nproc", num(header.nproc as f64)),
        ("seed", num(header.seed as f64)),
        ("clients", num(header.clients as f64)),
        ("workers", num(header.workers as f64)),
        ("warmup_s", num(header.warmup_s)),
        ("window_s", num(header.window_s)),
        ("sub_windows", num(header.sub_windows as f64)),
        ("setups", num(header.setups as f64)),
        (
            "metrics",
            Value::Arr(rows.iter().map(Row::to_json).collect()),
        ),
    ])
    .render()
}

/// Rows of a saved run plus the fields two runs must share to be comparable.
pub fn parse_run_file(text: &str) -> Result<(String, Vec<Row>), String> {
    let doc = json::parse(text)?;
    let field = |k: &str| {
        doc.get(k)
            .map(Value::render)
            .ok_or(format!("run file has no {k:?}"))
    };
    // Scale and window decide what the numbers mean; a quick run must
    // never be held against a full one.
    let comparable = format!(
        "scale={} window_s={} clients={}",
        field("scale")?,
        field("window_s")?,
        field("clients")?
    );
    let rows = doc
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("run file has no metrics array")?
        .iter()
        .map(|v| Row::from_json(v).ok_or_else(|| format!("bad metric row {}", v.render())))
        .collect::<Result<_, _>>()?;
    Ok((comparable, rows))
}

/// `end_to_end` bounds of BENCHMARK.json by metric name.
pub fn gated_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    json::parse(benchmark_json)?
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The A/A rule: per metric × workload the relative difference of two
/// runs of the same code, held against the metric's bound. A gated pair
/// wider than its bound is `unresolved` — the benchmark cannot tell a
/// regression of that size from noise. Returns the table and whether any
/// gated pair was unresolved.
pub fn compare(a: &[Row], b: &[Row], bounds: &[(String, f64)]) -> (String, bool) {
    let mut table = String::new();
    let mut any_unresolved = false;
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.name == ra.name && r.workload == ra.workload)
        else {
            writeln!(table, "{} {} missing-in-second-run", ra.name, ra.workload)
                .expect("write to String");
            any_unresolved = true;
            continue;
        };
        let diff = if ra.value == rb.value {
            0.0
        } else {
            (rb.value - ra.value).abs() / ra.value.abs().min(rb.value.abs())
        };
        let bound = bounds.iter().find(|(n, _)| *n == ra.name).map(|(_, b)| *b);
        let verdict = match bound {
            None => "ungated",
            Some(bound) if diff <= bound => "ok",
            Some(_) => {
                any_unresolved = true;
                "unresolved"
            }
        };
        writeln!(
            table,
            "{} {} a={} b={} diff={:.4} bound={} {verdict}",
            ra.name,
            ra.workload,
            ra.value,
            rb.value,
            diff,
            bound.map_or("-".to_string(), |b| b.to_string()),
        )
        .expect("write to String");
    }
    (table, any_unresolved)
}

/// The single line the benchmark driver reads.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics = rows
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                obj([("value", num(r.value)), ("unit", str(&r.unit))]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, workload: &str, value: f64) -> Row {
        Row {
            name: name.into(),
            workload: workload.into(),
            value,
            unit: "us".into(),
            n: 7,
        }
    }

    #[test]
    fn line_round_trips() {
        let r = row("query_p50_us", "skewed_probe", 4107.25);
        assert_eq!(r.line(), "query_p50_us skewed_probe 4107.25 us n=7");
        assert_eq!(Row::parse_line(&r.line()), Some(r));
        assert_eq!(Row::parse_line("building the program ..."), None);
    }

    #[test]
    fn run_file_round_trips_and_labels_scale() {
        let header = RunHeader {
            scale: "quick".into(),
            git_rev: "abc".into(),
            nproc: 2,
            seed: 1,
            clients: 2,
            workers: 2,
            warmup_s: 1.0,
            window_s: 2.0,
            sub_windows: 5,
            setups: 1,
        };
        let rows = vec![row("a", "w", 1.5), row("b", ANY_WORKLOAD, 2.0)];
        let (comparable, parsed) = parse_run_file(&run_file(&header, &rows)).unwrap();
        assert_eq!(parsed, rows);
        assert!(
            comparable.contains("quick") && comparable.contains("window_s=2"),
            "{comparable}"
        );
    }

    #[test]
    fn compare_marks_pairs_wider_than_their_bound() {
        let bounds = vec![("p50".to_string(), 0.10)];
        let a = [
            row("p50", "w1", 100.0),
            row("p50", "w2", 100.0),
            row("layer.x", "w1", 1.0),
        ];
        let b = [
            row("p50", "w1", 108.0),
            row("p50", "w2", 80.0),
            row("layer.x", "w1", 9.0),
        ];
        let (table, unresolved) = compare(&a, &b, &bounds);
        assert!(unresolved);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].ends_with(" ok"), "{table}");
        assert!(lines[1].ends_with(" unresolved"), "{table}");
        assert!(lines[2].ends_with(" ungated"), "{table}");
        assert!(!compare(&a[..1], &b[..1], &bounds).1);
    }

    #[test]
    fn driver_line_shape() {
        let line = driver_line(true, 10, 0, &[row("query_p50_us", "w", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"query_p50_us":{"value":1.25,"unit":"us"}}}"#
        );
    }
}
