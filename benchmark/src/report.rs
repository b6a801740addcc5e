//! What a run reports: the declared workloads and metrics (mirrored in
//! `BENCHMARK.json`), the one-line JSON result, and `--compare` over two
//! sets of recorded runs.

use crate::stats::{judge, Better, Summary};
use sdo_harness::proto::{parse_json, Json};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["sim-busy", "sim-stall", "serve", "verify"];

/// End-to-end metrics `(name, unit)`, reported by untraced runs of
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs of every
/// workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("harness.engine.pool_util", "frac"),
    ("harness.engine.tail_ms", "ms"),
    ("harness.sim.run_ms_p50", "ms"),
    ("harness.sim.run_ms_max", "ms"),
    ("mem.setup_ms", "ms"),
    ("uarch.core_new_us", "us"),
    ("uarch.ns_per_stepped_cycle", "ns"),
    ("uarch.ns_per_fetched", "ns"),
    ("uarch.ns_per_committed", "ns"),
    ("uarch.skip_ratio", "frac"),
    ("uarch.fetched_per_committed", "ratio"),
    ("mem.accesses_per_kcycle", "count"),
    ("mem.l1_miss_ratio", "frac"),
    ("mem.dram_per_kcycle", "count"),
    ("obs.events_per_capture", "count"),
    ("harness.proto.request_bytes_p50", "bytes"),
    ("harness.proto.request_bytes_max", "bytes"),
    ("harness.proto.request_render_ms", "ms"),
    ("harness.proto.request_parse_ms", "ms"),
    ("isa.parse_asm_ms", "ms"),
    ("harness.store.runkey_ms", "ms"),
    ("harness.store.load_ms", "ms"),
    ("harness.store.save_ms", "ms"),
    ("harness.store.manifest_ms", "ms"),
    ("harness.proto.reply_render_ms", "ms"),
    ("harness.proto.reply_parse_ms", "ms"),
    ("serve.handle_batch_hit_ms", "ms"),
    ("serve.handle_batch_miss_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("verify.capture_ms", "ms"),
    ("verify.oracle_ms", "ms"),
    ("verify.minimize_s", "s"),
    ("rv32.translate_us_per_inst", "us"),
    ("analyze.scan_us_per_inst", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.child_cover_frac", "frac"),
];

/// Figures an untraced `serve` run records in `--out` beside the
/// declared metrics, which `--compare` judges too (lower is better,
/// under the `work_per_s` bound): hit and miss latency medians and
/// tails over the same number of requests in every run. The tail is the
/// highest percentile with at least ten latencies beyond it; the record
/// also holds it (`*_tail_pct`) and the request counts (`*_n`).
pub const EXTRA: &[&str] = &["hit_p50_ms", "hit_tail_ms", "miss_p50_ms", "miss_tail_ms"];

/// The outcome of one run: correctness, operation counts and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures for `--out` only (see [`EXTRA`]).
    pub extra: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// The result line: every `declared` metric exactly once, with its
    /// unit, and nothing else.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, undeclared, repeated or not a
    /// finite number.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        for (name, value) in &self.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric '{name}' is not declared"));
            }
            if !value.is_finite() {
                return Err(format!("metric '{name}' is {value}"));
            }
        }
        let mut fields = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let mut found = self.metrics.iter().filter(|(n, _)| n == name);
            let (Some((_, value)), None) = (found.next(), found.next()) else {
                return Err(format!("metric '{name}' is missing or repeated"));
            };
            fields.push(format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#));
        }
        Ok(format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }
}

/// Parses JSON that may hold fractional or negative numbers.
/// [`parse_json`] carries exact unsigned counters only, so every other
/// number token is quoted first and comes back as a string; read it
/// with [`number`].
///
/// # Errors
///
/// Returns the parser's message for malformed input.
pub fn parse_json_with_floats(text: &str) -> Result<Json, String> {
    let mut out = String::with_capacity(text.len() + 16);
    let mut chars = text.chars().peekable();
    let (mut in_string, mut escaped) = (false, false);
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if c == '-' || c.is_ascii_digit() {
            let mut token = c.to_string();
            while let Some(&n) = chars.peek() {
                if !(n.is_ascii_digit() || matches!(n, '.' | 'e' | 'E' | '+' | '-')) {
                    break;
                }
                token.push(n);
                chars.next();
            }
            if token.contains(['.', 'e', 'E', '-']) {
                out.push('"');
                out.push_str(&token);
                out.push('"');
            } else {
                out.push_str(&token);
            }
        } else {
            out.push(c);
        }
    }
    parse_json(&out)
}

/// A number from [`parse_json_with_floats`] output.
#[must_use]
pub fn number(v: &Json) -> Option<f64> {
    match v {
        Json::UInt(n) => Some(*n as f64),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// One end-to-end metric's declaration as read from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// `BENCHMARK.json`'s declarations: workload names, end-to-end metrics
/// and per-layer `(name, unit)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<(String, String)>,
}

/// Reads `BENCHMARK.json`'s text.
///
/// # Errors
///
/// Describes the first malformed or missing field.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let v = parse_json_with_floats(text)?;
    let workloads = v
        .arr_field("workloads")?
        .iter()
        .map(|w| w.str_field("name").map(str::to_string))
        .collect::<Result<_, _>>()?;
    let end_to_end = v
        .arr_field("end_to_end")?
        .iter()
        .map(|m| {
            let better = match m.str_field("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("unknown direction '{other}'")),
            };
            Ok(Declared {
                name: m.str_field("name")?.to_string(),
                unit: m.str_field("unit")?.to_string(),
                better,
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("missing numeric 'bound'")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = v
        .arr_field("per_layer")?
        .iter()
        .map(|m| {
            Ok((
                m.str_field("name")?.to_string(),
                m.str_field("unit")?.to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Manifest {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// One recorded run as `--out` appends it: workload, seed and the
/// result line's metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Failed operations.
    pub failed: u64,
}

/// The `--out` line for one run: the workload, seed and `extra` figures
/// wrapped around the result line.
#[must_use]
pub fn record_line(
    workload: &str,
    seed: u64,
    traced: bool,
    result_line: &str,
    extra: &[(&str, f64)],
) -> String {
    let extra: Vec<String> = extra
        .iter()
        .map(|(name, value)| format!(r#""{name}":{value:?}"#))
        .collect();
    format!(
        r#"{{"workload":"{workload}","seed":{seed},"trace":{traced},"result":{result_line},"extra":{{{}}}}}"#,
        extra.join(",")
    )
}

/// Parses a file of `--out` lines, keeping untraced runs only.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let parse = || -> Result<Option<Record>, String> {
            let v = parse_json_with_floats(line)?;
            if v.bool_field("trace")? {
                return Ok(None);
            }
            let result = v.obj_field("result")?;
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err("result has no metrics object".to_string());
            };
            let mut metrics = metrics
                .iter()
                .map(|(k, m)| {
                    let value = m
                        .get("value")
                        .and_then(number)
                        .ok_or("metric without value")?;
                    Ok((k.clone(), value))
                })
                .collect::<Result<Vec<_>, String>>()?;
            if let Some(Json::Obj(extra)) = v.get("extra") {
                for (k, x) in extra {
                    metrics.push((k.clone(), number(x).ok_or("extra figure without value")?));
                }
            }
            Ok(Some(Record {
                workload: v.str_field("workload")?.to_string(),
                metrics,
                failed: result.u64_field("failed")?,
            }))
        };
        if let Some(r) = parse().map_err(|e| format!("line {}: {e}", i + 1))? {
            out.push(r);
        }
    }
    Ok(out)
}

/// One row of `--compare`: a (workload, metric) pair judged between a
/// base set and a candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base set summary.
    pub base: Summary,
    /// Candidate set summary.
    pub cand: Summary,
    /// Signed worsening of the candidate median (positive = worse).
    pub worsening: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: crate::stats::Verdict,
}

/// Compares two record sets metric by metric, one row per (workload,
/// declared end-to-end metric) present in both sets, in declaration
/// order, then one per (workload, [`EXTRA`] figure) present in both,
/// judged as lower-is-better under the `work_per_s` bound.
#[must_use]
pub fn compare(manifest: &Manifest, base: &[Record], cand: &[Record]) -> Vec<Row> {
    let values = |set: &[Record], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m).map(|(_, v)| *v))
            .collect()
    };
    let throughput_bound = manifest
        .end_to_end
        .iter()
        .find(|d| d.name == "work_per_s")
        .map(|d| d.bound);
    let extra = EXTRA.iter().filter_map(|&name| {
        Some(Declared {
            name: name.to_string(),
            unit: "ms".to_string(),
            better: Better::Lower,
            bound: throughput_bound?,
        })
    });
    let judged: Vec<Declared> = manifest.end_to_end.iter().cloned().chain(extra).collect();
    let mut rows = Vec::new();
    for w in &manifest.workloads {
        for d in &judged {
            let (b, c) = (values(base, w, &d.name), values(cand, w, &d.name));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let (bs, cs) = (Summary::of(&b), Summary::of(&c));
            rows.push(Row {
                workload: w.clone(),
                metric: d.name.clone(),
                base: bs,
                cand: cs,
                worsening: crate::stats::worsening(&bs, &cs, d.better),
                bound: d.bound,
                verdict: judge(&b, &c, d.better, d.bound),
            });
        }
    }
    rows
}

/// Renders `--compare` rows as a fixed-width table.
#[must_use]
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<12} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict\n",
        "workload", "metric", "base_median", "cand_median", "worse_%", "spread%", "bound%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<12} {:>14.6} {:>14.6} {:>9.2} {:>8.2} {:>8.1}  {}\n",
            r.workload,
            r.metric,
            r.base.median,
            r.cand.median,
            100.0 * r.worsening,
            100.0 * r.base.spread().max(r.cand.spread()),
            100.0 * r.bound,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Verdict;

    fn manifest() -> Manifest {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        parse_manifest(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
        let m = manifest();
        assert_eq!(m.workloads, WORKLOADS);
        let e2e: Vec<(&str, &str)> = m
            .end_to_end
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str)> = m
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        // The widest bound allowed is 0.25, and set-up time has the
        // widest, so work moved into set-up shows before it is hidden.
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        for d in &m.end_to_end {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25 && d.bound <= setup.bound,
                "{}: bound {}",
                d.name,
                d.bound
            );
        }
    }

    fn report(metrics: Vec<(&'static str, f64)>) -> RunReport {
        RunReport {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
            extra: Vec::new(),
        }
    }

    #[test]
    fn render_refuses_undeclared_missing_and_repeated_metrics() {
        let declared = [("a_s", "s"), ("b_per_s", "1/s")];
        let line = report(vec![("b_per_s", 2.5), ("a_s", 0.125)])
            .render(&declared)
            .unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a_s":{"value":0.125,"unit":"s"},"b_per_s":{"value":2.5,"unit":"1/s"}}}"#
        );
        assert!(report(vec![("a_s", 1.0)]).render(&declared).is_err());
        assert!(report(vec![("a_s", 1.0), ("b_per_s", 1.0), ("c", 1.0)])
            .render(&declared)
            .is_err());
        assert!(report(vec![("a_s", 1.0), ("a_s", 1.0), ("b_per_s", 1.0)])
            .render(&declared)
            .is_err());
        assert!(report(vec![("a_s", f64::NAN), ("b_per_s", 1.0)])
            .render(&declared)
            .is_err());
    }

    #[test]
    fn records_round_trip_and_compare_by_bound() {
        let declared = [
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("work_per_s", "1/s"),
        ];
        let line = |setup: f64, rate: f64| {
            let r = report(vec![
                ("setup_s", setup),
                ("peak_rss_mb", 50.0),
                ("work_per_s", rate),
            ]);
            let extra = [("hit_n", 300.0), ("hit_tail_ms", 1e3 / rate)];
            record_line("serve", 1, false, &r.render(&declared).unwrap(), &extra)
        };
        let base: String = (0..5)
            .map(|i| line(0.5, 100.0 + f64::from(i)) + "\n")
            .collect();
        let cand: String = (0..5)
            .map(|i| line(0.5, 60.0 + f64::from(i)) + "\n")
            .collect();
        let traced = record_line(
            "serve",
            1,
            true,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#,
            &[],
        );
        let base = parse_records(&(base + &traced)).unwrap();
        assert_eq!(base.len(), 5, "traced runs are skipped");
        assert_eq!(base[0].metrics[0], ("setup_s".to_string(), 0.5));
        let cand = parse_records(&cand).unwrap();
        let rows = compare(&manifest(), &base, &cand);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("setup_s"), Verdict::Within);
        assert_eq!(verdict("work_per_s"), Verdict::Worse);
        // The tail latency rose with the lower rate; the count is only
        // recorded, not judged.
        assert_eq!(verdict("hit_tail_ms"), Verdict::Worse);
        assert!(rows.iter().all(|r| r.metric != "hit_n"));
        assert!(render_rows(&rows).contains("worse"));
    }

    #[test]
    fn float_tokens_survive_the_integer_parser() {
        let v = parse_json_with_floats(r#"{"a":0.25,"b":[1e-3,-2,7],"s":"x-1.5\"y"}"#).unwrap();
        assert_eq!(v.get("a").and_then(number), Some(0.25));
        assert_eq!(v.str_field("s"), Ok("x-1.5\"y"));
        let Some(Json::Arr(b)) = v.get("b") else {
            panic!("array")
        };
        let b: Vec<f64> = b.iter().filter_map(number).collect();
        assert_eq!(b, vec![1e-3, -2.0, 7.0]);
    }
}
