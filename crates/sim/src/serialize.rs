//! Hand-rolled JSON serialization of [`SweepGrid`] results.
//!
//! The workspace's `serde` is an offline stub (no crates.io access), so the
//! writer here is self-contained: [`SweepGrid::write_json`] emits the sweep's
//! seeds and points, then one object per `(point, seed)` run with the
//! headline metrics, the per-behavior breakdown and the per-class fairness
//! quantiles, so sweep results can leave the process for plotting without
//! any external dependency.  The same row objects are the lines of
//! [`crate::Scenario::run_streamed`]'s JSONL stream.

use std::io::{self, Write};

use crate::{SimReport, SweepGrid};

/// One headline metric: its JSON key and the report extractor.
type MetricColumn = (&'static str, fn(&SimReport) -> Option<f64>);

/// The fixed scalar metrics every row carries, as `(key, extractor)`.
fn scalar_metrics() -> Vec<MetricColumn> {
    vec![
        ("completed_downloads", |r| {
            Some(r.completed_downloads() as f64)
        }),
        ("total_sessions", |r| Some(r.total_sessions() as f64)),
        ("total_rings", |r| Some(r.total_rings() as f64)),
        ("exchange_session_fraction", |r| {
            Some(r.exchange_session_fraction())
        }),
        ("preemptions", |r| Some(r.preemptions() as f64)),
        ("cheat_detections", |r| Some(r.cheat_detections() as f64)),
        ("mean_download_min_sharing", |r| {
            r.mean_download_time_min(crate::PeerClass::Sharing)
        }),
        ("mean_download_min_non_sharing", |r| {
            r.mean_download_time_min(crate::PeerClass::NonSharing)
        }),
        ("sim_seconds", |r| Some(r.sim_seconds())),
    ]
}

/// The download-time quantiles exported per capacity class (paper Figures
/// 7–8 plot the full CDF; these are its fixed sampling points).
const CLASS_QUANTILES: [(&str, f64); 3] = [("p10", 0.10), ("p50", 0.50), ("p90", 0.90)];

/// Formats a float for JSON: finite values via `{}` (shortest round-trip),
/// everything else as the JSON literal `null`.
fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes `s` as a JSON string body (without the surrounding quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes one `(point, seed, report)` result as a single JSON object —
/// exactly the shape of one element of [`SweepGrid::write_json`]'s `rows`
/// array.  This is the unit of the JSONL streaming mode
/// ([`crate::Scenario::run_streamed`]): one such object per line, emitted as
/// each run completes, so a killed sweep leaves a parsable prefix.
pub(crate) fn write_row_json<W: Write>(
    writer: &mut W,
    point: usize,
    seed: u64,
    report: &SimReport,
) -> io::Result<()> {
    let metrics = scalar_metrics();
    write!(writer, "{{\"point\":{point},\"seed\":{seed},\"metrics\":{{")?;
    for (j, (name, metric)) in metrics.iter().enumerate() {
        if j > 0 {
            write!(writer, ",")?;
        }
        let value = metric(report).map_or("null".to_string(), fmt_f64);
        write!(writer, "\"{name}\":{value}")?;
    }
    write!(writer, "}},\"behaviors\":{{")?;
    for (j, (kind, stats)) in report.behavior_breakdown().iter().enumerate() {
        if j > 0 {
            write!(writer, ",")?;
        }
        write!(
            writer,
            "\"{}\":{{\"peers\":{},\"uploaded_bytes\":{},\"downloaded_bytes\":{},\
             \"usable_bytes\":{},\"junk_bytes\":{},\"ciphertext_bytes\":{},\
             \"completed_downloads\":{},\"ciphertext_downloads\":{},\
             \"cheat_detections\":{},\"mean_download_time_min\":{}}}",
            json_escape(kind.label()),
            stats.peers,
            stats.uploaded_bytes,
            stats.downloaded_bytes,
            stats.usable_bytes(),
            stats.junk_bytes,
            stats.ciphertext_bytes,
            stats.completed_downloads,
            stats.ciphertext_downloads,
            stats.cheat_detections,
            stats
                .mean_download_time_min()
                .map_or("null".to_string(), fmt_f64),
        )?;
    }
    write!(writer, "}},\"capacity\":{{")?;
    for (j, class) in report.observed_capacity_classes().iter().enumerate() {
        if j > 0 {
            write!(writer, ",")?;
        }
        write!(writer, "\"{}\":{{", json_escape(class.label()))?;
        write!(
            writer,
            "\"mean_download_time_min\":{}",
            report
                .mean_download_time_by_capacity(*class)
                .map_or("null".to_string(), fmt_f64)
        )?;
        for (quantile, p) in CLASS_QUANTILES {
            write!(
                writer,
                ",\"download_min_{quantile}\":{}",
                report
                    .capacity_download_percentile(*class, p)
                    .map_or("null".to_string(), fmt_f64)
            )?;
        }
        write!(writer, "}}")?;
    }
    write!(writer, "}}}}")?;
    Ok(())
}

impl SweepGrid {
    /// Writes the grid as a single JSON document:
    ///
    /// ```json
    /// {
    ///   "seeds": [0, 1],
    ///   "points": [{"index": 0, "label": "...", "values": {"axis": "value"}}],
    ///   "rows": [{"point": 0, "seed": 0, "metrics": {...}, "behaviors": {...}}]
    /// }
    /// ```
    ///
    /// `metrics` carries the headline numbers (a metric a run did not
    /// report is `null`); `behaviors` nests the full per-behavior breakdown (bytes up/down, usable vs
    /// junk vs ciphertext, completions, cheat detections); `capacity` nests
    /// the per-class download-time fairness quantiles (paper Figures 7–8).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error of `writer`.
    pub fn write_json<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        write!(writer, "{{\"seeds\":[")?;
        for (i, seed) in self.seeds().iter().enumerate() {
            if i > 0 {
                write!(writer, ",")?;
            }
            write!(writer, "{seed}")?;
        }
        write!(writer, "],\"points\":[")?;
        for (i, point) in self.points().iter().enumerate() {
            if i > 0 {
                write!(writer, ",")?;
            }
            write!(
                writer,
                "{{\"index\":{},\"label\":\"{}\",\"values\":{{",
                point.index,
                json_escape(&point.label)
            )?;
            for (j, (axis, value)) in point.values.iter().enumerate() {
                if j > 0 {
                    write!(writer, ",")?;
                }
                write!(
                    writer,
                    "\"{}\":\"{}\"",
                    json_escape(axis),
                    json_escape(value)
                )?;
            }
            write!(writer, "}}}}")?;
        }
        write!(writer, "],\"rows\":[")?;
        for (i, row) in self.rows().iter().enumerate() {
            if i > 0 {
                write!(writer, ",")?;
            }
            write_row_json(writer, row.point, row.seed, &row.report)?;
        }
        write!(writer, "]}}")?;
        Ok(())
    }

    /// [`SweepGrid::write_json`] into a `String`.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut buffer = Vec::new();
        self.write_json(&mut buffer)
            .expect("writing to a Vec never fails");
        String::from_utf8(buffer).expect("JSON output is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, Scenario, SimConfig};

    fn tiny_grid() -> SweepGrid {
        let mut config = SimConfig::quick_test();
        config.num_peers = 16;
        config.sim_duration_s = 600.0;
        Scenario::from(config)
            .vary(Axis::UploadKbps(vec![60.0, 100.0]))
            .seeds(0..2)
            .run()
    }

    #[test]
    fn fairness_quantiles_export_per_observed_class() {
        use crate::{CapacityClass, ClassMix};
        let mut config = SimConfig::quick_test();
        config.num_peers = 16;
        config.sim_duration_s = 600.0;
        config.classes =
            ClassMix::weighted([(CapacityClass::Fast, 0.5), (CapacityClass::Slow, 0.5)]);
        let grid = Scenario::from(config).seeds([1]).run();
        let json = grid.to_json_string();
        assert!(json.contains("\"capacity\":{"));
        assert!(json.contains("\"fast\":{\"mean_download_time_min\":"));
        assert!(json.contains("\"slow\":{\"mean_download_time_min\":"));
        assert!(json.contains("\"download_min_p90\":"));
        assert!(
            !json.contains("\"medium\":"),
            "unobserved classes get no entry"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_is_structured_and_balanced() {
        let grid = tiny_grid();
        let json = grid.to_json_string();
        assert!(json.starts_with("{\"seeds\":[0,1]"));
        assert!(json.contains("\"points\":["));
        assert!(json.contains("\"upload_kbps\":\"60\""));
        assert!(json.contains("\"completed_downloads\":"));
        assert!(json.contains("\"behaviors\":{"));
        assert!(json.contains("\"honest\":{"));
        assert!(json.contains("\"free-rider\":{"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(grid.rows().len(), json.matches("\"seed\":").count());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_metrics_serialize_as_null_in_json() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
