//! Small helpers: statistics, process memory, host description, and a
//! minimal JSON writer (the build is offline, so no serde).

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even lengths); 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reset this process's peak resident set size (`VmHWM`) to its
/// current resident size, so the next [`peak_rss_mib`] covers only what
/// runs in between. A kernel without the reset leaves the peak as is.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "{}: ", quote(k));
    }

    /// Add a number field (non-finite values are written as 0).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.body, "{v:?}");
        self
    }

    /// Add an integer field.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(&quote(v));
        self
    }

    /// Add a field holding already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    /// Render as `{...}`.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Quote a string as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// Named metrics with units, rendered as
/// `{"name": {"value": v, "unit": "u"}, ...}`.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Render as a JSON object.
    pub fn render(&self) -> String {
        let mut o = JsonObj::default();
        for (name, value, unit) in &self.entries {
            let mut m = JsonObj::default();
            m.num("value", *value).str("unit", unit);
            o.raw(name, &m.render());
        }
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn json_rendering() {
        let mut o = JsonObj::default();
        o.num("a", 1.5).int("b", 2).bool("c", true).str("d", "x\"y");
        assert_eq!(o.render(), r#"{"a": 1.5, "b": 2, "c": true, "d": "x\"y"}"#);
        let mut m = Metrics::default();
        m.put("t", 0.25, "s");
        assert_eq!(m.render(), r#"{"t": {"value": 0.25, "unit": "s"}}"#);
    }
}
