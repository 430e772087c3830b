//! The result line: one JSON object, written by a child run and read
//! back by the parent that compares runs. Hand-rolled because the
//! container has no serde and the shape is fixed.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// One run's outcome, as printed on the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Metric names start with a letter or digit and hold at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units hold at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Renders the result line. Values are written with every digit `f64`
/// needs to round-trip.
///
/// # Errors
///
/// Rejects a name or unit outside the allowed alphabet, a duplicate
/// name, and a value that is not finite — each is a bug in the
/// benchmark that must not reach whoever parses the line.
pub fn write_result(result: &RunResult) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("metric name {:?} is not allowed", m.name));
        }
        if !valid_unit(&m.unit) {
            return Err(format!("unit {:?} of {} is not allowed", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        if result.metrics[..i].iter().any(|p| p.name == m.name) {
            return Err(format!("metric {} is reported twice", m.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

/// Reads a result line back. Accepts exactly the shape
/// [`write_result`] produces (whitespace aside).
///
/// # Errors
///
/// Returns what was expected and where on anything else.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let mut p = Parser {
        src: line.as_bytes(),
        at: 0,
    };
    let mut result = RunResult {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    p.object(|p, key| {
        match key {
            "correct" => result.correct = p.boolean()?,
            "attempted" => result.attempted = p.number()? as u64,
            "failed" => result.failed = p.number()? as u64,
            "metrics" => p.object(|p, name| {
                let mut metric = Metric::new(name, f64::NAN, "");
                p.object(|p, field| {
                    match field {
                        "value" => metric.value = p.number()?,
                        "unit" => metric.unit = p.string()?,
                        other => return Err(format!("unknown metric field {other:?}")),
                    }
                    Ok(())
                })?;
                result.metrics.push(metric);
                Ok(())
            })?,
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    })?;
    p.skip_ws();
    if p.at != p.src.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(result)
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn peek_is(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.src.get(self.at) == Some(&byte)
    }

    /// Names, units and keys never need escapes; one in the input means
    /// the line did not come from [`write_result`].
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while let Some(&b) = self.src.get(self.at) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.src[start..self.at])
                        .map_err(|e| e.to_string())?;
                    self.at += 1;
                    return Ok(s.to_owned());
                }
                b'\\' => return Err(format!("escape in string at byte {}", self.at)),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".to_owned())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .src
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.src[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (text, value) in [("true", true), ("false", false)] {
            if self.src[self.at..].starts_with(text.as_bytes()) {
                self.at += text.len();
                return Ok(value);
            }
        }
        Err(format!("expected true or false at byte {}", self.at))
    }

    /// Parses `{ "key": <member>, ... }`, handing each key to `member`,
    /// which must consume the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek_is(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, &key)?;
            if self.peek_is(b',') {
                self.at += 1;
            } else {
                return self.expect(b'}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 187_204,
            failed: 0,
            metrics: vec![
                Metric::new("overhead_x", 2.7512345678901234, "ratio"),
                Metric::new("dlmonitor.callpath_for_gpu_p99_ns", 1834.0, "ns"),
                Metric::new("setup_s", 0.081_234_5, "s"),
            ],
        }
    }

    #[test]
    fn names_are_restricted_to_the_contract_alphabet() {
        for good in ["overhead_x", "bench.trace_overhead_x", "p99-ns", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a\"b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("KiB"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_round_trips_with_every_digit() {
        let line = write_result(&sample()).unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(parse_result(&line).unwrap(), sample());
        assert_eq!(sample().value("setup_s"), Some(0.081_234_5));
    }

    #[test]
    fn writer_rejects_what_a_reader_could_not_trust() {
        let mut r = sample();
        r.metrics[0].name = "over head".into();
        assert!(write_result(&r).is_err());
        let mut r = sample();
        r.metrics[1].value = f64::NAN;
        assert!(write_result(&r).is_err());
        let mut r = sample();
        r.metrics[2].name = "overhead_x".into();
        assert!(write_result(&r).unwrap_err().contains("twice"));
        let mut r = sample();
        r.metrics[2].unit = "seconds per run".into();
        assert!(write_result(&r).is_err());
    }

    #[test]
    fn parser_reports_malformed_lines() {
        assert!(parse_result("").is_err());
        assert!(parse_result("{\"correct\": maybe}").is_err());
        assert!(parse_result("{\"correct\": true} x").is_err());
        assert!(parse_result("{\"surprise\": 1}").is_err());
        let empty =
            parse_result("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}");
        assert_eq!(empty.unwrap().metrics, vec![]);
    }
}
