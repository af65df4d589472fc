//! The result line the benchmark prints last.

use crate::run::Outcome;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One JSON object: `correct`, `attempted`, `failed` and `metrics`. A run
/// that failed a check reports no numbers.
pub fn result_line(o: &Outcome) -> String {
    let correct = o.correct() && o.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = if correct {
        o.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    m.value,
                    escape(m.unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    #[test]
    fn prints_numbers_only_when_correct() {
        let mut o = Outcome {
            attempted: 64,
            metrics: vec![Metric {
                name: "burst_p50_us".into(),
                value: 12.5,
                unit: "us",
            }],
            ..Outcome::default()
        };
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 64, \"failed\": 0, \
             \"metrics\": {\"burst_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        o.failures.push("ledger".into());
        assert_eq!(
            result_line(&o),
            "{\"correct\": false, \"attempted\": 64, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn escapes_quotes() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
