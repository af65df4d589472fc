//! The one writer behind every `BENCH_*.json` report. Objects and
//! [`Json::lines`] arrays put one entry per line; rows and [`Json::arr`]
//! arrays are rendered onto one line when they are built, as are numbers,
//! so each field carries its own float precision.

/// A JSON value.
pub enum Json {
    /// An object written one field per line.
    Obj(Vec<(String, Json)>),
    /// An array written one element per line.
    Lines(Vec<Json>),
    /// A value written on one line, already rendered.
    Lit(String),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn lines(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Lines(items.into_iter().collect())
    }

    /// An object written on one line: one row of a table.
    pub fn row<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let fields: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v.text(0)))
            .collect();
        Json::Lit(format!("{{{}}}", fields.join(", ")))
    }

    /// An array written on one line.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        let items: Vec<String> = items.into_iter().map(|v| v.text(0)).collect();
        Json::Lit(format!("[{}]", items.join(", ")))
    }

    /// `v` with `prec` digits after the decimal point.
    pub fn float(v: f64, prec: usize) -> Json {
        Json::Lit(format!("{v:.prec$}"))
    }

    /// The whole document, newline-terminated.
    pub fn render(&self) -> String {
        self.text(0) + "\n"
    }

    /// This value as written at nesting level `depth`.
    fn text(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let block = |open: char, items: Vec<String>, close: char| {
            let items = items.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{items}\n{}{close}", "  ".repeat(depth))
        };
        match self {
            Json::Obj(f) => {
                let fields = f
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.text(depth + 1)));
                block('{', fields.collect(), '}')
            }
            Json::Lines(items) => {
                block('[', items.iter().map(|v| v.text(depth + 1)).collect(), ']')
            }
            Json::Lit(s) => s.clone(),
        }
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Lit(quote(s))
    }
}

macro_rules! literal {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Lit(v.to_string())
            }
        }
    )*};
}
literal!(u64, i64, usize, bool);

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn layout_follows_shape() {
        let row = Json::row([("n", 1u64.into()), ("ok", true.into())]);
        let doc = Json::obj([
            ("name", "a\"b".into()),
            ("nested", Json::obj([("x", Json::float(0.5, 2))])),
            ("rows", Json::lines([row])),
            ("list", Json::arr([(-3i64).into(), 4usize.into()])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"name\": \"a\\\"b\",\n  \"nested\": {\n    \"x\": 0.50\n  },\n  \
             \"rows\": [\n    {\"n\": 1, \"ok\": true}\n  ],\n  \"list\": [-3, 4]\n}\n"
        );
    }
}
