//! Text-table rendering and summary statistics for the harness output.

/// Geometric mean of a slice of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A simple fixed-width text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align names.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a count with SI-ish suffixes matching Table 1's style
/// (`350m`, `380k`).
pub fn human(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{}m", n / 1_000_000)
    } else if n >= 10_000 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// A minimal JSON value, enough for the machine-readable bench reports.
///
/// Hand-rolled so the harness stays dependency-free (the offline build
/// cannot fetch `serde`). Only the shapes the reports need: objects keep
/// insertion order, numbers render with enough precision to round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A float (also used for integral counts).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered list of key/value pairs.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts a field (object values only; panics otherwise).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("set() on non-object"),
        }
        self
    }

    /// Looks up a field of an object (`None` for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value at a dotted key path (`benches.trace_off.speedup`):
    /// each key is looked up in the object the previous one named, so a
    /// missing key is an error naming it, never a neighbour's value.
    pub fn at(&self, path: &str) -> Result<&Json, String> {
        let missing = |key| format!("no {path} (missing key {key:?})");
        path.split('.')
            .try_fold(self, |v, key| v.get(key).ok_or_else(|| missing(key)))
    }

    /// The number at a dotted key path; an error if it is missing or not
    /// a number.
    pub fn num(&self, path: &str) -> Result<f64, String> {
        let v = self.at(path)?;
        v.as_f64()
            .ok_or_else(|| format!("{path} is {}, not a number", v.render()))
    }

    /// Reads and parses a JSON file; the error names the path.
    pub fn load(path: &str) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Renders human-diffable JSON (two-space indent, one field per line).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        let pad = |out: &mut String, d: usize| {
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
        };
        match self {
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    Json::Str(k.clone()).write(out, depth + 1, false);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, depth + 1, pretty);
                }
                if !fields.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if pretty {
                            out.push(' ');
                        }
                    }
                    v.write(out, depth, pretty);
                }
                out.push(']');
            }
        }
    }

    /// Parses the subset of JSON that [`Json::render`]/[`Json::render_pretty`]
    /// produce, which the bench gates (`gate.rs`) read. `null` is an
    /// error: the writer never emits it, and read as a number it would
    /// pass every presence gate.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let v = Json::parse_value(&bytes, &mut pos)?;
        Json::skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at char {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[char], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_whitespace() {
            *pos += 1;
        }
    }

    fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
        Json::skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end".into()),
            Some('{') => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b.get(*pos) == Some(&'}') {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    let key = match Json::parse_value(b, pos)? {
                        Json::Str(s) => s,
                        _ => return Err("object key must be a string".into()),
                    };
                    Json::skip_ws(b, pos);
                    if b.get(*pos) != Some(&':') {
                        return Err(format!("expected ':' at char {pos}"));
                    }
                    *pos += 1;
                    fields.push((key, Json::parse_value(b, pos)?));
                    Json::skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(',') => *pos += 1,
                        Some('}') => {}
                        _ => return Err(format!("expected ',' or '}}' at char {pos}")),
                    }
                }
            }
            Some('[') => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b.get(*pos) == Some(&']') {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    items.push(Json::parse_value(b, pos)?);
                    Json::skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(',') => *pos += 1,
                        Some(']') => {}
                        _ => return Err(format!("expected ',' or ']' at char {pos}")),
                    }
                }
            }
            Some('"') => {
                *pos += 1;
                let mut s = String::new();
                while let Some(&c) = b.get(*pos) {
                    *pos += 1;
                    match c {
                        '"' => return Ok(Json::Str(s)),
                        '\\' => {
                            let esc = b.get(*pos).ok_or("bad escape")?;
                            *pos += 1;
                            match esc {
                                'n' => s.push('\n'),
                                't' => s.push('\t'),
                                'u' => {
                                    let hex: String = b
                                        .get(*pos..*pos + 4)
                                        .ok_or("bad \\u escape")?
                                        .iter()
                                        .collect();
                                    *pos += 4;
                                    let n =
                                        u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(n).ok_or("bad codepoint")?);
                                }
                                c => s.push(*c),
                            }
                        }
                        c => s.push(c),
                    }
                }
                Err("unterminated string".into())
            }
            Some(c) if *c == 't' || *c == 'f' || *c == 'n' => {
                for (word, val) in [("true", Json::Bool(true)), ("false", Json::Bool(false))] {
                    let end = *pos + word.len();
                    if b.get(*pos..end).map(|s| s.iter().collect::<String>()) == Some(word.into()) {
                        *pos = end;
                        return Ok(val);
                    }
                }
                Err(format!("bad literal at char {pos}"))
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len() && "0123456789+-.eE".contains(b[*pos]) {
                    *pos += 1;
                }
                let text: String = b[start..*pos].iter().collect();
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }
}

/// Reads a `u64` harness parameter from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "x"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "10.00".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].ends_with(" 1.00"));
    }

    #[test]
    fn json_roundtrips() {
        let mut inner = Json::obj();
        inner.set("ops_per_sec", Json::Num(1234567.25));
        inner.set("speedup", Json::Num(2.0));
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("dangsan-hotpath-v1".into()));
        doc.set("quick", Json::Bool(false));
        doc.set("registerptr", inner);
        doc.set("list", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]));
        for text in [doc.render(), doc.render_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc);
        }
        assert_eq!(
            doc.get("registerptr").and_then(|b| b.get("speedup")),
            Some(&Json::Num(2.0))
        );
    }

    #[test]
    fn json_escapes_strings() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn json_integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn human_suffixes() {
        assert_eq!(human(258), "258");
        assert_eq!(human(2_200_000), "2200k");
        assert_eq!(human(40_490_000_000), "40490m");
    }
}
