//! Experiment output: aligned text tables and a minimal JSON emitter.
//!
//! Every figure/table harness in `xc-bench` renders its results through
//! [`Table`], so all experiment output shares one format, and dumps a
//! machine-readable mirror via [`json_object`]/[`json_array`] without pulling
//! a serialization dependency into the simulation core.

use std::fmt;
use std::fmt::Write as _;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Left-aligned text.
    Text(String),
    /// Right-aligned number rendered with the given number of decimals.
    Num(f64, usize),
    /// Empty cell.
    Blank,
}

impl Cell {
    /// Appends the cell's text form to `out` — no per-cell `String`;
    /// callers thread one reused buffer through every cell.
    fn render_into(&self, out: &mut String) {
        match self {
            Cell::Text(s) => out.push_str(s),
            Cell::Num(v, dp) => {
                let _ = write!(out, "{v:.*}", dp);
            }
            Cell::Blank => {}
        }
    }

    fn is_numeric(&self) -> bool {
        matches!(self, Cell::Num(..))
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v, 2)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Num(v as f64, 0)
    }
}

/// An aligned text table with a title, column headers, and rows.
///
/// # Example
///
/// ```
/// use xc_sim::report::Table;
///
/// let mut t = Table::new("Demo", &["config", "throughput"]);
/// t.row(["Docker".into(), 1.00.into()]);
/// t.row(["X-Container".into(), 1.86.into()]);
/// let text = t.to_text();
/// assert!(text.contains("X-Container"));
/// assert!(text.contains("1.86"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Rows shorter than the header are padded with blanks;
    /// longer rows are permitted and extend the layout.
    pub fn row<I>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = Cell>,
    {
        self.rows.push(cells.into_iter().collect());
        self
    }

    /// Appends a visual separator row.
    pub fn separator(&mut self) -> &mut Self {
        self.rows.push(Vec::new());
        self
    }

    /// Number of data rows (separators included).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form into a fresh `String`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the aligned text form to `out`.
    ///
    /// Allocation-free per cell: a single scratch buffer is reused for
    /// every cell (once in the width pass, once in the emit pass —
    /// re-rendering a cell is cheaper than keeping `rows × columns`
    /// heap strings alive), and lines are assembled directly in `out`.
    /// Byte-identical to the previous per-cell-`String` renderer, which
    /// the `render_into_matches_string_per_cell_reference` test pins.
    pub fn render_into(&self, out: &mut String) {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);

        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        let mut scratch = String::new();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                scratch.clear();
                cell.render_into(&mut scratch);
                widths[i] = widths[i].max(scratch.chars().count());
            }
        }

        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "== {} ==", self.title);
        // The header line's byte length (≥ `total` via padding) sets the
        // rule width; measure it as written instead of buffering it.
        let header_start = out.len();
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{:<w$}", h, w = widths[i]);
        }
        let rule = total.max(out.len() - header_start);
        out.push('\n');
        push_dashes(out, rule);

        for row in &self.rows {
            if row.is_empty() {
                push_dashes(out, rule);
                continue;
            }
            let line_start = out.len();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                scratch.clear();
                cell.render_into(&mut scratch);
                if cell.is_numeric() {
                    let _ = write!(out, "{:>w$}", scratch, w = widths[i]);
                } else {
                    let _ = write!(out, "{:<w$}", scratch, w = widths[i]);
                }
            }
            let trimmed = out[line_start..].trim_end().len();
            out.truncate(line_start + trimmed);
            out.push('\n');
        }
    }
}

/// Appends `n` dashes and a newline (the table rule) without the
/// intermediate `String` of `"-".repeat(n)`.
fn push_dashes(out: &mut String, n: usize) {
    out.reserve(n + 1);
    for _ in 0..n {
        out.push('-');
    }
    out.push('\n');
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A JSON value for the minimal emitter.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// Finite number (non-finite values are emitted as `null`).
    Num(f64),
    /// String (escaped on emission).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved for reproducible output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes to compact JSON text.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Parses one JSON value from `text` (the whole string must be the
    /// value, modulo surrounding whitespace). The inverse of
    /// [`write_into`](Self::write_into): everything the emitter produces
    /// parses back, including `f64` round-trips via Rust's shortest
    /// `Display` form — which is what lets the benchmark in `benchmark/`
    /// read its own result files and child reports back exactly.
    ///
    /// # Errors
    ///
    /// A short description with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends compact JSON text to `out` — lets callers stream many
    /// values (e.g. one record per finding) into one buffer.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{}", *v as i64);
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string. Shared by string
/// values and object keys (keys previously cloned through a temporary
/// `Json::Str` — one heap allocation per field).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Advances `pos` past ASCII whitespace.
fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Consumes the literal `lit` at `pos` or errors.
fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

/// Recursive-descent value parser for [`Json::parse`].
fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => expect_lit(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect_lit(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_lit(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {}", *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

/// Parses a quoted string with the emitter's escape set plus `\uXXXX`
/// (surrogate pairs included) and `\/`, `\b`, `\f` for interchange.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_owned());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = parse_hex4(bytes, pos)?;
                        if (0xd800..0xdc00).contains(&code) {
                            // High surrogate: a low surrogate must follow.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate".to_owned());
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            } else {
                                return Err("lone high surrogate".to_owned());
                            }
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid codepoint {code:#x}")),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Re-decode the UTF-8 run starting here in one step.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = start + len;
                let chunk = bytes
                    .get(start..end)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

/// Byte length of the UTF-8 sequence starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses exactly four hex digits.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = bytes
        .get(*pos..*pos + 4)
        .and_then(|c| std::str::from_utf8(c).ok())
        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
    let code =
        u32::from_str_radix(chunk, 16).map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
    *pos += 4;
    Ok(code)
}

/// Parses a JSON number via `f64::from_str` over the numeric run.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let run = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII run");
    run.parse::<f64>()
        .map_err(|_| format!("invalid number {run:?} at byte {start}"))
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn json_object<I, K, V>(fields: I) -> Json
where
    I: IntoIterator<Item = (K, V)>,
    K: Into<String>,
    V: Into<Json>,
{
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    )
}

/// Builds a [`Json::Arr`] from values.
pub fn json_array<I, V>(items: I) -> Json
where
    I: IntoIterator<Item = V>,
    V: Into<Json>,
{
    Json::Arr(items.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_content() {
        let mut t = Table::new("T", &["name", "value"]);
        t.row(["alpha".into(), Cell::Num(1.5, 2)]);
        t.row(["b".into(), Cell::Num(10.0, 1)]);
        let text = t.to_text();
        assert!(text.contains("== T =="));
        assert!(text.contains("alpha"));
        assert!(text.contains("1.50"));
        assert!(text.contains("10.0"));
        // Numbers are right-aligned to the same column end.
        let lines: Vec<&str> = text.lines().collect();
        let a = lines.iter().find(|l| l.contains("alpha")).unwrap();
        let b = lines.iter().find(|l| l.contains("10.0")).unwrap();
        assert_eq!(
            a.rfind("1.50").map(|i| i + 4),
            b.rfind("10.0").map(|i| i + 4),
        );
    }

    #[test]
    fn table_separator_and_ragged_rows() {
        let mut t = Table::new("T", &["a"]);
        t.row(["x".into(), "extra".into()]);
        t.separator();
        t.row(["y".into()]);
        let text = t.to_text();
        assert!(text.contains("extra"));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    /// The pre-`render_into` renderer, kept verbatim as the reference:
    /// one `String` per cell, buffered header/row lines, `str::repeat`
    /// rules. `render_into` must reproduce its bytes exactly.
    fn reference_to_text(t: &Table) -> String {
        fn render(cell: &Cell) -> String {
            match cell {
                Cell::Text(s) => s.clone(),
                Cell::Num(v, dp) => format!("{v:.*}", dp),
                Cell::Blank => String::new(),
            }
        }
        let columns = t
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(t.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        for (i, h) in t.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        let rendered: Vec<Vec<String>> = t
            .rows
            .iter()
            .map(|row| row.iter().map(render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", t.title);
        let mut header_line = String::new();
        for (i, h) in t.headers.iter().enumerate() {
            if i > 0 {
                header_line.push_str(" | ");
            }
            let _ = write!(header_line, "{:<w$}", h, w = widths[i]);
        }
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{}", "-".repeat(total.max(header_line.len())));
        for (row, cells) in t.rows.iter().zip(&rendered) {
            if cells.is_empty() {
                let _ = writeln!(out, "{}", "-".repeat(total.max(header_line.len())));
                continue;
            }
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str(" | ");
                }
                if row[i].is_numeric() {
                    let _ = write!(line, "{:>w$}", cell, w = widths[i]);
                } else {
                    let _ = write!(line, "{:<w$}", cell, w = widths[i]);
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// A golden table exercising every layout feature: ragged rows,
    /// separators, blanks, mixed alignment, wide headers, multi-byte
    /// chars, trailing-space trimming.
    fn golden_table() -> Table {
        let mut t = Table::new("Fig X — golden", &["configuration", "rps", "Δ vs docker"]);
        t.row([
            "Docker (µs)".into(),
            Cell::Num(1234.5, 1),
            Cell::Num(1.0, 2),
        ]);
        t.row(["X-Container".into(), Cell::Num(9.0, 0), Cell::Blank]);
        t.separator();
        t.row([
            "wide row".into(),
            Cell::Num(-0.5, 3),
            2.0.into(),
            "overflow col".into(),
        ]);
        t.row([Cell::Blank, Cell::Blank]);
        t.row(["tail".into()]);
        t
    }

    #[test]
    fn render_into_matches_string_per_cell_reference() {
        let t = golden_table();
        let mut streamed = String::from("prefix|");
        t.render_into(&mut streamed);
        assert_eq!(streamed, format!("prefix|{}", reference_to_text(&t)));
        assert_eq!(t.to_text(), reference_to_text(&t));
        // An empty table is a degenerate but legal layout.
        let empty = Table::new("E", &[]);
        assert_eq!(empty.to_text(), reference_to_text(&empty));
    }

    #[test]
    fn json_escaping() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_object_roundtrip_shape() {
        let j = json_object([
            ("name", Json::from("fig4")),
            ("relative", Json::from(27.4)),
            ("patched", Json::from(true)),
            ("runs", json_array([1u64, 2, 3])),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"fig4","relative":27.4,"patched":true,"runs":[1,2,3]}"#
        );
    }

    #[test]
    fn json_numbers() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Null.to_string_compact(), "null");
    }

    #[test]
    fn parse_roundtrips_emitter_output() {
        let j = json_object([
            ("name", Json::from("fig4 — \"quoted\"\n\\tab\t")),
            ("relative", Json::from(27.4)),
            ("neg", Json::Num(-0.001_220_703_125)),
            ("patched", Json::from(true)),
            ("missing", Json::Null),
            ("runs", json_array([1u64, 2, 3])),
            ("nested", json_object([("k", Json::Arr(vec![]))])),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = j.to_string_compact();
        assert_eq!(Json::parse(&text).expect("parses"), j);
    }

    #[test]
    fn parse_f64_display_is_exact() {
        // Every f64 the emitter writes parses back to identical bits
        // (Rust Display is shortest round-trip), including values with
        // long fractional parts, so a result file read back compares
        // exactly with the run that wrote it.
        for v in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            2.5e-308,
            98_765_432.123_456_78,
        ] {
            let text = Json::Num(v).to_string_compact();
            let back = Json::parse(&text).expect("parses").as_num().expect("num");
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let j =
            Json::parse(" { \"a\" : [ 1 , \"\\u0041\\u00e9\\ud83d\\ude00\" ] } ").expect("parses");
        let arr = j.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("Aé😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "{\"a\":\"\\ud800\"}",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn json_accessors() {
        let j = json_object([("x", Json::from(1.0)), ("s", Json::from("v"))]);
        assert_eq!(j.get("x").and_then(Json::as_num), Some(1.0));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Bool(true).as_num(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
