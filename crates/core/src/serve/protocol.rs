//! The versioned `repro serve` wire schema (`QueryV1`).
//!
//! Transport framing is newline-delimited JSON: every request is one flat
//! JSON object on one line, every response is one or more flat JSON
//! objects, one per line. The schema is *typed and closed* — every field
//! has one spelling, workloads are named only by their paper abbreviation
//! ([`BenchmarkId::abbreviation`]), systems only by their underscored
//! wire token ([`SystemId::token`](mlperf_hw::systems::SystemId::token)),
//! and unknown fields are rejected rather than ignored, so schema drift
//! surfaces as a `bad-request` instead of a silently-different answer.
//!
//! Every query has **canonical bytes** ([`Request::canonical_bytes`]):
//! the stable spelling whose FNV-1a hash is the server's coalescing key,
//! built from the same [`CellSpec::canonical_bytes`] vocabulary the
//! persistent cache hashes — request hash = cache key, as the service
//! model in DESIGN.md §2f requires. Per-request knobs that do not change
//! the answer (the `budget` override, the echoed `id`) are deliberately
//! *not* part of the identity.
//!
//! The parser is hand-rolled (the workspace has a zero-dependency
//! policy): a minimal flat-object JSON reader that keeps numbers as raw
//! tokens so `u64` fields round-trip exactly.

use crate::benchmark::BenchmarkId;
use crate::sweep::{CellKind, CellSpec, IntervalChoice, MAX_RUNS};
use mlperf_hw::systems::SystemId;
use mlperf_hw::PartitionSpec;
use mlperf_models::PrecisionPolicy;

/// The one schema version this server speaks.
pub const VERSION: u32 = 1;

/// Error-kind token for requests that never reached the executor.
pub const BAD_REQUEST: &str = "bad-request";

/// Error-kind token for a request frame exceeding the server's
/// configured maximum size; the server answers with this and closes the
/// connection (the rest of the oversized frame is never read).
pub const FRAME_TOO_LARGE: &str = "frame-too-large";

/// Error-kind token for queries arriving while the server is draining
/// after a `shutdown` acknowledgement: in-flight work finishes, new work
/// is refused.
pub const SHUTTING_DOWN: &str = "shutting-down";

/// A parsed version-1 query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryV1 {
    /// Liveness probe; answered without touching the executor.
    Ping,
    /// Orderly server shutdown (acknowledged, then the accept loop ends).
    Shutdown,
    /// Price one sweep cell (the what-if point).
    Cell(CellSpec),
    /// Stream one registered sweep by name.
    Sweep(String),
}

/// One parsed request: the query plus the per-request envelope (echoed
/// `id`, optional step-budget override).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every response frame
    /// (`"-"` when absent).
    pub id: String,
    /// The query itself.
    pub query: QueryV1,
    /// Per-request step-budget override (absent: the server default).
    pub budget: Option<u64>,
}

impl Request {
    /// The query's canonical identity bytes. Two requests coalesce (and
    /// share a cache entry) exactly when these bytes are equal; the
    /// `budget` override and the `id` are envelope, not identity.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        match &self.query {
            QueryV1::Ping => b"query.v1;kind=ping".to_vec(),
            QueryV1::Shutdown => b"query.v1;kind=shutdown".to_vec(),
            QueryV1::Cell(spec) => {
                let mut s = b"query.v1;kind=cell;".to_vec();
                s.extend_from_slice(&spec.canonical_bytes());
                s
            }
            QueryV1::Sweep(name) => format!("query.v1;kind=sweep;name={name}").into_bytes(),
        }
    }
}

/// A scalar JSON value of a flat request object. Numbers keep their raw
/// token so integer fields parse exactly (no f64 round trip).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string, unescaped.
    Str(String),
    /// A number, as its raw source token.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}'", b as char))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.expect(b'\\')
                                    .map_err(|_| "lone surrogate".to_string())?;
                                self.expect(b'u')
                                    .map_err(|_| "lone surrogate".to_string())?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c if c < 0x20 => return Err("control character in string".into()),
                _ => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("valid UTF-8"));
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self
            .i
            .checked_add(4)
            .filter(|&e| e <= self.s.len())
            .ok_or("short \\u escape")?;
        let hex = std::str::from_utf8(&self.s[self.i..end]).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.i = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<String, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        Ok(std::str::from_utf8(&self.s[start..self.i])
            .expect("ASCII number token")
            .to_string())
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("expected a value")? {
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b'{' | b'[' => Err("nested values are not part of the v1 schema".into()),
            b't' => self.keyword("true").map(|()| Json::Bool(true)),
            b'f' => self.keyword("false").map(|()| Json::Bool(false)),
            b'n' => self.keyword("null").map(|()| Json::Null),
            _ => Ok(Json::Num(self.parse_number()?)),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}'"))
        }
    }
}

/// Parse one flat JSON object (`{"k": scalar, ...}`) into its fields, in
/// source order. Rejects nested objects/arrays — the v1 schema is flat by
/// design, so versioning stays trivial.
///
/// # Errors
///
/// A human-readable message describing the first syntax problem.
pub fn parse_object(s: &str) -> Result<Vec<(String, Json)>, String> {
    let mut c = Cursor {
        s: s.as_bytes(),
        i: 0,
    };
    c.skip_ws();
    c.expect(b'{')
        .map_err(|_| "request must be a JSON object".to_string())?;
    let mut fields = Vec::new();
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.i += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.parse_string()?;
            c.skip_ws();
            c.expect(b':')?;
            c.skip_ws();
            let value = c.parse_value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field '{key}'"));
            }
            fields.push((key, value));
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.i += 1,
                Some(b'}') => {
                    c.i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
    c.skip_ws();
    if c.i != c.s.len() {
        return Err("trailing bytes after the object".into());
    }
    Ok(fields)
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field(fields: &[(String, Json)], key: &str) -> Result<Option<String>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field '{key}' must be a string")),
    }
}

fn u64_field(fields: &[(String, Json)], key: &str) -> Result<Option<u64>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(Json::Num(raw)) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("field '{key}' must be a non-negative integer")),
        Some(_) => Err(format!("field '{key}' must be a number")),
    }
}

fn f64_field(fields: &[(String, Json)], key: &str) -> Result<Option<f64>, String> {
    match get(fields, key) {
        None => Ok(None),
        Some(Json::Num(raw)) => raw
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a finite number")),
        Some(_) => Err(format!("field '{key}' must be a number")),
    }
}

/// Every field the v1 schema knows, per query kind (the closed-schema
/// check rejects anything else).
const ENVELOPE_FIELDS: &[&str] = &["v", "id", "kind", "budget"];
const CELL_FIELDS: &[&str] = &[
    "workload",
    "system",
    "gpus",
    "cell_kind",
    "batch",
    "precision",
    "mtbf_hours",
    "interval",
    "runs",
    "partition",
];
const SWEEP_FIELDS: &[&str] = &["sweep"];

/// Parse one request line.
///
/// # Errors
///
/// `(id, message)`: the echoable id (best effort — `"-"` when the line
/// was not even an object) plus the `bad-request` message.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let fields = parse_object(line).map_err(|m| ("-".to_string(), m))?;
    let id = match str_field(&fields, "id") {
        Ok(Some(id)) => id,
        Ok(None) => "-".to_string(),
        Err(m) => return Err(("-".to_string(), m)),
    };
    let fail = |m: String| (id.clone(), m);

    match u64_field(&fields, "v").map_err(&fail)? {
        Some(v) if v == u64::from(VERSION) => {}
        Some(v) => {
            return Err(fail(format!(
                "unsupported schema version {v} (this server speaks v{VERSION})"
            )))
        }
        None => return Err(fail("missing required field 'v'".to_string())),
    }
    let kind = str_field(&fields, "kind")
        .map_err(&fail)?
        .ok_or_else(|| fail("missing required field 'kind'".to_string()))?;
    let budget = u64_field(&fields, "budget").map_err(&fail)?;

    let allowed: Vec<&str> = match kind.as_str() {
        "ping" | "shutdown" => ENVELOPE_FIELDS.to_vec(),
        "cell" => ENVELOPE_FIELDS.iter().chain(CELL_FIELDS).copied().collect(),
        "sweep" => ENVELOPE_FIELDS
            .iter()
            .chain(SWEEP_FIELDS)
            .copied()
            .collect(),
        other => return Err(fail(format!("unknown query kind '{other}'"))),
    };
    for (k, _) in &fields {
        if !allowed.contains(&k.as_str()) {
            return Err(fail(format!("unknown field '{k}' for kind '{kind}'")));
        }
    }

    let query = match kind.as_str() {
        "ping" => QueryV1::Ping,
        "shutdown" => QueryV1::Shutdown,
        "sweep" => {
            let name = str_field(&fields, "sweep")
                .map_err(&fail)?
                .ok_or_else(|| fail("missing required field 'sweep'".to_string()))?;
            QueryV1::Sweep(name)
        }
        "cell" => QueryV1::Cell(parse_cell(&fields).map_err(&fail)?),
        _ => unreachable!("kind validated above"),
    };
    Ok(Request { id, query, budget })
}

fn parse_cell(fields: &[(String, Json)]) -> Result<CellSpec, String> {
    let cell_kind = match str_field(fields, "cell_kind")?.as_deref() {
        None | Some("training") => CellKind::Training,
        Some("expected-ttt") => CellKind::ExpectedTtt,
        Some(other) => return Err(format!("unknown cell_kind '{other}'")),
    };
    let workload = str_field(fields, "workload")?.ok_or("missing required field 'workload'")?;
    let workload = BenchmarkId::from_abbreviation(&workload)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let system = str_field(fields, "system")?.ok_or("missing required field 'system'")?;
    let system =
        SystemId::from_token(&system).ok_or_else(|| format!("unknown system '{system}'"))?;
    let gpus = u64_field(fields, "gpus")?.ok_or("missing required field 'gpus'")?;
    let gpus = u32::try_from(gpus).map_err(|_| "field 'gpus' is out of range".to_string())?;
    // A zero batch is a typed bad-request naming the field, like `runs`
    // below: there is no job to price at zero samples per GPU.
    let batch = match u64_field(fields, "batch")? {
        Some(0) => return Err("field 'batch' must be at least 1 (got 0)".to_string()),
        batch => batch,
    };
    let precision = match str_field(fields, "precision")?.as_deref() {
        None => None,
        Some("fp32") => Some(PrecisionPolicy::Fp32),
        Some("amp") => Some(PrecisionPolicy::Amp),
        Some(other) => return Err(format!("unknown precision '{other}'")),
    };
    // An expected-TTT duration must be positive and stay finite once
    // converted to seconds; anything else is a typed bad-request naming
    // the field, never a panic in the pricing thread.
    let duration = |key: &str, secs_per_unit: f64| -> Result<Option<f64>, String> {
        match f64_field(fields, key)? {
            Some(v) if !(v > 0.0 && (v * secs_per_unit).is_finite()) => Err(format!(
                "field '{key}' must be positive and finite in seconds"
            )),
            v => Ok(v),
        }
    };
    let mtbf_hours = duration("mtbf_hours", 3600.0)?;
    let interval = match get(fields, "interval") {
        None => None,
        Some(Json::Str(s)) if s == "daly" => Some(IntervalChoice::Daly),
        Some(Json::Str(s)) => return Err(format!("unknown interval '{s}'")),
        Some(Json::Num(_)) => Some(IntervalChoice::FixedMin(
            duration("interval", 60.0)?.expect("field is present"),
        )),
        Some(_) => return Err("field 'interval' must be 'daly' or minutes".to_string()),
    };
    // `runs` outside 1..=MAX_RUNS is a typed bad-request, never a clamp:
    // a client asking for 0 or a million runs should learn the contract,
    // not silently get something else. `runs:1` is the explicit spelling
    // of the default and normalizes to it (same canonical bytes, same
    // cache entry, same answer).
    let runs = match u64_field(fields, "runs")? {
        None => None,
        Some(n) if (1..=u64::from(MAX_RUNS)).contains(&n) => (n > 1).then_some(n as u32),
        Some(n) => {
            return Err(format!(
                "field 'runs' must be between 1 and {MAX_RUNS} (got {n})"
            ))
        }
    };
    // `partition` follows the same contract: `"full"` is the explicit
    // spelling of the default and normalizes to it (same canonical bytes,
    // same coalescing key as omitting the field); an invalid token is a
    // typed bad-request naming the field, never a clamp.
    let partition = match str_field(fields, "partition")?.as_deref() {
        None => None,
        Some(token) => {
            PartitionSpec::parse(token).map_err(|e| format!("field 'partition': {e}"))?
        }
    };
    Ok(CellSpec {
        kind: cell_kind,
        workload: Some(workload),
        system: Some(system),
        gpus: Some(gpus),
        batch,
        precision,
        mtbf_hours,
        interval,
        runs,
        partition,
    })
}

/// Escape `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
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

fn columns_json(columns: &[&str]) -> String {
    let cols: Vec<String> = columns
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!("[{}]", cols.join(","))
}

/// The `pong` response to a ping.
pub fn pong_frame(id: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"ok\",\"kind\":\"pong\"}}\n",
        json_escape(id)
    )
}

/// The acknowledgement written before the server stops accepting.
pub fn shutdown_frame(id: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"ok\",\"kind\":\"shutdown\"}}\n",
        json_escape(id)
    )
}

/// A successful cell answer: the kind's column vocabulary, the values in
/// Rust's shortest-roundtrip decimal spelling, and the exact IEEE-754 bit
/// patterns (the deterministic ground truth clients can diff). A
/// replicated cell arrives wider than the base vocabulary and the frame
/// names its distribution columns accordingly.
pub fn cell_ok_frame(id: &str, kind: CellKind, values: &[f64]) -> String {
    let decimals: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("\"{:016x}\"", v.to_bits()))
        .collect();
    let kind_token = match kind {
        CellKind::Training => "training",
        CellKind::ExpectedTtt => "expected-ttt",
    };
    let mut columns: Vec<&str> = kind.columns().to_vec();
    if values.len() > columns.len() {
        columns.extend_from_slice(kind.run_columns());
    }
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"ok\",\"cell\":\"{}\",\"columns\":{},\"values\":[{}],\"bits\":[{}]}}\n",
        json_escape(id),
        kind_token,
        columns_json(&columns),
        decimals.join(","),
        bits.join(","),
    )
}

/// A typed error answer (`kind` is a stable token from the
/// `CellError`/`ExperimentError` vocabulary, or [`BAD_REQUEST`]).
pub fn error_frame(id: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"error\",\"kind\":\"{}\",\"message\":\"{}\"}}\n",
        json_escape(id),
        json_escape(kind),
        json_escape(message),
    )
}

/// The admission-control rejection: the bounded wait queue is full.
pub fn busy_frame(id: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"busy\",\"kind\":\"admission\",\"message\":\"admission queue full\"}}\n",
        json_escape(id)
    )
}

/// The stream header preceding a sweep's row frames.
pub fn stream_header_frame(id: &str, sweep: &str, cells: usize, columns: &[&str]) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"stream\",\"sweep\":\"{}\",\"cells\":{},\"columns\":{}}}\n",
        json_escape(id),
        json_escape(sweep),
        cells,
        columns_json(columns),
    )
}

/// One shard of sweep rows (each row one CSV line, comma-joined cells —
/// the same bytes `repro sweep` writes).
pub fn rows_frame(id: &str, rows: &[String]) -> String {
    let quoted: Vec<String> = rows
        .iter()
        .map(|r| format!("\"{}\"", json_escape(r)))
        .collect();
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"rows\",\"rows\":[{}]}}\n",
        json_escape(id),
        quoted.join(","),
    )
}

/// The stream footer: deterministic totals only (disk hits and timing are
/// live counters, surfaced on stderr — never in response bytes, which
/// must replay byte-identically warm or cold).
pub fn done_frame(id: &str, cells: usize, errors: usize) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"status\":\"done\",\"cells\":{},\"errors\":{}}}\n",
        json_escape(id),
        cells,
        errors,
    )
}

/// The `status` field of a response line (clients use this to find the
/// terminal frame of each request's answer). Response frames carry
/// arrays, which the strict *request* parser rejects by design, so this
/// scans for the literal `"status":"` marker instead — safe because that
/// byte sequence cannot occur inside a JSON string value (its quotes
/// would be escaped there).
pub fn response_status(line: &str) -> Option<String> {
    let rest = line.split_once("\"status\":\"")?.1;
    rest.split_once('"').map(|(status, _)| status.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_cell_query() {
        let req = parse_request(
            r#"{"v":1,"id":"q7","kind":"cell","workload":"MLPf_Res50_MX","system":"DSS_8440","gpus":4}"#,
        )
        .unwrap();
        assert_eq!(req.id, "q7");
        assert_eq!(req.budget, None);
        let QueryV1::Cell(spec) = &req.query else {
            panic!("expected a cell query")
        };
        assert_eq!(spec.kind, CellKind::Training);
        assert_eq!(spec.workload, Some(BenchmarkId::MlpfRes50Mx));
        assert_eq!(spec.system, Some(SystemId::Dss8440));
        assert_eq!(spec.gpus, Some(4));
        assert_eq!(req.canonical_bytes(), {
            let mut b = b"query.v1;kind=cell;".to_vec();
            b.extend_from_slice(&spec.canonical_bytes());
            b
        });
    }

    #[test]
    fn parses_every_cell_field() {
        let req = parse_request(
            r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"C4140_(K)","gpus":1,"cell_kind":"expected-ttt","batch":64,"precision":"amp","mtbf_hours":4.5,"interval":"daly","budget":100}"#,
        )
        .unwrap();
        assert_eq!(req.id, "-");
        assert_eq!(req.budget, Some(100));
        let QueryV1::Cell(spec) = &req.query else {
            panic!("expected a cell query")
        };
        assert_eq!(spec.kind, CellKind::ExpectedTtt);
        assert_eq!(spec.batch, Some(64));
        assert_eq!(spec.precision, Some(PrecisionPolicy::Amp));
        assert_eq!(spec.mtbf_hours, Some(4.5));
        assert_eq!(spec.interval, Some(IntervalChoice::Daly));

        let fixed = parse_request(
            r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":1,"interval":10.0}"#,
        )
        .unwrap();
        let QueryV1::Cell(spec) = &fixed.query else {
            panic!("expected a cell query")
        };
        assert_eq!(spec.interval, Some(IntervalChoice::FixedMin(10.0)));
    }

    #[test]
    fn rejects_schema_violations_with_messages() {
        let cases: &[(&str, &str)] = &[
            ("not json", "request must be a JSON object"),
            (r#"{"id":"x","kind":"ping"}"#, "missing required field 'v'"),
            (r#"{"v":2,"kind":"ping"}"#, "unsupported schema version"),
            (r#"{"v":1}"#, "missing required field 'kind'"),
            (r#"{"v":1,"kind":"launch"}"#, "unknown query kind"),
            (r#"{"v":1,"kind":"ping","gpus":4}"#, "unknown field 'gpus'"),
            (
                r#"{"v":1,"kind":"cell","workload":"resnet","system":"DSS_8440","gpus":4}"#,
                "unknown workload",
            ),
            (
                r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS 8440","gpus":4}"#,
                "unknown system",
            ),
            (
                r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440"}"#,
                "missing required field 'gpus'",
            ),
            (r#"{"v":1,"kind":"ping","v":1}"#, "duplicate field"),
            (
                r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":[1]}"#,
                "nested values",
            ),
            (
                r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":1,"batch":0}"#,
                "field 'batch' must be at least 1 (got 0)",
            ),
        ];
        for (line, needle) in cases {
            let (_, msg) = parse_request(line).expect_err(line);
            assert!(
                msg.contains(needle),
                "{line}: got '{msg}', wanted '{needle}'"
            );
        }
    }

    #[test]
    fn runs_field_parses_normalizes_and_rejects_out_of_range() {
        let base =
            r#"{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"DSS_8440","gpus":4"#;
        let req = parse_request(&format!(r#"{base},"runs":8}}"#)).unwrap();
        let QueryV1::Cell(spec) = &req.query else {
            panic!("expected a cell query")
        };
        assert_eq!(spec.runs, Some(8));
        assert!(String::from_utf8(req.canonical_bytes())
            .unwrap()
            .ends_with(";runs=8"));
        // "runs":1 is the explicit spelling of the default: identical
        // identity (and thus coalescing key) to omitting the field.
        let one = parse_request(&format!(r#"{base},"runs":1}}"#)).unwrap();
        let plain = parse_request(&format!("{base}}}")).unwrap();
        assert_eq!(one.canonical_bytes(), plain.canonical_bytes());
        // 0, negative, and huge are typed bad-requests naming the field.
        for bad in ["0", "-3", "513", "1000000000000"] {
            let (_, msg) = parse_request(&format!(r#"{base},"runs":{bad}}}"#)).expect_err(bad);
            assert!(msg.contains("'runs'"), "runs={bad}: got '{msg}'");
        }
    }

    #[test]
    fn partition_field_parses_normalizes_and_rejects_bad_tokens() {
        let base =
            r#"{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1"#;
        let req = parse_request(&format!(r#"{base},"partition":"1of4x3"}}"#)).unwrap();
        let QueryV1::Cell(spec) = &req.query else {
            panic!("expected a cell query")
        };
        assert_eq!(
            spec.partition.map(|p| p.to_string()).as_deref(),
            Some("1of4x3")
        );
        assert!(String::from_utf8(req.canonical_bytes())
            .unwrap()
            .ends_with(";part=1of4x3"));
        // "full" (and the solo "x1" spelling) are the explicit default:
        // identical identity — and thus coalescing key — to omitting the
        // field, so old clients and new ones share cache entries.
        let full = parse_request(&format!(r#"{base},"partition":"full"}}"#)).unwrap();
        let plain = parse_request(&format!("{base}}}")).unwrap();
        assert_eq!(full.canonical_bytes(), plain.canonical_bytes());
        let solo = parse_request(&format!(r#"{base},"partition":"1of2x1"}}"#)).unwrap();
        let bare = parse_request(&format!(r#"{base},"partition":"1of2"}}"#)).unwrap();
        assert_eq!(solo.canonical_bytes(), bare.canonical_bytes());
        // Invalid tokens are typed bad-requests naming the field.
        for bad in ["1of3", "2of4", "1of4x9", "half", "1of4x0", " 1of4"] {
            let (_, msg) =
                parse_request(&format!(r#"{base},"partition":"{bad}"}}"#)).expect_err(bad);
            assert!(msg.contains("'partition'"), "partition={bad}: got '{msg}'");
        }
    }

    #[test]
    fn replicated_cell_frame_names_the_distribution_columns() {
        let base = CellKind::Training.columns().len();
        let wide: Vec<f64> = (0..base + CellKind::Training.run_columns().len())
            .map(|i| i as f64)
            .collect();
        let frame = cell_ok_frame("q", CellKind::Training, &wide);
        assert!(frame.contains("\"epochs_median\""), "{frame}");
        assert!(frame.contains("\"epochs_ci_hi\""), "{frame}");
        let narrow = cell_ok_frame("q", CellKind::Training, &wide[..base]);
        assert!(!narrow.contains("\"epochs_median\""), "{narrow}");
    }

    #[test]
    fn bad_request_still_echoes_the_id() {
        let (id, _) = parse_request(r#"{"v":3,"id":"my-query","kind":"ping"}"#).unwrap_err();
        assert_eq!(id, "my-query");
    }

    #[test]
    fn every_system_token_round_trips() {
        for name in [
            "T640",
            "C4140_(B)",
            "C4140_(K)",
            "C4140_(M)",
            "R940_XA",
            "DSS_8440",
            "MLPerf_reference_(P100)",
            "DGX-1V_(extension)",
        ] {
            let id = SystemId::from_token(name).unwrap_or_else(|| panic!("token {name}"));
            assert_eq!(id.token(), name);
        }
        for b in BenchmarkId::ALL {
            assert_eq!(BenchmarkId::from_abbreviation(b.abbreviation()), Some(b));
        }
        assert_eq!(BenchmarkId::from_abbreviation("nope"), None);
        assert_eq!(
            SystemId::from_token("DSS 8440"),
            None,
            "spaces are not wire tokens"
        );
    }

    #[test]
    fn string_unescaping_round_trips() {
        let fields = parse_object(r#"{"id":"a\"b\\c\ndA😀"}"#).unwrap();
        assert_eq!(fields[0].1, Json::Str("a\"b\\c\ndA😀".to_string()));
        let msg = "quote\" slash\\ newline\n tab\t ctl\u{1}";
        let line = format!("{{\"m\":\"{}\"}}", json_escape(msg));
        let back = parse_object(&line).unwrap();
        assert_eq!(back[0].1, Json::Str(msg.to_string()));
    }

    #[test]
    fn frames_are_single_lines_with_statuses() {
        for (frame, status) in [
            (pong_frame("a"), "ok"),
            (shutdown_frame("a"), "ok"),
            (
                cell_ok_frame("a", CellKind::Training, &[1.5, 2.0, 3.25, 0.5, 90.0]),
                "ok",
            ),
            (error_frame("a", "oom", "out of memory"), "error"),
            (busy_frame("a"), "busy"),
            (
                stream_header_frame("a", "fault_ttt", 15, &["workload", "status"]),
                "stream",
            ),
            (rows_frame("a", &["x,y,1".to_string()]), "rows"),
            (done_frame("a", 15, 0), "done"),
        ] {
            assert!(frame.ends_with('\n'), "{frame}");
            assert_eq!(frame.matches('\n').count(), 1, "{frame}");
            assert_eq!(
                response_status(frame.trim_end()).as_deref(),
                Some(status),
                "{frame}"
            );
        }
    }

    #[test]
    fn cell_ok_frame_spells_exact_bits() {
        let v = 0.1f64 + 0.2; // famously not 0.3
        let frame = cell_ok_frame("q", CellKind::ExpectedTtt, &[v, 1.0, 2.0]);
        assert!(frame.contains(&format!("{:016x}", v.to_bits())), "{frame}");
        assert!(frame.contains("0.30000000000000004"), "{frame}");
    }
}
