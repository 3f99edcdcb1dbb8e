//! The `serve-v1` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request, answered **in
//! request order** per connection. A request names an operation and a
//! program (a benchmark workload by name, or inline assembly text):
//!
//! ```json
//! {"op":"run","id":7,"workload":"fir","width":8,"report":true}
//! {"op":"translate","id":"a","workload":"fft","width":2}
//! {"op":"explain","workload":"lu","widths":[2,8],"json":true}
//! {"op":"run","program":"halt\n","name":"tiny","budget_cycles":1000}
//! {"op":"conform","seed":3,"cases":2}
//! {"op":"stats"}
//! {"op":"inspect"}
//! {"op":"dump","reason":"sentinel-drift"}
//! {"op":"shutdown"}
//! ```
//!
//! A successful response is `{"schema":"serve-v1","op":…,"ok":true,
//! "output":…,…}` where `output` is byte-identical to the one-shot CLI's
//! stdout for the same operation. A rejected request — bad fields, a
//! simulation fault, an exceeded cycle/abort budget, or a contained worker
//! panic — is `{"schema":"serve-err-v1","op":…,"ok":false,"kind":…,
//! "error":…}`. Either way the request's `id` (any JSON scalar) is echoed
//! back verbatim as the response's last field; responses never mention the
//! shard that computed them or whether the cache was hit, because their
//! bytes must not depend on either.

use liquid_simd_trace::Json;

/// Schema tag of a successful response.
pub const OK_SCHEMA: &str = "serve-v1";
/// Schema tag of an error response.
pub const ERR_SCHEMA: &str = "serve-err-v1";

/// Longest request line the daemon reads, newline included (1 MiB —
/// orders of magnitude above any inline program). A longer line gets a
/// `bad-request` reply and its connection is closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The operation a request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Run once, print each translated microcode block (CLI `translate`).
    Translate,
    /// Simulate to halt (CLI `run`).
    Run,
    /// Per-region translation verdicts at several widths (CLI `explain`).
    Explain,
    /// Generative differential conformance (CLI `conform`).
    Conform,
    /// Service counters — excluded from determinism hashing.
    Stats,
    /// Full `metrics-v1` telemetry snapshot (counters, histograms, cache
    /// and flight-recorder state) — excluded from determinism hashing.
    Inspect,
    /// Drain the flight recorder into a `flight-v1` dump file on the
    /// daemon host (reason `manual` unless the request names one).
    Dump,
    /// Begin graceful shutdown (in-flight requests still complete).
    Shutdown,
}

impl Op {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Translate => "translate",
            Op::Run => "run",
            Op::Explain => "explain",
            Op::Conform => "conform",
            Op::Stats => "stats",
            Op::Inspect => "inspect",
            Op::Dump => "dump",
            Op::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "translate" => Op::Translate,
            "run" => Op::Run,
            "explain" => Op::Explain,
            "conform" => Op::Conform,
            "stats" => Op::Stats,
            "inspect" => Op::Inspect,
            "dump" => Op::Dump,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// Machine flavour for `run` requests, mirroring the CLI's
/// `--lanes 0` / `--native` / default-liquid triage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Dynamic translation enabled (the default).
    Liquid,
    /// Native SIMD, no translator.
    Native,
    /// No accelerator at all.
    Scalar,
}

impl Mode {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Liquid => "liquid",
            Mode::Native => "native",
            Mode::Scalar => "scalar",
        }
    }
}

/// One parsed, validated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Echoed back verbatim in the response (string or number).
    pub id: Option<Json>,
    /// The operation.
    pub op: Op,
    /// Benchmark workload name (mutually exclusive with `program`).
    pub workload: Option<String>,
    /// Inline assembly text (mutually exclusive with `workload`).
    pub program: Option<String>,
    /// Display name for inline programs (default `<inline>`).
    pub name: Option<String>,
    /// Accelerator width in lanes (`width` on the wire; 0 = scalar).
    pub lanes: usize,
    /// Machine flavour for `run`.
    pub mode: Mode,
    /// Software-JIT translation (CLI `--jit`).
    pub jit: bool,
    /// Full statistics report instead of the one-line summary (`run`).
    pub report: bool,
    /// Width sweep for `explain`.
    pub widths: Vec<usize>,
    /// JSON output for `explain` (default true — the machine-diffable
    /// form).
    pub json: bool,
    /// Reject the request if the simulation exceeds this many cycles.
    pub budget_cycles: Option<u64>,
    /// Reject the request if the translator aborts more than this many
    /// times.
    pub budget_aborts: Option<u64>,
    /// Conformance seed.
    pub seed: u64,
    /// Conformance case count.
    pub cases: u64,
    /// Test-only fault injection (`"inject":"panic"`): panic inside the
    /// shard worker. Parsed always, honored only when the daemon runs
    /// with `--inject-faults` — the front-end rejects it otherwise.
    pub inject_panic: bool,
    /// Dump reason for `op:"dump"` (default `manual`).
    pub reason: Option<String>,
}

fn get_usize(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("`{key}` must be an unsigned integer")),
    }
}

fn get_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

fn get_str(obj: &Json, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn valid_width(w: usize) -> bool {
    (2..=16).contains(&w) && w.is_power_of_two()
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns a message describing the first malformed field; the caller
/// wraps it in a `serve-err-v1` response of kind `bad-request`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if doc.as_obj().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    let op_name = get_str(&doc, "op")?.ok_or("missing `op`")?;
    let op = Op::parse(&op_name).ok_or_else(|| {
        format!(
            "unknown op `{op_name}` (expected \
             translate|run|explain|conform|stats|inspect|dump|shutdown)"
        )
    })?;
    let id = match doc.get("id") {
        None => None,
        Some(v @ (Json::Str(_) | Json::Num(_))) => Some(v.clone()),
        Some(_) => return Err("`id` must be a string or number".to_string()),
    };
    let workload = get_str(&doc, "workload")?;
    let program = get_str(&doc, "program")?;
    if workload.is_some() && program.is_some() {
        return Err("give `workload` or `program`, not both".to_string());
    }
    let needs_program = matches!(op, Op::Translate | Op::Run | Op::Explain);
    if needs_program && workload.is_none() && program.is_none() {
        return Err(format!("op `{op_name}` needs a `workload` or `program`"));
    }
    let mut lanes = get_usize(&doc, "width")?.unwrap_or(8);
    let mut mode = match get_str(&doc, "mode")?.as_deref() {
        None | Some("liquid") => Mode::Liquid,
        Some("native") => Mode::Native,
        Some("scalar") => Mode::Scalar,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    // Normalize exactly as the CLI does: width 0 means scalar-only, and a
    // scalar machine has no lanes — one canonical form per configuration.
    if lanes == 0 {
        mode = Mode::Scalar;
    }
    if mode == Mode::Scalar {
        lanes = 0;
    } else if !valid_width(lanes) {
        return Err("`width` must be 0 (scalar) or a power of two in 2..=16".to_string());
    }
    if op == Op::Translate && lanes < 2 {
        return Err("translate needs `width` >= 2".to_string());
    }
    let widths = match doc.get("widths") {
        None => liquid_simd::experiments::paper_widths(),
        Some(v) => {
            let items = v.as_arr().ok_or("`widths` must be an array")?;
            let mut out = Vec::new();
            for item in items {
                let w = item
                    .as_u64()
                    .map(|n| n as usize)
                    .filter(|&w| valid_width(w))
                    .ok_or("`widths` entries must be powers of two in 2..=16")?;
                out.push(w);
            }
            if out.is_empty() {
                return Err("`widths` needs at least one width".to_string());
            }
            out
        }
    };
    let budget = |key: &str| -> Result<Option<u64>, String> {
        match doc.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be an unsigned integer")),
        }
    };
    Ok(Request {
        id,
        op,
        workload,
        program,
        name: get_str(&doc, "name")?,
        lanes,
        mode,
        jit: get_bool(&doc, "jit", false)?,
        report: get_bool(&doc, "report", false)?,
        widths,
        json: get_bool(&doc, "json", true)?,
        budget_cycles: budget("budget_cycles")?,
        budget_aborts: budget("budget_aborts")?,
        seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0xC0FFEE),
        cases: doc.get("cases").and_then(Json::as_u64).unwrap_or(20),
        inject_panic: match get_str(&doc, "inject")?.as_deref() {
            None => false,
            Some("panic") => true,
            Some(other) => return Err(format!("unknown `inject` fault `{other}`")),
        },
        reason: get_str(&doc, "reason")?,
    })
}

/// Builds a successful response body **without** the request id: the
/// cacheable part. `fields` follow `schema`/`op`/`ok` in order.
#[must_use]
pub fn ok_body(op: Op, fields: Vec<(&str, Json)>) -> String {
    let head = [
        ("schema", OK_SCHEMA.into()),
        ("op", op.name().into()),
        ("ok", true.into()),
    ];
    Json::obj(head.into_iter().chain(fields)).write()
}

/// Builds a `serve-err-v1` response body without the request id.
#[must_use]
pub fn err_body(op: Option<Op>, kind: &str, error: &str) -> String {
    Json::obj([
        ("schema", ERR_SCHEMA.into()),
        ("op", op.map(Op::name).into()),
        ("ok", false.into()),
        ("kind", kind.into()),
        ("error", error.into()),
    ])
    .write()
}

/// Splices the echoed request id into a response body as its final field.
/// The body is a cached artifact shared by every request with the same
/// canonical key; only the id differs per request, so it is attached at
/// the last moment without re-serializing the document.
#[must_use]
pub fn with_id(body: &str, id: Option<&Json>) -> String {
    match id {
        None => body.to_string(),
        Some(id) => {
            debug_assert!(body.ends_with('}'));
            format!("{},\"id\":{}}}", &body[..body.len() - 1], id.write())
        }
    }
}

/// The canonical cache/determinism key of a request: every field that can
/// change the response body, in one deterministic string. Two requests
/// with equal keys get byte-identical responses (sans id), which is both
/// the cache-correctness argument and what the cross-run determinism
/// hashes are built from.
#[must_use]
pub fn canonical_key(req: &Request, prog_hash: u64, cfg_hash: u64) -> String {
    let name = req
        .workload
        .as_deref()
        .or(req.name.as_deref())
        .unwrap_or("<inline>")
        .to_ascii_lowercase();
    // An injected-fault request must never share a cache line with its
    // healthy twin — the contained panic response is itself cacheable.
    let inject = if req.inject_panic {
        "|inject=panic"
    } else {
        ""
    };
    let key = match req.op {
        Op::Translate => {
            format!(
                "op=translate|prog={prog_hash:016x}|name={name}|width={}",
                req.lanes
            )
        }
        Op::Run => format!(
            "op=run|prog={prog_hash:016x}|name={name}|cfg={cfg_hash:016x}|report={}|bc={}|ba={}",
            req.report,
            req.budget_cycles.map_or(-1i128, i128::from),
            req.budget_aborts.map_or(-1i128, i128::from),
        ),
        Op::Explain => format!(
            "op=explain|prog={prog_hash:016x}|name={name}|widths={}|json={}",
            req.widths
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            req.json
        ),
        Op::Conform => format!("op=conform|seed={}|cases={}", req.seed, req.cases),
        Op::Stats | Op::Inspect | Op::Dump | Op::Shutdown => format!("op={}", req.op.name()),
    };
    format!("{key}{inject}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_run_request() {
        let r = parse_request(r#"{"op":"run","workload":"fir","id":7}"#).unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.workload.as_deref(), Some("fir"));
        assert_eq!(r.lanes, 8);
        assert_eq!(r.mode, Mode::Liquid);
        assert_eq!(r.id, Some(Json::Num("7".to_string())));
        assert!(!r.report);
    }

    #[test]
    fn width_zero_and_scalar_mode_normalize_identically() {
        let a = parse_request(r#"{"op":"run","workload":"fir","width":0}"#).unwrap();
        let b = parse_request(r#"{"op":"run","workload":"fir","mode":"scalar"}"#).unwrap();
        assert_eq!((a.mode, a.lanes), (Mode::Scalar, 0));
        assert_eq!((b.mode, b.lanes), (Mode::Scalar, 0));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("{", "malformed JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"op":"flip"}"#, "unknown op"),
            (r#"{"op":"run"}"#, "needs a `workload` or `program`"),
            (r#"{"op":"run","workload":"a","program":"b"}"#, "not both"),
            (r#"{"op":"run","workload":"a","width":3}"#, "power of two"),
            (
                r#"{"op":"translate","workload":"a","width":0}"#,
                "width` >= 2",
            ),
            (r#"{"op":"run","workload":"a","id":[1]}"#, "`id` must be"),
            (
                r#"{"op":"explain","workload":"a","widths":[]}"#,
                "at least one width",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn id_splice_is_exact_and_bodies_round_trip() {
        let body = ok_body(Op::Run, vec![("output", "x\n".into())]);
        assert_eq!(
            body,
            r#"{"schema":"serve-v1","op":"run","ok":true,"output":"x\n"}"#
        );
        let with_num = with_id(&body, Some(&Json::Num("7".to_string())));
        assert_eq!(
            with_num,
            r#"{"schema":"serve-v1","op":"run","ok":true,"output":"x\n","id":7}"#
        );
        Json::parse(&with_num).unwrap();
        let with_str = with_id(&body, Some(&Json::Str("c1-r2".to_string())));
        assert!(with_str.ends_with(r#""id":"c1-r2"}"#));
        Json::parse(&with_str).unwrap();
        assert_eq!(with_id(&body, None), body);
        let err = err_body(Some(Op::Run), "budget-exceeded", "cycle budget 10 exceeded");
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(ERR_SCHEMA));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn canonical_keys_separate_what_must_differ() {
        let base = parse_request(r#"{"op":"run","workload":"fir"}"#).unwrap();
        let report = parse_request(r#"{"op":"run","workload":"fir","report":true}"#).unwrap();
        let budget = parse_request(r#"{"op":"run","workload":"fir","budget_cycles":9}"#).unwrap();
        let k = |r: &Request| canonical_key(r, 1, 2);
        assert_ne!(k(&base), k(&report));
        assert_ne!(k(&base), k(&budget));
        assert_eq!(k(&base), k(&base.clone()));
        // Different program or config hashes always split the key.
        assert_ne!(canonical_key(&base, 1, 2), canonical_key(&base, 3, 2));
        assert_ne!(canonical_key(&base, 1, 2), canonical_key(&base, 1, 4));
    }
}
