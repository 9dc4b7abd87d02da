//! Route dispatch, request validation and response formatting.
//!
//! Every handler validates its input against the loaded schema *before*
//! touching the engine: unknown attribute names, out-of-domain values,
//! group-by/predicate overlap and underivable group-by sets all come back
//! as `400` with a JSON error body — never a panic, never a wedged worker.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ct_common::query::QueryRow;
use ct_common::{AttrId, Catalog, CtError, SliceQuery};
use ct_cube::Relation;
use cubetree::ServingEngine;

use crate::admission::Admission;
use crate::compactor::IngestConfig;
use crate::http::{Request, Response};
use crate::json::{self, Json};

/// Advertised `Retry-After` (seconds) on every `429`, from `/query` and
/// `/ingest` alike.
const RETRY_AFTER_SECS: u64 = 1;

/// A handler failure: status + message, rendered as `{"error": "..."}`.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status (4xx for caller mistakes, 5xx for server faults).
    pub status: u16,
    /// Explanation sent to the client.
    pub message: String,
}

impl ApiError {
    /// A 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError { status: 400, message: message.into() }
    }

    /// A 500 Internal Server Error.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError { status: 500, message: message.into() }
    }

    /// Renders the error as a JSON response.
    pub fn into_response(self) -> Response {
        Response::json(
            self.status,
            format!("{{\"error\": {}}}", json::escape(&self.message)),
        )
    }
}

/// Requested response format for `POST /query`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// JSON object with `columns`/`rows` (the default).
    Json,
    /// RFC-4180-style CSV with a header row.
    Csv,
}

/// A validated query request: the typed query plus the response format.
#[derive(Debug)]
pub struct ValidatedQuery {
    /// The schema-checked slice query.
    pub query: SliceQuery,
    /// Group-by attribute names, for the response header/columns.
    pub columns: Vec<String>,
    /// Requested response format.
    pub format: Format,
}

/// Dispatches one request to its handler. Unknown paths get 404, known
/// paths with the wrong verb get 405. `refresh_lock` serializes writers:
/// reads proceed concurrently under MVCC, but only one merge-pack may run
/// at a time.
pub fn dispatch(
    engine: &dyn ServingEngine,
    admission: &Admission,
    refresh_lock: &std::sync::Mutex<()>,
    ingest: &IngestConfig,
    req: &Request,
) -> Response {
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(engine),
        ("GET", "/views") => handle_views(engine),
        ("GET", "/metrics") => handle_metrics(engine),
        ("POST", "/query") => return handle_query(engine, admission, req),
        ("POST", "/refresh") => {
            // A writer that panicked mid-refresh poisons this mutex. The
            // engine below it stays sound (generation MVCC commits via
            // atomic manifest rename, so a torn refresh never publishes),
            // which makes the poison flag pure noise: recover the guard and
            // keep serializing writers instead of panicking every later
            // /refresh on a long-dead failure.
            let _writer = refresh_lock.lock().unwrap_or_else(|e| e.into_inner());
            catch_unwind(AssertUnwindSafe(|| handle_refresh(engine, req))).unwrap_or_else(
                |_| Err(ApiError::internal("refresh panicked; no generation was published")),
            )
        }
        ("POST", "/ingest") => return handle_ingest(engine, admission, ingest, req),
        (_, "/healthz" | "/views" | "/metrics") => Err(ApiError {
            status: 405,
            message: format!("{} is GET-only", req.path),
        }),
        (_, "/query" | "/refresh" | "/ingest") => Err(ApiError {
            status: 405,
            message: format!("{} is POST-only", req.path),
        }),
        _ => Err(ApiError { status: 404, message: format!("no such path {}", req.path) }),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => e.into_response(),
    }
}

fn handle_healthz(engine: &dyn ServingEngine) -> Result<Response, ApiError> {
    if !engine.loaded() {
        return Err(ApiError::internal("engine not loaded"));
    }
    let generation = engine.generation();
    Ok(Response::json(
        200,
        format!("{{\"status\": \"ok\", \"generation\": {generation}}}"),
    ))
}

fn handle_views(engine: &dyn ServingEngine) -> Result<Response, ApiError> {
    let (generation, infos) = engine
        .views()
        .map_err(|_| ApiError::internal("engine not loaded"))?;
    let mut views = Vec::new();
    for v in infos {
        let projection: Vec<String> =
            v.projection.iter().map(|n| json::escape(n)).collect();
        views.push(format!(
            "{{\"id\": {}, \"name\": {}, \"projection\": [{}], \"agg\": {}, \"entries\": {}, \"replica\": {}}}",
            v.id,
            json::escape(&v.name),
            projection.join(", "),
            json::escape(&format!("{:?}", v.agg)),
            v.entries,
            v.replica,
        ));
    }
    Ok(Response::json(
        200,
        format!("{{\"generation\": {generation}, \"views\": [{}]}}", views.join(", ")),
    ))
}

fn handle_metrics(engine: &dyn ServingEngine) -> Result<Response, ApiError> {
    Ok(Response::json(200, engine.metrics_json()))
}

/// The query path: parse → validate → admit and execute → format.
fn handle_query(
    engine: &dyn ServingEngine,
    admission: &Admission,
    req: &Request,
) -> Response {
    let validated = match validate_query_request(engine, req) {
        Ok(v) => v,
        Err(e) => return e.into_response(),
    };
    let answered = match admission.submit(validated.query) {
        Ok(answered) => answered,
        Err(crate::admission::SubmitError::Overloaded) => {
            return Response::json(
                429,
                "{\"error\": \"too many queries in flight, retry later\"}".to_string(),
            )
            .with_header("retry-after", RETRY_AFTER_SECS.to_string());
        }
        Err(crate::admission::SubmitError::ShuttingDown) => {
            return Response::json(
                503,
                "{\"error\": \"server is shutting down\"}".to_string(),
            );
        }
    };
    let Ok(outcome) = answered.recv();
    match outcome {
        Ok(answer) => match validated.format {
            Format::Json => Response::json(
                200,
                query_rows_json(answer.generation, &validated.columns, &answer.rows),
            ),
            Format::Csv => Response::csv(query_rows_csv(&validated.columns, &answer.rows))
                .with_header("x-generation", answer.generation.to_string()),
        },
        Err(message) => ApiError::internal(message).into_response(),
    }
}

/// Renders the JSON body for a query answer. Rows are emitted as arrays
/// `[key..., agg]` aligned with `columns` + a trailing `"agg"` column.
fn query_rows_json(generation: u64, columns: &[String], rows: &[QueryRow]) -> String {
    let mut cols: Vec<String> = columns.iter().map(|c| json::escape(c)).collect();
    cols.push("\"agg\"".to_string());
    let mut body = format!(
        "{{\"generation\": {generation}, \"columns\": [{}], \"row_count\": {}, \"rows\": [",
        cols.join(", "),
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push('[');
        for k in &row.key {
            body.push_str(&k.to_string());
            body.push_str(", ");
        }
        body.push_str(&json::number(row.agg));
        body.push(']');
    }
    body.push_str("]}");
    body
}

/// Quotes one CSV field per RFC 4180: fields containing a comma, a double
/// quote, or a line break are wrapped in double quotes with inner quotes
/// doubled; anything else passes through verbatim.
fn csv_field(field: &str) -> String {
    if field.contains(['"', ',', '\r', '\n']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Renders the CSV body: a header of group-by names + `agg`, then one line
/// per row. Data cells are integers and shortest-round-trip floats, which
/// never need quoting; header cells are attribute names, which may (the
/// schema does not forbid commas or quotes in names), so each one goes
/// through the RFC-4180 escaper.
fn query_rows_csv(columns: &[String], rows: &[QueryRow]) -> String {
    let mut body = String::new();
    for c in columns {
        body.push_str(&csv_field(c));
        body.push(',');
    }
    body.push_str("agg\r\n");
    for row in rows {
        for k in &row.key {
            body.push_str(&k.to_string());
            body.push(',');
        }
        body.push_str(&json::number(row.agg));
        body.push_str("\r\n");
    }
    body
}

/// Parses and validates a `POST /query` body against the loaded schema.
///
/// Accepted shape:
/// ```json
/// {"group_by": ["suppkey"], "where": {"partkey": 3},
///  "ranges": {"timekey": [5, 10]}, "format": "csv"}
/// ```
/// Format precedence: body `"format"` > `?format=` query parameter >
/// `Accept: text/csv` header; default JSON.
///
/// # Errors
/// 400 for malformed JSON, unknown keys/attributes, out-of-domain values,
/// grouped-and-sliced overlap, or a group-by no materialized view derives.
pub fn validate_query_request(
    engine: &dyn ServingEngine,
    req: &Request,
) -> Result<ValidatedQuery, ApiError> {
    let catalog = engine.catalog();
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))?;
    let members = doc
        .as_object()
        .ok_or_else(|| ApiError::bad_request("body must be a JSON object"))?;
    for (key, _) in members {
        if !matches!(key.as_str(), "group_by" | "where" | "ranges" | "format") {
            return Err(ApiError::bad_request(format!(
                "unknown key {key:?} (expected group_by, where, ranges, format)"
            )));
        }
    }

    let mut used: Vec<AttrId> = Vec::new();
    let mut claim = |id: AttrId, name: &str| -> Result<(), ApiError> {
        if used.contains(&id) {
            return Err(ApiError::bad_request(format!(
                "attribute {name:?} appears more than once across group_by/where/ranges"
            )));
        }
        used.push(id);
        Ok(())
    };

    let mut group_by = Vec::new();
    let mut columns = Vec::new();
    if let Some(g) = doc.get("group_by") {
        let items = g
            .as_array()
            .ok_or_else(|| ApiError::bad_request("group_by must be an array of names"))?;
        for item in items {
            let name = item
                .as_str()
                .ok_or_else(|| ApiError::bad_request("group_by entries must be strings"))?;
            let id = resolve_attr(catalog, name)?;
            claim(id, name)?;
            group_by.push(id);
            columns.push(name.to_string());
        }
    }

    let mut predicates = Vec::new();
    if let Some(w) = doc.get("where") {
        let members = w
            .as_object()
            .ok_or_else(|| ApiError::bad_request("where must be an object of name: value"))?;
        for (name, value) in members {
            let id = resolve_attr(catalog, name)?;
            claim(id, name)?;
            let v = value.as_u64().ok_or_else(|| {
                ApiError::bad_request(format!("predicate on {name:?} must be an integer"))
            })?;
            check_domain(catalog, id, name, v)?;
            predicates.push((id, v));
        }
    }

    let mut ranges = Vec::new();
    if let Some(r) = doc.get("ranges") {
        let members = r
            .as_object()
            .ok_or_else(|| ApiError::bad_request("ranges must be an object of name: [lo, hi]"))?;
        for (name, value) in members {
            let id = resolve_attr(catalog, name)?;
            claim(id, name)?;
            let pair = value.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                ApiError::bad_request(format!("range on {name:?} must be a [lo, hi] pair"))
            })?;
            let (lo, hi) = match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => {
                    return Err(ApiError::bad_request(format!(
                        "range bounds on {name:?} must be integers"
                    )))
                }
            };
            if lo > hi {
                return Err(ApiError::bad_request(format!(
                    "range on {name:?} has lo {lo} > hi {hi}"
                )));
            }
            check_domain(catalog, id, name, lo)?;
            check_domain(catalog, id, name, hi)?;
            ranges.push((id, lo, hi));
        }
    }

    if group_by.is_empty() && predicates.is_empty() && ranges.is_empty() {
        return Err(ApiError::bad_request(
            "query must name at least one attribute in group_by, where or ranges",
        ));
    }

    // Fields are pre-checked disjoint (the `claim` pass), so the struct
    // literal upholds SliceQuery::new's contract without its panics.
    let query = SliceQuery { group_by, predicates, ranges };

    // Planability check (covers "bad dimension arity": a group-by set no
    // materialized view derives). Planned against the current generation;
    // views are never dropped by refresh, so a plan that exists now exists
    // in the generation(s) the query eventually pins.
    if let Err(e) = engine.plan_check(&query) {
        return Err(match e {
            CtError::Unsupported(msg) => ApiError::bad_request(msg),
            other => ApiError::internal(format!("planning failed: {other}")),
        });
    }

    let format = requested_format(req, &doc)?;
    Ok(ValidatedQuery { query, columns, format })
}

fn resolve_attr(catalog: &Catalog, name: &str) -> Result<AttrId, ApiError> {
    catalog.attr_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = (0..catalog.attr_count())
            .map(|i| catalog.attr(AttrId(i as u16)).name.as_str())
            .collect();
        ApiError::bad_request(format!(
            "unknown attribute {name:?} (schema has: {})",
            known.join(", ")
        ))
    })
}

fn check_domain(catalog: &Catalog, id: AttrId, name: &str, v: u64) -> Result<(), ApiError> {
    let card = catalog.attr(id).cardinality;
    if v < 1 || v > card {
        return Err(ApiError::bad_request(format!(
            "value {v} out of domain for {name:?} (1..={card})"
        )));
    }
    Ok(())
}

fn requested_format(req: &Request, doc: &Json) -> Result<Format, ApiError> {
    if let Some(f) = doc.get("format") {
        return match f.as_str() {
            Some("json") => Ok(Format::Json),
            Some("csv") => Ok(Format::Csv),
            _ => Err(ApiError::bad_request("format must be \"json\" or \"csv\"")),
        };
    }
    if let Some(f) = req.query_param("format") {
        return match f {
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            _ => Err(ApiError::bad_request("?format= must be json or csv")),
        };
    }
    if req.header("accept").is_some_and(|a| a.contains("text/csv")) {
        return Ok(Format::Csv);
    }
    Ok(Format::Json)
}

/// Handles `POST /refresh`: parse the delta, merge-pack the next generation
/// concurrently with in-flight reads (generation MVCC), report the new
/// generation number.
///
/// Accepted shape:
/// ```json
/// {"attrs": ["partkey", "suppkey", "timekey"],
///  "rows": [[1, 2, 3, 40], [2, 2, 3, 5]]}
/// ```
/// where each row lists one key per attribute followed by the measure.
fn handle_refresh(engine: &dyn ServingEngine, req: &Request) -> Result<Response, ApiError> {
    let delta = parse_fact_body(engine.catalog(), req, "refresh")?;
    let applied = delta.len();
    engine.refresh(&delta).map_err(|e| match e {
        CtError::InvalidArgument(msg) | CtError::Unsupported(msg) => ApiError::bad_request(msg),
        other => ApiError::internal(format!("refresh failed: {other}")),
    })?;
    if !engine.loaded() {
        return Err(ApiError::internal("engine not loaded"));
    }
    let generation = engine.generation();
    Ok(Response::json(
        200,
        format!("{{\"generation\": {generation}, \"applied_rows\": {applied}}}"),
    ))
}

/// Parses the fact-row body shared by `POST /refresh` and `POST /ingest`:
/// `{"attrs": [names...], "rows": [[keys..., measure], ...]}` where each
/// row lists one key per attribute followed by the measure.
fn parse_fact_body(
    catalog: &Catalog,
    req: &Request,
    what: &str,
) -> Result<Relation, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))?;

    let attr_names = doc
        .get("attrs")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request(format!("{what} body needs an \"attrs\" array")))?;
    let mut attrs = Vec::new();
    for a in attr_names {
        let name =
            a.as_str().ok_or_else(|| ApiError::bad_request("attrs entries must be strings"))?;
        let id = resolve_attr(catalog, name)?;
        if attrs.contains(&id) {
            return Err(ApiError::bad_request(format!("duplicate attribute {name:?} in attrs")));
        }
        attrs.push(id);
    }
    if attrs.is_empty() {
        return Err(ApiError::bad_request("attrs must not be empty"));
    }

    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request(format!("{what} body needs a \"rows\" array")))?;
    let mut keys = Vec::with_capacity(rows.len() * attrs.len());
    let mut measures = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_array().filter(|c| c.len() == attrs.len() + 1).ok_or_else(|| {
            ApiError::bad_request(format!(
                "row {i} must be an array of {} keys plus one measure",
                attrs.len()
            ))
        })?;
        for (j, cell) in cells[..attrs.len()].iter().enumerate() {
            let v = cell.as_u64().ok_or_else(|| {
                ApiError::bad_request(format!("row {i} key {j} must be an integer"))
            })?;
            let name = &catalog.attr(attrs[j]).name;
            check_domain(catalog, attrs[j], name, v)?;
            keys.push(v);
        }
        let m = cells[attrs.len()]
            .as_i64()
            .ok_or_else(|| ApiError::bad_request(format!("row {i} measure must be an integer")))?;
        measures.push(m);
    }

    Ok(Relation::from_fact(attrs, keys, &measures))
}

/// Handles `POST /ingest`: stream fact rows into the in-memory delta tier.
/// Accepted rows are visible to queries immediately (merged on top of the
/// pinned generation) and move into the packed trees at the next background
/// compaction. Body shape is identical to `POST /refresh`.
///
/// Backpressure mirrors the read path's admission control: `503` while the
/// server is shutting down (no new rows once the final drain may have
/// started), `429` + `Retry-After` once the resident tier reaches
/// `4 × max_rows` — the compactor is behind, so the client should back off
/// rather than grow the tier without bound.
fn handle_ingest(
    engine: &dyn ServingEngine,
    admission: &Admission,
    config: &IngestConfig,
    req: &Request,
) -> Response {
    if admission.is_shutting_down() {
        return Response::json(503, "{\"error\": \"server is shutting down\"}".to_string());
    }
    let resident =
        engine.delta_stats().map_or(0, |s| s.resident_rows());
    if resident >= config.max_rows.saturating_mul(4) {
        return Response::json(
            429,
            format!(
                "{{\"error\": \"delta tier full ({resident} rows resident), retry later\"}}"
            ),
        )
        .with_header("retry-after", RETRY_AFTER_SECS.to_string());
    }
    let rows = match parse_fact_body(engine.catalog(), req, "ingest") {
        Ok(rows) => rows,
        Err(e) => return e.into_response(),
    };
    let accepted = match engine.ingest(&rows) {
        Ok(n) => n,
        Err(e) => {
            return match e {
                CtError::InvalidArgument(msg) | CtError::Unsupported(msg) => {
                    ApiError::bad_request(msg)
                }
                other => ApiError::internal(format!("ingest failed: {other}")),
            }
            .into_response()
        }
    };
    let stats = engine.delta_stats();
    let (resident, sealed) =
        stats.map_or((0, 0), |s| (s.resident_rows(), s.sealed_tiers as u64));
    let generation = engine.generation();
    Response::json(
        200,
        format!(
            "{{\"accepted_rows\": {accepted}, \"resident_rows\": {resident}, \
             \"sealed_tiers\": {sealed}, \"generation\": {generation}}}"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::{AggFn, ViewDef};
    use cubetree::engine::{CubetreeConfig, CubetreeEngine, RolapEngine};
    use std::sync::Arc;

    fn engine() -> CubetreeEngine {
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("partkey", 10);
        let s = catalog.add_attr("suppkey", 5);
        let views = vec![
            ViewDef::new(0, vec![p, s], AggFn::Sum),
            ViewDef::new(1, vec![s], AggFn::Sum),
        ];
        let mut engine = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
        let fact =
            Relation::from_fact(vec![p, s], vec![1, 1, 2, 2, 3, 1], &[10, 20, 30]);
        engine.load(&fact).unwrap();
        engine
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query_string: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn post_query(body: &str) -> Request {
        post("/query", body)
    }

    struct Ctx {
        engine: Arc<CubetreeEngine>,
        admission: crate::admission::Admission,
        refresh_lock: std::sync::Mutex<()>,
        ingest: IngestConfig,
    }

    fn ctx() -> Ctx {
        let engine = Arc::new(engine());
        let admission = crate::admission::Admission::start(
            engine.clone(),
            crate::admission::AdmissionConfig::default(),
            None,
        );
        Ctx { engine, admission, refresh_lock: std::sync::Mutex::new(()), ingest: IngestConfig::default() }
    }

    impl Ctx {
        fn dispatch(&self, req: &Request) -> Response {
            dispatch(
                self.engine.as_ref(),
                &self.admission,
                &self.refresh_lock,
                &self.ingest,
                req,
            )
        }
    }

    fn body_text(resp: &Response) -> String {
        String::from_utf8(resp.body.clone()).unwrap()
    }

    #[test]
    fn valid_request_produces_a_typed_query() {
        let e = engine();
        let v = validate_query_request(
            &e,
            &post_query(r#"{"group_by": ["suppkey"], "where": {"partkey": 3}}"#),
        )
        .unwrap();
        assert_eq!(v.columns, vec!["suppkey".to_string()]);
        assert_eq!(v.query.group_by.len(), 1);
        assert_eq!(v.query.predicates, vec![(AttrId(0), 3)]);
        assert_eq!(v.format, Format::Json);
    }

    #[test]
    fn format_precedence_body_over_query_param_over_accept() {
        let e = engine();
        let mut req = post_query(r#"{"group_by": ["suppkey"], "format": "csv"}"#);
        req.query_string = "format=json".to_string();
        assert_eq!(validate_query_request(&e, &req).unwrap().format, Format::Csv);
        let mut req = post_query(r#"{"group_by": ["suppkey"]}"#);
        req.query_string = "format=csv".to_string();
        req.headers.push(("accept".to_string(), "application/json".to_string()));
        assert_eq!(validate_query_request(&e, &req).unwrap().format, Format::Csv);
        let mut req = post_query(r#"{"group_by": ["suppkey"]}"#);
        req.headers.push(("accept".to_string(), "text/csv".to_string()));
        assert_eq!(validate_query_request(&e, &req).unwrap().format, Format::Csv);
    }

    #[test]
    fn invalid_requests_are_400_with_reasons() {
        let e = engine();
        for (body, expect) in [
            ("not json at all", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ("{}", "at least one attribute"),
            (r#"{"bogus_key": 1}"#, "unknown key"),
            (r#"{"group_by": ["nope"]}"#, "unknown attribute"),
            (r#"{"group_by": "suppkey"}"#, "must be an array"),
            (r#"{"group_by": [7]}"#, "must be strings"),
            (r#"{"where": {"partkey": 99}}"#, "out of domain"),
            (r#"{"where": {"partkey": 0}}"#, "out of domain"),
            (r#"{"where": {"partkey": 1.5}}"#, "must be an integer"),
            (r#"{"group_by": ["suppkey"], "where": {"suppkey": 1}}"#, "more than once"),
            (r#"{"ranges": {"partkey": [5, 2]}}"#, "lo 5 > hi 2"),
            (r#"{"ranges": {"partkey": [1]}}"#, "[lo, hi] pair"),
            (r#"{"group_by": ["suppkey"], "format": "xml"}"#, "format must be"),
        ] {
            let err = validate_query_request(&e, &post_query(body)).unwrap_err();
            assert_eq!(err.status, 400, "body {body:?} → {}", err.message);
            assert!(err.message.contains(expect), "body {body:?} → {}", err.message);
        }
    }

    #[test]
    fn underivable_group_by_is_400_not_panic() {
        // partkey alone: V{partkey,suppkey} derives it, so that plans; but a
        // view set without a covering parent must 400. Build an engine whose
        // only view is V{suppkey}.
        let mut catalog = Catalog::new();
        let p = catalog.add_attr("partkey", 10);
        let s = catalog.add_attr("suppkey", 5);
        let views = vec![ViewDef::new(0, vec![s], AggFn::Sum)];
        let mut e = CubetreeEngine::new(catalog, CubetreeConfig::new(views)).unwrap();
        e.load(&Relation::from_fact(vec![p, s], vec![1, 1], &[10])).unwrap();
        let err = validate_query_request(&e, &post_query(r#"{"group_by": ["partkey"]}"#))
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("no materialized view"));
    }

    #[test]
    fn csv_rendering_is_plain_and_crlf() {
        let rows = vec![
            QueryRow { key: vec![1], agg: 30.0 },
            QueryRow { key: vec![2], agg: 0.5 },
        ];
        let csv = query_rows_csv(&["suppkey".to_string()], &rows);
        assert_eq!(csv, "suppkey,agg\r\n1,30\r\n2,0.5\r\n");
    }

    #[test]
    fn refresh_survives_a_poisoned_writer_lock() {
        let c = ctx();
        // Poison the writer lock the way a panicking handler thread would.
        {
            let lock_ref: &std::sync::Mutex<()> = &c.refresh_lock;
            std::thread::scope(|s| {
                let _ = s
                    .spawn(|| {
                        let _guard = lock_ref.lock().unwrap();
                        panic!("simulated writer panic");
                    })
                    .join();
            });
        }
        assert!(c.refresh_lock.lock().is_err(), "test setup must actually poison the lock");
        // Old code: `.expect("refresh lock poisoned")` panics here, killing
        // the connection thread. New code: the guard is recovered and the
        // refresh applies normally.
        let resp = c.dispatch(&post(
            "/refresh",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[4, 4, 7]]}"#,
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        assert!(body_text(&resp).contains("\"applied_rows\": 1"));
        // And it keeps serving: a second refresh also succeeds.
        let resp = c.dispatch(&post(
            "/refresh",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[5, 5, 8]]}"#,
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
    }

    #[test]
    fn ingest_accepts_rows_and_reports_residency() {
        let c = ctx();
        let resp = c.dispatch(&post(
            "/ingest",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[4, 4, 7], [5, 5, 8]]}"#,
        ));
        assert_eq!(resp.status, 200, "{}", body_text(&resp));
        let body = body_text(&resp);
        assert!(body.contains("\"accepted_rows\": 2"), "{body}");
        assert!(body.contains("\"resident_rows\": 2"), "{body}");
        // The rows are visible to the very next query, pre-compaction.
        let q = c.dispatch(&post_query(r#"{"where": {"partkey": 4}}"#));
        assert_eq!(q.status, 200, "{}", body_text(&q));
        assert!(body_text(&q).contains("[7]"), "{}", body_text(&q));
        // Bad rows still 400 like /refresh.
        let bad = c.dispatch(&post(
            "/ingest",
            r#"{"attrs": ["partkey"], "rows": [[99, 1]]}"#,
        ));
        assert_eq!(bad.status, 400, "{}", body_text(&bad));
        // GET /ingest is 405.
        let mut get = post("/ingest", "");
        get.method = "GET".to_string();
        assert_eq!(c.dispatch(&get).status, 405);
    }

    #[test]
    fn ingest_backpressure_and_shutdown() {
        let mut c = ctx();
        c.ingest.max_rows = 1;
        for row in ["[4, 4, 7]", "[5, 4, 7]", "[6, 4, 7]", "[7, 4, 7]"] {
            let body = format!(r#"{{"attrs": ["partkey", "suppkey"], "rows": [{row}]}}"#);
            let ok = c.dispatch(&post("/ingest", &body));
            assert_eq!(ok.status, 200, "{}", body_text(&ok));
        }
        // Resident rows now ≥ 4 × max_rows: the next ingest is refused
        // with backpressure, not absorbed.
        let full = c.dispatch(&post(
            "/ingest",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[5, 5, 8]]}"#,
        ));
        assert_eq!(full.status, 429, "{}", body_text(&full));
        assert!(
            full.extra_headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
            "429 advertises retry-after"
        );
        // After shutdown begins, ingest answers 503 regardless of capacity.
        c.admission.shutdown();
        let down = c.dispatch(&post(
            "/ingest",
            r#"{"attrs": ["partkey", "suppkey"], "rows": [[6, 1, 9]]}"#,
        ));
        assert_eq!(down.status, 503, "{}", body_text(&down));
    }

    #[test]
    fn csv_field_quotes_per_rfc4180() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field(""), "");
        assert_eq!(csv_field("has,comma"), "\"has,comma\"");
        assert_eq!(csv_field("has\"quote"), "\"has\"\"quote\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_field("cr\rfield"), "\"cr\rfield\"");
        assert_eq!(csv_field("\"already\""), "\"\"\"already\"\"\"");
    }

    /// A strict RFC-4180 reader for one line, used to prove the writer and
    /// a conforming consumer agree.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut chars = line.chars().peekable();
        loop {
            let mut field = String::new();
            if chars.peek() == Some(&'"') {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') if chars.peek() == Some(&'"') => {
                            chars.next();
                            field.push('"');
                        }
                        Some('"') => break,
                        Some(ch) => field.push(ch),
                        None => panic!("unterminated quoted field"),
                    }
                }
            } else {
                while let Some(&ch) = chars.peek() {
                    if ch == ',' {
                        break;
                    }
                    field.push(ch);
                    chars.next();
                }
            }
            fields.push(field);
            match chars.next() {
                Some(',') => continue,
                None => return fields,
                Some(ch) => panic!("unexpected {ch:?} after field"),
            }
        }
    }

    #[test]
    fn hostile_column_names_round_trip_csv_and_match_json() {
        // Attribute names with CSV metacharacters: commas, quotes, and a
        // line break. Old code emitted them raw, splitting the header into
        // the wrong number of columns.
        let columns = vec![
            "region, detail".to_string(),
            "the \"supp\" key".to_string(),
            "two\nlines".to_string(),
        ];
        let rows = vec![QueryRow { key: vec![1, 2, 3], agg: 4.5 }];
        let csv = query_rows_csv(&columns, &rows);
        let mut lines = csv.split("\r\n");
        let header = parse_csv_line(lines.next().unwrap());
        assert_eq!(header.len(), columns.len() + 1, "header keeps one field per column");
        assert_eq!(&header[..columns.len()], &columns[..], "names survive the round trip");
        assert_eq!(header[columns.len()], "agg");
        // The header carries exactly the same column names as the JSON
        // rendering of the same answer (JSON has its own escaping).
        let json_body = query_rows_json(0, &columns, &rows);
        let doc = Json::parse(&json_body).unwrap();
        let json_cols: Vec<String> = doc
            .get("columns")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap().to_string())
            .collect();
        assert_eq!(&json_cols[..columns.len()], &header[..columns.len()]);
        let data = parse_csv_line(lines.next().unwrap());
        assert_eq!(data, vec!["1", "2", "3", "4.5"]);
    }

    #[test]
    fn json_rendering_matches_shape() {
        let rows = vec![QueryRow { key: vec![1, 2], agg: 7.25 }];
        let body = query_rows_json(3, &["a".to_string(), "b".to_string()], &rows);
        assert_eq!(
            body,
            "{\"generation\": 3, \"columns\": [\"a\", \"b\", \"agg\"], \
             \"row_count\": 1, \"rows\": [[1, 2, 7.25]]}"
        );
        Json::parse(&body).expect("emitted JSON parses");
    }
}
