//! The request handlers: pure functions from `(&ModelIndex, query)` to
//! a [`Response`].
//!
//! Handlers never touch the filesystem, the durable store, a clock, or
//! the environment — the `blocking-io-in-handler` workspace lint denies
//! any call path from a `handle_*` fn here to `fs::*` or the durable
//! layer, so a slow snapshot load can never ride a request thread.
//! Snapshot loads happen only in [`crate::loader`] on the swap path.
//!
//! Response bodies are rendered from `BTreeMap`-ordered data with no
//! floats (ratios are integer permille), so a body is a pure function
//! of (index generation, request): byte-identical at any worker count.

use crate::http::{Request, Response};
use crate::index::ModelIndex;
use logdep::evolution::Churn;
use serde_json::Value;
use std::collections::BTreeMap;

type Query = BTreeMap<String, String>;

/// Routes a parsed request against the index. Returns `None` for paths
/// the pure layer does not own (server-level endpoints like
/// `/v1/metrics` and `/admin/reload`).
pub fn handle_request(index: &ModelIndex, req: &Request) -> Option<Response> {
    if req.method != "GET" {
        return Some(Response::error(405, "only GET is supported"));
    }
    match req.path.as_str() {
        "/v1/pair" => Some(handle_pair(index, &req.query)),
        "/v1/impact" => Some(handle_impact(index, &req.query)),
        "/v1/diff" => Some(handle_diff(index, &req.query)),
        "/v1/churn" => Some(handle_churn(index, &req.query)),
        "/v1/model" => Some(handle_model(index)),
        "/v1/report" => Some(handle_report(index)),
        "/healthz" => Some(Response::text(200, "ok\n")),
        _ => None,
    }
}

/// `GET /v1/pair?src=A&dst=B` — per-detector evidence for one pair.
pub fn handle_pair(index: &ModelIndex, query: &Query) -> Response {
    let (Some(src), Some(dst)) = (query.get("src"), query.get("dst")) else {
        return Response::error(400, "need src and dst query parameters");
    };
    let Some(ev) = index.pair_evidence(src, dst) else {
        return Response::error(404, "unknown src");
    };
    json_ok(Value::Object(vec![
        ("generation".into(), Value::U64(index.generation())),
        ("src".into(), Value::Str(src.clone())),
        ("dst".into(), Value::Str(dst.clone())),
        (
            "detectors".into(),
            Value::Object(vec![
                ("l1".into(), Value::Bool(ev.l1)),
                ("l2".into(), Value::Bool(ev.l2)),
                ("l3".into(), Value::Bool(ev.l3)),
            ]),
        ),
        ("detected".into(), Value::Bool(ev.detected())),
        (
            "days_seen".into(),
            Value::Array(ev.days_seen.iter().map(|&d| Value::I64(d)).collect()),
        ),
    ]))
}

/// `GET /v1/impact?app=A&depth=k` — transitive dependents BFS.
pub fn handle_impact(index: &ModelIndex, query: &Query) -> Response {
    let Some(app) = query.get("app") else {
        return Response::error(400, "need app query parameter");
    };
    let depth = match parse_or(query, "depth", 8usize) {
        Ok(d) if d >= 1 => d,
        Ok(_) => return Response::error(400, "depth must be >= 1"),
        Err(r) => return r,
    };
    if !index.knows(app) {
        return Response::error(404, "unknown app");
    }
    let impacted = index.impact(app, depth);
    json_ok(Value::Object(vec![
        ("generation".into(), Value::U64(index.generation())),
        ("app".into(), Value::Str(app.clone())),
        ("depth".into(), Value::U64(depth as u64)),
        (
            "dependencies".into(),
            Value::Array(
                index
                    .dependencies(app)
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        (
            "impacted".into(),
            Value::Array(
                impacted
                    .iter()
                    .map(|(name, dist)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.clone())),
                            ("distance".into(), Value::U64(*dist as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("count".into(), Value::U64(impacted.len() as u64)),
    ]))
}

/// `GET /v1/diff?from=dayN&to=dayM` — per-layer churn between two
/// mined snapshots (`evolution::churn` per layer).
pub fn handle_diff(index: &ModelIndex, query: &Query) -> Response {
    let (Some(from_raw), Some(to_raw)) = (query.get("from"), query.get("to")) else {
        return Response::error(400, "need from and to query parameters");
    };
    let (Some(from), Some(to)) = (parse_day(from_raw), parse_day(to_raw)) else {
        return Response::error(400, "from/to must be day numbers like 3 or day3");
    };
    let Some(churn) = index.churn_between(from, to) else {
        return Response::error(404, "one or both days were not mined");
    };
    let pair_label = |(a, b)| (index.source_label(a), index.source_label(b));
    json_ok(Value::Object(vec![
        ("generation".into(), Value::U64(index.generation())),
        ("from".into(), Value::I64(from)),
        ("to".into(), Value::I64(to)),
        ("l1".into(), churn_value(&churn.l1, pair_label)),
        ("l2".into(), churn_value(&churn.l2, pair_label)),
        (
            "l3".into(),
            churn_value(&churn.l3, |(app, svc)| {
                (index.source_label(app), index.service_label(svc))
            }),
        ),
    ]))
}

/// `GET /v1/churn?top=K` — adjacent-day transitions ranked by movement.
pub fn handle_churn(index: &ModelIndex, query: &Query) -> Response {
    let top = match parse_or(query, "top", 5usize) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let transitions = index.top_churn(top);
    json_ok(Value::Object(vec![
        ("generation".into(), Value::U64(index.generation())),
        ("top".into(), Value::U64(top as u64)),
        (
            "transitions".into(),
            Value::Array(
                transitions
                    .iter()
                    .map(|t| {
                        Value::Object(vec![
                            ("from".into(), Value::I64(t.from)),
                            ("to".into(), Value::I64(t.to)),
                            ("n_changes".into(), Value::U64(t.n_changes as u64)),
                            ("n_stable".into(), Value::U64(t.n_stable as u64)),
                            (
                                "stability_permille".into(),
                                Value::U64(t.stability_permille),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// `GET /v1/model` — summary of the live index.
pub fn handle_model(index: &ModelIndex) -> Response {
    let latest = index.latest();
    json_ok(Value::Object(vec![
        ("generation".into(), Value::U64(index.generation())),
        ("sources".into(), Value::U64(index.n_sources() as u64)),
        (
            "services".into(),
            Value::U64(index.service_ids().len() as u64),
        ),
        (
            "days".into(),
            Value::Array(index.days().map(|d| Value::I64(d.day)).collect()),
        ),
        (
            "latest".into(),
            match latest {
                None => Value::Null,
                Some(d) => Value::Object(vec![
                    ("day".into(), Value::I64(d.day)),
                    ("end_day".into(), Value::I64(d.end_day)),
                    ("l1_pairs".into(), Value::U64(d.l1.len() as u64)),
                    ("l2_pairs".into(), Value::U64(d.l2.len() as u64)),
                    ("l3_deps".into(), Value::U64(d.l3.len() as u64)),
                ]),
            },
        ),
    ]))
}

/// `GET /v1/report` — the `logdep-obs` RunReport captured when this
/// index generation was built.
pub fn handle_report(index: &ModelIndex) -> Response {
    Response::json(200, index.report_json().to_owned())
}

/// One layer's churn as JSON; `label` names both ends of an edge.
fn churn_value<E: Copy + Ord>(churn: &Churn<E>, label: impl Fn(E) -> (String, String)) -> Value {
    let edges = |set: &[E]| {
        Value::Array(
            set.iter()
                .map(|&e| {
                    let (from, to) = label(e);
                    Value::Array(vec![Value::Str(from), Value::Str(to)])
                })
                .collect(),
        )
    };
    let stable = churn.stable.len();
    Value::Object(vec![
        ("appeared".into(), edges(&churn.appeared)),
        ("disappeared".into(), edges(&churn.disappeared)),
        ("stable_count".into(), Value::U64(stable as u64)),
        (
            "stability_permille".into(),
            Value::U64(crate::index::permille(stable, stable + churn.n_changes())),
        ),
    ])
}

/// Accepts `7`, `day7`, or `-2` (windows may start before the epoch).
fn parse_day(raw: &str) -> Option<i64> {
    raw.strip_prefix("day").unwrap_or(raw).parse().ok()
}

fn parse_or<T: std::str::FromStr>(query: &Query, key: &str, default: T) -> Result<T, Response> {
    match query.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("bad value for {key}"))),
    }
}

fn json_ok(value: Value) -> Response {
    match serde_json::to_string(&value) {
        Ok(body) => Response::json(200, body),
        Err(_) => Response::error(500, "response rendering failed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            keep_alive: true,
        }
    }

    #[test]
    fn unknown_path_is_not_ours() {
        let idx = ModelIndex::empty(1);
        assert!(handle_request(&idx, &get("/v1/nope", &[])).is_none());
    }

    #[test]
    fn pair_requires_params() {
        let idx = ModelIndex::empty(1);
        let resp = handle_pair(&idx, &get("/v1/pair", &[]).query);
        assert_eq!(resp.status, 400);
        let resp = handle_pair(&idx, &get("/v1/pair", &[("src", "a"), ("dst", "b")]).query);
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn model_summary_on_empty_index() {
        let idx = ModelIndex::empty(3);
        let resp = handle_model(&idx);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).expect("utf8");
        assert!(body.contains("\"generation\":3"));
        assert!(body.contains("\"latest\":null"));
    }

    #[test]
    fn day_prefix_is_tolerated() {
        assert_eq!(parse_day("7"), Some(7));
        assert_eq!(parse_day("day7"), Some(7));
        assert_eq!(parse_day("-2"), Some(-2));
        assert_eq!(parse_day("dayX"), None);
    }
}
