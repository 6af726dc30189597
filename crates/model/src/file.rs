//! The session-file format.
//!
//! A generated [`Session`] is itself serializable as a JSON document, so
//! that workloads can be stored, shared, linted, and re-run without
//! re-generating them — the same motivation the paper gives for the
//! analysis file (§IV-A). The schema carries everything a consumer needs:
//! the query IR (including full predicate trees, transformations, and
//! aggregations), the dataset dependency graph, the explorer's move
//! trail, and the provenance (seed, configuration label).

use crate::{
    AggFunc, Aggregation, Comparison, DatasetGraph, DatasetId, FilterFn, Move, Predicate, Query,
    Session, Transform,
};
use betze_json::{JsonPointer, Object, Value};
use std::error::Error;
use std::fmt;

/// An error while reading a session file.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionFileError {
    /// The file is not valid JSON.
    Json(betze_json::ParseError),
    /// The JSON does not follow the session schema.
    Schema(String),
}

impl fmt::Display for SessionFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFileError::Json(e) => write!(f, "session file is not valid JSON: {e}"),
            SessionFileError::Schema(msg) => write!(f, "session file schema error: {msg}"),
        }
    }
}

impl Error for SessionFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionFileError::Json(e) => Some(e),
            SessionFileError::Schema(_) => None,
        }
    }
}

impl From<betze_json::ParseError> for SessionFileError {
    fn from(e: betze_json::ParseError) -> Self {
        SessionFileError::Json(e)
    }
}

impl Session {
    /// Serializes the session to its JSON document form.
    pub fn to_value(&self) -> Value {
        let mut root = Object::with_capacity(5);
        // JSON integers here are i64: a seed past i64::MAX is written as
        // a decimal string instead, so every seed round-trips.
        match i64::try_from(self.seed) {
            Ok(seed) => root.insert("seed", seed),
            Err(_) => root.insert("seed", self.seed.to_string()),
        };
        root.insert("config", self.config_label.clone());
        root.insert(
            "queries",
            Value::Array(self.queries.iter().map(query_to_value).collect()),
        );
        root.insert(
            "graph",
            Value::Array(self.graph.nodes().iter().map(node_to_value).collect()),
        );
        root.insert(
            "moves",
            Value::Array(self.moves.iter().map(move_to_value).collect()),
        );
        Value::Object(root)
    }

    /// Serializes to pretty-printed JSON text (the session-file content).
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Reads a session back from its JSON document form.
    pub fn from_value(value: &Value) -> Result<Self, SessionFileError> {
        let obj = value
            .as_object()
            .ok_or_else(|| schema("top level must be an object"))?;
        let seed = obj.get("seed").and_then(seed_from_value).ok_or_else(|| {
            schema("missing field 'seed': a non-negative integer or a decimal string")
        })?;
        let config_label = obj
            .get("config")
            .and_then(Value::as_str)
            .ok_or_else(|| schema("missing string field 'config'"))?
            .to_owned();
        let queries_arr = obj
            .get("queries")
            .and_then(Value::as_array)
            .ok_or_else(|| schema("missing array field 'queries'"))?;
        let mut queries = Vec::with_capacity(queries_arr.len());
        for (i, q) in queries_arr.iter().enumerate() {
            queries.push(query_from_value(q).map_err(|e| schema(&format!("query {i}: {e}")))?);
        }
        let graph_arr = obj
            .get("graph")
            .and_then(Value::as_array)
            .ok_or_else(|| schema("missing array field 'graph'"))?;
        let graph = graph_from_values(graph_arr).map_err(|e| schema(&format!("graph: {e}")))?;
        let moves_arr = obj
            .get("moves")
            .and_then(Value::as_array)
            .ok_or_else(|| schema("missing array field 'moves'"))?;
        let mut moves = Vec::with_capacity(moves_arr.len());
        for (i, m) in moves_arr.iter().enumerate() {
            moves.push(move_from_value(m).map_err(|e| schema(&format!("move {i}: {e}")))?);
        }
        Ok(Session {
            queries,
            graph,
            moves,
            seed,
            config_label,
        })
    }

    /// Parses a session file from JSON text.
    pub fn parse(text: &str) -> Result<Self, SessionFileError> {
        let value = betze_json::parse(text)?;
        Self::from_value(&value)
    }
}

/// A seed as [`Session::to_value`] writes it: a non-negative integer,
/// or a string of decimal digits for seeds past `i64::MAX`.
fn seed_from_value(value: &Value) -> Option<u64> {
    match value {
        Value::String(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
            s.parse().ok()
        }
        _ => value.as_i64().and_then(|s| u64::try_from(s).ok()),
    }
}

fn schema(msg: &str) -> SessionFileError {
    SessionFileError::Schema(msg.to_owned())
}

fn query_to_value(query: &Query) -> Value {
    let mut out = Object::with_capacity(5);
    out.insert("base", query.base.clone());
    if let Some(store) = &query.store_as {
        out.insert("store_as", store.clone());
    }
    if let Some(filter) = &query.filter {
        out.insert("filter", predicate_to_value(filter));
    }
    if !query.transforms.is_empty() {
        out.insert(
            "transforms",
            Value::Array(query.transforms.iter().map(transform_to_value).collect()),
        );
    }
    if let Some(agg) = &query.aggregation {
        out.insert("aggregation", aggregation_to_value(agg));
    }
    Value::Object(out)
}

fn query_from_value(value: &Value) -> Result<Query, String> {
    let obj = value.as_object().ok_or("query must be an object")?;
    let base = obj
        .get("base")
        .and_then(Value::as_str)
        .ok_or("missing string field 'base'")?;
    let mut query = Query::scan(base);
    if let Some(store) = obj.get("store_as") {
        query.store_as = Some(
            store
                .as_str()
                .ok_or("'store_as' must be a string")?
                .to_owned(),
        );
    }
    if let Some(filter) = obj.get("filter") {
        query.filter = Some(predicate_from_value(filter)?);
    }
    if let Some(transforms) = obj.get("transforms") {
        let arr = transforms
            .as_array()
            .ok_or("'transforms' must be an array")?;
        for t in arr {
            query.transforms.push(transform_from_value(t)?);
        }
    }
    if let Some(agg) = obj.get("aggregation") {
        query.aggregation = Some(aggregation_from_value(agg)?);
    }
    Ok(query)
}

/// Serializes a predicate tree: `{"and": [l, r]}`, `{"or": [l, r]}`, or a
/// leaf object carrying a `"filter"` discriminator.
fn predicate_to_value(p: &Predicate) -> Value {
    match p {
        Predicate::And(l, r) => {
            let mut out = Object::with_capacity(1);
            out.insert(
                "and",
                Value::Array(vec![predicate_to_value(l), predicate_to_value(r)]),
            );
            Value::Object(out)
        }
        Predicate::Or(l, r) => {
            let mut out = Object::with_capacity(1);
            out.insert(
                "or",
                Value::Array(vec![predicate_to_value(l), predicate_to_value(r)]),
            );
            Value::Object(out)
        }
        Predicate::Leaf(f) => filter_to_value(f),
    }
}

fn predicate_from_value(value: &Value) -> Result<Predicate, String> {
    let obj = value.as_object().ok_or("predicate must be an object")?;
    for (key, ctor) in [
        (
            "and",
            Predicate::and as fn(Predicate, Predicate) -> Predicate,
        ),
        ("or", Predicate::or),
    ] {
        if let Some(children) = obj.get(key) {
            let arr = children
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("'{key}' must be a two-element array"))?;
            let left = predicate_from_value(&arr[0])?;
            let right = predicate_from_value(&arr[1])?;
            return Ok(ctor(left, right));
        }
    }
    Ok(Predicate::Leaf(filter_from_value(value)?))
}

fn filter_to_value(f: &FilterFn) -> Value {
    let mut out = Object::with_capacity(4);
    let kind = match f {
        FilterFn::Exists { .. } => "exists",
        FilterFn::IsString { .. } => "is_string",
        FilterFn::IntEq { .. } => "int_eq",
        FilterFn::FloatCmp { .. } => "float_cmp",
        FilterFn::StrEq { .. } => "str_eq",
        FilterFn::HasPrefix { .. } => "has_prefix",
        FilterFn::BoolEq { .. } => "bool_eq",
        FilterFn::ArrSize { .. } => "arr_size",
        FilterFn::ObjSize { .. } => "obj_size",
    };
    out.insert("filter", kind);
    out.insert("path", f.path().to_string());
    match f {
        FilterFn::Exists { .. } | FilterFn::IsString { .. } => {}
        FilterFn::IntEq { value, .. } => {
            out.insert("value", *value);
        }
        FilterFn::FloatCmp { op, value, .. } => {
            out.insert("op", op.symbol());
            out.insert("value", *value);
        }
        FilterFn::StrEq { value, .. } => {
            out.insert("value", value.clone());
        }
        FilterFn::HasPrefix { prefix, .. } => {
            out.insert("prefix", prefix.clone());
        }
        FilterFn::BoolEq { value, .. } => {
            out.insert("value", *value);
        }
        FilterFn::ArrSize { op, value, .. } | FilterFn::ObjSize { op, value, .. } => {
            out.insert("op", op.symbol());
            out.insert("value", *value);
        }
    }
    Value::Object(out)
}

fn parse_comparison(text: &str) -> Result<Comparison, String> {
    Comparison::ALL
        .into_iter()
        .find(|op| op.symbol() == text)
        .ok_or_else(|| format!("unknown comparison operator {text:?}"))
}

fn filter_from_value(value: &Value) -> Result<FilterFn, String> {
    let obj = value.as_object().ok_or("filter must be an object")?;
    let kind = obj
        .get("filter")
        .and_then(Value::as_str)
        .ok_or("missing string field 'filter'")?;
    let path_text = obj
        .get("path")
        .and_then(Value::as_str)
        .ok_or("missing string field 'path'")?;
    let path =
        JsonPointer::parse(path_text).map_err(|e| format!("invalid path {path_text:?}: {e}"))?;
    let int_value = || {
        obj.get("value")
            .and_then(Value::as_i64)
            .ok_or("missing integer field 'value'")
    };
    let op = || {
        obj.get("op")
            .and_then(Value::as_str)
            .ok_or("missing string field 'op'".to_owned())
            .and_then(parse_comparison)
    };
    Ok(match kind {
        "exists" => FilterFn::Exists { path },
        "is_string" => FilterFn::IsString { path },
        "int_eq" => FilterFn::IntEq {
            path,
            value: int_value()?,
        },
        "float_cmp" => FilterFn::FloatCmp {
            path,
            op: op()?,
            value: obj
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("missing numeric field 'value'")?,
        },
        "str_eq" => FilterFn::StrEq {
            path,
            value: obj
                .get("value")
                .and_then(Value::as_str)
                .ok_or("missing string field 'value'")?
                .to_owned(),
        },
        "has_prefix" => FilterFn::HasPrefix {
            path,
            prefix: obj
                .get("prefix")
                .and_then(Value::as_str)
                .ok_or("missing string field 'prefix'")?
                .to_owned(),
        },
        "bool_eq" => FilterFn::BoolEq {
            path,
            value: obj
                .get("value")
                .and_then(Value::as_bool)
                .ok_or("missing boolean field 'value'")?,
        },
        "arr_size" => FilterFn::ArrSize {
            path,
            op: op()?,
            value: int_value()?,
        },
        "obj_size" => FilterFn::ObjSize {
            path,
            op: op()?,
            value: int_value()?,
        },
        other => return Err(format!("unknown filter kind {other:?}")),
    })
}

fn transform_to_value(t: &Transform) -> Value {
    let mut out = Object::with_capacity(3);
    match t {
        Transform::Rename { from, to } => {
            out.insert("transform", "rename");
            out.insert("from", from.to_string());
            out.insert("to", to.clone());
        }
        Transform::Remove { path } => {
            out.insert("transform", "remove");
            out.insert("path", path.to_string());
        }
        Transform::Add { path, value } => {
            out.insert("transform", "add");
            out.insert("path", path.to_string());
            out.insert("value", value.clone());
        }
    }
    Value::Object(out)
}

fn transform_from_value(value: &Value) -> Result<Transform, String> {
    let obj = value.as_object().ok_or("transform must be an object")?;
    let kind = obj
        .get("transform")
        .and_then(Value::as_str)
        .ok_or("missing string field 'transform'")?;
    let pointer = |field: &str| -> Result<JsonPointer, String> {
        let text = obj
            .get(field)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing string field '{field}'"))?;
        JsonPointer::parse(text).map_err(|e| format!("invalid path {text:?}: {e}"))
    };
    Ok(match kind {
        "rename" => Transform::Rename {
            from: pointer("from")?,
            to: obj
                .get("to")
                .and_then(Value::as_str)
                .ok_or("missing string field 'to'")?
                .to_owned(),
        },
        "remove" => Transform::Remove {
            path: pointer("path")?,
        },
        "add" => Transform::Add {
            path: pointer("path")?,
            value: obj.get("value").cloned().ok_or("missing field 'value'")?,
        },
        other => return Err(format!("unknown transform kind {other:?}")),
    })
}

fn aggregation_to_value(agg: &Aggregation) -> Value {
    let mut out = Object::with_capacity(4);
    let (func, path) = match &agg.func {
        AggFunc::Count { path } => ("count", path),
        AggFunc::Sum { path } => ("sum", path),
    };
    out.insert("func", func);
    out.insert("path", path.to_string());
    if let Some(group) = &agg.group_by {
        out.insert("group_by", group.to_string());
    }
    out.insert("alias", agg.alias.clone());
    Value::Object(out)
}

fn aggregation_from_value(value: &Value) -> Result<Aggregation, String> {
    let obj = value.as_object().ok_or("aggregation must be an object")?;
    let path_text = obj
        .get("path")
        .and_then(Value::as_str)
        .ok_or("missing string field 'path'")?;
    let path =
        JsonPointer::parse(path_text).map_err(|e| format!("invalid path {path_text:?}: {e}"))?;
    let func = match obj.get("func").and_then(Value::as_str) {
        Some("count") => AggFunc::Count { path },
        Some("sum") => AggFunc::Sum { path },
        Some(other) => return Err(format!("unknown aggregation function {other:?}")),
        None => return Err("missing string field 'func'".to_owned()),
    };
    let alias = obj
        .get("alias")
        .and_then(Value::as_str)
        .ok_or("missing string field 'alias'")?
        .to_owned();
    let mut agg = Aggregation::new(func, alias);
    if let Some(group) = obj.get("group_by") {
        let text = group.as_str().ok_or("'group_by' must be a string")?;
        agg.group_by =
            Some(JsonPointer::parse(text).map_err(|e| format!("invalid path {text:?}: {e}"))?);
    }
    Ok(agg)
}

fn node_to_value(node: &crate::DatasetNode) -> Value {
    let mut out = Object::with_capacity(4);
    out.insert("name", node.name.clone());
    if let Some(parent) = node.parent {
        out.insert("parent", parent.0 as i64);
    }
    if let Some(q) = node.created_by_query {
        out.insert("query", q as i64);
    }
    out.insert("estimated_count", node.estimated_count);
    Value::Object(out)
}

/// Rebuilds the graph node-by-node; parents must precede children, which
/// holds by construction ([`DatasetGraph`] ids are creation-ordered).
fn graph_from_values(values: &[Value]) -> Result<DatasetGraph, String> {
    let mut graph = DatasetGraph::new();
    for (i, v) in values.iter().enumerate() {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("node {i} must be an object"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("node {i}: missing string field 'name'"))?;
        let estimated = obj
            .get("estimated_count")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("node {i}: missing numeric field 'estimated_count'"))?;
        match obj.get("parent") {
            None => {
                graph.add_base(name, estimated);
            }
            Some(parent) => {
                let parent = parent
                    .as_i64()
                    .filter(|p| *p >= 0 && (*p as usize) < i)
                    .ok_or_else(|| format!("node {i}: 'parent' must name an earlier node"))?;
                let query = obj
                    .get("query")
                    .and_then(Value::as_i64)
                    .filter(|q| *q >= 0)
                    .ok_or_else(|| {
                        format!("node {i}: derived nodes need a non-negative 'query' index")
                    })?;
                graph.add_derived(DatasetId(parent as usize), name, query as usize, estimated);
            }
        }
    }
    Ok(graph)
}

fn move_to_value(mv: &Move) -> Value {
    let pair = |a: &str, x: DatasetId, b: &str, y: DatasetId| {
        let mut inner = Object::with_capacity(2);
        inner.insert(a, x.0 as i64);
        inner.insert(b, y.0 as i64);
        inner
    };
    match mv {
        Move::Explore { on, created } => {
            let mut out = Object::with_capacity(1);
            out.insert("explore", pair("on", *on, "created", *created));
            Value::Object(out)
        }
        Move::Return { from, to } => {
            let mut out = Object::with_capacity(1);
            out.insert("return", pair("from", *from, "to", *to));
            Value::Object(out)
        }
        Move::Jump { from, to } => {
            let mut out = Object::with_capacity(1);
            out.insert("jump", pair("from", *from, "to", *to));
            Value::Object(out)
        }
        Move::Stop => Value::from("stop"),
    }
}

fn move_from_value(value: &Value) -> Result<Move, String> {
    if value.as_str() == Some("stop") {
        return Ok(Move::Stop);
    }
    let obj = value
        .as_object()
        .ok_or("move must be \"stop\" or an object")?;
    let id = |inner: &Object, field: &str| -> Result<DatasetId, String> {
        inner
            .get(field)
            .and_then(Value::as_i64)
            .filter(|v| *v >= 0)
            .map(|v| DatasetId(v as usize))
            .ok_or_else(|| format!("missing non-negative integer field '{field}'"))
    };
    if let Some(inner) = obj.get("explore").and_then(Value::as_object) {
        return Ok(Move::Explore {
            on: id(inner, "on")?,
            created: id(inner, "created")?,
        });
    }
    if let Some(inner) = obj.get("return").and_then(Value::as_object) {
        return Ok(Move::Return {
            from: id(inner, "from")?,
            to: id(inner, "to")?,
        });
    }
    if let Some(inner) = obj.get("jump").and_then(Value::as_object) {
        return Ok(Move::Jump {
            from: id(inner, "from")?,
            to: id(inner, "to")?,
        });
    }
    Err("unknown move kind".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::json;

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    /// A session exercising every IR feature: all nine filter kinds,
    /// nested AND/OR, all three transforms, grouped and ungrouped
    /// aggregations, stores, multi-node graph, every move kind.
    fn kitchen_sink() -> Session {
        let mut graph = DatasetGraph::new();
        let a = graph.add_base("twitter", 1000.0);
        let b = graph.add_derived(a, "twitter_1", 0, 420.5);
        let c = graph.add_derived(b, "twitter_2", 1, 99.25);
        let all_filters = Predicate::leaf(FilterFn::Exists { path: ptr("/a") })
            .and(Predicate::leaf(FilterFn::IsString { path: ptr("/b") }))
            .or(Predicate::leaf(FilterFn::IntEq {
                path: ptr("/c"),
                value: -7,
            })
            .and(Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/d"),
                op: Comparison::Ge,
                value: 0.25,
            })))
            .and(
                Predicate::leaf(FilterFn::StrEq {
                    path: ptr("/e"),
                    value: "it's \"quoted\"\\".into(),
                })
                .or(Predicate::leaf(FilterFn::HasPrefix {
                    path: ptr("/f"),
                    prefix: "pre".into(),
                })),
            )
            .and(
                Predicate::leaf(FilterFn::BoolEq {
                    path: ptr("/g"),
                    value: false,
                })
                .or(Predicate::leaf(FilterFn::ArrSize {
                    path: ptr("/h"),
                    op: Comparison::Lt,
                    value: 4,
                })
                .or(Predicate::leaf(FilterFn::ObjSize {
                    path: ptr("/i"),
                    op: Comparison::Eq,
                    value: 2,
                }))),
            );
        let q0 = Query::scan("twitter")
            .with_filter(all_filters)
            .store_as("twitter_1");
        let q1 = Query::scan("twitter_1")
            .with_filter(Predicate::leaf(FilterFn::Exists {
                path: ptr("/x~0y/0/sl~1ash"),
            }))
            .with_transform(Transform::Rename {
                from: ptr("/old"),
                to: "new".into(),
            })
            .with_transform(Transform::Remove { path: ptr("/tmp") })
            .with_transform(Transform::Add {
                path: ptr("/tag"),
                value: json!({ "v": [1, 2.5, null] }),
            })
            .store_as("twitter_2");
        let q2 = Query::scan("twitter").with_aggregation(Aggregation::grouped(
            AggFunc::Sum { path: ptr("/n") },
            ptr("/group"),
            "total",
        ));
        Session {
            queries: vec![q0, q1, q2],
            graph,
            moves: vec![
                Move::Explore { on: a, created: b },
                Move::Explore { on: b, created: c },
                Move::Return { from: c, to: b },
                Move::Jump { from: b, to: a },
                Move::Stop,
            ],
            seed: 987_654_321,
            config_label: "kitchen-sink".into(),
        }
    }

    #[test]
    fn round_trip_through_json_text() {
        let session = kitchen_sink();
        let text = session.to_json();
        let back = Session::parse(&text).unwrap();
        assert_eq!(back, session);
    }

    #[test]
    fn seeds_past_i64_round_trip_as_decimal_strings() {
        for seed in [u64::MAX, 1 << 63, i64::MAX as u64, 0] {
            let session = Session {
                seed,
                ..kitchen_sink()
            };
            let back = Session::parse(&session.to_json()).unwrap();
            assert_eq!(back.seed, seed);
            assert_eq!(back, session);
        }
        // Below 2^63 the seed stays a JSON integer, byte for byte.
        let low = kitchen_sink().to_json();
        assert!(low.contains("\"seed\": 987654321"), "{low}");
        let max = Session {
            seed: u64::MAX,
            ..kitchen_sink()
        };
        assert_eq!(
            max.to_value().get("seed").and_then(Value::as_str),
            Some("18446744073709551615")
        );
        // Either form is read; anything else is refused.
        let file = |seed: &str| {
            format!(r#"{{"seed":{seed},"config":"x","queries":[],"graph":[],"moves":[]}}"#)
        };
        assert_eq!(Session::parse(&file(r#""42""#)).unwrap().seed, 42);
        for bad in [
            r#""-1""#,
            r#""+5""#,
            r#""""#,
            r#""18446744073709551616""#,
            "1.5",
        ] {
            assert!(
                matches!(Session::parse(&file(bad)), Err(SessionFileError::Schema(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn file_shape_is_stable() {
        let v = kitchen_sink().to_value();
        assert_eq!(v.get("seed").and_then(Value::as_i64), Some(987_654_321));
        assert_eq!(
            v.get("config").and_then(Value::as_str),
            Some("kitchen-sink")
        );
        let queries = v.get("queries").unwrap().as_array().unwrap();
        assert_eq!(queries.len(), 3);
        assert_eq!(
            queries[0].get("store_as").and_then(Value::as_str),
            Some("twitter_1")
        );
        let graph = v.get("graph").unwrap().as_array().unwrap();
        assert!(graph[0].get("parent").is_none());
        assert_eq!(graph[1].get("parent").and_then(Value::as_i64), Some(0));
        let moves = v.get("moves").unwrap().as_array().unwrap();
        assert_eq!(moves.last().unwrap().as_str(), Some("stop"));
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(matches!(
            Session::parse("not json"),
            Err(SessionFileError::Json(_))
        ));
        for bad in [
            "[]",
            r#"{"seed":1,"config":"x","queries":[],"graph":[]}"#,
            r#"{"seed":-1,"config":"x","queries":[],"graph":[],"moves":[]}"#,
            r#"{"seed":1,"config":"x","queries":[{"base":"b","filter":{"filter":"nope","path":"/a"}}],"graph":[],"moves":[]}"#,
            r#"{"seed":1,"config":"x","queries":[{"base":"b","filter":{"filter":"float_cmp","path":"/a","op":"!=","value":1}}],"graph":[],"moves":[]}"#,
            r#"{"seed":1,"config":"x","queries":[],"graph":[{"name":"d","parent":5,"query":0,"estimated_count":1}],"moves":[]}"#,
            r#"{"seed":1,"config":"x","queries":[],"graph":[],"moves":[{"warp":{}}]}"#,
        ] {
            assert!(
                matches!(Session::parse(bad), Err(SessionFileError::Schema(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn error_messages_carry_location() {
        let err = Session::parse(
            r#"{"seed":1,"config":"x","queries":[{"base":"b"},{"base":7}],"graph":[],"moves":[]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("query 1"), "{err}");
    }
}
