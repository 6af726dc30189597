//! Aggregation functions and their executable semantics.
//!
//! Paper §III-A: BETZE can generate aggregation queries with the functions
//! `COUNT(<ptr>)`, `SUM(<ptr>)`, and `<Agg> GROUP BY <ptr>` where the
//! grouping attribute is numerical, string, or boolean.

use betze_json::{JsonPointer, Number, Object, Value};
use std::collections::HashMap;
use std::fmt;

/// An aggregation function applied to a document set.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(<ptr>)` — counts the documents in which the attribute exists.
    /// With the root pointer (`''`, as in Listing 1) it counts all
    /// documents.
    Count { path: JsonPointer },
    /// `SUM(<ptr>)` — sums the numerical attribute where it exists.
    Sum { path: JsonPointer },
}

impl AggFunc {
    /// The attribute path the function reads.
    pub fn path(&self) -> &JsonPointer {
        match self {
            AggFunc::Count { path } | AggFunc::Sum { path } => path,
        }
    }

    /// The function's name as used in reports and the JODA syntax.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count { .. } => "COUNT",
            AggFunc::Sum { .. } => "SUM",
        }
    }

    /// Folds the function over a document iterator.
    pub fn eval<'a>(&self, docs: impl IntoIterator<Item = &'a Value>) -> Value {
        match self {
            AggFunc::Count { path } => {
                let n = docs
                    .into_iter()
                    .filter(|d| path.is_root() || path.exists_in(d))
                    .count();
                Value::from(n)
            }
            AggFunc::Sum { path } => {
                let mut int_sum: i64 = 0;
                let mut float_sum: f64 = 0.0;
                let mut saw_float = false;
                let mut overflowed = false;
                for doc in docs {
                    match path.resolve(doc) {
                        Some(Value::Number(Number::Int(i))) => {
                            if !overflowed {
                                match int_sum.checked_add(*i) {
                                    Some(s) => int_sum = s,
                                    None => overflowed = true,
                                }
                            }
                            float_sum += *i as f64;
                        }
                        Some(Value::Number(Number::Float(f))) => {
                            saw_float = true;
                            float_sum += f;
                        }
                        _ => {}
                    }
                }
                if saw_float || overflowed {
                    Value::Number(Number::Float(float_sum))
                } else {
                    Value::Number(Number::Int(int_sum))
                }
            }
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}('{}')", self.name(), self.path())
    }
}

/// A grouping key value. The paper restricts `GROUP BY` attributes to
/// numerical, string, or boolean types; documents whose grouping attribute
/// is missing or of another type fall into [`GroupKey::Other`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// Grouping attribute absent or of a non-groupable type; rendered as
    /// `null` in results (MongoDB's `$group` behaves the same way).
    Other,
    /// A boolean key.
    Bool(bool),
    /// A numeric key (canonicalized through its bit pattern for hashing;
    /// constructed only from finite values).
    Num(OrderedF64),
    /// A string key.
    Str(String),
}

/// An `f64` wrapper with total equality/ordering, valid for finite values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let f = if self.0 == 0.0 { 0.0 } else { self.0 };
        f.to_bits().hash(state);
    }
}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl GroupKey {
    /// Extracts the grouping key for a document.
    pub fn of(doc: &Value, path: &JsonPointer) -> GroupKey {
        GroupKey::from_resolved(path.resolve(doc))
    }

    /// Classifies an already-resolved grouping attribute. Compiled
    /// engines that resolve paths themselves (betze-vm) use this so key
    /// extraction stays byte-identical to [`GroupKey::of`].
    pub fn from_resolved(value: Option<&Value>) -> GroupKey {
        match value {
            Some(Value::Bool(b)) => GroupKey::Bool(*b),
            Some(Value::Number(n)) => GroupKey::Num(OrderedF64(n.as_f64())),
            Some(Value::String(s)) => GroupKey::Str(s.clone()),
            _ => GroupKey::Other,
        }
    }

    /// The key as a JSON value (for rendering grouped results).
    pub fn to_value(&self) -> Value {
        match self {
            GroupKey::Other => Value::Null,
            GroupKey::Bool(b) => Value::Bool(*b),
            GroupKey::Num(OrderedF64(f)) => {
                if f.fract() == 0.0 && f.abs() < i64::MAX as f64 {
                    Value::Number(Number::Int(*f as i64))
                } else {
                    Value::Number(Number::Float(*f))
                }
            }
            GroupKey::Str(s) => Value::String(s.clone()),
        }
    }
}

/// An aggregation step: a function plus an optional `GROUP BY` attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// The aggregation function.
    pub func: AggFunc,
    /// Optional grouping attribute (numerical, string or boolean).
    pub group_by: Option<JsonPointer>,
    /// Name of the output attribute (`AS count` in Listing 1).
    pub alias: String,
}

impl Aggregation {
    /// An ungrouped aggregation.
    pub fn new(func: AggFunc, alias: impl Into<String>) -> Self {
        Aggregation {
            func,
            group_by: None,
            alias: alias.into(),
        }
    }

    /// A grouped aggregation.
    pub fn grouped(func: AggFunc, group_by: JsonPointer, alias: impl Into<String>) -> Self {
        Aggregation {
            func,
            group_by: Some(group_by),
            alias: alias.into(),
        }
    }

    /// Executes the aggregation over a document sequence (a slice, a
    /// `Vec` or a `DocSet`).
    ///
    /// * Ungrouped: returns a single-document vector
    ///   `[{ "<alias>": <value> }]`.
    /// * Grouped: returns one document per group,
    ///   `{ "group": <key>, "<alias>": <value> }`, ordered by key for
    ///   deterministic output.
    pub fn eval<'a>(&self, docs: impl IntoIterator<Item = &'a Value>) -> Vec<Value> {
        match &self.group_by {
            None => {
                let mut obj = Object::with_capacity(1);
                obj.insert(self.alias.clone(), self.func.eval(docs));
                vec![Value::Object(obj)]
            }
            Some(group_path) => {
                let mut groups: HashMap<GroupKey, Vec<&Value>> = HashMap::new();
                for doc in docs {
                    groups
                        .entry(GroupKey::of(doc, group_path))
                        .or_default()
                        .push(doc);
                }
                let mut keys: Vec<GroupKey> = groups.keys().cloned().collect();
                keys.sort();
                keys.into_iter()
                    .map(|key| {
                        let members = &groups[&key];
                        let mut obj = Object::with_capacity(2);
                        obj.insert("group", key.to_value());
                        obj.insert(self.alias.clone(), self.func.eval(members.iter().copied()));
                        Value::Object(obj)
                    })
                    .collect()
            }
        }
    }
}

impl fmt::Display for Aggregation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} AS {}", self.func, self.alias)?;
        if let Some(g) = &self.group_by {
            write!(f, " BY '{g}'")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::json;

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    fn docs() -> Vec<Value> {
        vec![
            json!({ "n": 1, "lang": "de", "ok": true }),
            json!({ "n": 2, "lang": "de", "ok": false }),
            json!({ "n": 3.5, "lang": "en" }),
            json!({ "lang": "en" }),
            json!({ "n": 4 }),
        ]
    }

    #[test]
    fn count_root_counts_all_documents() {
        let agg = AggFunc::Count {
            path: JsonPointer::root(),
        };
        assert_eq!(agg.eval(docs().iter()), json!(5usize));
    }

    #[test]
    fn count_path_counts_presence() {
        let agg = AggFunc::Count { path: ptr("/n") };
        assert_eq!(agg.eval(docs().iter()), json!(4usize));
    }

    #[test]
    fn sum_is_int_when_all_int_and_skips_missing() {
        let agg = AggFunc::Sum { path: ptr("/n") };
        let v = agg.eval(docs().iter());
        // 1 + 2 + 3.5 + 4 — one float makes the sum a float.
        assert_eq!(v.as_f64(), Some(10.5));
        assert_eq!(v.json_type(), betze_json::JsonType::Float);

        let ints = [json!({ "n": 1 }), json!({ "n": 2 })];
        let v = agg.eval(ints.iter());
        assert_eq!(v, json!(3i64));
        assert_eq!(v.json_type(), betze_json::JsonType::Int);
    }

    #[test]
    fn sum_overflow_falls_back_to_float() {
        let agg = AggFunc::Sum { path: ptr("/n") };
        let big = [json!({ "n": (i64::MAX) }), json!({ "n": (i64::MAX) })];
        let v = agg.eval(big.iter());
        assert_eq!(v.json_type(), betze_json::JsonType::Float);
        assert!(v.as_f64().unwrap() > 0.0);
    }

    #[test]
    fn ungrouped_eval_yields_single_doc() {
        let agg = Aggregation::new(
            AggFunc::Count {
                path: JsonPointer::root(),
            },
            "count",
        );
        let out = agg.eval(&docs());
        assert_eq!(out, vec![json!({ "count": 5usize })]);
    }

    #[test]
    fn grouped_eval_partitions_by_key() {
        let agg = Aggregation::grouped(
            AggFunc::Count {
                path: JsonPointer::root(),
            },
            ptr("/lang"),
            "count",
        );
        let out = agg.eval(&docs());
        // Groups sorted: Other (missing lang) < "de" < "en".
        assert_eq!(
            out,
            vec![
                json!({ "group": null, "count": 1usize }),
                json!({ "group": "de", "count": 2usize }),
                json!({ "group": "en", "count": 2usize }),
            ]
        );
    }

    #[test]
    fn grouped_by_bool_and_number() {
        let agg = Aggregation::grouped(AggFunc::Sum { path: ptr("/n") }, ptr("/ok"), "total");
        let out = agg.eval(&docs());
        assert_eq!(out.len(), 3); // missing, false, true
        let agg_n = Aggregation::grouped(
            AggFunc::Count {
                path: JsonPointer::root(),
            },
            ptr("/n"),
            "c",
        );
        let out = agg_n.eval(&docs());
        assert_eq!(out.len(), 5); // Other + 4 distinct numbers
    }

    #[test]
    fn empty_input_aggregates() {
        let agg = Aggregation::new(AggFunc::Sum { path: ptr("/n") }, "s");
        assert_eq!(agg.eval(&[]), vec![json!({ "s": 0i64 })]);
        let grouped = Aggregation::grouped(
            AggFunc::Count {
                path: JsonPointer::root(),
            },
            ptr("/k"),
            "c",
        );
        assert_eq!(grouped.eval(&[]), Vec::<Value>::new());
    }

    #[test]
    fn group_key_equivalence_across_numeric_variants() {
        let a = GroupKey::of(&json!({ "k": 2 }), &ptr("/k"));
        let b = GroupKey::of(&json!({ "k": 2.0 }), &ptr("/k"));
        assert_eq!(a, b);
    }

    #[test]
    fn display_forms() {
        let agg = Aggregation::grouped(
            AggFunc::Count {
                path: JsonPointer::root(),
            },
            ptr("/user/time_zone"),
            "count",
        );
        assert_eq!(agg.to_string(), "COUNT('') AS count BY '/user/time_zone'");
    }
}
