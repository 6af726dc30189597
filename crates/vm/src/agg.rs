//! Compiled aggregations: a single-pass streaming fold replacing the
//! tree-walker's group-then-fold two-pass evaluation.
//!
//! The accumulator replicates [`betze_model::AggFunc::eval`] operation
//! for operation (checked int addition with float fallback, the parallel
//! float sum, presence-based counting), and grouped output is built from
//! a `BTreeMap` whose iteration order equals the tree-walker's
//! `keys.sort()` — so results are byte-identical, not just numerically
//! close.

use crate::program::CompiledPath;
use betze_json::{Number, Object, Value};
use betze_model::{AggFunc, Aggregation, GroupKey};
use std::collections::BTreeMap;

/// The compiled function: pre-resolved path plus the fold kind.
#[derive(Debug, Clone, PartialEq)]
enum Func {
    /// `COUNT(<path>)`.
    Count(CompiledPath),
    /// `SUM(<path>)`.
    Sum(CompiledPath),
}

/// Streaming accumulator mirroring `AggFunc::eval`'s fold state.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    count: usize,
    int_sum: i64,
    float_sum: f64,
    saw_float: bool,
    overflowed: bool,
}

impl Acc {
    #[inline]
    fn feed(&mut self, func: &Func, doc: &Value) {
        match func {
            Func::Count(path) => {
                if path.is_root() || path.resolve(doc).is_some() {
                    self.count += 1;
                }
            }
            Func::Sum(path) => match path.resolve(doc) {
                Some(Value::Number(Number::Int(i))) => {
                    if !self.overflowed {
                        match self.int_sum.checked_add(*i) {
                            Some(s) => self.int_sum = s,
                            None => self.overflowed = true,
                        }
                    }
                    self.float_sum += *i as f64;
                }
                Some(Value::Number(Number::Float(f))) => {
                    self.saw_float = true;
                    self.float_sum += f;
                }
                _ => {}
            },
        }
    }

    fn finish(&self, func: &Func) -> Value {
        match func {
            Func::Count(_) => Value::from(self.count),
            Func::Sum(_) => {
                if self.saw_float || self.overflowed {
                    Value::Number(Number::Float(self.float_sum))
                } else {
                    Value::Number(Number::Int(self.int_sum))
                }
            }
        }
    }
}

/// A compiled aggregation step: function, optional grouping path, alias.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAggregation {
    func: Func,
    group_by: Option<CompiledPath>,
    alias: String,
}

impl CompiledAggregation {
    /// Compiles an aggregation (infallible — there are no budgets here).
    pub fn compile(agg: &Aggregation) -> Self {
        let func = match &agg.func {
            AggFunc::Count { path } => Func::Count(CompiledPath::new(path)),
            AggFunc::Sum { path } => Func::Sum(CompiledPath::new(path)),
        };
        CompiledAggregation {
            func,
            group_by: agg.group_by.as_ref().map(CompiledPath::new),
            alias: agg.alias.clone(),
        }
    }

    /// Executes the aggregation; output is byte-identical to
    /// [`Aggregation::eval`].
    pub fn eval<'a>(&self, docs: impl IntoIterator<Item = &'a Value>) -> Vec<Value> {
        match &self.group_by {
            None => {
                let mut acc = Acc::default();
                for doc in docs {
                    acc.feed(&self.func, doc);
                }
                let mut obj = Object::with_capacity(1);
                obj.insert(self.alias.clone(), acc.finish(&self.func));
                vec![Value::Object(obj)]
            }
            Some(group) => {
                let mut groups: BTreeMap<GroupKey, Acc> = BTreeMap::new();
                for doc in docs {
                    let key = GroupKey::from_resolved(group.resolve(doc));
                    groups.entry(key).or_default().feed(&self.func, doc);
                }
                groups
                    .iter()
                    .map(|(key, acc)| {
                        let mut obj = Object::with_capacity(2);
                        obj.insert("group", key.to_value());
                        obj.insert(self.alias.clone(), acc.finish(&self.func));
                        Value::Object(obj)
                    })
                    .collect()
            }
        }
    }
}
