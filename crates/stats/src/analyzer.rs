//! The analysis pass over a document collection.
//!
//! The pass is organized around a **path trie** instead of a
//! `BTreeMap<JsonPointer, _>` keyed by materialized pointers: documents
//! are walked with `&str` child lookups only, so the hot loop performs no
//! `JsonPointer` construction (the old code allocated a fresh token
//! vector per visited node per document) and no per-string prefix
//! `String` collection (prefixes are byte slices on a `char` boundary,
//! allocated only the first time a distinct prefix is seen). Pointers are
//! materialized once per *distinct* path when the trie is folded into the
//! final [`DatasetAnalysis`].
//!
//! The pass also parallelizes: [`analyze_with_config_jobs`] splits the
//! document slice into per-worker chunks, builds one trie per chunk on a
//! scoped thread, and merges them. Every per-path statistic is a
//! commutative monoid (integer sums, min/max, counter maps, histogram
//! bucket adds), so the merged result is **bit-identical** to the
//! sequential pass regardless of worker count or chunk boundaries.

use crate::counts::CountTable;
use crate::{DatasetAnalysis, Histogram, PathStats};
use betze_json::{DocSet, JsonPointer, Number, Value};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// Configuration of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalyzerConfig {
    /// Prefix lengths (in characters) collected for string values.
    /// Short prefixes form large groups, long prefixes small ones — the
    /// generator picks whichever group hits its selectivity target.
    pub prefix_lengths: Vec<usize>,
    /// Maximum number of prefixes retained per path (top-k by count,
    /// ties broken by prefix order, for determinism).
    pub max_prefixes_per_path: usize,
    /// Maximum number of exact string values retained per path (same
    /// top-k rule). Zero disables value sampling.
    pub max_values_per_path: usize,
    /// Maximum object-nesting depth analyzed; paths below are ignored.
    pub max_depth: usize,
    /// Buckets for the optional numeric histograms (the §VII future-work
    /// extension). Zero disables histogram collection, restoring the
    /// paper's exact statistics set; the default enables 16 buckets.
    pub histogram_buckets: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            prefix_lengths: vec![1, 2, 4, 8],
            max_prefixes_per_path: 32,
            max_values_per_path: 32,
            max_depth: 16,
            histogram_buckets: 16,
        }
    }
}

/// Analyzes a dataset with the default configuration, single-threaded.
pub fn analyze(name: impl Into<String>, docs: &[Value]) -> DatasetAnalysis {
    analyze_with_config(name, docs, &AnalyzerConfig::default())
}

/// [`analyze`] with an explicit worker count (see
/// [`analyze_with_config_jobs`] for the `jobs` semantics).
pub fn analyze_jobs(name: impl Into<String>, docs: &[Value], jobs: usize) -> DatasetAnalysis {
    analyze_with_config_jobs(name, docs, &AnalyzerConfig::default(), jobs)
}

/// Analyzes a dataset: one pass over all documents, recursing through
/// object members (array *elements* are not descended into — arrays are
/// characterized by their size statistics, matching the predicate
/// repertoire of §III-A where arrays are only queried via `ARRSIZE`).
pub fn analyze_with_config(
    name: impl Into<String>,
    docs: &[Value],
    config: &AnalyzerConfig,
) -> DatasetAnalysis {
    analyze_with_config_jobs(name, docs, config, 1)
}

/// [`analyze_with_config`] fanned across `jobs` worker threads.
///
/// `jobs = 0` auto-detects the host parallelism, `jobs = 1` runs on the
/// calling thread, `jobs = n` uses up to `n` workers. The output is
/// bit-identical for every `jobs` value: chunk statistics are merged with
/// commutative/associative operations only, and the final top-k
/// truncation sorts by `(count desc, key asc)` which is independent of
/// accumulation order.
pub fn analyze_with_config_jobs(
    name: impl Into<String>,
    docs: &[Value],
    config: &AnalyzerConfig,
    jobs: usize,
) -> DatasetAnalysis {
    analyze_docs(name, docs, config, jobs)
}

/// [`analyze_jobs`] over a [`DocSet`]: a row selection is analyzed in
/// place, without copying its documents, and the result is bit-identical
/// to analyzing the materialized members (same documents, same order,
/// same chunking).
pub fn analyze_set(name: impl Into<String>, docs: &DocSet, jobs: usize) -> DatasetAnalysis {
    let members: Vec<&Value> = docs.iter().collect();
    analyze_docs(name, &members, &AnalyzerConfig::default(), jobs)
}

/// The analysis pass over owned (`Value`) or borrowed (`&Value`)
/// documents.
fn analyze_docs<D: Borrow<Value> + Sync>(
    name: impl Into<String>,
    docs: &[D],
    config: &AnalyzerConfig,
    jobs: usize,
) -> DatasetAnalysis {
    let workers = effective_jobs(jobs).min(docs.len()).max(1);
    let trie = if workers <= 1 {
        build_trie(docs, config)
    } else {
        let chunk = docs.len().div_ceil(workers);
        let mut tries: Vec<PathTrie> = std::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(chunk)
                .map(|part| scope.spawn(move || build_trie(part, config)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("analyzer worker panicked"))
                .collect()
        });
        let mut merged = tries.remove(0);
        for mut other in tries {
            merged.absorb(&mut other, 0, 0);
        }
        merged
    };
    let mut nodes = trie.finish(config);
    if config.histogram_buckets > 0 {
        collect_histograms(&mut nodes, docs, config, workers);
    }
    DatasetAnalysis {
        dataset: name.into(),
        doc_count: docs.len() as u64,
        paths: assemble(nodes),
    }
}

/// Resolves the `jobs` knob: 0 = auto-detect host parallelism.
pub(crate) fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// One trie node: interned child edges plus the statistics accumulator
/// for the path ending here. Node 0 is the root (its builder stays
/// untouched — the root path exists in every document by definition and
/// is not recorded, as before).
#[derive(Default)]
pub(crate) struct TrieNode {
    pub(crate) children: HashMap<String, usize>,
    pub(crate) builder: StatsBuilder,
}

/// The per-chunk accumulation structure (see the module docs).
pub(crate) struct PathTrie {
    pub(crate) nodes: Vec<TrieNode>,
}

impl PathTrie {
    pub(crate) fn new() -> Self {
        PathTrie {
            nodes: vec![TrieNode::default()],
        }
    }

    /// The child of `parent` along `key`, interning the edge on first
    /// sight. Existing edges are found with a borrowed `&str` lookup —
    /// no allocation on the hot path.
    pub(crate) fn child_of(&mut self, parent: usize, key: &str) -> usize {
        if let Some(&existing) = self.nodes[parent].children.get(key) {
            return existing;
        }
        let id = self.nodes.len();
        self.nodes.push(TrieNode::default());
        self.nodes[parent].children.insert(key.to_owned(), id);
        id
    }

    /// Records `value` under `parent`'s child `key`, recursing through
    /// object members.
    pub(crate) fn record(
        &mut self,
        parent: usize,
        key: &str,
        value: &Value,
        config: &AnalyzerConfig,
        depth: usize,
    ) {
        if depth > config.max_depth {
            return;
        }
        let node = self.child_of(parent, key);
        self.nodes[node].builder.record(value, config);
        if let Value::Object(obj) = value {
            for (child_key, child) in obj.iter() {
                self.record(node, child_key, child, config, depth + 1);
            }
        }
    }

    /// Merges `other`'s subtree rooted at `other_node` into `self_node`.
    /// Builders are moved out of `other`; child iteration order does not
    /// matter because every merge operation is commutative.
    pub(crate) fn absorb(&mut self, other: &mut PathTrie, self_node: usize, other_node: usize) {
        let other_children = std::mem::take(&mut other.nodes[other_node].children);
        let other_builder = std::mem::take(&mut other.nodes[other_node].builder);
        self.nodes[self_node].builder.merge(other_builder);
        for (key, other_child) in other_children {
            let self_child = match self.nodes[self_node].children.get(key.as_str()) {
                Some(&existing) => existing,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[self_node].children.insert(key, id);
                    id
                }
            };
            self.absorb(other, self_child, other_child);
        }
    }

    /// Finalizes every builder into [`PathStats`], keeping the trie
    /// structure (needed by the histogram pass).
    pub(crate) fn finish(self, config: &AnalyzerConfig) -> Vec<FinishedNode> {
        self.nodes
            .into_iter()
            .map(|node| FinishedNode {
                children: node.children,
                stats: node.builder.finish(config),
            })
            .collect()
    }
}

/// A trie node after the statistics pass.
pub(crate) struct FinishedNode {
    pub(crate) children: HashMap<String, usize>,
    pub(crate) stats: PathStats,
}

pub(crate) fn build_trie<D: Borrow<Value>>(docs: &[D], config: &AnalyzerConfig) -> PathTrie {
    let mut trie = PathTrie::new();
    for doc in docs {
        // The root path itself is not recorded (it exists in every document
        // by definition); only attribute paths are.
        if let Value::Object(obj) = doc.borrow() {
            for (key, value) in obj.iter() {
                trie.record(0, key, value, config, 1);
            }
        }
    }
    trie
}

/// Second pass: fills equi-width numeric histograms for every path with
/// numeric values (the ranges from the first pass define the bucket
/// boundaries). Parallel chunks each fill a clone of the histogram
/// skeleton (indexed by trie node); bucket counts are summed, which is
/// order-independent.
fn collect_histograms<D: Borrow<Value> + Sync>(
    nodes: &mut [FinishedNode],
    docs: &[D],
    config: &AnalyzerConfig,
    workers: usize,
) {
    let skeleton: Vec<Option<Histogram>> = nodes
        .iter()
        .map(|node| {
            node.stats
                .numeric_range()
                .and_then(|(min, max)| Histogram::new(min, max, config.histogram_buckets))
        })
        .collect();
    if !skeleton.iter().any(Option::is_some) {
        return;
    }
    let filled = if workers <= 1 || docs.len() <= 1 {
        let mut sink = skeleton;
        fill_histograms(nodes, docs, config, &mut sink);
        sink
    } else {
        let chunk = docs.len().div_ceil(workers);
        let sinks: Vec<Vec<Option<Histogram>>> = std::thread::scope(|scope| {
            let nodes = &*nodes;
            let handles: Vec<_> = docs
                .chunks(chunk)
                .map(|part| {
                    let mut sink = skeleton.clone();
                    scope.spawn(move || {
                        fill_histograms(nodes, part, config, &mut sink);
                        sink
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("histogram worker panicked"))
                .collect()
        });
        let mut merged = skeleton;
        for sink in sinks {
            for (acc, part) in merged.iter_mut().zip(sink) {
                match (acc, part) {
                    (Some(acc), Some(part)) => acc.merge(&part),
                    (None, None) => {}
                    _ => unreachable!("histogram skeletons share one shape"),
                }
            }
        }
        merged
    };
    for (node, hist) in nodes.iter_mut().zip(filled) {
        node.stats.numeric_histogram = hist;
    }
}

/// Walks `docs` through the (immutable) trie, adding numeric values into
/// the node-indexed `sink`.
pub(crate) fn fill_histograms<D: Borrow<Value>>(
    nodes: &[FinishedNode],
    docs: &[D],
    config: &AnalyzerConfig,
    sink: &mut [Option<Histogram>],
) {
    fn walk(
        nodes: &[FinishedNode],
        parent: usize,
        key: &str,
        value: &Value,
        sink: &mut [Option<Histogram>],
        max_depth: usize,
        depth: usize,
    ) {
        if depth > max_depth {
            return;
        }
        let Some(&node) = nodes[parent].children.get(key) else {
            // Depth-pruned or chunk saw a path this chunk's docs lack —
            // impossible after a full first pass, but harmless.
            return;
        };
        if let Value::Number(n) = value {
            if let Some(hist) = sink[node].as_mut() {
                hist.add(n.as_f64());
            }
        }
        if let Value::Object(obj) = value {
            for (child_key, child) in obj.iter() {
                walk(nodes, node, child_key, child, sink, max_depth, depth + 1);
            }
        }
    }
    for doc in docs {
        if let Value::Object(obj) = doc.borrow() {
            for (key, value) in obj.iter() {
                walk(nodes, 0, key, value, sink, config.max_depth, 1);
            }
        }
    }
}

/// Folds the finished trie into the pointer-keyed map, materializing one
/// [`JsonPointer`] per distinct path (the only place pointers are built).
pub(crate) fn assemble(nodes: Vec<FinishedNode>) -> BTreeMap<JsonPointer, PathStats> {
    let mut slots: Vec<Option<FinishedNode>> = nodes.into_iter().map(Some).collect();
    let mut out = BTreeMap::new();
    fn dfs(
        slots: &mut [Option<FinishedNode>],
        id: usize,
        path: &JsonPointer,
        is_root: bool,
        out: &mut BTreeMap<JsonPointer, PathStats>,
    ) {
        let node = slots[id].take().expect("trie nodes visited once");
        if !is_root {
            out.insert(path.clone(), node.stats);
        }
        for (key, child) in node.children {
            let child_path = path.child(key);
            dfs(slots, child, &child_path, false, out);
        }
    }
    dfs(&mut slots, 0, &JsonPointer::root(), true, &mut out);
    out
}

/// Accumulates statistics for one path during the pass.
#[derive(Default)]
pub(crate) struct StatsBuilder {
    pub(crate) stats: PathStats,
    pub(crate) prefix_counts: CountTable,
    pub(crate) value_counts: CountTable,
}

/// Byte offset just past the `chars`-th character of `s`, or `None` if
/// the string has fewer than `chars` characters (`chars` ≥ 1).
fn char_prefix_end(s: &str, chars: usize) -> Option<usize> {
    if s.is_ascii() {
        // ASCII fast path: char index == byte index.
        return (s.len() >= chars).then_some(chars);
    }
    s.char_indices()
        .nth(chars - 1)
        .map(|(i, c)| i + c.len_utf8())
}

impl StatsBuilder {
    pub(crate) fn record(&mut self, value: &Value, config: &AnalyzerConfig) {
        let s = &mut self.stats;
        s.doc_count += 1;
        match value {
            Value::Null => s.null_count += 1,
            Value::Bool(b) => {
                s.bool_count += 1;
                if *b {
                    s.true_count += 1;
                }
            }
            Value::Number(Number::Int(i)) => {
                s.int_count += 1;
                s.int_min = Some(s.int_min.map_or(*i, |m| m.min(*i)));
                s.int_max = Some(s.int_max.map_or(*i, |m| m.max(*i)));
            }
            Value::Number(Number::Float(f)) => {
                s.float_count += 1;
                s.float_min = Some(s.float_min.map_or(*f, |m| m.min(*f)));
                s.float_max = Some(s.float_max.map_or(*f, |m| m.max(*f)));
            }
            Value::String(text) => {
                s.string_count += 1;
                if config.max_values_per_path > 0 {
                    self.value_counts.bump(text);
                }
                for &len in &config.prefix_lengths {
                    if len == 0 {
                        continue;
                    }
                    // Slice on a char boundary instead of collecting a
                    // String per (value, length) pair; strings shorter
                    // than `len` characters record nothing, as before.
                    let Some(end) = char_prefix_end(text, len) else {
                        continue;
                    };
                    self.prefix_counts.bump(&text[..end]);
                }
            }
            Value::Array(a) => {
                let n = a.len() as u64;
                s.array_count += 1;
                s.array_min_size = Some(s.array_min_size.map_or(n, |m| m.min(n)));
                s.array_max_size = Some(s.array_max_size.map_or(n, |m| m.max(n)));
            }
            Value::Object(o) => {
                let n = o.len() as u64;
                s.object_count += 1;
                s.object_min_children = Some(s.object_min_children.map_or(n, |m| m.min(n)));
                s.object_max_children = Some(s.object_max_children.map_or(n, |m| m.max(n)));
            }
        }
    }

    /// Merges another builder for the same path: counts add, ranges
    /// widen, counter maps sum — all commutative and associative, so
    /// chunked accumulation equals sequential accumulation exactly.
    pub(crate) fn merge(&mut self, other: StatsBuilder) {
        let a = &mut self.stats;
        let b = other.stats;
        a.doc_count += b.doc_count;
        a.null_count += b.null_count;
        a.bool_count += b.bool_count;
        a.true_count += b.true_count;
        a.int_count += b.int_count;
        a.int_min = opt_fold(a.int_min, b.int_min, i64::min);
        a.int_max = opt_fold(a.int_max, b.int_max, i64::max);
        a.float_count += b.float_count;
        a.float_min = opt_fold(a.float_min, b.float_min, f64::min);
        a.float_max = opt_fold(a.float_max, b.float_max, f64::max);
        a.string_count += b.string_count;
        a.array_count += b.array_count;
        a.array_min_size = opt_fold(a.array_min_size, b.array_min_size, u64::min);
        a.array_max_size = opt_fold(a.array_max_size, b.array_max_size, u64::max);
        a.object_count += b.object_count;
        a.object_min_children = opt_fold(a.object_min_children, b.object_min_children, u64::min);
        a.object_max_children = opt_fold(a.object_max_children, b.object_max_children, u64::max);
        self.prefix_counts.merge_from(other.prefix_counts);
        self.value_counts.merge_from(other.value_counts);
    }

    pub(crate) fn finish(mut self, config: &AnalyzerConfig) -> PathStats {
        let mut prefixes = self.prefix_counts.into_pairs();
        // Top-k by descending count, ascending prefix for determinism.
        prefixes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        prefixes.truncate(config.max_prefixes_per_path);
        self.stats.prefixes = prefixes;
        let mut values = self.value_counts.into_pairs();
        values.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        values.truncate(config.max_values_per_path);
        self.stats.string_values = values;
        self.stats
    }
}

/// Combines two optional extrema.
fn opt_fold<T: Copy>(a: Option<T>, b: Option<T>, f: impl Fn(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(x), Some(y)) => Some(f(x, y)),
        (x, None) => x,
        (None, y) => y,
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
            json!({ "user": { "name": "alice", "followers": 10 }, "ok": true }),
            json!({ "user": { "name": "alfred" }, "ok": false, "score": 1.5 }),
            json!({ "user": { "followers": (-3) }, "tags": ["a", "b"] }),
            json!({ "note": null, "tags": [] }),
        ]
    }

    #[test]
    fn doc_count_and_paths() {
        let a = analyze("t", &docs());
        assert_eq!(a.doc_count, 4);
        assert_eq!(a.get(&ptr("/user")).unwrap().doc_count, 3);
        assert_eq!(a.get(&ptr("/user/name")).unwrap().doc_count, 2);
        assert_eq!(a.get(&ptr("/user/followers")).unwrap().doc_count, 2);
        assert_eq!(a.get(&ptr("/ok")).unwrap().doc_count, 2);
        assert!(a.get(&ptr("/missing")).is_none());
    }

    #[test]
    fn type_specific_statistics() {
        let a = analyze("t", &docs());
        let followers = a.get(&ptr("/user/followers")).unwrap();
        assert_eq!(followers.int_count, 2);
        assert_eq!(followers.int_min, Some(-3));
        assert_eq!(followers.int_max, Some(10));
        let ok = a.get(&ptr("/ok")).unwrap();
        assert_eq!(ok.bool_count, 2);
        assert_eq!(ok.true_count, 1);
        let score = a.get(&ptr("/score")).unwrap();
        assert_eq!(score.float_count, 1);
        assert_eq!(score.float_min, Some(1.5));
        let note = a.get(&ptr("/note")).unwrap();
        assert_eq!(note.null_count, 1);
        let user = a.get(&ptr("/user")).unwrap();
        assert_eq!(user.object_count, 3);
        assert_eq!(user.object_min_children, Some(1));
        assert_eq!(user.object_max_children, Some(2));
        let tags = a.get(&ptr("/tags")).unwrap();
        assert_eq!(tags.array_count, 2);
        assert_eq!(tags.array_min_size, Some(0));
        assert_eq!(tags.array_max_size, Some(2));
    }

    #[test]
    fn string_prefixes_counted_per_length() {
        let a = analyze("t", &docs());
        let name = a.get(&ptr("/user/name")).unwrap();
        let find = |p: &str| name.prefixes.iter().find(|(q, _)| q == p).map(|(_, c)| *c);
        // "alice" and "alfred" share prefixes "a" and "al".
        assert_eq!(find("a"), Some(2));
        assert_eq!(find("al"), Some(2));
        assert_eq!(find("alic"), Some(1));
        assert_eq!(find("alfr"), Some(1));
    }

    #[test]
    fn array_elements_not_descended() {
        let a = analyze("t", &[json!({ "arr": [ { "inner": 1 } ] })]);
        assert!(a.get(&ptr("/arr")).is_some());
        assert!(a.get(&ptr("/arr/0")).is_none());
        assert!(a.get(&ptr("/arr/0/inner")).is_none());
    }

    #[test]
    fn prefix_cap_and_determinism() {
        let config = AnalyzerConfig {
            max_prefixes_per_path: 3,
            ..AnalyzerConfig::default()
        };
        let docs: Vec<Value> = (0..50)
            .map(|i| json!({ "s": (format!("w{i:02}")) }))
            .collect();
        let a = analyze_with_config("t", &docs, &config);
        let s = a.get(&ptr("/s")).unwrap();
        assert_eq!(s.prefixes.len(), 3);
        // "w" dominates with count 50.
        assert_eq!(s.prefixes[0], ("w".to_string(), 50));
        let b = analyze_with_config("t", &docs, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn depth_limit_prunes_deep_paths() {
        let config = AnalyzerConfig {
            max_depth: 2,
            ..AnalyzerConfig::default()
        };
        let a = analyze_with_config("t", &[json!({ "a": { "b": { "c": 1 } } })], &config);
        assert!(a.get(&ptr("/a")).is_some());
        assert!(a.get(&ptr("/a/b")).is_some());
        assert!(a.get(&ptr("/a/b/c")).is_none());
    }

    #[test]
    fn multibyte_prefixes_respect_char_boundaries() {
        let a = analyze("t", &[json!({ "s": "😀😀abc" })]);
        let s = a.get(&ptr("/s")).unwrap();
        assert!(s.prefixes.iter().any(|(p, _)| p == "😀"));
        assert!(s.prefixes.iter().any(|(p, _)| p == "😀😀"));
    }

    #[test]
    fn multibyte_prefix_slicing_regression() {
        // Regression for the byte-slice prefix kernel: boundaries must be
        // counted in characters, never bytes, for mixed-width strings —
        // "é" is 2 bytes, "😀" is 4, "a" is 1.
        let docs = vec![
            json!({ "s": "éa😀b" }),
            json!({ "s": "éa😀b" }),
            json!({ "s": "é" }),
        ];
        let a = analyze("t", &docs);
        let s = a.get(&ptr("/s")).unwrap();
        let find = |p: &str| s.prefixes.iter().find(|(q, _)| q == p).map(|(_, c)| *c);
        assert_eq!(find("é"), Some(3));
        assert_eq!(find("éa"), Some(2));
        assert_eq!(find("éa😀b"), Some(2), "4-char prefix spans 8 bytes");
        // "é" alone is 1 char: the 2/4/8-char prefixes skip it.
        assert_eq!(find("éa😀"), None, "length 3 not in the default config");
        // Byte-boundary arithmetic must agree with char arithmetic.
        assert_eq!(char_prefix_end("éa😀b", 1), Some(2));
        assert_eq!(char_prefix_end("éa😀b", 2), Some(3));
        assert_eq!(char_prefix_end("éa😀b", 4), Some(8));
        assert_eq!(char_prefix_end("éa😀b", 5), None);
        assert_eq!(char_prefix_end("ascii", 3), Some(3));
        assert_eq!(char_prefix_end("ab", 3), None);
    }

    #[test]
    fn non_object_documents_contribute_no_paths() {
        let a = analyze("t", &[json!([1, 2, 3]), json!("scalar"), json!({ "k": 1 })]);
        assert_eq!(a.doc_count, 3);
        assert_eq!(a.path_count(), 1);
    }

    #[test]
    fn empty_dataset() {
        let a = analyze("t", &[]);
        assert_eq!(a.doc_count, 0);
        assert_eq!(a.path_count(), 0);
        assert_eq!(a.existence_selectivity(&ptr("/x")), 0.0);
    }

    #[test]
    fn parallel_analysis_is_bit_identical() {
        // A corpus exercising every statistic: nested objects, mixed
        // types under one path, strings with shared prefixes, numerics
        // spanning chunk boundaries.
        let docs: Vec<Value> = (0..257)
            .map(|i| {
                json!({
                    "id": (i as i64),
                    "name": (format!("user{:03}", i % 40)),
                    "score": (i as f64 * 0.37 - 20.0),
                    "nested": { "deep": { "flag": (i % 3 == 0) } },
                    "tags": ["a", "b"],
                })
            })
            .collect();
        let sequential = analyze_with_config_jobs("t", &docs, &AnalyzerConfig::default(), 1);
        for jobs in [2, 3, 4, 7] {
            let parallel = analyze_with_config_jobs("t", &docs, &AnalyzerConfig::default(), jobs);
            assert_eq!(parallel, sequential, "jobs={jobs}");
        }
        // Auto-detection is also exact.
        let auto = analyze_jobs("t", &docs, 0);
        assert_eq!(auto, sequential);
    }

    #[test]
    fn row_selection_analysis_is_bit_identical_to_materialized_docs() {
        use std::sync::Arc;
        let base: Arc<Vec<Value>> = Arc::new(
            (0..301)
                .map(|i| {
                    json!({
                        "id": (i as i64),
                        "name": (format!("user{:03}", i % 37)),
                        "score": (i as f64 * 0.41 - 30.0),
                        "nested": { "flag": (i % 3 == 0) },
                    })
                })
                .collect(),
        );
        let whole = DocSet::new(Arc::clone(&base));
        let selected = whole.filter(|d| d.get("id").and_then(Value::as_i64).unwrap() % 5 != 1);
        let nested = selected
            .filter(|d| d.get("nested").and_then(|n| n.get("flag")) == Some(&Value::Bool(false)));
        for set in [
            &whole,
            &selected,
            &nested,
            &selected.head(40),
            &whole.head(0),
        ] {
            let materialized = set.to_vec();
            for jobs in [1, 4] {
                assert_eq!(
                    analyze_set("t", set, jobs),
                    analyze_jobs("t", &materialized, jobs),
                    "{} docs, jobs={jobs}",
                    set.len()
                );
            }
            assert_eq!(analyze_set("t", set, 4), analyze("t", &materialized));
        }
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use betze_json::json;

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    #[test]
    fn histograms_capture_skewed_distributions() {
        // 90 values in [0, 10), 10 values in [90, 100].
        let mut docs: Vec<Value> = (0..90).map(|i| json!({ "v": (i as f64 / 9.0) })).collect();
        docs.extend((0..10).map(|i| json!({ "v": (90.0 + i as f64) })));
        let analysis = analyze("t", &docs);
        let stats = analysis.get(&ptr("/v")).unwrap();
        let hist = stats
            .numeric_histogram
            .as_ref()
            .expect("histogram collected");
        assert_eq!(hist.total(), 100);
        // The median sits in the dense low region, far from the range
        // midpoint a uniform assumption would suggest.
        let median = hist.threshold_for_bottom_fraction(0.5);
        assert!(median < 15.0, "median {median}");
    }

    #[test]
    fn histograms_cover_mixed_int_float_values() {
        let docs = vec![json!({ "v": 0 }), json!({ "v": 5.5 }), json!({ "v": 10 })];
        let analysis = analyze("t", &docs);
        let hist = analysis
            .get(&ptr("/v"))
            .unwrap()
            .numeric_histogram
            .as_ref()
            .unwrap();
        assert_eq!(hist.min, 0.0);
        assert_eq!(hist.max, 10.0);
        assert_eq!(hist.total(), 3);
    }

    #[test]
    fn zero_buckets_disable_histograms() {
        let config = AnalyzerConfig {
            histogram_buckets: 0,
            ..AnalyzerConfig::default()
        };
        let docs = vec![json!({ "v": 1 }), json!({ "v": 2 })];
        let analysis = analyze_with_config("t", &docs, &config);
        assert!(analysis
            .get(&ptr("/v"))
            .unwrap()
            .numeric_histogram
            .is_none());
    }

    #[test]
    fn non_numeric_paths_have_no_histogram() {
        let docs = vec![json!({ "s": "x" }), json!({ "s": "y" })];
        let analysis = analyze("t", &docs);
        assert!(analysis
            .get(&ptr("/s"))
            .unwrap()
            .numeric_histogram
            .is_none());
    }

    #[test]
    fn histogram_round_trips_through_analysis_file() {
        let docs: Vec<Value> = (0..50).map(|i| json!({ "v": (i as i64) })).collect();
        let analysis = analyze("t", &docs);
        let back = crate::DatasetAnalysis::parse(&analysis.to_json()).unwrap();
        assert_eq!(back, analysis);
        assert!(back.get(&ptr("/v")).unwrap().numeric_histogram.is_some());
    }

    #[test]
    fn parallel_histograms_match_sequential() {
        let docs: Vec<Value> = (0..300)
            .map(|i| json!({ "v": ((i * 7 % 113) as f64), "w": (i as i64) }))
            .collect();
        let sequential = analyze_with_config_jobs("t", &docs, &AnalyzerConfig::default(), 1);
        let parallel = analyze_with_config_jobs("t", &docs, &AnalyzerConfig::default(), 5);
        assert_eq!(parallel, sequential);
    }
}
