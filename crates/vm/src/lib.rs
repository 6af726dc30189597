//! # betze-vm
//!
//! A register-bytecode compiler and vectorized batch executor for the
//! BETZE query IR (ROADMAP item 1, DESIGN.md §14).
//!
//! Every engine in the harness originally evaluated
//! [`Predicate`](betze_model::Predicate) trees by recursive tree-walking,
//! once per document — `Box` pointer chases and enum dispatch in the
//! innermost loop. This crate compiles a tree once into a flat
//! [`Program`] (deduplicated constant pools, interned paths with
//! pre-parsed array indices, short-circuit `AND`/`OR` via patched
//! `JumpIfEmpty` instructions) and executes it *leaf-major* over document
//! batches: each leaf test runs in a tight loop over a selection vector
//! of lane indices, and selections narrow when entering the right arm of
//! a connective, which is exactly per-lane short-circuit semantics. All
//! execution state lives in a reusable [`VmScratch`], so the steady-state
//! hot loop performs no allocation.
//!
//! Because path resolution (not predicate logic) dominates scan cost, a
//! corpus that is scanned repeatedly — the defining access pattern of
//! the paper's session workloads — can be *shredded* once into a
//! [`Projection`]: dictionary-encoded dense columns, one per observed
//! path, over which [`Program::run_projected`] evaluates leaves as
//! sequential column scans with zero per-document pointer chasing. The
//! `_rows` variants ([`Program::run_rows`],
//! [`Program::run_projected_rows`]) seed the selection with a subset of
//! the corpus's rows, so one projection of a corpus serves every
//! filtered selection of it.
//!
//! Results are **bit-identical** to the tree-walker by construction: leaf
//! tests replicate `FilterFn::matches` case for case (same `f64`
//! conversions, same missing/wrong-type behavior), the selection algebra
//! computes the same boolean function as `&&`/`||`, matched lanes come
//! out in document order, and [`CompiledAggregation`] mirrors
//! `Aggregation::eval`'s fold state and group ordering. `VmEngine` in
//! betze-engines builds on this and a differential oracle in
//! `tests/tests/vm.rs` proves the equivalence over generated sessions.
//!
//! Trees whose right-descending spine exceeds [`REGISTER_BUDGET`] fail
//! compilation with [`CompileError::RegisterBudget`]; callers fall back
//! to tree-walking (lint rule L049 warns about such sessions). The
//! [`optimize`] entry point usually avoids that fate: it reassociates
//! runs left-deep, folds constants, drops arms the abstract interpreter
//! proves dead ([`ArmFacts`]), and deduplicates leaves — with every
//! rewrite re-checked by the bytecode verifier ([`Program::verify`],
//! DESIGN.md §15) before it can execute.

mod agg;
mod compile;
mod exec;
mod opt;
mod program;
mod project;
mod verify;

pub use agg::CompiledAggregation;
pub use compile::{compile, register_pressure, CompileError};
pub use exec::VmScratch;
pub use opt::{optimize, ArmFact, ArmFacts, OptError, OptNote, Optimized};
pub use program::{CompiledLeaf, CompiledPath, ConstPool, LeafTest, Op, Program, REGISTER_BUDGET};
pub use project::Projection;
pub use verify::VerifyError;

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::{json, JsonPointer, Value};
    use betze_model::{AggFunc, Aggregation, Comparison, FilterFn, Predicate};

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    fn exists(p: &str) -> Predicate {
        Predicate::leaf(FilterFn::Exists { path: ptr(p) })
    }

    fn docs() -> Vec<Value> {
        (0..40)
            .map(|i| {
                json!({
                    "n": (i as i64),
                    "f": (i as f64 * 0.5),
                    "even": (i % 2 == 0),
                    "name": (format!("user{i}")),
                    "tags": [1, 2, 3],
                    "meta": { "a": 1, "b": 2 },
                })
            })
            .collect()
    }

    /// A predicate exercising every leaf kind and both connectives.
    fn kitchen_sink() -> Predicate {
        let num = Predicate::leaf(FilterFn::IntEq {
            path: ptr("/n"),
            value: 4,
        })
        .or(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/f"),
            op: Comparison::Ge,
            value: 12.5,
        }));
        let text = Predicate::leaf(FilterFn::StrEq {
            path: ptr("/name"),
            value: "user7".into(),
        })
        .or(Predicate::leaf(FilterFn::HasPrefix {
            path: ptr("/name"),
            prefix: "user1".into(),
        }));
        let shape = Predicate::leaf(FilterFn::ArrSize {
            path: ptr("/tags"),
            op: Comparison::Eq,
            value: 3,
        })
        .and(Predicate::leaf(FilterFn::ObjSize {
            path: ptr("/meta"),
            op: Comparison::Ge,
            value: 2,
        }));
        let typed = Predicate::leaf(FilterFn::IsString { path: ptr("/name") })
            .and(Predicate::leaf(FilterFn::BoolEq {
                path: ptr("/even"),
                value: true,
            }))
            .and(exists("/meta/a"));
        num.or(text).and(shape).and(typed.or(exists("/missing")))
    }

    fn assert_equivalent(predicate: &Predicate, docs: &[Value]) {
        let program = compile(predicate).unwrap();
        let mut scratch = VmScratch::new();
        let mut matched = Vec::new();
        program.run(docs, &mut scratch, &mut matched);
        let expected: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| predicate.matches(d))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(matched, expected, "vm != tree for {predicate}");
        let proj = program
            .is_projectable()
            .then(|| Projection::build(docs).expect("projection fits the cell budget"));
        if let Some(proj) = &proj {
            program.run_projected(proj, &mut scratch, &mut matched);
            assert_eq!(matched, expected, "projected vm != tree for {predicate}");
        }
        // Seeded selections (every other row, the back half, none) match
        // exactly the seeded rows the whole-batch run matches.
        let n = docs.len() as u32;
        for rows in [
            (0..n).step_by(2).collect(),
            (n / 2..n).collect(),
            Vec::new(),
        ] {
            let want: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|r| expected.contains(r))
                .collect();
            program.run_rows(docs, &rows, &mut scratch, &mut matched);
            assert_eq!(matched, want, "seeded vm != tree for {predicate}");
            if let Some(proj) = &proj {
                program.run_projected_rows(proj, &rows, &mut scratch, &mut matched);
                assert_eq!(matched, want, "seeded projected vm != tree for {predicate}");
            }
        }
    }

    #[test]
    fn constant_pool_dedups_ints_floats_strings_and_paths() {
        let p = Predicate::leaf(FilterFn::IntEq {
            path: ptr("/a"),
            value: 7,
        })
        .and(Predicate::leaf(FilterFn::ArrSize {
            path: ptr("/a"),
            op: Comparison::Eq,
            value: 7,
        }))
        .and(Predicate::leaf(FilterFn::StrEq {
            path: ptr("/b"),
            value: "x".into(),
        }))
        .and(Predicate::leaf(FilterFn::HasPrefix {
            path: ptr("/b"),
            prefix: "x".into(),
        }))
        .and(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/a"),
            op: Comparison::Lt,
            value: 0.5,
        }))
        .and(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/b"),
            op: Comparison::Gt,
            value: 0.5,
        }));
        let program = compile(&p).unwrap();
        let pool = program.pool();
        assert_eq!(pool.ints, vec![7], "int 7 must be pooled once");
        assert_eq!(pool.floats, vec![0.5], "float 0.5 must be pooled once");
        assert_eq!(pool.strings, vec!["x"], "string must be pooled once");
        assert_eq!(pool.paths.len(), 2, "paths /a and /b interned once each");
        assert_eq!(program.leaves().len(), 6);
    }

    #[test]
    fn float_pool_keeps_negative_zero_distinct() {
        let p = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/a"),
            op: Comparison::Eq,
            value: 0.0,
        })
        .and(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/a"),
            op: Comparison::Eq,
            value: -0.0,
        }));
        let program = compile(&p).unwrap();
        assert_eq!(program.pool().floats.len(), 2, "dedup is by bit pattern");
    }

    #[test]
    fn jump_targets_land_on_matching_pops() {
        // (a && b) || (c && d): the inner jumps must land on the inner
        // pops, the outer jump on the outer pop.
        let p = exists("/a")
            .and(exists("/b"))
            .or(exists("/c").and(exists("/d")));
        let program = compile(&p).unwrap();
        let ops = program.ops();
        assert_eq!(
            ops,
            &[
                // left arm: a && b into r0
                Op::Eval { leaf: 0, dst: 0 },
                Op::PushAndSel { src: 0 },
                Op::JumpIfEmpty { target: 5 },
                Op::Eval { leaf: 1, dst: 1 },
                Op::Merge { dst: 0, src: 1 },
                Op::PopSel,
                // outer OR pushes lanes where r0 is false
                Op::PushOrSel { src: 0 },
                Op::JumpIfEmpty { target: 15 },
                // right arm: c && d into r1
                Op::Eval { leaf: 2, dst: 1 },
                Op::PushAndSel { src: 1 },
                Op::JumpIfEmpty { target: 13 },
                Op::Eval { leaf: 3, dst: 2 },
                Op::Merge { dst: 1, src: 2 },
                Op::PopSel,
                Op::Merge { dst: 0, src: 1 },
                Op::PopSel,
            ]
        );
        for op in ops {
            if let Op::JumpIfEmpty { target } = op {
                assert_eq!(
                    ops[usize::from(*target)],
                    Op::PopSel,
                    "every jump target must be a PopSel"
                );
            }
        }
    }

    #[test]
    fn match_all_program_selects_every_lane() {
        let program = Program::match_all();
        assert_eq!(program.registers(), 0);
        assert!(program.ops().is_empty());
        let docs = docs();
        let mut scratch = VmScratch::new();
        let mut matched = Vec::new();
        program.run(&docs, &mut scratch, &mut matched);
        assert_eq!(matched.len(), docs.len());
        assert_eq!(matched.first(), Some(&0));
        assert_eq!(matched.last(), Some(&(docs.len() as u32 - 1)));
    }

    #[test]
    fn single_leaf_program_is_one_eval() {
        let p = Predicate::leaf(FilterFn::BoolEq {
            path: ptr("/even"),
            value: true,
        });
        let program = compile(&p).unwrap();
        assert_eq!(program.registers(), 1);
        assert_eq!(program.ops(), &[Op::Eval { leaf: 0, dst: 0 }]);
        assert_eq!(program.count_matches(&docs()), 20);
    }

    #[test]
    fn disassembler_golden() {
        let p = Predicate::leaf(FilterFn::BoolEq {
            path: ptr("/user/verified"),
            value: true,
        })
        .and(
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/score"),
                op: Comparison::Ge,
                value: 0.5,
            })
            .or(Predicate::leaf(FilterFn::StrEq {
                path: ptr("/lang"),
                value: "de".into(),
            })),
        );
        let program = compile(&p).unwrap();
        let golden = "\
registers: 3
paths:
  p0 = '/user/verified'
  p1 = '/score'
  p2 = '/lang'
floats:
  f0 = 0.5
strings:
  s0 = \"de\"
leaves:
  l0 = p0 == true
  l1 = p1 >= f0
  l2 = p2 == s0
ops:
  0000 eval l0 -> r0
  0001 push.and r0
  0002 jump.empty -> 0010
  0003 eval l1 -> r1
  0004 push.or r1
  0005 jump.empty -> 0008
  0006 eval l2 -> r2
  0007 merge r1 <- r2
  0008 pop
  0009 merge r0 <- r1
  0010 pop
";
        assert_eq!(program.disassemble(), golden);
    }

    #[test]
    fn register_budget_is_enforced_for_right_deep_trees() {
        // Left-deep chains (the generator's shape) stay at pressure 2.
        let mut left_deep = exists("/x0");
        for i in 1..40 {
            left_deep = left_deep.and(exists(&format!("/x{i}")));
        }
        assert_eq!(register_pressure(&left_deep), 2);
        assert_eq!(compile(&left_deep).unwrap().registers(), 2);

        // A right-deep chain of depth 17 needs 17 registers.
        let mut right_deep = exists("/y16");
        for i in (0..16).rev() {
            right_deep = exists(&format!("/y{i}")).and(right_deep);
        }
        assert_eq!(register_pressure(&right_deep), 17);
        assert_eq!(
            compile(&right_deep),
            Err(CompileError::RegisterBudget {
                needed: 17,
                budget: REGISTER_BUDGET
            })
        );
        let msg = compile(&right_deep).unwrap_err().to_string();
        assert!(msg.contains("17"), "error names the pressure: {msg}");
    }

    #[test]
    fn right_spines_at_the_register_budget_boundary() {
        // Exactly 15 and 16 registers compile (and verify, and run);
        // 17 is the first pressure over the budget.
        let spine = |n: usize| {
            let mut p = exists(&format!("/s{}", n - 1));
            for i in (0..n - 1).rev() {
                p = exists(&format!("/s{i}")).and(p);
            }
            p
        };
        for n in [REGISTER_BUDGET - 1, REGISTER_BUDGET] {
            let p = spine(n);
            assert_eq!(register_pressure(&p), n);
            let program = compile(&p).unwrap();
            assert_eq!(program.registers(), n);
            program.verify().expect("boundary spine verifies");
            assert_eq!(program.count_matches(&docs()), 0, "no /sN in the corpus");
        }
        assert_eq!(
            compile(&spine(REGISTER_BUDGET + 1)),
            Err(CompileError::RegisterBudget {
                needed: REGISTER_BUDGET + 1,
                budget: REGISTER_BUDGET
            })
        );
    }

    #[test]
    fn duplicate_constants_across_connective_arms_share_pool_entries() {
        // The same string/int constants and paths in both arms of an OR
        // are interned once; the leaf table keeps all four tests.
        let arm = |path: &str| {
            Predicate::leaf(FilterFn::StrEq {
                path: ptr(path),
                value: "dup".into(),
            })
            .and(Predicate::leaf(FilterFn::IntEq {
                path: ptr("/shared"),
                value: 42,
            }))
        };
        let p = arm("/x").or(arm("/y"));
        let program = compile(&p).unwrap();
        assert_eq!(program.pool().strings, vec!["dup"]);
        assert_eq!(program.pool().ints, vec![42]);
        assert_eq!(program.pool().paths.len(), 3, "/x, /y, /shared");
        assert_eq!(program.leaves().len(), 4);
        assert_equivalent(&p, &docs());
    }

    #[test]
    fn vm_matches_tree_walker_on_every_leaf_kind() {
        let docs = docs();
        assert_equivalent(&kitchen_sink(), &docs);
        // Each leaf kind alone.
        let leaves: Vec<Predicate> = vec![
            exists("/meta/a"),
            Predicate::leaf(FilterFn::IsString { path: ptr("/n") }),
            Predicate::leaf(FilterFn::IntEq {
                path: ptr("/n"),
                value: 3,
            }),
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/f"),
                op: Comparison::Lt,
                value: 5.0,
            }),
            Predicate::leaf(FilterFn::StrEq {
                path: ptr("/name"),
                value: "user11".into(),
            }),
            Predicate::leaf(FilterFn::HasPrefix {
                path: ptr("/name"),
                prefix: "user3".into(),
            }),
            Predicate::leaf(FilterFn::BoolEq {
                path: ptr("/even"),
                value: false,
            }),
            Predicate::leaf(FilterFn::ArrSize {
                path: ptr("/tags"),
                op: Comparison::Gt,
                value: 2,
            }),
            Predicate::leaf(FilterFn::ObjSize {
                path: ptr("/meta"),
                op: Comparison::Le,
                value: 2,
            }),
        ];
        for leaf in &leaves {
            assert_equivalent(leaf, &docs);
        }
        // Array-index path and a path through a non-container.
        assert_equivalent(
            &Predicate::leaf(FilterFn::IntEq {
                path: ptr("/tags/1"),
                value: 2,
            }),
            &docs,
        );
        assert_equivalent(&exists("/name/deeper"), &docs);
    }

    #[test]
    fn scratch_reuse_across_shrinking_batches_is_sound() {
        // Run a big batch, then a smaller one with the same scratch: stale
        // register/selection contents from the first batch must not leak.
        let all = docs();
        let p = kitchen_sink();
        let program = compile(&p).unwrap();
        let mut scratch = VmScratch::new();
        let mut matched = Vec::new();
        program.run(&all, &mut scratch, &mut matched);
        for batch in [&all[..7], &all[7..13], &all[13..], &all[..0]] {
            program.run(batch, &mut scratch, &mut matched);
            let expected: Vec<u32> = batch
                .iter()
                .enumerate()
                .filter(|(_, d)| p.matches(d))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(matched, expected);
        }
    }

    #[test]
    fn short_circuit_jump_taken_on_empty_selection() {
        // Left arm matches nothing → the AND's right arm must be skipped
        // (and the result still correct).
        let p = exists("/nope").and(exists("/n"));
        let program = compile(&p).unwrap();
        assert_eq!(program.count_matches(&docs()), 0);
        // Left arm matches everything → the OR's right arm is skipped.
        let p = exists("/n").or(exists("/nope"));
        let program = compile(&p).unwrap();
        assert_eq!(program.count_matches(&docs()), 40);
    }

    #[test]
    fn compiled_aggregation_matches_tree_walker() {
        let mixed = vec![
            json!({ "n": 1, "lang": "de", "ok": true }),
            json!({ "n": 2, "lang": "de", "ok": false }),
            json!({ "n": 3.5, "lang": "en" }),
            json!({ "lang": "en" }),
            json!({ "n": 4 }),
            json!({ "n": (i64::MAX) }),
            json!({ "n": (i64::MAX) }),
        ];
        let aggs = vec![
            Aggregation::new(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                "count",
            ),
            Aggregation::new(AggFunc::Count { path: ptr("/n") }, "present"),
            Aggregation::new(AggFunc::Sum { path: ptr("/n") }, "total"),
            Aggregation::grouped(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                ptr("/lang"),
                "count",
            ),
            Aggregation::grouped(AggFunc::Sum { path: ptr("/n") }, ptr("/ok"), "total"),
            Aggregation::grouped(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                ptr("/n"),
                "c",
            ),
        ];
        for agg in &aggs {
            let compiled = CompiledAggregation::compile(agg);
            assert_eq!(compiled.eval(&mixed), agg.eval(&mixed), "agg {agg}");
            assert_eq!(compiled.eval(&[]), agg.eval(&[]), "empty input for {agg}");
        }
    }

    #[test]
    fn projection_handles_heterogeneous_and_mixed_type_corpora() {
        // Shuffled key orders (defeats the position fast path), missing
        // fields, nulls, type changes per lane, and an object/array mix
        // at the same path — projected results must still equal the
        // tree-walker everywhere.
        let docs = vec![
            json!({ "a": 1, "b": "x", "c": [1, 2] }),
            json!({ "b": "xy", "a": 2.5, "c": { "0": 9 } }),
            json!({ "c": [7], "a": (Value::Null) }),
            json!({ "a": "1", "b": (true) }),
            json!({}),
            json!({ "b": "x", "b2": { "deep": { "deeper": 3 } } }),
        ];
        let preds = vec![
            exists("/a"),
            exists("/c/0"),
            Predicate::leaf(FilterFn::IsString { path: ptr("/a") }),
            Predicate::leaf(FilterFn::IntEq {
                path: ptr("/c/0"),
                value: 1,
            }),
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/a"),
                op: Comparison::Ge,
                value: 2.0,
            }),
            Predicate::leaf(FilterFn::StrEq {
                path: ptr("/b"),
                value: "x".into(),
            }),
            Predicate::leaf(FilterFn::StrEq {
                path: ptr("/b"),
                value: "not-in-corpus".into(),
            }),
            Predicate::leaf(FilterFn::HasPrefix {
                path: ptr("/b"),
                prefix: "x".into(),
            }),
            Predicate::leaf(FilterFn::BoolEq {
                path: ptr("/b"),
                value: true,
            }),
            Predicate::leaf(FilterFn::ArrSize {
                path: ptr("/c"),
                op: Comparison::Ge,
                value: 2,
            }),
            Predicate::leaf(FilterFn::ObjSize {
                path: ptr("/b2/deep"),
                op: Comparison::Eq,
                value: 1,
            }),
            exists("/a").and(exists("/b").or(exists("/c/0"))),
            exists("/b2/deep/deeper").or(Predicate::leaf(FilterFn::IntEq {
                path: ptr("/c/0"),
                value: 7,
            })),
        ];
        for p in &preds {
            assert_equivalent(p, &docs);
        }
    }

    #[test]
    fn non_canonical_array_tokens_are_not_projectable() {
        // "00" parses as array index 0 for resolution but names a
        // different object member, so no shredded node is sound for it.
        let p = exists("/a/00");
        let program = compile(&p).unwrap();
        assert!(!program.is_projectable());
        assert!(compile(&exists("/a/0")).unwrap().is_projectable());
        assert!(Program::match_all().is_projectable());
        // The tree-walker still handles it (via assert_equivalent's
        // unprojected leg) and treats "00" as index 0 on arrays.
        let docs = vec![json!({ "a": [5] }), json!({ "a": { "00": 5 } })];
        assert_equivalent(&p, &docs);
    }

    #[test]
    fn projected_match_all_selects_every_lane() {
        let docs = docs();
        let proj = Projection::build(&docs).unwrap();
        let program = Program::match_all();
        let mut scratch = VmScratch::new();
        let mut matched = Vec::new();
        program.run_projected(&proj, &mut scratch, &mut matched);
        assert_eq!(matched.len(), docs.len());
        program.run_projected_rows(&proj, &[1, 4], &mut scratch, &mut matched);
        assert_eq!(matched, [1, 4]);
    }

    #[test]
    fn compiled_path_resolution_mirrors_json_pointer() {
        let doc = json!({ "a/b": 1, "tags": [10, 20], "user": { "name": "x" } });
        for text in [
            "",
            "/a~1b",
            "/tags/1",
            "/tags/9",
            "/tags/nope",
            "/user/name",
            "/user/name/deeper",
            "/missing",
        ] {
            let p = ptr(text);
            let compiled = CompiledPath::new(&p);
            assert_eq!(compiled.resolve(&doc), p.resolve(&doc), "path {text:?}");
            assert_eq!(compiled.source(), &p);
        }
    }
}
