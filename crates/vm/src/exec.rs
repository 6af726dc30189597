//! The vectorized batch executor.
//!
//! Instead of recursing through the predicate tree once per document, the
//! executor interprets the flat op list once per *batch*: every `Eval`
//! runs one leaf test in a tight loop over the lanes of the current
//! selection vector, and the selection stack narrows lanes entering the
//! right arm of a connective — per-lane short-circuiting with leaf-major
//! memory access and zero per-document control flow. All buffers live in
//! a caller-owned [`VmScratch`] and are reused, so the steady-state loop
//! is allocation-free.

use crate::program::{CompiledLeaf, LeafTest, Op, Program};
use crate::Projection;
use betze_json::Value;

/// Reusable execution state: boolean register columns and the selection
/// stack. Create one per thread and pass it to every
/// [`Program::run`] call; buffers grow to the largest batch seen and are
/// never shrunk.
#[derive(Debug, Default)]
pub struct VmScratch {
    /// One boolean column per register.
    regs: Vec<Vec<bool>>,
    /// Selection stack; `sels[0]` is the batch identity.
    sels: Vec<Vec<u32>>,
    /// Inline-cache member-position hints, one slot per path step of the
    /// running program (see [`betze_json::Object::get_hinted`]). Never
    /// cleared: stale predictions self-correct on the first miss.
    hints: Vec<u32>,
}

impl VmScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        VmScratch::default()
    }
}

impl Program {
    /// Runs the program over a batch of documents, writing the indices of
    /// matching lanes (ascending) into `matched`.
    ///
    /// Lanes are `u32`, so a batch is limited to `u32::MAX` documents —
    /// callers chunk larger inputs (which is the point of batching).
    pub fn run(&self, docs: &[Value], scratch: &mut VmScratch, matched: &mut Vec<u32>) {
        self.interpret(
            docs.len(),
            None,
            scratch,
            matched,
            |prog, leaf, sel, reg, hints| prog.eval_leaf(leaf, docs, sel, reg, hints),
        );
    }

    /// [`run`](Self::run) restricted to the documents at `rows`
    /// (strictly ascending indices into `docs`): the rows seed the
    /// selection stack, so no other document is touched, and `matched`
    /// receives the matching rows — a subset of `rows`, ascending. Per-row
    /// results are those of `run` over the whole of `docs`, because a
    /// program evaluates every lane independently.
    ///
    /// # Panics
    ///
    /// If a row is out of bounds of `docs`.
    pub fn run_rows(
        &self,
        docs: &[Value],
        rows: &[u32],
        scratch: &mut VmScratch,
        matched: &mut Vec<u32>,
    ) {
        self.interpret(
            docs.len(),
            Some(rows),
            scratch,
            matched,
            |prog, leaf, sel, reg, hints| prog.eval_leaf(leaf, docs, sel, reg, hints),
        );
    }

    /// Runs the program against a shredded [`Projection`] of the corpus
    /// instead of the documents themselves: leaf tests become sequential
    /// column scans, with path resolution amortized into the one-time
    /// [`Projection::build`]. Matched lanes are identical to
    /// [`run`](Self::run) over the same documents.
    ///
    /// # Panics
    ///
    /// If the program is not [`is_projectable`](Self::is_projectable)
    /// (non-canonical numeric path tokens) — callers must check and fall
    /// back to `run`.
    pub fn run_projected(
        &self,
        proj: &Projection,
        scratch: &mut VmScratch,
        matched: &mut Vec<u32>,
    ) {
        self.run_projected_lanes(proj, None, scratch, matched);
    }

    /// [`run_projected`](Self::run_projected) restricted to the lanes
    /// `rows` (strictly ascending) — the projection of a whole corpus
    /// serves any selection of its documents, matching exactly the rows
    /// [`run_rows`](Self::run_rows) matches over the documents.
    ///
    /// # Panics
    ///
    /// As `run_projected`, and if a row is out of bounds of the
    /// projection.
    pub fn run_projected_rows(
        &self,
        proj: &Projection,
        rows: &[u32],
        scratch: &mut VmScratch,
        matched: &mut Vec<u32>,
    ) {
        self.run_projected_lanes(proj, Some(rows), scratch, matched);
    }

    fn run_projected_lanes(
        &self,
        proj: &Projection,
        rows: Option<&[u32]>,
        scratch: &mut VmScratch,
        matched: &mut Vec<u32>,
    ) {
        assert!(
            self.projectable,
            "program paths have non-canonical array tokens; use Program::run"
        );
        self.interpret(
            proj.lanes(),
            rows,
            scratch,
            matched,
            |prog, leaf, sel, reg, _| {
                proj.eval_leaf(prog, leaf, sel, reg);
            },
        );
    }

    /// The shared op-loop: everything except how a leaf is evaluated.
    /// `rows` seeds the selection stack (every lane `0..len` when
    /// `None`); only seeded lanes are evaluated or reported.
    fn interpret(
        &self,
        len: usize,
        rows: Option<&[u32]>,
        scratch: &mut VmScratch,
        matched: &mut Vec<u32>,
        mut eval: impl FnMut(&Program, &CompiledLeaf, &[u32], &mut [bool], &mut [u32]),
    ) {
        matched.clear();
        assert!(u32::try_from(len).is_ok(), "batch exceeds u32 lane space");
        if let Some(rows) = rows {
            assert!(
                rows.last().is_none_or(|&r| (r as usize) < len),
                "seeded row out of bounds of a {len}-lane batch"
            );
            debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        }
        if self.registers == 0 {
            // match_all: no instructions, every lane matches.
            match rows {
                Some(rows) => matched.extend_from_slice(rows),
                None => matched.extend(0..len as u32),
            }
            return;
        }
        let nregs = usize::from(self.registers);
        if scratch.regs.len() < nregs {
            scratch.regs.resize_with(nregs, Vec::new);
        }
        for reg in &mut scratch.regs[..nregs] {
            // No clearing: every lane that is read was written by an Eval
            // over a selection containing it first.
            if reg.len() < len {
                reg.resize(len, false);
            }
        }
        if scratch.hints.len() < self.hint_slots {
            scratch.hints.resize(self.hint_slots, 0);
        }
        if scratch.sels.is_empty() {
            scratch.sels.push(Vec::new());
        }
        scratch.sels[0].clear();
        match rows {
            Some(rows) => scratch.sels[0].extend_from_slice(rows),
            None => scratch.sels[0].extend(0..len as u32),
        }

        let mut depth = 0usize;
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match self.ops[pc] {
                Op::Eval { leaf, dst } => {
                    let leaf = &self.leaves[usize::from(leaf)];
                    let sel = &scratch.sels[depth];
                    let reg = &mut scratch.regs[usize::from(dst)];
                    eval(self, leaf, sel, reg, &mut scratch.hints);
                }
                Op::PushAndSel { src } => {
                    push_sel(scratch, depth, usize::from(src), true);
                    depth += 1;
                }
                Op::PushOrSel { src } => {
                    push_sel(scratch, depth, usize::from(src), false);
                    depth += 1;
                }
                Op::JumpIfEmpty { target } => {
                    if scratch.sels[depth].is_empty() {
                        // Land on the matching PopSel.
                        pc = usize::from(target);
                        continue;
                    }
                }
                Op::Merge { dst, src } => {
                    let (d, s) = (usize::from(dst), usize::from(src));
                    debug_assert!(s > d, "merge source must be the higher register");
                    let sel = &scratch.sels[depth];
                    let (low, high) = scratch.regs.split_at_mut(s);
                    let dreg = &mut low[d];
                    let sreg = &high[0];
                    for &lane in sel {
                        dreg[lane as usize] = sreg[lane as usize];
                    }
                }
                Op::PopSel => {
                    depth -= 1;
                }
            }
            pc += 1;
        }

        // Unseeded lanes were never written, so only the seed is read.
        let result = &scratch.regs[0];
        matched.extend(
            scratch.sels[0]
                .iter()
                .copied()
                .filter(|&lane| result[lane as usize]),
        );
    }

    /// Convenience wrapper counting matches with a fresh scratch (tests
    /// and one-shot callers).
    pub fn count_matches(&self, docs: &[Value]) -> usize {
        let mut scratch = VmScratch::new();
        let mut matched = Vec::new();
        self.run(docs, &mut scratch, &mut matched);
        matched.len()
    }

    /// Evaluates one leaf over the selection, leaf-major: the test kind
    /// is matched once per batch, not once per document, and path
    /// resolution goes through the per-step inline cache in `hints`.
    fn eval_leaf(
        &self,
        leaf: &CompiledLeaf,
        docs: &[Value],
        sel: &[u32],
        reg: &mut [bool],
        hints: &mut [u32],
    ) {
        let pidx = usize::from(leaf.path);
        let path = &self.pool.paths[pidx];
        let base = self.hint_bases[pidx] as usize;
        let hints = &mut hints[base..base + path.steps.len()];
        match leaf.test {
            LeafTest::Exists => {
                for &lane in sel {
                    reg[lane as usize] = path.resolve_hinted(&docs[lane as usize], hints).is_some();
                }
            }
            LeafTest::IsString => {
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::String(_))
                    );
                }
            }
            LeafTest::IntEq { value } => {
                // Same conversion as FilterFn::matches: compare as f64.
                let value = self.pool.ints[usize::from(value)] as f64;
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::Number(n)) if n.as_f64() == value
                    );
                }
            }
            LeafTest::FloatCmp { op, value } => {
                let value = self.pool.floats[usize::from(value)];
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::Number(n)) if op.eval(n.as_f64(), value)
                    );
                }
            }
            LeafTest::StrEq { value } => {
                let value = self.pool.strings[usize::from(value)].as_str();
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::String(s)) if s == value
                    );
                }
            }
            LeafTest::HasPrefix { prefix } => {
                let prefix = self.pool.strings[usize::from(prefix)].as_str();
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::String(s)) if s.starts_with(prefix)
                    );
                }
            }
            LeafTest::BoolEq { value } => {
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::Bool(b)) if *b == value
                    );
                }
            }
            LeafTest::ArrSize { op, value } => {
                let value = self.pool.ints[usize::from(value)];
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::Array(a)) if op.eval(a.len() as i64, value)
                    );
                }
            }
            LeafTest::ObjSize { op, value } => {
                let value = self.pool.ints[usize::from(value)];
                for &lane in sel {
                    reg[lane as usize] = matches!(
                        path.resolve_hinted(&docs[lane as usize], hints),
                        Some(Value::Object(o)) if op.eval(o.len() as i64, value)
                    );
                }
            }
        }
    }
}

/// Pushes the narrowed selection of lanes where `regs[src] == want` onto
/// the stack.
fn push_sel(scratch: &mut VmScratch, depth: usize, src: usize, want: bool) {
    if scratch.sels.len() <= depth + 1 {
        scratch.sels.push(Vec::new());
    }
    let (low, high) = scratch.sels.split_at_mut(depth + 1);
    let cur = &low[depth];
    let next = &mut high[0];
    next.clear();
    let reg = &scratch.regs[src];
    for &lane in cur {
        if reg[lane as usize] == want {
            next.push(lane);
        }
    }
}
