"""Spans around the public functions of each crossmod layer, installed from
outside the program by rebinding every module attribute (and module-level
table entry) that holds a traced function, and the methods on their classes.

Spans stay in memory as parallel lists: name, start, end, parent span, op.
Self time is a span's duration minus its children's and minus the time the
tracer itself spent scanning operands inside it.
"""

from __future__ import annotations

import sys
import time

now = time.perf_counter


def _is_identity(m) -> bool:
    if m.rows != m.cols:
        return False
    return all(x == (i == j) for i, row in enumerate(m.data) for j, x in enumerate(row))


class Tracer:
    # span name -> (module, attribute names): module functions
    FUNCTIONS = {
        "hqft.eval_expression": ("crossmod.hqft", ["eval_expression"]),
        "hqft.eval_piece": ("crossmod.hqft", ["eval_piece"]),
        "hqft.check_equivalence_invariance": ("crossmod.hqft", ["check_equivalence_invariance"]),
        "hqft.make_hqft": ("crossmod.hqft", ["make_hqft"]),
        "formal_maps.typecheck": ("crossmod.formal_maps", ["typecheck"]),
        "algebras.check_crossed_algebra": ("crossmod.algebras", ["check_crossed_algebra"]),
        "algebras.check_boxed_identities": ("crossmod.algebras", ["check_boxed_identities"]),
        "algebras.pushforward_ideal": ("crossmod.algebras", ["pushforward_ideal"]),
        "algebras.construct": ("crossmod.algebras", ["group_algebra_C", "group_algebra_P",
                                                     "pullback", "pushforward"]),
        "crossed_modules.crossed_module": ("crossmod.crossed_modules", ["crossed_module"]),
        "serialize.from_doc": ("crossmod.serialize", ["from_doc"]),
        "serialize.to_doc": ("crossmod.serialize", ["to_doc"]),
        "serialize.dumps": ("crossmod.serialize", ["dumps"]),
        "serialize.load_file": ("crossmod.serialize", ["load_file"]),
        "cli.main": ("crossmod.cli", ["main"]),
    }
    # span name -> (module, class, method names)
    METHODS = {
        "linalg.matmul": ("crossmod.linalg", "Matrix", ["__matmul__"]),
        "linalg.kron": ("crossmod.linalg", "Matrix", ["kron"]),
        "linalg.eq": ("crossmod.linalg", "Matrix", ["__eq__"]),
        "linalg.elim": ("crossmod.linalg", "Matrix", ["inverse", "solve", "nullspace"]),
        "linalg.rowspace_add": ("crossmod.linalg", "RowSpace", ["add"]),
        "algebras.multiply": ("crossmod.algebras", "CrossedCAlgebra", ["multiply"]),
        "algebras.pairing": ("crossmod.algebras", "CrossedCAlgebra", ["pairing"]),
        "algebras.left_mul_matrix": ("crossmod.algebras", "CrossedCAlgebra", ["left_mul_matrix"]),
        "algebras.mul_matrix": ("crossmod.algebras", "CrossedCAlgebra", ["mul_matrix"]),
    }
    SPANS = list(FUNCTIONS) + list(METHODS)

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.excluded = []          # tracer time spent inside each span
        self.stack = [-1]
        self.op_id = -1             # -1 while setting up
        self.counts = dict.fromkeys(
            ["matmul_mkn", "matmul_operand_entries", "matmul_zero_entries",
             "matmul_identity_calls", "kron_out_entries", "kron_identity_calls",
             "rowspace_accepted", "piece_repeats", "nonzero_entries",
             "integral_entries", "entry_bits"], 0)
        self.pieces_seen = set()
        self.patches = []           # (owner, attribute or key, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, span, fn, before=None, after=None):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, excluded, stack = self.parent, self.op, self.excluded, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                t0 = now()
                before(args)
                if stack[-1] >= 0:
                    excluded[stack[-1]] += now() - t0
            idx = len(starts)
            names.append(span)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _scan(self, *mats):
        """Scalar statistics over the nonzero entries of the operands."""
        c = self.counts
        for m in mats:
            for row in m.data:
                for x in row:
                    if x:
                        c["nonzero_entries"] += 1
                        den = x.denominator
                        c["integral_entries"] += den == 1
                        c["entry_bits"] += abs(x.numerator).bit_length() + den.bit_length()

    def _before_matmul(self, args):
        a, b = args
        c = self.counts
        c["matmul_mkn"] += a.rows * a.cols * b.cols
        entries = a.rows * a.cols + b.rows * b.cols
        c["matmul_operand_entries"] += entries
        c["matmul_zero_entries"] += sum(1 for m in (a, b) for row in m.data for x in row if not x)
        c["matmul_identity_calls"] += _is_identity(a) or _is_identity(b)
        self._scan(a, b)

    def _before_kron(self, args):
        a, b = args
        c = self.counts
        c["kron_out_entries"] += a.rows * b.rows * a.cols * b.cols
        c["kron_identity_calls"] += _is_identity(a) or _is_identity(b)
        self._scan(a, b)

    def _before_piece(self, args):
        key = (id(args[0].algebra), args[1])
        self.counts["piece_repeats"] += key in self.pieces_seen
        self.pieces_seen.add(key)

    def _after_rowspace_add(self, grew):
        self.counts["rowspace_accepted"] += bool(grew)

    # -- installing ---------------------------------------------------------

    def install(self):
        """Rebind every traced function wherever a crossmod module binds it."""
        hooks = {"hqft.eval_piece": (self._before_piece, None),
                 "linalg.matmul": (self._before_matmul, None),
                 "linalg.kron": (self._before_kron, None),
                 "linalg.rowspace_add": (None, self._after_rowspace_add)}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "crossmod" or n.startswith("crossmod.")) and m is not None]
        for span, (mod, attrs) in self.FUNCTIONS.items():
            for attr in attrs:
                original = getattr(sys.modules[mod], attr)
                wrapper = self._wrap(span, original, *hooks.get(span, (None, None)))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patch(value, k, wrapper)
        for span, (mod, cls_name, methods) in self.METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            for meth in methods:
                wrapper = self._wrap(span, getattr(cls, meth), *hooks.get(span, (None, None)))
                self._patch(cls, meth, wrapper)

    def _patch(self, owner, key, wrapper):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = wrapper
        else:
            original = getattr(owner, key)
            setattr(owner, key, wrapper)
        self.patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.patches = []

    # -- reporting ----------------------------------------------------------

    def self_times(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = [d - x for d, x in zip(dur, self.excluded)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def metrics(self, op_seconds: float, overhead_ratio: float):
        """The per-layer metrics over every recorded span (set-up and the
        traced cycle). `op_seconds` is the traced cycle's total op time."""
        dur, own = self.self_times()
        calls = dict.fromkeys(self.SPANS, 0)
        self_s = dict.fromkeys(self.SPANS, 0.0)
        for name, t in zip(self.name, own):
            calls[name] += 1
            self_s[name] += t
        top = sum(d for d, p, op in zip(dur, self.parent, self.op) if p < 0 and op >= 0)
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in self.SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out.update({
            "hqft.eval_piece.repeat_frac": (frac(c["piece_repeats"], calls["hqft.eval_piece"]), "1"),
            "linalg.matmul.mkn": (c["matmul_mkn"], "count"),
            "linalg.matmul.zero_frac": (frac(c["matmul_zero_entries"],
                                             c["matmul_operand_entries"]), "1"),
            "linalg.matmul.identity_frac": (frac(c["matmul_identity_calls"],
                                                 calls["linalg.matmul"]), "1"),
            "linalg.kron.out_entries": (c["kron_out_entries"], "count"),
            "linalg.kron.identity_frac": (frac(c["kron_identity_calls"],
                                               calls["linalg.kron"]), "1"),
            "linalg.rowspace_add.accept_frac": (frac(c["rowspace_accepted"],
                                                     calls["linalg.rowspace_add"]), "1"),
            "fields.integral_frac": (frac(c["integral_entries"], c["nonzero_entries"]), "1"),
            "fields.entry_bits_mean": (frac(c["entry_bits"], c["nonzero_entries"]), "bit"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
            "trace.coverage": (frac(top, op_seconds), "1"),
        })
        return out

    def write(self, path):
        """The raw spans, one per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write("\t".join(map(str, row)) + "\n")
