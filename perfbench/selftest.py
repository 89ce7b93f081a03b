"""Self-tests of the benchmark's own machinery. Run from the checkout root:

    python3 perfbench/selftest.py

- the expression generator's types agree with the program's typecheck;
- a gauge algebra is a crossed algebra, closed expressions take the same
  value in both bases, and endomorphisms keep their traces;
- the tracer counts hand-computed values on tiny inputs;
- two traced runs of one seed give identical counts.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import exprgen  # noqa: E402
import gauge  # noqa: E402
from crossmod import algebras, fixtures, formal_maps, hqft, serialize  # noqa: E402
from crossmod.fields import QQ  # noqa: E402
from crossmod.formal_maps import Cap, Copants  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import cli_call, module_over_trivial  # noqa: E402

class Failures(list):
    def expect(self, cond, what):
        if not cond:
            self.append(what)


def trace_of(m):
    return sum(m.data[i][i] for i in range(m.rows))


def test_generator_types(fails: Failures):
    rng = random.Random(1)
    for name, L in fixtures.std_algebras(QQ).items():
        P = L.P
        for _ in range(20):
            source = [rng.randrange(P.order) for _ in range(rng.randint(0, 3))]
            e = exprgen.random_expression(L.cm, rng, source, rng.randint(1, 4), 4)
            fails.expect(formal_maps.typecheck(e).ok, f"generated expression ill-typed on {name}")


def test_gauge_invariance(fails: Failures):
    rng = random.Random(2)
    subjects = [fixtures.std_algebras(QQ)[n] for n in ("KC.CM-Mod", "KC.CM-A3S3", "KP.CM-AutS3")]
    subjects.append(algebras.group_algebra_C(module_over_trivial(3), QQ, name="KC.Z3/1"))
    for L in subjects:
        G, _ = gauge.gauge_transform(L, rng)
        fails.expect(algebras.check_crossed_algebra(G).ok, f"gauge({L.name}) is not a crossed algebra")
        fails.expect(algebras.check_boxed_identities(G).ok, f"gauge({L.name}) fails boxed identities")
        taus = [hqft.make_hqft(L), hqft.make_hqft(G)]
        cm = L.cm
        pool = [g for g in L.P.elements() if L.dims[g] > 0]
        closed = endo = 0
        for _ in range(400):
            if closed >= 8 and endo >= 8:
                break
            source = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
            e = exprgen.random_expression(cm, rng, source, rng.randint(1, 3), 3, pool)
            if not source:
                closing = exprgen.closing_layers(cm, rng, exprgen.labels(e.target), pool)
                if closing is None:
                    continue
                e = exprgen.compose(e, exprgen.build(cm, exprgen.labels(e.target), closing))
            elif exprgen.labels(e.target) != tuple(source):
                continue
            a, b = (hqft.eval_expression(t, e).matrix for t in taus)
            if not source:
                closed += 1
                fails.expect(exact.same(a.data, b.data), f"closed value changes with basis on {L.name}")
            else:
                endo += 1
                fails.expect(trace_of(a) == trace_of(b), f"endomorphism trace changes on {L.name}")
        fails.expect(closed >= 8 and endo >= 8, f"too few invariance samples on {L.name}")


def test_tracer_counts(fails: Failures, tmp: Path):
    L = fixtures.std_algebras(QQ)["KP.CM-Id2"]
    tau = hqft.make_hqft(L)
    # two layers, a copants then a cap: the copants evaluates a cup and a
    # pants inside it, so k = 4 pieces; one matmul per layer, per copants
    # and per pants, one kron per layer and two per copants, one inverse
    # for the cup's copairing
    e = exprgen.build(L.cm, [0], [[Copants(1, 1)], [Cap(1)]])
    tracer = Tracer()
    tracer.install()
    try:
        hqft.eval_expression(tau, e)
    finally:
        tracer.uninstall()
    got = {k: v for k, (v, _) in tracer.metrics(1.0, 1.0).items() if k.endswith(".calls") and v}
    want = {"hqft.eval_expression.calls": 1, "hqft.eval_piece.calls": 4,
            "formal_maps.typecheck.calls": 1, "linalg.matmul.calls": 4,
            "linalg.kron.calls": 4, "linalg.elim.calls": 1,
            "algebras.left_mul_matrix.calls": 1, "algebras.mul_matrix.calls": 1}
    fails.expect(got == want, f"traced counts of one expression: {got}")

    # the expression names its crossed module, so loading it is one from_doc
    doc = serialize.to_doc("expression", e)
    doc["crossed_module"] = "CM-Id2"
    path = tmp / "expr.json"
    path.write_text(json.dumps(doc))
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = cli_call(["eval", "KP.CM-Id2", str(path)])
    finally:
        tracer.uninstall()
    got = {k: v for k, (v, _) in tracer.metrics(1.0, 1.0).items() if k.endswith(".calls")}
    fails.expect(code == 0, f"crossmod eval exited {code}")
    # cmd_eval checks the algebra, then make_hqft checks it again; the
    # expression is typechecked by cmd_eval and by eval_expression
    for span, n in {"cli.main": 1, "algebras.check_crossed_algebra": 2, "hqft.make_hqft": 1,
                    "serialize.load_file": 1, "serialize.from_doc": 1, "serialize.dumps": 1,
                    "formal_maps.typecheck": 2, "hqft.eval_expression": 1,
                    "hqft.eval_piece": 4}.items():
        fails.expect(got[f"{span}.calls"] == n, f"crossmod eval: {span} called {got[f'{span}.calls']}"
                                          f" times, expected {n}")


DETERMINISTIC = ("calls", "mkn", "out_entries", "repeat_frac", "zero_frac", "identity_frac",
                 "accept_frac", "integral_frac", "entry_bits_mean")


def test_trace_repeats(fails: Failures):
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "cli-roundtrip",
                              "--seed", "3", "--seconds", "1", "--trace", "1"],
                             cwd=HERE.parent, capture_output=True, text=True, timeout=170)
        fails.expect(out.returncode == 0, f"traced run failed: {out.stderr[-300:]}")
        if out.returncode:
            return
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if k.endswith(DETERMINISTIC)})
    diff = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
    fails.expect(not diff, f"traced counts differ between runs: {diff}")


def main():
    failures = Failures()
    test_generator_types(failures)
    test_gauge_invariance(failures)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        test_tracer_counts(failures, Path(tmp))
    test_trace_repeats(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
