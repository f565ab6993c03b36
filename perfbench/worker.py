"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

run.py starts one worker per pass.  The worker imports bingcheck from the
checkout's src, builds the pass's inputs from the seed, checks that every
lru_cache in the package is still empty, prints `ready`, then runs the
workload's ops one after another (a closed loop with one client) and
prints one JSON line with the op times, the check results and, when
traced, the per-layer metrics.  With --setup-only it exits after `ready`:
run.py times such workers for more samples of the set-up time.

Inputs: each op of the workload (perfbench/expected.json) names a base
Seifert matrix.  The seed draws a symplectic change of basis
A -> P^T A P for every op, which gives another matrix of the same knot:
every invariant the op reports is unchanged, so the answers recorded for
the base matrix are the oracle for every seed.
"""

import argparse
import hashlib
import json
import pathlib
import random
import resource
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
GOLDEN = ROOT / "tests" / "golden"

# the signed permutations in SL(2, Z): each preserves the form [[0, 1], [-1, 0]]
_PAIR_MAPS = (((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def congruent(rows, rng):
    """P^T A P for a random symplectic signed permutation P: it permutes the
    hyperbolic pairs (e_k, f_k) of A - A^T and maps each by a signed
    permutation in SL(2, Z).  The knot and every invariant stay the same
    and so do the entry sizes, so the work of an op barely depends on P."""
    n = len(rows)
    order = list(range(n // 2))
    rng.shuffle(order)
    p = [[0] * n for _ in range(n)]
    for new, old in enumerate(order):
        m = rng.choice(_PAIR_MAPS)
        for i in range(2):
            for j in range(2):
                p[2 * old + i][2 * new + j] = m[i][j]
    out = _matmul(_matmul([list(r) for r in zip(*p)], rows), p)
    if any(out[i][j] - out[j][i] != rows[i][j] - rows[j][i]
           for i in range(n) for j in range(n)):
        raise ValueError("A - A^T is not the standard symplectic form")
    return out


def matrix_text(name, rows):
    """The CLI's matrix file format, which parse_seifert reads."""
    lines = ["# name: %s" % name, str(len(rows))]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def load_ops(workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def build_inputs(ops, seed):
    rng = random.Random("%d" % seed)
    return [matrix_text(op["name"], congruent(op["matrix"], rng)) for op in ops]


# -- the ops: each follows the CLI command of the same name --------------------

def run_op(bc, op, text):
    """Parse the matrix text, compute, and format the report as the CLI
    does (the formatting is part of the op); returns (result, output)."""
    s = bc.parse_seifert(text)
    kind, params = op["kind"], op["params"]
    if kind == "bing":
        rep = bc.bing_double_verdict(s, params["range"])
    elif kind == "cable":
        pres = bc.phi(bc.from_seifert(s), params["n"])
        rep = bc.presentation_battery(pres, name="%s cable %d" % (s.name, params["n"]))
    elif kind == "jpq":
        pres = bc.jpq_presentation(s, params["p"], params["q"])
        rep = bc.presentation_battery(
            pres, name="J(%d,%d) of %s" % (params["p"], params["q"], s.name))
    elif kind == "cover":
        cover = bc.covering_seifert_matrix(s, params["p"])
        named = bc.SeifertMatrix(cover.entries, integral=False,
                                 name="%s cover %d" % (s.name, params["p"]))
        rep = bc.obstruction_battery(named)
        return rep, bc.print_seifert(named) + "\n" + bc.format_report(rep)
    elif kind == "foxorder":
        order = bc.branched_cover_homology_order(bc.alexander(s), params["p"])
        return order, "order = %s\n" % order
    else:
        raise ValueError("unknown op kind %r" % kind)
    return rep, bc.format_report(rep)


# -- the oracle ------------------------------------------------------------------

def _battery_answer(r):
    return {
        "verdict": r.verdict,
        "certificate": r.certificate,
        "ring": r.ring,
        "alexander": str(r.alexander),
        "fox_milnor": r.fox_milnor.passes,
        "arcs": [[str(lo), str(hi), sig] for lo, hi, sig in r.signature.arc_rows()],
        "jumps": [[str(lo), str(hi), nul] for lo, hi, nul in r.signature.jump_rows()],
        "arf": r.arf,
        "determinant": r.determinant,
        "cyclotomic": list(r.cyclotomic),
    }


def answer(op, result):
    """The op's answer in a format-independent form.  Sample angles are
    left out: a better sampler may certify the same arcs at other angles."""
    if op["kind"] == "foxorder":
        return str(result)
    if op["kind"] == "bing":
        return {
            "battery": _battery_answer(result.battery),
            "verdict": result.verdict,
            "certificate": result.certificate,
            "conclusion": result.conclusion,
            "arf_certificate": result.arf_certificate,
            "crosschecks": [[c.p, c.q, c.additivity, c.telescoping]
                            for c in result.crosschecks],
        }
    return _battery_answer(result)


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(bc, op, result):
    """Problems with one op's result: a wrong answer, or a catalog knot's
    Bing battery that differs from its golden report byte for byte."""
    problems = []
    if answer(op, result) != op["answer"]:
        problems.append("answer differs from the recorded one")
    if op["golden"]:
        golden = (GOLDEN / op["golden"]).read_text(encoding="utf-8")
        if bc.format_report(result.battery) != golden:
            problems.append("battery differs from tests/golden/%s" % op["golden"])
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import bingcheck as bc

    ops = load_ops(args.workload)
    texts = build_inputs(ops, args.seed)
    warm = [name for name, cache in _lru_caches() if cache.cache_info().currsize]
    if warm:
        raise SystemExit("caches not empty before the first op: %s" % ", ".join(warm))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return

    results = []
    op_s = []
    t_start = perf_counter()
    for op, text in zip(ops, texts):
        if tracer:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            results.append(run_op(bc, op, text))
        except Exception as exc:  # counted as a failed op, reported below
            results.append(exc)
        op_s.append(perf_counter() - t0)
        if tracer:
            tracer.end_op()
    wall_s = perf_counter() - t_start
    layers = tracer.metrics() if tracer else None  # before the checks format again

    failures = []
    digests = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            failures.append([op["id"], "%s: %s" % (type(res).__name__, res)])
            digests.append(None)
            continue
        result = res[0]
        digests.append(digest(answer(op, result)))
        failures += [[op["id"], p] for p in check(bc, op, result)]
    out = {
        "wall_s": wall_s,
        "op_s": op_s,
        "failures": failures,
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    print(json.dumps(out), flush=True)


def _lru_caches():
    """(name, cache) for every module-level lru_cache in the package, found
    by attribute so that a renamed or added cache is still checked."""
    seen = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname == "bingcheck" or modname.startswith("bingcheck."):
            for attr, value in vars(mod).items():
                if callable(getattr(value, "cache_info", None)) and id(value) not in seen:
                    seen[id(value)] = ("%s.%s" % (modname, attr), value)
    return list(seen.values())


if __name__ == "__main__":
    main()
