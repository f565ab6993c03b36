"""Define the benchmark's workloads and record their answers.

    python3 perfbench/record.py

writes perfbench/expected.json: for each workload, its ops in pass order,
each with the base Seifert matrix it runs on and the answer the package
gives at the commit that recorded it.  The worker compares every op of
every pass with that answer, so re-record only for a deliberate, reviewed
change of the package's mathematics.

Random base matrices are dense integral Seifert matrices of genus g with
a free upper triangle and A - A^T the standard symplectic form (entries in
[-4, 4]), drawn from fixed generator seeds; the run's --seed varies the
matrices the program sees by congruence (see worker.py), not the knots.
"""

import json
import random
import sys
from time import perf_counter

import worker

sys.path.insert(0, str(worker.ROOT / "src"))
import bingcheck as bc  # noqa: E402

PRESENTATION_KNOTS = 4  # random genus-2 knots

BING = (("3_1", 3), ("4_1", 3), ("6_1", 3), ("3_1#-3_1", 2))
JPQ = (("3_1", 3, 4), ("4_1", 2, 5), ("6_1", 1, 6), ("3_1", 2, 3),
       ("4_1", 1, 1), ("twist(3)", 2, 2), ("6_1", 3, 3))
CABLES = (("3_1", 8), ("4_1", 6), ("6_1", 5), ("twist(-3)", 7))
COVERS = (("3_1", 2), ("4_1", 3), ("6_1", 4), ("twist(3)", 5))
# n for the random genus-2 knots g2-0..g2-3; g2-3 has close circle roots, and
# its phi_5 takes 4.5 s and its phi_8 35 s (2-vCPU Xeon, Python 3.11), longer
# than a whole pass
KNOT_CABLES = (5, 4, 3, 2)


def random_seifert(rng, genus):
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-4, 4)
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-4, 4)
            rows[j][i] = rows[i][j] - (1 if i % 2 == 0 and j == i + 1 else 0)
    return rows


def catalog_matrix(name):
    if name == "3_1#-3_1":
        t = bc.catalog_lookup("3_1").seifert
        s = bc.connected_sum(t, bc.mirror(t))
    else:
        s = bc.catalog_lookup(name).seifert
    return [[int(x) for x in row] for row in s.entries]


def golden_name(name):
    return name.replace("(", "_").replace(")", "") + ".report"


def op(op_id, kind, name, matrix, golden=None, **params):
    return {"id": op_id, "kind": kind, "name": name, "matrix": matrix,
            "params": params, "golden": golden}


def bing_ops():
    return [op("bing/%s/r%d" % (name, r), "bing", name, catalog_matrix(name),
               golden=golden_name(name) if "#" not in name else None, range=r)
            for name, r in BING]


def presentation_ops():
    rng = random.Random("presentations-pool")
    knots = [("g2-%d" % k, random_seifert(rng, 2)) for k in range(PRESENTATION_KNOTS)]
    ops = []
    for name, p, q in JPQ:
        ops.append(op("jpq/%s/%d,%d" % (name, p, q), "jpq", name, catalog_matrix(name),
                      p=p, q=q))
    for name, n in CABLES:
        ops.append(op("cable/%s/%d" % (name, n), "cable", name, catalog_matrix(name), n=n))
    for (name, rows), n in zip(knots, KNOT_CABLES):
        ops.append(op("cable/%s/%d" % (name, n), "cable", name, rows, n=n))
    for name, p in COVERS:
        ops.append(op("cover/%s/%d" % (name, p), "cover", name, catalog_matrix(name), p=p))
    for k, (name, rows) in enumerate(knots):
        ops.append(op("cover/%s/%d" % (name, k + 2), "cover", name, rows, p=k + 2))
    for k, (name, rows) in enumerate(knots):
        ops.append(op("foxorder/%s/%d" % (name, k + 2), "foxorder", name, rows, p=k + 2))
    random.Random("presentations-order").shuffle(ops)
    return ops


def main():
    workloads = {"bing": bing_ops(), "presentations": presentation_ops()}
    for name, ops in workloads.items():
        total = 0.0
        for o in ops:
            text = worker.matrix_text(o["name"], o["matrix"])
            t0 = perf_counter()
            result, _ = worker.run_op(bc, o, text)
            dt = perf_counter() - t0
            total += dt
            o["answer"] = worker.answer(o, result)
            print("%-14s %-28s %7.3f s" % (name, o["id"], dt), file=sys.stderr)
        print("%-14s %d ops, %.2f s in one process" % (name, len(ops), total),
              file=sys.stderr)
    with open(worker.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(workloads, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
