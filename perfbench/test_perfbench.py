"""Self-tests of the benchmark's generators, oracles and checks.

    python3 -m pytest perfbench        (or: python3 -m unittest discover perfbench)

None of these runs the engine: the checks are fed hand-built answers.
"""
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402

# the ten minimal primes of the 8-cycle edge ideal, 0-based, worked by hand
C8_PRIMES = sorted([
    [0, 2, 4, 6], [1, 3, 5, 7],
    [1, 2, 4, 6, 7], [1, 2, 4, 5, 7], [0, 2, 4, 5, 7], [0, 2, 3, 5, 7],
    [0, 1, 3, 4, 6], [0, 1, 3, 5, 6], [0, 2, 3, 5, 6], [1, 3, 4, 6, 7],
])


def correct_pool_answer(inst):
    """An answer consistent with the pool oracles, built without the engine."""
    sizes = [len(f) for f in inst["facets"]]
    return {"ass": gen.ass_of_facets(inst["n"], inst["facets"]), "dim": max(sizes),
            "mdepth": min(sizes), "depth": min(sizes), "cohen_macaulay": False,
            "sequentially_cm": "false"}


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for kind in ("pool", "polarized"):
            self.assertEqual(gen.instances(kind, 7, 40), gen.instances(kind, 7, 40))
        self.assertEqual(gen.cycle_ops(7), gen.cycle_ops(7))

    def test_other_seed_other_inputs(self):
        for kind in ("pool", "polarized"):
            self.assertNotEqual(gen.digest(gen.instances(kind, 1, 40)),
                                gen.digest(gen.instances(kind, 2, 40)))

    def test_cycle_ladder_is_fixed(self):
        keys = lambda seed: sorted(op["key"] for op in gen.cycle_ops(seed))
        self.assertEqual(keys(1), keys(2))
        self.assertEqual(len(keys(1)), 11)
        self.assertEqual(len(gen.cycle_ops(1, gen.BASELINE_CYCLES)), 14)

    def test_instance_shapes(self):
        for inst in gen.pool_instances(3, 100):
            self.assertTrue(3 <= inst["n"] <= 9)
            self.assertEqual(inst["n"] >= 8, inst["id"] % 10 == 0)
        fields = set()
        for inst in gen.polarized_instances(3, 50):
            self.assertTrue(3 <= inst["n"] <= 6)
            self.assertTrue(8 <= gen.polarized_vertex_count(inst["gens"]) <= 10)
            self.assertTrue(all(0 <= e <= 3 for g in inst["gens"] for e in g))
            fields.add(inst["field"])
        self.assertEqual(fields, {0, 2})


class Oracles(unittest.TestCase):
    def test_c8_minimal_primes(self):
        self.assertEqual(sorted(gen.cycle_min_primes(8)), C8_PRIMES)

    def test_cycle_closed_forms(self):
        self.assertEqual(gen.cycle_expected(8),
                         {"depth": 3, "mdepth": 3, "dim": 4, "t": 3, "sequentially_cm": "false"})

    def test_principal_ideal(self):
        # (x1^2*x2): pol = x11*x12*x2, minimal primes (x11), (x12), (x2)
        self.assertEqual(gen.polarized_ass([[2, 1]]), [[0], [1]])
        # (x1^3) in k[x1, x2]: only (x1)
        self.assertEqual(gen.polarized_ass([[3, 0]]), [[0]])

    def test_embedded_prime(self):
        # (x1^2, x1*x2) = (x1) cap (x1^2, x2): Ass = {(x1), (x1, x2)}
        self.assertEqual(gen.polarized_ass([[2, 0], [1, 1]]), [[0], [0, 1]])

    def test_stanley_reisner_generators(self):
        hollow_triangle = [(0, 1), (1, 2), (0, 2)]
        self.assertEqual(gen.minimal_nonfaces(3, hollow_triangle), [(0, 1, 2)])
        self.assertEqual(gen.minimal_nonfaces(3, [(0, 1)]), [(2,)])


class CheckerRejectsWrongAnswers(unittest.TestCase):
    def test_pool(self):
        inst = gen.pool_instances(1, 12)[11]
        good = correct_pool_answer(inst)
        self.assertEqual(run.check_instance(inst, good), [])
        for field, value in (("ass", good["ass"][1:] or [[0]]), ("dim", good["dim"] + 1),
                             ("depth", good["mdepth"] + 1)):
            self.assertTrue(run.check_instance(inst, {**good, field: value}), field)
        cm_not_seq = {**good, "depth": good["dim"], "cohen_macaulay": True}
        self.assertTrue(run.check_instance(inst, cm_not_seq))

    def test_polarized(self):
        inst = {"kind": "polarized", "gens": [[2, 0], [1, 1]]}
        good = {"ass": [[0], [0, 1]], "depth": 0, "mdepth": 0, "dim": 1}
        self.assertEqual(run.check_instance(inst, good), [])
        self.assertTrue(run.check_instance(inst, {**good, "ass": [[0]]}))
        self.assertTrue(run.check_instance(inst, {**good, "mdepth": 2}))

    def test_cycle_ops(self):
        ops = {op["key"]: op for op in gen.cycle_ops(1)}
        good = {"depth": 3, "dim": 4, "mdepth": 3, "ass": C8_PRIMES, "h_table": []}
        self.assertEqual(run.check_cycle_op(ops["C8-analyze"], good), [])
        self.assertTrue(run.check_cycle_op(ops["C8-analyze"], {**good, "depth": 4}))
        self.assertTrue(run.check_cycle_op(ops["C8-seqcm"], {"sequentially_cm": "true"}))
        self.assertTrue(run.check_cycle_op(ops["RP2-f2-analyze"],
                                           {"depth": 3, "dim": 3, "mdepth": 3}))

    def test_golden_and_digests(self):
        self.assertEqual(run.check_golden({"t": 3}, {"t": 3}), [])
        self.assertTrue(run.check_golden({"t": 3}, {"t": 2}))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "digests.json"
            first = run.DigestStore("src", path)
            self.assertEqual(first.check("C8-analyze", "out"), [])
            first.save()
            again = run.DigestStore("src", path)
            self.assertEqual(again.check("C8-analyze", "out"), [])
            self.assertTrue(again.check("C8-analyze", "other"))


class Measurement(unittest.TestCase):
    def test_scale_to_reference(self):
        values = {name: 2.0 for name in run.TIME_METRICS + run.RATE_METRICS}
        values["max_rss_mb"] = 20.0
        scaled = run.scale_to_reference(values, 2.0)
        self.assertEqual({scaled[k] for k in run.TIME_METRICS}, {1.0})
        self.assertEqual(scaled["instances_per_s"], 4.0)
        self.assertEqual(scaled["max_rss_mb"], 20.0)

    def test_run_process_reaps_the_child(self):
        wall, done = run.run_process([sys.executable, "-c", "print('hi')"],
                                     run.perf_counter() + 60)
        self.assertGreater(wall, 0)
        self.assertEqual((done.returncode, done.stdout), (0, "hi\n"))
        self.assertGreater(done.peak_kb, 0)
        wall, reason = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                                       run.perf_counter() + 0.5)
        self.assertIsNone(wall)
        self.assertIn("timed out", reason)


if __name__ == "__main__":
    unittest.main()
