"""Self-test of the benchmark's output checks and span accounting.

    python3 qbench/selftest.py

Each check must accept a summary with the properties it tests and reject
the same summary with one value deliberately perturbed.  Needs no qglue.
"""

import json
import os
import tempfile
import unittest

import checks
from tracing import Tracer
from workloads import Op, eps_bar


def _correct_summary(scheme="picard"):
    return {"command": "correct", "scheme": scheme, "converged": True,
            "iterations": 2, "psiSup": 1e-17, "cond": 4e11,
            "maxRatio": 2e-8}


class ChecksRejectPerturbedSummaries(unittest.TestCase):
    def assertRejects(self, op, good, key, value):
        self.assertEqual(checks.check_op(op, good), [])
        bad = json.loads(json.dumps(good))
        where = bad
        *path, last = key
        for k in path:
            where = where[k]
        where[last] = value
        self.assertNotEqual(checks.check_op(op, bad), [], f"{key} = {value}")

    def test_correct(self):
        op = Op("correct", {"scheme": "picard"},
                {"minIterations": 2, "contraction": 0.5})
        good = _correct_summary()
        self.assertRejects(op, good, ["psiSup"], 1e-6)
        self.assertRejects(op, good, ["cond"], 2e13)
        self.assertRejects(op, good, ["iterations"], 0)
        self.assertRejects(op, good, ["maxRatio"], 0.7)
        self.assertRejects(op, good, ["converged"], False)

    def test_diagnose(self):
        op = Op("diagnose", {"modes": [0, 2]})
        good = {"command": "diagnose", "sigmaMin": 3e-24,
                "perMode": {"0": 3e-24, "2": 5e-20}}
        self.assertRejects(op, good, ["sigmaMin"], 5e-20)
        self.assertRejects(op, good, ["sigmaMin"], 0.0)

    def test_sweep(self):
        op = Op("sweep", {"n": 6, "epsList": [0.3, 0.5]})
        good = {"command": "sweep", "hamiltonianMonotone": True,
                "rows": [{"eps": 0.3, "residualSup": 2e-9},
                         {"eps": 0.5, "residualSup": 4e-9}]}
        self.assertRejects(op, good, ["rows", 1, "residualSup"], 3e-7)
        self.assertRejects(op, good, ["hamiltonianMonotone"], False)

    def test_indicial_closed_form(self):
        n = 6
        op = Op("indicial", {"n": n, "eps": eps_bar(n), "modes": [0, 1, 2]},
                {"closedForm": True})
        good = {"command": "indicial", "modes": [
            {"l": l, "exponents": checks.closed_form_exponents(n, l)}
            for l in (0, 1, 2)]}
        e2 = good["modes"][2]["exponents"]
        self.assertRejects(op, good, ["modes", 2, "exponents"],
                           [e2[0] - 1e-4, e2[1], e2[2], e2[3] + 1e-4])
        self.assertRejects(op, good, ["modes", 1, "exponents"],
                           [-5.0, -0.999, 0.999, 5.0])

    def test_jacobi(self):
        op = Op("jacobi", {"n": 6, "eps": 0.4})
        good = {"command": "jacobi", "pairingDrift": 5e-13,
                "measuredRates": {"l+": -1.0, "l-": 1.0}}
        self.assertRejects(op, good, ["measuredRates", "l-"], 1.02)
        self.assertRejects(op, good, ["pairingDrift"], 1e-6)

    def test_glue(self):
        op = Op("glue", {}, {"tailRate": 1.7})
        good = {"command": "glue", "study": {"betaHat": 1.6999}}
        self.assertRejects(op, good, ["study", "betaHat"], 1.85)

    def test_schemes_agree(self):
        field = [0.5 + 1e-3 * k for k in range(50)]
        with tempfile.TemporaryDirectory() as tmp:
            def write(name, samples):
                out = os.path.join(tmp, name)
                os.makedirs(out)
                with open(os.path.join(out, "corrected.json"), "w") as fh:
                    json.dump({"modes": [{"l": 0, "samples": samples}]}, fh)
                with open(os.path.join(out, "trace.csv"), "w") as fh:
                    fh.write("k,defectSup,corrSup,ratio\n0,1e-12,0.0,nan\n"
                             "1,1e-16,1e-8,nan\n2,1e-20,1e-14,1e-6\n")
                return out
            picard = write("p", field)
            newton = write("n", [x + 1e-16 for x in field])
            self.assertEqual(checks.check_schemes_agree(picard, newton), [])
            off = write("off", [x + (1e-11 if k == 7 else 0.0)
                                for k, x in enumerate(field)])
            self.assertNotEqual(checks.check_schemes_agree(picard, off), [])


class SpanSelfTime(unittest.TestCase):
    def test_nested_self_time(self):
        tracer = Tracer()
        inner = tracer.span("jacobi.monodromy", lambda: sum(range(20000)))

        def outer_body():
            sum(range(20000))
            return inner() + inner()
        outer = tracer.span("jacobi.generators", outer_body)
        outer()
        times = tracer.self_times()
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertEqual(times["jacobi.monodromy"][0], 2)
        self.assertEqual(times["jacobi.generators"][0], 1)
        self.assertAlmostEqual(times["jacobi.monodromy"][1]
                               + times["jacobi.generators"][1], total)
        self.assertGreater(times["jacobi.generators"][1], 0.0)


if __name__ == "__main__":
    unittest.main()
