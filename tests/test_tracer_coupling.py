"""The benchmark's tracer wraps catwords from outside the package and
looks its layers, classes and caches up by name.  A package change that
breaks that lookup would otherwise only show in perfbench/selftest.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import contextlib, io, json
import catwords.cli
from tracer import Tracer

tracer = Tracer()
tracer.install(catwords)
codes = []
for argv in (["verify", "--identity", "l2", "--order", "6"], ["enumerate", "--n", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(catwords.cli.main(argv))
rep = tracer.report()
print(json.dumps({"codes": codes, "counts": rep["counts"], "self_s": rep["self_s"],
                  "cheb_u_cache_entries": rep["cheb_u_cache_entries"],
                  "erosion_max": rep["erosion_max"]}))
"""


def test_tracer_installs_and_reports():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CODE],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    assert out["counts"]["series.mul.terms_out"] > 0
    # the kernel computes over the integers; the per-layer metric still reads
    assert out["counts"]["series.mul.fraction_out"] == 0
    assert out["counts"]["series.invert.terms_out"] > 0
    # series.horizon_erosion_max reads this; LaurentSeries is an empty placeholder
    assert out["erosion_max"] == 0
    assert out["counts"]["words.words_yielded"] == 14  # C(4) words of length 5
    assert out["cheb_u_cache_entries"] > 0
    # the per-layer metrics read these by name
    assert out["self_s"]["genfun.compare"] > 0
    assert out["self_s"]["genfun.check.l2"] > 0
