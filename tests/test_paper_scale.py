"""The paper-scale runs, N = 512 and M = 80 at beta = 2, one per example.

Opt-in: set ``FISHERKPP_PAPER_SCALE=1`` to run them; otherwise they are
skipped. Each runs ``python -m fisherkpp.cli run`` in a child process with
one OpenMP/BLAS thread and prints its spawn-to-exit wall time, minor page
faults, peak resident set, Linf error and the starter line of its
``report.csv`` (``starter=... nfev=... levels=...``). Only the Linf error
is asserted, against the value the solver gives at the time of writing;
the rest is printed for the reader (``pytest -s``), never asserted.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

pytestmark = pytest.mark.skipif(os.environ.get("FISHERKPP_PAPER_SCALE") != "1",
                                reason="paper-scale run: set FISHERKPP_PAPER_SCALE=1")


@pytest.mark.parametrize("example, linf_ref", [
    ("manufactured", 1.7867809303029336e-4),
    ("wave", 5.016382008765641e-5),
])
def test_paper_scale_run(tmp_path, example, linf_ref):
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(THREAD_VARS, "1"))
    out = tmp_path / example
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fisherkpp.cli", "run", "--example", example,
         "--nx", "512", "-M", "80", "--beta", "2", "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    linf = float((out / "errors.csv").read_text().splitlines()[-1].split(",")[0])
    (starter,) = [line[2:] for line in (out / "report.csv").read_text().splitlines()
                  if line.startswith("# starter=")]
    # ru_maxrss of the children is the largest child so far: it is this
    # child's peak only when it grew
    grew = after.ru_maxrss > before.ru_maxrss
    print(f"\n{example}: wall={wall:.3f}s "
          f"minor_faults={after.ru_minflt - before.ru_minflt} "
          f"sys={after.ru_stime - before.ru_stime:.3f}s "
          f"peak_rss={'' if grew else '<='}{after.ru_maxrss / 1024:.1f}MB "
          f"Linf={linf!r} {starter}")
    assert abs(linf - linf_ref) <= 1e-9 + 1e-6 * linf_ref
