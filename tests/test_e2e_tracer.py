"""The end-to-end benchmark's tracer still finds every name it hooks.

``benchmarks/e2e/e2e_layers.py`` patches entry points of ``repro`` by
dotted name (module attributes such as
``repro.resilience.supervisor.wait`` and methods read from a class's
own ``__dict__``), and a name it cannot find kills every traced run.
This installs the tracer in a fresh interpreter, as a traced benchmark
child does, so a rename in ``src`` fails here and not only in the
minute-long ``pytest benchmarks/e2e``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_current_source(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "e2e")]
    )
    env["BENCH_E2E_TRACE_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", "import e2e_layers; e2e_layers.install()"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
