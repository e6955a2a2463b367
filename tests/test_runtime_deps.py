"""The runtime needs NumPy alone; scipy is only the oracle for what replaced it.

* ``import repro`` loads no ``scipy`` module, and the CLI's harmonic and
  Lévy sweeps (the two Zipf samplers) run with scipy blocked;
* the NumPy/stdlib replacements agree with scipy: ``Generator.zipf`` is
  bitwise ``stats.zipf.rvs`` (draws and generator state), and
  :func:`repro.core.zeta` is within a few ULP of ``scipy.special.zeta``.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

from repro.core import zeta

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def ulps(value, reference):
    return abs(value - reference) / math.ulp(reference)


class TestNoScipyAtRuntime:
    def test_import_loads_no_scipy_module(self):
        proc = run_python(
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("algorithm", ["harmonic", "levy"])
    def test_cli_sweep_runs_with_scipy_blocked(self, algorithm):
        proc = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))",
            "sweep", algorithm, "--distances", "4,8", "--ks", "1,4",
            "--trials", "20", "--horizon", "200", "--no-cache",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert algorithm in proc.stdout


class TestScipyOracles:
    @pytest.mark.parametrize("a", [1.01, 1.25, 1.5, 2.0, 3.7])
    @pytest.mark.parametrize("size", [None, 0, 1, 257])
    def test_generator_zipf_is_bitwise_scipy_zipf(self, a, size):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        drawn = ours.zipf(a, size=size)
        expected = stats.zipf.rvs(a, size=size, random_state=theirs)
        assert np.array_equal(drawn, expected)
        assert np.asarray(drawn).dtype == np.asarray(expected).dtype
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_zeta_within_a_few_ulp_of_scipy(self):
        # scipy itself is up to 7 ULP off near s = 1.1 (against 40-digit
        # arithmetic), where ours stays within 1; hence 8, not 1.
        for s in np.linspace(1.01, 6.0, 2000):
            assert ulps(zeta(float(s)), float(special.zeta(s))) <= 8, s

    @pytest.mark.parametrize(
        "s,exact",
        [(2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90), (6.0, math.pi**6 / 945)],
    )
    def test_zeta_even_closed_forms(self, s, exact):
        assert ulps(zeta(s), exact) <= 1

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
    def test_zeta_rejects_s_at_most_one(self, s):
        with pytest.raises(ValueError):
            zeta(s)
