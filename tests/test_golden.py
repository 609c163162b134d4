"""Golden outputs: the self-test and the four demos print fixed bytes.

Each command runs as a subprocess, and the MD5 of its stdout must match the
recorded digest.  A change that is meant to keep every answer the same (a
faster kernel, a refactor) must keep these digests; a change that is meant
to alter an answer updates the digest together with the reason.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import expord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = {
    "selftest": (
        ["-m", "expord.cli", "selftest", "--seed", "0"],
        "621374fb3c744efcca519b6adfa73e3a",
    ),
    "selftest_O": (
        ["-O", "-m", "expord.cli", "selftest", "--seed", "0"],
        "621374fb3c744efcca519b6adfa73e3a",
    ),
    # The separating functional is now the Farkas row of the cone program,
    # which has no convexity row to fold in: exactly half the folded one, so
    # "(2, -8)" prints as "(1, -4)" and its value at the point 1 as 1/2.
    "belief_geometry": (
        ["demos/belief_geometry.py"], "895f450b32d2e65ef0678fc9d3b64822"
    ),
    "order_certificates": (
        ["demos/order_certificates.py"], "eca329b3d30a28cf72a235b1b30e9740"
    ),
    "stopping_dynamics": (
        ["demos/stopping_dynamics.py"], "4275c2d013f287da45f85151e4275b8e"
    ),
    # The three "beta" lines print the falsifier of an unordered pair.  It is
    # now read off the first infeasible per-signal block, so one "bet on
    # posterior s" problem refutes every beta: payoffs (1/4, -1) on one
    # action and 0 on the rest, slack -1/16, -1/32 and -1/64.
    "value_bounds": (["demos/value_bounds.py"], "d3552f69eee5631289c2f9b15eaa0e46"),
}


@pytest.mark.parametrize("argv, digest", GOLDEN.values(), ids=GOLDEN)
def test_stdout_matches_the_golden_digest(argv, digest):
    src = os.path.dirname(os.path.dirname(expord.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert hashlib.md5(done.stdout).hexdigest() == digest
