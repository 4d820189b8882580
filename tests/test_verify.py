"""The seeded sampler of ``pedalis verify`` and its involution checks in row blocks.

``verify.Sampler`` draws 53-bit floats from ``random.Random(seed)``; these
tests pin its formula, its stream and its chunking.  ``_check_involutions``
runs on blocks of ``BLOCK_ROWS`` sample rows; these tests hold it to a
whole-array reference and bound the memory a large ``--samples`` costs.
"""

import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from pedalis import projmaps, verify
from pedalis.projmaps import alpha_rows, alpha_star_rows, canonical_rows, pi_rows, pi_star_rows
from pedalis.projmaps import sigma_rows
from pedalis.surfkit import BLOCK_ROWS
from pedalis.verify import SINGLE_SAMPLES, Sampler, random_tuples

INVOLUTIONS = ["alpha_roundtrip", "alpha_star_roundtrip", "sigma_involution", "pi_identity",
               "alpha_factorization", "alpha_star_factorization"]


def bits(a):
    return np.ascontiguousarray(a, "<f8").tobytes()


# -- the sampler ------------------------------------------------------------------


def word_floats(seed, count, low, high):
    """The sampler's floats, one 64-bit word of getrandbits at a time, in plain floats."""
    rng = random.Random(seed)
    return [low + (high - low) * ((rng.getrandbits(64) >> 11) * 2.0**-53)
            for _ in range(count)]


@pytest.mark.parametrize("a, b", [(1, 3), (BLOCK_ROWS - 1, 2), (BLOCK_ROWS, 1),
                                  (BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)])
def test_split_draws_equal_one_draw(a, b):
    first, second = Sampler(11), Sampler(11)
    split = np.vstack((first.uniform(-1.0, 1.0, (a, 4)), first.uniform(-1.0, 1.0, (b, 4))))
    whole = second.uniform(-1.0, 1.0, (a + b, 4))
    assert whole.shape == (a + b, 4)
    assert bits(split) == bits(whole)
    # and both generators stand at the same word afterwards
    assert bits(first.uniform(0.0, 1.0, (5,))) == bits(second.uniform(0.0, 1.0, (5,)))


@pytest.mark.parametrize("size", [7, (3, 4), (BLOCK_ROWS + 5, 3)])
def test_floats_are_the_word_formula(size):
    got = Sampler(5).uniform(-2.0, 2.0, size)
    assert got.shape == ((size,) if isinstance(size, int) else size)
    assert bits(got.ravel()) == bits(word_floats(5, got.size, -2.0, 2.0))


def test_values_lie_in_the_half_open_range():
    for low, high in [(-1.0, 1.0), (-2.0, 2.0), (0.0, 1.0), (-3.0, 0.5)]:
        x = Sampler(3).uniform(low, high, (3 * BLOCK_ROWS, 4))
        assert low <= x.min() and x.max() < high
    # the extreme words: all zero bits give 0, all one bits the float below 1
    sampler = Sampler(0)
    sampler._bits = lambda k: 0
    assert np.all(sampler.uniform(0.0, 1.0, (2, 4)) == 0.0)
    sampler._bits = lambda k: (1 << k) - 1
    assert np.all(sampler.uniform(0.0, 1.0, (2, 4)) == math.nextafter(1.0, 0.0))


def test_stream_at_seed_0_is_pinned():
    x = Sampler(0).uniform(-1.0, 1.0, (16, 4))
    assert hashlib.sha256(bits(x)).hexdigest() == (
        "80a9cb663d32afa1505df67807c2b1085abddd6809e38db86b27f0b6b19f2ea7")


# -- the involution checks in row blocks --------------------------------------------


def max_dev(a, b):
    return float(np.abs(canonical_rows(a) - canonical_rows(b)).max())


def whole_array_devs(seed, samples):
    """Each check's max_dev on the whole sample arrays at once, as before blocking."""
    rng = Sampler(seed)
    P, Q = random_tuples(rng, samples), random_tuples(rng, samples)
    X, U, S = alpha_rows(P)[0], alpha_star_rows(Q)[0], sigma_rows(Q)[0]
    return {
        "alpha_roundtrip": max_dev(alpha_star_rows(X)[0], P),
        "alpha_star_roundtrip": max_dev(alpha_rows(U)[0], Q),
        "sigma_involution": max_dev(sigma_rows(S)[0], Q),
        "pi_identity": max_dev(pi_star_rows(pi_rows(P)), P),
        "alpha_factorization": max_dev(sigma_rows(pi_rows(P))[0], X),
        "alpha_star_factorization": max_dev(pi_star_rows(S), U),
    }


@pytest.mark.parametrize("samples", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 10000])
def test_blocked_max_dev_equals_the_whole_array(samples):
    results = verify._check_involutions(Sampler(21), samples)
    assert [name for name, _, _ in results] == INVOLUTIONS
    want = whole_array_devs(21, samples)
    assert {name: m["max_dev"] for name, m, _ in results} == want
    assert all(ok and m["single_dev"] == 0 for _, m, ok in results)


@pytest.mark.parametrize("block", ["first", "last"])
def test_nan_in_one_block_reaches_max_dev(monkeypatch, block):
    # BLOCK_ROWS + 1 samples are two blocks; the last one is a single row
    dev = verify._max_dev
    planted = 1 if block == "last" else BLOCK_ROWS
    monkeypatch.setattr(verify, "_max_dev",
                        lambda a, b: math.nan if len(a) == planted else dev(a, b))
    results = verify._check_involutions(Sampler(4), BLOCK_ROWS + 1)
    assert [name for name, _, _ in results] == INVOLUTIONS
    for name, m, ok in results:
        assert math.isnan(m["max_dev"]) and not ok, name


@pytest.mark.parametrize("row, wrong", [(SINGLE_SAMPLES - 1, 1), (SINGLE_SAMPLES, 0),
                                        (BLOCK_ROWS, 0)])
def test_single_dev_reads_only_the_first_rows(monkeypatch, row, wrong):
    # a polarity that scales its image of one sample plane: pi_identity's
    # pi_star keeps the scale, alpha_factorization's sigma does not
    samples = BLOCK_ROWS + 1
    target = tuple(random_tuples(Sampler(8), samples)[row].tolist())
    pi = projmaps.polarity_pi

    def scaled(t):
        out = pi(t)
        return type(out)([2.0 * c for c in out.coords]) if t.coords == target else out

    monkeypatch.setattr(projmaps, "polarity_pi", scaled)
    results = verify._check_involutions(Sampler(8), samples)
    got = {name: m["single_dev"] for name, m, _ in results}
    assert got == {name: wrong if name == "pi_identity" else 0 for name in INVOLUTIONS}


# -- the memory a large --samples costs ------------------------------------------------

# run ``python -m pedalis ARGS`` and print the process's VmHWM in KiB as the
# last line, as perfbench/cli_op.py reads it
_PEAK = """
import runpy, sys
sys.argv = ["pedalis", *sys.argv[1:]]
try:
    runpy.run_module("pedalis", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""

# the (100000, 4) planes and points are 6.4 MB; the rest must not grow with
# --samples (measured 6.6 MB; 32 MB with whole-array checks and numpy.random)
GROWTH_BOUND_KB = 10 * 1024


def peak_kb(samples):
    res = subprocess.run([sys.executable, "-c", _PEAK, "verify", "--suite", "involutions",
                          "--samples", str(samples)], capture_output=True, text=True, check=True)
    return int(res.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from /proc/self/status")
def test_peak_grows_with_the_tuples_only():
    assert peak_kb(100000) - peak_kb(1000) < GROWTH_BOUND_KB
