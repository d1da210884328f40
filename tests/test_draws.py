"""The draws every report rests on, pinned for one numpy bit stream.

Every suite draws a trial's samples from ``SeedSequence([seed, stream,
trial])`` feeding ``PCG64``, through ``default_rng`` or, in sp-tau, through
states derived for a whole stack at once.  numpy keeps these streams
stable across releases by policy, not by contract.  So the first outputs
of each ``Generator`` call shape the suites make are committed here, and a
numpy whose stream moved fails these tests, naming its version, before any
report is compared.  The stacked sp-tau states are tied to ``default_rng``
here as well.
"""

import math

import numpy as np
import pytest

from isoact.report import MAX_TRIALS, SuiteConfig
from isoact.suites import _pcg64_states, _rng, resolve_config

# (seed, stream, trial) -> the first outputs of each call shape, each from
# a fresh generator; floats as float.hex()
PINNED = {
    (0, 0, 0): {
        "integers": [4, 3, 2, 1],
        "integers-size": [5, 4, 3],
        "integers-array": [7, 5, 0, 2],
        "permutation": [3, 2, 5, 4, 0, 1],
        "uniform": ["0x1.002332afaea2fp+2", "0x1.b1f360f9fd6f8p+0"],
        "normal": [
            "0x1.9bfe2762c06cfp-5",
            "-0x1.b0e1975fba2e0p-5",
            "0x1.06512e9ed59f1p-2",
            "0x1.57bc98a03dd8dp-5",
        ],
        "standard-normal": ["0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1"],
    },
    (42, 1, 7): {
        "integers": [4, 2, 2, 3],
        "integers-size": [6, 2, 2],
        "integers-array": [8, 3, -2, 6],
        "permutation": [5, 4, 3, 1, 0, 2],
        "uniform": ["0x1.476a11146e231p+1", "0x1.30ee96776b181p+2"],
        "normal": [
            "0x1.82c4d09fcda98p-3",
            "-0x1.3841deb318ab3p-5",
            "-0x1.b190c99245182p-2",
            "0x1.9cde4a76c04a0p-4",
        ],
        "standard-normal": ["0x1.e37604c7c113ep-2", "-0x1.8652565fded5fp-4", "-0x1.0efa7dfb6b2f1p+0"],
    },
    (2**64 - 1, 11, 9999): {
        "integers": [2, 2, 3, 3],
        "integers-size": [3, 3, 5],
        "integers-array": [-1, 4, 4, 5],
        "permutation": [3, 4, 0, 2, 1, 5],
        "uniform": ["0x1.c6c1fb0a3c269p+1", "0x1.10c2129766b9cp+2"],
        "normal": [
            "0x1.cc725bb9da86cp-3",
            "0x1.3b8ea83b9746cp-2",
            "-0x1.1ce0d22af727ap-2",
            "-0x1.aa48c3be796ccp-1",
        ],
        "standard-normal": ["0x1.1fc7795428943p-1", "0x1.8a72524a7d187p-1", "-0x1.641906b5b4f18p-1"],
    },
}

# each call shape as the suites make it
CALLS = {
    "integers": lambda rng: [int(rng.integers(0, 5)) for _ in range(4)],
    "integers-size": lambda rng: rng.integers(0, 7, size=3).tolist(),
    "integers-array": lambda rng: rng.integers(np.tile([-9, 1], 2), np.tile([10, 8], 2)).tolist(),
    "permutation": lambda rng: rng.permutation(6).tolist(),
    "uniform": lambda rng: [float(rng.uniform(0.0, 2.0 * math.pi)).hex() for _ in range(2)],
    "normal": lambda rng: [float(x).hex() for x in rng.normal(0.0, 0.4, size=(2, 2)).ravel()],
    "standard-normal": lambda rng: [float(x).hex() for x in rng.normal(size=3)],
}


def config(seed):
    return resolve_config(SuiteConfig.make("sp-tau", seed=seed))


@pytest.mark.parametrize("triple", list(PINNED), ids=["zero", "small", "max-seed"])
@pytest.mark.parametrize("call", list(CALLS))
def test_first_draws_are_pinned(triple, call):
    seed, stream, trial = triple
    got = CALLS[call](_rng(config(seed), stream, trial))
    assert got == PINNED[triple][call], (
        f"numpy {np.__version__}: {call} draws of default_rng({list(triple)}) moved "
        f"from the pinned stream; every report drawn through it changes"
    )


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_stacked_states_match_default_rng(seed):
    trials = [0, 1, 99, MAX_TRIALS - 1]
    bits = np.random.PCG64()
    for stream in (0, 1, 11):
        for k, state in zip(trials, _pcg64_states(seed, stream, trials)):
            expected = _rng(config(seed), stream, k).bit_generator.state
            assert state == expected, (seed, stream, k)
            bits.state = state
            assert bits.state == expected, (seed, stream, k)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_stacked_states_draw_retry_rounds_like_default_rng(seed):
    # sp-tau's round r sets a shared generator to the trial's state and
    # draws r + 1 triples in one call; the last must be the triple that the
    # trial's own generator draws in its round r
    trials = range(0, 200, 7)
    bits = np.random.PCG64()
    normal = np.random.Generator(bits).normal
    for stream, size in ((0, 2), (1, 4)):
        for k, state in zip(trials, _pcg64_states(seed, stream, trials)):
            own = _rng(config(seed), stream, k)
            for rounds in (1, 2):
                expected = own.normal(0.0, 0.4, size=(3, size, size))
                bits.state = state
                drawn = normal(0.0, 0.4, size=(rounds, 3, size, size))[-1]
                assert drawn.tobytes() == expected.tobytes(), (seed, stream, k, rounds)
