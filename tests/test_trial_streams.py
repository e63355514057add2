"""Pins the random draws of the randomized suites, call by call.

The report goldens compare defects that are all roundoff, so a change to the
order or the stream of the draws passes them.  Here every generator that
``trial_rng`` hands out is wrapped: each method call on it is recorded with
its arguments and a digest of its rounded result.  The calls made by trials
0 and n-1 of each loop must equal ``golden/trial_streams.json``, in the order
the generators were created.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from optheory.cli import SuiteConfig, run_suite
from optheory.quantum import trace_biconditional_check

STREAM_GOLDEN = Path(__file__).parent / "golden" / "trial_streams.json"


def _digest(value) -> str:
    rounded = np.round(np.asarray(value, dtype=float), 12) + 0.0  # -0.0 -> 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


class _RecordingGenerator:
    def __init__(self, rng, log):
        self._rng = rng
        self._log = log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append(f"{name}{args}{sorted(kwargs.items())}={_digest(out)}")
            return out

        return call


def _run(case: str, trials: int):
    if case == "trace-biconditional":
        trace_biconditional_check(trials=trials, d1=2, d2=3, seed=0)
    else:
        run_suite(SuiteConfig(suite=case, trials=trials, d1=2, d2=3, seed=0))


# (case, trials): opcore covers the framework invariants and the composite
# loop, quantum-nosig its random loop and the trace biconditional (kinds 0
# and 2), the direct trace-biconditional run its kinds 0 and 1.
CASES = [
    ("opcore", 5),
    ("quantum-nosig", 6),
    ("trace-biconditional", 5),
    ("lemma", 5),
    ("dsum", 5),
]


def record_streams(case: str, trials: int) -> list:
    """``[trial, [call, ...]]`` for every generator of trial 0 or ``trials - 1``
    that ``case`` creates, in creation order."""
    streams = []
    real_default_rng = np.random.default_rng

    def recording_default_rng(seed_seq):
        rng = real_default_rng(seed_seq)
        _, k = seed_seq.entropy
        if k not in (0, trials - 1):
            return rng
        log = []
        streams.append([k, log])
        return _RecordingGenerator(rng, log)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording_default_rng)
        _run(case, trials)
    return streams


@pytest.mark.parametrize("case,trials", CASES, ids=[c for c, _ in CASES])
def test_trial_draws_match_golden(case, trials):
    expected = json.loads(STREAM_GOLDEN.read_text())[case]
    assert record_streams(case, trials) == expected
