"""Every public constructor validates what defines its object, always."""

import numpy as np
import pytest

from optheory.boxes import Box
from optheory.directsum import DSumState
from optheory.framework import Action, ClassicalModel, IncompleteAction
from optheory.quantum import IncompleteInstrument, Instrument, KrausOp
from optheory.tomography import Observable

I2 = np.eye(2)
HALF = np.diag([0.5, 0.5])
classical = ClassicalModel(2)


@pytest.mark.parametrize(
    "build,args,error",
    [
        (KrausOp, ([2 * I2],), ValueError),
        (KrausOp, ([np.array([[np.nan, 0.0], [0.0, 1.0]])],), ValueError),
        (KrausOp, ([1e200 * I2],), ValueError),
        (Instrument, ([KrausOp([np.sqrt(0.9) * I2])],), IncompleteInstrument),
        (Action, ([classical.transformation(HALF)],), IncompleteAction),
        (Observable, ([classical.unit_effect(), classical.unit_effect()],), ValueError),
        (DSumState, (np.diag([1.5, 0.0]), np.diag([-0.5, 0.0])), ValueError),
        (DSumState, (HALF, HALF), ValueError),
        (Box, (np.tile([[1.5, -0.5], [0.0, 0.0]], (2, 2, 1, 1)),), ValueError),
        (Box.from_json, ([np.nan] + [0.25] * 15,), ValueError),
        (Box.from_json, ([1e308, 1e308] + [0.0] * 14,), ValueError),
        (classical.state, ([np.nan, 1.0],), ValueError),
        (classical.transformation, ([[np.nan, 0.0], [0.0, 1.0]],), ValueError),
    ],
    ids=[
        "kraus-trace-increasing",
        "kraus-nan",
        "kraus-overflow",
        "instrument-incomplete",
        "action-incomplete",
        "observable-not-unit",
        "dsum-state-not-psd",
        "dsum-state-trace-2",
        "box-negative",
        "box-nan",
        "box-overflow",
        "classical-state-nan",
        "classical-transformation-nan",
    ],
)
def test_constructor_rejects_invalid_input(build, args, error):
    with pytest.raises(error):
        build(*args)
    # Validation is no longer the caller's choice.
    with pytest.raises(TypeError):
        build(*args, check=False)


def test_overflowing_trace_operator_is_named():
    # Every entry is finite; sum M^dag M is not, and no RuntimeWarning escapes.
    with pytest.raises(ValueError, match=r"^trace operator sum of M\^dag M overflows"):
        KrausOp([1e200 * I2])
