import math
import re

import numpy as np
import pytest

from rdstab.errors import InvalidParameterError, check_scalars


@pytest.mark.parametrize("value", [1.0, -2.5, 0.0, 1e308, 5e-324, np.float64(3.0), 7, np.int64(-2)])
def test_check_scalars_accepts_finite_reals(value):
    check_scalars(x=value)


@pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_exact_float_that_is_not_finite_is_refused(value, text):
    # a plain float takes the fast path and is still refused with the same message
    assert type(value) is float
    with pytest.raises(InvalidParameterError, match=f"^x must be finite, got {text}$"):
        check_scalars(x=value)


def test_numpy_non_finite_float_is_refused():
    with pytest.raises(InvalidParameterError, match="^x must be finite, got nan$"):
        check_scalars(x=np.float64(np.nan))


@pytest.mark.parametrize("value", [True, False, "1", None, 1 + 0j, [1.0]])
def test_non_reals_and_bools_are_refused(value):
    # anything but an exact float takes the isinstance checks, as before the fast path
    with pytest.raises(InvalidParameterError, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
        check_scalars(x=value)


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, 0, np.float64(-3.0)])
def test_positive_names_refuse_zero_and_below(value):
    with pytest.raises(InvalidParameterError, match="^x must be positive"):
        check_scalars(x=value, y=-1.0, positive=("x",))


def test_first_offending_value_is_named():
    with pytest.raises(InvalidParameterError, match="^b must be finite"):
        check_scalars(a=1.0, b=math.inf, c=math.nan)
