"""Shared utilities: validation, integer math, and test-matrix generators."""

from repro.util.intlog import (
    ceil_div,
    ilog2,
    is_power_of_two,
    next_multiple,
    next_power_of_two,
    split_evenly,
)
from repro.util.validation import (
    NonFiniteInputError,
    check_banded,
    check_positive_int,
    check_power_of_two,
    check_square,
    check_symmetric,
)
from repro.util.matrices import (
    random_banded_symmetric,
    random_orthogonal,
    random_spectrum_symmetric,
    random_symmetric,
    wilkinson,
)

__all__ = [
    "NonFiniteInputError",
    "ceil_div",
    "ilog2",
    "is_power_of_two",
    "next_multiple",
    "next_power_of_two",
    "split_evenly",
    "check_banded",
    "check_positive_int",
    "check_power_of_two",
    "check_square",
    "check_symmetric",
    "random_banded_symmetric",
    "random_orthogonal",
    "random_spectrum_symmetric",
    "random_symmetric",
    "wilkinson",
]
