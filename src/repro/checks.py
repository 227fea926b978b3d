"""The integer rules shared by every layer's entry points: each returns
the checked value or ``None``, and the caller raises its own error."""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np


def as_integer(value) -> Optional[int]:
    """``value`` as an ``int`` if :func:`operator.index` takes it (Python
    and NumPy integers), else ``None``; booleans are ``None`` too."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def as_integer_array(values) -> Optional[np.ndarray]:
    """``values`` as a 1-D integer array, not yet cast (a cast would turn
    1.5 into 1), else ``None``; an empty one passes whatever its dtype."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError):
        return None
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        return None
    return array
