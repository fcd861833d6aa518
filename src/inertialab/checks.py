"""Field checks shared by the frozen configuration dataclasses."""

import numpy as np

__all__ = ["integer_at_least"]


def integer_at_least(name, value, minimum):
    """``value`` as an ``int``, or a ``ValueError`` naming the field ``name``.

    A float or a bool (an int subclass) would fail only later, or act as a
    ceiling; a numpy integer comes back as ``int``, which JSON can hold.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
