import builtins
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as Python 3.12 and later run it on floats:
    Neumaier's compensated summation (applied here to float subclasses
    too).  Sums without a float go to the builtin."""
    items = list(iterable)
    terms = [start, *items]
    if not (all(isinstance(x, (int, float)) for x in terms)
            and any(isinstance(x, float) for x in terms)):
        return _BUILTIN_SUM(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """``builtins.sum`` replaced by :func:`compensated_sum` for one test."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
