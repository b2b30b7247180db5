from functools import wraps
from typing import Callable, TypeVar

T = TypeVar("T")


class IntegrityError(RuntimeError):
    """An exact certification check failed: a computed quantity violates an
    identity the certificate depends on. Never raised for disagreements with
    claimed reference values (those are recorded, not fatal)."""


def one_slot_memo(fn: Callable[..., T]) -> Callable[..., T]:
    """Remember the last call: the same arguments again return its result, or
    raise its exception again with its original traceback, without running
    ``fn``. ``cache_clear`` forgets the call."""
    slot: list = []  # the arguments, the result or exception, its traceback or None

    @wraps(fn)
    def memo(*args):
        if not slot or slot[0] != args:
            try:
                slot[:] = args, fn(*args), None
            except Exception as exc:
                slot[:] = args, exc, exc.__traceback__
        _, value, tb = slot
        if tb is not None:
            raise value.with_traceback(tb)
        return value

    memo.cache_clear = slot.clear
    return memo
