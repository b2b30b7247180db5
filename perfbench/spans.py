"""Call-boundary spans around facevol's public functions, installed from outside.

The package imports its kernels with ``from .linalg import rank`` and the like,
which copies the binding into each importing module. ``install`` therefore
rebinds every copy of a traced function in every ``facevol`` module namespace,
and wraps ``RationalMatrix.__matmul__`` on the class, so that no call slips
past the tracer and reads as "0 s".

Spans are aggregated as they close; nothing per call is kept. A span's self
time is its duration minus the durations of the spans it directly encloses.
The tracer's own bookkeeping (shape counts, argument fingerprints) is timed
and charged to the pseudo-layer ``trace.bookkeeping_s`` so that, per pass,

    sum(self_s) + trace.bookkeeping_s + trace.untraced_s == trace.certify_s.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import pickle
import sys
from dataclasses import dataclass, field
from time import perf_counter

MATMUL = "RationalMatrix.__matmul__"

TRACED: dict[str, tuple[str, ...]] = {
    "linalg": (
        "det_fraction_free",
        "rank",
        "eigen_multiplicity",
        "char_poly",
        "poly_divides",
        MATMUL,
    ),
    "geometry": ("squared_volume", "is_nondegenerate"),
    "jacobian": (
        "d_sqvol_d_sqlen",
        "jacobian_squared_map",
        "scaled_jacobian_at_regular",
        "independence_certificate",
        "fd_crosscheck",
    ),
    "spectral": (
        "build_gram",
        "check_equitable",
        "divisor_matrix",
        "divisor_divides",
        "full_spectrum",
        "det_incidence",
    ),
    "gelfand": (
        "orbital_matrices",
        "check_commutative",
        "match_eigenvectors",
        "gelfand_report",
    ),
    "subsets": ("build_incidence_matrix", "orbit_partition"),
    "report": ("verify_single", "serialize_report"),
}


def layer_name(module: str, fn: str) -> str:
    return f"{module}.{'matmul' if fn == MATMUL else fn}"


LAYERS = tuple(layer_name(m, f) for m, fns in TRACED.items() for f in fns)

# Artefacts whose reuse the benchmark counts: a call whose arguments equal an
# earlier call's in the same pass is a repeat.
REPEAT_COUNTED = (
    "spectral.build_gram",
    "spectral.check_equitable",
    "spectral.divisor_matrix",
    "spectral.divisor_divides",
    "spectral.full_spectrum",
    "spectral.det_incidence",
    "subsets.build_incidence_matrix",
    "subsets.orbit_partition",
    "jacobian.jacobian_squared_map",
    "linalg.rank",
)


def _side(m) -> int:
    return max(m.nrows, m.ncols)


# Operation counts computed from argument shapes, not measured.
OPS = {
    "linalg.det_fraction_free": lambda m: m.nrows**3 / 3,
    "linalg.rank": lambda m: m.nrows * m.ncols * min(m.nrows, m.ncols),
    "linalg.char_poly": lambda m: m.nrows**4,
    "linalg.matmul": lambda a, b: a.nrows * a.ncols * b.ncols,
}
SIDE = {
    "linalg.det_fraction_free": _side,
    "linalg.rank": _side,
    "linalg.char_poly": _side,
    "linalg.matmul": lambda a, b: max(a.nrows, a.ncols, b.ncols),
}


def _is_rational(m) -> bool:
    return any(x.denominator != 1 for row in m.rows for x in row)


def _fingerprint(args: tuple, kwargs: dict) -> bytes | None:
    try:
        blob = pickle.dumps((args, sorted(kwargs.items())), protocol=4)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    return hashlib.blake2b(blob, digest_size=16).digest()


@dataclass(slots=True)
class _Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0  # open spans of this function, so recursion counts once in total_s
    ops: float = 0.0
    side_max: int = 0
    rational: int = 0
    repeats: int = 0
    seen: set[bytes] = field(default_factory=set)
    bytes: int = 0


class Tracer:
    """Aggregated spans for one pass. Single-threaded by construction."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name in LAYERS}
        self.absent: list[str] = []
        # One entry per open span: the time its direct children covered.
        self._child_s: list[float] = []
        self.covered_s = 0.0
        self.bookkeeping_s = 0.0

    def _close(self, dur: float) -> None:
        if self._child_s:
            self._child_s[-1] += dur
        else:
            self.covered_s += dur

    def _count(self, name: str, stat: _Stat, args: tuple, kwargs: dict, result) -> None:
        try:
            if name in OPS:
                stat.ops += OPS[name](*args)
                stat.side_max = max(stat.side_max, SIDE[name](*args))
            if name == "linalg.rank" and _is_rational(args[0]):
                stat.rational += 1
        except (AttributeError, IndexError, TypeError):
            pass  # a changed signature or matrix type leaves these counters at 0
        if name in REPEAT_COUNTED:
            key = _fingerprint(args, kwargs)
            if key is not None:
                if key in stat.seen:
                    stat.repeats += 1
                stat.seen.add(key)
        if name == "report.serialize_report" and isinstance(result, str):
            stat.bytes += len(result.encode())

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.active += 1
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                children = child_s.pop()
                stat.active -= 1
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - children
                if not stat.active:
                    stat.total_s += dur
                self._close(dur)
            self._count(name, stat, args, kwargs, result)
            book = perf_counter() - end
            self.bookkeeping_s += book
            self._close(book)
            return result

        return traced

    def install(self, package: str = "facevol") -> None:
        """Wrap every traced function in every namespace of ``package`` that
        holds it. A function missing at this commit is recorded as absent."""
        for module_name, fns in TRACED.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            for fn in fns:
                name = layer_name(module_name, fn)
                if fn == MATMUL:
                    cls = getattr(module, "RationalMatrix", None)
                    orig = getattr(cls, "__matmul__", None)
                    if orig is None:
                        self.absent.append(name)
                        continue
                    cls.__matmul__ = self.wrap(name, orig)
                    continue
                orig = getattr(module, fn, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapped = self.wrap(name, orig)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != package and not mod_name.startswith(package + "."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def metrics(self, certify_s: float) -> dict[str, float]:
        """Per-layer values for one traced pass, keyed by metric name."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.total_s"] = stat.total_s
            out[f"{name}.self_s"] = stat.self_s
            if name in OPS:
                out[f"{name}.ops"] = stat.ops
                out[f"{name}.side_max"] = stat.side_max
            if name in REPEAT_COUNTED:
                out[f"{name}.repeat_calls"] = stat.repeats
        rank = self.stats["linalg.rank"]
        out["linalg.rank.rational_share"] = rank.rational / rank.calls if rank.calls else 0.0
        out["report.serialize_report.bytes"] = self.stats["report.serialize_report"].bytes
        out["trace.certify_s"] = certify_s
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        out["trace.untraced_s"] = certify_s - self.covered_s
        return out
