"""Exact slope arithmetic: rationals, the projective line, and residues mod 1.

Every slope in this package is an exact ``fractions.Fraction``, the single
point at infinity of the projective rational line, or a residue class mod 1.
All values are immutable and all operations are pure functions, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction


class NotFiniteError(ValueError):
    """The infinite residue has no finite numerator or denominator."""


class IndeterminateFormError(ArithmeticError):
    """The projective step infinity + infinity has no value."""


class _Infinity:
    """The unsigned point at infinity of the projective rational line."""

    def __repr__(self) -> str:
        return "INFINITY"

    def __neg__(self) -> "_Infinity":
        return self

    def __reduce__(self):
        return "INFINITY"  # the module's one instance, for every pickle protocol and copy


INFINITY = _Infinity()

ProjectiveRational = Fraction | _Infinity

_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """Base of the package's immutable records, which behave as frozen
    dataclasses do without the cost of importing and generating them.

    A subclass names its stored slots in ``__slots__``, in order, sets them in
    its own ``__init__`` with ``_set``, and names its fields in
    ``__match_args__`` where they are not the slots. Records of one class are
    equal when their slots are, and never equal to another class's; the hash
    is that of the field tuple; the repr is ``Name(field=value, ...)``;
    assigning or deleting an attribute raises AttributeError; and copies and
    pickles go through ``_new``. ``cls._new(*stored)`` sets the slots to
    stored, in order, without calling ``__init__``, so without its checks or
    conversions: internal code calls it with values that are already what
    ``__init__`` would store.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)

    @classmethod
    def _new(cls, *stored):
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, stored):
            _set(record, name, value)
        return record

    def _stored(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._stored() == other._stored()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self)._new, self._stored()


# Where the memory limit of this process's cgroup is read: the list of its
# cgroups, and the root under which the cgroup file systems are mounted.
_CGROUP_LIST, _CGROUP_ROOT = "/proc/self/cgroup", "/sys/fs/cgroup"


def _cgroup_limits() -> list:
    """The memory limits of this process's cgroups, found through _CGROUP_LIST,
    and of their ancestors, which bound it too: the v2 memory.max and the v1
    memory.limit_in_bytes, each taken as no limit where missing, unreadable or "max"."""
    try:
        with open(_CGROUP_LIST) as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    limits = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if not controllers:
            root, leaf = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, leaf = f"{_CGROUP_ROOT}/memory", "memory.limit_in_bytes"
        else:
            continue
        parts = path.rstrip("/").split("/")
        for i in range(len(parts), 0, -1):  # the cgroup, its parent, ..., the root
            try:
                with open(f"{root}{'/'.join(parts[:i])}/{leaf}") as f:
                    text = f.read().strip()
            except OSError:
                continue
            if text.isdigit():
                limits.append(int(text))
    return limits


def _memory() -> int:
    """The bytes of memory this process may use: the least of the machine's
    memory, its cgroup's limit and the soft RLIMIT_AS and RLIMIT_DATA, each
    taken as no limit where it is unknown or RLIM_INFINITY, or sys.maxsize
    where none is set."""
    limits = [sys.maxsize, *_cgroup_limits()]
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        import resource
    except ImportError:  # a platform without resource limits
        return min(limits)
    for limit in (resource.RLIMIT_AS, resource.RLIMIT_DATA):
        soft = resource.getrlimit(limit)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits)


# Records store runs (part, count) that can stand for more items than memory
# holds. Every write-out of runs is built only once it is known to fit in the
# memory this process may use: a larger one could only fail, and where the
# system grants memory it cannot back, fail by having the process killed.
# _budget is that memory, read by the first write-out, so that a command
# that writes none out never reads the limits; 0 until then.
_budget = 0
_BLOCK = 1024


def _fits(pieces: list, what: str, item_bytes: int) -> None:
    """Raise MemoryError, naming the longest run of what, when part * count
    over pieces (part, count), at item_bytes per item, would take more than
    the memory this process may use."""
    global _budget
    if not _budget:
        _budget = _memory()
    if sum([len(part) * count for part, count in pieces]) * item_bytes > _budget:
        longest = max([count for _, count in pieces])
        raise MemoryError(f"a run of {_shown(longest)} {what} cannot be written out")


def _add_run(runs: list, run: tuple) -> None:
    """Append run (key..., count) to runs, or add its count to the last run when
    their keys match: the builder of the runs of the descent, walk and parse."""
    if runs and runs[-1][0] == run[0] and runs[-1][:-1] == run[:-1]:  # most appends stop at the first field
        runs[-1] = runs[-1][:-1] + (runs[-1][-1] + run[-1],)
    else:
        runs.append(run)


def _written(pieces: list, what: str = "equal values") -> list:
    """The items of part * count over pieces (part, count) of tuples, as a
    list; an item repeated by a run is one shared object."""
    _fits(pieces, what, 8)
    values: list = []
    for part, count in pieces:
        values += part * count
    return values


def _written_text(pieces: list) -> str:
    """text * count over pieces (text, count) of ASCII strs, joined. A long
    run is joined from copies of one shared block of _BLOCK texts, so that
    building the result takes little more memory than the result."""
    _fits(pieces, "equal values", 2)  # the text and the encoded copy that printing it makes
    parts = []
    for text, count in pieces:
        if count > _BLOCK:
            blocks, count = divmod(count, _BLOCK)
            parts += [text * _BLOCK] * blocks
        parts.append(text * count)
    return "".join(parts)


def _exact(x) -> Fraction:
    """x as an exact Fraction: x itself when it is one, else Fraction(x). The
    package converts a value once, where it enters; a subclass, an int, a
    str or another rational is converted."""
    return x if type(x) is Fraction else Fraction(x)


def render(x) -> str:
    """Stable text form: str of x as an exact Fraction (an integer bare,
    otherwise numerator/denominator), or 1/0 for INFINITY; a ``Fraction`` is
    written as it is, without being rebuilt."""
    return "1/0" if x is INFINITY else str(_exact(x))


def _shown(x) -> str:
    """str(x) for an error message, or a fixed note where x holds an integer
    longer than the int/str digit limit lets str write out."""
    try:
        return str(x)
    except ValueError:
        return "(a value past the int/str digit limit)"


def _excerpt(text: str) -> str:
    """repr(text) for error messages, cut to its ends and length when long."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:20] + '...' + text[-20:]!r} ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' into a reduced Fraction. A decimal exponent, as in
    '3.5e0', must be within the int/str digit limit in absolute value:
    ``Fraction`` applies it as 10**exponent in integer arithmetic, which the
    limit never sees."""
    try:
        if "e" in text or "E" in text:
            limit = sys.get_int_max_str_digits()
            if limit and abs(int(text[max(text.rfind("e"), text.rfind("E")) + 1 :])) > limit:
                raise ValueError
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {_excerpt(text)}") from exc
    except ValueError as exc:
        raise ValueError(f"not a rational: {_excerpt(text)}") from exc


def _quotient(numerator: int, denominator: int) -> ProjectiveRational:
    """numerator/denominator, or INFINITY when denominator = 0."""
    return INFINITY if denominator == 0 else Fraction(numerator, denominator)


class ResidueSlope(_Record):
    """A slope residue class mod 1, or infinity.

    Finite classes are stored by their representative in [0, 1); the stored
    denominator is the q of the underlying reduced p/q.
    """

    __slots__ = ("value",)

    def __init__(self, value: ProjectiveRational):
        if value is not INFINITY:
            value = _exact(value)
            if not 0 <= value.numerator < value.denominator:
                raise ValueError(f"residue representative {_shown(value)} is outside [0, 1)")
        _set(self, "value", value)

    @property
    def is_infinite(self) -> bool:
        return self.value is INFINITY

    @property
    def numerator(self) -> int:
        if self.is_infinite:
            raise NotFiniteError("the infinite residue has no numerator")
        return self.value.numerator

    @property
    def denominator(self) -> int:
        if self.is_infinite:
            raise NotFiniteError("the infinite residue has no denominator")
        return self.value.denominator

    def negated(self) -> "ResidueSlope":
        return residue_of(-self.value)

    def __str__(self) -> str:
        return f"[ {render(self.value)} ]"


def residue_of(r: ProjectiveRational) -> ResidueSlope:
    """The class of r mod 1, with infinity passing through unchanged."""
    return ResidueSlope._new(r if r is INFINITY else _exact(r) % 1)
