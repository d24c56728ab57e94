"""Exact combinatorics of set families over a partitioned ground set.

The ground set [n] = {1, ..., n} is split into p consecutive parts
X_1, ..., X_p of sizes n_1, ..., n_p, so part l occupies a contiguous
index range and its s-prefix Q_l(s) (the first s elements of X_l) is a
contiguous bit range.  Subsets of [n] are encoded as int bitmasks
(bit e-1 <-> element e); Python ints are arbitrary precision, so there
is no width limit beyond the enumeration caps.  Families are immutable
sets of masks tied to their ground set.

Three family constructions are provided:

* block family: sets meeting part i in exactly r_i elements;
* profile-union family: union of blocks over a set of profiles;
* quota family: k-subsets meeting part i in at least q_i elements.

All counts are exact Python ints and all ratios exact fractions; no
floating point is used anywhere in a comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import combinations, product
from operator import attrgetter


# ---------------------------------------------------------------------------
# errors

class Error(Exception):
    """Base class for all package errors."""


class InvalidParametersError(Error, ValueError):
    """Arguments violate a documented precondition."""


class InstanceTooLargeError(Error):
    """Requested enumeration or search exceeds the configured cap."""


class EmptyFamilyError(Error, ValueError):
    """An operation that needs at least one member got an empty family."""


class HypothesisViolationError(Error):
    """A checker's hypothesis fails on the given input (the input is at
    fault, not the property being checked)."""


class InvariantError(Error):
    """An internal consistency check failed: a defect in tstar, not in
    the input."""


# ---------------------------------------------------------------------------
# caps

DEFAULT_ENUMERATION_CAP = 10_000_000
DEFAULT_SEARCH_CAP = 50_000

def _resolve_cap(cap: int | None, default: int) -> int:
    if cap is None:
        return default
    if cap < 1:
        raise InvalidParametersError(f"cap must be positive, got {cap}")
    return cap


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve an enumeration cap: explicit value, else the default."""
    return _resolve_cap(cap, DEFAULT_ENUMERATION_CAP)


def search_cap(cap: int | None = None) -> int:
    """Resolve a search vertex cap: explicit value, else the default."""
    return _resolve_cap(cap, DEFAULT_SEARCH_CAP)


# ---------------------------------------------------------------------------
# scalars and masks

def binom(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k < 0 or k > n."""
    if n < 0:
        raise InvalidParametersError(f"binom needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask for a collection of 1-based elements."""
    mask = 0
    for e in elements:
        if e < 1:
            raise InvalidParametersError(f"elements are 1-based, got {e}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based elements of a bitmask."""
    if mask < 0:
        raise InvalidParametersError("mask must be non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# immutable values

class _Frozen:
    """Base of every immutable value type and result record.  A subclass
    declares its fields as annotated class attributes, after those it
    inherits; `_fields` keeps their order, that of the positional
    constructor and of the repr.  Values of one class are equal when their
    fields are, compared through a C-level getter because shifting and
    verify compare ground sets on every call; the hash is the field
    tuple's.  Assigning or deleting any attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)     # one field: its value; more: their tuple

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields")
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# ground set

class GroundSet(_Frozen):
    """Partition of [n] into consecutive parts of the given sizes.

    Elements are 1-based throughout the public API; parts are indexed
    from 0.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes: tuple[int, ...]) -> None:
        if not isinstance(sizes, tuple):
            sizes = tuple(sizes)
        if len(sizes) < 1:
            raise InvalidParametersError("need at least one part")
        for s in sizes:
            if not isinstance(s, int) or s < 1:
                raise InvalidParametersError(f"part sizes must be positive ints, got {s!r}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def p(self) -> int:
        return len(self.sizes)

    @cached_property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        # offsets[i] = number of elements before part i (0-based bit offset)
        out = []
        acc = 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def part_elements(self, part: int) -> range:
        """1-based elements of the given part, ascending."""
        self._check_part(part)
        start = self.offsets[part] + 1
        return range(start, start + self.sizes[part])

    def prefix_mask(self, part: int, s: int) -> int:
        """Mask of the first s elements of the given part."""
        self._check_part(part)
        if not 0 <= s <= self.sizes[part]:
            raise InvalidParametersError(
                f"prefix length {s} out of range for part of size {self.sizes[part]}")
        return ((1 << s) - 1) << self.offsets[part]

    def element_part(self, element: int) -> int:
        """0-based part index containing a 1-based element."""
        if not 1 <= element <= self.n:
            raise InvalidParametersError(f"element {element} not in [1, {self.n}]")
        return bisect_right(self.offsets, element - 1) - 1

    def profile(self, mask: int) -> tuple[int, ...]:
        """Per-part intersection sizes of a subset mask."""
        return tuple([(mask >> off).bit_count() - (mask >> (off + s)).bit_count()
                      for s, off in zip(self.sizes, self.offsets)])

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self.n:
            raise InvalidParametersError(
                f"mask {bin(mask)} has bits outside ground set of size {self.n}")

    def check_profile(self, profile: tuple[int, ...]) -> None:
        if len(profile) != len(self.sizes):
            raise InvalidParametersError(
                f"profile length {len(profile)} != number of parts {self.p}")
        for r, s in zip(profile, self.sizes):
            if not 0 <= r <= s:
                raise InvalidParametersError(f"profile entry {r} out of [0, {s}]")

    def _check_part(self, part: int) -> None:
        if not 0 <= part < len(self.sizes):
            raise InvalidParametersError(f"part {part} out of range [0, {self.p})")


# ---------------------------------------------------------------------------
# families

class Family(_Frozen):
    """Immutable set family over a fixed ground set.

    Iteration is in ascending mask order, which is colexicographic order
    on the underlying sets; every user-visible ordering derives from it.
    """

    ground: GroundSet
    members: frozenset[int]

    def __init__(self, ground: GroundSet, members: frozenset[int]) -> None:
        if not isinstance(members, frozenset):
            members = frozenset(members)
        n = ground.n
        for m in members:
            if m < 0 or m >> n:
                raise InvalidParametersError(
                    f"member {bin(m)} has bits outside ground set of size {n}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_iterables(cls, ground: GroundSet, sets: Iterable[Iterable[int]]) -> "Family":
        return cls(ground, frozenset(mask_of(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __contains__(self, mask: int) -> bool:
        return mask in self.members


# ---------------------------------------------------------------------------
# profile sets

class ProfileSet(_Frozen):
    """A finite set of everywhere-positive profiles over a common p.

    Carries the largest entry b and the smallest entry c over all the
    profiles, used by the union-space bounds.
    """

    profiles: tuple[tuple[int, ...], ...]

    def __init__(self, profiles: tuple[tuple[int, ...], ...]) -> None:
        profs = tuple(sorted({tuple(r) for r in profiles}))
        if not profs:
            raise InvalidParametersError("profile set must be non-empty")
        p = len(profs[0])
        for r in profs:
            if len(r) != p:
                raise InvalidParametersError("profiles must share one length")
            for x in r:
                if not isinstance(x, int) or x < 1:
                    raise InvalidParametersError(
                        f"profile entries must be positive ints, got {x!r}")
        object.__setattr__(self, "profiles", profs)

    @property
    def p(self) -> int:
        return len(self.profiles[0])

    @cached_property
    def b(self) -> int:
        """Largest entry appearing in any profile."""
        return max(max(r) for r in self.profiles)

    @cached_property
    def c(self) -> int:
        """Smallest entry appearing in any profile."""
        return min(min(r) for r in self.profiles)

    def check_against(self, ground: GroundSet) -> None:
        if self.p != ground.p:
            raise InvalidParametersError(
                f"profile set has {self.p} parts, ground set has {ground.p}")
        for r in self.profiles:
            ground.check_profile(r)


# ---------------------------------------------------------------------------
# enumeration

def bounded_compositions(total: int, lows: tuple[int, ...],
                         highs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All tuples x with lows[i] <= x[i] <= highs[i] and sum(x) = total,
    in lexicographic order.

    One odometer over the coordinates: each coordinate counts from the
    smallest to the largest value that leaves the later ones room to
    reach the total (suffix sums of lows and highs, computed once), so
    the last one takes what remains.
    """
    if len(lows) != len(highs):
        raise InvalidParametersError("lows and highs must have equal length")
    p = len(lows)
    low_rest, high_rest = [0] * (p + 1), [0] * (p + 1)   # sums of lows[i:], highs[i:]
    for i in reversed(range(p)):
        low_rest[i] = low_rest[i + 1] + lows[i]
        high_rest[i] = high_rest[i + 1] + highs[i]

    def walk() -> Iterator[tuple[int, ...]]:
        if p == 0:
            if total == 0:
                yield ()
            return
        last = p - 1
        acc, tops, rests = [0] * p, [0] * p, [0] * p
        i, remaining = 0, total
        while True:
            while i < last:     # fill coordinates i.. with their smallest values
                lo = max(lows[i], remaining - high_rest[i + 1])
                hi = min(highs[i], remaining - low_rest[i + 1])
                if lo > hi:
                    break
                acc[i], tops[i], rests[i] = lo, hi, remaining
                remaining -= lo
                i += 1
            else:
                if lows[last] <= remaining <= highs[last]:
                    acc[last] = remaining
                    yield tuple(acc)
            # advance the deepest coordinate below i that has room left
            i -= 1
            while i >= 0 and acc[i] == tops[i]:
                i -= 1
            if i < 0:
                return
            acc[i] += 1
            remaining = rests[i] - acc[i]
            i += 1

    return walk()


def block_size(ground: GroundSet, profile: tuple[int, ...]) -> int:
    """Number of sets meeting part i in exactly profile[i] elements."""
    ground.check_profile(profile)
    return math.prod(binom(n, r) for n, r in zip(ground.sizes, profile))


def enumerate_block(ground: GroundSet, profile: tuple[int, ...],
                    cap: int | None = None) -> Family:
    """Materialize the block family for one profile.

    Fails fast with InstanceTooLargeError when the exact size (computed
    before any enumeration) exceeds the cap.
    """
    return _enumerate_blocks(ground, (tuple(profile),), "block", cap)


def _blocks_size(ground: GroundSet, profiles: Iterable[tuple[int, ...]]) -> int:
    # the blocks of distinct profiles are pairwise disjoint
    return sum(block_size(ground, r) for r in profiles)


def _enumerate_blocks(ground: GroundSet, profiles: tuple[tuple[int, ...], ...],
                      what: str, cap: int | None = None) -> Family:
    """Union of the blocks of distinct profiles (zero entries allowed), named
    `what` in errors and refused before any enumeration above the cap.

    A member of a block is one r_i-subset of each part; the parts hold
    disjoint bits, so summing the per-part masks is their union.
    """
    size = _blocks_size(ground, profiles)
    limit = enumeration_cap(cap)
    if size > limit:
        raise InstanceTooLargeError(f"{what} has {size} members, cap is {limit}")
    part_bits = [[1 << e for e in range(off, off + s)]
                 for off, s in zip(ground.offsets, ground.sizes)]
    members: set[int] = set()
    for r in profiles:
        per_part = [[sum(c) for c in combinations(bits, r_i)]
                    for bits, r_i in zip(part_bits, r)]
        members.update(map(sum, product(*per_part)))
    if len(members) != size:
        raise InvariantError(
            f"{what} enumerated {len(members)} members, expected {size}")
    return Family(ground, frozenset(members))


def enumerate_profile_union(ground: GroundSet, profiles: ProfileSet,
                            cap: int | None = None) -> Family:
    """Union of the blocks of every profile in the set."""
    profiles.check_against(ground)
    return _enumerate_blocks(ground, profiles.profiles, "profile union", cap)


def quota_profiles(ground: GroundSet, k: int,
                   quotas: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Profiles of the k-sets meeting part i in at least quotas[i] elements."""
    quotas = tuple(quotas)
    if len(quotas) != ground.p:
        raise InvalidParametersError(
            f"quota length {len(quotas)} != number of parts {ground.p}")
    for q, n in zip(quotas, ground.sizes):
        if not 0 <= q < n:
            raise InvalidParametersError(f"quota {q} out of [0, {n})")
    if k < 0:
        raise InvalidParametersError(f"k must be >= 0, got {k}")
    if k > ground.n:
        raise InvalidParametersError(
            f"k={k} exceeds the ground set size {ground.n}")
    if sum(quotas) > k:
        raise InvalidParametersError(
            f"quotas sum to {sum(quotas)} which exceeds k={k}")
    return tuple(bounded_compositions(k, quotas, ground.sizes))


def enumerate_quota(ground: GroundSet, k: int, quotas: tuple[int, ...],
                    cap: int | None = None) -> Family:
    """All k-subsets of the ground set meeting every part's quota."""
    return _enumerate_blocks(ground, quota_profiles(ground, k, quotas),
                             "quota family", cap)


# ---------------------------------------------------------------------------
# stars

def trivial_star(space: Family, center: int) -> Family:
    """Members of the space containing every element of the center mask."""
    space.ground.check_mask(center)
    return Family(space.ground,
                  frozenset(m for m in space.members if m & center == center))


# ---------------------------------------------------------------------------
# family text format
#
#   # comment lines start with '#', blank lines are skipped
#   ground: 8,10
#   1,2,3,4
#   1,2,9,10
#
# Members are written in ascending mask order (colex).  Empty members are
# not representable and are rejected on write.

def format_family(fam: Family) -> str:
    lines = ["ground: " + ",".join(str(s) for s in fam.ground.sizes)]
    for m in fam:
        if m == 0:
            raise InvalidParametersError(
                "the empty set cannot be written in the family text format")
        lines.append(",".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> Family:
    ground: GroundSet | None = None
    first_line: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ground is None:
            if not line.startswith("ground:"):
                raise InvalidParametersError(
                    f"line {lineno}: expected 'ground: n_1,...,n_p' header")
            body = line[len("ground:"):].strip()
            try:
                sizes = tuple(int(tok) for tok in body.split(","))
            except ValueError:
                raise InvalidParametersError(f"line {lineno}: bad ground sizes {body!r}")
            ground = GroundSet(sizes)
            continue
        try:
            elems = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise InvalidParametersError(f"line {lineno}: bad member line {line!r}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise InvalidParametersError(
                f"line {lineno}: elements must be strictly ascending")
        if elems and (elems[0] < 1 or elems[-1] > ground.n):
            raise InvalidParametersError(
                f"line {lineno}: element out of range [1, {ground.n}]")
        mask = mask_of(elems)
        if mask in first_line:
            raise InvalidParametersError(
                f"line {lineno}: duplicate of the member on line {first_line[mask]}")
        first_line[mask] = lineno
    if ground is None:
        raise InvalidParametersError("missing 'ground:' header")
    return Family(ground, frozenset(first_line))


def write_family(fam: Family, path: str) -> None:
    text = format_family(fam)   # before open, so a refused family leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_family(path: str) -> Family:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InvalidParametersError(
            f"{path}: byte {exc.start} (0x{data[exc.start]:02x}) is not ASCII") from None
    return parse_family(text)
