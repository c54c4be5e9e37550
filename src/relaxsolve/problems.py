"""Seeded generators for the ten benchmark problem families P1-P10.

Each family fills a dense n-by-n system from three rules -- one for the
diagonal, one for the off-diagonal block, one for the right-hand side.
A rule is a constant, a uniform open interval, or a named 1-based index
formula (``p7`` or ``p8``); each kind fills whichever slot it sits in.
Families P1-P6, P9 and P10 are random; P7 and P8 are fully
deterministic. Custom problems use the same rule kinds through a small
line-oriented ``key=value`` spec format, whose ``scan_kv`` and
``build_spec`` the bench plan parser shares.

Diagonal interval rules are rejection-sampled until every diagonal
entry has magnitude at least 1 if the interval spans zero (P3, P9)
and at least ``DIAG_FLOOR`` otherwise, since the iteration matrices need
an invertible diagonal. A spec whose diagonal interval reaches that
magnitude on less than 1% of its width is rejected, since the sampler
would redraw nearly forever. Rule values must be finite, and so must
an interval's width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linalg import DIAG_FLOOR, LinearSystem, checked_int, checked_real

__all__ = [
    "ConstRule",
    "DEFAULT_N",
    "FAMILY_IDS",
    "FormulaRule",
    "N_LIMIT",
    "ProblemSpec",
    "Rule",
    "SpecParseError",
    "UniformRule",
    "family_spec",
    "generate_problem",
    "parse_problem_spec",
    "render_problem_spec",
]

# Every n is below this, so an n-by-n float64 array is a legal numpy size.
N_LIMIT = 2**30

# The n of a family instance when the CLI or a bench plan gives none.
DEFAULT_N = 200

# Zero-spanning diagonal intervals are resampled until |a_ii| >= this.
DIAG_MIN_ABS = 1.0

# Smallest share of a diagonal interval's width the sampler may accept
# from; below it the expected number of redraws per entry exceeds 100.
_DIAG_MIN_SHARE = 0.01


@dataclass(frozen=True)
class ConstRule:
    """Every entry equals ``value``."""

    value: float

    def __post_init__(self):
        if not math.isfinite(checked_real("value", self.value)):
            raise ValueError(f"constant rule needs a finite value, got {self.value!r}")

    def __str__(self) -> str:
        return f"const:{self.value}"


@dataclass(frozen=True)
class UniformRule:
    """Entries drawn uniformly from the open interval ``(lo, hi)``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not checked_real("lo", self.lo) < checked_real("hi", self.hi):
            raise ValueError(f"uniform rule needs lo < hi, got ({self.lo}, {self.hi})")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                f"uniform rule needs a finite width, got ({self.lo}, {self.hi})"
            )

    def __str__(self) -> str:
        return f"uniform:{self.lo},{self.hi}"

    @property
    def spans_zero(self) -> bool:
        return self.lo < 0.0 < self.hi


@dataclass(frozen=True)
class FormulaRule:
    """Entries computed from 1-based indices by a named built-in formula.

    ``family`` is ``"p7"`` or ``"p8"``. Like the other rules, it fills
    whichever slot it sits in, with that family's formula for the slot.
    """

    family: str

    def __post_init__(self):
        if self.family not in _FORMULAS:
            raise ValueError(f"unknown formula {self.family!r}")

    def __str__(self) -> str:
        return f"formula:{self.family}"


Rule = Union[ConstRule, UniformRule, FormulaRule]

# By family, then slot; of vectorized 1-based indices i, j and size n.
# P7: a_ii = 20 i, a_ij = (100 - j)/20, b_i = 10 i.  P8: a_ii = 20 n, a_ij = j, b_i = i.
_FORMULAS: dict[str, dict[str, Callable]] = {
    "p7": {"diag": lambda i, j, n: 20.0 * i,
           "offdiag": lambda i, j, n: (100.0 - j) / 20.0,
           "rhs": lambda i, j, n: 10.0 * i},
    "p8": {"diag": lambda i, j, n: 20.0 * n,
           "offdiag": lambda i, j, n: 1.0 * j,
           "rhs": lambda i, j, n: 1.0 * i},
}

# diag, offdiag, rhs rule triples for the canonical families.
_FAMILIES: dict[str, tuple[Rule, Rule, Rule]] = {
    "P1": (UniformRule(100, 200), UniformRule(-10, 10), UniformRule(100, 200)),
    "P2": (UniformRule(1, 400), UniformRule(-4, 4), ConstRule(100)),
    "P3": (UniformRule(-50, 50), UniformRule(-1, 1), UniformRule(-1, 1)),
    "P4": (ConstRule(100), UniformRule(-1, 1), UniformRule(0, 100)),
    "P5": (ConstRule(50), UniformRule(-10, 10), UniformRule(-5, 5)),
    "P6": (ConstRule(50), UniformRule(-1, 1), ConstRule(2)),
    "P7": (FormulaRule("p7"),) * 3,
    "P8": (FormulaRule("p8"),) * 3,
    "P9": (UniformRule(-20, 200), UniformRule(-2, 3), UniformRule(-2, 3)),
    "P10": (ConstRule(40), UniformRule(-4, 4), ConstRule(200)),
}

FAMILY_IDS = tuple(_FAMILIES)
RULE_KEYS = ("diag", "offdiag", "rhs")


def _diag_min_abs(rule: UniformRule) -> float:
    """Smallest |a_ii| the rejection sampler accepts from a diagonal interval."""
    return DIAG_MIN_ABS if rule.spans_zero else DIAG_FLOOR


def _share_reaching(rule: UniformRule, m: float) -> float:
    """Fraction of the interval's width where ``|v| >= m`` (``m > 0``)."""
    below = max(0.0, min(rule.hi, -m) - rule.lo)
    above = max(0.0, rule.hi - max(rule.lo, m))
    return (below + above) / (rule.hi - rule.lo)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified random linear system: id, size, rules, seed.

    ``id`` is a family id (P1..P10) or ``"custom"``. A family fixes its
    three rules: an omitted rule is filled in from the family, and a
    given one must equal it. ``custom`` needs all three rules, each of
    any kind in any slot. Every error message starts with the field it
    names (``id``, ``n``, ``seed``, ``diag``, ``offdiag`` or ``rhs``).
    """

    id: str
    n: int
    seed: int
    diag_rule: Rule | None = None
    offdiag_rule: Rule | None = None
    rhs_rule: Rule | None = None

    def __post_init__(self):
        fixed = _FAMILIES.get(self.id)
        if fixed is None and self.id != "custom":
            raise ValueError(
                f"id must be custom or one of {FAMILY_IDS[0]}..{FAMILY_IDS[-1]}, "
                f"got unknown id {self.id!r}"
            )
        if not 1 <= checked_int("n", self.n) < N_LIMIT:
            raise ValueError(f"n must be a positive integer below {N_LIMIT}")
        if not 0 <= checked_int("seed", self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        for k, key in enumerate(RULE_KEYS):
            rule = getattr(self, f"{key}_rule")
            if fixed is not None and rule is None:
                object.__setattr__(self, f"{key}_rule", fixed[k])
            elif fixed is not None and rule != fixed[k]:
                raise ValueError(
                    f"{key} of {self.id} is fixed to {fixed[k]}, got {rule}; "
                    f"other rules are only allowed with id=custom"
                )
            elif rule is None:
                raise ValueError(f"{key} rule is required with id=custom")
        diag = self.diag_rule
        if isinstance(diag, ConstRule) and abs(diag.value) < DIAG_FLOOR:
            raise ValueError("diag constant rule must be nonzero")
        if isinstance(diag, UniformRule):
            lo, hi = diag.lo, diag.hi
            min_abs = _diag_min_abs(diag)
            share = _share_reaching(diag, min_abs)
            if share == 0.0:
                raise ValueError(
                    f"diag interval ({lo!r}, {hi!r}) never reaches "
                    f"the required magnitude {min_abs!r}"
                )
            if share < _DIAG_MIN_SHARE:
                raise ValueError(
                    f"diag interval ({lo!r}, {hi!r}) reaches the required "
                    f"magnitude {min_abs!r} on only {share:.2g} of its width, "
                    f"under the {_DIAG_MIN_SHARE:.0%} the sampler needs"
                )


def family_spec(pid: str, n: int, seed: int) -> ProblemSpec:
    """ProblemSpec for canonical family ``pid`` ("P1".."P10")."""
    return ProblemSpec(pid, n, seed)


def _fill(rule: Rule, slot: str, shape, rng: np.random.Generator, i, j, min_abs: float = 0.0):
    """Entries of ``shape`` from ``rule`` in ``slot``; ``i``, ``j`` are 1-based indices.

    An interval draws from ``rng``, redrawing entries below ``min_abs``.
    """
    if isinstance(rule, ConstRule):
        return np.full(shape, float(rule.value))
    if isinstance(rule, FormulaRule):
        vals = np.broadcast_to(_FORMULAS[rule.family][slot](i, j, shape[0]), shape)
        return np.array(vals, dtype=np.float64, order="C")
    vals = rng.uniform(rule.lo, rule.hi, size=shape)
    while min_abs > 0.0 and (bad := np.abs(vals) < min_abs).any():
        vals[bad] = rng.uniform(rule.lo, rule.hi, size=int(bad.sum()))
    return vals


def generate_problem(
    spec: ProblemSpec, rng: np.random.Generator | None = None
) -> LinearSystem:
    """Materialize the dense system described by ``spec``.

    Random draws consume one stream in a fixed order: the off-diagonal
    field first (drawn as a full n-by-n block whose diagonal is then
    overwritten), then the diagonal, then the right-hand side. Formula
    and constant rules consume no draws. If ``rng`` is omitted a fresh
    generator is seeded with ``spec.seed``, so the same spec always
    produces the same system.

    Diagonal entries from an interval are redrawn until their magnitude
    reaches 1 (zero-spanning intervals) or ``DIAG_FLOOR`` (others).
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n, diag = spec.n, spec.diag_rule
    i = np.arange(1, n + 1, dtype=np.float64)
    a = _fill(spec.offdiag_rule, "offdiag", (n, n), rng, i[:, None], i[None, :])
    min_abs = _diag_min_abs(diag) if isinstance(diag, UniformRule) else 0.0
    np.fill_diagonal(a, _fill(diag, "diag", (n,), rng, i, i, min_abs))
    a.setflags(write=False)  # so LinearSystem keeps it without a copy
    return LinearSystem(a, _fill(spec.rhs_rule, "rhs", (n,), rng, i, i))


class SpecParseError(ValueError):
    """Problem-spec text could not be parsed; ``line`` is 1-based or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


SPEC_KEYS = ("id", "n", "seed") + RULE_KEYS


def field_error(exc: ValueError, lines: dict[str, int | None]) -> SpecParseError:
    """``exc`` as a SpecParseError at the line of the key its message starts with."""
    message = str(exc)
    return SpecParseError(message, lines.get(message.partition(" ")[0]))


def _parse_rule(value: str) -> Rule:
    """The rule ``value`` spells; a plain ValueError if it spells none."""
    kind, _, rest = value.partition(":")
    if kind == "const":
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(f"invalid constant {rest!r}") from None
        return ConstRule(value)
    if kind == "uniform":
        try:
            lo, hi = map(float, rest.split(","))
        except ValueError:
            raise ValueError(f"malformed interval {rest!r}, expected <lo>,<hi>") from None
        return UniformRule(lo, hi)
    if kind == "formula":
        return FormulaRule(rest)
    raise ValueError(
        f"unknown rule kind {kind!r} in {value!r}: a rule looks like "
        f"const:<.>, uniform:<.>,<.> or formula:<name>"
    )


def scan_kv(
    text: str, allowed_keys: tuple[str, ...]
) -> tuple[dict[str, str], dict[str, int | None]]:
    """Scan ``key=value`` lines into ``(fields, lines)``.

    Shared by the problem-spec and benchmark-plan parsers. ``#`` starts
    a comment; blank lines are skipped. Keys outside ``allowed_keys``,
    repeated keys, and lines without a key or a value are errors;
    ``lines`` maps each key to its 1-based line number.
    """
    fields: dict[str, str] = {}
    lines: dict[str, int | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise SpecParseError(f"expected key=value, got {raw.strip()!r}", lineno)
        if not value:
            raise SpecParseError(f"empty value for key {key!r}", lineno)
        if key not in allowed_keys:
            raise SpecParseError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise SpecParseError(f"duplicate key {key!r}", lineno)
        fields[key] = value
        lines[key] = lineno
    return fields, lines


def convert(
    fields: dict[str, str], lines: dict[str, int | None], key: str, kind: type = int
) -> int | float:
    """``fields[key]`` as ``kind`` (``int`` or ``float``); its range is not checked."""
    try:
        return kind(fields[key])
    except ValueError:
        word = "integer" if kind is int else "real"
        raise SpecParseError(
            f"invalid {word} for key {key!r}: {fields[key]!r}", lines.get(key)
        ) from None


def build_spec(fields: dict[str, str], lines: dict[str, int | None]) -> ProblemSpec:
    """Assemble a ProblemSpec from already-scanned key/value fields.

    Shared by the problem-spec and benchmark-plan parsers; keys outside
    ``SPEC_KEYS`` are ignored. Values of present keys are converted
    first, so a malformed value is reported at its line even when other
    keys are missing; a rule's error, whether from its text or from its
    class, is reported at its key's line. ``ProblemSpec`` then judges the
    values, and its error is reported at the line of the key it names.
    """
    n = convert(fields, lines, "n") if "n" in fields else None
    seed = convert(fields, lines, "seed") if "seed" in fields else None
    rules = []
    for key in RULE_KEYS:
        try:
            rules.append(_parse_rule(fields[key]) if key in fields else None)
        except ValueError as exc:
            raise SpecParseError(str(exc), lines.get(key)) from None
    for req in ("id", "n", "seed"):
        if req not in fields:
            raise SpecParseError(f"missing required key {req!r}")
    try:
        return ProblemSpec(fields["id"], n, seed, *rules)
    except ValueError as exc:
        raise field_error(exc, lines) from None


def parse_problem_spec(text: str) -> ProblemSpec:
    """Parse the line-oriented ``key=value`` problem-spec format.

    Keys: ``id`` (P1..P10 or custom), ``n``, ``seed``, and the rules
    ``diag``, ``offdiag``, ``rhs``, which custom problems need and
    family ids may only repeat unchanged. ``#`` starts a comment; blank
    lines are skipped. Errors carry the offending 1-based line number
    where one applies.
    """
    return build_spec(*scan_kv(text, SPEC_KEYS))


def render_problem_spec(spec: ProblemSpec) -> str:
    """Serialize a spec back to the text format ``parse_problem_spec`` reads."""
    out = [f"id={spec.id}", f"n={spec.n}", f"seed={spec.seed}"]
    if spec.id == "custom":
        out.append(f"diag={spec.diag_rule}")
        out.append(f"offdiag={spec.offdiag_rule}")
        out.append(f"rhs={spec.rhs_rule}")
    return "\n".join(out) + "\n"
