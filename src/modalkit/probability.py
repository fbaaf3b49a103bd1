"""Finite-alphabet probability objects and exact information measures.

Everything downstream starts from a :class:`JointPmf`: a dense table of cell
probabilities over two ordered alphabets.  All numeric work is index-based
against the frozen alphabet order; symbols themselves are opaque strings.
Logarithms are natural throughout.

Tolerances: user-facing constructors renormalize inputs whose total deviates
from 1 by at most ``INGEST_TOL`` (1e-9) and reject anything worse; internal
invariants are enforced at ``INTERNAL_TOL`` (1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import DataError

INGEST_TOL = 1e-9
INTERNAL_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free collection of symbol tokens.

    The ordering is fixed at construction and indexes every matrix or table
    built over the alphabet.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise DataError("EMPTY_ALPHABET", "alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise DataError("DUPLICATE_SYMBOL", "alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise DataError("UNKNOWN_SYMBOL", f"symbol {symbol!r} not in alphabet") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index


def alphabet(symbols: Iterable[str]) -> Alphabet:
    return Alphabet(tuple(symbols))


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over an :class:`Alphabet`."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.alphabet),):
            raise DataError("SHAPE_MISMATCH", "probability vector does not match alphabet size")
        if not np.all(p >= 0):
            raise DataError("NEGATIVE_PROB", "probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > INTERNAL_TOL:
            raise DataError("SUM_NOT_ONE", f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.probs > 0))

    def prob(self, symbol: str) -> float:
        return float(self.probs[self.alphabet.index(symbol)])


@dataclass(frozen=True)
class JointPmf:
    """Joint probability table; ``probs[i, j]`` is P(x_i, y_j)."""

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.x_alphabet), len(self.y_alphabet)):
            raise DataError("SHAPE_MISMATCH", "joint table does not match alphabet sizes")
        if not np.all(p >= 0):
            raise DataError("NEGATIVE_PROB", "probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > INTERNAL_TOL:
            raise DataError("SUM_NOT_ONE", f"joint probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _freeze(p))

    @cached_property
    def x_marginal(self) -> Pmf:
        p = self.probs.sum(axis=1)
        return Pmf(self.x_alphabet, p / p.sum())

    @cached_property
    def y_marginal(self) -> Pmf:
        p = self.probs.sum(axis=0)
        return Pmf(self.y_alphabet, p / p.sum())

    @property
    def strictly_positive_marginals(self) -> bool:
        return self.x_marginal.strictly_positive and self.y_marginal.strictly_positive

    def prob(self, x: str, y: str) -> float:
        return float(self.probs[self.x_alphabet.index(x), self.y_alphabet.index(y)])


@dataclass(frozen=True)
class SamplePairs:
    """Observed (x, y) pairs plus a note recording how they were generated."""

    pairs: tuple[tuple[str, str], ...]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# construction


def joint_from_table(rows: Sequence[tuple[str, str, float]]) -> JointPmf:
    """Build a joint table from (x, y, probability) rows.

    Alphabets are inferred in first-appearance order.  A total mass within
    1e-9 of 1 is renormalized; a larger deviation is rejected.  Cells not
    mentioned are zero; mentioning a cell twice is an error.
    """
    if not rows:
        raise DataError("EMPTY_SAMPLES", "no rows supplied")
    seen: set[tuple[str, str]] = set()
    for x, y, p in rows:
        if not p >= 0:
            raise DataError("NEGATIVE_PROB", f"cell ({x!r}, {y!r}) has probability {p}")
        if (x, y) in seen:
            raise DataError("DUPLICATE_CELL", f"cell ({x!r}, {y!r}) listed twice")
        seen.add((x, y))
    ax = Alphabet(tuple(dict.fromkeys(x for x, _, _ in rows)))
    ay = Alphabet(tuple(dict.fromkeys(y for _, y, _ in rows)))
    table = np.zeros((len(ax), len(ay)))
    for x, y, p in rows:
        table[ax.index(x), ay.index(y)] = p
    total = table.sum()
    if abs(total - 1.0) > INGEST_TOL:
        raise DataError("SUM_NOT_ONE", f"row probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) > INTERNAL_TOL:  # renormalize noisy input, keep exact input exact
        table = table / total
    return JointPmf(ax, ay, table)


def joint_from_samples(
    samples: SamplePairs,
    x_alphabet: Alphabet | None = None,
    y_alphabet: Alphabet | None = None,
) -> JointPmf:
    """Empirical joint distribution: cell counts divided by sample size.

    When alphabets are supplied, unseen symbols get probability zero and a
    sample outside the supplied alphabet is an error.
    """
    n = len(samples)
    if n == 0:
        raise DataError("EMPTY_SAMPLES", "cannot estimate a distribution from zero samples")
    xs = [x for x, _ in samples.pairs]
    ys = [y for _, y in samples.pairs]
    if x_alphabet is None:
        x_alphabet = Alphabet(tuple(dict.fromkeys(xs)))
    if y_alphabet is None:
        y_alphabet = Alphabet(tuple(dict.fromkeys(ys)))
    try:
        xi = np.fromiter(map(x_alphabet._index.__getitem__, xs), np.intp, n)
        yi = np.fromiter(map(y_alphabet._index.__getitem__, ys), np.intp, n)
    except KeyError:
        for x, y in samples.pairs:  # name the first unknown symbol in sample order
            x_alphabet.index(x)
            y_alphabet.index(y)
        raise
    ny = len(y_alphabet)
    counts = np.bincount(xi * ny + yi, minlength=len(x_alphabet) * ny)
    return JointPmf(x_alphabet, y_alphabet, counts.reshape(len(x_alphabet), ny) / n)


def marginals(joint: JointPmf) -> tuple[Pmf, Pmf]:
    """Row and column marginals of a joint table."""
    return joint.x_marginal, joint.y_marginal


Direction = Literal["y|x", "x|y"]


def conditional(joint: JointPmf, direction: Direction) -> dict[str, Pmf]:
    """Conditional distributions, one per conditioning symbol.

    ``"y|x"`` returns {x: P(Y | X = x)}; ``"x|y"`` the reverse.  The
    conditioning marginal must be strictly positive.
    """
    if direction == "y|x":
        cond_marg, table, other = joint.x_marginal, joint.probs, joint.y_alphabet
    elif direction == "x|y":
        cond_marg, table, other = joint.y_marginal, joint.probs.T, joint.x_alphabet
    else:
        raise DataError("SHAPE_MISMATCH", f"unknown direction {direction!r}")
    if not cond_marg.strictly_positive:
        raise DataError("ZERO_MARGINAL", "conditioning marginal contains a zero entry")
    out = {}
    for i, symbol in enumerate(cond_marg.alphabet):
        row = table[i] / cond_marg.probs[i]
        out[symbol] = Pmf(other, row / row.sum())
    return out


# ---------------------------------------------------------------------------
# information measures (exact, natural log)


def mutual_information(joint: JointPmf) -> float:
    """I(X;Y) in nats, with the 0 log 0 = 0 convention."""
    p = joint.probs
    outer = np.outer(joint.x_marginal.probs, joint.y_marginal.probs)
    mask = p > 0
    val = float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))
    return max(val, 0.0)


def _aligned_arrays(p: Pmf | JointPmf, q: Pmf | JointPmf) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.alphabet != q.alphabet:
            raise DataError("SHAPE_MISMATCH", "distributions live on different alphabets")
        return p.probs, q.probs
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        if p.x_alphabet != q.x_alphabet or p.y_alphabet != q.y_alphabet:
            raise DataError("SHAPE_MISMATCH", "joint tables live on different alphabets")
        return p.probs.ravel(), q.probs.ravel()
    raise DataError("SHAPE_MISMATCH", "cannot compare a Pmf with a JointPmf")


def chi2_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Neyman chi-squared divergence sum (p - q)^2 / q; q must be positive."""
    pa, qa = _aligned_arrays(p, q)
    if np.any(qa <= 0):
        raise DataError("ZERO_REFERENCE", "reference distribution must be strictly positive")
    return float(np.sum((pa - qa) ** 2 / qa))


def kl_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Requires support(p) included in support(q); cells where both vanish
    contribute zero.
    """
    pa, qa = _aligned_arrays(p, q)
    if np.any((pa > 0) & (qa == 0)):
        raise DataError("SUPPORT_MISMATCH", "p places mass where q is zero")
    mask = pa > 0
    val = float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# sampling


def draw_samples(joint: JointPmf, n: int, seed: int) -> SamplePairs:
    """Draw n i.i.d. pairs; deterministic for a fixed seed."""
    if n < 1:
        raise DataError("EMPTY_SAMPLES", "need n >= 1 samples")
    rng = np.random.default_rng(seed)
    flat = joint.probs.ravel()
    idx = rng.choice(flat.size, size=n, p=flat)
    # one (x, y) tuple per cell, shared by every sample of that cell
    cells = np.fromiter(((x, y) for x in joint.x_alphabet for y in joint.y_alphabet), dtype=object, count=flat.size)
    return SamplePairs(tuple(cells[idx].tolist()), provenance=f"seed={seed}")


# ---------------------------------------------------------------------------
# TSV interface: joints are `x<TAB>y<TAB>prob` lines, samples `x<TAB>y`,
# `#` starts a comment, UTF-8.


def load_joint_tsv(path: str | Path) -> JointPmf:
    rows = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError("BAD_TSV", f"{path}:{lineno}: expected `x<TAB>y<TAB>prob`")
        try:
            prob = float(parts[2])
        except ValueError:
            raise DataError("BAD_TSV", f"{path}:{lineno}: bad probability {parts[2]!r}") from None
        rows.append((parts[0], parts[1], prob))
    return joint_from_table(rows)


def dump_joint_tsv(joint: JointPmf, path: str | Path) -> None:
    lines = ["# x\ty\tprob"]
    for i, x in enumerate(joint.x_alphabet):
        for j, y in enumerate(joint.y_alphabet):
            lines.append(f"{x}\t{y}\t{float(joint.probs[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_samples_tsv(path: str | Path) -> SamplePairs:
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError("BAD_TSV", f"{path}:{lineno}: expected `x<TAB>y`")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError("EMPTY_SAMPLES", f"{path}: no samples found")
    return SamplePairs(tuple(pairs), provenance=f"file={path}")
