"""The benchmark's workloads: what each one asks the ``skein`` CLI to do.

This module imports nothing from skeinkit.  A workload is a list of
commands (argument lists for the ``skein`` group) and, for each command,
what the benchmark expects of its output: the published rows, the
paper's stability rate, and which family members the independent
state-sum oracle recomputes.  The same seed always gives the same
commands.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# The paper's published coefficient rows.  Row k of a table is the first
# ``width(k)`` entries of the row given here; every shorter row is a
# prefix of the longest one.
T1 = (1, -1, 3, -4, 6, -8, 10, -11, 13, -13, 14)
T3 = (1, -1, -1, 0, 4, 0, -4, -5, 7, 6, -1,
      -13, 1, 7, 9, -8, -3, -5, 5, -1, 13, -4)
T4 = (1, -1, -1, 0, 0, 1, 0, 1)

DEFAULT_SEED = 1

# Drawn pretzel families of the fixed-color workload, one per slot:
# (fixed columns, their total crossing count, index, last parameter).
# The seed draws how the total splits over the fixed columns and where
# the growing column k sits; the column count, index and total stay put,
# so every seed asks for about the same amount of exact arithmetic.
DRAWN_SLOTS = (
    (2, 6, 3, 40),
    (2, 5, 3, 40),
    (3, 7, 2, 16),
    (4, 9, 2, 16),
)

# how many of the smallest members of each drawn family the clasped
# state sum recomputes
ORACLE_MEMBERS = 2


@dataclass(frozen=True)
class Family:
    """One pretzel family as the CLI is asked for it.

    ``columns`` are the column expressions in the parameter ``k`` (each
    either an integer or ``k`` plus an integer offset), ``index`` is the
    reduced polynomial's index, and ``start..stop`` the parameter range.
    ``published`` is the paper's row for the family, if it has one, and
    ``width`` the expression for how many of its entries member k shows.
    """

    columns: tuple[str, ...]
    index: str
    start: int
    stop: int
    published: tuple[int, ...] | None = None
    width: str | None = None
    drawn: bool = False

    @property
    def text(self) -> str:
        return ",".join(self.columns)

    def parameters(self) -> range:
        return range(self.start, self.stop + 1)

    def counts(self, k: int) -> list[int]:
        return [evaluate(c, k) for c in self.columns]

    def member_index(self, k: int) -> int:
        return evaluate(self.index, k)

    def published_width(self, k: int) -> int:
        return evaluate(self.width, k) if self.width else 0

    def rate(self, k: int) -> int:
        """Coefficients that members k and k+1 must share.

        Twisting one region of an alternating diagram further leaves the
        first n(m-1)+1 coefficients of the index-(n+1) reduced polynomial
        unchanged, m being the smallest size at the later member among
        the columns that grew.  When the index grows with k (the
        color-locked family) the claim is the published one: row k is a
        prefix of row k+1.
        """
        if "k" in self.index:
            return self.published_width(k)
        n = self.member_index(k) - 1
        grown = [b for a, b in zip(self.counts(k), self.counts(k + 1)) if b != a]
        return n * (min(grown) - 1) + 1

    def rate_expr(self) -> str:
        """``rate`` as an expression in k, for the CLI's ``--rate``."""
        n = evaluate(self.index, self.start) - 1
        offsets = [_offset(c) for c in self.columns if "k" in c]
        return f"{n}*k+{n * min(offsets) + 1}"


_LINEAR = re.compile(r"(?:(\d+)\*)?k(?:\+(\d+))?\Z")


def _linear(expr: str) -> tuple[int, int]:
    """(a, b) for an expression ``a*k+b``, ``k+b``, ``k`` or ``b``."""
    if "k" not in expr:
        return 0, int(expr)
    m = _LINEAR.match(expr)
    if m is None:
        raise ValueError(f"not a linear expression in k: {expr!r}")
    return int(m.group(1) or 1), int(m.group(2) or 0)


def _offset(expr: str) -> int:
    return _linear(expr)[1]


def evaluate(expr: str, k: int) -> int:
    """Value of a linear column, index or width expression at k."""
    a, b = _linear(expr)
    return a * k + b


@dataclass(frozen=True)
class Command:
    """One ``skein`` invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    family: Family | None = None
    suite: str | None = None
    checks: tuple[str, ...] = ()
    oracle: tuple[int, ...] = ()


def _table(f: Family) -> Command:
    argv = ("table", "--pretzel-family", f.text, "--color", f.index,
            "--range", f"{f.start}..{f.stop}", "--window", f.width,
            "--format", "json")
    return Command(argv, family=f)


def _tail(f: Family) -> Command:
    argv = ("tail", "--pretzel-family", f.text, "--color", f.index,
            "--range", f"{f.start}..{f.stop}", "--rate", f.rate_expr(),
            "--format", "json")
    oracle = tuple(f.parameters())[:ORACLE_MEMBERS] if f.drawn else ()
    return Command(argv, family=f, oracle=oracle)


# Check names of each bundled suite, in the order the CLI reports them.
# The suites run in this order.
SUITE_CHECKS = {
    "tl-identities": (
        "projector idempotency",
        "hook annihilation",
        "projector absorption",
        "projector closure is the loop value",
        "cabled curl coefficient",
        "theta networks match the closed form",
        "fusion completeness",
        "cabled crossing expansion",
    ),
    "oracle-equivalence": (
        "fused channels match the clasped state sum",
        "fused channels match the classical sweep",
    ),
    "min-degrees": (
        "classical minimum degree is sharp on minus-adequate diagrams",
        "colored minimum degree is sharp on alternating pretzels",
        "channel probe reaches the predicted degree",
    ),
}


def draw_families(seed: int) -> list[Family]:
    """The seeded pretzel families of the fixed-color workload."""
    rng = random.Random(seed)
    families = []
    for fixed, total, index, stop in DRAWN_SLOTS:
        cuts = sorted(rng.sample(range(1, total), fixed - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        sizes.insert(rng.randrange(fixed + 1), "k")
        families.append(Family(tuple(str(s) for s in sizes), str(index),
                               1, stop, drawn=True))
    return families


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of ``workload``."""
    if workload == "color-locked":
        return [_table(Family(("2", "5", "k"), "k+1", 1, 6, T4, "k+1"))]
    if workload == "fixed-color":
        published = [
            Family(("8", "6", "k"), "2", 1, 30, T1, "k+1"),
            Family(("k+2", "k+4", "k+1"), "4", 1, 24, T3, "3*k+1"),
        ]
        return [_tail(f) for f in published + draw_families(seed)]
    if workload == "oracle-suites":
        return [
            Command(("verify", "--suite", s), suite=s, checks=names)
            for s, names in SUITE_CHECKS.items()
        ]
    raise KeyError(workload)


WORKLOADS = ("color-locked", "fixed-color", "oracle-suites")
