"""The benchmark's workloads: which CLI calls an item makes, how a seed picks
items, and the finite universe of items every seed draws from.

Each workload is a closed loop run by one single-threaded process: the next
item starts when the previous one returns.  A run is a whole number of
*rounds*.  A round visits a fixed list of slots; the seed picks the slot the
round starts at and, for each slot, one member of a group of spin
quadruples of (nearly) equal dimension, dealing distinct members to slots
that share a group.  Symmetric quadruples, (A,B,C,D),
(C,D,A,B), (B,A,D,C) and (D,C,B,A), have the same dimension and mirrored
sparsity, so every seed does about the same amount of work and the figures
of different seeds can be compared.  The universe is finite so that
``reference.json`` can hold the seed commit's output digests for every item
any seed can draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

SOURCES = ("closed-form", "recursion", "clebsch-gordan")
BLOCKS = ("both", "keep12", "keep21")

# One CLI call: its argv and the output file whose bytes are checked.
Step = tuple[tuple[str, ...], str]


@dataclass(frozen=True)
class Item:
    steps: tuple[Step, ...]

    @property
    def key(self) -> str:
        """Reference key: the argv of every step, one per line."""
        return "\n".join(" ".join(argv) for argv, _ in self.steps)


def dimension(quad: tuple[int, int, int, int]) -> int:
    a, b, c, d = quad
    return (a + 1) * (b + 1) + (c + 1) * (d + 1)


def admissible(quad: tuple[int, int, int, int]) -> bool:
    """Doubled spins with A = C +- 1/2 and B = D +- 1/2."""
    a, b, c, d = quad
    return abs(a - c) == 1 and abs(b - d) == 1


def orbit(quad: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], ...]:
    a, b, c, d = quad
    return tuple(sorted({(a, b, c, d), (c, d, a, b), (b, a, d, c), (d, c, b, a)}))


def spins_arg(quad: tuple[int, int, int, int]) -> str:
    return ",".join(str(t) for t in quad)


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


def sweep_item(bound: int) -> Item:
    return Item(((("verify", "--sweep", str(bound), "--out", "sweep.json"), "sweep.json"),))


def round_trip_item(quad, source: str, block: str, params: tuple[str, str] | None = None) -> Item:
    """gen then verify --in; params are (t12, t21) literals, unit if None."""
    gen = ["gen", "--spins", spins_arg(quad), "--source", source, "--block", block]
    if params is not None:
        gen += [f"--t12={params[0]}", f"--t21={params[1]}"]
    return Item((
        (tuple(gen + ["--out", "bundle.json"]), "bundle.json"),
        (("verify", "--in", "bundle.json", "--out", "report.json"), "report.json"),
    ))


@dataclass(frozen=True)
class Dressing:
    """Exact parameters of a dressed item; t's are multi-term, lambdas single-term."""

    t12: str
    t21: str
    lambda12: str
    lambda21: str


def dressed_item(quad, source: str, block: str, p: Dressing) -> Item:
    """Round trip at (t12, t21), one equiv, and the Clebsch-Gordan route."""
    spins = spins_arg(quad)
    ts = (f"--t12={p.t12}", f"--t21={p.t21}")
    equiv = ("equiv", "--spins", spins, *ts,
             f"--lambda12={p.lambda12}", f"--lambda21={p.lambda21}", "--out", "equiv.json")
    cg = ("gen", "--spins", spins, "--source", "clebsch-gordan", "--block", block, *ts,
          "--out", "cg.json")
    return Item(round_trip_item(quad, source, block, (p.t12, p.t21)).steps
                + ((equiv, "equiv.json"), (cg, "cg.json")))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name: str
    # Mean wall time of one round at the seed commit on a 2-core x86-64 box
    # (Python 3.11).  It turns --seconds into a fixed amount of work, so a
    # faster program finishes the same work sooner instead of doing more.
    nominal_round_s: float
    warmup: Item

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def plan(self, seed: int, rounds: int) -> list[Item]:
        raise NotImplementedError

    def universe(self) -> list[Item]:
        raise NotImplementedError


class Sweep(Workload):
    """``verify --sweep 3``: 256 quadruples, 36 admissible, 6588 verdicts.

    Many small representations in which the same irreps recur, and momentum
    re-checks that repeat work: where sweep deduplication shows.  The item
    is fixed by its bound, so the seed changes nothing here.
    """

    name = "sweep"
    nominal_round_s = 7.5
    warmup = sweep_item(1)

    def plan(self, seed: int, rounds: int) -> list[Item]:
        return [sweep_item(3)] * rounds

    def universe(self) -> list[Item]:
        return [sweep_item(3)]


@dataclass(frozen=True)
class Slot:
    source: str
    block: str
    members: tuple[tuple[int, int, int, int], ...]
    dressing: Dressing | None = None

    def item(self, quad) -> Item:
        if self.dressing is None:
            return round_trip_item(quad, self.source, self.block)
        return dressed_item(quad, self.source, self.block, self.dressing)


@dataclass(frozen=True)
class Slotted(Workload):
    """A fixed list of slots; each round visits every slot once."""

    name: str
    nominal_round_s: float
    warmup: Item
    slots: tuple[Slot, ...]

    def plan(self, seed: int, rounds: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        n = len(self.slots)
        items = []
        for r in range(rounds):
            # Slots that share a group deal its members from a shuffled deck,
            # so a round covers each group as evenly as it can.
            decks: dict = {}
            for k in range(n):
                slot = self.slots[(seed + r + k) % n]
                deck = decks.get(slot.members)
                if not deck:
                    deck = decks[slot.members] = rng.sample(slot.members, len(slot.members))
                items.append(slot.item(deck.pop()))
        return items

    def universe(self) -> list[Item]:
        return [slot.item(q) for slot in self.slots for q in slot.members]


# The 24 admissible quadruples of dimension >= 110 with doubled spins <= 8,
# in six groups of four of nearly equal dimension (110, 111, 112-113, 127,
# 128, 144-145); each group is a union of orbits.
_LARGE = sorted(
    (q for q in itertools.product(range(9), repeat=4) if admissible(q) and dimension(q) >= 110),
    key=lambda q: (dimension(q), q),
)
_LARGE_GROUPS = [tuple(_LARGE[i : i + 4]) for i in range(0, len(_LARGE), 4)]

# Seeded gen + verify --in at unit parameters on dimension 110-145: a few big
# sparse matrices and bundles of 0.2-0.7 MB.  Nothing repeats across items,
# so a per-irrep cache should change nothing here, while the matrix kernel
# and the bundle layer should.  A round covers all nine source x block
# pairs; the group each pair gets is fixed so every seed has the same mix of
# sizes.
LARGE = Slotted(
    name="large",
    nominal_round_s=16.0,
    warmup=round_trip_item((4, 4, 3, 3), "clebsch-gordan", "both"),
    slots=tuple(
        Slot(source, block, _LARGE_GROUPS[group])
        for source, block, group in (
            ("closed-form", "both", 5),
            ("closed-form", "keep12", 0),
            ("closed-form", "keep21", 3),
            ("recursion", "both", 1),
            ("recursion", "keep12", 4),
            ("recursion", "keep21", 2),
            ("clebsch-gordan", "both", 2),
            ("clebsch-gordan", "keep12", 5),
            ("clebsch-gordan", "keep21", 1),
        )
    ),
)

# Multi-term t's make every V entry carry two radicands and grow its
# denominators; the t21 literals start with a minus sign on purpose.
DRESSINGS = (
    Dressing("3/4*sqrt(6)+2/5*i*sqrt(10)", "-5/7*sqrt(3)+1/3*i*sqrt(14)", "2/3*sqrt(5)", "-i"),
    Dressing("1/2+5/3*i*sqrt(2)", "-2/9*sqrt(5)+7/4*sqrt(7)", "3/2", "1/5*i*sqrt(7)"),
    Dressing("-7/5*sqrt(2)+1/6*i*sqrt(15)", "-4/3*sqrt(11)-3/8*i", "-1/2*i*sqrt(3)", "5/4"),
    Dressing("5/2*sqrt(3)-2/7*i*sqrt(21)", "-1/4*i*sqrt(6)+9/5*sqrt(13)", "-2", "2/7*sqrt(6)"),
)

# Round trip, equiv and the CG route at multi-term t's on dimension 18-60.
# Every V entry carries two or more radicands, so radical arithmetic
# dominates: a kernel that wins on single-term entries can lose here.  A
# round pairs each of eight orbits with each dressing once, since the
# dressing alone moves an item's time by up to 60 %; sources alternate
# closed-form/recursion and blocks cycle across the orbits.
DRESSED = Slotted(
    name="dressed",
    nominal_round_s=26.0,
    warmup=dressed_item((1, 2, 2, 1), "closed-form", "both", DRESSINGS[0]),
    slots=tuple(
        Slot(("closed-form", "recursion")[k % 2], BLOCKS[k % 3], orbit(q), dressing)
        for k, q in enumerate(
            [(1, 2, 2, 3), (1, 3, 2, 4), (2, 4, 3, 3), (2, 5, 3, 4),
             (2, 6, 3, 5), (3, 4, 4, 5), (3, 6, 4, 5), (4, 5, 5, 4)]
        )
        for dressing in DRESSINGS
    ),
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (Sweep(), LARGE, DRESSED)}
