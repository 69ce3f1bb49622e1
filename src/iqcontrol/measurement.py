"""Projective measurements: Born probabilities, seeded sampling, collapse.

A measurement is defined by a partition of the basis labels 1..N into
blocks; each block is one outcome (the projector onto its span).  All
shots under one seed share one counter-based stream: numpy's ``Philox``
keyed by the seed (through ``SeedSequence``, so any nonnegative integer
seed works), whose k-th ``random()`` output is the uniform of shot k
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
Philox yields four 64-bit outputs per counter value, so the stream is
entered at shot k by advancing the counter by k // 4 and skipping k % 4
lanes.  One sampler serves every single-shot draw: it enters the stream
once and reads shots from k on until one lands on a stop block or a
count runs out, guarding only those shots, and collapses the last one;
``sample_collapse`` is that sampler with a count of 1.  A histogram
draws its uniforms in bulk.  Runs are reproducible, shots are
order-independent, and a histogram agrees with single-shot replay shot
by shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .amplification import GoodSubspace
from .core import StateVector, _integer
from .errors import DimensionMismatchError, MeasurementGuardError

IMPOSSIBLE_BLOCK_TOL = 1e-15
_MAX_CHUNK = 1 << 16  # uniforms drawn at once: bounds memory for any shot count

__all__ = [
    "MeasurementPartition",
    "MeasurementOutcome",
    "born_probabilities",
    "sample_collapse",
    "measurement_histogram",
]


@dataclass(frozen=True)
class MeasurementPartition:
    """Disjoint nonempty blocks of basis labels covering 1..N exactly;
    every label is an integer (no bool), or a TypeError names it."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(
            tuple(sorted(_integer(i, "partition label") for i in b)) for b in self.blocks
        )
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError(
                f"blocks must partition 1..N exactly, got labels {sorted(set(flat))}"
            )
        # 0-based block position of each label, in label order
        block_of_label = np.empty(n, dtype=np.intp)
        block_of_label[np.asarray(flat) - 1] = np.repeat(
            np.arange(len(blocks)), [len(b) for b in blocks]
        )
        block_of_label.setflags(write=False)
        object.__setattr__(self, "_block_of_label", block_of_label)

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def binary(cls, good: GoodSubspace) -> "MeasurementPartition":
        """Two blocks: the good indices and their complement."""
        rest = tuple(sorted(set(range(1, good.dim + 1)) - good.indices))
        return cls((tuple(sorted(good.indices)), rest))

    @classmethod
    def per_index(cls, dim: int) -> "MeasurementPartition":
        return cls(tuple((i,) for i in range(1, dim + 1)))


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One sampled outcome: which block fired and the collapsed state.

    ``block_index`` is the 0-based position in ``partition.blocks``;
    ``block`` is the 1-based label set itself.
    """

    block_index: int
    block: tuple[int, ...]
    probability: float
    collapsed: StateVector

    def to_dict(self) -> dict:
        """The outcome as JSON: amplitudes are [re, im] pairs."""
        return {
            "block_index": self.block_index,
            "block": list(self.block),
            "probability": self.probability,
            "collapsed": self.collapsed.amplitudes.view(float).reshape(-1, 2).tolist(),
        }


def born_probabilities(state: StateVector, partition: MeasurementPartition) -> np.ndarray:
    """Per-block probabilities: sum of |c_i|^2 over each block."""
    if partition.dim != state.dim:
        raise DimensionMismatchError(
            f"partition covers {partition.dim} labels, state has {state.dim}"
        )
    return np.bincount(
        partition._block_of_label,
        weights=state.populations(),
        minlength=len(partition.blocks),
    )


def _shot_uniforms(seed: int, first: int, count: int, size: int = 64):
    """Yield the uniforms of shots ``first .. first + count - 1`` in chunks.

    Shot k's uniform is output k of the seed's Philox stream: the counter
    starts ``first // 4`` values in and ``first % 4`` lanes are skipped.
    Chunks double from ``size`` up to ``_MAX_CHUNK``, so a caller that
    stops early draws little and a large count never holds every draw at
    once.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if first < 0:
        raise ValueError(f"shot index must be >= 0, got {first}")
    bitgen = np.random.Philox(int(seed))
    bitgen.advance(first // 4)
    gen = np.random.Generator(bitgen)
    gen.random(first % 4)
    while count > 0:
        n = min(count, size)
        yield gen.random(n)
        count -= n
        size = min(2 * size, _MAX_CHUNK)


def _select_block(probs: np.ndarray, u: np.ndarray, stop: Optional[int] = None) -> np.ndarray:
    """Index of the block whose cumulative interval contains each u.

    With ``stop`` the draws end at the first one on block ``stop``, and
    only those are returned.  Zero-width intervals are unselectable; if
    float edge effects land a returned draw on one anyway, that is the
    numerically impossible branch and it raises, naming the first such
    draw.  Draws past the stop are never checked.
    """
    idx = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), probs.size - 1)
    if stop is not None:
        hits = np.flatnonzero(idx == stop)
        if hits.size:
            idx = idx[: hits[0] + 1]
    impossible = probs[idx] < IMPOSSIBLE_BLOCK_TOL
    if np.any(impossible):
        bad = int(np.ravel(idx)[np.argmax(impossible)])
        raise MeasurementGuardError(
            f"sampled block {bad} has probability {probs[bad]:.3e} < {IMPOSSIBLE_BLOCK_TOL:g}"
        )
    return idx


def _sample(
    state: StateVector,
    partition: MeasurementPartition,
    seed: int,
    first: int,
    count: int,
    stop: int,
) -> tuple[MeasurementOutcome, int]:
    """Draw shots ``first``, ``first + 1``, ... until one lands on block
    ``stop`` or ``count`` are drawn, and collapse the state on the last.

    Returns that shot's outcome and the number of shots drawn.  Every
    drawn shot passes the impossible-branch guard, as in a loop of
    single shots that stops at the hit; later draws are never checked.
    The caller has read ``seed`` and ``first`` as integers; ``count >= 1``.
    """
    probs = born_probabilities(state, partition)
    drawn = 0
    for u in _shot_uniforms(seed, first, count):
        idx = _select_block(probs, u, stop)
        drawn += idx.size
        if idx[-1] == stop:
            break
    block = int(idx[-1])
    p = float(probs[block])
    collapsed = np.where(partition._block_of_label == block, state.amplitudes, 0.0) / np.sqrt(p)
    outcome = MeasurementOutcome(
        block_index=block,
        block=partition.blocks[block],
        probability=p,
        collapsed=StateVector(collapsed),
    )
    return outcome, drawn


def sample_collapse(
    state: StateVector,
    partition: MeasurementPartition,
    seed: int,
    shot: int = 0,
) -> MeasurementOutcome:
    """Draw one outcome by the Born rule and collapse onto its block.

    Deterministic in (state, partition, seed, shot): the uniform is
    output ``shot`` of the seed's Philox stream.  ``seed`` and ``shot``
    must be nonnegative integers (not bools), or a TypeError or a
    ValueError names the argument.
    """
    seed, shot = _integer(seed, "seed"), _integer(shot, "shot")
    return _sample(state, partition, seed, shot, 1, 0)[0]


def measurement_histogram(
    state: StateVector,
    partition: MeasurementPartition,
    seed: int,
    shots: int,
) -> list[int]:
    """Outcome counts per block over ``shots`` independent draws.

    Shot k draws exactly what ``sample_collapse(..., shot=k)`` would, so
    histograms and single-shot runs agree outcome by outcome.  All shots
    are drawn, so every chunk holds ``_MAX_CHUNK`` draws but the last.
    ``seed`` and ``shots`` must be integers (not bools), ``seed``
    nonnegative and ``shots`` positive, or a TypeError or a ValueError
    names the argument.
    """
    seed, shots = _integer(seed, "seed"), _integer(shots, "shots")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = born_probabilities(state, partition)
    counts = np.zeros(probs.size, dtype=np.int64)
    for u in _shot_uniforms(seed, 0, shots, _MAX_CHUNK):
        counts += np.bincount(_select_block(probs, u), minlength=probs.size)
    return counts.tolist()
