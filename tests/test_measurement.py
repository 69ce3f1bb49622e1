import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from iqcontrol import measurement
from iqcontrol import (
    GoodSubspace,
    MeasurementGuardError,
    MeasurementPartition,
    StateVector,
    born_probabilities,
    measurement_histogram,
    sample_collapse,
)
from iqcontrol.measurement import _sample, _select_block
from conftest import random_state
from oracles import per_shot_histogram


def random_partition(rng, dim) -> MeasurementPartition:
    labels = list(rng.permutation(np.arange(1, dim + 1)))
    cuts = sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim - 1)), replace=False))
    blocks, start = [], 0
    for cut in list(cuts) + [dim]:
        blocks.append(tuple(int(x) for x in labels[start:cut]))
        start = cut
    return MeasurementPartition(tuple(b for b in blocks if b))


class TestPartition:
    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            MeasurementPartition(((1, 2), (4,)))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            MeasurementPartition(((1, 2), (2, 3)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            MeasurementPartition(((1, 2), ()))

    @pytest.mark.parametrize("label", [1.5, True])
    def test_rejects_non_integer_labels(self, label):
        # int() truncated 1.5 to label 1 and took True as 1
        with pytest.raises(TypeError, match=f"^partition label: must be an integer, got {label!r}"):
            MeasurementPartition(((label,), (2,)))

    def test_numpy_integer_labels_accepted(self):
        p = MeasurementPartition(((np.int64(2),), (np.uint8(1), 3)))
        assert p.blocks == ((2,), (1, 3))
        assert all(type(i) is int for b in p.blocks for i in b)

    def test_binary_helper(self):
        p = MeasurementPartition.binary(GoodSubspace.of([1, 3], 5))
        assert p.blocks == ((1, 3), (2, 4, 5))

    def test_per_index_helper(self):
        assert MeasurementPartition.per_index(3).blocks == ((1,), (2,), (3,))

    def test_per_index_equals_the_checked_constructor(self):
        # per_index builds its blocks and label map from the range alone
        for dim in range(1, 301):
            built = MeasurementPartition.per_index(dim)
            checked = MeasurementPartition(tuple((i,) for i in range(1, dim + 1)))
            assert built.blocks == checked.blocks
            assert all(type(i) is int for (i,) in built.blocks)
            built_map, checked_map = built._block_of_label, checked._block_of_label
            assert np.array_equal(built_map, checked_map) and built_map.dtype == checked_map.dtype
            assert not built_map.flags.writeable and not checked_map.flags.writeable

    @pytest.mark.parametrize(
        "dim, error, message",
        [
            (0, ValueError, "partition blocks must be nonempty"),
            (-1, ValueError, "partition blocks must be nonempty"),
            (2.0, TypeError, "dim: must be an integer, got 2.0"),
            (True, TypeError, "dim: must be an integer, got True"),
        ],
    )
    def test_per_index_rejects_what_the_checked_constructor_rejects(self, dim, error, message):
        with pytest.raises(error) as info:
            MeasurementPartition.per_index(dim)
        assert type(info.value) is error and str(info.value) == message


class TestBornProbabilities:
    def test_case1_partition(self):
        state = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
        p = MeasurementPartition(((5,), (1, 2, 3, 4)))
        probs = born_probabilities(state, p)
        assert np.allclose(probs, [0.01, 0.99], atol=1e-12)

    def test_basis_state_deterministic(self):
        probs = born_probabilities(StateVector.basis_state(2, 3), MeasurementPartition.per_index(3))
        assert np.allclose(probs, [0.0, 1.0, 0.0])

    def test_case2_partition(self):
        state = StateVector([0.1, 0.06, 0.08, 0.7, 0.7])
        probs = born_probabilities(state, MeasurementPartition(((1, 2, 3), (4, 5))))
        assert np.allclose(probs, [0.02, 0.98], atol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            probs = born_probabilities(random_state(rng, dim), random_partition(rng, dim))
            assert abs(probs.sum() - 1.0) < 1e-10


class TestSampleCollapse:
    def test_certain_block(self, rng):
        state = StateVector([0.6, 0.8, 0.0, 0.0])
        p = MeasurementPartition(((1, 2), (3, 4)))
        out = sample_collapse(state, p, seed=int(rng.integers(2**31)))
        assert out.block_index == 0
        assert out.probability == pytest.approx(1.0)
        assert np.max(np.abs(out.collapsed.amplitudes - state.amplitudes)) < 1e-12

    def test_deterministic_for_fixed_seed(self, rng):
        state = random_state(rng, 5)
        p = random_partition(rng, 5)
        a = sample_collapse(state, p, seed=123)
        b = sample_collapse(state, p, seed=123)
        assert a.block_index == b.block_index
        assert np.array_equal(a.collapsed.amplitudes, b.collapsed.amplitudes)

    def test_collapse_support_and_norm(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            state = random_state(rng, dim)
            p = random_partition(rng, dim)
            out = sample_collapse(state, p, seed=int(rng.integers(2**31)))
            inside = np.zeros(dim, dtype=bool)
            for i in out.block:
                inside[i - 1] = True
            assert np.all(out.collapsed.amplitudes[~inside] == 0)
            assert abs(np.linalg.norm(out.collapsed.amplitudes) - 1.0) < 1e-12

    def test_collapse_rescales_by_sqrt_probability(self):
        state = StateVector([0.6, 0.0, 0.8])
        p = MeasurementPartition(((1,), (2, 3)))
        out = sample_collapse(state, p, seed=4)
        if out.block_index == 0:
            assert np.allclose(out.collapsed.amplitudes, [1.0, 0.0, 0.0])
        else:
            assert np.allclose(out.collapsed.amplitudes, [0.0, 0.0, 1.0])

    def test_impossible_branch_guard(self):
        with pytest.raises(MeasurementGuardError):
            _select_block(np.array([1.0, 1e-20]), 1.0 - 1e-18)

    def test_impossible_branch_guard_on_any_draw(self):
        with pytest.raises(MeasurementGuardError, match="sampled block 1 has probability 1.000e-20"):
            _select_block(np.array([1.0, 1e-20]), np.array([0.2, 0.7, 1.0, 0.5]))

    def test_shot_index_changes_draw(self):
        state = StateVector(np.ones(4) / 2.0)
        p = MeasurementPartition.per_index(4)
        outcomes = {sample_collapse(state, p, seed=9, shot=k).block_index for k in range(30)}
        assert len(outcomes) > 1


class TestHistogram:
    def test_matches_per_shot_sampling(self, rng):
        state = random_state(rng, 4)
        p = random_partition(rng, 4)
        counts = measurement_histogram(state, p, seed=77, shots=200)
        replayed = [0] * len(p.blocks)
        for k in range(200):
            replayed[sample_collapse(state, p, seed=77, shot=k).block_index] += 1
        assert counts == replayed

    def test_total_count(self, rng):
        state = random_state(rng, 5)
        counts = measurement_histogram(state, MeasurementPartition.per_index(5), seed=3, shots=500)
        assert sum(counts) == 500

    def test_frequencies_converge_within_binomial_bound(self):
        # 4 sigma per-block bound at 1e5 shots
        state = StateVector(np.sqrt([0.3, 0.5, 0.2]))
        p = MeasurementPartition.per_index(3)
        n = 10**5
        counts = measurement_histogram(state, p, seed=2024, shots=n)
        probs = born_probabilities(state, p)
        for count, prob in zip(counts, probs):
            bound = 4.0 * np.sqrt(prob * (1.0 - prob) / n)
            assert abs(count / n - prob) <= bound

    def test_amplified_target_frequency(self):
        # the amplified 1%-weight state measured against {5} vs rest:
        # the empirical target frequency sits within 3 sigma of the
        # amplified probability
        from iqcontrol import GoodSubspace, amplified_state, make_plan

        plan = make_plan(
            StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        )
        amplified = amplified_state(plan)
        partition = MeasurementPartition(((5,), (1, 2, 3, 4)))
        n = 10**5
        counts = measurement_histogram(amplified, partition, seed=99, shots=n)
        p = plan.predicted_success
        assert abs(counts[0] / n - p) <= 3.0 * np.sqrt(p * (1.0 - p) / n)

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            measurement_histogram(random_state(rng, 3), MeasurementPartition.per_index(3), 1, 0)


class TestIntegerArguments:
    # unchecked, a float seed was truncated (seed 1.5 gave the counts of seed
    # 1), a bool seed was accepted, and a float shot or shot count ended in
    # a numpy TypeError that named no argument
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": np.True_}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"shots": 2.5}, "shots"),
            ({"shots": True}, "shots"),
            ({"shots": np.float64(100.0)}, "shots"),
        ],
    )
    def test_histogram_rejects_non_integers(self, rng, kwargs, name):
        args = {"seed": 1, "shots": 100, **kwargs}
        with pytest.raises(TypeError, match=f"^{name}: must be an integer"):
            measurement_histogram(random_state(rng, 3), MeasurementPartition.per_index(3), **args)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"seed": 2.0}, "seed"), ({"seed": False}, "seed"), ({"shot": 1.5}, "shot"),
         ({"shot": True}, "shot")],
    )
    def test_sample_collapse_rejects_non_integers(self, rng, kwargs, name):
        args = {"seed": 1, "shot": 0, **kwargs}
        with pytest.raises(TypeError, match=f"^{name}: must be an integer"):
            sample_collapse(random_state(rng, 3), MeasurementPartition.per_index(3), **args)

    def test_numpy_integers_accepted(self, rng):
        state, p = random_state(rng, 4), MeasurementPartition.per_index(4)
        assert measurement_histogram(state, p, np.int64(7), np.uint16(300)) == (
            measurement_histogram(state, p, 7, 300)
        )
        single = sample_collapse(state, p, seed=np.int32(7), shot=np.int64(12))
        assert single.block_index == sample_collapse(state, p, seed=7, shot=12).block_index

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"seed": -1}, "seed: must be >= 0, got -1"),
         ({"shots": 0}, "shots: must lie in [1, 9223372036854775807], got 0")],
    )
    def test_histogram_rejects_out_of_range(self, rng, kwargs, message):
        args = {"seed": 1, "shots": 100, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            measurement_histogram(random_state(rng, 3), MeasurementPartition.per_index(3), **args)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"seed": -1}, "seed: must be >= 0, got -1"), ({"shot": -1}, "shot: must be >= 0, got -1")],
    )
    def test_sample_collapse_rejects_out_of_range(self, rng, kwargs, message):
        args = {"seed": 1, "shot": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_collapse(random_state(rng, 3), MeasurementPartition.per_index(3), **args)


def philox_blocks(state, partition, seed, shots) -> np.ndarray:
    """Reference outcome of shots 0..shots-1: output k of Philox(seed),
    placed in the cumulative Born intervals, is the outcome of shot k."""
    u = np.random.Generator(np.random.Philox(seed)).random(shots)
    cum = np.cumsum(born_probabilities(state, partition))
    return np.minimum(np.searchsorted(cum, u, side="right"), len(partition.blocks) - 1)


def shot_outcome_from_histograms(state, partition, seed, shot) -> np.ndarray:
    """One-hot outcome of ``shot``, read off two prefix histograms."""
    before = measurement_histogram(state, partition, seed, shot) if shot else [0] * len(partition.blocks)
    return np.array(measurement_histogram(state, partition, seed, shot + 1)) - before


class TestReplay:
    def test_every_lane_and_prefix(self, rng):
        # shots 0..11 visit each Philox lane k % 4 three times, and the
        # prefix histograms take every length 1..12
        state = random_state(rng, 6)
        p = MeasurementPartition.per_index(6)
        expected = philox_blocks(state, p, 31, 12)
        for k in range(12):
            assert sample_collapse(state, p, seed=31, shot=k).block_index == expected[k]
            one_hot = shot_outcome_from_histograms(state, p, 31, k)
            assert np.array_equal(one_hot, np.eye(6, dtype=int)[expected[k]])

    @pytest.mark.parametrize("seed", [5, 2**200 + 17])
    def test_replay_deep_in_the_stream(self, rng, seed):
        # seeds beyond 128 bits go through SeedSequence like small ones
        state = random_state(rng, 5)
        p = MeasurementPartition.per_index(5)
        expected = philox_blocks(state, p, seed, 12353)
        for k in range(12345, 12353):
            block = sample_collapse(state, p, seed=seed, shot=k).block_index
            assert block == expected[k]
            one_hot = shot_outcome_from_histograms(state, p, seed, k)
            assert np.array_equal(one_hot, np.eye(5, dtype=int)[block])

    @pytest.mark.parametrize(
        "shots", [1, 3, 63, 64, 65, 191, 193, 1001, 2**16, 2**16 + 1, 2**17 + 5]
    )
    def test_histogram_equals_bulk_stream(self, rng, shots):
        # a histogram's chunk edges sit at every 2**16 draws; the doubling
        # chunks from 64 (edges 64, 192, 448, ...) are the repeat loop's,
        # checked against single shots below
        state = random_state(rng, 7)
        p = random_partition(rng, 7)
        expected = np.bincount(philox_blocks(state, p, 8, shots), minlength=len(p.blocks))
        assert measurement_histogram(state, p, seed=8, shots=shots) == expected.tolist()

    def test_first_shot_on_guards_only_drawn_shots(self, monkeypatch):
        # the impossible branch raises only when it comes before the hit,
        # as in a loop of single shots that stops at the hit
        state = StateVector([1.0, 1e-10])  # probabilities [1, 1e-20]
        p = MeasurementPartition.per_index(2)

        def uniforms(*draws):
            monkeypatch.setattr(
                measurement, "_shot_uniforms", lambda seed, first, count: iter([np.array(draws)])
            )

        uniforms(0.5, 1.0)
        outcome, drawn = _sample(state, p, 0, 3, 2, 0)
        assert (outcome.block_index, drawn) == (0, 1)
        uniforms(1.0, 0.5)
        with pytest.raises(MeasurementGuardError, match="sampled block 1"):
            _sample(state, p, 0, 3, 2, 0)

    def test_first_shot_on_matches_single_shots(self):
        # block 0 has probability 0.01: the first hit is usually past the
        # first chunk of 64 draws; the repeat collapses on the shot it stops at
        state = StateVector([0.1, np.sqrt(0.99)])
        p = MeasurementPartition.per_index(2)
        for seed in range(20):
            for first, count in ((0, 500), (7, 150), (70, 1)):
                shots = range(first, first + count)
                hits = [k for k in shots if sample_collapse(state, p, seed, shot=k).block_index == 0]
                expected = hits[0] if hits else first + count - 1
                outcome, drawn = _sample(state, p, seed, first, count, 0)
                assert drawn == expected - first + 1
                assert outcome.to_dict() == sample_collapse(state, p, seed, shot=expected).to_dict()

    @pytest.mark.parametrize("stop", [0, 1, 3])
    def test_one_shot_sample_is_sample_collapse(self, rng, stop):
        # a count of 1 draws shot ``first`` whatever the stop block
        state, p = random_state(rng, 6), random_partition(rng, 6)
        for shot in (0, 1, 5, 4099):
            outcome, drawn = _sample(state, p, 13, shot, 1, stop)
            single = sample_collapse(state, p, seed=13, shot=shot)
            assert drawn == 1
            assert (outcome.block_index, outcome.block) == (single.block_index, single.block)
            assert outcome.probability == single.probability
            assert np.array_equal(outcome.collapsed.amplitudes, single.collapsed.amplitudes)


def partition_with_blocks(rng, dim, blocks) -> MeasurementPartition:
    """A random partition of 1..dim into exactly ``blocks`` blocks."""
    labels = rng.permutation(np.arange(1, dim + 1)).tolist()
    cuts = sorted(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False).tolist())
    bounds = [0, *cuts, dim]
    return MeasurementPartition(tuple(tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:])))


def state_off_blocks(rng, partition, empty, norm=1.0) -> StateVector:
    """A random state of the given norm with no weight on the blocks ``empty``."""
    z = rng.normal(size=partition.dim) + 1j * rng.normal(size=partition.dim)
    z[np.isin(partition._block_of_label, list(empty))] = 0.0
    return StateVector(norm * z / np.linalg.norm(z))


# norm 1 - 9e-11 lies inside NORM_TOL: the probabilities sum to about
# 1 - 1.8e-10, so a draw at or above that sum lands on the last block only
# through the clamp
SHORT_NORM = 1.0 - 9e-11


class TestSortedCounts:
    # measurement_histogram counts each chunk from its sorted draws; the
    # per-shot oracle places every draw with _select_block
    @pytest.mark.parametrize("shots", [1, 2, 65535, 65536, 65537, 140000])
    def test_counts_equal_the_per_shot_oracle(self, rng, shots):
        for blocks in (2, 256, *rng.integers(3, 256, size=4).tolist()):
            dim = blocks + int(rng.integers(0, 9))
            partition = partition_with_blocks(rng, dim, blocks)
            empty = set(rng.choice(blocks - 1, size=int(rng.integers(0, blocks - 1)), replace=False).tolist())
            for lost in (empty, empty | {blocks - 1}):
                # a zero-probability last block is reached by the clamp alone
                state = state_off_blocks(rng, partition, lost, SHORT_NORM)
                seed = int(rng.integers(2**63))
                counts = measurement_histogram(state, partition, seed, shots)
                assert counts == per_shot_histogram(state, partition, seed, shots)
                reference = np.bincount(philox_blocks(state, partition, seed, shots), minlength=blocks)
                assert counts == reference.tolist()
                assert all(counts[k] == 0 for k in lost)

    def test_clamp_counts_on_the_last_block(self, monkeypatch):
        state = StateVector(SHORT_NORM * np.array([0.6, 0.8]))
        partition = MeasurementPartition.per_index(2)
        edge, total = born_probabilities(state, partition).cumsum()
        assert total < 1.0 - 1e-10
        # a draw on an edge belongs to the block above it
        draws = np.array([0.1, 1.0 - 1e-11, 0.5, total, edge, 0.9, 0.0])
        monkeypatch.setattr(measurement, "_shot_uniforms", lambda *args: iter([draws.copy()]))
        counts = measurement_histogram(state, partition, 0, draws.size)
        assert counts == per_shot_histogram(state, partition, 0, draws.size) == [2, 5]

    @pytest.mark.parametrize(
        "chunks",
        [
            # the draw 0.0 lands on block 0 (probability 1e-20); a draw at or
            # above the probabilities' sum lands on block 3 (probability 0)
            [[0.3, 0.0, 0.7, 1.0 - 1e-11, 0.5]],
            [[0.3, 1.0 - 1e-11, 0.7, 0.0, 0.5]],
            [[0.3, 0.7], [0.5, 1.0 - 1e-11, 0.0, 0.2]],
            [[0.3, 0.7], [0.5, 0.0, 1.0 - 1e-11, 0.2]],
            [[0.3, 0.0, 0.7], [1.0 - 1e-11, 0.2]],
        ],
    )
    def test_guard_names_the_first_draw_on_a_zero_width_block(self, monkeypatch, chunks):
        state = StateVector(SHORT_NORM * np.array([1e-10, 0.6, 0.8, 0.0]))
        partition = MeasurementPartition.per_index(4)
        probs = born_probabilities(state, partition)
        with pytest.raises(MeasurementGuardError) as expected:
            _select_block(probs, np.concatenate([np.array(c) for c in chunks]))
        shots = sum(map(len, chunks))
        monkeypatch.setattr(
            measurement, "_shot_uniforms", lambda *args: iter([np.array(c) for c in chunks])
        )
        for histogram in (measurement_histogram, per_shot_histogram):
            with pytest.raises(MeasurementGuardError) as raised:
                histogram(state, partition, 0, shots)
            assert str(raised.value) == str(expected.value)


@st.composite
def states_and_partitions(draw):
    dim = draw(st.integers(2, 8))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    z = np.array([complex(draw(parts), draw(parts)) for _ in range(dim)])
    assume(np.linalg.norm(z) > 1e-3)
    labels = draw(st.permutations(range(1, dim + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1))))
    bounds = [0, *cuts, dim]
    blocks = tuple(tuple(labels[a:b]) for a, b in zip(bounds, bounds[1:]))
    return StateVector(z / np.linalg.norm(z)), MeasurementPartition(blocks)


@given(case=states_and_partitions(), seed=st.integers(0, 2**130), shots=st.integers(1, 40))
def test_histogram_is_single_shot_replay(case, seed, shots):
    state, partition = case
    blocks = [sample_collapse(state, partition, seed, shot=k).block_index for k in range(shots)]
    counts = measurement_histogram(state, partition, seed, shots)
    assert counts == np.bincount(blocks, minlength=len(partition.blocks)).tolist()
    one_hot = shot_outcome_from_histograms(state, partition, seed, shots - 1)
    assert np.flatnonzero(one_hot).tolist() == [blocks[-1]]
