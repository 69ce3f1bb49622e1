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
from iqcontrol.measurement import _first_shot_on, _select_block
from conftest import random_state


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

    def test_binary_helper(self):
        p = MeasurementPartition.binary(GoodSubspace.of([1, 3], 5))
        assert p.blocks == ((1, 3), (2, 4, 5))

    def test_per_index_helper(self):
        assert MeasurementPartition.per_index(3).blocks == ((1,), (2,), (3,))


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
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            measurement_histogram(random_state(rng, 3), MeasurementPartition.per_index(3), **args)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"seed": 2.0}, "seed"), ({"seed": False}, "seed"), ({"shot": 1.5}, "shot"),
         ({"shot": True}, "shot")],
    )
    def test_sample_collapse_rejects_non_integers(self, rng, kwargs, name):
        args = {"seed": 1, "shot": 0, **kwargs}
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            sample_collapse(random_state(rng, 3), MeasurementPartition.per_index(3), **args)

    def test_numpy_integers_accepted(self, rng):
        state, p = random_state(rng, 4), MeasurementPartition.per_index(4)
        assert measurement_histogram(state, p, np.int64(7), np.uint16(300)) == (
            measurement_histogram(state, p, 7, 300)
        )
        single = sample_collapse(state, p, seed=np.int32(7), shot=np.int64(12))
        assert single.block_index == sample_collapse(state, p, seed=7, shot=12).block_index


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
        assert _first_shot_on(state, p, 0, 0, 3, 2) == 3
        uniforms(1.0, 0.5)
        with pytest.raises(MeasurementGuardError, match="sampled block 1"):
            _first_shot_on(state, p, 0, 0, 3, 2)

    def test_first_shot_on_matches_single_shots(self):
        # block 0 has probability 0.01: the first hit is usually past the
        # first chunk of 64 draws
        state = StateVector([0.1, np.sqrt(0.99)])
        p = MeasurementPartition.per_index(2)
        for seed in range(20):
            for first, count in ((0, 500), (7, 150), (70, 1)):
                shots = range(first, first + count)
                hits = [k for k in shots if sample_collapse(state, p, seed, shot=k).block_index == 0]
                expected = hits[0] if hits else first + count - 1
                assert _first_shot_on(state, p, seed, 0, first, count) == expected


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
