import numpy as np
import pytest

from iqcontrol import (
    ControlPulse,
    DimensionMismatchError,
    HermiticityError,
    NonFiniteError,
    NormalizationError,
    StateVector,
    SystemSpec,
    UnitarityError,
    UnitaryOperator,
    apply_operator,
    prepare_unitary,
    propagate,
)
from conftest import haar_unitary, random_hermitian, random_spec, random_state
from oracles import full_matrix_propagate


class TestStateVector:
    def test_rejects_non_normalized(self):
        with pytest.raises(NormalizationError):
            StateVector([1.0, 1.0])

    def test_rejects_single_level(self):
        with pytest.raises(DimensionMismatchError):
            StateVector([1.0])

    def test_accepts_round_off(self):
        amps = np.array([0.6, 0.8]) * (1.0 + 1e-12)
        StateVector(amps)

    @pytest.mark.parametrize(
        "amps",
        [[np.nan, 1.0], [1.0, np.inf], [complex(0.6, np.nan), 0.8], [-np.inf, np.inf]],
    )
    def test_rejects_non_finite(self, amps):
        # a NaN norm compares false against the tolerance, so only the
        # finite check stops these
        with pytest.raises(NonFiniteError, match="finite"):
            StateVector(amps)

    def test_basis_state(self):
        e2 = StateVector.basis_state(2, 3)
        assert np.allclose(e2.amplitudes, [0, 1, 0])
        with pytest.raises(DimensionMismatchError):
            StateVector.basis_state(4, 3)

    def test_populations_sum_to_one(self, rng):
        for _ in range(20):
            s = random_state(rng, int(rng.integers(2, 9)))
            assert abs(s.populations().sum() - 1.0) < 1e-12


class TestSystemSpec:
    def test_rejects_non_hermitian(self):
        b = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(HermiticityError):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=b)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SystemSpec(dim=3, drift=[0.0, 1.0], coupling=np.zeros((3, 3)))

    @pytest.mark.parametrize("drift", [[0.0, np.nan], [np.inf, 1.0], [0.0, -np.inf]])
    def test_rejects_non_finite_drift(self, drift):
        with pytest.raises(NonFiniteError, match="drift"):
            SystemSpec(dim=2, drift=drift, coupling=_sigma_x_block(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0)])
    def test_rejects_non_finite_coupling(self, entry):
        b = _sigma_x_block(2)
        b[0, 1] = entry
        b[1, 0] = np.conj(entry)
        with pytest.raises(NonFiniteError, match="coupling"):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=b)

    def test_warns_when_commuting(self):
        # diagonal B commutes with diagonal A
        with pytest.warns(UserWarning, match="commute"):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=np.diag([1.0, 2.0]))

    def test_transition_frequency(self):
        spec = SystemSpec(dim=3, drift=[0.0, 1.0, 3.0], coupling=_sigma_x_block(3))
        assert spec.transition_frequency(1, 2) == -1.0
        assert spec.transition_frequency(3, 1) == 3.0


def _sigma_x_block(dim):
    b = np.zeros((dim, dim), dtype=complex)
    b[0, 1] = b[1, 0] = 1.0
    return b


class TestControlPulse:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ControlPulse(((0.0, 1.0),))
        with pytest.raises(ValueError):
            ControlPulse(((-1.0, 1.0),))

    @pytest.mark.parametrize(
        "segment",
        [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, -np.inf)],
        ids=["nan-duration", "inf-duration", "nan-amplitude", "inf-amplitude"],
    )
    def test_rejects_non_finite_segment(self, segment):
        # unchecked, these reached propagate, which failed with a
        # LinAlgError or a misleading normalization error
        with pytest.raises(NonFiniteError, match=r"^segments\[1\]: "):
            ControlPulse(((1.0, 0.2), segment))

    def test_duration_and_amplitude(self):
        p = ControlPulse(((1.0, 0.3), (2.0, -0.5)))
        assert p.duration == 3.0
        assert p.amplitude(0.5) == 0.3
        assert p.amplitude(1.5) == -0.5


class TestPrepareUnitary:
    def test_first_basis_state_gives_identity(self):
        u = prepare_unitary(StateVector.basis_state(1, 4))
        assert np.array_equal(u.matrix, np.eye(4))

    def test_second_basis_state(self):
        u = prepare_unitary(StateVector.basis_state(2, 2))
        e1 = np.array([1.0, 0.0])
        assert np.max(np.abs(u.matrix @ e1 - np.array([0.0, 1.0]))) < 1e-10

    def test_case1_initial_vector(self):
        target = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
        u = prepare_unitary(target)
        produced = u.matrix[:, 0]
        assert np.max(np.abs(produced - target.amplitudes)) < 1e-10

    def test_random_targets_unitary_and_correct(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            target = random_state(rng, dim)
            u = prepare_unitary(target)  # constructor enforces unitarity
            assert np.max(np.abs(u.matrix[:, 0] - target.amplitudes)) < 1e-10


class TestPropagate:
    def test_free_evolution_eigenstate_phase(self):
        spec = SystemSpec(dim=3, drift=[0.0, 1.5, 3.0], coupling=_sigma_x_block(3))
        initial = StateVector.basis_state(2, 3)
        pulse = ControlPulse(((2.0, 0.0),))
        out = propagate(spec, pulse, initial)
        expected = np.exp(-1j * 1.5 * 2.0) * initial.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12
        assert np.max(np.abs(out.populations() - initial.populations())) < 1e-12

    def test_two_level_rabi_populations(self):
        # constant coupling with zero drift: populations follow
        # (cos^2(u T), sin^2(u T)) exactly; zero drift trips the
        # commuting-Hamiltonian warning by construction
        with pytest.warns(UserWarning, match="commute"):
            spec = SystemSpec(dim=2, drift=[0.0, 0.0], coupling=_sigma_x_block(2))
        u, total = 0.37, 2.1
        out = propagate(spec, ControlPulse(((total, u),)), StateVector.basis_state(1, 2))
        expected = np.array([np.cos(u * total) ** 2, np.sin(u * total) ** 2])
        assert np.max(np.abs(out.populations() - expected)) < 1e-12

    def test_empty_pulse_returns_initial(self, rng):
        spec = random_spec(rng, 4)
        s = random_state(rng, 4)
        assert propagate(spec, ControlPulse(()), s) is s

    def test_norm_preserved_random(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            spec = random_spec(rng, dim)
            segs = tuple(
                (float(rng.uniform(0.1, 2.0)), float(rng.normal()))
                for _ in range(int(rng.integers(1, 5)))
            )
            out = propagate(spec, ControlPulse(segs), random_state(rng, dim))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_segment_composition(self, rng):
        spec = random_spec(rng, 4)
        s = random_state(rng, 4)
        s1, s2 = (0.7, 0.4), (1.1, -0.8)
        combined = propagate(spec, ControlPulse((s1, s2)), s)
        chained = propagate(spec, ControlPulse((s2,)), propagate(spec, ControlPulse((s1,)), s))
        assert np.max(np.abs(combined.amplitudes - chained.amplitudes)) < 1e-9

    def test_free_evolution_keeps_populations(self, rng):
        spec = random_spec(rng, 5)
        s = random_state(rng, 5)
        out = propagate(spec, ControlPulse(((3.7, 0.0),)), s)
        assert np.max(np.abs(out.populations() - s.populations())) < 1e-10

    def test_dimension_mismatch(self, rng):
        spec = random_spec(rng, 4)
        with pytest.raises(DimensionMismatchError):
            propagate(spec, ControlPulse(((1.0, 0.1),)), random_state(rng, 3))


def random_segments(rng) -> ControlPulse:
    return ControlPulse(tuple(
        (float(rng.uniform(0.1, 2.0)), float(rng.normal()))
        for _ in range(int(rng.integers(1, 6)))
    ))


def block_diagonal_spec(rng, dim):
    """A spec whose coupling is block-diagonal over a random partition of
    the levels: the first block has two levels or more and is coupled,
    each other block is zero or dense, and a dense singleton is a
    diagonal entry.  Returns the spec and its blocks as 0-based levels."""
    cuts = rng.choice(np.arange(2, dim), size=int(rng.integers(0, dim - 1)), replace=False)
    blocks = np.split(rng.permutation(dim), np.sort(cuts))
    b = np.zeros((dim, dim), dtype=complex)
    for k, block in enumerate(blocks):
        if k == 0 or rng.uniform() < 0.6:
            b[np.ix_(block, block)] = random_hermitian(rng, block.size)
    return SystemSpec(dim=dim, drift=rng.normal(size=dim) * 2.0, coupling=b), blocks


class TestPropagateBlocks:
    def test_matches_full_matrix_oracle(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 8))
            spec, pulse, state = random_spec(rng, dim), random_segments(rng), random_state(rng, dim)
            out = propagate(spec, pulse, state)
            assert np.max(np.abs(out.amplitudes - full_matrix_propagate(spec, pulse, state))) < 1e-12

    def test_block_diagonal_coupling(self, rng):
        for _ in range(60):
            dim = int(rng.integers(3, 10))
            spec, blocks = block_diagonal_spec(rng, dim)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for block in blocks:
                if rng.uniform() < 0.3:
                    amps[block] = 0.0  # a block the state does not occupy
            if not amps.any():
                amps[blocks[0]] = 1.0
            state = StateVector(amps / np.linalg.norm(amps))
            pulse = random_segments(rng)
            out = propagate(spec, pulse, state)
            assert np.max(np.abs(out.amplitudes - full_matrix_propagate(spec, pulse, state))) < 1e-12
            # a level in a block that is zero or unoccupied only picks up its drift phase
            c = state.amplitudes
            for block in blocks:
                untouched = not spec.coupling[np.ix_(block, block)].any() or not c[block].any()
                if untouched:
                    expected = c[block] * np.exp(-1j * spec.drift[block] * pulse.duration)
                    assert np.array_equal(out.amplitudes[block], expected)


class TestApplyOperator:
    def test_identity(self, rng):
        s = random_state(rng, 5)
        out = apply_operator(UnitaryOperator.identity(5), s)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_unitary_round_trip(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            u = haar_unitary(rng, dim)
            s = random_state(rng, dim)
            back = apply_operator(u.adjoint(), apply_operator(u, s))
            assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-10

    def test_permutation_swap(self):
        perm = np.eye(3)[[1, 0, 2]]
        out = apply_operator(UnitaryOperator(perm), StateVector([1.0, 0.0, 0.0]))
        assert np.allclose(out.amplitudes, [0.0, 1.0, 0.0])

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            apply_operator(UnitaryOperator.identity(3), random_state(rng, 4))


class TestUnitaryOperator:
    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError):
            UnitaryOperator(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            UnitaryOperator(np.zeros((2, 3)))
