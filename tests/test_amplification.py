import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcontrol import (
    GoodSubspace,
    ZeroOverlapError,
    amplified_state,
    closed_form_weights,
    decompose,
    make_plan,
    optimal_iterations,
    prepare_unitary,
    StateVector,
    UnitaryOperator,
)
from iqcontrol import amplification
from iqcontrol.amplification import DEFAULT_L_MAX, MAX_ITERATIONS, MIN_GOOD_WEIGHT, amplification_operator
from conftest import haar_unitary, random_state, state_with_good_weight
from oracles import (
    closed_form_step,
    phase_oracle_chi,
    phase_oracle_zero,
    pi_phase_count,
    pre_rotation_operator,
    success_probability,
)


def step_coefficients(g, phi1, phi2):
    """Oracle: the closed-form scalings of the good and bad parts under
    one application of the operator built from the decomposed state."""
    e1 = cmath.exp(1j * phi1)
    e2 = cmath.exp(1j * phi2)
    coef_good = (1 - e1) * (1 - g + g * e2) - e2
    coef_bad = g * (1 - e1) * (e2 - 1) - e1
    return coef_good, coef_bad


def random_good(rng, dim) -> GoodSubspace:
    size = int(rng.integers(1, dim))
    indices = rng.choice(np.arange(1, dim + 1), size=size, replace=False)
    return GoodSubspace.of([int(i) for i in indices], dim)


# explicit iteration counts that make_plan, closed_form_weights and
# success_probability all reject: (value, error, message prefix)
BAD_ITERATIONS = [
    # int() read 2.5 as 2 and True as 1
    (2.5, TypeError, "iterations: must be an integer"),
    (True, TypeError, "iterations: must be an integer"),
    # the first count past the cap carries a phase-error bound over the
    # tolerance; 2**53 passed and returned 0.99984 for 0.25 at g = 0.25,
    # past 2**53 the float L is inexact, and near the float range's top
    # L * alpha overflowed and the plan predicted nan
    (MAX_ITERATIONS + 1, ValueError,
     "iterations: phase-error bound 1.00000008e-09 exceeds 1e-09; the largest count within it "
     "is 1125899, got 1125900"),
    (2**53, ValueError, "iterations: phase-error bound 8 exceeds 1e-09; the largest count within it "
     "is 1125899, got 9007199254740992"),
    (2**53 + 1, ValueError, "iterations: phase-error bound 8 exceeds 1e-09; the largest count within "
     "it is 1125899, got 9007199254740993"),
    (10**308, ValueError, "iterations: phase-error bound inf exceeds 1e-09; the largest count within "
     "it is 1125899, got a 1024-bit integer"),
    (-1, ValueError, "iterations: must be >= 0, got -1"),
]
BAD_ITERATION_IDS = ["float", "bool", "cap+1", "2**53", "2**53+1", "1e308", "negative"]


class TestDecompose:
    def test_case1_good_weight(self):
        d = decompose(StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5))
        assert abs(d.g - 0.01) < 1e-12
        assert abs(d.b - 0.99) < 1e-12
        assert abs(d.theta - math.asin(0.1)) < 1e-12

    def test_case2_good_weight(self):
        d = decompose(
            StateVector([0.1, 0.06, 0.08, 0.7, 0.7]), GoodSubspace.of([1, 2, 3], 5)
        )
        assert abs(d.g - 0.02) < 1e-12

    def test_state_inside_good_set(self):
        d = decompose(StateVector([0.6, 0.8, 0.0]), GoodSubspace.of([1, 2], 3))
        assert abs(d.g - 1.0) < 1e-12
        assert np.max(np.abs(d.bad_part)) == 0.0

    def test_reconstruction_and_disjoint_support(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            s = random_state(rng, dim)
            good = random_good(rng, dim)
            d = decompose(s, good)
            assert np.max(np.abs(d.good_part + d.bad_part - s.amplitudes)) < 1e-12
            assert not np.any((d.good_part != 0) & (d.bad_part != 0))
            assert abs(d.g - np.vdot(d.good_part, d.good_part).real) < 1e-12

    def test_zero_overlap_allowed_here(self):
        d = decompose(StateVector([1.0, 0.0]), GoodSubspace.of(2, 2))
        assert d.g == 0.0


class TestGoodSubspace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GoodSubspace(frozenset(), 3)

    def test_rejects_full_set(self):
        with pytest.raises(ValueError):
            GoodSubspace.of([1, 2, 3], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GoodSubspace.of(4, 3)

    def test_zero_dim_integer_array_is_one_label(self):
        assert GoodSubspace.of(np.array(3), 5) == GoodSubspace.of(3, 5)
        assert GoodSubspace.of(np.array([1, 3]), 5) == GoodSubspace.of([1, 3], 5)


class TestPhaseOracles:
    def test_zero_phase_is_identity(self):
        assert np.array_equal(phase_oracle_zero(3, 0.0).matrix, np.eye(3))
        good = GoodSubspace.of(2, 3)
        assert np.array_equal(phase_oracle_chi(3, good, 0.0).matrix, np.eye(3))

    def test_pi_phase_two_level(self):
        assert np.allclose(phase_oracle_zero(2, math.pi).matrix, np.diag([-1.0, 1.0]))

    def test_half_pi_phase(self):
        assert np.allclose(phase_oracle_zero(3, math.pi / 2).matrix, np.diag([1j, 1.0, 1.0]))

    def test_chi_oracle_single_target(self):
        mat = phase_oracle_chi(5, GoodSubspace.of(5, 5), math.pi).matrix
        assert np.allclose(mat, np.diag([1.0, 1.0, 1.0, 1.0, -1.0]))

    def test_chi_oracle_subspace(self):
        mat = phase_oracle_chi(5, GoodSubspace.of([1, 2, 3], 5), math.pi).matrix
        assert np.allclose(mat, np.diag([-1.0, -1.0, -1.0, 1.0, 1.0]))

    def test_phase_range_enforced(self):
        with pytest.raises(ValueError):
            phase_oracle_zero(3, -0.1)
        with pytest.raises(ValueError):
            phase_oracle_zero(3, math.pi + 0.1)


class TestAmplificationOperator:
    def test_equals_phase_oracle_product(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            u = haar_unitary(rng, dim)
            good = random_good(rng, dim)
            phi1 = float(rng.uniform(0.0, math.pi))
            phi2 = float(rng.uniform(0.0, math.pi))
            product = -(
                u.matrix @ phase_oracle_zero(dim, phi1).matrix @ u.matrix.conj().T
                @ phase_oracle_chi(dim, good, phi2).matrix
            )
            q = amplification_operator(u, good, phi1, phi2)
            assert np.max(np.abs(q.matrix - product)) < 1e-12

    def test_zero_phases_give_minus_identity(self, rng):
        u = haar_unitary(rng, 4)
        q = amplification_operator(u, GoodSubspace.of(2, 4), 0.0, 0.0)
        assert np.max(np.abs(q.matrix + np.eye(4))) < 1e-12

    def test_action_matches_closed_form_coefficients(self, rng):
        # oracle: the image of the good part is c_gg * good + c_bg * bad
        # with the coefficients written out from the reflection algebra
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            u = haar_unitary(rng, dim)
            good = random_good(rng, dim)
            phi1 = float(rng.uniform(0.0, math.pi))
            phi2 = float(rng.uniform(0.0, math.pi))
            state = StateVector(u.matrix[:, 0])
            d = decompose(state, good)
            q = amplification_operator(u, good, phi1, phi2)
            e1 = cmath.exp(1j * phi1)
            e2 = cmath.exp(1j * phi2)
            img_good = q.matrix @ d.good_part
            expected_good = (
                e2 * ((1 - e1) * d.g - 1) * d.good_part + e2 * (1 - e1) * d.g * d.bad_part
            )
            assert np.max(np.abs(img_good - expected_good)) < 1e-10
            img_bad = q.matrix @ d.bad_part
            expected_bad = (1 - e1) * (1 - d.g) * d.good_part - (
                (1 - e1) * d.g + e1
            ) * d.bad_part
            assert np.max(np.abs(img_bad - expected_bad)) < 1e-10

    def test_case1_seven_applications(self):
        initial = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
        good = GoodSubspace.of(5, 5)
        u = prepare_unitary(initial)
        q = amplification_operator(u, good, math.pi, math.pi)
        c = initial.amplitudes.copy()
        for _ in range(7):
            c = q.matrix @ c
        weight = abs(c[4]) ** 2
        assert abs(weight - success_probability(0.01, 7)) < 1e-9
        assert abs(weight - 0.9953) < 5e-4

    def test_unitarity_random(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            q = amplification_operator(
                haar_unitary(rng, dim),
                random_good(rng, dim),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, math.pi)),
            )
            dev = np.max(np.abs(q.matrix.conj().T @ q.matrix - np.eye(dim)))
            assert dev < 1e-10


class TestClosedFormStep:
    def test_zero_phases_negate_both_parts(self, rng):
        s = random_state(rng, 5)
        d = decompose(s, GoodSubspace.of([2, 4], 5))
        out = closed_form_step(d, 0.0, 0.0)
        assert np.max(np.abs(out.good_part + d.good_part)) < 1e-12
        assert np.max(np.abs(out.bad_part + d.bad_part)) < 1e-12

    def test_single_step_weight_case1(self):
        d = decompose(StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5))
        out = closed_form_step(d, math.pi, math.pi)
        expected = math.sin(3 * math.asin(math.sqrt(0.01))) ** 2
        assert abs(out.g - expected) < 1e-12

    def test_matches_matrix_action(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            u = haar_unitary(rng, dim)
            good = random_good(rng, dim)
            phi1 = float(rng.uniform(0, math.pi))
            phi2 = float(rng.uniform(0, math.pi))
            state = StateVector(u.matrix[:, 0])
            d = decompose(state, good)
            stepped = closed_form_step(d, phi1, phi2)
            q = amplification_operator(u, good, phi1, phi2)
            moved = q.matrix @ state.amplitudes
            mask = good.mask()
            assert np.max(np.abs(stepped.good_part - np.where(mask, moved, 0))) < 1e-10
            assert np.max(np.abs(stepped.bad_part - np.where(mask, 0, moved))) < 1e-10

    def test_norm_preserved(self, rng):
        for _ in range(20):
            d = decompose(random_state(rng, 6), GoodSubspace.of([1, 4], 6))
            out = closed_form_step(d, float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
            total = np.vdot(out.good_part, out.good_part).real + np.vdot(
                out.bad_part, out.bad_part
            ).real
            assert abs(total - 1.0) < 1e-12

    def test_support_never_grows(self, rng):
        for _ in range(20):
            dim = int(rng.integers(3, 8))
            s = random_state(rng, dim)
            good = random_good(rng, dim)
            d = decompose(s, good)
            out = closed_form_step(d, float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)))
            zero_before = (d.good_part == 0) & (d.bad_part == 0)
            assert np.all(out.good_part[zero_before] == 0)
            assert np.all(out.bad_part[zero_before] == 0)


class TestClosedFormWeights:
    def test_matches_matrix_powers(self, rng):
        # oracle: the explicit operator's matrix power, for the weights and
        # for the amplitudes amplified_state returns; the all-good input
        # (g = 1) comes last
        cases = []
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            u = haar_unitary(rng, dim)
            cases.append((u, random_good(rng, dim)))
        cases.append((prepare_unitary(StateVector([0.6, 0.8j, 0.0])), GoodSubspace.of([1, 2], 3)))
        for u, good in cases:
            phi1 = float(rng.uniform(0, math.pi))
            phi2 = float(rng.uniform(0, math.pi))
            iterations = int(rng.integers(0, 51))
            state = StateVector(u.matrix[:, 0])
            d = decompose(state, good)
            q = amplification_operator(u, good, phi1, phi2)
            c = np.linalg.matrix_power(q.matrix, iterations) @ state.amplitudes
            mask = good.mask()
            good_weight = float(np.sum(np.abs(c[mask]) ** 2))
            bad_weight = float(np.sum(np.abs(c[~mask]) ** 2))
            wg, wb = closed_form_weights(d.g, phi1, phi2, iterations)
            assert abs(wg - good_weight) < 1e-9
            assert abs(wb - bad_weight) < 1e-9
            plan = make_plan(state, good, phi1, phi2, iterations=iterations)
            assert np.max(np.abs(amplified_state(plan).amplitudes - c)) < 1e-9

    def test_pi_phases_reduce_to_success_formula(self, rng):
        for _ in range(50):
            g = float(rng.uniform(1e-4, 0.999))
            iterations = int(rng.integers(0, 51))
            wg, wb = closed_form_weights(g, math.pi, math.pi, iterations)
            assert abs(wg - success_probability(g, iterations)) < 1e-9
            assert abs(wg + wb - 1.0) < 1e-12


class TestSuccessProbability:
    def test_zero_iterations_returns_g(self, rng):
        for g in rng.uniform(1e-4, 1.0, size=10):
            assert abs(success_probability(float(g), 0) - g) < 1e-12

    def test_case1_value(self):
        assert abs(success_probability(0.01, 7) - 0.9953) < 5e-4

    def test_case2_value(self):
        assert abs(success_probability(0.02, 5) - 0.9999) < 1e-4

    def test_full_weight(self):
        assert success_probability(1.0, 3) == pytest.approx(1.0)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            success_probability(0.0, 1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            success_probability(0.5, -1)


@pytest.mark.parametrize(
    "formula",
    [lambda L: closed_form_weights(0.5, math.pi, math.pi, L), lambda L: success_probability(0.5, L)],
    ids=["closed_form_weights", "success_probability"],
)
@pytest.mark.parametrize(
    "iterations, error, prefix",
    BAD_ITERATIONS
    + [(10**400, ValueError, "iterations: phase-error bound inf exceeds 1e-09; the largest count "
        "within it is 1125899, got a 1329-bit integer")],
    ids=BAD_ITERATION_IDS + ["1e400"],
)
def test_formulas_read_iterations_as_make_plan_does(formula, iterations, error, prefix):
    # unchecked, 2.5 gave a weight for L = 2.5, True counted as 1, 2**53 + 1
    # passed with an inexact float L, and 10**400 raised a raw OverflowError
    with pytest.raises(error, match="^" + re.escape(prefix)):
        formula(iterations)


class TestOptimalIterations:
    def test_one_percent_weight(self):
        assert optimal_iterations(0.01) == 7

    def test_two_percent_weight(self):
        assert optimal_iterations(0.02) == 5

    def test_half_weight_ties_to_zero(self):
        # sin^2((2L+1) pi/4) = 1/2 for every L: smallest wins
        assert optimal_iterations(0.5) == 0

    def test_beats_neighbors(self, rng):
        for _ in range(200):
            g = float(rng.uniform(1e-4, 0.99))
            best = optimal_iterations(g)
            value = success_probability(g, best)
            if best > 0:
                assert value >= success_probability(g, best - 1) - 1e-12
            assert value >= success_probability(g, best + 1) - 1e-12

    def test_matches_first_arch_scan(self, rng):
        # oracle: sin^2((2L+1) theta) is unimodal over the first arch
        # (2L+1) theta <= pi, so its argmax there is the first-peak
        # optimum; scan that arch exhaustively
        for _ in range(100):
            g = float(rng.uniform(1e-3, 0.99))
            theta = math.asin(math.sqrt(g))
            horizon = int((math.pi / theta - 1.0) / 2.0)
            values = [success_probability(g, L) for L in range(horizon + 1)]
            assert optimal_iterations(g) == int(np.argmax(values))

    def test_l_max_clamps(self):
        # below the first peak the success value still rises with L
        assert optimal_iterations(0.01, l_max=3) == 3
        assert optimal_iterations(0.01, l_max=0) == 0

    def test_l_max_must_be_an_integer(self):
        # True read as 1, 2.5 clamped the count to 2.5
        for bad in (True, 2.5):
            with pytest.raises(TypeError, match="^l_max: must be an integer"):
                optimal_iterations(0.01, bad)
        assert optimal_iterations(0.01, np.int64(3)) == 3

    def test_l_max_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^l_max: must be >= 0, got -1$"):
            optimal_iterations(0.01, -1)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            optimal_iterations(0.0)
        with pytest.raises(ValueError):
            optimal_iterations(1.5)

    def test_pi_phases_keep_the_first_arch_count(self):
        # the count comes from the closed form for any phases; at phi = pi
        # it must be the sin^2((2L+1) theta) rule's, g >= 0.5 included,
        # where a bare sinusoid argmax picks a later peak
        rng = np.random.default_rng(2204)
        low = 10.0 ** rng.uniform(math.log10(MIN_GOOD_WEIGHT), 0.0, size=12000)
        weights = np.concatenate([low, rng.uniform(0.5, 1.0, size=8000)]).tolist()
        mismatches = []
        for g in weights:
            clamped = int(rng.integers(0, pi_phase_count(g, DEFAULT_L_MAX) + 2))
            for l_max in (DEFAULT_L_MAX, clamped):
                if optimal_iterations(g, l_max) != pi_phase_count(g, l_max):
                    mismatches.append((g, l_max))
        assert mismatches == []


# Below phases of 0.01 (0 aside) or g of 1e-4, P can rise by less than
# 1e-12 a step for many steps before its peak, where the exact peak and
# the first tie part ways; test_optimal_iterations_exhaustive_argmax
# covers small g at phi = pi.
@settings(max_examples=150)
@given(
    g=st.floats(1e-4, 1.0),
    phi1=st.just(0.0) | st.floats(0.01, math.pi),
    phi2=st.just(0.0) | st.floats(0.01, math.pi),
    l_max=st.integers(0, 2000),
)
def test_optimal_iterations_is_the_first_local_maximum(g, phi1, phi2, l_max):
    # the first L with P(L+1) <= P(L) + 1e-12, by scanning the closed form
    first, previous = l_max, closed_form_weights(g, phi1, phi2, 0)[0]
    for count in range(l_max):
        weight = closed_form_weights(g, phi1, phi2, count + 1)[0]
        if weight <= previous + 1e-12:
            first = count
            break
        previous = weight
    assert optimal_iterations(g, l_max, phi1, phi2) == first


class TestMakePlan:
    def test_zero_overlap_raises_with_hint(self):
        with pytest.raises(ZeroOverlapError, match="pre_rotation"):
            make_plan(StateVector([1.0, 0.0]), GoodSubspace.of(2, 2))

    def test_pre_rotation_recovers(self):
        plan = make_plan(
            StateVector([1.0, 0.0, 0.0]), GoodSubspace.of(3, 3), pre_rotation=True
        )
        assert plan.pre_rotated
        assert plan.initial_good_weight > 0
        # the rotation moves sin^2(angle) of the unit weight on state 1
        assert plan.initial_good_weight == pytest.approx(math.sin(0.1) ** 2)

    def test_pre_rotation_cannot_help_when_state_misses_both(self):
        with pytest.raises(ZeroOverlapError, match="pre-rotation also left"):
            make_plan(
                StateVector([0.0, 1.0, 0.0]), GoodSubspace.of(3, 3), pre_rotation=True
            )

    def test_predicted_success_consistent_with_formula(self, rng):
        for _ in range(20):
            s = random_state(rng, 5)
            good = GoodSubspace.of([2, 5], 5)
            plan = make_plan(s, good)
            g = decompose(s, good).g
            assert plan.predicted_success == pytest.approx(
                success_probability(g, plan.iterations), abs=1e-12
            )

    def test_explicit_iterations_override(self):
        plan = make_plan(
            StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5), iterations=3
        )
        assert plan.iterations == 3

    def test_auto_reads_the_phases(self):
        # the phi = pi count, L = 7, predicted 0.764 at phi = pi/2
        state, good = StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        plan = make_plan(state, good, math.pi / 2, math.pi / 2)
        assert plan.iterations == 11
        assert plan.predicted_success >= 0.99
        weight = float(abs(amplified_state(plan).amplitudes[4]) ** 2)
        assert weight == pytest.approx(plan.predicted_success, abs=1e-12)

    def test_iterations_beyond_float_range_named(self):
        # the closed form takes L as a float: past the float range it ended
        # in "OverflowError: int too large to convert to float"
        state, good = StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        message = (r"^iterations: phase-error bound inf exceeds 1e-09; the largest count within "
                   r"it is 1125899, got a 1329-bit integer$")
        with pytest.raises(ValueError, match=message):
            make_plan(state, good, iterations=10**400)

    @pytest.mark.parametrize(
        "kwargs, error, prefix",
        [({"iterations": value}, error, prefix) for value, error, prefix in BAD_ITERATIONS]
        # l_max=2.5 planned 2.5 iterations
        + [({"l_max": 2.5}, TypeError, "l_max: must be an integer")],
        ids=[f"iterations-{i}" for i in BAD_ITERATION_IDS] + ["l_max-float"],
    )
    def test_counts_are_integers_in_range(self, kwargs, error, prefix):
        state, good = StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        with pytest.raises(error, match="^" + re.escape(prefix)):
            make_plan(state, good, **kwargs)

    def test_iterations_up_to_the_cap_plan_finite(self):
        state, good = StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        plan = make_plan(state, good, iterations=np.int64(MAX_ITERATIONS))
        assert plan.iterations == MAX_ITERATIONS and type(plan.iterations) is int
        assert 0.0 <= plan.predicted_success <= 1.0
        assert np.isfinite(amplified_state(plan).amplitudes).all()

    def test_prepared_state_matches_initial(self, rng):
        s = random_state(rng, 4)
        plan = make_plan(s, GoodSubspace.of(2, 4))
        assert np.max(np.abs(plan.prepared.amplitudes - s.amplitudes)) < 1e-10

    def test_plan_builds_no_matrix(self, rng, monkeypatch):
        # the prepared state is the initial state itself; the preparation
        # unitary is built only when read
        built = []
        monkeypatch.setattr(
            UnitaryOperator, "__post_init__", lambda op: built.append(op.matrix.shape)
        )
        s = random_state(rng, 64)
        plan = make_plan(s, GoodSubspace.of([5, 9], 64))
        amplified_state(plan)
        assert plan.prepared is s
        assert built == []
        assert plan.preparation.dim == 64
        assert built == [(64, 64)]

    @pytest.mark.parametrize("iterations", ["auto", 3])
    def test_plan_builds_one_rotation(self, monkeypatch, iterations):
        # the first-peak search and the predicted weight share one rotation;
        # an "auto" plan used to build it twice
        built = []
        rotation = amplification._rotation
        monkeypatch.setattr(amplification, "_rotation", lambda *args: built.append(args) or rotation(*args))
        state, good = StateVector([0.7, 0.5, 0.3, 0.4, 0.1]), GoodSubspace.of(5, 5)
        plan = make_plan(state, good, iterations=iterations)
        assert len(built) == 1
        assert plan.iterations == (7 if iterations == "auto" else 3)

    def test_preparation_maps_e1_to_prepared_state(self, rng):
        for dim in (2, 5, 9):
            s = random_state(rng, dim)
            plan = make_plan(s, GoodSubspace.of(dim, dim))
            u = plan.preparation
            assert np.max(np.abs(u.matrix[:, 0] - s.amplitudes)) < 1e-12


class TestAmplifiedState:
    def test_matches_success_formula(self, rng):
        for _ in range(15):
            g = float(rng.uniform(0.005, 0.4))
            s = state_with_good_weight(rng, 6, [3, 6], g)
            plan = make_plan(s, GoodSubspace.of([3, 6], 6))
            amp = amplified_state(plan)
            weight = float(np.sum(np.abs(amp.amplitudes[[2, 5]]) ** 2))
            assert abs(weight - success_probability(g, plan.iterations)) < 1e-9

    def test_tiny_weight_at_l_max(self, rng):
        # g = 1e-14 asks for L ~ 7.9e6, clamped to l_max; L repeated
        # products used to drift the norm past the state tolerance
        g = 1e-14
        s = state_with_good_weight(rng, 5, [2, 4], g)
        plan = make_plan(s, GoodSubspace.of([2, 4], 5), l_max=10**6)
        assert plan.iterations == 10**6
        amp = amplified_state(plan)
        assert abs(float(np.linalg.norm(amp.amplitudes)) - 1.0) < 1e-12
        weight = float(np.sum(np.abs(amp.amplitudes[[1, 3]]) ** 2))
        assert abs(weight - success_probability(g, plan.iterations)) < 1e-12

    @pytest.mark.parametrize(
        "phases, g", [((1e-8, 1e-8), 0.5), ((0.5, 0.5), 2e-15)], ids=["phi=1e-8", "phi=0.5"]
    )
    @pytest.mark.parametrize("iterations", [DEFAULT_L_MAX, MAX_ITERATIONS])
    def test_long_runs_keep_the_prepared_norm(self, rng, phases, g, iterations):
        # the closed form's norm drifted by 1.1e-10 to 1.5e-10 here, past
        # the state tolerance, and amplified_state raised NormalizationError
        s = state_with_good_weight(rng, 4, [1, 3], g)
        amp = amplified_state(make_plan(s, GoodSubspace.of([1, 3], 4), *phases, iterations))
        assert abs(float(np.linalg.norm(amp.amplitudes)) - 1.0) < 1e-15

    def test_near_full_weight_matches_operator(self, rng):
        # bad weight 1e-10: taken as 1 - g it keeps only six digits, which
        # showed as a 6e-10 amplitude error after 1000 applications
        s = state_with_good_weight(rng, 4, [1, 3], 1.0 - 1e-10)
        good = GoodSubspace.of([1, 3], 4)
        plan = make_plan(s, good, iterations=1000)
        q = amplification_operator(plan.preparation, good, math.pi, math.pi)
        c = np.linalg.matrix_power(q.matrix, 1000) @ s.amplitudes
        assert np.max(np.abs(amplified_state(plan).amplitudes - c)) < 1e-11

    def test_predicted_success_never_above_one(self, rng):
        s = state_with_good_weight(rng, 5, [2, 4], 1e-12)
        plan = make_plan(s, GoodSubspace.of([2, 4], 5))
        assert plan.predicted_success <= 1.0
        assert plan.predicted_success == pytest.approx(
            success_probability(plan.initial_good_weight, plan.iterations), abs=1e-12
        )


class TestPreRotationOperator:
    def test_mixes_first_index_into_good(self):
        op = pre_rotation_operator(GoodSubspace.of(3, 4))
        out = op.matrix @ np.array([1.0, 0, 0, 0])
        assert abs(out[2]) > 0
        assert abs(abs(out[0]) ** 2 + abs(out[2]) ** 2 - 1.0) < 1e-12

    def test_good_contains_first_index_is_identity(self):
        op = pre_rotation_operator(GoodSubspace.of([1, 3], 4))
        assert np.array_equal(op.matrix, np.eye(4))


class TestPreRotation:
    def test_matches_operator_oracle(self, rng):
        # make_plan rotates amplitudes 1 and min(good) in place; the oracle
        # applies the explicit N x N rotation
        for _ in range(30):
            dim = int(rng.integers(3, 12))
            good = GoodSubspace.of(
                [int(i) for i in rng.choice(np.arange(2, dim + 1), size=2, replace=False)], dim
            )
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            z[good.mask()] = 0.0
            s = StateVector(z / np.linalg.norm(z))
            plan = make_plan(s, good, pre_rotation=True)
            expected = pre_rotation_operator(good).matrix @ s.amplitudes
            assert plan.pre_rotated
            assert np.max(np.abs(plan.prepared.amplitudes - expected)) < 1e-15
            assert plan.initial_good_weight == pytest.approx(
                math.sin(0.1) ** 2 * abs(s.amplitudes[0]) ** 2, rel=1e-12
            )

    def test_identity_when_first_index_is_good(self):
        s = StateVector([0.0, 0.6, 0.8])
        with pytest.raises(ZeroOverlapError, match="pre-rotation also left"):
            make_plan(s, GoodSubspace.of([1], 3), pre_rotation=True)
