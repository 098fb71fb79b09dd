"""Realizability tests: defect matrix, augmentation, state transformation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cavity_oracle as co
from qobs import (
    DomainError,
    ImaginaryAxisEigenvalue,
    QobsError,
    SingularResolvent,
    augment_noise,
    canonical_theta,
    commutation_residual,
    default_frequency_grid,
    min_vacuum_rank,
    skew_riccati_transform,
    stilde,
    transfer_function_gap,
)
from qobs.realizability import _pairing_basis
from qobs.systems import CHECK_RTOL

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_filter_triples(count, seed=20260810):
    """Hurwitz A_hat, random B_hat, C_hat = I; the observer-shaped inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_x = int(rng.choice([2, 4]))
        n_y = int(rng.choice([2, n_x]))
        M = rng.normal(size=(n_x, n_x))
        A_hat = M - (np.max(np.linalg.eigvals(M).real) + rng.uniform(0.1, 1.0)) * np.eye(n_x)
        B_hat = rng.normal(size=(n_x, n_y))
        yield A_hat, B_hat, np.eye(n_x), canonical_theta(n_x // 2)


def observer_residual(A_hat, B_hat, theta, B_v1, B_v2):
    """Commutation residual of the filter with its extra vacuum gains."""
    gains = [B_hat, B_v1, B_v2]
    blocks = [
        canonical_theta(B_hat.shape[1] // 2),
        canonical_theta(B_v1.shape[1] // 2),
        canonical_theta(B_v2.shape[1] // 2) if B_v2.shape[1] else np.zeros((0, 0)),
    ]
    return commutation_residual(A_hat, gains, theta, blocks)


class TestStilde:
    def test_scenario1_vacuum_kalman(self):
        S = stilde(-0.1 * np.eye(2), np.zeros((2, 2)), np.eye(2), J)
        assert_allclose(S, -0.8 * J, atol=1e-14)

    def test_scenario1_kn10_kalman(self):
        a = co.ahat(0.1, 0.1, 10.0)
        k = co.gain(0.1, 0.1, 10.0)
        S = stilde(a * np.eye(2), k * np.eye(2), np.eye(2), J)
        assert_allclose(S, co.stilde_coefficient(a, k) * J, rtol=1e-12)

    def test_always_skew(self):
        for A_hat, B_hat, C_hat, theta in random_filter_triples(25, seed=3):
            S = stilde(A_hat, B_hat, C_hat, theta)
            assert_allclose(S, -S.T, atol=1e-12)


class TestMinVacuumRank:
    def test_rank_of_nonzero_defect(self):
        # the defect -0.8 J of TestStilde
        assert min_vacuum_rank(-0.1 * np.eye(2), np.zeros((2, 2)), np.eye(2), J) == 2

    def test_zero_defect(self):
        # S_tilde = theta^3 + 2 theta - theta = 0 exactly, as theta^2 = -I
        theta = canonical_theta(2)
        assert min_vacuum_rank(-np.eye(4), np.eye(4), np.eye(4), theta) == 0

    def test_always_even(self):
        for A_hat, B_hat, C_hat, theta in random_filter_triples(50, seed=8):
            assert min_vacuum_rank(A_hat, B_hat, C_hat, theta) % 2 == 0


class TestAugmentNoise:
    def test_output_carrier_gain(self):
        aug = augment_noise(-0.1 * np.eye(2), np.zeros((2, 2)), np.eye(2), J)
        assert np.array_equal(aug.B_v1, -np.eye(2))

    def test_scenario1_vacuum_invariants(self):
        # B_v2 itself is phase-dependent; its quadratic invariants are not
        aug = augment_noise(-0.1 * np.eye(2), np.zeros((2, 2)), np.eye(2), J)
        assert aug.n_v2 == 2
        assert_allclose(aug.B_v2 @ aug.B_v2.T, 0.8 * np.eye(2), atol=1e-13)
        assert_allclose(aug.B_v2 @ J @ aug.B_v2.T, -0.8 * J, atol=1e-13)

    def test_augmented_filter_preserves_commutation(self):
        a = co.ahat(0.1, 0.1, 0.0)
        k = co.gain(0.1, 0.1, 0.0)
        aug = augment_noise(a * np.eye(2), k * np.eye(2), np.eye(2), J)
        res = observer_residual(a * np.eye(2), k * np.eye(2), J, aug.B_v1, aug.B_v2)
        assert np.max(np.abs(res)) < 1e-12

    def test_random_filters_preserve_commutation(self):
        for A_hat, B_hat, C_hat, theta in random_filter_triples(100):
            aug = augment_noise(A_hat, B_hat, C_hat, theta)
            res = observer_residual(A_hat, B_hat, theta, aug.B_v1, aug.B_v2)
            assert np.max(np.abs(res)) < 1e-8
            assert aug.n_v2 == min_vacuum_rank(A_hat, B_hat, C_hat, theta)
            assert aug.n_v2 == aug.B_v2.shape[1]
            assert aug.n_v2 % 2 == 0

    def test_deterministic(self):
        args = (-0.3 * np.eye(4) + 0.1, np.ones((4, 2)), np.eye(4), canonical_theta(2))
        first = augment_noise(*args)
        second = augment_noise(*args)
        assert np.array_equal(first.B_v2, second.B_v2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("matrix", ["A_hat", "B_hat", "C_hat"])
@pytest.mark.parametrize("routine", [skew_riccati_transform, augment_noise, min_vacuum_rank])
def test_non_finite_filter_is_refused(routine, matrix, value):
    # typed, where numpy used to raise an untyped ValueError or LinAlgError
    filt = dict(zip(("A_hat", "B_hat", "C_hat"), (-0.1 * np.eye(2), 0.2 * np.eye(2), np.eye(2))))
    filt[matrix] = filt[matrix].copy()
    filt[matrix][1, 0] = value
    with pytest.raises(DomainError):
        routine(*filt.values(), J)


def test_pairing_basis_is_built_once_read_only():
    P = _pairing_basis(4)
    assert P is _pairing_basis(4) and not P.flags.writeable
    assert np.array_equal(P, np.kron(np.eye(2), np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)))


class TestSkewRiccatiTransform:
    def test_scenario1_small_kn_solution(self):
        a = co.ahat(0.1, 0.1, 0.1)
        k = co.gain(0.1, 0.1, 0.1)
        tf = skew_riccati_transform(a * np.eye(2), k * np.eye(2), np.eye(2), J)
        # scalar reduction: X = x J with k^2 x^2 + 2 a x + 1 = 0
        assert_allclose(tf.X, co.x_root(a, k) * J, rtol=1e-9)
        res = stilde(a * np.eye(2), k * np.eye(2), np.eye(2), tf.X)
        assert np.max(np.abs(res)) <= 1e-8 * (1.0 + np.max(np.abs(tf.X)))
        assert np.max(np.abs(tf.T.T @ J @ tf.T - tf.X)) <= 1e-8 * (1.0 + np.max(np.abs(tf.X)))

    def test_scenario2_failure_is_typed(self):
        a = co.ahat(0.5, 0.01, 70.0)
        k = co.gain(0.5, 0.01, 70.0)
        with pytest.raises(ImaginaryAxisEigenvalue):
            skew_riccati_transform(a * np.eye(2), k * np.eye(2), np.eye(2), J)

    def test_repeated_eigenvalue_solution(self):
        # two identical modes: X = x Theta carries each eigenvalue twice, so
        # the spectral pairing must cope with a degenerate eigenspace
        a, k = -0.11, 0.03
        theta = canonical_theta(2)
        tf = skew_riccati_transform(a * np.eye(4), k * np.eye(4), np.eye(4), theta)
        assert_allclose(tf.X, co.x_root(a, k) * theta, rtol=1e-10)
        assert np.max(np.abs(tf.T.T @ theta @ tf.T - tf.X)) < 1e-12
        res = observer_residual(
            tf.A_tilde, tf.B_tilde, theta, tf.B_v1_tilde, np.zeros((4, 0))
        )
        assert np.max(np.abs(res)) < 1e-12

    def test_transformed_filter_needs_no_extra_channels(self):
        successes = 0
        for A_hat, B_hat, C_hat, theta in random_filter_triples(100):
            try:
                tf = skew_riccati_transform(A_hat, B_hat, C_hat, theta)
            except QobsError:
                continue
            successes += 1
            res = observer_residual(
                tf.A_tilde, tf.B_tilde, theta, tf.B_v1_tilde, np.zeros((theta.shape[0], 0))
            )
            assert np.max(np.abs(res)) < 1e-8
            scale = CHECK_RTOL * (1.0 + np.max(np.abs(tf.X)))
            assert np.max(np.abs(tf.T.T @ theta @ tf.T - tf.X)) <= scale
            assert np.max(np.abs(stilde(A_hat, B_hat, C_hat, tf.X))) <= scale
            # the transformed filter's defect is round-off: no extra channel,
            # and its output gain is the transform's
            assert min_vacuum_rank(tf.A_tilde, tf.B_tilde, tf.C_tilde, theta) == 0
            aug = augment_noise(tf.A_tilde, tf.B_tilde, tf.C_tilde, theta)
            assert aug.B_v2.shape == (theta.shape[0], 0)
            assert np.array_equal(aug.B_v1, tf.B_v1_tilde)
        assert successes > 20  # the check must not be vacuous

    def test_transform_preserves_transfer_function(self):
        for A_hat, B_hat, C_hat, theta in random_filter_triples(40, seed=77):
            try:
                tf = skew_riccati_transform(A_hat, B_hat, C_hat, theta)
            except QobsError:
                continue
            gap = transfer_function_gap(
                (A_hat, B_hat, C_hat),
                (tf.A_tilde, tf.B_tilde, tf.C_tilde),
                default_frequency_grid(),
            )
            assert gap <= 1e-8


class TestTransferFunctionGap:
    def test_identical_systems(self):
        A = -0.5 * np.eye(2)
        B = np.eye(2)
        C = np.eye(2)
        assert transfer_function_gap((A, B, C), (A, B, C), default_frequency_grid()) == 0.0

    def test_distinct_dynamics(self):
        A = -0.5 * np.eye(2)
        gap = transfer_function_gap(
            (A, np.eye(2), np.eye(2)),
            (2.0 * A, np.eye(2), np.eye(2)),
            default_frequency_grid(),
        )
        assert gap > 0.1

    def test_pole_collision_detected(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # poles at +/- i
        with pytest.raises(SingularResolvent):
            transfer_function_gap(
                (A, np.eye(2), np.eye(2)), (A, np.eye(2), np.eye(2)), [1j]
            )
