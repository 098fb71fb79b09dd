"""Solver tests: Riccati via stable subspace, Lyapunov, covariance integration."""

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import cavity_oracle as co
from qobs import (
    DomainError,
    ImaginaryAxisEigenvalue,
    NoStabilizingSolution,
    NotHurwitz,
    WrongSplitCount,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    integrate_covariance,
    make_cavity_plant,
    run_sweep,
    scenario_config,
    solve_care,
    solve_lyapunov,
    stable_subspace,
)
from qobs.observers import _alg2_traces, _kalman_step, _plant_matrices
import qobs.observers
import qobs.solvers
from qobs.solvers import (
    _care_coefficients, _filter_cares, _hamiltonian, _not_hurwitz, _riccati_solutions, _schur_solutions,
    _solve_lyapunov_stack, riccati_residual,
)
from qobs.systems import CHECK_RTOL

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rk4_step_loop(A_e, N, P0, horizon, step):
    """Reference for ``integrate_covariance``: the classic RK4 step loop its step-map powering replaces."""
    P = np.array(P0, dtype=float)
    n_steps = max(1, int(round(horizon / step)))
    h = horizon / n_steps

    def flow(P):
        return A_e @ P + P @ A_e.T + N

    for _ in range(n_steps):
        k1 = flow(P)
        k2 = flow(P + 0.5 * h * k1)
        k3 = flow(P + 0.5 * h * k2)
        k4 = flow(P + h * k3)
        P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return P


def norms(H):
    """The Frobenius norm of each slice of a stack."""
    return np.linalg.norm(H, axis=(-2, -1))


def passes_the_residual_check(F, B, M, H, H_scale, X):
    """Whether ``X`` solves the Riccati equation to ``CHECK_RTOL`` of ``||X G X|| + 2 ||X F|| + H_scale``."""
    G = B @ M @ B.T
    scale = norms(X @ G @ X) + 2.0 * norms(X @ F) + H_scale
    return bool(norms(riccati_residual(F, B, M, H, X)) <= CHECK_RTOL * scale)


def grid_filters(A, C, V1, V12, V2):
    """``(K, A_hat, ok)`` of the filters alg2's scorer scores: solve_care's body, then the Hurwitz rule."""
    _, K, A_hat, _, errors = _filter_cares(A, C, V1, V12, V2)
    ok = np.array([error is None for error in errors])
    ok[ok] = [error is None for error in _not_hurwitz(np.linalg.eigvals(A_hat[ok]))]
    return K, A_hat, ok


def cavity_noise_blocks(k1, k2, kn):
    plant = make_cavity_plant(k1, k2, kn)
    S_w = plant.ito.S
    return (
        plant.A,
        plant.C,
        plant.B @ S_w @ plant.B.T,
        plant.B @ S_w @ plant.D.T,
        plant.D @ S_w @ plant.D.T,
    )


class TestSolveCare:
    def test_scenario1_vacuum_limit(self):
        kd = solve_care(*cavity_noise_blocks(0.1, 0.1, 0.0))
        assert_allclose(kd.Q, np.eye(2), atol=1e-12)
        assert np.max(np.abs(kd.K)) < 1e-12

    def test_scenario1_kn10(self):
        kd = solve_care(*cavity_noise_blocks(0.1, 0.1, 10.0))
        # scalar oracle: q = sqrt(21), k = sqrt(0.1) (q - 1)
        assert_allclose(kd.Q, np.sqrt(21.0) * np.eye(2), rtol=1e-12)
        assert_allclose(kd.K, 1.132909908602106 * np.eye(2), rtol=1e-10)

    def test_scenario2_kn69(self):
        kd = solve_care(*cavity_noise_blocks(0.5, 0.01, 69.0))
        assert_allclose(kd.Q, 2.227843491226986 * np.eye(2), rtol=1e-10)
        assert_allclose(kd.K, 0.8682164588823672 * np.eye(2), rtol=1e-10)

    @pytest.mark.parametrize("kn", [0.0, 0.3, 2.0, 42.0, 1e3])
    @pytest.mark.parametrize("scenario", [co.S1, co.S2, co.S3])
    def test_matches_scalar_oracle_along_family(self, scenario, kn):
        k1, k2 = scenario
        kd = solve_care(*cavity_noise_blocks(k1, k2, kn))
        q = co.q_coherent(k1, k2, kn)
        assert_allclose(kd.Q, q * np.eye(2), rtol=1e-10)
        assert_allclose(kd.K, co.gain(k1, k2, kn) * np.eye(2), rtol=1e-10, atol=1e-12)

    def test_random_instances_residual_and_stability(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.choice([2, 4]))
            p = int(rng.choice([2, n]))
            A = rng.normal(size=(n, n))
            C = rng.normal(size=(p, n))
            Bn = rng.normal(size=(n, n + p))
            Dn = rng.normal(size=(p, n + p))
            V1 = Bn @ Bn.T
            V12 = Bn @ Dn.T
            V2 = Dn @ Dn.T + 0.1 * np.eye(p)
            kd = solve_care(A, C, V1, V12, V2)
            assert kd.residual_norm <= 1e-8 * (1.0 + np.linalg.norm(kd.Q))
            assert np.max(np.linalg.eigvals(A - kd.K @ C).real) < 0.0
            assert_allclose(kd.Q, kd.Q.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(kd.Q)) > -1e-9

    def test_agrees_with_scipy_care(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 4
            A = rng.normal(size=(n, n))
            C = rng.normal(size=(2, n))
            Bn = rng.normal(size=(n, 6))
            Dn = rng.normal(size=(2, 6))
            V1, V12 = Bn @ Bn.T, Bn @ Dn.T
            V2 = Dn @ Dn.T + 0.1 * np.eye(2)
            kd = solve_care(A, C, V1, V12, V2)
            V2i = np.linalg.inv(V2)
            Abar = A - V12 @ V2i @ C
            ref = scipy.linalg.solve_continuous_are(
                Abar.T, C.T, V1 - V12 @ V2i @ V12.T, V2
            )
            assert_allclose(kd.Q, ref, rtol=1e-8, atol=1e-10)

    def test_undetectable_pair_fails(self):
        # unstable mode invisible to the output: no stabilizing solution
        A = np.diag([1.0, 1.0])
        C = np.zeros((2, 2))
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, C, np.eye(2), np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize(
        "args",
        [
            (np.eye(2), np.eye(2), np.eye(2), 0, np.eye(3)),
            (np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(3)),
            (np.eye(2), np.ones((2, 3)), np.eye(2), np.zeros((2, 2)), np.eye(2)),
            (np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), np.stack([np.eye(2)] * 3)[:, :1]),
            (np.stack([np.eye(2)] * 2), np.eye(2), np.eye(2), np.zeros((2, 2)), np.stack([np.eye(2)] * 3)),
            (np.eye(2)[None, None], np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2)),
        ],
        ids=["scalar-V12", "V2-3x3", "C-2x3", "V2-rows", "stack-lengths", "4-d-A"],
    )
    def test_mismatched_shapes_rejected(self, args):
        with pytest.raises(DomainError, match="must be"):
            solve_care(*args)

    @pytest.mark.filterwarnings("error")  # refused with the typed error alone, no RuntimeWarning first
    @pytest.mark.parametrize("name", ["A", "C", "V1", "V12"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_named(self, name, value):
        args = dict(zip(("A", "C", "V1", "V12", "V2"), cavity_noise_blocks(*co.S2, 10.0)))
        args[name] = args[name].copy()
        args[name][0, 0] = value
        with pytest.raises(DomainError, match=f"^{name} is not finite$"):
            solve_care(*args.values())
        # in a stack only its own slice is refused
        args[name] = np.stack([args[name], cavity_noise_blocks(*co.S2, 10.0)[list(args).index(name)]])
        bad, good = solve_care(*args.values())
        assert isinstance(bad, DomainError) and str(bad) == f"{name} is not finite"
        assert good.K.tobytes() == solve_care(*cavity_noise_blocks(*co.S2, 10.0)).K.tobytes()


class TestGridFilters:
    def test_matches_solve_care(self):
        # one random plant against a stack of measurement-noise intensities
        rng = np.random.default_rng(31)
        for n, p in ((2, 2), (4, 2), (6, 4)):
            A, C = rng.normal(size=(n, n)), rng.normal(size=(p, n))
            Bn, Dn = rng.normal(size=(n, n + p)), rng.normal(size=(p, n + p))
            V1, V12 = Bn @ Bn.T, Bn @ Dn.T
            V2 = np.stack([Dn @ Dn.T + r * r * np.eye(p) for r in (0.01, 0.3, 1.0, 10.0)])
            K, A_hat, ok = grid_filters(A, C, V1, V12, V2)
            assert ok.all()
            for k in range(len(V2)):
                kd = solve_care(A, C, V1, V12, V2[k])
                assert K[k].tobytes() == kd.K.tobytes() and A_hat[k].tobytes() == kd.A_hat.tobytes()

    @pytest.mark.parametrize(
        "A", [np.eye(2), J, -1e-9 * np.eye(2)], ids=["undetectable", "imaginary-axis", "near-axis"]
    )
    def test_failing_slices_are_flagged_not_raised(self, A):
        # what solve_care refuses with a typed error, the stack flags
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.eye(2))
        V2 = np.stack([np.eye(2), 4.0 * np.eye(2)])
        _, _, ok = grid_filters(A, np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), V2)
        assert not ok.any()
        # and alg2's scorer gives each of such a plant's candidates that error
        plant = dataclasses.replace(make_cavity_plant(*co.S2, 10.0), A=A, C=np.zeros((2, 2)))
        outcomes = _alg2_traces(_plant_matrices([plant]), _kalman_step([plant], 0.0), [(0, 0.0), (0, 0.5), (0, 2.0)])
        assert all(isinstance(outcome, NoStabilizingSolution) for outcome in outcomes)


@pytest.fixture
def schur_calls(monkeypatch):
    """The errors of each call the Riccati route makes to the Schur loop, one per slice it leaves there."""
    calls = []

    def counted(Z):
        X, errors = _schur_solutions(Z)
        calls.append(errors)
        return X, errors

    monkeypatch.setattr(qobs.solvers, "_schur_solutions", counted)
    return calls


def eig_that_does_not_converge(Z):
    """``np.linalg.eig`` failing as it does when ``geev`` does not converge on a slice."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


#: pool plants (stratum, index) whose rho = 0 CARE has ``H = V1 - V12 V2^-1 V12^T`` cancelling
CANCELLING_CARES = [(2, 0), (5, 2), (5, 4), (8, 2), (14, 5)]


class TestRiccatiSolutions:
    @pytest.mark.filterwarnings("error")
    def test_failing_slices_take_the_schur_route_and_get_errors_not_a_raise(self, schur_calls):
        # a good cavity slice, an imaginary-axis one, one whose Hamiltonian
        # overflows, a Jordan block (F = [[-1, 1], [0, -1]], G = I, H = 0)
        # whose eigenvector basis is singular to working precision, and one
        # with one stable eigenvalue (-2) and three unstable
        good = _care_coefficients(*cavity_noise_blocks(*co.S2, 10.0)[:4], np.eye(2))
        F, B, M, H = (np.stack([X] * 5) for X in good)
        F[1], B[1], H[1] = J, 0.0, 0.0
        B[2] = 1e200 * np.eye(2)
        F[3], B[3], M[3], H[3] = [[-1.0, 1.0], [0.0, -1.0]], np.eye(2), np.eye(2), 0.0
        F[4], B[4] = [[1.0, 2.0], [-2.0, -1.0]], np.eye(2)
        M[4], H[4] = [[-2.0, -1.0], [-1.0, -2.0]], [[2.0, -1.0], [2.0, 1.0]]
        X, errors = _riccati_solutions(F, B, M, H, norms(H))
        assert [len(call) for call in schur_calls] == [4]  # the slices that fail a check, and only those
        assert errors[0] is None and errors[3] is None
        assert isinstance(errors[1], ImaginaryAxisEigenvalue) and isinstance(errors[4], WrongSplitCount)
        assert type(errors[2]) is DomainError and str(errors[2]) == "array must not contain infs or NaNs"
        Z = np.block([[F[3], -np.eye(2)], [np.zeros((2, 2)), -F[3].T]])
        X_schur, (error,) = _schur_solutions(Z[None])
        assert error is None and X[3].tobytes() == X_schur[0].tobytes()
        assert_allclose(X[3], np.zeros((2, 2)), atol=1e-15)
        X_alone, (error,) = _riccati_solutions(*(X[None] for X in good), norms(good[3][None]))
        assert error is None and X[0].tobytes() == X_alone[0].tobytes()

    @pytest.mark.filterwarnings("error")
    def test_scale_of_the_cancelled_terms_keeps_the_eigenvector_solution(self, schur_calls):
        # H of round-off size, as where V1 - V12 V2^-1 V12^T cancels: X is
        # as small, and the eigenvectors give it to round-off of the
        # cancelled terms, here of norm 1; measured against ||H|| alone,
        # neither route's X passes
        F, H = np.array([[[-1.0, 0.3], [0.2, -2.0]]]), np.array([[[1e-17, 5e-18], [5e-18, 2e-17]]])
        B = M = np.eye(2)[None]
        X, (error,) = _riccati_solutions(F, B, M, H, np.array([1.0]))
        assert error is None and schur_calls == [] and passes_the_residual_check(F[0], B[0], M[0], H[0], 1.0, X[0])
        X, (error,) = _riccati_solutions(F, B, M, H, norms(H))
        assert schur_calls == [[None]] and isinstance(error, NoStabilizingSolution)
        assert "Riccati residual" in str(error)

    @pytest.mark.filterwarnings("error")
    def test_solution_with_an_overflowing_residual_is_refused(self, schur_calls):
        # X = 1e150, whose residual is finite but has an overflowing norm
        F, H = np.array([[[-1.0]]]), np.array([[[1e300]]])
        B = M = np.eye(1)[None]
        _, (error,) = _riccati_solutions(F, B, M, H, np.array([1e300]))
        assert schur_calls == [[None]] and isinstance(error, NoStabilizingSolution)

    def test_schur_solution_that_fails_the_residual_check_is_refused(self, schur_calls, monkeypatch):
        # the Jordan-block slice takes the Schur route; a basis perturbed
        # off its invariant subspace gives an X with a large residual
        F, B, M, H = np.array([[[-1.0, 1.0], [0.0, -1.0]]]), np.eye(2)[None], np.eye(2)[None], np.zeros((1, 2, 2))
        basis = qobs.solvers.stable_subspace

        def perturbed(Z):
            X1, X2 = basis(Z)
            return X1, X2 + 1e-3 * np.eye(len(X2))

        _, (error,) = _riccati_solutions(F, B, M, H, norms(H))
        assert error is None and len(schur_calls) == 1
        monkeypatch.setattr(qobs.solvers, "stable_subspace", perturbed)
        _, (error,) = _riccati_solutions(F, B, M, H, norms(H))
        assert schur_calls[1] == [None] and isinstance(error, NoStabilizingSolution)

    @pytest.mark.parametrize("route", ["eigenvectors", "schur"])
    def test_every_solution_returned_passes_the_residual_check(self, route, monkeypatch):
        # random CAREs, some with H of round-off size, and Jordan blocks;
        # the Schur route, made to decide every slice where eig does not
        # converge, is held to the same check
        if route == "schur":
            monkeypatch.setattr(np.linalg, "eig", eig_that_does_not_converge)
        rng = np.random.default_rng(27)
        for n in (1, 2, 3, 4):
            F, B, H = (rng.normal(size=(40, n, n)) for _ in range(3))
            M = np.broadcast_to(np.eye(n), (40, n, n))
            H = H @ H.swapaxes(-1, -2)
            H[::4] *= 1e-17
            F[1::4] = -np.eye(n) + np.eye(n, k=1)
            B[1::4], H[1::4] = np.eye(n), 0.0
            H_scale = np.where(np.arange(40) % 8 == 0, 1.0, norms(H))
            X, errors = _riccati_solutions(F, B, M, H, H_scale)
            kept = [i for i, error in enumerate(errors) if error is None]
            assert len(kept) >= 20
            for i in kept:
                assert passes_the_residual_check(F[i], B[i], M[i], H[i], H_scale[i], X[i])

    @pytest.mark.parametrize("stratum, index", CANCELLING_CARES)
    def test_cancelling_care_is_decided_by_the_eigenvector_route(self, stratum, index, perfbench_workloads, schur_calls):
        # measured against ||H|| alone, these rho = 0 solutions failed the
        # residual check, and the Schur route decided them
        plant = perfbench_workloads.pool_plant(stratum, index)
        (kd,) = _kalman_step([plant], 0.0)
        assert isinstance(kd, qobs.solvers.KalmanDesign) and schur_calls == []
        A, C, V1, V12, V2 = qobs.observers._care_inputs(_plant_matrices([plant]), 0.0)
        F, B, M, H = _care_coefficients(A, C, V1, V12, np.linalg.inv(V2))
        assert not passes_the_residual_check(F, B, M, H, norms(H), kd.Q)

    def test_eig_that_does_not_converge_leaves_every_slice_to_the_schur_route(self, schur_calls, monkeypatch):
        good = _care_coefficients(*cavity_noise_blocks(*co.S2, 10.0)[:4], np.eye(2))
        coefficients = [np.stack([X, 2.0 * X]) for X in good]
        monkeypatch.setattr(np.linalg, "eig", eig_that_does_not_converge)
        X, errors = _riccati_solutions(*coefficients, norms(coefficients[3]))
        X_schur, schur_errors = _schur_solutions(_hamiltonian(*coefficients)[0])
        assert schur_calls == [[None, None]] and errors == schur_errors == [None, None]
        assert X.tobytes() == X_schur.tobytes()

    def test_schur_traffic_of_the_default_sweeps_and_the_pool(self, schur_calls, perfbench_workloads):
        # the slices the eigenvector route leaves to the Schur loop: on the
        # three default sweeps, imaginary-axis Hamiltonians only; on pool
        # plant 0 of each stratum, none that the Schur loop solves; a change
        # to the eigenvector route's checks shows up here
        for name in ("s1", "s2", "s3"):
            run_sweep(scenario_config(name))
        reasons = Counter(type(error).__name__ for call in schur_calls for error in call)
        assert reasons == {"ImaginaryAxisEigenvalue": 83}
        schur_calls.clear()
        for stratum in range(len(perfbench_workloads.STRATA)):
            plant = perfbench_workloads.pool_plant(stratum, 0)
            for design in (design_algorithm1, design_algorithm2, design_algorithm3, design_classical):
                design(plant)
        assert all(error is not None for call in schur_calls for error in call)


class TestSolveLyapunovStack:
    def test_matches_solve_lyapunov(self):
        # n = 8 takes more than one chunk of Kronecker operators
        rng = np.random.default_rng(41)
        for n, m in ((2, 5), (8, 40)):
            M = rng.normal(size=(m, n, n))
            shift = np.max(np.linalg.eigvals(M).real, axis=-1) + 0.3
            A = M - shift[:, None, None] * np.eye(n)
            G = rng.normal(size=(m, n, n))
            N = G @ np.swapaxes(G, -1, -2)
            P = _solve_lyapunov_stack(A, N)
            for k in range(m):
                assert_allclose(P[k], solve_lyapunov(A[k], N[k]), rtol=1e-10, atol=1e-12)


class TestSolveLyapunov:
    def test_scalar_balance(self):
        assert_allclose(solve_lyapunov(-0.1 * np.eye(2), 0.2 * np.eye(2)), np.eye(2))

    def test_scenario1_alg1_metric_value(self):
        assert_allclose(solve_lyapunov(-0.1 * np.eye(2), 2.0 * np.eye(2)), 10.0 * np.eye(2))

    def test_unstable_input_rejected(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(0.1 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize(
        "A_e, N",
        [(np.full((2, 2), np.nan), np.eye(2)), (-np.eye(2), np.full((2, 2), np.nan)), (-np.eye(2), np.full((2, 2), np.inf))],
    )
    def test_non_finite_input_rejected(self, A_e, N):
        with pytest.raises(DomainError, match="must be finite"):
            solve_lyapunov(A_e, N)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.choice([2, 4, 6]))
            M = rng.normal(size=(n, n))
            A = M - (np.max(np.linalg.eigvals(M).real) + 0.3) * np.eye(n)
            G = rng.normal(size=(n, n))
            N = G @ G.T
            P = solve_lyapunov(A, N)
            ref = scipy.linalg.solve_continuous_lyapunov(A, -N)
            assert_allclose(P, ref, rtol=1e-9, atol=1e-11)
            assert np.max(np.abs(A @ P + P @ A.T + N)) <= 1e-8 * (1.0 + np.linalg.norm(P))


class TestIntegrateCovariance:
    def test_fixed_point(self):
        A = -0.1 * np.eye(2)
        N = 0.2 * np.eye(2)
        P = solve_lyapunov(A, N)
        out = integrate_covariance(A, N, P, horizon=50.0)
        assert_allclose(out, P, atol=1e-6)

    def test_analytic_scalar_relaxation(self):
        # p(t) = 1 - exp(-0.2 t) for dp/dt = -0.2 p + 0.2
        A = -0.1 * np.eye(2)
        N = 0.2 * np.eye(2)
        out = integrate_covariance(A, N, np.zeros((2, 2)), horizon=200.0)
        assert_allclose(out, (1.0 - np.exp(-40.0)) * np.eye(2), atol=1e-6)

    def test_homogeneous_decay(self):
        A = np.array([[-0.5, 0.2], [0.0, -0.3]])
        P0 = np.eye(2)
        out = integrate_covariance(A, np.zeros((2, 2)), P0, horizon=100.0)
        assert np.max(np.abs(out)) < 1e-10

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            integrate_covariance(-np.eye(2), np.eye(2), np.zeros((2, 2)), horizon=1.0, step=2.0)

    @pytest.mark.parametrize(
        "A_e,N,P0,horizon,step",
        [
            (np.eye(2), np.eye(3), np.zeros((2, 2)), 1.0, None),
            (np.eye(2), np.eye(2), np.zeros((3, 3)), 1.0, None),
            (np.ones((2, 3)), np.eye(2), np.zeros((2, 2)), 1.0, None),
            (np.ones(2), np.ones(2), np.ones(2), 1.0, None),
            (np.full((2, 2), np.nan), np.eye(2), np.zeros((2, 2)), 1.0, None),
            (-np.eye(2), np.full((2, 2), np.inf), np.zeros((2, 2)), 1.0, None),
            (-np.eye(2), np.eye(2), np.full((2, 2), np.nan), 1.0, None),
            (-np.eye(2), np.eye(2), np.zeros((2, 2)), np.nan, None),
            (-np.eye(2), np.eye(2), np.zeros((2, 2)), np.inf, None),
            (-np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0, np.nan),
            (-np.eye(2), np.eye(2), np.zeros((2, 2)), 1.0, 5e-324),
            (-np.eye(2), np.eye(2), np.zeros((2, 2)), 1e308, 1e-10),
        ],
    )
    def test_malformed_input_rejected(self, A_e, N, P0, horizon, step):
        with pytest.raises(DomainError):
            integrate_covariance(A_e, N, P0, horizon, step)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_step_loop(self, n, n_steps):
        rng = np.random.default_rng(100 * n + n_steps)
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        G = rng.normal(size=(n, n))
        N = G @ G.T
        P0 = rng.normal(size=(n, n))  # not symmetric: the map acts on all of vec(P)
        horizon = 5.0
        step = horizon / (n_steps + 0.25)  # rounds to n_steps, and lies below horizon for n_steps = 1
        ref = rk4_step_loop(A, N, P0, horizon, step)
        out = integrate_covariance(A, N, P0, horizon, step)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_divergence_kept(self):
        # A_e = a I gives L = 2a I, so every entry follows the scalar RK4 map
        # p -> T4(x) p + h S(x) N with x = 2 a h; |T4(-3)| = 1.375 > 1 lies
        # beyond RK4's stability bound (|x| about 2.785).
        a, h, n_steps = -1.5, 1.0, 40
        x = 2.0 * a * h
        T4 = 1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0
        S = 1.0 + x / 2.0 + x**2 / 6.0 + x**3 / 24.0
        N = np.array([[1.0, 0.5], [0.5, 2.0]])
        P0 = np.array([[0.3, -1.0], [2.0, 0.7]])
        expected = T4**n_steps * P0 + (T4**n_steps - 1.0) / (T4 - 1.0) * h * S * N
        out = integrate_covariance(a * np.eye(2), N, P0, horizon=n_steps * h, step=h * 0.99)
        assert np.abs(T4) > 1.0
        assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("horizon,step", [(1.0, 1e-9), (200.0, 2e-7)])
    def test_billion_steps_return_at_once(self, horizon, step):
        # the relaxation of test_analytic_scalar_relaxation at 1e9 steps,
        # which a step loop would take hours to walk through
        A = -0.1 * np.eye(2)
        N = 0.2 * np.eye(2)
        start = time.perf_counter()
        out = integrate_covariance(A, N, np.zeros((2, 2)), horizon, step)
        assert time.perf_counter() - start < 1.0
        assert_allclose(out, (1.0 - np.exp(-0.2 * horizon)) * np.eye(2), atol=1e-8)


class TestStableSubspace:
    def test_diagonal_split(self):
        X1, X2 = stable_subspace(np.diag([-1.0, 1.0]))
        # the stacked column spans e1
        v = np.concatenate([X1.ravel(), X2.ravel()])
        assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-14)

    def test_cavity_transform_matrix_eigenvalues(self):
        # filter (aI, kI, I): the doubled matrix has eigenvalues
        # +/- sqrt(a^2 - k^2), each twice (block-determinant reduction)
        a = co.ahat(0.1, 0.1, 0.1)
        k = co.gain(0.1, 0.1, 0.1)
        Z = np.block([[a * np.eye(2), -k * k * J], [-J, -a * np.eye(2)]])
        eigs = np.sort(np.linalg.eigvals(Z).real)
        lam = np.sqrt(a * a - k * k)
        assert_allclose(eigs, [-lam, -lam, lam, lam], atol=1e-12)
        X1, X2 = stable_subspace(Z)
        X = X2 @ np.linalg.inv(X1)
        assert_allclose(X.real, co.x_root(a, k) * J, atol=1e-9)

    def test_imaginary_axis_detected(self):
        a = co.ahat(0.5, 0.01, 70.0)
        k = co.gain(0.5, 0.01, 70.0)
        assert a * a < k * k  # oracle: purely imaginary spectrum
        Z = np.block([[a * np.eye(2), -k * k * J], [-J, -a * np.eye(2)]])
        with pytest.raises(ImaginaryAxisEigenvalue):
            stable_subspace(Z)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            stable_subspace(np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, value):
        Z = np.diag([-1.0, 1.0])
        Z[0, 1] = value
        with pytest.raises(DomainError, match="infs or NaNs"):
            stable_subspace(Z)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_schur_route_gives_each_slice_what_stable_subspace_raises(self, n):
        # Hamiltonians, whose spectra split evenly, and general matrices,
        # which mostly do not; one slice is not finite
        rng = np.random.default_rng(n)
        F, G, H = (rng.normal(size=(12, n, n)) for _ in range(3))
        G, H = G @ G.swapaxes(-1, -2), H @ H.swapaxes(-1, -2)
        Z = np.concatenate([np.block([[F, -G], [-H, -F.swapaxes(-1, -2)]]), rng.normal(size=(12, 2 * n, 2 * n))])
        Z[5, 0, -1] = np.nan
        X, errors = _schur_solutions(Z)
        for Zi, Xi, error in zip(Z, X, errors):
            try:
                X1, X2 = stable_subspace(Zi)
            except (DomainError, WrongSplitCount, ImaginaryAxisEigenvalue) as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
                continue
            if error is None:
                assert Xi.tobytes() == (X2 @ np.linalg.inv(X1)).real.tobytes()
        assert {type(error).__name__ for error in errors} >= {"DomainError", "WrongSplitCount", "NoneType"}
        assert str(errors[5]) == "array must not contain infs or NaNs"
        assert type(errors[5]) is DomainError  # typed, where scipy.linalg.schur raises a ValueError

    def test_unbalanced_split_rejected(self):
        with pytest.raises(WrongSplitCount):
            stable_subspace(np.diag([-1.0, -2.0, -3.0, 1.0]))


class TestSolverCrossValidation:
    @pytest.mark.parametrize("scenario,kn", [(co.S1, 0.0), (co.S1, 10.0), (co.S2, 69.0)])
    def test_lyapunov_matches_integration(self, scenario, kn):
        k1, k2 = scenario
        kd = solve_care(*cavity_noise_blocks(k1, k2, kn))
        plant = make_cavity_plant(k1, k2, kn)
        A_e = plant.A - kd.K @ plant.C
        N = (plant.B - kd.K @ plant.D) @ plant.ito.S @ (plant.B - kd.K @ plant.D).T
        P = solve_lyapunov(A_e, N)
        horizon = 50.0 / abs(np.max(np.linalg.eigvals(A_e).real))
        P_int = integrate_covariance(A_e, N, np.zeros_like(P), horizon)
        assert np.max(np.abs(P - P_int)) < 1e-6
