"""Designer tests: the three coherent designs, the heterodyne baseline, the metric."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import cavity_oracle as co
import qobs.observers
from qobs import (
    DomainError,
    HamiltonianCoupling,
    NoiseChannel,
    canonical_theta,
    commutation_residual,
    default_frequency_grid,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    error_system,
    evaluate_performance,
    integrate_covariance,
    make_cavity_plant,
    min_vacuum_rank,
    realize_from_hamiltonian,
    solve_care,
    transfer_function_gap,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def care_calls(monkeypatch):
    """The argument tuples of every ``solve_care`` call the designers make."""
    calls = []
    solve_care = qobs.observers.solve_care

    def counting_solve_care(*args):
        calls.append(args)
        return solve_care(*args)

    monkeypatch.setattr(qobs.observers, "solve_care", counting_solve_care)
    return calls


@pytest.fixture
def augment_calls(monkeypatch):
    """The argument tuples of every ``augment_noise`` call the designers make."""
    calls = []
    augment_noise = qobs.observers.augment_noise

    def counting_augment_noise(*args):
        calls.append(args)
        return augment_noise(*args)

    monkeypatch.setattr(qobs.observers, "augment_noise", counting_augment_noise)
    return calls


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_kalman_design_holds_the_filter_matrix(rho):
    # solve_care forms A - K C once; the augmented observer holds that array
    plant = make_cavity_plant(*co.S2, 69.0)
    kd = qobs.observers._kalman_step(plant, rho)
    assert kd.A_hat.tobytes() == (plant.A - kd.K @ plant.C).tobytes()
    provenance = qobs.observers.Provenance("alg2", rho=rho)
    assert qobs.observers._augmented_design(plant, kd, provenance).A_hat is kd.A_hat


@pytest.mark.parametrize("kn", [69.0, 70.0])  # alg3 transformed / fallback
def test_every_observer_holds_its_filter_matrix(kn):
    plant = make_cavity_plant(*co.S2, kn)
    observers = [design_algorithm1(plant), design_algorithm2(plant)[0]]
    for obs in observers + [design_algorithm3(plant)[0], design_classical(plant)]:
        assert obs.A_hat is obs.design.A_hat
        assert obs.A_hat.tobytes() == (plant.A - obs.design.K @ plant.C).tobytes()


class TestAlgorithm1:
    def test_scenario1_vacuum_limit(self):
        obs = design_algorithm1(make_cavity_plant(0.1, 0.1, 0.0))
        assert np.max(np.abs(obs.design.K)) < 1e-12
        assert np.array_equal(obs.B_v1, -np.eye(2))
        assert obs.n_v2 == 2

    def test_scenario1_kn10_filter(self):
        obs = design_algorithm1(make_cavity_plant(0.1, 0.1, 10.0))
        assert_allclose(obs.A_hat, co.ahat(0.1, 0.1, 10.0) * np.eye(2), rtol=1e-10)
        assert_allclose(obs.B_hat, co.gain(0.1, 0.1, 10.0) * np.eye(2), rtol=1e-10)
        assert np.array_equal(obs.C_hat, np.eye(2))

    @pytest.mark.parametrize("scenario", [co.S1, co.S2, co.S3])
    @pytest.mark.parametrize("kn", [0.0, 0.5, 12.0, 200.0])
    def test_cavity_family_needs_two_extra_quadratures(self, scenario, kn):
        obs = design_algorithm1(make_cavity_plant(*scenario, kn))
        assert obs.n_v2 == 2

    def test_filter_pole_is_stable(self):
        for kn in (0.0, 1.0, 50.0):
            obs = design_algorithm1(make_cavity_plant(0.8, 0.01, kn))
            assert np.max(np.linalg.eigvals(obs.A_hat).real) < 0.0


class TestAlgorithm2:
    def test_zero_inflation_reproduces_algorithm1(self):
        plant = make_cavity_plant(0.1, 0.1, 3.0)
        obs1 = design_algorithm1(plant)
        obs2, rho_opt, curve = design_algorithm2(plant, rho_candidates=[0.0])
        assert rho_opt == 0.0
        assert_allclose(obs2.A_hat, obs1.A_hat)
        assert_allclose(obs2.B_hat, obs1.B_hat)
        assert_allclose(obs2.B_v2 @ obs2.B_v2.T, obs1.B_v2 @ obs1.B_v2.T)
        assert len(curve) == 1

    def test_never_worse_than_algorithm1(self):
        for kn in (0.0, 0.7, 10.0, 123.0):
            plant = make_cavity_plant(0.5, 0.01, kn)
            trace1 = evaluate_performance(plant, design_algorithm1(plant)).trace
            _, _, curve = design_algorithm2(plant)
            best = min(tr for _, tr in curve)
            zero_entry = [tr for rho, tr in curve if rho == 0.0]
            assert zero_entry and abs(zero_entry[0] - trace1) <= 1e-12
            assert best <= trace1 + 1e-12

    def test_huge_inflation_disables_the_gain(self):
        # K -> 0, so the metric approaches the zero-gain observer's value,
        # which the scalar oracle gives in closed form:
        # N = B S_w B^T + 1 + |defect(a, 0)| against pole a = -(k1+k2)/2
        k1 = k2 = 0.1
        kn = 5.0
        a = -(k1 + k2) / 2.0
        n_ref = k1 + k2 * (1.0 + 2.0 * kn) + 1.0 + abs(co.stilde_coefficient(a, 0.0))
        ref = 2.0 * co.lyap_scalar(a, n_ref)
        plant = make_cavity_plant(k1, k2, kn)
        _, _, curve = design_algorithm2(plant, rho_candidates=[0.0, 1e6])
        big = dict(curve)[1e6]
        assert abs(big - ref) <= 1e-6 * ref

    def test_requires_zero_candidate(self):
        plant = make_cavity_plant(0.1, 0.1, 1.0)
        with pytest.raises(Exception, match="include 0"):
            design_algorithm2(plant, rho_candidates=[0.5])

    def test_empty_candidate_list_is_refused(self):
        with pytest.raises(DomainError, match="must be non-empty"):
            design_algorithm2(make_cavity_plant(0.1, 0.1, 1.0), rho_candidates=[])

    def test_every_candidate_failing_is_refused_with_reasons(self):
        # with D = 0 the measurement-noise intensity of the rho = 0 filter is zero
        plant = make_cavity_plant(0.1, 0.1, 1.0)
        plant = dataclasses.replace(plant, D=np.zeros((2, 4)))
        with pytest.raises(DomainError, match="every rho candidate failed") as exc:
            design_algorithm2(plant, rho_candidates=[0.0])
        assert "rho=0.0: DomainError: measurement-noise intensity V2 is not positive definite" in str(exc.value)

    def test_rank_mismatch_plant(self):
        # a random plant on which augment_noise used to count the vacuum rank
        # twice, at two thresholds, and fail with an untyped numpy ValueError
        entry = json.loads((DATA / "rank_mismatch_plant.json").read_text())["plant"]
        lam = np.array(entry["lambda_re"]) + 1j * np.array(entry["lambda_im"])
        channels = [
            NoiseChannel.thermal(k_n) if kind == "thermal" else NoiseChannel.vacuum()
            for kind, k_n in entry["channels"]
        ]
        plant = realize_from_hamiltonian(
            HamiltonianCoupling(np.array(entry["R"]), lam, entry["n_y"]), channels
        )
        obs, _, _ = design_algorithm2(plant)
        assert obs.n_v2 == min_vacuum_rank(obs.A_hat, obs.B_hat, obs.C_hat, plant.theta)
        gains = [obs.B_hat, obs.B_v1, obs.B_v2]
        blocks = [np.kron(np.eye(G.shape[1] // 2), J) for G in gains]
        res = commutation_residual(obs.A_hat, gains, plant.theta, blocks)
        assert np.linalg.norm(res) <= 1e-8 * (1.0 + np.linalg.norm(obs.A_hat))

    def test_each_rho_is_designed_once(self, care_calls):
        # the golden-section pass carries one interior point forward per
        # iteration; that point must not be designed a second time
        _, _, curve = design_algorithm2(make_cavity_plant(*co.S2, 69.0))
        assert len(care_calls) == len(curve) == len({rho for rho, _ in curve}) == 83

    def test_curve_is_deterministic(self):
        plant = make_cavity_plant(0.5, 0.01, 20.0)
        _, rho_a, curve_a = design_algorithm2(plant)
        _, rho_b, curve_b = design_algorithm2(plant)
        assert rho_a == rho_b
        assert curve_a == curve_b


class TestAlgorithm3:
    def test_success_below_threshold(self):
        obs, reason = design_algorithm3(make_cavity_plant(0.1, 0.1, 0.1))
        assert reason is None
        assert obs.provenance.transformed is True
        assert obs.n_v2 == 0
        assert obs.B_v2.shape == (2, 0)

    def test_noise_gain_matches_scalar_oracle(self):
        plant = make_cavity_plant(0.1, 0.1, 0.1)
        obs, _ = design_algorithm3(plant)
        a = co.ahat(0.1, 0.1, 0.1)
        k = co.gain(0.1, 0.1, 0.1)
        x = co.x_root(a, k)
        assert_allclose(obs.noise_gain_v1 @ obs.noise_gain_v1.T, (1.0 / x**2) * np.eye(2), rtol=1e-9)

    @pytest.mark.parametrize(
        "scenario,last_success,first_failure",
        [(co.S2, 69, 70), (co.S3, 909, 910)],
    )
    def test_existence_boundaries(self, scenario, last_success, first_failure):
        k1, k2 = scenario
        _, r_ok = design_algorithm3(make_cavity_plant(k1, k2, float(last_success)))
        _, r_bad = design_algorithm3(make_cavity_plant(k1, k2, float(first_failure)))
        assert r_ok is None
        assert r_bad == "ImaginaryAxisEigenvalue"

    def test_fallback_returns_algorithm1_observer(self):
        plant = make_cavity_plant(0.5, 0.01, 70.0)
        obs3, reason = design_algorithm3(plant)
        obs1 = design_algorithm1(plant)
        assert reason == "ImaginaryAxisEigenvalue"
        assert obs3.provenance.algorithm == "alg3"
        assert obs3.provenance.transformed is False
        assert obs3.transform is None
        for name in ("A_hat", "B_hat", "C_hat", "B_v1", "B_v2", "noise_gain_v1"):
            assert np.array_equal(getattr(obs3, name), getattr(obs1, name)), name
        assert np.array_equal(obs3.design.Q, obs1.design.Q)
        assert np.array_equal(obs3.design.K, obs1.design.K)
        assert obs3.n_v2 == obs1.n_v2 == 2

    @pytest.mark.parametrize("kn", [69.0, 70.0])  # transformed / fallback
    def test_one_kalman_solve(self, care_calls, kn):
        design_algorithm3(make_cavity_plant(*co.S2, kn))
        assert len(care_calls) == 1

    @pytest.mark.parametrize("kn, augmentations", [(69.0, 0), (70.0, 1)])  # transformed / fallback
    def test_augments_only_when_the_transform_fails(self, augment_calls, kn, augmentations):
        _, reason = design_algorithm3(make_cavity_plant(*co.S2, kn))
        assert (reason is None) == (augmentations == 0)
        assert len(augment_calls) == augmentations

    def test_transformed_noise_gain_is_derived(self):
        obs, _ = design_algorithm3(make_cavity_plant(*co.S2, 69.0))
        assert np.array_equal(obs.B_v1, obs.transform.B_v1_tilde)
        assert np.array_equal(obs.noise_gain_v1, np.linalg.solve(obs.transform.T, obs.B_v1))

    def test_success_passes_zero_channel_commutation_test(self):
        plant = make_cavity_plant(0.5, 0.01, 69.0)
        obs, _ = design_algorithm3(plant)
        tf = obs.transform
        res = commutation_residual(
            tf.A_tilde,
            [tf.B_tilde, tf.B_v1_tilde],
            plant.theta,
            [canonical_theta(1), canonical_theta(1)],
        )
        assert np.max(np.abs(res)) < 1e-8

    def test_success_preserves_transfer_function(self):
        plant = make_cavity_plant(0.8, 0.01, 909.0)
        obs, _ = design_algorithm3(plant)
        gap = transfer_function_gap(
            (obs.A_hat, obs.B_hat, obs.C_hat),
            (obs.transform.A_tilde, obs.transform.B_tilde, obs.transform.C_tilde),
            default_frequency_grid(),
        )
        assert gap <= 1e-8


class TestClassical:
    def test_one_kalman_solve(self, care_calls):
        design_classical(make_cavity_plant(*co.S2, 69.0))
        assert len(care_calls) == 1

    def test_gain_is_the_unit_inflation_filter(self):
        # heterodyne detection adds one unit of vacuum noise to the record:
        # the filter of the rho = 1 family member, designed against V2 + I
        rng = np.random.default_rng(5)
        G = rng.normal(size=(4, 4))
        lam = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        plant = realize_from_hamiltonian(
            HamiltonianCoupling((G + G.T) / 2.0, lam, n_y=2),
            [NoiseChannel.vacuum(), NoiseChannel.thermal(3.0)],
        )
        S_w = plant.ito.S
        V2 = plant.D @ S_w @ plant.D.T + np.eye(2)
        kd = solve_care(plant.A, plant.C, plant.B @ S_w @ plant.B.T, plant.B @ S_w @ plant.D.T, V2)
        K = design_classical(plant).K
        assert np.array_equal(K, kd.K)
        assert np.array_equal(K, qobs.observers._kalman_step(plant, 1.0).K)

    def test_vacuum_limit_gain_and_metric(self):
        plant = make_cavity_plant(0.1, 0.1, 0.0)
        obs = design_classical(plant)
        assert np.max(np.abs(obs.K)) < 1e-12
        rep = evaluate_performance(plant, obs)
        assert_allclose(rep.J_bar, np.eye(2), atol=1e-10)

    def test_metric_equals_riccati_solution(self):
        # the heterodyne filter is optimal for its own noise model, so its
        # steady error covariance is exactly the Riccati solution
        for kn in (0.0, 2.0, 40.0):
            plant = make_cavity_plant(0.5, 0.01, kn)
            obs = design_classical(plant)
            rep = evaluate_performance(plant, obs)
            assert_allclose(rep.J_bar, obs.design.Q, rtol=1e-9)


class TestErrorSystem:
    def test_coherent_noise_budget_at_vacuum_point(self):
        plant = make_cavity_plant(0.1, 0.1, 0.0)
        obs = design_algorithm1(plant)
        A_e, B_e, S = error_system(plant, obs)
        assert_allclose(B_e @ S @ B_e.T, 2.0 * np.eye(2), atol=1e-12)
        assert_allclose(A_e, -0.1 * np.eye(2), atol=1e-12)

    def test_classical_noise_budget_at_vacuum_point(self):
        plant = make_cavity_plant(0.1, 0.1, 0.0)
        obs = design_classical(plant)
        _, B_e, S = error_system(plant, obs)
        assert_allclose(B_e @ S @ B_e.T, 0.2 * np.eye(2), atol=1e-12)

    def test_joint_intensity_is_block_diagonal(self):
        plant = make_cavity_plant(0.5, 0.01, 7.0)
        obs = design_algorithm1(plant)
        _, B_e, S = error_system(plant, obs)
        n_w = plant.n_w
        assert np.all(S[:n_w, n_w:] == 0)
        assert np.all(S[n_w:, :n_w] == 0)
        assert np.array_equal(S[n_w:, n_w:], np.eye(S.shape[0] - n_w))


class TestEvaluatePerformance:
    def test_scenario1_vacuum_values(self):
        plant = make_cavity_plant(0.1, 0.1, 0.0)
        rep1 = evaluate_performance(plant, design_algorithm1(plant))
        assert_allclose(rep1.J_bar, 10.0 * np.eye(2), atol=1e-10)
        assert rep1.trace == pytest.approx(20.0, abs=1e-10)
        repc = evaluate_performance(plant, design_classical(plant))
        assert_allclose(repc.J_bar, np.eye(2), atol=1e-10)

    def test_report_summaries(self):
        plant = make_cavity_plant(0.1, 0.1, 1.0)
        rep = evaluate_performance(plant, design_algorithm1(plant))
        assert rep.trace == pytest.approx(np.trace(rep.J_bar))
        assert rep.frobenius == pytest.approx(np.linalg.norm(rep.J_bar))
        assert rep.hurwitz_margin > 0
        assert_allclose(rep.J_bar, rep.J_bar.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(rep.J_bar)) >= 0.0

    def test_agrees_with_integrated_covariance(self):
        plant = make_cavity_plant(0.5, 0.01, 5.0)
        obs = design_algorithm1(plant)
        A_e, B_e, S = error_system(plant, obs)
        rep = evaluate_performance(plant, obs)
        horizon = 50.0 / rep.hurwitz_margin
        P = integrate_covariance(A_e, B_e @ S @ B_e.T, np.zeros_like(rep.J_bar), horizon)
        assert np.max(np.abs(P - rep.J_bar)) < 1e-6

    def test_jbar_invariant_under_extra_gain_rotations(self):
        # the extra-channel gain is unique only up to per-channel rotations;
        # the metric must not see them
        rng = np.random.default_rng(11)
        plant = make_cavity_plant(0.1, 0.1, 10.0)
        obs = design_algorithm1(plant)
        ref = evaluate_performance(plant, obs).J_bar
        for _ in range(5):
            phis = rng.uniform(0.0, 2.0 * np.pi, size=obs.n_v2 // 2)
            rot = scipy.linalg.block_diag(
                *[np.array([[np.cos(f), np.sin(f)], [-np.sin(f), np.cos(f)]]) for f in phis]
            )
            twisted = dataclasses.replace(obs, B_v2=obs.B_v2 @ rot)
            again = evaluate_performance(plant, twisted).J_bar
            assert np.max(np.abs(again - ref)) < 1e-10

    @pytest.mark.parametrize("designer", [design_algorithm1, design_classical])
    def test_error_poles_always_stable(self, designer):
        for kn in (0.0, 0.3, 33.0, 500.0):
            plant = make_cavity_plant(0.8, 0.01, kn)
            obs = designer(plant)
            assert np.max(np.linalg.eigvals(obs.A_hat).real) < 0.0
