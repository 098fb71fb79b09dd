"""Designer tests: the three coherent designs, the heterodyne baseline, the metric."""

import dataclasses
import hashlib
import json
import logging
import tracemalloc
from collections import Counter
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
    NoStabilizingSolution,
    QobsError,
    canonical_theta,
    commutation_residual,
    default_frequency_grid,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    default_rho_grid,
    error_system,
    evaluate_performance,
    integrate_covariance,
    make_cavity_plant,
    min_vacuum_rank,
    realize_from_hamiltonian,
    solve_care,
    transfer_function_gap,
)
from qobs.sweep import default_kn_grid
from qobs.solvers import _care_coefficients, riccati_residual
from qobs.systems import CHECK_RTOL

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
DATA = Path(__file__).resolve().parent / "data"
#: every fourth default-grid point plus the transformation boundaries
CAVITY_KNS = sorted(set(default_kn_grid()[::4]) | {69.0, 70.0, 909.0, 910.0})
#: SHA-256 of alg2's answers (rho_opt, trace, J_bar bytes, skip log) on pool plant 0 of each perfbench stratum
POOL_ALG2_SHA256 = "42940f6f76b2782a0cbbffcfaf8522b0737bc406831ae1b0d3b8313b21af0141"


def reference_outcome(plant, rho):
    """The trace of the alg2 design at ``rho``, or the ``"reason: message"`` of its error, designed and scored alone."""
    (kd,) = qobs.observers._kalman_step([plant], rho)
    (obs,) = qobs.observers._augmented_designs([plant], [kd], [qobs.observers.Provenance("alg2", rho=rho)])
    try:
        if isinstance(obs, QobsError):
            raise obs
        return evaluate_performance(plant, obs).trace
    except QobsError as error:
        return f"{error.reason_code}: {error}"


def assert_decides_as_the_reference_path(plant, caplog):
    """design_algorithm2's answer and skip log are the reference path's, which designs and scores each candidate alone.

    Returns the number of positive grid candidates scored.
    """
    caplog.set_level(logging.DEBUG, logger="qobs.observers")
    caplog.clear()
    obs, rho_opt, curve = design_algorithm2(plant)
    skips = [record.getMessage() for record in caplog.records]
    grid = default_rho_grid()
    reference = {rho: reference_outcome(plant, rho) for rho in sorted({*grid.tolist(), *dict(curve)})}
    scored = {rho: outcome for rho, outcome in reference.items() if not isinstance(outcome, str)}
    assert curve == sorted(scored.items())
    assert skips == [f"skipping rho={rho:g}: {outcome}" for rho, outcome in reference.items() if isinstance(outcome, str)]
    assert rho_opt == min(sorted(scored), key=scored.get)
    assert evaluate_performance(plant, obs).trace == scored[rho_opt]
    return sum(rho in scored for rho in grid[1:].tolist())


INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def alg2_answer(outcome):
    """``(rho_opt, curve, A_hat, B_hat, B_v2)`` of an alg2 outcome, the observer as bytes."""
    obs, rho_opt, curve = outcome
    return rho_opt, curve, obs.A_hat.tobytes(), obs.B_hat.tobytes(), obs.B_v2.tobytes()


def one_call_per_iteration(plant):
    """alg2's answer with one scorer call per golden-section iteration, and the bracket before each iteration.

    The default grid goes through one ``_alg2_traces`` call, then each
    iteration scores its new points alone; the scorer is looked up on each
    call, so a test can wrap it.
    """
    matrices, filters = qobs.observers._plant_matrices([plant]), qobs.observers._kalman_step([plant], 0.0)
    grid = default_rho_grid().tolist()
    outcomes = qobs.observers._alg2_traces(matrices, filters, [(0, rho) for rho in grid])
    scored = {rho: outcome for rho, outcome in zip(grid, outcomes) if not isinstance(outcome, QobsError)}
    ordered = list(scored)
    j = ordered.index(min(scored, key=scored.get))
    a, b = ordered[max(j - 1, 0)], ordered[min(j + 1, len(ordered) - 1)]
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    brackets = []
    while b > a and len(brackets) < 20:
        brackets.append((a, b, c, d))
        items = [(0, rho) for rho in dict.fromkeys((c, d)) if rho not in scored]
        outcomes = dict(zip(items, qobs.observers._alg2_traces(matrices, filters, items)))
        for rho in (c, d):  # d is kept only after c succeeded
            outcome = outcomes.get((0, rho))
            failed = isinstance(outcome, QobsError)
            if failed:
                break
            if outcome is not None:
                scored[rho] = outcome
        if failed:
            break
        if scored[c] < scored[d]:
            b, d = d, c
            c = b - INV_PHI * (b - a)
        else:
            a, c = c, d
            d = a + INV_PHI * (b - a)
    rho_opt = min(sorted(scored), key=scored.get)
    kd = filters[0] if rho_opt == 0.0 else qobs.observers._kalman_step([plant], rho_opt)[0]
    (obs,) = qobs.observers._augmented_designs([plant], [kd], [qobs.observers.Provenance("alg2", rho=rho_opt)])
    return alg2_answer((obs, rho_opt, sorted(scored.items()))), brackets


def alg2_plants(family, perfbench_workloads):
    """The cavity at ``CAVITY_KNS`` in the three scenarios, or pool plant 0 of each perfbench stratum."""
    if family == "cavity":
        return [make_cavity_plant(*scenario, kn) for scenario in (co.S1, co.S2, co.S3) for kn in CAVITY_KNS]
    return [perfbench_workloads.pool_plant(stratum, 0) for stratum in range(len(perfbench_workloads.STRATA))]


def slices(args):
    """The argument tuple of each slice of a stack routine's call; a single call is one slice."""
    args = [np.asarray(a) for a in args]
    m = max((a.shape[0] for a in args if a.ndim == 3), default=None)
    if m is None:
        return [tuple(args)]
    return [tuple(a[i] if a.ndim == 3 else a for a in args) for i in range(m)]


def counting(monkeypatch, name):
    """The argument tuples of the slices of every ``name`` call the designers make."""
    calls = []
    routine = getattr(qobs.observers, name)

    def counted(*args):
        calls.extend(slices(args))
        return routine(*args)

    monkeypatch.setattr(qobs.observers, name, counted)
    return calls


@pytest.fixture
def care_calls(monkeypatch):
    """The argument tuples of every ``solve_care`` slice the designers solve."""
    return counting(monkeypatch, "solve_care")


@pytest.fixture
def augment_calls(monkeypatch):
    """The argument tuples of every ``augment_noise`` slice the designers augment."""
    return counting(monkeypatch, "augment_noise")


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_kalman_design_holds_the_filter_matrix(rho):
    # solve_care forms A - K C once; the augmented observer holds that array
    plant = make_cavity_plant(*co.S2, 69.0)
    (kd,) = qobs.observers._kalman_step([plant], rho)
    assert kd.A_hat.tobytes() == (plant.A - kd.K @ plant.C).tobytes()
    provenance = qobs.observers.Provenance("alg2", rho=rho)
    assert qobs.observers._augmented_designs([plant], [kd], [provenance])[0].A_hat is kd.A_hat


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

    @pytest.mark.parametrize("rho", [np.inf, np.nan, 1e200])
    def test_candidate_without_a_finite_square_is_refused(self, rho):
        with pytest.raises(DomainError, match="finite squares"):
            design_algorithm2(make_cavity_plant(0.1, 0.1, 1.0), rho_candidates=[0.0, rho])

    def test_candidate_whose_square_underflows_is_skipped(self, caplog):
        # with D = 0, V2 = rho^2 I: zero for rho = 1e-200, and a subnormal
        # whose inverse overflows for rho = 1e-161; both are skipped for
        # their reasons, as rho = 0 is
        caplog.set_level(logging.DEBUG, logger="qobs.observers")
        plant = dataclasses.replace(make_cavity_plant(0.1, 0.1, 1.0), D=np.zeros((2, 4)))
        _, rho_opt, curve = design_algorithm2(plant, [0.0, 1e-200, 1e-161, 0.1])
        assert rho_opt == 0.1 and [rho for rho, _ in curve] == [0.1]
        skips = [record.getMessage() for record in caplog.records]
        assert len(skips) == 3 and skips[0].startswith("skipping rho=0:")
        assert "rho=1e-200: DomainError: measurement-noise intensity V2 is not positive definite" in skips[1]
        assert "rho=1e-161: DomainError: measurement-noise intensity V2 is too near singular" in skips[2]

    def test_negative_candidate_is_refused_as_negative(self):
        with pytest.raises(DomainError, match="must be non-negative, got -1.0"):
            design_algorithm2(make_cavity_plant(0.1, 0.1, 1.0), rho_candidates=[-1.0, 0.0, 0.5])

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

    def test_each_rho_is_scored_once(self, monkeypatch, care_calls):
        # the 61 positive grid candidates, the 21 golden-section points and
        # the 3 points scored ahead off the path taken each go through the
        # scorer's filter CARE once, though the golden-section pass carries
        # one interior point forward per iteration; the grid takes one
        # scorer call and the 20 iterations 3, of 11, 11 and 2 points;
        # solve_care runs only for the rho = 0 filter and the returned
        # observer
        scored = counting(monkeypatch, "_filter_cares")
        scorer, scorer_calls = qobs.observers._alg2_traces, []

        def counted(*args):
            scorer_calls.append(args[2])
            return scorer(*args)

        monkeypatch.setattr(qobs.observers, "_alg2_traces", counted)
        _, rho_opt, curve = design_algorithm2(make_cavity_plant(*co.S2, 69.0))
        assert len(curve) == len({rho for rho, _ in curve}) == 83
        designed = {tuple(M.tobytes() for M in args) for args in scored}
        assert len(scored) == len(designed) == 85
        assert [len(items) for items in scorer_calls] == [62, 11, 11, 2]
        assert len(care_calls) == 1 + (rho_opt != 0.0)

    def test_memory_stays_flat_on_a_large_plant(self, perfbench_workloads):
        # the batch's Kronecker operators are built in chunks: for the whole
        # grid at n_x = 8 they take 2 MB, and the linear solve copies them
        stratum = perfbench_workloads.STRATA.index((8, 3, 6))
        plant = perfbench_workloads.pool_plant(stratum, 0)
        design_algorithm2(plant)
        tracemalloc.start()
        try:
            design_algorithm2(plant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_memory_stays_flat_over_many_large_plants(self, perfbench_workloads, monkeypatch):
        # the golden-section rounds are chunked by whole plants as the grid
        # pass is: on 24 plants of stratum (8, 3, 6) the rounds, unchunked,
        # were calls of 264, 262 and 150 slices and peaked at 5.3 MB; each
        # plant still gets the answer of its own call
        stratum = perfbench_workloads.STRATA.index((8, 3, 6))
        plants = [perfbench_workloads.pool_plant(stratum, i) for i in range(24)]
        singles = [alg2_answer(design_algorithm2(plant)) for plant in plants]
        scorer, sizes = qobs.observers._alg2_traces, []

        def counted(*args):
            sizes.append(len(args[2]))
            return scorer(*args)

        monkeypatch.setattr(qobs.observers, "_alg2_traces", counted)
        tracemalloc.start()
        try:
            outcomes = qobs.observers._design_alg2(plants, qobs.observers._kalman_step(plants, 0.0), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [alg2_answer(outcome) for outcome in outcomes] == singles
        assert peak <= 2.5 * 2**20
        budget = 2 * qobs.observers.KRON_CHUNK_BYTES // (10 * 8 * (2 * 8) ** 2)  # 51 slices
        assert sizes[:24] == [len(default_rho_grid())] * 24  # a grid of 62 is a chunk of its own
        assert len(sizes) > 24 and max(sizes[24:]) <= budget

    def test_a_round_is_one_scorer_call_where_its_plants_fit_one_chunk(self, perfbench_workloads, monkeypatch):
        # the s2 sweep's 64 plants of n_x = 2 take at most 11 slices each in
        # a round, within the chunk of 819 slices: the grid pass takes five
        # calls of 13 plants or fewer, and each round one; a single plant
        # takes one call per pass
        chunked, scorer, calls, per_pass = qobs.observers._chunked_traces, qobs.observers._alg2_traces, [], []

        def counted(*args):
            calls.append(args[2])
            return scorer(*args)

        def counted_pass(*args):
            before = len(calls)
            outcomes = chunked(*args)
            per_pass.append(len(calls) - before)
            return outcomes

        monkeypatch.setattr(qobs.observers, "_alg2_traces", counted)
        monkeypatch.setattr(qobs.observers, "_chunked_traces", counted_pass)
        plants = [make_cavity_plant(*co.S2, kn) for kn in default_kn_grid()]
        qobs.observers._design_alg2(plants, qobs.observers._kalman_step(plants, 0.0), None)
        assert per_pass[0] == 5 and per_pass[1:] == [1] * (len(per_pass) - 1) and len(per_pass) > 2
        for plant in alg2_plants("pool", perfbench_workloads):
            per_pass.clear()
            design_algorithm2(plant)
            assert per_pass == [1] * len(per_pass)

    @pytest.mark.parametrize("family", ["cavity", "pool"])
    def test_every_curve_trace_is_the_trace_of_its_design(self, family, perfbench_workloads):
        # each (rho, trace) of the curve is evaluate_performance's trace of
        # the observer designed at that rho, bit for bit, so alg2's trace is
        # at most alg1's bit for bit
        for plant in alg2_plants(family, perfbench_workloads):
            obs, rho_opt, curve = design_algorithm2(plant)
            rhos, traces = (list(column) for column in zip(*curve))
            inflated = [rho for rho in rhos if rho != 0.0]
            filters = qobs.observers._kalman_step([plant] * len(inflated), inflated)
            provenances = [qobs.observers.Provenance("alg2", rho=rho) for rho in inflated]
            designs = qobs.observers._augmented_designs([plant] * len(inflated), filters, provenances)
            if 0.0 in rhos:
                designs.insert(0, design_algorithm1(plant))
            reports = evaluate_performance([plant] * len(designs), designs)
            assert [report.trace for report in reports] == traces
            alg2 = evaluate_performance(plant, obs).trace
            assert alg2 == dict(curve)[rho_opt] == min(traces)
            assert alg2 <= evaluate_performance(plant, design_algorithm1(plant)).trace

    @pytest.mark.parametrize("scenario", [co.S1, co.S2, co.S3])
    def test_batch_decides_as_the_reference_path_on_the_cavity(self, scenario, caplog):
        for kn in CAVITY_KNS:
            assert_decides_as_the_reference_path(make_cavity_plant(*scenario, kn), caplog)

    def test_batch_decides_as_the_reference_path_on_random_plants(self, perfbench_workloads, caplog):
        scored = 0
        for stratum in range(len(perfbench_workloads.STRATA)):
            scored += assert_decides_as_the_reference_path(perfbench_workloads.pool_plant(stratum, 0), caplog)
        assert scored >= 0.9 * 24 * (len(default_rho_grid()) - 1)  # the batch does score the grid

    def test_failed_slice_is_skipped_with_its_error(self, monkeypatch, caplog):
        # a grid slice that the filter CARE flags is skipped with its error,
        # and the other grid candidates keep their traces
        caplog.set_level(logging.DEBUG, logger="qobs.observers")
        plant = make_cavity_plant(*co.S2, 10.0)
        grid = default_rho_grid().tolist()
        failed = grid[30]
        _, _, unflagged = design_algorithm2(plant)
        assert not caplog.records
        body = qobs.observers._filter_cares

        def one_slice_fails(*args):
            Q, K, A_hat, coefficients, errors = body(*args)
            if len(errors) == len(grid) - 1:  # the grid pass; grid[0] = 0 takes the given filter
                errors[29] = NoStabilizingSolution("flagged")
            return Q, K, A_hat, coefficients, errors

        monkeypatch.setattr(qobs.observers, "_filter_cares", one_slice_fails)
        _, _, curve = design_algorithm2(plant)
        assert [record.getMessage() for record in caplog.records] == [f"skipping rho={failed:g}: NoStabilizingSolution: flagged"]
        on_grid = {rho: trace for rho, trace in unflagged if rho in grid and rho != failed}
        assert {rho: trace for rho, trace in curve if rho in grid} == on_grid

    def test_ill_conditioned_schur_basis_is_scored(self, perfbench_workloads, caplog):
        # on pool plant 0 of stratum 12 at rho = 100 the Schur basis has
        # cond(X1) = 5e7 and its X2 X1^-1 failed the realness check; the
        # eigenvector basis solves it, and the candidate is scored
        caplog.set_level(logging.DEBUG, logger="qobs.observers")
        plant = perfbench_workloads.pool_plant(12, 0)
        _, _, curve = design_algorithm2(plant, [0.0, 100.0])
        assert not caplog.records  # nothing skipped
        assert_allclose(dict(curve)[100.0], 118900.78, rtol=1e-7)
        # on pool plant 8 of stratum 6 at rho = 82.5, the Schur basis
        # (cond(X1) = 1.8e8) left a Riccati residual of 457
        plant = perfbench_workloads.pool_plant(6, 8)
        A, C, V1, V12, V2 = qobs.observers._care_inputs(qobs.observers._plant_matrices([plant]), 82.5)
        kd = solve_care(A, C, V1, V12, V2)
        F, B, M, H = _care_coefficients(A, C, V1, V12, np.linalg.inv(V2))
        Q, norm = kd.Q, np.linalg.norm
        # the scale of terms that do not cancel: H = V1 - V12 V2^-1 V12^T does
        scale = norm(Q @ B @ M @ B.T @ Q) + 2.0 * norm(Q @ F) + norm(V1) + norm(V12 @ M @ V12.T)
        assert norm(riccati_residual(F, B, M, H, Q)) <= CHECK_RTOL * scale

    @pytest.mark.parametrize("family", ["cavity", "pool"])
    def test_a_plant_list_is_scored_as_per_plant_calls(self, family, perfbench_workloads, monkeypatch):
        # alg2 over many plants, its grid pass cut into chunks of two plants
        # here, gives each plant the answer of its own call to the bit,
        # failing candidates included: on the plant with D = 0, V2 = rho^2 I
        # is zero for rho = 0 and 1e-200, and too near singular for 1e-161
        if family == "cavity":
            plants = [make_cavity_plant(*co.S2, kn) for kn in (0.5, 10.0, 69.0, 70.0, 500.0)]
        else:
            plants = [perfbench_workloads.pool_plant(12, i) for i in range(5)]
        plants[1] = dataclasses.replace(plants[1], D=np.zeros_like(plants[1].D))
        rhos = [0.0, 1e-200, 1e-161, *default_rho_grid()[1:]]

        def design(plants):
            return qobs.observers._design_alg2(plants, qobs.observers._kalman_step(plants, 0.0), rhos)

        singles = [alg2_answer(out) for plant in plants for out in design([plant])]
        n, body, slice_counts = plants[0].n_x, qobs.observers._filter_cares, []
        scorer, owners = qobs.observers._alg2_traces, []

        def counted(*args):
            slice_counts.append(len(args[4]))
            return body(*args)

        def counted_scorer(matrices, filters, items):
            owners.append(Counter(i for i, _ in items))
            return scorer(matrices, filters, items)

        monkeypatch.setattr(qobs.observers, "_filter_cares", counted)
        monkeypatch.setattr(qobs.observers, "_alg2_traces", counted_scorer)
        monkeypatch.setattr(qobs.observers, "KRON_CHUNK_BYTES", 10 * 8 * (2 * n) ** 2 * len(rhos))
        stacked = [alg2_answer(out) for out in design(plants)]
        inflated = len(rhos) - 1
        assert slice_counts[:3] == [2 * inflated, 2 * inflated, inflated]  # the grid pass, two plants a chunk
        # the golden-section rounds: at least two iterations per round, each
        # plant's predicted path and its hedge point
        rounds = owners[3:]
        assert len(rounds) <= 10
        assert max(max(per_plant.values()) for per_plant in rounds) <= qobs.observers._PATH_POINTS + 1
        assert stacked == singles
        assert {0.0, 1e-200, 1e-161}.isdisjoint(dict(stacked[1][1]))

    @pytest.mark.parametrize("family", ["cavity", "pool"])
    def test_lookahead_decides_as_one_scorer_call_per_iteration(self, family, perfbench_workloads):
        # scoring each plant's predicted path ahead gives the answer of one
        # call per iteration to the bit: rho_opt, curve and observer
        for plant in alg2_plants(family, perfbench_workloads):
            assert alg2_answer(design_algorithm2(plant)) == one_call_per_iteration(plant)[0]

    @pytest.mark.parametrize("family", ["cavity", "pool"])
    def test_the_guess_decides_the_cost_only(self, family, perfbench_workloads, monkeypatch):
        # a guess that predicts every branch of the path taken wrong, and one
        # that predicts a flat trace, give the answer of one call per
        # iteration; the hedge point still takes two iterations per round, so
        # the grid and at most ten golden-section rounds make the calls
        scorer, calls = qobs.observers._alg2_traces, []

        def counted(*args):
            calls.append(args[2])
            return scorer(*args)

        monkeypatch.setattr(qobs.observers, "_alg2_traces", counted)
        for plant in alg2_plants(family, perfbench_workloads):
            monkeypatch.setattr(qobs.observers, "_alg2_traces", scorer)
            expected, brackets = one_call_per_iteration(plant)
            monkeypatch.setattr(qobs.observers, "_alg2_traces", counted)
            truth = dict(expected[1])
            guesses = {
                "always wrong": lambda known: lambda rho: -truth.get(rho, 0.0),
                "constant": lambda known: lambda rho: 1.0,
            }
            for name, guess in guesses.items():
                monkeypatch.setattr(qobs.observers, "_trace_guess", guess)
                calls.clear()
                assert alg2_answer(design_algorithm2(plant)) == expected, name
                assert len(calls) <= 1 + 10, name
                if name == "always wrong" and len(brackets) == 20:
                    assert len(calls) == 1 + 10  # two iterations per round, no more

    @pytest.mark.parametrize("where", ["first c", "predicted point taken", "point off the taken path"])
    def test_failing_golden_section_point_is_handled_as_one_call_per_iteration(self, where, monkeypatch):
        # a failing point drops its bracket at the iteration that takes it,
        # c before d, though a round scored it ahead; a point scored off the
        # path taken is never kept, so its failure changes nothing
        plant = make_cavity_plant(*co.S2, 69.0)
        unflagged, brackets = one_call_per_iteration(plant)
        (a, b, c, d), after = brackets[0], brackets[1]
        left = after[1] == d  # the bracket shrank to [a, d]
        sixth = next(rho for rho in brackets[5][2:] if rho not in brackets[4][2:])  # the new point of iteration 6
        failing = {
            "first c": c,
            "predicted point taken": sixth,
            "point off the taken path": c + INV_PHI * (b - c) if left else d - INV_PHI * (d - a),
        }[where]
        scorer, rounds = qobs.observers._alg2_traces, []

        def one_point_fails(matrices, filters, items):
            rounds.append([rho for _, rho in items])
            outcomes = scorer(matrices, filters, items)
            return [NoStabilizingSolution("injected") if rho == failing else out for (_, rho), out in zip(items, outcomes)]

        monkeypatch.setattr(qobs.observers, "_alg2_traces", one_point_fails)
        expected, _ = one_call_per_iteration(plant)
        rounds.clear()
        assert alg2_answer(design_algorithm2(plant)) == expected
        assert failing in rounds[1]  # scored ahead in the first golden-section round
        grid = set(default_rho_grid().tolist())
        golden = sorted(set(dict(expected[1])) - grid)
        if where == "first c":
            assert golden == []  # the bracket is dropped, and d is not kept
            assert len(rounds) == 2
        elif where == "predicted point taken":
            assert golden == sorted({rho for bracket in brackets[:5] for rho in bracket[2:]} - grid)  # dropped at iteration 6
            assert len(rounds) == 2
        else:
            assert expected == unflagged

    def test_pool_answers_are_pinned(self, perfbench_workloads, caplog):
        # the hand check every performance change makes on the whole pool,
        # on one plant per stratum: rho_opt, the trace, J_bar and the skip log
        caplog.set_level(logging.DEBUG, logger="qobs.observers")
        digest = hashlib.sha256()
        for stratum in range(len(perfbench_workloads.STRATA)):
            plant = perfbench_workloads.pool_plant(stratum, 0)
            caplog.clear()
            obs, rho_opt, _ = design_algorithm2(plant)
            report = evaluate_performance(plant, obs)
            digest.update(repr((stratum, rho_opt, report.trace)).encode())
            digest.update(report.J_bar.tobytes())
            digest.update("\n".join(record.getMessage() for record in caplog.records).encode())
        assert digest.hexdigest() == POOL_ALG2_SHA256, (
            f"alg2's answers on the pool plants have SHA-256 {digest.hexdigest()}; the pinned sum was recorded"
            f" with numpy 2.4.6 and scipy 1.17.1, and this run has numpy {np.__version__} and scipy {scipy.__version__}"
        )

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
        assert np.array_equal(K, qobs.observers._kalman_step([plant], 1.0)[0].K)

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

    def test_bad_list_pairs_are_refused(self):
        plant = make_cavity_plant(0.1, 0.1, 1.0)
        obs = design_algorithm1(plant)
        for plants, observers in (([plant, plant], [obs]), ([plant], [obs, obs]), ([], [])):
            with pytest.raises(DomainError, match="as many observers as plants"):
                evaluate_performance(plants, observers)

    @pytest.mark.parametrize("designer", [design_algorithm1, design_classical])
    def test_error_poles_always_stable(self, designer):
        for kn in (0.0, 0.3, 33.0, 500.0):
            plant = make_cavity_plant(0.8, 0.01, kn)
            obs = designer(plant)
            assert np.max(np.linalg.eigvals(obs.A_hat).real) < 0.0


def outcome_bytes(outcome):
    """What a designer or an evaluation returns, as shapes, bytes and reprs; an error as its class, reason and message."""
    if isinstance(outcome, QobsError):
        return (type(outcome).__name__, outcome.reason_code, str(outcome))
    if isinstance(outcome, tuple):
        return [outcome_bytes(part) for part in outcome]
    if dataclasses.is_dataclass(outcome):
        return [(f.name, outcome_bytes(getattr(outcome, f.name))) for f in dataclasses.fields(outcome)]
    if isinstance(outcome, np.ndarray):
        return (outcome.shape, outcome.tobytes())
    return repr(outcome)


class TestStack:
    def test_a_stack_equals_single_calls(self, perfbench_workloads):
        # five same-stratum pool plants designed as one stack; the one with
        # D = 0 has a singular V2, so its rho = 0 filter fails, and with it
        # its alg1 and alg3 designs, while the other slices are unaffected
        stratum = perfbench_workloads.STRATA.index((4, 2, 2))
        plants = [perfbench_workloads.pool_plant(stratum, i) for i in range(5)]
        plants[2] = dataclasses.replace(plants[2], D=np.zeros_like(plants[2].D))
        filters = qobs.observers._kalman_step(plants, 0.0)
        stacked = {
            design_algorithm1: qobs.observers._design_alg1(plants, filters),
            design_algorithm2: qobs.observers._design_alg2(plants, filters, None),
            design_algorithm3: qobs.observers._design_alg3(plants, filters),
            design_classical: qobs.observers._design_classical(plants),
        }
        failed = {}
        for designer, outcomes in stacked.items():
            for k, (plant, outcome) in enumerate(zip(plants, outcomes)):
                try:
                    single = designer(plant)
                except QobsError as exc:
                    single = exc
                    failed[designer.__name__, k] = f"{exc.reason_code}: {exc}"
                assert outcome_bytes(outcome) == outcome_bytes(single), (designer.__name__, k)
        reason = "DomainError: measurement-noise intensity V2 is not positive definite"
        assert failed == {("design_algorithm1", 2): reason, ("design_algorithm3", 2): reason}

    @pytest.mark.parametrize("scenario, boundary", [(co.S2, 69.0), (co.S3, 909.0)])
    def test_a_transform_stack_across_the_boundary_equals_single_calls(self, scenario, boundary):
        # one stacked skew transform, transformed below the boundary and
        # fallen back above it, gives each plant its single call's design
        kns = [0.5, boundary - 1.0, boundary, boundary + 1.0, 2.0 * boundary]
        plants = [make_cavity_plant(*scenario, kn) for kn in kns]
        outcomes = qobs.observers._design_alg3(plants, qobs.observers._kalman_step(plants, 0.0))
        for plant, outcome in zip(plants, outcomes):
            assert outcome_bytes(outcome) == outcome_bytes(design_algorithm3(plant))
        assert [reason for _, reason in outcomes] == [None, None, None] + ["ImaginaryAxisEigenvalue"] * 2

    def test_an_evaluation_stack_equals_single_calls(self, perfbench_workloads):
        # one observer of the stack has unstable error dynamics
        stratum = perfbench_workloads.STRATA.index((4, 2, 2))
        plants = [perfbench_workloads.pool_plant(stratum, i) for i in range(4)]
        observers = [design_algorithm1(plant) for plant in plants]
        observers[1] = dataclasses.replace(observers[1], A_hat=-observers[1].A_hat)
        reports = evaluate_performance(plants, observers)
        for plant, obs, report in zip(plants, observers, reports):
            try:
                single = evaluate_performance(plant, obs)
            except QobsError as exc:
                single = exc
            assert outcome_bytes(report) == outcome_bytes(single)
        kinds = [type(report).__name__ for report in reports]
        assert kinds == ["PerformanceReport", "NotHurwitz", "PerformanceReport", "PerformanceReport"]
