"""Sweep harness and command-line interface tests."""

import csv
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import qobs
import qobs.sweep
from qobs import (
    DomainError,
    NotHurwitz,
    ScenarioConfig,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    emit_csv,
    emit_plot_data,
    evaluate_performance,
    make_cavity_plant,
    run_sweep,
    save_system,
    scenario_config,
    system_from_dict,
    system_to_dict,
)
from qobs.cli import main
from qobs.sweep import SCENARIOS, default_kn_grid

DATA = Path(__file__).resolve().parent / "data"
CSV_HEADER = (
    "k_n,alg1_trace,alg1_frob,alg1_nv2,alg2_trace,alg2_frob,alg2_rho,"
    "alg3_trace,alg3_frob,alg3_nv2,alg3_transformed,classical_trace,classical_frob"
)

#: SHA-256 of the default-grid CSV of each scenario, recorded with numpy 2.4.6 and scipy 1.17.1
DEFAULT_CSV_SHA256 = {
    "s1": "767b9520da011d284cf251015e0ad4019701de3d6eb553b40ad0d0dffac965f8",
    "s2": "38ef0c1ee3b0c35a12544aa4e82dbcf56780c3d234c6ca72a61957bbf9bc62ff",
    "s3": "c29a1db517b744351d696c1312cfb9ad45c0bf29ca189065e3adc6bbddf43d86",
}


class TestScenarioConfig:
    def test_presets(self):
        assert SCENARIOS == {"s1": (0.1, 0.1), "s2": (0.5, 0.01), "s3": (0.8, 0.01)}
        cfg = scenario_config("s2")
        assert (cfg.kappa1, cfg.kappa2) == (0.5, 0.01)
        assert cfg.kn_grid == default_kn_grid()

    def test_default_grid_spans_and_brackets_transitions(self):
        grid = default_kn_grid()
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1e4)
        for kn in (69.0, 70.0, 909.0, 910.0):
            assert kn in grid
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig(kappa1=0.1, kappa2=0.1, kn_grid=(1.0, 0.5))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig(kappa1=0.1, kappa2=0.1, kn_grid=(0.0,), algorithms=("alg9",))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected(self, value):
        with pytest.raises(DomainError, match="positive and finite"):
            ScenarioConfig(kappa1=value, kappa2=0.1, kn_grid=(1.0,))

    @pytest.mark.parametrize("grid", [(float("nan"),), (1.0, float("inf")), ("a",)])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="non-negative and finite"):
            run_sweep(ScenarioConfig(0.1, 0.1, grid))


class TestRunSweep:
    def test_vacuum_point_values(self):
        cfg = ScenarioConfig(0.1, 0.1, kn_grid=(0.0,))
        (row,) = run_sweep(cfg)
        assert row.alg1_trace == pytest.approx(20.0, abs=1e-9)
        assert row.classical_trace == pytest.approx(2.0, abs=1e-9)
        assert row.alg1_nv2 == 2
        assert not row.errors

    def test_transformation_boundary_flags(self):
        cfg = ScenarioConfig(
            0.5, 0.01, kn_grid=(69.0, 70.0)
        )
        rows = run_sweep(cfg)
        assert rows[0].alg3_transformed is True and rows[0].alg3_nv2 == 0
        assert rows[1].alg3_transformed is False and rows[1].alg3_nv2 == 2
        assert rows[1].alg3_failure_reason == "ImaginaryAxisEigenvalue"

    def test_deterministic(self):
        cfg = ScenarioConfig(0.5, 0.01, kn_grid=(0.5, 3.0))
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_algorithm_subset_leaves_other_fields_empty(self):
        cfg = ScenarioConfig(0.1, 0.1, kn_grid=(1.0,), algorithms=("classical",))
        (row,) = run_sweep(cfg)
        assert row.classical_trace is not None
        assert row.alg1_trace is None and row.alg2_trace is None and row.alg3_trace is None


def test_designer_failure_is_recorded_and_the_sweep_goes_on(monkeypatch, tmp_path, capsys):
    # the stacked alg3 designer yields a typed error for one plant of the stack
    design_alg3 = qobs.sweep._design_alg3

    def failing_at_kn_one(plants, filters):
        outcomes = design_alg3(plants, filters)
        return [
            NotHurwitz("injected failure") if plant.channels[1].k_n == 1.0 else outcome
            for plant, outcome in zip(plants, outcomes)
        ]

    monkeypatch.setattr(qobs.sweep, "_design_alg3", failing_at_kn_one)
    rows = run_sweep(ScenarioConfig(0.1, 0.1, kn_grid=(0.5, 1.0)))
    assert rows[0].errors == {}
    assert rows[1].errors == {"alg3": "NotHurwitz: injected failure"}
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    header = CSV_HEADER.split(",")
    lines = out.read_text().splitlines()
    for line, failed in zip(lines[1:], (False, True)):
        cells = dict(zip(header, line.split(",")))
        for name, value in cells.items():
            assert (value == "") == (failed and name.startswith("alg3_")), name
    argv = ["sweep", "--kn-min", "0.5", "--kn-max", "1", "--kn-points", "2", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {out} (1 rows carry designer errors)\n"


@pytest.mark.parametrize("scenario", sorted(DEFAULT_CSV_SHA256))
def test_default_grid_csv_bytes_are_pinned(scenario, default_sweeps, tmp_path):
    out = tmp_path / f"{scenario}.csv"
    emit_csv(default_sweeps[scenario], out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DEFAULT_CSV_SHA256[scenario], (
        f"{scenario}: the default-grid CSV has SHA-256 {digest}; the pinned sum was recorded with"
        f" numpy 2.4.6 and scipy 1.17.1, and this run has numpy {np.__version__} and scipy {scipy.__version__}"
    )


@pytest.mark.parametrize("scenario", sorted(DEFAULT_CSV_SHA256))
def test_default_grid_csv_is_within_tolerance_of_the_schur_route(scenario, default_sweeps, tmp_path):
    # the stored CSVs were swept when every filter CARE took X from the
    # ordered Schur basis; the eigenvector basis moves only the last bits,
    # and alg2's rho where its trace is flat to round-off
    out = tmp_path / f"{scenario}.csv"
    emit_csv(default_sweeps[scenario], out)
    paths = (out, DATA / f"default_grid_{scenario}.csv")
    rows, stored = (list(csv.DictReader(path.read_text().splitlines())) for path in paths)
    assert len(rows) == len(stored) == len(default_kn_grid())
    for row, ref in zip(rows, stored):
        for name in ("k_n", "alg1_nv2", "alg3_nv2", "alg3_transformed"):
            assert row[name] == ref[name], (row["k_n"], name)
        for name in (name for name in CSV_HEADER.split(",") if name.endswith(("_trace", "_frob"))):
            assert float(row[name]) == pytest.approx(float(ref[name]), rel=1e-12, abs=0.0), (row["k_n"], name)
        assert float(row["alg2_trace"]) <= float(row["alg1_trace"])


def single_call_row(scenario, k_n):
    """The sweep row at ``k_n`` built from one public designer call per algorithm."""
    plant = make_cavity_plant(*SCENARIOS[scenario], k_n)
    row = qobs.sweep.SweepRow(k_n=k_n)
    obs1 = design_algorithm1(plant)
    obs2, rho, _ = design_algorithm2(plant)
    obs3, reason = design_algorithm3(plant)
    obsc = design_classical(plant)
    for alg, obs in (("alg1", obs1), ("alg2", obs2), ("alg3", obs3), ("classical", obsc)):
        rep = evaluate_performance(plant, obs)
        setattr(row, f"{alg}_trace", rep.trace)
        setattr(row, f"{alg}_frob", rep.frobenius)
    row.alg1_nv2, row.alg2_rho, row.alg3_nv2 = obs1.n_v2, rho, obs3.n_v2
    row.alg3_transformed, row.alg3_failure_reason = reason is None, reason
    return row


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sweep_rows_are_the_single_plant_designs(scenario):
    # run_sweep designs all grid points as one stack per designer; every
    # value equals the one of the public designers called on that point
    # alone, here on every eighth default-grid point and the transitions
    grid = tuple(sorted(set(default_kn_grid()[::8]) | {69.0, 70.0, 909.0, 910.0}))
    rows = run_sweep(ScenarioConfig(*SCENARIOS[scenario], kn_grid=grid))
    for row in rows:
        expected = single_call_row(scenario, row.k_n)
        assert repr(row) == repr(expected)


class TestEmitCsv:
    def test_header_and_field_count(self, tmp_path):
        cfg = ScenarioConfig(0.1, 0.1, kn_grid=(0.0,))
        out = tmp_path / "rows.csv"
        emit_csv(run_sweep(cfg), out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines[0].split(",")) == 13
        assert len(lines[1].split(",")) == 13

    def test_fallback_row_contents(self, tmp_path):
        cfg = ScenarioConfig(0.5, 0.01, kn_grid=(70.0,))
        out = tmp_path / "rows.csv"
        emit_csv(run_sweep(cfg), out)
        cells = out.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert cells[header.index("alg3_transformed")] == "false"
        assert cells[header.index("alg3_nv2")] == "2"

    def test_round_trip_floats(self, tmp_path):
        cfg = ScenarioConfig(0.1, 0.1, kn_grid=(0.3,), algorithms=("alg1",))
        rows = run_sweep(cfg)
        out = tmp_path / "rows.csv"
        emit_csv(rows, out)
        cells = out.read_text().splitlines()[1].split(",")
        assert float(cells[0]) == 0.3
        assert float(cells[1]) == rows[0].alg1_trace  # shortest repr round-trips

    def test_skipped_algorithms_leave_empty_cells(self, tmp_path):
        cfg = ScenarioConfig(0.1, 0.1, kn_grid=(1.0,), algorithms=("alg1",))
        out = tmp_path / "rows.csv"
        emit_csv(run_sweep(cfg), out)
        cells = out.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert cells[header.index("classical_trace")] == ""
        assert cells[header.index("alg2_rho")] == ""

    def test_no_rows_no_file(self, tmp_path):
        out = tmp_path / "nothing.csv"
        with pytest.raises(DomainError):
            emit_csv([], out)
        assert not out.exists()


class TestEmitPlotData:
    def test_two_column_files(self, tmp_path):
        cfg = ScenarioConfig(
            0.1, 0.1, kn_grid=(0.0, 1.0), algorithms=("alg1", "classical")
        )
        rows = run_sweep(cfg)
        written = emit_plot_data(rows, tmp_path / "plots")
        names = sorted(p.name for p in written)
        assert names == ["alg1.dat", "classical.dat"]
        for line in (tmp_path / "plots" / "alg1.dat").read_text().splitlines():
            k, v = line.split()
            float(k), float(v)


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    save_system(make_cavity_plant(0.1, 0.1, 10.0), path)
    return path


class TestCli:
    def test_sweep_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--scenario", "s1",
                "--kn-min", "0.1", "--kn-max", "10", "--kn-points", "3",
                "--algorithms", "alg1,classical", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        sidecar = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert sidecar["matrix_norm"] == "frobenius"
        assert sidecar["kappa1"] == 0.1

    def test_sweep_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep", "--scenario", "s2",
            "--kn-min", "1", "--kn-max", "100", "--kn-points", "3",
            "--algorithms", "alg1,alg3",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_custom_requires_kappas(self, capsys):
        rc = main(["sweep", "--scenario", "custom", "--out", "/tmp/x.csv"])
        assert rc == 1

    def test_sweep_custom_scenario(self, tmp_path):
        out = tmp_path / "custom.csv"
        rc = main(
            [
                "sweep", "--scenario", "custom", "--kappa1", "0.3", "--kappa2", "0.05",
                "--kn-min", "1", "--kn-max", "10", "--kn-points", "2",
                "--algorithms", "alg1", "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 3

    def test_check_physical_plant_exits_zero(self, plant_file, capsys):
        rc = main(["check", "--system", str(plant_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "physically realizable: yes" in out
        assert "n_v2" in out

    def test_check_bare_filter_fails_with_rank_two(self, tmp_path, capsys):
        # raw Kalman filter of scenario 1, kn = 10, saved as a system file
        import cavity_oracle as co

        a = co.ahat(0.1, 0.1, 10.0)
        k = co.gain(0.1, 0.1, 10.0)
        d = {
            "n_x": 2,
            "A": (a * np.eye(2)).tolist(),
            "B": (k * np.eye(2)).tolist(),
            "C": np.eye(2).tolist(),
            "D": np.zeros((2, 2)).tolist(),
            "channels": [{"kind": "vacuum"}],
        }
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(d))
        rc = main(["check", "--system", str(path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "read as a filter whose output is fed back through field_gain(theta, C):" in out
        assert "minimal extra vacuum quadratures (n_v2): 2" in out
        assert "physically realizable: no" in out

    @pytest.mark.parametrize("what", ["plant", "alg1", "alg3"])
    def test_check_of_a_realizable_system_reports_no_defect(self, what, tmp_path, capsys):
        # the report used to read (A, B, C) as a fed-back filter and print
        # n_v2 = 2 and a failed transformation beside the verdict yes
        path = tmp_path / "plant.json"
        save_system(make_cavity_plant(*SCENARIOS["s2"], 1.0), path)
        if what != "plant":
            out = tmp_path / f"{what}.json"
            assert main(["design", "--plant", str(path), "--algorithm", what, "--out", str(out)]) == 0
            path = out
        capsys.readouterr()
        assert main(["check", "--system", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "minimal extra vacuum quadratures (n_v2): 0",
            "state transformation (n_v2 = 0): not needed",
            "physically realizable: yes",
        ]

    def test_check_malformed_json_exits_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["check", "--system", str(path)])
        assert rc == 3
        assert "line" in capsys.readouterr().err

    def test_design_each_algorithm(self, plant_file, tmp_path, capsys):
        for alg in ("alg1", "alg3", "classical"):
            out = tmp_path / f"{alg}.json"
            rc = main(["design", "--plant", str(plant_file), "--algorithm", alg, "--out", str(out)])
            assert rc == 0
            payload = json.loads(out.read_text())
            assert payload["provenance"]["algorithm"] == alg
            assert payload["n_x"] == 2

    def test_design_alg2_payload(self, tmp_path):
        path = tmp_path / "plant.json"
        save_system(make_cavity_plant(0.1, 0.1, 1.0), path)
        out = tmp_path / "alg2.json"
        rc = main(["design", "--plant", path.as_posix(), "--algorithm", "alg2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "rho" in payload["provenance"]
        assert "B_v1" in payload and "B_v2" in payload

    def test_design_alg3_fallback_payload(self, plant_file, tmp_path):
        # kn = 10 is above the scenario-1 existence threshold, so the design
        # reverts and the payload must say why
        out = tmp_path / "alg3.json"
        assert main(["design", "--plant", str(plant_file), "--algorithm", "alg3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["transformed"] is False
        assert payload["provenance"]["fallback_reason"] == "ImaginaryAxisEigenvalue"
        assert payload["n_v2"] == 2
        assert "transform" not in payload

    def test_design_alg3_emits_transform(self, tmp_path):
        path = tmp_path / "plant.json"
        save_system(make_cavity_plant(0.1, 0.1, 0.1), path)
        out = tmp_path / "alg3.json"
        assert main(["design", "--plant", str(path), "--algorithm", "alg3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["transformed"] is True
        assert "transform" in payload
        # the emitted filter is loadable as a system description
        filt = system_from_dict({k: payload[k] for k in ("n_x", "A", "B", "C", "D", "channels")})
        assert filt.n_x == 2

    @pytest.mark.parametrize("kn", [0.1, 10.0])  # alg3 transformed / fallback
    @pytest.mark.parametrize("alg", ["alg1", "alg2", "alg3"])
    def test_designed_observer_passes_check(self, alg, kn, tmp_path, capsys):
        path = tmp_path / "plant.json"
        save_system(make_cavity_plant(*SCENARIOS["s2"], kn), path)
        out = tmp_path / f"{alg}.json"
        assert main(["design", "--plant", str(path), "--algorithm", alg, "--out", str(out)]) == 0
        assert main(["check", "--system", str(out)]) == 0
        assert "physically realizable: yes" in capsys.readouterr().out

    def test_singular_measurement_noise(self, tmp_path, capsys):
        # with D = 0 the filter's measurement-noise intensity V2 = D S_w D^T
        # is zero: the unit-inflated classical filter and every alg2 rho > 0
        # are still defined, the rho = 0 filter of alg1 and alg3 is not
        d = system_to_dict(make_cavity_plant(*SCENARIOS["s1"], 1.0))
        d["D"] = np.zeros((2, 4)).tolist()
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(d))
        for alg, code in (("alg1", 2), ("alg2", 0), ("alg3", 2), ("classical", 0)):
            out = tmp_path / f"{alg}.json"
            assert main(["design", "--plant", str(path), "--algorithm", alg, "--out", str(out)]) == code, alg
            err = capsys.readouterr().err
            if code:
                assert err == "qobs: DomainError: measurement-noise intensity V2 is not positive definite\n"
                assert not out.exists()
        assert json.loads((tmp_path / "alg2.json").read_text())["provenance"]["rho"] > 0.0
        assert main(["check", "--system", str(tmp_path / "alg2.json")]) == 0

    def test_sweep_grid_bound_alone_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--kn-min", "0.5", "--out", str(out)]) == 1
        assert "must be given together" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_plot_files_match_the_csv(self, tmp_path):
        out, plots = tmp_path / "sweep.csv", tmp_path / "plots"
        argv = [
            "sweep", "--kn-min", "0.5", "--kn-max", "2", "--kn-points", "3",
            "--algorithms", "alg1,classical", "--out", str(out), "--plot-dir", str(plots),
        ]
        assert main(argv) == 0
        assert sorted(p.name for p in plots.iterdir()) == ["alg1.dat", "classical.dat"]
        header = CSV_HEADER.split(",")
        rows = [dict(zip(header, line.split(","))) for line in out.read_text().splitlines()[1:]]
        for alg in ("alg1", "classical"):
            pairs = [line.split(" ") for line in (plots / f"{alg}.dat").read_text().splitlines()]
            assert pairs == [[row["k_n"], row[f"{alg}_trace"]] for row in rows]

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # missing --out
        assert exc.value.code == 1

    def test_missing_file_exits_three(self, capsys):
        rc = main(["check", "--system", "/nonexistent/nope.json"])
        assert rc == 3

    def test_classical_design_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "plant.json"
        save_system(make_cavity_plant(*SCENARIOS["s2"], 0.1), path)
        out = tmp_path / "classical.json"
        assert main(["design", "--plant", str(path), "--algorithm", "classical", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", "--system", str(out)]) == 3
        captured = capsys.readouterr()
        assert "classical (measurement-based) filter, not a quantum system" in captured.err
        assert "commutation residual" not in captured.out
        rc = main(["design", "--plant", str(out), "--algorithm", "alg1", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "classical (measurement-based) filter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "design"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            (("A", 0, 0), "A has non-finite entries"),
            (("channels", 1, "k_n"), "channels[1]: k_n = nan: thermal occupation must be non-negative"),
        ],
    )
    def test_non_finite_entry_exits_three(self, command, entry, message, plant_file, tmp_path, capsys):
        d = json.loads(plant_file.read_text())
        key, i, j = entry
        d[key][i][j] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))  # json writes the bare token NaN
        if command == "check":
            argv = ["check", "--system", str(path)]
        else:
            argv = ["design", "--plant", str(path), "--algorithm", "alg1", "--out", str(tmp_path / "o.json")]
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "design"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_x", "abc", "n_x = 'abc' is not an integer"),
            ("n_x", None, "n_x = None is not an integer"),
            ("n_x", 2.5, "n_x = 2.5 is not an integer"),
            ("channels", 5, "key 'channels': expected a list"),
            ("k_n", "abc", "channels[1]: k_n = 'abc': could not convert"),
            ("k_n", None, "channels[1]: k_n = None: float() argument"),
            ("k_n", -1.0, "channels[1]: k_n = -1.0: thermal occupation must be non-negative"),
        ],
    )
    def test_malformed_entry_exits_three(self, command, key, value, message, plant_file, tmp_path, capsys):
        d = json.loads(plant_file.read_text())
        if key == "k_n":
            d["channels"][1]["k_n"] = value
        else:
            d[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        if command == "check":
            argv = ["check", "--system", str(path)]
        else:
            argv = ["design", "--plant", str(path), "--algorithm", "alg1", "--out", str(tmp_path / "o.json")]
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("points", [2, 3])
    def test_sweep_from_zero_ends_at_kn_max(self, points, tmp_path):
        out = tmp_path / "zero.csv"
        argv = [
            "sweep", "--kn-min", "0", "--kn-max", "50", "--kn-points", str(points),
            "--algorithms", "alg1", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == points
        assert float(rows[0].split(",")[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == 50.0

    def test_sweep_without_algorithms_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "none.csv"
        rc = main(["sweep", "--scenario", "s1", "--algorithms", "", "--out", str(out)])
        assert rc == 1
        assert "--algorithms" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--kn-min nan --kn-max 10 --kn-points 3", "0 <= kn-min < kn-max < inf"),
            ("--kn-min 1 --kn-max inf --kn-points 3", "0 <= kn-min < kn-max < inf"),
            ("--scenario custom --kappa1 nan --kappa2 0.1", "positive and finite, got nan"),
            ("--scenario custom --kappa1 inf --kappa2 0.1", "positive and finite, got inf"),
            ("--scenario custom --kappa1 -1 --kappa2 0.1", "positive and finite, got -1.0"),
            ("--kappa1 0.3", "--kappa1 and --kappa2 need --scenario custom"),
            ("--scenario s2 --kappa2 0.3", "--kappa1 and --kappa2 need --scenario custom"),
        ],
    )
    def test_sweep_bad_numbers_are_usage_errors(self, flags, message, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert main(["sweep", *flags.split(), "--algorithms", "alg1", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_zero_start_below_log_grid_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "low.csv"
        argv = ["sweep", "--kn-min", "0", "--kn-max", "0.0005", "--kn-points", "3", "--out", str(out)]
        assert main(argv) == 1
        assert "kn-max > 1e-3" in capsys.readouterr().err
        assert not out.exists()


def test_import_does_not_load_cli():
    src = str(Path(qobs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qobs; print('qobs.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_traced_names_exist():
    # perfbench's tracer skips a traced name it cannot find, which would
    # silently zero that layer's metrics; every name must stay a function
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.TRACED_NAMES
    for name in module.TRACED_NAMES:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"qobs.{mod}"), fn, None)), name
