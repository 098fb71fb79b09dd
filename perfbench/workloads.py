"""The benchmark's workloads: how each builds its inputs, runs and is checked.

Import this module only after :func:`harness.load_qobs` has put the
checkout's ``src`` first on ``sys.path``. Every call into the program goes
through a module attribute looked up at call time (``observers.design_algorithm2``,
``cli.main``, ...), so the tracing wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from qobs import cli, observers, solvers, sweep, systems
from qobs.errors import QobsError
from qobs.systems import HamiltonianCoupling, NoiseChannel, NoiseKind, canonical_theta

from oracle import cavity_traces

#: (n_x, input channels, output quadratures) strata of the random plants; a
#: block holds every stratum once, in a seeded order, so every block has the
#: same size mix
STRATA = tuple(
    (n_x, n_ch, n_y) for n_x in (2, 4, 6, 8) for n_ch in (1, 2, 3) for n_y in range(2, 2 * n_ch + 1, 2)
)
RANDOM_BLOCKS = 20
MAX_THERMAL_KN = 50.0
#: random-design draws its plants from a fixed pool of POOL_SIZE plants per
#: stratum, plant ``i`` of stratum ``k`` being ``pool_plant(k, i)``;
#: vet_pool.py checks that no operation fails on any of them
POOL_KEY = 2259
POOL_SIZE = 200
#: plants on which a known defect of the program shows; random-design keeps
#: them out of its timed operations and runs each once after them
KNOWN_DEFECTS = Path(__file__).resolve().parent / "known_defect_plants.json"

#: criterion-6 points of the cavity family
CROSSCHECK_POINTS = (("s1", 0.0), ("s1", 10.0), ("s2", 69.0), ("s2", 70.0), ("s3", 909.0), ("s3", 910.0))
#: fixed-step RK4 over 50 time constants in 20000 steps is stable only while
#: |eigenvalue| * step < 2.78, i.e. a stiffness ratio below about 1100
MAX_STIFFNESS = 400.0

#: output-check tolerances
#: ||commutation residual||_F of the built observer over 1 + ||A||_F, the
#: package's own test for a physically realizable system file; an absolute
#: bound would demand 1e-11 relative accuracy of plants with entries near 1e3
COMMUTATION_RTOL = 1e-8
#: J_bar vs scipy, relative to 1 + max |J_bar|; see lyapunov_rtol
LYAPUNOV_RTOL = 1e-8
ORACLE_RTOL = 1e-8  # sweep traces vs the scalar closed forms
ORDER_RTOL = 1e-12  # alg2 trace <= alg1 trace
#: criterion 6 allows max |P_lyap - P_int| <= 1e-6 on the cavity points; random
#: plants reach covariance entries of 1e7, so a share of the largest entry is
#: added: 1e-9, or lyapunov_rtol where the Lyapunov operator is ill-conditioned
INTEGRATION_ATOL = 1e-6
INTEGRATION_RTOL = 1e-9


@dataclass
class Failure:
    """One failed operation: its type label and whether an output was wrong."""

    kind: str
    message: str
    wrong_output: bool = False


def check_failure(what: str, message: str) -> Failure:
    return Failure(f"check:{what}", message, wrong_output=True)


def exception_failure(exc: BaseException) -> Failure:
    typed = "QobsError" if isinstance(exc, QobsError) else "untyped"
    return Failure(f"{typed}:{type(exc).__name__}", str(exc)[:200])


@dataclass
class Unit:
    """One timed call into the program, worth ``size`` operations.

    ``check`` returns one :class:`Failure` per failed operation of the call.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    size: int = 1


def random_plant(rng: np.random.Generator, n_x: int, n_ch: int, n_y: int):
    """Random realizable plant from the forward ``(R, Lambda)`` construction.

    ``R`` and ``Lambda`` have standard normal entries; each input channel is
    thermal with probability 1/2, with ``k_n`` uniform in ``[0, 50]``.
    """
    G = rng.normal(size=(n_x, n_x))
    lam = rng.normal(size=(n_ch, n_x)) + 1j * rng.normal(size=(n_ch, n_x))
    channels = tuple(
        NoiseChannel.thermal(float(rng.uniform(0.0, MAX_THERMAL_KN)))
        if rng.random() < 0.5
        else NoiseChannel.vacuum()
        for _ in range(n_ch)
    )
    return systems.realize_from_hamiltonian(HamiltonianCoupling((G + G.T) / 2.0, lam, n_y), channels)


def pool_plant(k: int, i: int):
    """Plant ``i`` of the pool of stratum ``k``, the same in every run."""
    return random_plant(np.random.default_rng([POOL_KEY, k, i]), *STRATA[k])


def stored_plant(entry: dict):
    """A plant stored as its ``realize_from_hamiltonian`` inputs."""
    lam = np.array(entry["lambda_re"]) + 1j * np.array(entry["lambda_im"])
    channels = tuple(
        NoiseChannel.thermal(k_n) if kind == "thermal" else NoiseChannel.vacuum() for kind, k_n in entry["channels"]
    )
    return systems.realize_from_hamiltonian(HamiltonianCoupling(np.array(entry["R"]), lam, entry["n_y"]), channels)


def warm_up(out_dir: Path) -> None:
    """One small call through every traced function before anything is timed.

    It pays first-call costs (lazy imports, numpy dispatch caches) outside
    the timing, and gives every layer at least one span in a traced run,
    including the layers the workload itself never calls.
    """
    with tempfile.TemporaryDirectory(prefix="warm-up-", dir=out_dir) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["sweep", "--scenario", "s1", "--kn-min", "1", "--kn-max", "10", "--kn-points", "2",
                      "--algorithms", "alg1,alg3,classical", "--out", str(Path(tmp) / "warm-up.csv")])
    plant = systems.make_cavity_plant(*sweep.SCENARIOS["s1"], 1.0)
    observers.design_algorithm2(plant, rho_candidates=[0.0])
    A_e, B_e, S = observers.error_system(plant, observers.design_algorithm1(plant))
    solvers.integrate_covariance(A_e, B_e @ S @ B_e.T, np.zeros_like(A_e), 1.0, step=0.1)
    systems.realize_from_hamiltonian(HamiltonianCoupling(np.zeros((2, 2)), [[0.5, 0.5j]], n_y=2))


def plant_summary(plants) -> dict:
    channels = [ch for p in plants for ch in p.channels]
    thermal = sum(ch.kind is NoiseKind.THERMAL for ch in channels)
    return {
        "n_x_histogram": dict(sorted(Counter(p.n_x for p in plants).items())),
        "thermal_channel_share": thermal / len(channels) if channels else None,
    }


def lyapunov_rtol(A_e: np.ndarray, floor: float = LYAPUNOV_RTOL) -> float:
    """Relative error two sound Lyapunov solvers may show on ``A_e``.

    ``floor``, widened to ``10 cond(L) eps`` for the operator
    ``L = I (x) A_e + A_e (x) I``: backward-stable solvers agree only to about
    ``cond(L) eps``, and random plants reach ``cond(L) = 1e10``.
    """
    n = A_e.shape[0]
    L = np.kron(np.eye(n), A_e) + np.kron(A_e, np.eye(n))
    return max(floor, 10.0 * float(np.linalg.cond(L)) * float(np.finfo(float).eps))


def _observer(out):
    return out[0] if isinstance(out, tuple) else out


def realized_residual(plant, obs) -> float:
    """Commutation residual of a coherent observer in its realized coordinates,
    relative to ``1 + ||A||_F`` of those coordinates."""
    tf = obs.transform
    if tf is not None:
        A, gains = tf.A_tilde, [tf.B_tilde, tf.B_v1_tilde]
    else:
        A, gains = obs.A_hat, [obs.B_hat, obs.B_v1, obs.B_v2]
    blocks = [canonical_theta(G.shape[1] // 2) if G.shape[1] else np.zeros((0, 0)) for G in gains]
    res = systems.commutation_residual(A, gains, plant.theta, blocks)
    return float(np.linalg.norm(res)) / (1.0 + float(np.linalg.norm(A)))


class Workload:
    """Inputs built at construction from ``(seed, out_dir)``; ``rounds()``
    yields lists of units."""

    name = ""

    def __init__(self) -> None:
        self.plants = 0  # plants designed, setup included

    def rounds(self):
        raise NotImplementedError

    def round_check(self, results: dict) -> list:
        """Failures found across the units of one round (``label -> output``)."""
        return []

    def summary(self) -> dict:
        return {}

    def known_defects(self) -> dict:
        """Whether each known defect this workload probes still shows."""
        return {}

    def close(self) -> None:
        pass


class CavitySweep(Workload):
    """``qobs sweep`` on s1, s2 and s3 over the default grid, all four designers."""

    name = "cavity-sweep"

    def __init__(self, seed, out_dir) -> None:
        super().__init__()
        names = sorted(sweep.SCENARIOS)
        shift = seed % len(names)
        self.order = names[shift:] + names[:shift]
        self.grid = sweep.default_kn_grid()
        self.grid_points = len(self.grid)
        self.tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=out_dir))
        self.ledger = CsvLedger(out_dir / "csv_sha256.json", code_fingerprint())
        self.rows = Counter()

    def rounds(self):
        """One scenario sweep per round, cycling through the seeded order.

        Single-sweep rounds let a run fill its time with whole sweeps; the
        three scenarios cost within a few per cent of each other.
        """
        for s in itertools.cycle(self.order):
            yield [Unit(s, lambda s=s: self._sweep(s), lambda rc, s=s: self._check(s, rc), self.grid_points)]

    def _sweep(self, scenario: str) -> int:
        self.plants += self.grid_points
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["sweep", "--scenario", scenario, "--out", str(self.tmp / f"{scenario}.csv")])

    def _check(self, scenario: str, exit_code: int) -> list:
        if exit_code != 0:
            return [Failure("exit", f"qobs sweep exited {exit_code}")] * self.grid_points
        data = (self.tmp / f"{scenario}.csv").read_bytes()
        failures = []
        mismatch = self.ledger.record(scenario, hashlib.sha256(data).hexdigest())
        if mismatch:
            failures.append(check_failure("csv_sha256", f"{scenario}: {mismatch}"))
        for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
            self.rows["rows"] += 1
            self.rows["alg3_transformed"] += row["alg3_transformed"] == "true"
            problem = self._row_problem(scenario, row)
            if problem is not None:
                failures.append(problem)
        return failures[: self.grid_points]

    @staticmethod
    def _row_problem(scenario: str, row: dict) -> Failure | None:
        where = f"{scenario} k_n={row['k_n']}"
        if any(row[f"{alg}_trace"] == "" for alg in sweep.ALGORITHMS):
            return Failure("QobsError:designer", f"{where}: a designer failed")
        tr = {alg: float(row[f"{alg}_trace"]) for alg in sweep.ALGORITHMS}
        exp = cavity_traces(*sweep.SCENARIOS[scenario], float(row["k_n"]))
        transformed = row["alg3_transformed"] == "true"
        if transformed != exp["transformed"]:
            return check_failure("oracle", f"{where}: alg3 transformed={transformed}, closed form disagrees")
        exp3 = exp["alg3"] if exp["transformed"] else exp["alg1"]
        for alg, want in (("alg1", exp["alg1"]), ("classical", exp["classical"]), ("alg3", exp3)):
            if not abs(tr[alg] - want) <= ORACLE_RTOL * (1.0 + abs(want)):
                return check_failure("oracle", f"{where}: {alg} trace {tr[alg]!r} vs closed form {want!r}")
        if not tr["alg2"] <= tr["alg1"] + ORDER_RTOL * (1.0 + abs(tr["alg1"])):
            return check_failure("alg2_vs_alg1", f"{where}: alg2 trace {tr['alg2']!r} exceeds alg1 {tr['alg1']!r}")
        return None

    def summary(self) -> dict:
        n = self.rows["rows"]
        return {
            "scenarios": self.order,
            "grid_points": self.grid_points,
            "n_x_histogram": {2: n},
            "thermal_channel_share": sum(k > 0 for k in self.grid) / (2 * len(self.grid)),
            "alg3_transform_share": self.rows["alg3_transformed"] / n if n else None,
            "alg2_candidates_per_design": None,  # the CSV does not carry it; see the traced run
            "csv_sha256": self.ledger.seen,
            "code_fingerprint": self.ledger.fingerprint,
        }

    def close(self) -> None:
        self.ledger.save()
        shutil.rmtree(self.tmp, ignore_errors=True)


class RandomDesign(Workload):
    """Every designer on seeded random realizable plants, each design scored."""

    name = "random-design"
    DESIGNERS = ("design_algorithm1", "design_algorithm2", "design_algorithm3", "design_classical")

    def __init__(self, seed, out_dir) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        picks = [rng.permutation(POOL_SIZE)[:RANDOM_BLOCKS] for _ in STRATA]
        self.blocks = [
            [pool_plant(k, int(picks[k][b])) for k in rng.permutation(len(STRATA))] for b in range(RANDOM_BLOCKS)
        ]
        self.used: list = []
        self.transformed = Counter()
        self.candidates: list[int] = []

    def rounds(self):
        """One round per block of plants, every designer on every plant."""
        for i in itertools.count():
            block = self.blocks[i % len(self.blocks)]
            self.used += block
            self.plants += len(block)
            yield [
                Unit(
                    f"{j}:{name}",
                    lambda p=plant, n=name: self._design(p, n),
                    lambda out, p=plant, n=name: self._check(p, n, out),
                )
                for j, plant in enumerate(block)
                for name in self.DESIGNERS
            ]

    @staticmethod
    def _design(plant, name: str):
        out = getattr(observers, name)(plant)
        return out, observers.evaluate_performance(plant, _observer(out))

    def _check(self, plant, name: str, result) -> list:
        out, report = result
        obs = _observer(out)
        if name == "design_algorithm2":
            self.candidates.append(len(out[2]))
        if name == "design_algorithm3":
            self.transformed[out[1] is None] += 1
        A_e, B_e, S = observers.error_system(plant, obs)
        worst = float(np.max(np.linalg.eigvals(A_e).real))
        if not worst < 0.0:
            return [check_failure("hurwitz", f"{name}: error pole with real part {worst:.3e}")]
        ref = scipy.linalg.solve_continuous_lyapunov(A_e, -(B_e @ S @ B_e.T))
        gap = float(np.max(np.abs(report.J_bar - ref)))
        if not gap <= lyapunov_rtol(A_e) * (1.0 + float(np.max(np.abs(ref)))):
            return [check_failure("lyapunov", f"{name}: J_bar differs from scipy by {gap:.3e}")]
        if name != "design_classical":
            res = realized_residual(plant, obs)
            if not res <= COMMUTATION_RTOL:
                return [check_failure("commutation", f"{name}: relative residual {res:.3e}")]
        return []

    def round_check(self, results: dict) -> list:
        failures = []
        for label, (_, report1) in results.items():
            plant, name = label.split(":")
            second = results.get(f"{plant}:design_algorithm2")
            if name != "design_algorithm1" or second is None:
                continue
            tr1, tr2 = report1.trace, second[1].trace
            if not tr2 <= tr1 + ORDER_RTOL * (1.0 + abs(tr1)):
                failures.append(check_failure("alg2_vs_alg1", f"alg2 trace {tr2!r} exceeds alg1 {tr1!r}"))
        return failures

    def summary(self) -> dict:
        out = plant_summary(self.used)
        done = sum(self.transformed.values())
        out["plants"] = len(self.used)
        out["alg3_transform_share"] = self.transformed[True] / done if done else None
        out["alg2_candidates_per_design"] = float(np.mean(self.candidates)) if self.candidates else None
        return out

    def known_defects(self) -> dict:
        """Design each stored defect plant once, untimed and uncounted.

        The timed plants avoid these defects, so this is where they show:
        ``"shows: <failure>"`` while the defect is there, ``"gone"`` after a fix.
        """
        found = {}
        for defect in json.loads(KNOWN_DEFECTS.read_text(encoding="utf-8"))["defects"]:
            plant, name = stored_plant(defect["plant"]), defect["designer"]
            try:
                failures = self._check(plant, name, self._design(plant, name))
            except Exception as exc:
                failures = [exception_failure(exc)]
            found[defect["name"]] = f"shows: {failures[0].kind}: {failures[0].message}" if failures else "gone"
        return found


class CovarianceCrosscheck(Workload):
    """Steady-state Lyapunov solve vs covariance integration on error systems.

    Designs are built in setup; each operation is one ``solve_lyapunov`` plus
    one ``integrate_covariance`` over 50 time constants, then compared.
    Random plants whose error dynamics are too stiff for the fixed-step
    integrator (stiffness ratio above ``MAX_STIFFNESS``) are redrawn.
    """

    name = "covariance-crosscheck"
    DESIGNERS = ("design_algorithm1", "design_algorithm3", "design_classical")

    def __init__(self, seed, out_dir) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.items: list[tuple] = []
        self.rejected = Counter()
        self.transformed = Counter()
        plants = []
        for scenario, kn in CROSSCHECK_POINTS:
            plant = systems.make_cavity_plant(*sweep.SCENARIOS[scenario], kn)
            plants.append(plant)
            self.items += self._verifications(plant, f"{scenario}@k_n={kn}")
        for i in rng.permutation(len(STRATA)):
            for _ in range(100):
                plant = random_plant(rng, *STRATA[i])
                try:
                    items = self._verifications(plant, f"random n_x={plant.n_x}")
                except Exception as exc:  # redraw; counted in the summary
                    self.rejected[type(exc).__name__] += 1
                    continue
                if items is None:
                    self.rejected["stiff"] += 1
                    continue
                plants.append(plant)
                self.items += items
                break
            else:
                raise RuntimeError(f"no usable random plant in stratum {STRATA[i]}")
        self.order = rng.permutation(len(self.items))
        self._summary = plant_summary(plants)

    def _verifications(self, plant, label: str):
        self.plants += 1
        items = []
        for name in self.DESIGNERS:
            out = getattr(observers, name)(plant)
            if name == "design_algorithm3":
                self.transformed[out[1] is None] += 1
            A_e, B_e, S = observers.error_system(plant, _observer(out))
            eig = np.linalg.eigvals(A_e)
            margin = -float(np.max(eig.real))
            if not margin > 0.0 or np.max(np.abs(eig)) > MAX_STIFFNESS * margin:
                return None
            items.append((f"{label} {name}", A_e, B_e @ S @ B_e.T, 50.0 / margin))
        return items

    def rounds(self):
        """One verification per round, visiting the items in the seeded order."""
        for i in itertools.count():
            label, A_e, N, horizon = self.items[self.order[i % len(self.items)]]
            yield [
                Unit(label, lambda A=A_e, N=N, h=horizon: self._verify(A, N, h),
                     lambda out, lab=label, A=A_e: self._check(lab, A, out))
            ]

    @staticmethod
    def _verify(A_e, N, horizon):
        P = solvers.solve_lyapunov(A_e, N)
        return P, solvers.integrate_covariance(A_e, N, np.zeros_like(P), horizon)

    @staticmethod
    def _check(label: str, A_e, result) -> list:
        P, P_int = result
        gap = float(np.max(np.abs(P - P_int)))
        rtol = lyapunov_rtol(A_e, floor=INTEGRATION_RTOL)
        if not gap <= INTEGRATION_ATOL + rtol * float(np.max(np.abs(P))):
            return [check_failure("integration_gap", f"{label}: gap {gap:.3e}")]
        return []

    def summary(self) -> dict:
        done = sum(self.transformed.values())
        return {
            **self._summary,
            "verifications": len(self.items),
            "redrawn_random_plants": dict(self.rejected),
            "alg3_transform_share": self.transformed[True] / done if done else None,
            "alg2_candidates_per_design": None,  # alg2 is not run here
        }


WORKLOADS = {w.name: w for w in (CavitySweep, RandomDesign, CovarianceCrosscheck)}


def code_fingerprint() -> str:
    """SHA-256 over the package sources, naming the code a CSV came from."""
    src = Path(sweep.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class CsvLedger:
    """SHA-256 of each scenario CSV per code fingerprint, kept across runs."""

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.seen: dict[str, str] = {}
        try:
            self.known = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def record(self, scenario: str, digest: str) -> str | None:
        """Store ``digest``; describe the disagreement if the same code gave another."""
        earlier = self.seen.get(scenario) or self.known.get(self.fingerprint, {}).get(scenario)
        self.seen[scenario] = digest
        if earlier is not None and earlier != digest:
            return f"sha256 {digest[:16]}... differs from {earlier[:16]}... at the same code"
        return None

    def save(self) -> None:
        try:
            current = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            current = {}
        entry = current.setdefault(self.fingerprint, {})
        for scenario, digest in self.seen.items():
            entry.setdefault(scenario, digest)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(self.path)
