"""Command-line front end.

Subcommands::

    qobs sweep  --scenario {s1|s2|s3|custom} [...] --out FILE.csv
    qobs design --plant FILE.json --algorithm {alg1|alg2|alg3|classical} --out FILE.json
    qobs check  --system FILE.json

Exit codes: 0 success, 1 usage error, 2 numerical failure (including a failed
realizability check), 3 IO or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FileFormatError, QobsError, single_outcome
from .observers import ClassicalObserver
from .realizability import min_vacuum_rank, skew_riccati_transform, stilde
from .sweep import (
    ALGORITHMS,
    SCENARIOS,
    ScenarioConfig,
    _design_stack,
    default_kn_grid,
    emit_csv,
    emit_plot_data,
    run_sweep,
)
from .systems import CHECK_RTOL, load_system

USAGE_ERROR, NUMERICAL_ERROR, IO_ERROR = 1, 2, 3


class _UsageError(Exception):
    """Flag combinations argparse cannot express; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this CLI reserves 2 for
    # numerical failures, so route usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qobs", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qobs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="compare observers across a thermal-intensity grid"
    )
    p_sweep.add_argument(
        "--scenario", choices=[*sorted(SCENARIOS), "custom"], default="s1"
    )
    p_sweep.add_argument("--kappa1", type=float, help="required for --scenario custom")
    p_sweep.add_argument("--kappa2", type=float, help="required for --scenario custom")
    p_sweep.add_argument("--kn-min", type=float, default=None)
    p_sweep.add_argument("--kn-max", type=float, default=None)
    p_sweep.add_argument("--kn-points", type=int, default=None)
    p_sweep.add_argument(
        "--algorithms",
        default=",".join(ALGORITHMS),
        help=f"comma-separated subset of {','.join(ALGORITHMS)}",
    )
    p_sweep.add_argument("--out", required=True, help="CSV destination")
    p_sweep.add_argument(
        "--plot-dir", default=None, help="also write two-column k_n/trace files here"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_design = sub.add_parser("design", help="design one observer for a plant file")
    p_design.add_argument("--plant", required=True)
    p_design.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_design.add_argument("--out", required=True)
    p_design.set_defaults(func=_cmd_design)

    p_check = sub.add_parser(
        "check", help="realizability report for a system file"
    )
    p_check.add_argument("--system", required=True)
    p_check.set_defaults(func=_cmd_check)
    return parser


def _sweep_grid(args) -> tuple[float, ...]:
    custom = [args.kn_min, args.kn_max, args.kn_points]
    if all(v is None for v in custom):
        return default_kn_grid()
    if any(v is None for v in custom):
        raise _UsageError("--kn-min, --kn-max and --kn-points must be given together")
    if args.kn_points < 2 or not 0 <= args.kn_min < args.kn_max < np.inf:
        raise _UsageError("need kn-points >= 2 and 0 <= kn-min < kn-max < inf")
    if args.kn_min == 0:
        # log spacing needs a positive start; keep the requested zero point
        if args.kn_max <= 1e-3:
            raise _UsageError("with --kn-min 0 the log grid starts at 1e-3; need kn-max > 1e-3")
        grid = np.concatenate(
            [[0.0], np.logspace(np.log10(1e-3), np.log10(args.kn_max), args.kn_points - 1)]
        )
    else:
        grid = np.logspace(np.log10(args.kn_min), np.log10(args.kn_max), args.kn_points)
    # 10**log10(kn_max) can miss kn_max by an ulp; a one-point log part is its start
    grid[-1] = args.kn_max
    return tuple(float(k) for k in grid)


def _cmd_sweep(args) -> int:
    kappas = (args.kappa1, args.kappa2)
    if args.scenario != "custom":
        if kappas != (None, None):
            raise _UsageError("--kappa1 and --kappa2 need --scenario custom")
        kappas = SCENARIOS[args.scenario]
    elif None in kappas:
        raise _UsageError("--scenario custom requires --kappa1 and --kappa2")
    algorithms = tuple(a for a in args.algorithms.split(",") if a)
    if not algorithms or not set(algorithms) <= set(ALGORITHMS):
        raise _UsageError(f"--algorithms needs a comma-separated subset of {','.join(ALGORITHMS)}")
    try:  # a non-finite or negative number on the command line is bad usage
        config = ScenarioConfig(*kappas, kn_grid=_sweep_grid(args), algorithms=algorithms)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None
    rows = run_sweep(config)
    emit_csv(rows, args.out)
    sidecar = {
        "kappa1": config.kappa1,
        "kappa2": config.kappa2,
        "algorithms": list(config.algorithms),
        "kn_points": len(config.kn_grid),
        "matrix_norm": "frobenius",
        "scenario": args.scenario,
        "tool": f"qobs {__version__}",
    }
    Path(str(args.out) + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if args.plot_dir:
        emit_plot_data(rows, args.plot_dir)
    failures = sum(bool(row.errors) for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({failures} rows carry designer errors)" if failures else ""))
    return 0


def _matrix(M: np.ndarray) -> list:
    return np.asarray(M).tolist()


def _cmd_design(args) -> int:
    plant = load_system(args.plant)
    obs = single_outcome(_design_stack([args.algorithm], [plant])[args.algorithm])
    if isinstance(obs, ClassicalObserver):
        A, B, C = obs.A_hat, obs.K, np.eye(plant.n_x)
        extra = {"provenance": {"algorithm": "classical"}, "K": _matrix(obs.K)}
    else:
        # the realized system: the coordinates in which commutation holds,
        # driven by the y, v1 and v2 inputs
        tf = obs.transform
        A, B_y, C = (obs.A_hat, obs.B_hat, obs.C_hat) if tf is None else (tf.A_tilde, tf.B_tilde, tf.C_tilde)
        B = np.hstack([B_y, obs.B_v1, obs.B_v2])
        extra = {
            "B_v1": _matrix(obs.B_v1),
            "B_v2": _matrix(obs.B_v2),
            "noise_gain_v1": _matrix(obs.noise_gain_v1),
            "n_v2": obs.n_v2,
            "provenance": {k: v for k, v in asdict(obs.provenance).items() if v is not None},
        }
        if tf is not None:
            extra["transform"] = {"T": _matrix(tf.T), "X": _matrix(tf.X)}
    payload = {
        "n_x": plant.n_x,
        "A": _matrix(A),
        "B": _matrix(B),
        "C": _matrix(C),
        "D": _matrix(np.zeros((C.shape[0], B.shape[1]))),
        "channels": [{"kind": "vacuum"} for _ in range(B.shape[1] // 2)],
        **extra,
    }
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.algorithm} observer to {args.out}")
    return 0


def _cmd_check(args) -> int:
    """Realizability report for a system description file.

    Prints the commutation residual norm and the verdict, which is yes
    exactly when ``||residual||_F <= CHECK_RTOL (1 + ||A||_F)``: such a
    system needs no extra vacuum quadratures and no state transformation.
    A system that fails is also read as a filter whose output is fed back
    through ``field_gain(theta, C)``, the reading the designers repair; for
    that filter the report gives the commutation-defect matrix, its rank (the
    minimal number of extra vacuum quadratures) and whether the
    zero-extra-channel state transformation exists.
    """
    sys_ = load_system(args.system)
    res_norm = float(np.linalg.norm(sys_.residual()))
    ok = res_norm <= CHECK_RTOL * (1.0 + float(np.linalg.norm(sys_.A)))
    print(f"commutation residual norm: {res_norm:.6e}")
    if ok:
        print("minimal extra vacuum quadratures (n_v2): 0")
        print("state transformation (n_v2 = 0): not needed")
    else:
        print("read as a filter whose output is fed back through field_gain(theta, C):")
        print("  commutation defect matrix:")
        S_t = np.array2string(stilde(sys_.A, sys_.B, sys_.C, sys_.theta), precision=6, suppress_small=True)
        print("\n".join("    " + line for line in S_t.splitlines()))
        print(f"  minimal extra vacuum quadratures (n_v2): {min_vacuum_rank(sys_.A, sys_.B, sys_.C, sys_.theta)}")
        try:
            skew_riccati_transform(sys_.A, sys_.B, sys_.C, sys_.theta)
        except QobsError as exc:
            print(f"  state transformation (n_v2 = 0): failed ({exc.reason_code})")
        else:
            print("  state transformation (n_v2 = 0): success")
    print(f"physically realizable: {'yes' if ok else 'no'}")
    return 0 if ok else NUMERICAL_ERROR


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"qobs: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FileFormatError, OSError) as exc:
        print(f"qobs: {exc}", file=sys.stderr)
        return IO_ERROR
    except QobsError as exc:
        print(f"qobs: {exc.reason_code}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
