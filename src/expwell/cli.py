"""Command-line front end.

    expwell spectrum --g 1 [--verify]
    expwell scatter  --g 1 [--k 1 | --kmin .1 --kmax 5 --n 50] [--poles] [--oracle]
    expwell crum     --g 5 --L 1
    expwell verify   --g 5

Reports are emitted as JSON ({config, results, residuals, pass}) or CSV
with fixed columns.  Numbers are serialized with 17 significant digits,
so files round-trip exactly and identical configurations produce
byte-identical output.  Exit codes: 0 pass, 1 verification failure,
2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bound, crum, oracle, scatter
from .bound import PotentialParams
from .errors import ExpwellError
from .verify import run_battery

__all__ = ["main", "build_parser"]

_USAGE_ERROR = 2
_VERIFY_ERROR = 1


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_dump(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting and key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {_json_dump(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_json_dump(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(config: dict, results: dict, residuals: dict, passed: bool,
            fmt: str, out_path: str | None, csv_text: str) -> None:
    if fmt == "json":
        doc = {"config": config, "results": results,
               "residuals": residuals, "pass": passed}
        _emit(_json_dump(doc) + "\n", out_path)
    else:
        _emit(csv_text, out_path)


def cmd_spectrum(args) -> int:
    params = PotentialParams(args.g)
    spectrum = bound.normalize(bound.find_spectrum(params, tol=args.tol))
    oracle_delta: dict[int, float] = {}
    if args.verify:
        for s in spectrum.states:
            # None below oracle.SHOOTING_KAPPA_MIN: the state is not checked
            kappa = oracle.shooting_kappa(s, params)
            if kappa is not None:
                oracle_delta[s.m] = abs(kappa - s.kappa)

    cond = bound._condition_residual(spectrum.states, params.g)
    passed = cond <= max(args.tol, 1e-10)
    if args.verify and oracle_delta:
        passed = passed and max(oracle_delta.values()) <= 1e-7

    rows = []
    for s in spectrum.states:
        rows.append({
            "m": s.m, "parity": s.parity, "kappa": s.kappa,
            "energy": s.energy, "order": s.order, "norm_const": s.norm_const,
            "oracle_delta": oracle_delta.get(s.m),
        })
    residuals = {
        "max_condition_residual": cond,
        "max_oracle_delta": max(oracle_delta.values()) if oracle_delta else None,
    }
    csv_lines = ["m,parity,kappa,energy,order,norm_const,oracle_delta"]
    for r in rows:
        od = "" if r["oracle_delta"] is None else _fmt(r["oracle_delta"])
        csv_lines.append(
            f'{r["m"]},{r["parity"]},{_fmt(r["kappa"])},{_fmt(r["energy"])},'
            f'{_fmt(r["order"])},{_fmt(r["norm_const"])},{od}'
        )
    config = {"command": "spectrum", "g": float(args.g), "tol": float(args.tol),
              "verify": bool(args.verify)}
    _report(config, {"states": rows}, residuals, passed,
            args.format, args.out, "\n".join(csv_lines) + "\n")
    return 0 if passed else _VERIFY_ERROR


def _k_grid(args) -> list[float]:
    # sinh(2 pi k) -> 0 makes W small near threshold; stay above 1e-3
    if args.k is not None:
        if args.k < 1e-3:
            raise ValueError("momentum k must be at least 1e-3")
        return [float(args.k)]
    if args.kmin < 1e-3 or args.kmax <= args.kmin or args.n < 1:
        raise ValueError("need 1e-3 <= kmin < kmax and n >= 1")
    return [float(v) for v in np.geomspace(args.kmin, args.kmax, args.n)]


def cmd_scatter(args) -> int:
    params = PotentialParams(args.g)
    ks = _k_grid(args)
    points = []
    worst_unit = worst_w = 0.0
    worst_oracle = None
    for k in ks:
        pt = scatter.amplitudes(k, params)
        wres = scatter.wronskian_identity_residual(k, params)
        worst_unit = max(worst_unit, pt.unitarity_residual, pt.ortho_residual)
        worst_w = max(worst_w, wres)
        row = {
            "k": k,
            "re_r": pt.r.real, "im_r": pt.r.imag,
            "re_t": pt.t.real, "im_t": pt.t.imag,
            "abs_r2": abs(pt.r) ** 2, "abs_t2": abs(pt.t) ** 2,
            "unitarity_residual": pt.unitarity_residual,
            "wronskian_residual": wres,
            "oracle_t2_delta": None,
        }
        if args.oracle:
            _, t_ode = oracle.transmission_numeric(k, params)
            row["oracle_t2_delta"] = abs(abs(pt.t) ** 2 - abs(t_ode) ** 2)
            worst_oracle = max(worst_oracle or 0.0, row["oracle_t2_delta"])
        points.append(row)

    passed = worst_unit <= args.tol and worst_w <= args.tol
    if worst_oracle is not None:
        passed = passed and worst_oracle <= 1e-4

    results: dict = {"points": points}
    pole_rows = []
    if args.poles:
        spectrum = bound.find_spectrum(params)
        try:
            report = scatter.find_poles(params, spectrum)
            for kp, par, m in zip(report.kappa_poles, report.parities,
                                  report.matched_state_indices):
                pole_rows.append({"kappa": kp, "parity": par, "matched_m": m})
            results["poles"] = {"count": len(pole_rows), "poles": pole_rows,
                                "matched": True}
        except ExpwellError as exc:
            results["poles"] = {"count": 0, "poles": [], "matched": False,
                                "error": str(exc)}
            passed = False

    residuals = {
        "max_unitarity_residual": worst_unit,
        "max_wronskian_residual": worst_w,
        "max_oracle_t2_delta": worst_oracle,
    }
    header = ("k,re_r,im_r,re_t,im_t,abs_r2,abs_t2,"
              "unitarity_residual,wronskian_residual,oracle_t2_delta")
    csv_lines = [header]
    for p in points:
        od = "" if p["oracle_t2_delta"] is None else _fmt(p["oracle_t2_delta"])
        csv_lines.append(",".join([
            _fmt(p["k"]), _fmt(p["re_r"]), _fmt(p["im_r"]),
            _fmt(p["re_t"]), _fmt(p["im_t"]), _fmt(p["abs_r2"]),
            _fmt(p["abs_t2"]), _fmt(p["unitarity_residual"]),
            _fmt(p["wronskian_residual"]), od,
        ]))
    for p in pole_rows:
        csv_lines.append(f'# pole,{_fmt(p["kappa"])},{p["parity"]},{p["matched_m"]}')
    config = {"command": "scatter", "g": float(args.g), "tol": float(args.tol),
              "k": None if args.k is None else float(args.k),
              "kmin": float(args.kmin), "kmax": float(args.kmax),
              "k_count": len(ks), "poles": bool(args.poles),
              "oracle": bool(args.oracle)}
    _report(config, results, residuals, passed,
            args.format, args.out, "\n".join(csv_lines) + "\n")
    return 0 if passed else _VERIFY_ERROR


def cmd_crum(args) -> int:
    params = PotentialParams(args.g)
    spectrum = bound.find_spectrum(params)
    level = args.L
    if spectrum.count < level:
        raise ValueError(
            f"insufficient states: level {level} needs {level} seed states, "
            f"g={args.g} supports {spectrum.count}"
        )
    x_grid = np.linspace(-10.0, 10.0, 201)
    system = crum.build_crum_system(level, params, spectrum, x_grid,
                                    n_states=4)
    orth = {}
    if spectrum.count >= level + 2:
        orth = crum.associated_orthogonality_residuals(level, params, spectrum)
    shape = crum.shape_invariance_residual(params, spectrum) \
        if spectrum.count >= 1 else None

    max_orth = max(orth.values()) if orth else None
    passed = (max_orth is None or max_orth <= args.tol) and \
        (shape is None or shape > 1e-3)

    psi_keys = sorted(system.psi_L.keys())
    results = {
        "L": level,
        "x_grid": [float(v) for v in system.x_grid],
        "V_L": [float(v) for v in system.V_L],
        "psi": {str(n): [float(v) for v in system.psi_L[n]] for n in psi_keys},
        "orthogonality_residuals": [
            {"a": a, "b": b, "residual": v} for (a, b), v in sorted(orth.items())
        ],
        "shape_invariance_residual": shape,
    }
    residuals = {
        "max_orthogonality_residual": max_orth,
        "shape_invariance_residual": shape,
    }
    header = "x,V_L," + ",".join(f"psi_{n}" for n in psi_keys)
    csv_lines = [header]
    for i, x in enumerate(system.x_grid):
        row = [_fmt(float(x)), _fmt(float(system.V_L[i]))]
        row += [_fmt(float(system.psi_L[n][i])) for n in psi_keys]
        csv_lines.append(",".join(row))
    config = {"command": "crum", "g": float(args.g), "L": level,
              "tol": float(args.tol)}
    _report(config, results, residuals, passed,
            args.format, args.out, "\n".join(csv_lines) + "\n")
    return 0 if passed else _VERIFY_ERROR


def cmd_verify(args) -> int:
    checks = run_battery(args.g)
    rows = []
    all_pass = True
    width = max(len(c.name) for c in checks)
    for c in checks:
        if c.skipped:
            status = "SKIP"
        else:
            status = "PASS" if c.passed else "FAIL"
            all_pass = all_pass and c.passed
        value = "" if c.value is None else f"{c.value:.3e}"
        bound_s = "" if c.threshold is None else f"{c.comparator} {c.threshold:.0e}"
        line = f"{c.name:<{width}}  {status}  {value:>10} {bound_s} {c.note}"
        print(line.rstrip())
        rows.append({
            "name": c.name,
            "value": c.value,
            "threshold": c.threshold,
            "comparator": c.comparator,
            "passed": c.passed,
            "note": c.note,
        })
    if args.out:
        worst = {
            r["name"]: r["value"] for r in rows if r["value"] is not None
        }
        config = {"command": "verify", "g": float(args.g)}
        _report(config, {"checks": rows}, worst, all_pass,
                "json", args.out, "")
    return 0 if all_pass else _VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expwell",
        description="Exact Bessel-function solver for the well "
                    "V(x) = -g^2 exp(-|x|)")
    sub = parser.add_subparsers(dest="command", required=True)

    def g_and_out(p):
        p.add_argument("--g", type=float, required=True,
                       help="coupling strength, g > 0")
        p.add_argument("--out", type=str, default=None,
                       help="output path (default: stdout)")

    def common(p, default_tol):
        g_and_out(p)
        p.add_argument("--tol", type=float, default=default_tol)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("spectrum", help="bound states")
    common(p, 1e-12)
    p.add_argument("--verify", action="store_true",
                   help="cross-check each level against the ODE oracle")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scatter", help="scattering amplitudes")
    common(p, 1e-9)
    p.add_argument("--k", type=float, default=None, help="single momentum")
    p.add_argument("--kmin", type=float, default=0.1)
    p.add_argument("--kmax", type=float, default=5.0)
    p.add_argument("--n", type=int, default=50, help="points in the k sweep")
    p.add_argument("--poles", action="store_true",
                   help="locate amplitude poles and match the spectrum")
    p.add_argument("--oracle", action="store_true",
                   help="compare |t|^2 against direct ODE integration")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("crum", help="associated isospectral systems")
    common(p, 1e-6)
    p.add_argument("--L", type=int, default=1, help="hierarchy level, L >= 1")
    p.set_defaults(func=cmd_crum)

    p = sub.add_parser("verify", help="run the full invariant battery")
    g_and_out(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "L", 1) < 1 and args.command == "crum":
            raise ValueError("level L must be >= 1")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except ExpwellError as exc:
        # computation-level invariant violation, not a usage problem
        print(f"error: {exc}", file=sys.stderr)
        return _VERIFY_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
