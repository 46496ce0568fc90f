"""Command-line frontend: transforms, constants, extremizer search,
concentration diagnostics, and the verification suites as reproducible batch
runs with machine-readable output.

Exit codes: 0 success, 2 usage or input error, 3 success criterion not met
(search did not converge / a verification check failed).
"""
from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__
from .cc import classify_trichotomy
from .core import (DataError, DomainError, IntervalSet, KplaneError, ParameterError,
                   RadialProfile, indicator_profile, make_halfline_grid, make_params,
                   read_profile_csv, resample_values, weighted_integral,
                   weighted_lp_norm, write_profile_csv)
from .extremal import (constant_A, constant_B_with_error, extremizer_profile,
                       search_extremizer)
from .transform import _apply_T_once, _dense_for
from .verify import UNSEEDED_SUITES, run_suite


def _header_meta(args, grid_n, extra=None) -> dict:
    meta = {"version": __version__, "k": args.k, "d": args.d, "grid_n": grid_n}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if extra:
        meta.update(extra)
    return meta


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kplane",
                                 description="radial k-plane transform toolbox")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_kd(p):
        p.add_argument("--k", type=int, required=True, help="plane dimension")
        p.add_argument("--d", type=int, required=True, help="ambient dimension")

    p = sub.add_parser("transform", help="apply the transform to a profile")
    add_kd(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV profile (columns r,value)")
    src.add_argument("--preset", help="extremizer | indicator:a | bump:center:width")
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--rmax", type=float, default=50.0,
                   help="radius window of the written output rows")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")

    p = sub.add_parser("constant", help="evaluate A(k,d) or B(k,d)")
    add_kd(p)
    p.add_argument("--which", choices=("A", "B"), required=True)
    p.add_argument("--grid-n", type=int, default=2048)

    p = sub.add_parser("search", help="variational extremizer search")
    add_kd(p)
    p.add_argument("--init", default="indicator",
                   help="indicator | random:SEED | file:PATH")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="stop once a step started from an Euler-Lagrange "
                        "residual <= TOL, checked after each Anderson-"
                        "accelerated step; the residual has a floor, at "
                        "--grid-n 512 about 4e-15 for (3,4), 1.2e-15 for "
                        "(1,3) and 1.1e-15 for (1,2), below which the search "
                        "runs to --max-iter and exits 3")
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--out-prefix", default="search",
                   help="writes PREFIX_trace.json and PREFIX_profile.csv")

    p = sub.add_parser("diagnose", help="Lions trichotomy classification")
    add_kd(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--inputs", nargs="+", help="CSV profiles forming the sequence")
    src.add_argument("--synthetic", help="tight | vanishing | dichotomy:alpha")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--separation-min", type=float, default=8.0)
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--auto-normalize", action="store_true")
    p.add_argument("--out", default="-", help="report JSON path (default stdout)")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True,
                   help="concentration-k2 | concentration-k1 | slide | superadd | "
                        "compactness | truncation | interaction | all")
    p.add_argument("--k", type=int, help="narrow parameter sweeps to this k")
    p.add_argument("--d", type=int, help="narrow parameter sweeps to this d")
    p.add_argument("--seed", type=int,
                   help="random cases of concentration-k2, slide and truncation (default 7)")
    p.add_argument("--trials", type=int,
                   help="random cases of concentration-k2 and slide (default 100)")
    p.add_argument("--out", default="-", help="JSON-lines report path (default stdout)")
    p.add_argument("--summary", help="optional summary CSV path")
    return ap


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_profile(path, grid):
    r, v, _meta = read_profile_csv(path)
    return RadialProfile(grid, resample_values(grid, r, v))


def _preset_profile(text: str, params, grid):
    name, _, rest = text.partition(":")
    if name == "extremizer":
        return extremizer_profile(params, 1.0, grid)
    if name == "indicator":
        a = float(rest or 1.0)
        if a <= 0:
            raise DataError(f"indicator radius must be positive, got {a}")
        return indicator_profile(grid, IntervalSet(((0.0, a),)))
    if name == "bump":
        parts = rest.split(":")
        if len(parts) != 2:
            raise DataError("bump preset needs bump:center:width")
        c, w = float(parts[0]), float(parts[1])
        if w <= 0:
            raise DataError("bump width must be positive")
        vals = np.exp(-4.0 * ((grid.nodes - c) / w) ** 2)
        return RadialProfile(grid, vals)
    raise DataError(f"unknown preset {text!r}")


def _cmd_transform(args) -> int:
    params = make_params(args.k, args.d)
    # every profile but an indicator preset (a closed form) needs the operator
    if args.input or args.preset.partition(":")[0] != "indicator":
        _dense_for(args.k, args.grid_n)
    grid = make_halfline_grid(args.grid_n)
    if not args.rmax >= grid.nodes[0]:
        raise ParameterError(f"--rmax {args.rmax} keeps no output row: it must be at least "
                             f"r_0 = {grid.nodes[0]:.3g}, the first node of --grid-n "
                             f"{args.grid_n}")
    if args.input:
        f = _load_profile(args.input, grid)
        source = args.input
    else:
        f = _preset_profile(args.preset, params, grid)
        source = args.preset
    tf = _apply_T_once(params, f)
    mask = grid.nodes <= args.rmax
    meta = _header_meta(args, args.grid_n,
                        {"rmax": args.rmax, "source": source,
                         "tail_fraction": f"{tf.meta.get('tail_fraction', 0.0):.3e}",
                         "tail_warning": tf.meta.get("tail_warning", False)})
    buf = io.StringIO()
    write_profile_csv(buf, grid.nodes[mask], tf.values[mask], meta)
    _write_text(args.out, buf.getvalue())
    return 0


def _cmd_constant(args) -> int:
    params = make_params(args.k, args.d)
    if args.which == "A":
        value, err = constant_A(params), 1e-15
    else:
        value, err = constant_B_with_error(params, resolution=args.grid_n)
    payload = {"schema": 1, "k": args.k, "d": args.d, "which": args.which,
               "value": value, "est_error": err}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_search(args) -> int:
    params = make_params(args.k, args.d)
    _dense_for(args.k, args.grid_n)
    grid = make_halfline_grid(args.grid_n)
    kind, _, rest = args.init.partition(":")
    seed = None
    if kind == "indicator":
        init = indicator_profile(grid, IntervalSet(((0.0, 1.0),)))
    elif kind == "random":
        text = rest or "0"
        if not (text.isascii() and text.isdigit()):
            raise DataError(f"random init needs a nonnegative integer seed, got {rest!r}")
        seed = int(text)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.3, 3.0, size=4)
        c = rng.uniform(0.1, 1.0, size=4)
        vals = sum(ci * li ** params.scale_exp_f
                   * (1 + (li * grid.nodes) ** 2) ** (-(params.k + 1) / 2.0)
                   for ci, li in zip(c, lam))
        init = RadialProfile(grid, vals)
    elif kind == "file":
        init = _load_profile(rest, grid)
        if not init.nonnegative:
            raise DataError("initial profile must be nonnegative")
    else:
        raise DataError(f"unknown init {args.init!r}")
    args.seed = seed
    trace = search_extremizer(params, init, max_iter=args.max_iter, tol=args.tol)
    payload = trace.to_json_dict()
    payload.update(_header_meta(args, args.grid_n,
                                {"init": args.init, "tol": args.tol,
                                 "max_iter": args.max_iter}))
    with open(f"{args.out_prefix}_trace.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(f"{args.out_prefix}_profile.csv", "w") as fh:
        write_profile_csv(fh, grid.nodes, trace.final_profile.values,
                          _header_meta(args, args.grid_n, {"init": args.init}))
    sys.stdout.write(json.dumps({"converged": trace.converged,
                                 "iterations": trace.iterations_used,
                                 "phi": trace.iterates[-1]}, sort_keys=True) + "\n")
    return 0 if trace.converged else 3


def _synthetic_sequence(text: str, params, grid):
    name, _, rest = text.partition(":")

    def normalized(f):
        return f.scaled(1.0 / weighted_lp_norm(f, params.a_domain, params.pf))

    if name == "tight":
        f = normalized(extremizer_profile(params, 1.0, grid))
        return [f] * 6
    if name == "vanishing":
        return [normalized(extremizer_profile(params, 2.0 ** (-n), grid))
                for n in range(9)]
    if name == "dichotomy":
        alpha = float(rest or 0.4)
        if not (0 < alpha < 1):
            raise DataError(f"dichotomy alpha must lie in (0,1), got {alpha}")
        out = []
        g1 = normalized(indicator_profile(grid, IntervalSet(((0.25, 1.25),))))
        idx = np.arange(grid.n)
        for n in range(6):
            sep = 4.0 * 2 ** n
            # outer bump with fixed width in grid cells, so it stays resolved
            # on the tan grid however far it escapes
            j = int(np.searchsorted(grid.nodes, sep))
            outer = np.exp(-((idx - j) / 6.0) ** 2)
            outer[np.abs(idx - j) > 24] = 0.0
            g2 = normalized(RadialProfile(grid, outer))
            vals = (alpha ** (1 / params.pf) * g1.values
                    + (1 - alpha) ** (1 / params.pf) * g2.values)
            f = RadialProfile(grid, vals, splits=g1.splits)
            out.append(normalized(f))
        return out
    raise DataError(f"unknown synthetic family {text!r}")


def _cmd_diagnose(args) -> int:
    params = make_params(args.k, args.d)
    grid = make_halfline_grid(args.grid_n)
    if args.synthetic:
        seq = _synthetic_sequence(args.synthetic, params, grid)
    else:
        seq = [_load_profile(path, grid) for path in args.inputs]
        fixed = []
        for f in seq:
            mass = weighted_integral(f, params.a_domain, params.pf)
            if abs(mass - 1.0) > 1e-4:
                if not args.auto_normalize:
                    raise DomainError(
                        f"profile mass {mass:.6g} != 1; pass --auto-normalize")
                f = f.scaled(mass ** (-1.0 / params.pf))
            fixed.append(f)
        seq = fixed
    report = classify_trichotomy(params, seq, eps=args.eps,
                                 separation_min=args.separation_min)
    payload = report.to_json_dict()
    payload.update(_header_meta(args, args.grid_n,
                                {"eps": args.eps,
                                 "separation_min": args.separation_min,
                                 "source": args.synthetic or ",".join(args.inputs),
                                 "n_profiles": len(seq)}))
    _write_text(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.seed is not None and args.suite in UNSEEDED_SUITES:
        raise ParameterError(f"suite {args.suite!r} does not read seed; it draws no "
                             "random cases")
    seed = {} if args.seed is None else {"seed": args.seed}
    reports = run_suite(args.suite, trials=args.trials, k=args.k, d=args.d, **seed)
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.summary:
        rows = ["name,passed,lhs,rhs,margin"]
        rows += [f"{r.name},{int(r.passed)},{r.lhs!r},{r.rhs!r},{r.margin!r}"
                 for r in reports]
        _write_text(args.summary, "\n".join(rows) + "\n")
    n_pass = sum(r.passed for r in reports)
    sys.stderr.write(f"{n_pass}/{len(reports)} checks passed\n")
    return 0 if n_pass == len(reports) else 3


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    handlers = {"transform": _cmd_transform, "constant": _cmd_constant,
                "search": _cmd_search, "diagnose": _cmd_diagnose,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except KplaneError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
