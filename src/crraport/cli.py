"""Command-line harness.

Subcommands wrap the library one-to-one: ``study`` runs the full
subset-sampling pipeline, ``solve`` computes one optimal portfolio,
``frontier`` emits the efficient-set constants plus a sampled parabola,
``verify`` checks the closed forms against the numerical maximizer,
``lemma1`` tabulates the log-normal approximation bound against the
grid-searched sup, and ``synth`` writes a synthetic returns CSV.

Most flags can also be supplied through an environment variable named
``CRRAPORT_`` plus the flag in upper snake case (``CRRAPORT_K_RANGE=4:8``);
explicit flags win. ``synth --spec`` reads ``CRRAPORT_SYNTH``. Without a
mirror are ``solve --gamma``, ``frontier --points/--span``, ``verify
--n-starts/--tol-w/--tol-obj`` and ``lemma1 --ratios/--mu/--n-grid``.
A mirror is a string default that argparse parses with the flag's
``type``, so a bad value is a usage error (exit 2). CSV output writes
floats by their repr, ``solve`` strict JSON. Other errors exit nonzero
with a one-line JSON message on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .crra import _checked_gammas, gamma_min, ln_ce, power_solution
from .csvout import write_csv
from .frontier import Weights, efficient_constants, portfolio_moments_rows
from .lognormal import psi_sup_bound, psi_sup_empirical
from .market import MarketParams, SynthSpec, estimate_params, json_fields, load_returns_csv, synth_market
from .oracle import OracleConfig, maximize_numeric
from .study import StudyConfig, default_synth_spec, run_study

__all__ = ["main"]

_ENV_PREFIX = "CRRAPORT_"


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(_ENV_PREFIX + name, fallback)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)


def _ints(text: str) -> tuple[int, ...]:
    text = text.replace(" ", "")
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok)


def _load_market(args) -> MarketParams:
    """Market parameters from --market JSON, --data CSV, or --synth spec."""
    if getattr(args, "market", None):
        payload = json.loads(Path(args.market).read_text())
        return MarketParams(*json_fields(payload, ("mu", "sigma"), "market file"))
    if getattr(args, "data", None):
        return estimate_params(load_returns_csv(args.data))
    if getattr(args, "synth", None):
        spec = _load_synth_spec(args.synth)
        return estimate_params(synth_market(spec, args.seed))
    raise ValueError("a market source is required: --market, --data, or --synth")


def _load_synth_spec(ref: str) -> SynthSpec:
    if ref == "default":
        return default_synth_spec()
    return SynthSpec.from_dict(json.loads(Path(ref).read_text()))


def _add_market_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--market", default=_env("MARKET"), help="JSON file with mu and sigma")
    parser.add_argument("--data", default=_env("DATA"), help="returns CSV (one row per period)")
    parser.add_argument(
        "--synth", default=_env("SYNTH"), help="synthetic spec JSON, or 'default'"
    )
    parser.add_argument("--seed", type=int, default=_env("SEED", "0"))


def _write_csv(path: str | None, header, columns) -> None:
    """Write a CSV of columns, with floats by their repr, to ``path`` or,
    without one, to stdout."""
    out = open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        write_csv(fh, header, columns)


def _solution_payload(sol, constants) -> dict:
    return {
        "gamma": sol.gamma,
        "x": sol.x,
        "y": sol.y,
        "v": sol.v,
        "weights": [float(w) for w in sol.weights.w],
        "expected_utility": sol.expected_utility if np.isfinite(sol.expected_utility) else None,
        "ln_ce": float(ln_ce(sol.x, sol.y, sol.gamma)),
        "mv_efficient": sol.mv_efficient,
        "w0": sol.w0,
        "r_gmv": constants.r_gmv,
        "v_gmv": constants.v_gmv,
        "s": constants.s,
        "gamma_min": gamma_min(constants),
    }


def _cmd_solve(args) -> int:
    params = _load_market(args)
    constants = efficient_constants(params)
    sol = power_solution(args.gamma, params, args.w0)
    print(json.dumps(_solution_payload(sol, constants), indent=2, sort_keys=True, allow_nan=False))
    return 0


def _cmd_frontier(args) -> int:
    if not np.isfinite(args.span):
        raise ValueError("span must be finite")
    if args.points < 0:
        raise ValueError("points must be non-negative")
    params = _load_market(args)
    constants = efficient_constants(params)
    gm = gamma_min(constants)  # raises on a degenerate frontier or r_gmv = 0
    half_span = args.span * (constants.s * constants.v_gmv) ** 0.5
    # A span past the double range overflows; the Weights check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(constants.r_gmv - half_span, constants.r_gmv + half_span, args.points)
        d = xs - constants.r_gmv
        vs = d * d / constants.s + constants.v_gmv
        weights = constants.weights_at(d / constants.s)
    for w in weights:
        Weights(w)  # raises on a row that is not finite or not fully invested
    payload = {
        "r_gmv": constants.r_gmv,
        "v_gmv": constants.v_gmv,
        "s": constants.s,
        "gamma_min": gm,
        "points": [{"x": x, "v": v} for x, v in zip(xs.tolist(), vs.tolist())],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        header = ["x", "v"] + [f"w_{j + 1}" for j in range(params.k)]
        _write_csv(args.out, header, [xs, vs, *weights.T])
    return 0


def _cmd_verify(args) -> int:
    params = _load_market(args)
    constants = efficient_constants(params)
    gm = gamma_min(constants)
    gammas = _checked_gammas(args.gammas or (gm + 0.1, 2.0, 5.0, 20.0), 1.0).tolist()
    cfg = OracleConfig(n_starts=args.n_starts, seed=args.seed)
    failed = False
    for gamma in gammas:
        record: dict = {"gamma": gamma, "gamma_min": gm}
        if gamma < gm:
            record["status"] = "skipped (below gamma_min)"
            print(json.dumps(record, sort_keys=True))
            continue
        sol = power_solution(gamma, params)
        oracle_w, _ = maximize_numeric(params, gamma, cfg)
        gap_w = float(np.max(np.abs(sol.weights.w - oracle_w.w)))
        # Each side's ln CE from its own moments: finite where E[U] is not.
        x, v = portfolio_moments_rows(np.stack((sol.weights.w, oracle_w.w)), params.mu, params.sigma)
        level = ln_ce(x, v + x * x, gamma)
        gap_obj = float(abs(level[0] - level[1]) / max(1.0, abs(level[0])))
        ok = gap_w <= args.tol_w and gap_obj <= args.tol_obj
        failed |= not ok
        record.update(
            {
                "status": "pass" if ok else "FAIL",
                "weight_gap": gap_w,
                "ln_ce_gap_rel": gap_obj,
                "closed_form_weights": [float(w) for w in sol.weights.w],
                "oracle_weights": [float(w) for w in oracle_w.w],
            }
        )
        print(json.dumps(record, sort_keys=True))
    return 1 if failed else 0


def _cmd_lemma1(args) -> int:
    rows = []
    for ratio in args.ratios:
        sigma = ratio * args.mu
        bound = psi_sup_bound(args.mu, sigma)
        emp = psi_sup_empirical(args.mu, sigma, args.n_grid)
        rows.append((ratio, bound, emp, bound / ratio, emp <= bound))
    _write_csv(args.out, ["ratio", "bound", "empirical", "bound_over_ratio", "empirical_le_bound"], list(zip(*rows)))
    return 0


def _cmd_synth(args) -> int:
    spec = _load_synth_spec(args.spec)
    returns = synth_market(spec, args.seed)
    _write_csv(args.out, returns.asset_labels, list(returns.values.T))
    return 0


def _cmd_study(args) -> int:
    if args.data:
        source = {"data_csv": Path(args.data)}
    else:
        source = {"synth": _load_synth_spec(args.synth or "default")}
    cfg = StudyConfig(
        seed=args.seed,
        k_range=args.k_range,
        gamma_grid=args.gammas,
        output_dir=Path(args.out),
        n_subsets_cap=args.subset_cap,
        w0=args.w0,
        quantiles=args.quantiles,
        **source,
    )
    report = run_study(cfg)
    print(
        json.dumps(
            {
                "output_dir": str(cfg.output_dir),
                "cells_with_errors": len(report.cell_errors["code"]),
                "strategy_rows": len(report.strategy_utilities["k"]),
            },
            sort_keys=True,
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crraport",
        description="Closed-form CRRA-optimal portfolios under a log-normal "
        "return approximation, with numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one market, one gamma -> solution JSON")
    _add_market_args(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--w0", type=float, default=_env("W0", "1.0"))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("frontier", help="efficient-set constants + sampled parabola")
    _add_market_args(p)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--span", type=float, default=3.0, help="half-width in sqrt(s*v_gmv) units")
    p.add_argument("--out", default=_env("OUT"), help="CSV path for the sampled parabola")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("verify", help="closed form vs numerical oracle")
    _add_market_args(p)
    p.add_argument("--gammas", type=_floats, default=_env("GAMMAS"))
    p.add_argument("--n-starts", type=int, default=8)
    p.add_argument("--tol-w", type=float, default=1e-5)
    p.add_argument("--tol-obj", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma1", help="log-normal approximation bound ladder")
    p.add_argument("--ratios", type=_floats, default=(0.2, 0.1, 0.05, 0.01))
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--n-grid", type=int, default=10_000)
    p.add_argument("--out", default=_env("OUT"))
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("synth", help="emit a synthetic returns CSV")
    p.add_argument("--spec", default=_env("SYNTH", "default"))
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--out", default=_env("OUT"))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("study", help="full subset-sampling study")
    p.add_argument("--data", default=_env("DATA"))
    p.add_argument("--synth", default=_env("SYNTH"), help="spec JSON or 'default'")
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--k-range", type=_ints, default=_env("K_RANGE", "4:14"))
    p.add_argument("--gammas", type=_floats, default=_env("GAMMAS", "2,3,4,5,6,7,8,9,10"))
    p.add_argument("--subset-cap", type=int, default=_env("SUBSET_CAP", "200"))
    p.add_argument("--w0", type=float, default=_env("W0", "1.0"))
    p.add_argument("--quantiles", type=_floats, default=_env("QUANTILES", "0.05,0.25,0.5"))
    p.add_argument("--out", default=_env("OUT", "study_out"))
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
