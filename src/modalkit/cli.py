"""Command-line interface.

Subcommands: decompose, ace, recommend, common-info, cca, gauss-regress,
sample-complexity, synth.  Discrete inputs are TSV joints (`x<TAB>y<TAB>prob`)
or the JSON form {"rows": [["x", "y", p], ...]}; Gaussian inputs are JSON
models {"dim_x", "dim_y", "cov_x", "cov_y", "cov_xy"}.  All outputs are JSON.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import apps, common_info, experiments, gaussian, local_geometry, modal, probability
from .ace import AceOptions, ace_discrete
from .errors import DataError, ModalkitError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError("USAGE", message)


# Each flag is defined once; a subcommand declares only the flags its handler reads.
_FLAGS = {
    "--input": dict(required=True, help="input path"),
    "--format": dict(choices=["tsv", "json"], default="tsv"),
    "--k": dict(type=int, default=1),
    "--tol": dict(type=float, default=1e-10),
    "--max-iters": dict(type=int, default=10_000),
    "--seed": dict(type=int, default=0),
    "--output": dict(default=None, help="output path (default: stdout)"),
}
_JOINT = ("--input", "--format", "--k")


def _build_parser() -> _Parser:
    parser = _Parser(prog="modalkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in (*flags, "--output"):
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("decompose", "modal decomposition via the SVD oracle", *_JOINT)
    command(
        "ace", "modal decomposition via alternating conditional expectations",
        *_JOINT, "--tol", "--max-iters", "--seed",
    )

    rec = command("recommend", "attribute-matching recommendations", *_JOINT)
    rec.add_argument("--user", required=True)
    rec.add_argument("--top", type=int, default=1)
    rec.add_argument("--variant", choices=["match", "y-weighted"], default="match")

    command("common-info", "common information value and configuration", "--input", "--format")
    command("cca", "canonical correlation analysis of a Gaussian model", "--input", "--k")
    command("gauss-regress", "rank-k Gaussian regression (KL and MMSE)", "--input", "--k")

    sc = command("sample-complexity", "Monte Carlo tail-bound validation", *_JOINT, "--seed")
    sc.add_argument("--experiment", choices=["sigma", "feature", "mi"], default="sigma")
    sc.add_argument("--n-grid", default="500,1000,2000", help="comma-separated sample sizes")
    sc.add_argument("--delta-grid", default="0.1,0.2,0.4", help="comma-separated deltas")
    sc.add_argument("--trials", type=int, default=2000)

    synth = command("synth", "synthesize a weak-dependence joint", "--k", "--seed")
    synth.add_argument("--x-size", type=int, default=4)
    synth.add_argument("--y-size", type=int, default=5)
    synth.add_argument("--eps", type=float, default=0.1, help="scale of the leading mode")
    return parser


def _load_joint(args) -> probability.JointPmf:
    if args.format == "tsv":
        return probability.load_joint_tsv(args.input)
    data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    try:
        rows = [(str(x), str(y), float(p)) for x, y, p in data["rows"]]
    except (KeyError, TypeError, ValueError):
        raise DataError("BAD_JSON", 'joint JSON must look like {"rows": [["x","y",p], ...]}') from None
    return probability.joint_from_table(rows)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _grid(text: str, cast):
    try:
        return [cast(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError("USAGE", f"bad grid {text!r}") from None


def _cmd_decompose(args) -> dict:
    joint = _load_joint(args)
    md = modal.decompose(joint, args.k)
    return md.to_json_dict()


def _cmd_ace(args) -> dict:
    joint = _load_joint(args)
    opts = AceOptions(tol=args.tol, max_iters=args.max_iters, seed=args.seed)
    md, trace = ace_discrete(joint, args.k, opts)
    payload = md.to_json_dict()
    payload["trace"] = {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "monitor_final": trace.monitor[-1] if trace.monitor else None,
    }
    return payload


def _cmd_recommend(args) -> dict:
    joint = _load_joint(args)
    rec = apps.recommend(joint, args.k, args.top, args.user, args.variant)
    return rec.to_json_dict()


def _cmd_common_info(args) -> dict:
    joint = _load_joint(args)
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    config = common_info.build_common_config(modal.decompose(joint, kmax))
    return {"value": config.nuclear, "config": config.to_json_dict()}


def _cmd_cca(args) -> dict:
    model = gaussian.load_gaussian_json(args.input)
    dec = gaussian.cca(model, args.k)
    return {
        "sigmas": [float(v) for v in dec.sigmas],
        "F": dec.f.tolist(),
        "G": dec.g.tolist(),
    }


def _cmd_gauss_regress(args) -> dict:
    model = gaussian.load_gaussian_json(args.input)
    reg = gaussian.rank_k_regression_kl(model, args.k)
    mmse = gaussian.rank_k_regression_mmse(model, args.k)
    return {
        "cross_cov_k": reg.cross_cov.tolist(),
        "predictor_kl": reg.predictor.tolist(),
        "predictor_mmse": mmse.tolist(),
    }


def _cmd_sample_complexity(args) -> dict:
    joint = _load_joint(args)
    n_grid = _grid(args.n_grid, int)
    delta_grid = _grid(args.delta_grid, float)
    runner = {
        "sigma": experiments.mc_sigma_tail,
        "feature": experiments.mc_feature_quality,
        "mi": experiments.mc_mi_error,
    }[args.experiment]
    report = runner(joint, n_grid, delta_grid, args.k, args.trials, args.seed)
    return report.to_json_dict()


def _cmd_synth(args) -> dict:
    if args.x_size < 2 or args.y_size < 2:
        raise UsageError("USAGE", "synth needs --x-size and --y-size at least 2")
    kmax = min(args.x_size, args.y_size) - 1
    if not 1 <= args.k <= kmax:
        raise UsageError("USAGE", f"synth needs 1 <= k <= {kmax}")
    if not 0 <= args.eps < np.inf:
        raise UsageError("USAGE", "synth needs a finite --eps >= 0")
    rng = np.random.default_rng(args.seed)
    px = probability.Pmf(
        probability.alphabet(f"x{i}" for i in range(args.x_size)),
        _synth_marginal(args.x_size, rng),
    )
    py = probability.Pmf(
        probability.alphabet(f"y{j}" for j in range(args.y_size)),
        _synth_marginal(args.y_size, rng),
    )
    f = local_geometry.random_orthonormal_features(px, args.k, rng)
    g = local_geometry.random_orthonormal_features(py, args.k, rng)
    shape = np.array([0.5**i for i in range(args.k)])
    core = (f * shape[None, :]) @ g.T
    worst = float(-core.min())
    scale = args.eps if worst * args.eps < 0.999 else 0.999 / worst
    joint = local_geometry.synth_weak_joint(
        px, py, list(f.T), list(g.T), shape * scale
    )
    return {
        "sigmas": [float(v) for v in shape * scale],
        "rows": [
            [x, y, joint.probs[i, j]]
            for i, x in enumerate(joint.x_alphabet)
            for j, y in enumerate(joint.y_alphabet)
        ],
    }


def _synth_marginal(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.dirichlet(np.full(n, 10.0)) + 0.2 / n  # keep mass floors healthy
    return raw / raw.sum()


_COMMANDS = {
    "decompose": _cmd_decompose,
    "ace": _cmd_ace,
    "recommend": _cmd_recommend,
    "common-info": _cmd_common_info,
    "cca": _cmd_cca,
    "gauss-regress": _cmd_gauss_regress,
    "sample-complexity": _cmd_sample_complexity,
    "synth": _cmd_synth,
}


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _COMMANDS[args.command](args)
        _emit(args, payload)
    except ModalkitError as err:
        if isinstance(err, UsageError):
            sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error[{err.code}]: {err.message}\n")
        return err.exit_code
    except FileNotFoundError as err:
        sys.stderr.write(f"error[NO_SUCH_FILE]: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error[IO_ERROR]: {err}\n")
        return 2
    except UnicodeDecodeError as err:
        sys.stderr.write(f"error[BAD_ENCODING]: input is not UTF-8: {err}\n")
        return 2
    except json.JSONDecodeError as err:
        sys.stderr.write(f"error[BAD_JSON]: {err}\n")
        return 2
    return 0


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
