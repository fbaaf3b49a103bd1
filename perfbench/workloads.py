"""The benchmark's workloads: seeded job lists and how one job runs.

A workload is a function ``(seed, pass_index, workdir) -> list[Job]``.  Each
pass gets fresh inputs, generated from ``(seed, pass_index, job index)``, so no
input is ever seen twice in a run and a cache can only help where the
workload itself repeats work.  Jobs run one after another in one process
(closed loop, a single client).

* ``oneshot`` - 139 in-process CLI invocations per pass, each on its
  own input: every subcommand except ``sample-complexity``, at sizes 10, 50
  and 200 (Gaussian dims 10, 50 and 150), most jobs small and a few large.
  It is the "every subcommand, end to end" traffic of the ROADMAP: large
  jobs are dominated by the Jacobi SVD, ingest and (``common-info``) emit,
  small ones by parsing, emit and per-call overhead.
* ``recommend-sweep`` - library queries against one 90 x 90 weakly
  dependent joint held as a single ``JointPmf``: every user once, variants
  alternating, interleaved with the spectral scalars.  Same layers as
  ``oneshot``, but every query reads the same input, so a fit-once or cache
  change shows here and its cost (memory, hashing) shows on ``oneshot``.
* ``montecarlo`` - in-process ``sample-complexity`` for the sigma, feature
  and mi experiments, on ``fixtures/bss_rho03.tsv`` with the default grids
  and on sixteen generated 10 x 10 joints each, with 6 trials per sample
  size.  Each trial is one draw, one ``JointPmf`` validation, one quasi-CDM
  and one tiny SVD, so per-call overhead dominates; batching the trials
  moves this workload and no other.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checker
import gen
import modalkit
import modalkit.cli
from modalkit import experiments

WARM = 1_000_000  # pass index of the warm-up inputs, never used by a measured pass


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    inputs: int = 1  # distinct joints or models the job hands the program
    trials: int = 0  # Monte Carlo trials the job asks for


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = modalkit.cli.cli(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(label: str, argv: list[str], check_payload, inputs: int = 1, trials: int = 0) -> Job:
    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        return check_payload(json.loads(out))

    return Job(label, lambda: run_cli(argv), check, inputs, trials)


# ---------------------------------------------------------------------------
# oneshot

KINDS = [
    ("decompose", "full"),
    ("ace", "full"),
    ("recommend", "full"),
    ("common-info", "full"),
    ("decompose", "rank"),
    ("ace", "rank"),
    ("recommend", "rank"),
    ("synth", None),
    ("cca", "gauss"),
    ("gauss-regress", "gauss"),
]
GAUSS_DIM = {10: 10, 50: 50, 200: 150}
ACE_TOL = "1e-16"  # monitor stops at round-off, so ACE meets the checker's 1e-8 / 1e-6 with margin
# Jobs per pass.  The counts put each percentile inside a group of jobs of
# like cost rather than on the edge between two groups:
# - size 10: 12 of each of the five cheapest kinds (under 8 ms, unscaled) and
#   8 of the others, so job_p50_ms lands among the 16 ~10 ms decompose and
#   recommend jobs on full-rank joints;
# - size 200: one of each, plus cheap ingest-bound ones (ACE, rank-2
#   recommend, synth), so job_p90_ms lands among the 11 ~0.27 s jobs.
CHEAP_SMALL = {("synth", None), ("ace", "rank"), ("ace", "full"), ("recommend", "rank"), ("decompose", "rank")}
EXTRA_LARGE = {("ace", "full"): 4, ("ace", "rank"): 3, ("recommend", "rank"): 2, ("synth", None): 4}
ONESHOT_MIX = (
    [(cmd, fam, 10, 12 if (cmd, fam) in CHEAP_SMALL else 8) for cmd, fam in KINDS]
    + [(cmd, fam, 50, 2) for cmd, fam in KINDS]
    + [(cmd, fam, 200, EXTRA_LARGE.get((cmd, fam), 1)) for cmd, fam in KINDS]
)
WARM_MIX = [(cmd, fam, 10, 1) for cmd, fam in KINDS]


def _joint_job(cmd, fam, n, i, seed, p, workdir: Path, plan) -> Job:
    table = gen.full_joint(n, gen.rng_for(seed, fam, p, i)) if fam == "full" else gen.rank_joint(n, gen.rng_for(seed, fam, p, i))
    fmt = "tsv" if i % 2 == 0 else "json"
    path = workdir / f"{i:03d}-{fam}{n}.{fmt}"
    gen.write_joint(table, path, fmt)
    argv = [cmd, "--input", str(path), "--format", fmt]
    label = f"{cmd}/{fam}/{n}"
    if cmd == "decompose":
        return cli_job(label, argv + ["--k", "3"], lambda out: checker.check_modes(out, table, 3))
    if cmd == "ace":
        k = 3 if fam == "full" else 2
        argv += ["--k", str(k), "--tol", ACE_TOL, "--seed", str(int(plan.integers(1000)))]
        return cli_job(label, argv, lambda out: checker.check_ace_trace(out) or checker.check_modes(out, table, k, ace=True))
    if cmd == "recommend":
        user, variant = int(plan.integers(n)), ("match", "y-weighted")[i % 2]
        argv += ["--k", "3", "--user", f"x{user}", "--top", "10", "--variant", variant]
        return cli_job(label, argv, lambda out: checker.check_recommend(out, table, 3, user, variant, 10))
    return cli_job(label, argv, lambda out: checker.check_common_info(out, table))


def _gauss_job(cmd, d, i, seed, p, workdir: Path) -> Job:
    model = gen.gauss_model(d, gen.rng_for(seed, "gauss", p, i))
    path = workdir / f"{i:03d}-gauss{d}.json"
    gen.write_gauss(model, path)
    arrays = {key: np.asarray(model[key]) for key in ("cov_x", "cov_y", "cov_xy")}
    check = checker.check_cca if cmd == "cca" else checker.check_gauss_regress
    return cli_job(f"{cmd}/gauss/{d}", [cmd, "--input", str(path), "--k", "3"], lambda out: check(out, arrays, 3))


def oneshot(seed: int, p: int, workdir: Path, mix=ONESHOT_MIX) -> list[Job]:
    jobs = []
    for cmd, fam, n, count in mix:
        for _ in range(count):
            i = len(jobs)
            plan = gen.rng_for(seed, "plan", p, i)
            if fam == "gauss":
                jobs.append(_gauss_job(cmd, GAUSS_DIM[n], i, seed, p, workdir))
            elif cmd == "synth":
                argv = ["synth", "--k", "3", "--seed", str(int(plan.integers(1 << 31))), "--x-size", str(n), "--y-size", str(n), "--eps", "0.1"]
                jobs.append(cli_job(f"synth/-/{n}", argv, lambda out, n=n: checker.check_synth(out, 3, n), inputs=0))
            else:
                jobs.append(_joint_job(cmd, fam, n, i, seed, p, workdir, plan))
    # One fixed interleaving for every seed and pass: what a job finds in
    # memory (earlier outputs still held, heap state) then depends on the job
    # list, not on the seed, which keeps peak_rss_mb and the latencies steady.
    order = np.random.default_rng(0).permutation(len(jobs))
    return [jobs[j] for j in order]


def oneshot_warm(seed: int, workdir: Path) -> list[Job]:
    return oneshot(seed, WARM, workdir, WARM_MIX)


# ---------------------------------------------------------------------------
# recommend-sweep

SWEEP_SIZE = 90  # 102 queries a pass at about 0.12 s each, so two passes fit in 25 s
SWEEP_K = 3
SWEEP_TOP = 10
SCALARS_EVERY = 30  # recommend calls between rounds of the four scalar queries


def _scalar_queries(joint):
    k = SWEEP_K
    return [
        ("maximal_correlation", lambda: modalkit.modal.maximal_correlation(joint, k)),
        ("local_mi", lambda: modalkit.modal.local_mi(modalkit.modal.decompose(joint, k))),
        ("eps_common_information", lambda: modalkit.common_info.eps_common_information(joint)),
        ("softmax_divergence_gap", lambda: modalkit.apps.softmax_divergence_gap(joint, k)),
    ]


def recommend_sweep(seed: int, p: int, workdir: Path, size: int = SWEEP_SIZE, every: int = SCALARS_EVERY) -> list[Job]:
    table = gen.full_joint(size, gen.rng_for(seed, "full", p, 0))
    joint = modalkit.JointPmf(
        modalkit.alphabet(gen.symbols("x", size)), modalkit.alphabet(gen.symbols("y", size)), table
    )
    jobs = []
    for u in range(size):
        variant = ("match", "y-weighted")[u % 2]

        def rec(u=u, variant=variant):
            return modalkit.apps.recommend(joint, SWEEP_K, SWEEP_TOP, f"x{u}", variant)

        def check(result, u=u, variant=variant):
            keys = checker.recommend_keys(table, SWEEP_K, u, variant)
            return checker.check_ranking(list(result.items), keys, SWEEP_TOP)

        jobs.append(Job(f"recommend/{variant}", rec, check, inputs=0))
        if (u + 1) % every == 0:
            for name, call in _scalar_queries(joint):
                jobs.append(Job(name, call, lambda value, name=name: checker.check_scalar(value, table, name, SWEEP_K), inputs=0))
    jobs[0].inputs = 1  # the single joint every query reads
    return jobs


def recommend_sweep_warm(seed: int, workdir: Path) -> list[Job]:
    return recommend_sweep(seed, WARM, workdir, size=12, every=6)


# ---------------------------------------------------------------------------
# montecarlo

MC_EXPERIMENTS = ("sigma", "feature", "mi")
MC_DEFAULT = {"n_grid": (500, 1000, 2000), "delta_grid": (0.1, 0.2, 0.4), "trials": 2000}
MC_GENERATED_SIZE = 10
# Many short generated jobs rather than a few long ones: the speed probes
# between jobs then track the host closely, and with 51 jobs a pass the three
# fixture jobs are a seventeenth of them, so job_p90_ms falls among the
# generated jobs, well clear of the three longest ones.  A pass takes about
# 7.3 s, so three passes fit in the 25 s of a run and a fourth is far off.
MC_GENERATED_JOINTS = 16  # per experiment
MC_GENERATED_TRIALS = 6  # per sample size
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "bss_rho03.tsv"


def _tail_job(label, path: Path, experiment, k, trials, seed_arg) -> Job:
    argv = ["sample-complexity", "--input", str(path), "--k", str(k), "--experiment", experiment,
            "--trials", str(trials), "--seed", str(seed_arg)]
    n_grid, delta_grid = MC_DEFAULT["n_grid"], MC_DEFAULT["delta_grid"]
    table = gen.read_joint_tsv(path)

    def check_payload(out):
        return checker.check_tail(out, table, experiment, k, n_grid, delta_grid, trials, seed_arg, experiments.derive_seed)

    return cli_job(label, argv, check_payload, inputs=1, trials=trials * len(n_grid))


def montecarlo(
    seed: int, p: int, workdir: Path, bss_trials: int | None = None, gen_trials: int = MC_GENERATED_TRIALS, joints: int = MC_GENERATED_JOINTS
) -> list[Job]:
    jobs = []
    for experiment in MC_EXPERIMENTS:
        i = len(jobs)
        seed_arg = int(gen.rng_for(seed, "plan", p, i).integers(1 << 31))
        trials = MC_DEFAULT["trials"] if bss_trials is None else bss_trials
        jobs.append(_tail_job(f"mc-{experiment}/bss/2", FIXTURE, experiment, 1, trials, seed_arg))
    for experiment in MC_EXPERIMENTS * joints:
        i = len(jobs)
        seed_arg = int(gen.rng_for(seed, "plan", p, i).integers(1 << 31))
        path = workdir / f"{i:03d}-full{MC_GENERATED_SIZE}.tsv"
        gen.write_joint(gen.full_joint(MC_GENERATED_SIZE, gen.rng_for(seed, "full", p, i)), path, "tsv")
        jobs.append(_tail_job(f"mc-{experiment}/full/{MC_GENERATED_SIZE}", path, experiment, 2, gen_trials, seed_arg))
    return jobs


def montecarlo_warm(seed: int, workdir: Path) -> list[Job]:
    return montecarlo(seed, WARM, workdir, bss_trials=20, gen_trials=2, joints=2)


WORKLOADS = {
    "oneshot": (oneshot, oneshot_warm),
    "recommend-sweep": (recommend_sweep, recommend_sweep_warm),
    "montecarlo": (montecarlo, montecarlo_warm),
}
