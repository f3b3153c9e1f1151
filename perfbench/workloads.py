"""The benchmark's four workloads.

Each workload has an instance generator (``setup``, run and timed by the
parent process, which writes the inputs to the run's work directory), an
untimed ``reference`` computed once per run by the parent, ``load`` (the
worker reads the inputs and builds its oracles before the timed loop), the
``op`` the worker repeats in a closed loop, and ``check``, which tests one
op's outputs against an independent oracle.  ``check`` returns
``(ok, why, worst_group_v)``.

Every instance is drawn once from ``BASE_SEED``; ``--seed`` changes a part
of the input that leaves the work of an op unchanged (row order inside
groups, predictor order, support point order, cross-validation splits).
README.md gives the measurements behind that choice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from maximin import estimator, grouping, oracle, select, simulate
from maximin.model import Dataset, PenaltyConfig, SupportSet

BASE_SEED = 1406
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def bench_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def block_bounds(n: int, G: int) -> list[tuple[int, int]]:
    """[start, end) of G consecutive blocks, the first n mod G one longer."""
    base, extra = divmod(n, G)
    edges = np.concatenate([[0], np.cumsum([base + (g < extra) for g in range(G)])])
    return [(int(edges[g]), int(edges[g + 1])) for g in range(G)]


def group_v(X, Y, bounds, coef) -> np.ndarray:
    """Explained variance (2 b'X'Y - |Xb|^2) / n_g of ``coef`` per block."""
    out = []
    for lo, hi in bounds:
        xb = X[lo:hi] @ coef
        out.append((2.0 * xb @ Y[lo:hi] - xb @ xb) / (hi - lo))
    return np.array(out)


def close(a, b, rtol=1e-8) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def maximin_command(args, spans_file=None) -> list[str]:
    """The user-facing CLI call, or the same call through the span driver."""
    if spans_file is None:
        return [sys.executable, "-m", "maximin", *args]
    return [sys.executable, str(HERE / "cli_driver.py"), str(spans_file), *args]


def jump_series(p: int) -> Dataset:
    """Time-ordered jump series: n=20000, three regimes e1 + {-0.8, 0, 0.8} e2,
    jump probability 0.001 per step, unit noise, drawn from BASE_SEED."""
    points = np.zeros((3, p))
    points[:, 0] = 1.0
    points[0, 1], points[2, 1] = -0.8, 0.8
    support = SupportSet(points=points, sigma=np.eye(p))
    return simulate.gen_jump_process(20_000, p, support, delta=0.001, sigma_noise=1.0,
                                     seed=BASE_SEED).dataset


class Workload:
    """Defaults: ops run in the worker process and the checks need no
    reference."""

    subprocess_ops = False

    def reference(self, work: Path, seed: int) -> dict:
        return {}


class CliFit(Workload):
    """figure2 at n=200000 through the CLI: fit (blocks:40, l2, lambda:0),
    then evaluate with the series emitted, each in a fresh interpreter."""

    name = "cli_fit"
    subprocess_ops = True
    n, groups = 200_000, 40

    def setup(self, work: Path, seed: int, spans_file=None):
        raw = work / "simulated.csv"
        cmd = maximin_command(["simulate", "--scenario", "figure2", "--n", str(self.n),
                               "--seed", str(BASE_SEED), "--out", str(raw)], spans_file)
        subprocess.run(cmd, cwd=work, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        # the seed shuffles rows inside each block: the group statistics,
        # and so the fit, stay the same up to rounding
        lines = raw.read_bytes().splitlines(keepends=True)
        rows = lines[1:]
        rng = bench_rng(seed)
        out = [lines[0]]
        for lo, hi in block_bounds(len(rows), self.groups):
            out.extend(rows[lo + i] for i in rng.permutation(hi - lo))
        (work / "data.csv").write_bytes(b"".join(out))
        raw.unlink()

    def load(self, work: Path, seed: int, ref: dict) -> dict:
        with open(work / "data.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        if header != ["y", "x1", "x2"]:
            raise ValueError(f"unexpected CSV header {header}")
        table = np.loadtxt(work / "data.csv", delimiter=",", skiprows=1)
        return {"work": work, "Y": table[:, 0], "X": table[:, 1:],
                "bounds": block_bounds(self.n, self.groups), "first_fit": None}

    def op(self, state: dict, traced: bool) -> dict:
        work = state["work"]
        fit_json, series = work / "fit.json", work / "series.csv"
        for path in (fit_json, series):
            path.unlink(missing_ok=True)
        calls = [["fit", "--data", "data.csv", "--groups", f"blocks:{self.groups}",
                  "--penalty", "l2", "--mode", "lambda:0", "--out", fit_json.name],
                 ["evaluate", "--data", "data.csv", "--fit", fit_json.name,
                  "--emit-series", series.name]]
        out = {"codes": [], "span_sets": [], "import_s": [], "stderr": ""}
        for k, args in enumerate(calls):
            spans_file = work / f"spans{k}.json" if traced else None
            done = subprocess.run(maximin_command(args, spans_file), cwd=work, env=child_env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=120)
            out["codes"].append(done.returncode)
            out["stderr"] += done.stderr.decode(errors="replace")[-500:]
            if traced and done.returncode == 0:
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                out["span_sets"].append(doc["spans"])
                out["import_s"].append(doc["import_s"])
            if done.returncode != 0:
                break
        return out

    def check(self, state: dict, out: dict):
        if out["codes"] != [0, 0]:
            return False, f"exit codes {out['codes']}: {out['stderr'].strip()}", None
        work = state["work"]
        raw = (work / "fit.json").read_bytes()
        if state["first_fit"] is None:
            state["first_fit"] = raw
        elif raw != state["first_fit"]:
            return False, "fit.json differs from the first op's", None
        doc = json.loads(raw)
        layout = [(g[0] - 1, g[0] - 1 + len(g)) for g in doc["groups"]
                  if g == list(range(g[0], g[0] + len(g)))]
        if layout != state["bounds"]:
            return False, "fit.json groups are not the 40 consecutive blocks", None
        coef = doc["scale"] * np.asarray(doc["beta"])
        v = group_v(state["X"], state["Y"], state["bounds"], coef)
        if not close(doc["group_v"], v):
            return False, "group_v disagrees with the CSV", None
        # standardized cumulative cross-product ends at n * corr(Y, Xb)
        tail = (work / "series.csv").read_bytes().rstrip().rsplit(b"\n", 1)[-1].split(b",")
        corr = np.corrcoef(state["Y"], state["X"] @ coef)[0, 1]
        if int(tail[0]) != self.n or not close(float(tail[1]), self.n * corr, rtol=1e-7):
            return False, "series.csv disagrees with the CSV", None
        return True, "", float(v.min())


class PenaltyPath(Workload):
    """l1 penalty selection, refit at the chosen level, then an l2 fit
    constrained to norm 1, on a jump series with p=200 and 20 blocks."""

    name = "penalty_path"
    p, groups = 200, 20
    fractions = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    kappa = 1.0

    def setup(self, work: Path, seed: int, spans_file=None):
        data = jump_series(self.p)
        # the seed relabels predictors; coordinate descent visits them in
        # another order but every fit reaches the same answer
        perm = bench_rng(seed).permutation(self.p)
        np.save(work / "X.npy", data.X[:, perm])
        np.save(work / "Y.npy", data.Y)

    def load(self, work: Path, seed: int, ref: dict) -> dict:
        X, Y = np.load(work / "X.npy"), np.load(work / "Y.npy")
        n = X.shape[0]
        return {"data": Dataset(X=X, Y=Y, time_ordered=True), "X": X, "Y": Y,
                "spec": grouping.consecutive_blocks(n, self.groups),
                "bounds": block_bounds(n, self.groups)}

    def op(self, state: dict, traced: bool) -> dict:
        data, spec = state["data"], state["spec"]
        lam_max = estimator.lambda_max(data, spec, "l1")
        grid = [f * lam_max for f in self.fractions]
        lam = select.select_penalty(data, spec, grid, seed=BASE_SEED,
                                    config=PenaltyConfig(q="l1"))
        refit = estimator.fit_reweighted(data, spec, PenaltyConfig(q="l1", lam=lam))
        bounded = estimator.fit_reweighted(
            data, spec, PenaltyConfig(q="l2", mode="constrained", kappa=self.kappa))
        return {"grid": grid, "lam": lam, "refit": refit, "bounded": bounded}

    def check(self, state: dict, out: dict):
        if out["lam"] not in out["grid"]:
            return False, f"chosen lambda {out['lam']!r} is not on the grid", None
        norm = float(np.linalg.norm(out["bounded"].beta))
        if abs(norm - self.kappa) > 0.01 * self.kappa:
            return False, f"constrained norm {norm:.6g} is not within 1% of {self.kappa}", None
        v = {}
        for key in ("refit", "bounded"):
            v[key] = group_v(state["X"], state["Y"], state["bounds"], out[key].coefficients)
            if not close(out[key].group_V, v[key]):
                return False, f"group_V of the {key} fit disagrees with the data", None
        return True, "", float(v["bounded"].min())


class WideSolvers(Workload):
    """The maximal-penalty LP on a 20 x 200000 cross-product matrix, then the
    hull projection and the pred-maximin effect of a d=2000, p=20 support."""

    name = "wide_solvers"
    G, p = 20, 200_000
    d, q, shift = 2000, 20, 3.0

    def setup(self, work: Path, seed: int, spans_file=None):
        # demos/demo_maximal_penalty_scaling.py at G=20: noise plus a shared
        # column and one strong column per group.  Its columns stay in demo
        # order: the pivot count depends on the order (see README.md)
        rng = bench_rng(BASE_SEED)
        C = rng.standard_normal((self.G, self.p)) * 0.05
        C[:, 0] = 0.52
        for g in range(self.G):
            C[g, g + 1] = 1.4 + 0.3 * g
        points = bench_rng(BASE_SEED + 1).standard_normal((self.d, self.q))
        points[:, 0] += self.shift
        np.save(work / "C.npy", C)
        np.save(work / "points.npy", points[bench_rng(seed).permutation(self.d)])

    def reference(self, work: Path, seed: int) -> dict:
        return {"l1_optimum": l1_lp_optimum(np.load(work / "C.npy")),
                "origin_in_hull": origin_in_hull(np.load(work / "points.npy"))}

    def load(self, work: Path, seed: int, ref: dict) -> dict:
        points = np.load(work / "points.npy")
        return {"C": np.load(work / "C.npy"), "points": points, "ref": ref,
                "support": SupportSet(points=points, sigma=np.eye(self.q))}

    def op(self, state: dict, traced: bool) -> dict:
        beta = estimator.fit_maximal_penalty(state["C"], PenaltyConfig(q="l1", mode="maximal"))
        hull = oracle.hull_projection(state["support"])
        pred = oracle.pred_maximin_effect(state["support"])
        return {"beta": beta, "hull": hull, "pred": pred}

    def check(self, state: dict, out: dict):
        beta, hull, P = out["beta"], out["hull"], state["points"]
        ref = state["ref"]
        if not np.all(state["C"] @ beta >= 1.0 - 1e-9):
            return False, "some group alignment c_g'beta is below 1", None
        l1 = float(np.abs(beta).sum())
        if not close(l1, ref["l1_optimum"], rtol=1e-7):
            return False, f"|beta|_1 {l1!r} != HiGHS optimum {ref['l1_optimum']!r}", None
        if hull.gap > oracle.DEFAULT_GAP_TOL:
            return False, f"Frank-Wolfe gap {hull.gap:.3g} above tolerance", None
        if not oracle.conservative_check(state["support"], hull.point)[0]:
            return False, "conservative_check failed", None
        w = hull.weights
        scale = float(np.abs(P).max())
        if (np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9
                or np.abs(P.T @ w - hull.point).max() > 1e-9 * scale):
            return False, "hull point is not the convex combination its weights give", None
        if ref["origin_in_hull"] != (not np.any(hull.point)):
            return False, "HiGHS and the solver disagree on whether 0 is in the hull", None
        # first-order optimality of the min-norm hull point: g'(b_j - g) >= 0
        g = hull.point
        if float((P @ g - g @ g).min()) < -1e-8 * scale * scale:
            return False, "hull point violates g'(b_j - g) >= 0", None
        if not np.all(np.isfinite(out["pred"])):
            return False, "pred-maximin effect is not finite", None
        return True, "", float((2.0 * P @ g - g @ g).min())


class CvGroups(Workload):
    """Half-sample cross-validation of the group count in maximal mode, the
    CLI default, then the maximal fit at the chosen count."""

    name = "cv_groups"
    p = 5
    candidates = (2, 5, 10, 20)
    splits, n_jobs = 100, 2

    def setup(self, work: Path, seed: int, spans_file=None):
        data = jump_series(self.p)
        np.save(work / "X.npy", data.X)
        np.save(work / "Y.npy", data.Y)

    def load(self, work: Path, seed: int, ref: dict) -> dict:
        X, Y = np.load(work / "X.npy"), np.load(work / "Y.npy")
        return {"data": Dataset(X=X, Y=Y, time_ordered=True), "X": X, "Y": Y,
                "seed": seed, "first": None}

    def op(self, state: dict, traced: bool) -> dict:
        data = state["data"]
        config = PenaltyConfig(mode="maximal")
        # the seed draws the split cut points
        result = select.cv_group_count(data, self.candidates, splits=self.splits,
                                       config=config, seed=state["seed"], n_jobs=self.n_jobs)
        final = estimator.fit_with_config(
            data, grouping.consecutive_blocks(data.n, result.chosen), config)
        return {"cv": result, "final": final}

    def check(self, state: dict, out: dict):
        cv, final = out["cv"], out["final"]
        if cv.chosen not in self.candidates:
            return False, f"chosen G={cv.chosen} is not a candidate", None
        if not (np.all(np.isfinite(cv.scores)) and np.all(np.isfinite(cv.std_errors))):
            return False, "scores are not finite", None
        table = (cv.chosen, cv.scores.tobytes(), cv.std_errors.tobytes())
        if state["first"] is None:
            state["first"] = table
        elif table != state["first"]:
            return False, "scores differ from the first op's", None
        bounds = block_bounds(state["X"].shape[0], cv.chosen)
        v = group_v(state["X"], state["Y"], bounds, final.coefficients)
        if not close(final.group_V, v):
            return False, "group_V of the final fit disagrees with the data", None
        return True, "", float(v.min())


def l1_lp_optimum(C) -> float:
    """min |beta|_1 s.t. C beta >= 1, by HiGHS on the dual
    max 1'y s.t. |C'y| <= 1, y >= 0, restricted to a growing column subset
    until its solution is feasible for every column (then the restricted and
    the full dual agree, and so does the primal).

    The returned 1'y is a lower bound on |beta|_1 for every feasible beta
    (weak duality, y being feasible for the full dual), so a solver answer
    that matches it is optimal, and a wrong reference cannot make a wrong
    answer pass.  One HiGHS solve of the full 400000 x 20 dual gave the same
    optimum in 8.8 s with a 1570 MiB peak; this loop takes 0.06 s (2-vCPU
    sandbox, wide_solvers matrix)."""
    from scipy.optimize import linprog

    G = C.shape[0]
    cols = np.argsort(np.abs(C).max(axis=0))[-10 * G:]
    for _ in range(100):
        sub = C[:, cols]
        res = linprog(-np.ones(G), A_ub=np.vstack([sub.T, -sub.T]),
                      b_ub=np.ones(2 * cols.size), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on the restricted dual: {res.message}")
        slack = np.abs(C.T @ res.x)
        violated = np.setdiff1d(np.where(slack > 1.0 + 1e-9)[0], cols)
        if violated.size == 0:
            return float(-res.fun)
        cols = np.union1d(cols, violated[np.argsort(slack[violated])[-500:]])
    raise RuntimeError("column generation for the HiGHS reference did not settle")


def origin_in_hull(points) -> bool:
    """HiGHS feasibility of P'w = 0, sum(w) = 1, w >= 0."""
    from scipy.optimize import linprog

    d, q = points.shape
    A = np.vstack([points.T, np.ones((1, d))])
    b = np.zeros(q + 1)
    b[-1] = 1.0
    res = linprog(np.zeros(d), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility check failed: {res.message}")
    return res.status == 0


WORKLOADS = {w.name: w for w in (CliFit(), PenaltyPath(), WideSolvers(), CvGroups())}
