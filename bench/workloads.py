"""The four benchmark workloads.

A workload builds its fixed inputs in ``__init__`` (that is set-up), makes
the input of op k from the seed with ``make_input(k)`` (outside the op's
timing), runs one op with ``run(inp)`` (timed), turns the output into a small
record with ``record(inp, out)`` and checks that record after the timed loop
with ``check(rec)``. ``corrupt(out)`` damages one output for the self-test.

Every library call goes through a module attribute (``ck.solve``, not a name
bound at import), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys

SCENARIO_NAMES = ("fig4", "shopping", "image-editing", "overcooked")
POLICY_NAMES = ("optimal", "end", "every")


def env_with_src(src: str) -> dict[str, str]:
    """This process's environment with ``src`` first on PYTHONPATH."""
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _floats(*xs: float) -> bytes:
    return " ".join(float(x).hex() for x in xs).encode()


def _op_rng(workload: str, seed: int, k: int) -> random.Random:
    # A str seed is hashed with SHA-512, so it is stable across processes.
    return random.Random(f"{workload}:{seed}:{k}")


def random_steps(rng: random.Random, n: int, p_lo: float, p_hi: float) -> list[dict]:
    """n steps with their own probability and four costs each."""
    return [
        {
            "p_a": rng.uniform(p_lo, p_hi),
            "t_confirm": rng.uniform(1.0, 10.0),
            "t_diagnose": rng.uniform(0.5, 5.0),
            "t_correct": rng.uniform(1.0, 10.0),
            "t_redo": rng.uniform(0.5, 20.0),
        }
        for _ in range(n)
    ]


def random_plan(ck, rng: random.Random, n: int, p_lo: float, p_hi: float):
    return ck.TaskPlan(ck.StepModel(**s) for s in random_steps(rng, n, p_lo, p_hi))


def spread_evenly(counts: dict) -> tuple:
    """One cycle that holds each key ``count`` times, evenly spaced."""
    phase = {key: (j + 0.5) / len(counts) for j, key in enumerate(counts)}
    slots = sorted(((i + phase[key]) / c, key) for key, c in counts.items() for i in range(c))
    return tuple(key for _, key in slots)


def _policy_ok(next_ckpt, n: int) -> bool:
    """Total and strictly forward, checked without the library."""
    return len(next_ckpt) == n and all(i < j <= n for i, j in enumerate(next_ckpt))


class PlanLarge:
    """One solve on a long plan, then the price of the policy it returns.

    Ops cycle through N=500 and N=1000 (5:4); the two ops in FIXED are
    N=2000 instead and set the memory peak. The median sits at the slow end
    of the N=500 class (90% into it), and the tail (11th slowest op) inside
    the N=1000 class, below the two FIXED ops (see README, "Steady numbers").
    """

    name = "plan_large"
    SIZES = spread_evenly({500: 5, 1000: 4})
    FIXED = {4: 2000, 9: 2000}

    def __init__(self, ck, seed: int, workdir: str, in_process: bool) -> None:
        self.ck = ck
        self.seed = seed

    def make_input(self, k: int):
        n = self.FIXED.get(k) or self.SIZES[k % len(self.SIZES)]
        return random_plan(self.ck, _op_rng(self.name, self.seed, k), n, 0.85, 0.999)

    def run(self, plan):
        result = self.ck.solve(plan)
        return result, self.ck.evaluate_policy(plan, result.policy)

    def corrupt(self, out):
        result, values = out
        values = values.copy()
        values[0] = math.nextafter(values[0], math.inf)
        return result, values

    def record(self, plan, out) -> dict:
        result, values = out
        policy = result.policy.next_ckpt
        return {
            "n": plan.n,
            "value0": float(result.value[0]),
            "eval0": float(values[0]),
            "finite": bool(all(math.isfinite(v) for v in result.value)),
            "policy_ok": _policy_ok(policy, plan.n),
            "digest": _digest(
                result.value.tobytes(), repr(policy).encode(), values.tobytes()
            ),
        }

    def check(self, rec: dict) -> str | None:
        if not rec["policy_ok"]:
            return f"N={rec['n']}: solve returned an invalid policy"
        if not rec["finite"]:
            return f"N={rec['n']}: solve returned a non-finite value"
        if rec["eval0"] != rec["value0"]:
            return (
                f"N={rec['n']}: evaluate_policy(optimal)[0] = {rec['eval0']!r} "
                f"!= solve value[0] = {rec['value0']!r}"
            )
        return None


class VerifySmall:
    """Cross-check of one small plan: solve, three fixed prices, brute force.

    N=5, 6 and 7 come 10:5:3, so the median sits at the slow end of the N=5
    class (90% into it) and the tail near the slow end of the N=7 class (see
    README, "Steady numbers").
    """

    name = "verify_small"
    SIZES = spread_evenly({5: 10, 6: 5, 7: 3})

    def __init__(self, ck, seed: int, workdir: str, in_process: bool) -> None:
        self.ck = ck
        self.seed = seed

    def make_input(self, k: int):
        n = self.SIZES[k % len(self.SIZES)]
        return random_plan(self.ck, _op_rng(self.name, self.seed, k), n, 0.5, 0.99)

    def run(self, plan):
        ck = self.ck
        n = plan.n
        result = ck.solve(plan)
        prices = [
            ck.evaluate_policy(plan, policy)
            for policy in (result.policy, ck.Policy.end_only(n), ck.Policy.every_step(n))
        ]
        return result, prices, ck.enumerate_policies(plan)

    def corrupt(self, out):
        result, prices, brute = out
        return result, prices, type(brute)(
            brute.best_policy, brute.best_value * (1 + 1e-6), brute.evaluated
        )

    def record(self, plan, out) -> dict:
        result, prices, brute = out
        return {
            "n": plan.n,
            "opt": float(result.value[0]),
            "end": float(prices[1][0]),
            "every": float(prices[2][0]),
            "brute": brute.best_value,
            "evaluated": brute.evaluated,
            "digest": _digest(
                result.value.tobytes(),
                repr(result.policy.next_ckpt).encode(),
                *(p.tobytes() for p in prices),
                _floats(brute.best_value),
                repr((brute.best_policy.next_ckpt, brute.evaluated)).encode(),
            ),
        }

    def check(self, rec: dict) -> str | None:
        n, opt, brute = rec["n"], rec["opt"], rec["brute"]
        if rec["evaluated"] != math.factorial(n):
            return f"N={n}: enumerate evaluated {rec['evaluated']} policies, not {n}!"
        if not abs(brute - opt) <= 1e-9 * abs(opt):
            return f"N={n}: brute force {brute!r} != solve {opt!r}"
        if not (opt <= rec["end"] and opt <= rec["every"]):
            return f"N={n}: optimum {opt!r} above end-only {rec['end']!r} or every-step {rec['every']!r}"
        return None


class Simulate:
    """One Monte Carlo call of RUNS runs on a built-in scenario and policy.

    Each cycle of 21 ops holds every scenario x policy pair once, plus each
    fig4 pair three more times. fig4 is the cheapest scenario per run, so the
    median sits near the slow end of the fig4 ops and the tail among the
    slowest ops of the costliest pairs (see README, "Steady numbers").
    """

    name = "simulate"
    RUNS = 5000
    Z_LIMIT = 4.5

    def __init__(self, ck, seed: int, workdir: str, in_process: bool) -> None:
        self.ck = ck
        self.seed = seed
        pairs = {}
        for name in SCENARIO_NAMES:
            plan = ck.get_scenario(name).plan
            n = plan.n
            policies = (ck.solve(plan).policy, ck.Policy.end_only(n), ck.Policy.every_step(n))
            for label, policy in zip(POLICY_NAMES, policies):
                pairs[name, label] = (plan, policy, float(ck.evaluate_policy(plan, policy)[0]))
        weights = {key: 4 if key[0] == "fig4" else 1 for key in pairs}
        self.cycle = [pairs[key] + key for key in spread_evenly(weights)]

    def make_input(self, k: int):
        return self.cycle[k % len(self.cycle)] + (self.seed * 1_000_003 + k,)

    def run(self, inp):
        plan, policy, _, _, _, mc_seed = inp
        return self.ck.monte_carlo(plan, policy, self.RUNS, mc_seed)

    def corrupt(self, out):
        return type(out)(
            out.runs, out.mean_time + 10 * out.std_error, out.std_error,
            out.ci95, out.mean_cycles,
        )

    def record(self, inp, out) -> dict:
        _, _, analytic, scenario, label, mc_seed = inp
        return {
            "case": f"{scenario}/{label} seed {mc_seed}",
            "analytic": analytic,
            "mean": out.mean_time,
            "se": out.std_error,
            "runs": out.runs,
            "digest": _digest(
                _floats(out.mean_time, out.std_error, *out.ci95, out.mean_cycles),
                str(out.runs).encode(),
            ),
        }

    def check(self, rec: dict) -> str | None:
        if rec["runs"] != self.RUNS:
            return f"{rec['case']}: {rec['runs']} runs, asked for {self.RUNS}"
        if not rec["se"] > 0.0:
            return f"{rec['case']}: standard error {rec['se']!r}"
        z = (rec["mean"] - rec["analytic"]) / rec["se"]
        if not abs(z) < self.Z_LIMIT:
            return f"{rec['case']}: |z| = {abs(z):.2f} against the analytic {rec['analytic']!r}"
        return None


class Cli:
    """One ``ckptsched`` command, run as a fresh ``python -m ckptsched.cli``.

    Each cycle of 13 ops holds the seven quick commands once and the three
    Monte Carlo summaries of 5000 runs twice, so the median sits at the slow
    end of the quick commands (93% into them) and the tail inside the
    Monte Carlo summaries (see README, "Steady numbers"). With
    ``in_process`` (the traced run) ``cli.main`` runs in this process with
    stdout captured. Otherwise the check compares each command's stdout with
    an in-process ``cli.main`` of the same argv.
    """

    name = "cli"
    CONFIG_STEPS = 60
    # argv -> ops per cycle; {cfg} is the config file, {seed} the op's seed.
    COMMANDS = {
        ("solve", "{cfg}"): 1,
        ("eval", "shopping", "--policy", "optimal"): 1,
        ("simulate", "{cfg}", "--policy", "optimal", "--seed", "{seed}"): 1,
        ("enumerate", "fig4"): 1,
        ("compare", "overcooked", "--runs", "100", "--seed", "{seed}"): 1,
        ("sweep", "image-editing", "--axis", "p_a", "--values", "0.8,0.85,0.9,0.95"): 1,
        ("error-loc", "{cfg}"): 1,
        ("simulate", "shopping", "--policy", "end", "--runs", "5000", "--seed", "{seed}"): 2,
        ("simulate", "image-editing", "--policy", "every", "--runs", "5000", "--seed", "{seed}"): 2,
        ("simulate", "overcooked", "--policy", "every", "--runs", "5000", "--seed", "{seed}"): 2,
    }
    CYCLE = spread_evenly(COMMANDS)

    def __init__(self, ck, seed: int, workdir: str, in_process: bool) -> None:
        import ckptsched.cli

        self.cli = ckptsched.cli
        self.seed = seed
        self.in_process = in_process
        self._reference: dict[tuple[str, ...], tuple[int, bytes, bytes]] = {}
        rng = random.Random(f"{self.name}:{seed}")
        steps = random_steps(rng, self.CONFIG_STEPS, 0.9, 0.995)
        self.config = os.path.join(workdir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"name": "bench-config", "steps": steps}, fh)
        self.env = env_with_src(os.path.dirname(os.path.dirname(ck.__file__)))

    def make_input(self, k: int) -> list[str]:
        fill = {"{cfg}": self.config, "{seed}": str(self.seed * 1_000_003 + k)}
        return [fill.get(arg, arg) for arg in self.CYCLE[k % len(self.CYCLE)]]

    def main_in_process(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argv this way
                code = exc.code
        return code, out.getvalue().encode(), err.getvalue().encode()

    def run(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        if self.in_process:
            return self.main_in_process(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "ckptsched.cli", *argv],
            env=self.env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def corrupt(self, out):
        code, stdout, stderr = out
        return code, stdout[:-2] + b"?\n", stderr

    def record(self, argv, out) -> dict:
        code, stdout, stderr = out
        return {
            "argv": argv,
            "code": code,
            "stdout": stdout,
            "stderr": stderr,
            "digest": _digest(stdout),
        }

    def check(self, rec: dict) -> str | None:
        cmd = " ".join(rec["argv"][:2])
        if rec["code"] != 0:
            return f"{cmd}: exit code {rec['code']}"
        if rec["stderr"]:
            return f"{cmd}: stderr {rec['stderr'][:200]!r}"
        if not self.in_process:
            key = tuple(rec["argv"])
            if key not in self._reference:
                self._reference[key] = self.main_in_process(rec["argv"])
            code, stdout, _ = self._reference[key]
            if code != 0 or stdout != rec["stdout"]:
                return f"{cmd}: stdout differs from in-process cli.main"
        return None


WORKLOADS = {w.name: w for w in (PlanLarge, VerifySmall, Simulate, Cli)}
