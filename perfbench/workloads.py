"""The benchmark's workloads, how a benchmark seed becomes program seeds, and
the child-process helper that the entry point and the worker share.

Nothing here imports numpy, so the entry point stays light. Every unit
follows the paper's protocol: 15 generations of 40 GAN epochs.
"""
from __future__ import annotations

import os
import random
import signal
import subprocess

GENERATIONS = 15
EPOCHS = 40

# kind "run": one unit is one seeded run_single; `seeds` distinct program
# seeds per benchmark seed, cycled when the time budget allows more units.
# `pop_size` and `front_size` are the lattice size and IGD reference size the
# protocol prescribes for M objectives; the output checks rely on them.
# kind "sweep": one unit is one `rveawg sweep` through the CLI, R paired seeds.
WORKLOADS = {
    "rveawg-lsmop1-m3": {
        "kind": "run", "algorithm": "rvea-wg", "problem": "lsmop1", "objectives": 3,
        "pop_size": 105, "front_size": 500, "seeds": 5,
    },
    "rveawg-dtlz2-m3": {
        "kind": "run", "algorithm": "rvea-wg", "problem": "dtlz2", "objectives": 3,
        "pop_size": 105, "front_size": 500, "seeds": 5,
    },
    "nsga2-dtlz2-m10": {
        "kind": "run", "algorithm": "nsga2", "problem": "dtlz2", "objectives": 10,
        "pop_size": 275, "front_size": 1000, "seeds": 8,
    },
    "paired-sweep-m3": {
        "kind": "sweep", "problems": ["lsmop1", "dtlz2"], "algorithms": ["rvea-wg", "nsga2"],
        "objectives": 3, "runs": 2, "jobs": 2,
        # The paper's orderings: the GAN wins the large-scale problem, NSGA-II DTLZ2.
        "best": {"lsmop1": "rvea-wg", "dtlz2": "nsga2"},
    },
}


def program_seeds(seed: int, count: int) -> list[int]:
    """`count` consecutive program seeds; the same benchmark seed gives the same list."""
    base = random.Random(seed).randrange(2**31)
    return [base + i for i in range(count)]


def sweep_config_text(workload: dict, seed: int) -> str:
    """The flat `key = value` file `rveawg sweep` reads."""
    return "\n".join([
        f"problems = {', '.join(workload['problems'])}",
        f"objectives = {workload['objectives']}",
        f"algorithms = {', '.join(workload['algorithms'])}",
        f"generations = {GENERATIONS}",
        f"epochs = {EPOCHS}",
        f"runs = {workload['runs']}",
        f"seed = {program_seeds(seed, 1)[0]}",
        "",
    ])


def run_child(cmd: list[str], timeout: float, env: dict | None = None) -> tuple[int | None, str, str]:
    """Run `cmd` in its own process group; on timeout or interrupt kill the
    whole group, so that pool workers do not outlive it.

    Returns (exit code or None on timeout, stdout, stderr).
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + f"\ntimed out after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err
