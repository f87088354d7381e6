"""The benchmark's workloads: CLI job lists built from a seed.

A job is a dict with the ``argv`` handed to ``chevlab.cli.dispatch`` (the
common ``--output json-lines --no-timing`` flags are added by the worker)
and a ``label`` used in records.  Decompose jobs also carry the Bruhat cell
the target was built in, so the known-answer check can confirm it.
"""

from __future__ import annotations

import random

WORKLOADS = ("symbolic", "finite", "decompose")

# Systems whose Chevalley basis each workload needs before its first job.
SYSTEMS = {
    "symbolic": ("A1", "A2", "B2", "G2"),
    "finite": ("A1", "B2", "A2"),
    "decompose": ("A2", "B2"),
}

# --- decompose ------------------------------------------------------------

DECOMPOSE_FIELDS = (("A2", 3), ("B2", 2))
POSITIVE = {"A2": ("a1", "a2", "a1+a2"), "B2": ("a", "b", "a+b", "a+2b")}
SIMPLE = {"A2": ("a1", "a2"), "B2": ("a", "b")}
WORD_LETTERS = 8

# Bruhat cells as reduced words in the simple reflections (indices into
# SIMPLE), with how many targets of each cell one pass decomposes.  A
# uniformly random group element lands in BwB with probability proportional
# to p^len(w), so the counts are 12 * p^len(w) / sum_w p^len(w), rounded:
# A2/F_3 weighs 1:3:3:9:9:27 and B2/F_2 1:2:2:4:4:8:8:16.  The search cost
# of a target is set mostly by its cell, so fixing the cell counts keeps
# the cost of a pass the same for every seed, while the seed still picks
# every letter, every parameter and the job order.
CELL_SCHEDULE = {
    "A2": (((0,), 1), ((1,), 1), ((0, 1), 2), ((1, 0), 2), ((0, 1, 0), 6)),
    "B2": (((0,), 1), ((1,), 1), ((0, 1), 1), ((1, 0), 1),
           ((0, 1, 0), 2), ((1, 0, 1), 2), ((0, 1, 0, 1), 4)),
}


def bruhat_target(rng: random.Random, system: str, p: int, cell) -> str:
    """A word of WORD_LETTERS root elements with parameters in F_p^* that
    lies in the Bruhat cell B w B, w = s_{cell[0]} s_{cell[1]} ...

    x_{-a}(c) lies in B s_a B for c != 0, and B w B . B s B = B ws B when
    len(ws) = len(w) + 1, so negative simple-root letters spelling a
    reduced word for w, with positive-root letters (elements of B) on
    either side, give an element of B w B.
    """
    outer = WORD_LETTERS - len(cell)
    left = rng.randint(0, outer)

    def letter(root):
        return f"x({root},{rng.randint(1, p - 1)})"

    letters = [letter(rng.choice(POSITIVE[system])) for _ in range(left)]
    letters += [letter("-" + SIMPLE[system][i]) for i in cell]
    letters += [letter(rng.choice(POSITIVE[system]))
                for _ in range(outer - left)]
    return " ".join(letters)


def _decompose_jobs(rng: random.Random) -> list:
    jobs = []
    for system, p in DECOMPOSE_FIELDS:
        for cell, count in CELL_SCHEDULE[system]:
            for _ in range(count):
                word = bruhat_target(rng, system, p, cell)
                jobs.append({
                    "label": f"decompose {system}/F_{p} {word}",
                    "argv": ["decompose", "--system", system,
                             "--prime", str(p), "--bruhat", word],
                    "system": system, "prime": p, "word": word,
                    "cell": list(cell),
                })
    return jobs


# --- symbolic and finite --------------------------------------------------

def _job(*argv) -> dict:
    return {"label": " ".join(argv), "argv": list(argv)}


def jobs(workload: str, seed: int) -> list:
    """The job list of one pass, in the order it runs."""
    rng = random.Random(seed)
    if workload == "symbolic":
        out = [_job("chain")]
        out += [_job("prooflab", "--system", s, "--mutants")
                for s in ("A1", "A2", "B2", "G2")]
        out += [_job("centralizer"), _job("relations")]
        rng.shuffle(out)
        return out
    if workload == "finite":
        # sha A1/F_13 always runs first.  A reference cycle keeps each sha
        # job's product memo alive until a later full collection, so the
        # job order moves the peak RSS (measured without prebuilt bases:
        # 174 MB with A1/F_13 first, 201 MB with B2/F_2 first).
        rest = [_job("sha", "--system", "B2", "--prime", "2"),
                _job("centralizer", "--system", "A2", "--prime", "3")]
        rng.shuffle(rest)
        return [_job("sha", "--system", "A1", "--prime", "13")] + rest
    if workload == "decompose":
        out = _decompose_jobs(rng)
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")
