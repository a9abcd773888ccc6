"""Seeded input generator for the pcring benchmark.

``generate(workload, seed, workdir)`` writes the instance documents one pass
of a workload sends to the CLI and returns the CLI invocations of that pass.
The same seed gives byte-identical documents.  The program under test never
sees the seed, only the documents and the argument lists.

Run on its own to inspect a workload's inputs:

    python3 perfbench/gen.py --workload split-verify --seed 1 --out /some/dir
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

Exp = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """One ring instance as the checker sees it: group orders, canonical
    element and whether the report must carry a matching golden block."""

    name: str
    group: tuple[int, ...]
    c: tuple[tuple[Exp, int], ...]
    golden: bool = False


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` follows the program name."""

    name: str
    argv: tuple[str, ...]
    instances: tuple[Instance, ...]
    verify: bool
    emit: bool
    batch: bool = False


# BENCHMARK.json gives the reason for each workload.
WORKLOADS = ("nilpotent-verify", "split-verify", "spectral-noverify", "corpus-batch")

NILPOTENT_LADDER = (24, 32, 40)
SPLIT_GROUPS = ((2, 2, 2, 2, 2, 2), (3, 3, 3), (2, 3, 5))
SPECTRAL_UQ = 256
SPECTRAL_GROUPS = ((5, 7),)

# Acceptance-corpus distribution: rank weights, factor pool, and the limits
# lcm <= 30, size <= 30.
CORPUS_RANKS = (1, 1, 1, 1, 2, 2, 3)
CORPUS_FACTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                  18, 20, 21, 22, 24, 26, 28, 30)
# Style mix of the acceptance corpus: 20% all-ones, 30% dense, 50% sparse.
CORPUS_MIX = (("ones", 3), ("dense", 5), ("sparse", 8))


def elements(group: tuple[int, ...]) -> list[Exp]:
    """Group elements in the CLI's canonical (lexicographic) order."""
    return list(itertools.product(*(range(n) for n in group)))


def trace_element(group: tuple[int, ...]) -> tuple[tuple[Exp, int], ...]:
    return tuple((a, 1) for a in elements(group))


def sparse_element(rng: random.Random, group: tuple[int, ...],
                   extra_terms: int) -> tuple[tuple[Exp, int], ...]:
    """The trivial factor plus ``extra_terms`` distinct nontrivial terms,
    multiplicities 1..5."""
    elems = elements(group)
    coeffs = {elems[0]: rng.randint(1, 5)}
    for a in rng.sample(elems[1:], extra_terms):
        coeffs[a] = rng.randint(1, 5)
    return tuple(sorted(coeffs.items()))


def _corpus_groups(style: str, count: int) -> list[tuple[int, ...]]:
    # A fixed stratified sample of the corpus group distribution: one group
    # at each of `count` evenly spaced size quantiles of a large draw.  The
    # cost of a document grows steeply with its group, so the seed draws
    # only the canonical elements and the order, not the sizes.
    rng = random.Random(f"corpus-groups:{style}")
    pool = []
    while len(pool) < 40 * count:
        orders = tuple(rng.choice(CORPUS_FACTORS) for _ in range(rng.choice(CORPUS_RANKS)))
        if 2 <= math.prod(orders) <= 30 and math.lcm(*orders) <= 30:
            pool.append(orders)
    sizes = sorted(math.prod(g) for g in pool)
    targets = [sizes[(2 * i + 1) * len(sizes) // (2 * count)] for i in range(count)]
    return [rng.choice([g for g in pool if math.prod(g) == size]) for size in targets]


def _corpus_element(rng: random.Random, group: tuple[int, ...],
                    style: str) -> tuple[tuple[Exp, int], ...]:
    elems = elements(group)
    if style == "ones":
        coeffs = {a: 1 for a in elems}
    elif style == "dense":
        coeffs = {a: rng.randint(0, 5) for a in elems}
    else:
        coeffs = {}
        for _ in range(rng.randint(1, min(4, len(elems)))):
            coeffs[elems[rng.randrange(len(elems))]] = rng.randint(1, 5)
    if coeffs.get(elems[0], 0) < 1:
        coeffs[elems[0]] = rng.randint(1, 5)
    if sum(coeffs.values()) < 2:
        coeffs[elems[0]] = 2
    return tuple(sorted((a, k) for a, k in coeffs.items() if k))


def instance_document(inst: Instance) -> str:
    doc = {
        "name": inst.name,
        "group": list(inst.group),
        "c": [{"exp": list(a), "coeff": k} for a, k in inst.c],
    }
    return json.dumps(doc) + "\n"


def _flags(verify: bool, emit: bool) -> tuple[str, ...]:
    verify_flags = () if verify else ("--no-verify",)
    return verify_flags + (("--idempotents", "--nilradical") if emit else ())


def _uq(n: int, verify: bool) -> Invocation:
    inst = Instance(f"uq-sl2({n})", (n,), trace_element((n,)), golden=True)
    return Invocation(inst.name, ("example", "uq-sl2", "--n", str(n)) + _flags(verify, False),
                      (inst,), verify=verify, emit=False)


def _analyze(inst: Instance, workdir: Path, verify: bool) -> Invocation:
    path = workdir / f"{inst.name}.json"
    path.write_text(instance_document(inst))
    return Invocation(inst.name, ("analyze", str(path)) + _flags(verify, False),
                      (inst,), verify=verify, emit=False)


def setup_invocation() -> Invocation:
    """The trivial call whose wall time is the benchmark's set-up time."""
    return _uq(2, verify=False)


def generate(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the documents of one pass of ``workload`` under ``workdir`` and
    return its invocations, in the order a single client sends them."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "nilpotent-verify":
        return [_uq(n, verify=True) for n in NILPOTENT_LADDER]
    if workload == "split-verify":
        # Three extra terms each, the middle of the 2..4 range: the term
        # count alone moves the rational radical's cost by a factor of two.
        return [
            _analyze(Instance(f"split-{i}", group, sparse_element(rng, group, 3)),
                     workdir, verify=True)
            for i, group in enumerate(SPLIT_GROUPS)
        ]
    if workload == "spectral-noverify":
        out = [_uq(SPECTRAL_UQ, verify=False)]
        for i, group in enumerate(SPECTRAL_GROUPS):
            inst = Instance(f"spectral-{i}", group, sparse_element(rng, group, rng.randint(2, 4)))
            out.append(_analyze(inst, workdir, verify=False))
        return out
    if workload == "corpus-batch":
        corpus = workdir / "corpus"
        corpus.mkdir(exist_ok=True)
        drawn = [(group, _corpus_element(rng, group, style))
                 for style, count in CORPUS_MIX for group in _corpus_groups(style, count)]
        rng.shuffle(drawn)
        docs = []
        for i, (group, c) in enumerate(drawn):
            inst = Instance(f"doc-{i:03d}", group, c)
            (corpus / f"{inst.name}.json").write_text(instance_document(inst))
            docs.append(inst)
        return [Invocation("batch", ("batch", str(corpus)) + _flags(True, True),
                           tuple(docs), verify=True, emit=True, batch=True)]
    raise ValueError(f"unknown workload: {workload}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    for inv in generate(args.workload, args.seed, args.out):
        print("pcring " + " ".join(inv.argv))


if __name__ == "__main__":
    main()
