"""Seeded scenario generator for the ``sweep-mixed`` workload.

Every stratum is one (family, role) pair of the catalogue.  Within a stratum
the parameters are drawn by centred Latin hypercube sampling over fixed
ranges, and the test-function kind and the request kind (``check`` or
``bounds``) are dealt from shuffled, balanced decks.  So every seed yields the
same mix of strata, test-function kinds and request kinds and only the values
move, which keeps the run-to-run spread between seeds small while the specs
never repeat.

The ranges cover the typical domain of each family and are not narrowed to
avoid known defects; scenarios that make the program fail stay in and are
counted as failed ops by the benchmark.  The one pair left out is the
exponential location role, which the variance-bound machinery rejects by
design (its support moves with the parameter).

Usage (prints the sweep for a seed):
    python3 perfbench/sweep.py --seed 7

Each output line is ``{"request": "check"|"bounds", "scenario": {...}}``; the
program only ever sees the ``scenario`` object, written as a one-line file.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

PER_STRATUM = 17  # gamma shape bins of width 0.5

RATE = (0.25, 4.0)        # scale roles: the parameter multiplies the coordinate
SHIFT = (-5.0, 5.0)       # location roles
WIDTH = (0.5, 3.0)        # gaussian base width (structural "sigma")
SHAPE = (1.5, 10.0)       # gamma shape
PROB = (0.05, 0.95)

# (family, role kind, role range, structural ranges)
STRATA: tuple[tuple[str, str, tuple[float, float], dict[str, tuple[float, float]]], ...] = (
    ("gaussian", "location", SHIFT, {"sigma": WIDTH}),
    ("gaussian", "scale", RATE, {"sigma": WIDTH}),
    ("exponential", "scale", RATE, {}),
    ("gamma", "location", SHIFT, {"shape": SHAPE}),
    ("gamma", "scale", RATE, {"shape": SHAPE}),
    ("sas-gaussian", "skew", (-1.0, 1.0), {}),
    ("poisson", "theta", (0.5, 40.0), {}),
    ("geometric", "theta", PROB, {}),
    ("binomial", "theta", PROB, {"n": (1.0, 101.0)}),   # n drawn as floor of [1, 101)
)

CONTINUOUS_TESTS = ("one", "linear", "square", "poly1", "poly2", "poly3")
# sqrt has a singular derivative at 0, inside every continuous support here.
DISCRETE_TESTS = CONTINUOUS_TESTS + ("sqrt",)
COEFFICIENTS = (-2.0, 2.0)


def _latin(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k values, one from the middle half of each of k equal bins of [lo, hi),
    in random order.

    Keeping clear of the bin edges keeps the number of values on either side
    of any edge the same for every seed: gamma location scenarios with shape
    below about 2.55 cost twenty times the others, and the bins of width 0.5
    from 1.5 put exactly two of them below 2.5 and none in [2.5, 2.625).
    """
    bins = list(range(k))
    rng.shuffle(bins)
    return [lo + (hi - lo) * (b + 0.25 + 0.5 * rng.random()) / k for b in bins]


def _deck(rng: random.Random, items: tuple[str, ...], k: int) -> list[str]:
    """k items dealt round-robin from ``items``, then shuffled."""
    deck = [items[i % len(items)] for i in range(k)]
    rng.shuffle(deck)
    return deck


def _test_function(rng: random.Random, kind: str) -> dict:
    if kind.startswith("poly"):
        degree = int(kind[4:])
        return {"coefficients": [round(rng.uniform(*COEFFICIENTS), 6) for _ in range(degree + 1)]}
    return {"name": kind}


def generate(seed: int, per_stratum: int = PER_STRATUM) -> list[dict]:
    """The sweep for ``seed``: ``per_stratum`` requests for each stratum."""
    rng = random.Random(seed)
    requests: list[dict] = []
    for family, kind, role_range, structural in STRATA:
        values = _latin(rng, *role_range, per_stratum)
        columns = {key: _latin(rng, *span, per_stratum) for key, span in structural.items()}
        tests = _deck(rng, DISCRETE_TESTS if kind == "theta" else CONTINUOUS_TESTS, per_stratum)
        # A seeded coin picks which request kind gets the odd one out.
        kinds = _deck(rng, ("check", "bounds") if rng.random() < 0.5 else ("bounds", "check"), per_stratum)
        for i in range(per_stratum):
            scenario: dict = {
                "id": f"{family}-{kind}-{i:03d}",
                "family": family,
                "role": {"kind": kind, "value": round(values[i], 6)},
            }
            for key, column in columns.items():
                scenario[key] = int(column[i]) if key == "n" else round(column[i], 6)
            scenario["test_function"] = _test_function(rng, tests[i])
            requests.append({"request": kinds[i], "scenario": scenario})
    rng.shuffle(requests)
    return requests


def dumps(requests: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in requests)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout.write(dumps(generate(args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
