"""Growth of the little-intervals and little-discs checks with arity.

    PYTHONPATH=src python3 tools/validate_sweep.py              # k = 1, 2, 4, ..., 256
    PYTHONPATH=src python3 tools/validate_sweep.py --max-k 16   # a quick table

Times `LittleIntervals.validate` and `LittleDiscs(2).validate` on valid
elements of k = 1, 2, 4, ... entries, built two ways: every coordinate over
one shared prime denominator, and each entry over its own prime (10,009
and up), so that the element's common denominator grows with k. Prints a
markdown table of microseconds per call (best of three timed batches of at
least 0.1 s each) and the log-log slope between neighbouring k, then the
slope of a least-squares fit over the whole sweep. A case stops doubling
once one call takes over 0.25 s, so each case ends within a few seconds.

Stdlib only; opt-in, outside the tier-1 tests. The inputs depend on k
alone, so two checkouts time the same elements.
"""

from __future__ import annotations

import argparse
import math
import time
from fractions import Fraction

from opcalc.operads import LittleDiscs, LittleIntervals

FIRST_PRIME = 10_009
SLOW_CALL_S = 0.25


def _primes(count: int, start: int = FIRST_PRIME) -> list[int]:
    out, n = [], start
    while len(out) < count:
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def _near(value: float, q: int) -> Fraction:
    """value, |value| < 1, rounded down to a multiple of 1/q other than 0,
    so that over a prime q the Fraction keeps its denominator q."""
    p = math.floor(value * q)
    return Fraction(p or -1, q)


def intervals(k: int, dens: list[int]) -> tuple:
    """k disjoint intervals, entry j strictly inside [j/k, (j+1)/k] over
    dens[j]; each numerator lies in 1..q-1, so no Fraction is reduced."""
    return tuple((Fraction(j * q // k + 1, q), Fraction(-(-(j + 1) * q // k) - 1, q))
                 for j, q in enumerate(dens))


def discs(k: int, dens: list[int]) -> tuple:
    """k discs on a g x g grid inside [-0.6, 0.6]^2, entry j over dens[j]."""
    g = math.isqrt(k - 1) + 1
    step = 1.2 / g
    return tuple(((_near(-0.6 + (j % g + 0.5) * step, q), _near(-0.6 + (j // g + 0.5) * step, q)),
                  _near(step / 4, q))
                 for j, q in enumerate(dens))


def time_call(check, x) -> float:
    """Seconds per call: best of three batches, each at least 0.1 s."""
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            check(x)
        spent = time.perf_counter() - started
        if spent >= 0.1:
            break
        number *= 2
    best = spent / number
    for _ in range(2):
        started = time.perf_counter()
        for _ in range(number):
            check(x)
        best = min(best, (time.perf_counter() - started) / number)
    return best


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(k)."""
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def sweep(max_k: int) -> None:
    ks = [1 << e for e in range(max_k.bit_length()) if 1 << e <= max_k]
    primes = _primes(ks[-1])
    print("| operad | denominators | k | us per call | slope from k/2 |")
    print("|---|---|---|---|---|")
    fits = []
    for name, op, build in (("d1", LittleIntervals(), intervals),
                            ("discs2", LittleDiscs(2), discs)):
        for shared in (True, False):
            label = "one shared prime" if shared else "a prime per entry"
            points: list[tuple[int, float]] = []
            for k in ks:
                dens = primes[:1] * k if shared else primes[:k]
                x = build(k, dens)
                op.validate(x)
                seconds = time_call(op.validate, x)
                points.append((k, seconds))
                local = "" if len(points) == 1 else f"{slope(points[-2:]):.2f}"
                print(f"| {name} | {label} | {k} | {seconds * 1e6:.2f} | {local} |", flush=True)
                if seconds > SLOW_CALL_S:
                    break
            fits.append((name, label, points))
    print()
    for name, label, points in fits:
        fit = f"{slope(points):.2f}" if len(points) > 1 else "n/a"
        print(f"- {name}, {label}: slope {fit} over k = {points[0][0]}..{points[-1][0]}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-k", type=int, default=256,
                        help="largest arity, rounded down to a power of two (default 256)")
    args = parser.parse_args(argv)
    if args.max_k < 1:
        parser.error("--max-k must be at least 1")
    sweep(args.max_k)


if __name__ == "__main__":
    main()
