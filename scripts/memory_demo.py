#!/usr/bin/env python3
"""Cyclic fiber-loop memory demo.

A photonic block circulating in a fiber loop decays with the fiber's
attenuation; inserting a transponder into the loop stretches the dwell
time by 1/r.  This script prints the analytic times for a 10 km loop and
then measures the mean number of surviving cycles by simulation.
"""

import argparse

from lossguard import analytics, chainsim
from lossguard.analytics import TransponderParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=160)
    args = ap.parse_args()

    params = TransponderParams(alpha=1.0 / 30.0, d=10.0, n=args.n, eta=1.0 - 1e-5)
    p_t = analytics.p_t_full(params)
    ratio = analytics.r(params.x, p_t)

    bare = analytics.storage_time(params.alpha, params.nu)
    improved = bare / ratio
    print(f"loop: {params.d} km of fiber at alpha = {params.alpha:.5f} /km")
    print(f"bare half-decay time        : {bare * 1e6:9.3f} us")
    print(f"transponder p_t (n = {args.n})  : {p_t:.4f}")
    print(f"attenuation ratio r         : {ratio:.4f}")
    print(f"corrected half-decay time   : {improved * 1e6:9.3f} us")

    config = chainsim.ChainConfig(
        params=params, trials=args.trials, seed=args.seed, max_cycles=100_000
    )
    stats = chainsim.run_loop(config)
    analytic_cycles = chainsim.analytic_loop_mean_cycles(config)
    print(
        f"mean surviving cycles       : {stats.mean_cycles:.4f} "
        f"+- {stats.mean_cycles_stderr:.4f} (analytic {analytic_cycles:.4f})"
    )
    print(f"implied dwell time          : {stats.implied_storage_time * 1e6:9.3f} us")


if __name__ == "__main__":
    main()
