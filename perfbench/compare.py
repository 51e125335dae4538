#!/usr/bin/env python3
"""Compare two sets of perfbench runs (standard library only).

Usage, from the repository root:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files, or directories of files, holding the standard
output of perfbench runs. Each run's provenance record line
({"record": ...}) is read; other lines are ignored.

For every (metric, workload) the report gives each side's median and
quartiles, the pair win rate of NEW over BASE (runs paired by seed when
both sides ran the same seeds, else by order; ties count for neither)
and a verdict:

  improved    NEW wins at least 9 of 10 pairs and the medians differ by
              more than BASE's quartile spread
  worse       NEW's median is worse than BASE's by more than the bound
  no worse    NEW's median is within the bound of BASE's
  unresolved  a side's quartile spread exceeds the bound, unless every
              NEW run is better than every BASE run (then: no worse)

Bounds and directions come from BENCHMARK.json. Metrics of the record
that BENCHMARK.json does not score have no bound: they are reported as
improved, worse (by the mirror of the improvement rule) or unresolved.
Runs on hosts whose stamps differ (nproc, GOMAXPROCS, CPU model, Go
version) get "host mismatch" instead of a verdict. A side whose median
hypervisor steal share (host_steal_share) exceeds MAX_STEAL gets "host
contention" instead of a verdict: its wall-clock figures measure the
host's load as much as the code. An "improved" verdict needs NEW to fail
no larger share of its operations than BASE; otherwise it reads
"unresolved (more failures)", since failing fast can look like a gain.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "gomaxprocs", "cpu_model", "go_version")
HIGHER_BETTER = {"slo_qps"}
MAX_STEAL = 0.05


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    runs = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith('{"record"'):
                    runs.append(json.loads(line)["record"])
    return runs


def values(run):
    """Every metric of one run record: scored metrics and the record's."""
    out = {k: v["value"] for k, v in run.get("metrics", {}).items()}
    for key in ("end_to_end", "per_layer"):
        out.update({k: v["value"] for k, v in run.get(key, {}).items()})
    return out


def fail_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pairs(base, new):
    bs = {r["stamp"]["seed"]: r for r in base}
    ns = {r["stamp"]["seed"]: r for r in new}
    common = sorted(set(bs) & set(ns))
    if len(common) == min(len(base), len(new)):
        return [(bs[s], ns[s]) for s in common]
    return list(zip(base, new))


def verdict(b, n, wins, npairs, bound, higher):
    sign = 1 if higher else -1
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    gain = sign * (nmed - bmed)
    if npairs and wins / npairs >= 0.9 and gain > bq3 - bq1:
        return "improved"
    if bound is None:
        losses = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
        if npairs and losses / npairs >= 0.9 and -gain > bq3 - bq1:
            return "worse"
        return "unresolved"
    scale = abs(bmed) or 1.0
    spread = max((bq3 - bq1) / scale, (nq3 - nq1) / (abs(nmed) or 1.0))
    if spread > bound:
        if min(sign * y for y in n) > max(sign * x for x in b):
            return "no worse"
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "no worse"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    scored = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[1]), load(argv[2])
    groups = {}
    for side, runs in (("base", base), ("new", new)):
        for r in runs:
            key = (r["stamp"]["workload"], r["stamp"]["trace"])
            groups.setdefault(key, {"base": [], "new": []})[side].append(r)
    print(f"{'workload':12} {'metric':40} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'wins':>6}  verdict")
    for (workload, trace), g in sorted(groups.items()):
        if not g["base"] or not g["new"]:
            print(f"{workload:12} (runs on one side only)")
            continue
        hosts = {tuple(r["stamp"].get(k) for k in HOST_KEYS) for r in g["base"] + g["new"]}
        steal = [statistics.median(values(r).get("host_steal_share", 0) for r in g[side]) for side in ("base", "new")]
        contended = max(steal) > MAX_STEAL
        if contended:
            print(f"{workload:12} median steal share {steal[0]:.3f} (base), {steal[1]:.3f} (new): above {MAX_STEAL}")
        fails = [fail_share(g[side]) for side in ("base", "new")]
        paired = pairs(g["base"], g["new"])
        names = sorted(set.intersection(*(set(values(r)) for r in g["base"] + g["new"])))
        for name in names:
            m = scored.get(name, {})
            higher = m.get("better", "higher" if name in HIGHER_BETTER else "lower") == "higher"
            bound = m.get("bound")
            b = [values(x)[name] for x, _ in paired]
            n = [values(y)[name] for _, y in paired]
            sign = 1 if higher else -1
            wins = sum(1 for x, y in zip(b, n) if sign * (y - x) > 0)
            if len(hosts) > 1:
                v = "host mismatch"
            elif contended:
                v = "host contention"
            else:
                v = verdict(b, n, wins, len(paired), bound, higher)
                if v == "improved" and fails[1] > fails[0]:
                    v = "unresolved (more failures)"
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            fn = "/".join(f"{x:.4g}" for x in quartiles(n))
            label = workload + ("+trace" if trace else "")
            print(f"{label:12} {name:40} {fb:>32} {fn:>32} {wins:>3}/{len(paired):<2}  {v}")


if __name__ == "__main__":
    main(sys.argv)
