#!/usr/bin/env python3
"""Where did round r's milliseconds go?

  python3 e2ebench/spans.py .bench_build/spans/vision_inproc-seed1.jsonl --round 45

Reads the span file a traced run writes (one JSON object per line:
id, parent, name, round, start_us, end_us, dur_us, thread, client) and
prints the round's layer spans in start order with each one's self
time (its duration minus the part of it its children cover), then the
round's time no layer span covers. Without --round it prints the mean
per-round wall time of each layer over the whole replay.
"""

import argparse
import json
from collections import defaultdict


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_time(span, children):
    kids = [(c["start_us"], c["end_us"]) for c in children.get(span["id"], [])]
    return span["dur_us"] - covered(kids, span["start_us"], span["end_us"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans")
    ap.add_argument("--round", type=int)
    args = ap.parse_args()
    with open(args.spans) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    roots = [s for s in spans if s["name"] == "round"]

    if args.round is None:
        per_layer = defaultdict(int)
        for s in spans:
            if s["round"] > 0 and s["name"] != "round" and \
                    s["name"] != "fl.client_update":
                per_layer[s["name"]] += s["dur_us"]
        n = max(1, len(roots))
        for name, us in sorted(per_layer.items(), key=lambda kv: -kv[1]):
            print(f"{name:20s} {us / n / 1e3:9.3f} ms/round")
        wall = sum(r["dur_us"] for r in roots)
        print(f"{'round (wall)':20s} {wall / n / 1e3:9.3f} ms/round")
        return

    root = next((r for r in roots if r["round"] == args.round), None)
    if root is None:
        raise SystemExit(f"no round {args.round} in {args.spans}")
    print(f"round {args.round}: {root['dur_us'] / 1e3:.3f} ms wall")
    for s in sorted(children[root["id"]], key=lambda s: s["start_us"]):
        kids = children.get(s["id"], [])
        extra = ""
        if kids:
            busy = sum(k["dur_us"] for k in kids)
            extra = (f"  [{len(kids)} {kids[0]['name']} spans, "
                     f"{busy / 1e3:.3f} ms busy on "
                     f"{len({k['thread'] for k in kids})} threads]")
        print(f"  {s['name']:18s} {s['dur_us'] / 1e3:8.3f} ms, self "
              f"{self_time(s, children) / 1e3:8.3f} ms{extra}")
    print(f"  {'(unattributed)':18s} {self_time(root, children) / 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
