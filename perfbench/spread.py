#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads serve-f32,plan-64 --seeds 1-10

For every workload it prints, per metric of the contract line, the
median of the runs and the distance between the first and third
quartile as a share of the median (statistics.quantiles, n=4), next to
the metric's bound from BENCHMARK.json. --json writes the runs and the
summary to a file; --update-baseline records the medians of every named
metric, with the host fingerprint and source ref, as each workload's
baseline in perfbench/baseline.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def update_baseline(workload, runs, summary):
    path = "perfbench/baseline.json"
    base = json.load(open(path))
    named = {}
    for m in runs[0]["record"]["metrics"]:
        vals = [v["value"] for r in runs for v in r["record"]["metrics"] if v["name"] == m["name"]]
        named[m["name"]] = {"median": statistics.median(vals), "unit": m["unit"], "clock": m["clock"]}
    first = runs[0]["record"]
    base["workloads"][workload]["baseline"] = {
        "ref": first["ref"],
        "host": first["host"],
        "seconds": first["seconds"],
        "seeds": [r["seed"] for r in runs],
        "contract": {k: {"median": v["median"], "spread": v["spread"]} for k, v in summary.items()},
        "metrics": named,
    }
    with open(path, "w") as f:
        json.dump(base, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--update-baseline", action="store_true")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            line = json.loads(last)
            record = next(json.loads(l[len("record  "):]) for l in p.stdout.splitlines() if l.startswith("record  "))
            ok = ok and line["correct"]
            runs.append({"seed": s, "line": line, "record": record})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(line["metrics"].items()))
            print(f"{w} seed {s}: correct={line['correct']} {vals}", flush=True)
        summary = {}
        for name in sorted(runs[0]["line"]["metrics"]) if runs else []:
            vals = [r["line"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            summary[name] = {"median": med, "spread": spread, "bound": bounds.get(name)}
            b = bounds.get(name)
            flag = "" if b is None else ("  OK" if spread <= b / 3 else ("  within bound" if spread <= b else "  OVER BOUND"))
            print(f"{w:11s} {name:34s} median {med:12.5g}  spread {spread:7.3f}  bound {b}{flag}")
        report[w] = {"runs": runs, "summary": summary}
        if args.update_baseline and runs:
            update_baseline(w, runs, summary)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
