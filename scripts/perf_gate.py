#!/usr/bin/env python3
"""Perf gate: the benchmark of BENCHMARK.json, run as base/change pairs.

    python3 scripts/perf_gate.py [BASE]        # BASE defaults to HEAD~1

Builds the benchmark of BASE (a detached git worktree under mktemp -d) and of
the working tree into target/perf-gate/{base,change}, runs every workload in
PAIRS alternating pairs, and exits 1 when a run is not correct, the change
fails more of its operations, a `# exact` line moves, or an end-to-end median
is worse than the base's by more than its bound and outside the base's range.
A metric whose base runs alone spread wider than its bound is `unresolved`.
Each workload then runs once traced (`--trace 1`) on each side: the change's
traced run must be correct; the base's verdict is only printed.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# Alternating pairs per workload: a median and a range for each side. One
# suite takes about 93 s per side on a 2-core box, so the gate takes about
# 11 minutes including both builds, plus about 4 for the traced passes.
PAIRS = 3


def sh(cmd, cwd, target=None):
    env = {**os.environ, "CARGO_TARGET_DIR": target} if target else None
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        sys.exit(f"perf_gate: `{' '.join(cmd)}` in {cwd} exited with {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    return done.stdout.strip()


def verdict(metric, base, change):
    """(verdict, change of the median as a fraction of the base's)."""
    med, lo, hi = statistics.median(base), min(base), max(base)
    new = statistics.median(change)
    rel = new / med - 1 if med else 0.0
    worse = rel > metric["bound"] if metric["better"] == "lower" else -rel > metric["bound"]
    if med and (hi - lo) / med > metric["bound"]:
        return "unresolved", rel
    return ("REGRESSED" if worse and not lo <= new <= hi else "ok"), rel


def output_failures(name, runs):
    """Correctness, failed operations and `# exact` lines of one workload."""
    fails = [f"{name}: a {side} run is not correct"
             for side, rs in runs.items() for r, _ in rs if not r["correct"]]
    share = {side: max(r["failed"] / max(r["attempted"], 1) for r, _ in rs)
             for side, rs in runs.items()}
    if share["change"] > share["base"]:
        fails.append(f"{name}: the change fails {share['change']:.1%} of its operations, "
                     f"the base {share['base']:.1%}")
    exact = {side: sorted({str(e) for _, e in rs}) for side, rs in runs.items()}
    if exact["base"] != exact["change"] or len(exact["base"]) != 1 or exact["base"] == ["None"]:
        fails.append(f"{name}: `# exact` differs\n  base:   " + "\n          ".join(exact["base"])
                     + "\n  change: " + "\n          ".join(exact["change"]))
    return fails


def traced_verdict(name, side, out):
    """One line on a traced run, and whether it is correct."""
    result = json.loads(out[-1])
    retries = result["metrics"].get("comm.retries", {}).get("value")
    notes = [l for l in out if l.startswith("check failed: ")]
    line = (f"{name} traced {side}: {'correct' if result['correct'] else 'NOT correct'}"
            + ("" if retries is None else f", comm.retries {retries:g}")
            + "".join(f"\n  {n}" for n in notes))
    return line, result["correct"]


def main():
    base_rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD~1"
    root = sh(["git", "rev-parse", "--show-toplevel"], os.getcwd())
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    tmp = tempfile.mkdtemp(prefix="perf-gate-")
    trees = {"base": os.path.join(tmp, "base"), "change": root}
    targets = {side: os.path.join(root, "target", "perf-gate", side) for side in trees}
    args = ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
    failures, rows, exacts, traced = [], [], [], []
    try:
        sh(["git", "worktree", "add", "--detach", trees["base"], base_rev], root)
        for side in trees:
            print(f"perf_gate: building the benchmark of {side}", file=sys.stderr)
            sh(["cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", "benchmark/Cargo.toml"], trees[side], targets[side])
        for name in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for pair in range(PAIRS):
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    out = sh(spec["command"] + ["--workload", name] + args,
                             trees[side], targets[side]).splitlines()
                    result = json.loads(out[-1])
                    runs[side].append((result, next((l for l in out if l.startswith("# exact ")),
                                                    None)))
                    print(f"perf_gate: {name} pair {pair + 1}/{PAIRS} {side}: tts_s "
                          f"{result['metrics']['tts_s']['value']:.4g}", file=sys.stderr)
            failures += output_failures(name, runs)
            for side in ("base", "change"):
                out = sh(spec["command"] + ["--workload", name, "--seconds",
                                            str(spec["run_seconds"]), "--trace", "1"],
                         trees[side], targets[side]).splitlines()
                line, correct = traced_verdict(name, side, out)
                print(f"perf_gate: {line}", file=sys.stderr)
                traced.append(line)
                if side == "change" and not correct:
                    failures.append(f"{name}: the change's traced run is not correct")
            exacts.append(f"{name} {runs['change'][0][1]}")
            for m in spec["end_to_end"]:
                vals = {side: [r["metrics"][m["name"]]["value"] for r, _ in rs]
                        for side, rs in runs.items()}
                v, rel = verdict(m, vals["base"], vals["change"])
                if v == "REGRESSED":
                    failures.append(f"{name}: {m['name']} regressed {rel:+.1%} "
                                    f"(bound {m['bound']:.0%})")
                cells = [f"{statistics.median(x):.4g} [{min(x):.4g}–{max(x):.4g}]"
                         for x in (vals["base"], vals["change"])]
                rows.append(f"| {name} | {m['name']} | {cells[0]} | {cells[1]} | {rel:+.1%} "
                            f"| {m['bound']:.0%} | {v} |")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", trees["base"]], cwd=root,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)

    base_sha = sh(["git", "rev-parse", "--short", base_rev], root)
    print(f"perf gate: {PAIRS} alternating pairs per workload, {base_rev} ({base_sha}) "
          "against the working tree; medians [min–max]\n")
    print("| workload | metric | base | change | Δ | bound | verdict |\n|---|---|---|---|---|---|---|")
    print("\n".join(rows) + "\n\nchange, first run:\n" + "\n".join(exacts) + "\n")
    print("traced passes (the base's verdict is informational):\n" + "\n".join(traced) + "\n")
    for f in failures:
        print(f"perf_gate: FAIL {f}")
    print("perf_gate: failed" if failures else "perf_gate: passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
