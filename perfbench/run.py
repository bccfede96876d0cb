"""Benchmark of the dnacipher CLI.

    python3 perfbench/run.py --workload cipher-bulk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload kpa-break --trace 1     # per-layer run
    python3 perfbench/run.py --smoke                             # tiny sizes, self-test
    python3 perfbench/run.py --table                             # ROADMAP table, 512x512

With `--trace 0` each command of the workload runs as its own process, one
at a time (a closed loop with one client), and the end-to-end metrics are
printed.  With `--trace 1` the layers are called in-process and timed from
outside.  The last line of stdout is one JSON object; the exit code is 1
when an output check fails and 2 when the checkout holds no program.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
DEFAULT_SEED = 0  # the seed whose output bytes are pinned in pins.json
SETUP_SAMPLES = 7  # fewest import timings behind setup_s
MIN_COMMANDS = 11  # fewest timed commands, so cmd_tail_s has ten samples beyond it


def fail_setup(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail_setup(f"cannot read BENCHMARK.json: {err}")


if not (SRC / "dnacipher" / "cli.py").is_file():
    fail_setup(f"no dnacipher sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dnacipher  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

if Path(dnacipher.__file__).resolve().parent != SRC / "dnacipher":
    fail_setup(f"imported dnacipher from {dnacipher.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def provenance(workload: str, seed: int, inputs: dict[str, str]) -> dict:
    src = sorted((SRC / "dnacipher").glob("*.py"))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without .git; src_sha256 still names the code
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": wl.sha256(b"".join(p.name.encode() + p.read_bytes() for p in src)),
        "inputs_sha256": inputs,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  With fewer than eleven samples, the max."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (len(s) - 10) / len(s), 10


def import_time(env: dict[str, str], workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports dnacipher.cli and exits."""
    code, wall, _, stderr = wl.spawn([sys.executable, "-c", "import dnacipher.cli"], env, workdir)
    if code != 0:
        raise RuntimeError(f"import dnacipher.cli failed: {stderr.strip()}")
    return wall


def run_commands(workload: wl.Workload, gate: wl.Gate, seconds: float,
                 env: dict[str, str]) -> tuple[list[wl.Outcome], list[float], list[float], float]:
    """Closed loop, one client: whole cycles until `seconds` have passed,
    every distinct cycle at least once and at least MIN_COMMANDS commands.
    Returns the outcomes, the cycle wall times, the import times and the
    loop's elapsed wall time.

    One import is timed before each cycle rather than all in a burst, so
    `setup_s` sees the same stretch of machine time as the commands.
    """
    outcomes, cycle_walls, imports = [], [], []
    start = time.perf_counter()
    i = 0
    while (i < len(workload.cycles) or len(outcomes) < MIN_COMMANDS
           or time.perf_counter() - start < seconds):
        imports.append(import_time(env, gate.workdir))
        done = [wl.run_command(c, gate, sys.executable, env)
                for c in workload.cycles[i % len(workload.cycles)]]
        outcomes += done
        cycle_walls.append(sum(o.wall_s for o in done))
        i += 1
    elapsed = time.perf_counter() - start
    while len(imports) < SETUP_SAMPLES:
        imports.append(import_time(env, gate.workdir))
    return outcomes, cycle_walls, imports, elapsed


def end_to_end(name: str, seed: int, seconds: float, sizes: wl.Sizes, workdir: Path,
               pins: dict[str, str]) -> tuple[dict, wl.Workload, list[wl.Outcome], wl.Gate, list[str]]:
    """Runs one workload; returns (metrics, workload, outcomes, gate,
    printed lines)."""
    env = child_env()
    import_time(env, workdir)  # unmeasured: byte-compilation is not set-up time
    workload = wl.WORKLOADS[name](workdir, seed, sizes)
    gate = wl.Gate(workdir, dict(pins))
    outcomes, cycle_walls, setup, elapsed = run_commands(workload, gate, seconds, env)

    walls = [o.wall_s for o in outcomes]
    tail_s, tail_pct, beyond = tail(walls)
    failed = [o for o in outcomes if o.error]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cycle_p50_s": (statistics.median(cycle_walls), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "throughput_mpix_s": (sum(o.mpix for o in outcomes) / elapsed, "Mpix/s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) * 1024 / 1e6, "MB"),
    }
    lines = [f"workload={name} seed={seed} image={workload.image} cycles={len(cycle_walls)} "
             f"commands={len(outcomes)} elapsed_s={elapsed:.3f}"]
    for kind in dict.fromkeys(o.kind for o in outcomes):
        kind_walls = [o.wall_s for o in outcomes if o.kind == kind]
        lines.append(f"{kind}_p50_s={statistics.median(kind_walls):.4f} s (n={len(kind_walls)})")
    trials = sum(o.trials for o in outcomes)
    if trials:
        lines.append(f"trials_per_s={trials / elapsed:.1f} 1/s ({trials} trials)")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "cmd_tail_s":
            note = f" (p{tail_pct:.0f} of n={len(walls)}, {beyond} beyond)"
        elif key == "setup_s":
            note = f" (median of {len(setup)} fresh imports of dnacipher.cli, one per cycle)"
        lines.append(f"{key}={value:.4f} {unit}{note}")
    lines.append(f"failed_frac={len(failed) / len(outcomes):.4f} ({len(failed)}/{len(outcomes)})")
    lines += [f"FAILED {o.error}" for o in failed]
    lines.append("provenance=" + json.dumps(provenance(name, seed, workload.inputs), sort_keys=True))
    return metrics, workload, outcomes, gate, lines


def summary_rows(m: dict[str, float], n: int) -> list[str]:
    """Where encrypt and attack spend their time, and the ROADMAP table."""
    encrypt_ms = m["keystream.z_ms"] + m["keystream.t_ms"] + m["cipher.encrypt_tables_ms"]
    ppm_share = (m["ppm.read_ms"] + m["ppm.write_ms"]) / encrypt_ms
    return [
        f"stages 2-3 take {m['attack.stage23_frac']:.0%} of recover_equivalent_key; "
        f"the orbit takes {m['keystream.encrypt_frac']:.0%} of encrypt",
        f"ppm read+write is {ppm_share:.2%} of encrypt at {n}x{n}"
        + (": a PPM-only change cannot show end to end" if ppm_share < 0.01 else ""),
        *layers.table_rows(m, n),
    ]


def traced(name: str, seed: int, seconds: float, sizes: wl.Sizes,
           workdir: Path) -> tuple[dict, layers.TracedRun, list[str]]:
    run = layers.TracedRun(name, workdir, seed, sizes, sys.executable, child_env())
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        run.round()
        rounds += 1
    m = run.finish()
    metrics = {k: (m[k], unit) for k, unit in layers.UNITS.items() if k in m}
    lines = [f"traced workload={name} seed={seed} image={run.n}x{run.n} rounds={rounds} "
             f"(medians over rounds; spans timed from outside each call)"]
    for key, (value, unit) in metrics.items():
        note = " (derived: recover_equivalent_key - split - stages 1-3)" if key == "attack.stage4_ms" else ""
        lines.append(f"{key}={value:.6g} {unit}{note}")
    lines += [f"FAILED {e}" for e in run.errors]
    if not run.errors:
        lines += summary_rows(m, run.n)
    lines.append("provenance=" + json.dumps(provenance(name, seed, {}), sort_keys=True))
    return metrics, run, lines


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def load_pins(kind: str, workload: str, seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(PINS.read_text())[kind].get(workload, {})


def smoke(spec: dict, workdir: Path, record: bool) -> int:
    """Every workload and the traced run at tiny sizes: metric names must
    match BENCHMARK.json, pinned outputs must match, and the gate must trip
    on each corrupted output and on a wrong exit code.  With `record`, the
    output sha256 values are printed instead of checked."""
    problems = []
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in wl.WORKLOADS:
        d = workdir / name
        d.mkdir()
        pins = {} if record else load_pins("smoke", name, DEFAULT_SEED)
        metrics, workload, outcomes, gate, _ = end_to_end(name, DEFAULT_SEED, 0, wl.SMOKE, d, pins)
        if record:
            print(json.dumps({name: gate.expected}, indent=2, sort_keys=True))
        problems += [f"{name}: {o.error}" for o in outcomes if o.error]
        if list(metrics) != e2e_names:
            problems.append(f"{name}: end-to-end names {list(metrics)} != {e2e_names}")
        for cmd, outcome in zip(workload.cycles[0], outcomes):
            if gate.judge(cmd, cmd.expect_code + 1, outcome.stderr) is None:
                problems.append(f"{name}: gate passed {cmd.kind} with a wrong exit code")
            for out in cmd.outputs:
                path = d / out
                good = path.read_bytes()
                path.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
                if gate.judge(cmd, cmd.expect_code, outcome.stderr) is None:
                    problems.append(f"{name}: gate passed a corrupted {out}")
                path.write_bytes(good)
        t = d / "traced"
        t.mkdir()
        metrics, run, _ = traced(name, DEFAULT_SEED, 0, wl.SMOKE, t)
        problems += [f"{name} traced: {e}" for e in run.errors]
        if list(metrics) != layer_names:
            problems.append(f"{name}: per-layer names {list(metrics)} != {layer_names}")
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    parser.add_argument("--table", action="store_true",
                        help="print the ROADMAP baseline table (512x512 layer and attack split)")
    parser.add_argument("--record-pins", action="store_true",
                        help="print the output sha256 values of this run instead of checking pins")
    args = parser.parse_args()
    if not (args.smoke or args.table or args.workload):
        parser.error("one of --workload, --smoke or --table is required")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.smoke:
            return smoke(spec, workdir, args.record_pins)
        if args.table:
            _, run, lines = traced("cipher-bulk", args.seed, args.seconds,
                                   wl.Sizes(image=512, small=64, trials=200), workdir)
            print("\n".join(lines))
            return 1 if run.errors else 0
        if args.trace:
            metrics, run, lines = traced(args.workload, args.seed, args.seconds, wl.FULL, workdir)
            print("\n".join(lines))
            print(result(not run.errors, run.attempted, len(run.errors), metrics))
            return 1 if run.errors else 0
        pins = {} if args.record_pins else load_pins("full", args.workload, args.seed)
        metrics, _, outcomes, gate, lines = end_to_end(
            args.workload, args.seed, args.seconds, wl.FULL, workdir, pins)
        print("\n".join(lines))
        if args.record_pins:
            print(json.dumps({args.workload: gate.expected}, indent=2, sort_keys=True))
        failed = sum(1 for o in outcomes if o.error)
        print(result(failed == 0, len(outcomes), failed, metrics))
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
