#!/usr/bin/env python3
"""Benchmark of the ``maxitive`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload small-k --seed 1 --seconds 20 --trace 0

The workload's input documents are generated from ``--seed`` (see
``workloads.py``) into ``bench/.work/<workload>/``. With ``--trace 0`` each
command of the workload runs as ``python -m maxitive ...`` in a fresh
process, one at a time (a closed loop with a single client), so interpreter
start and import count in every timing, as they do for a user. Every report
is checked against closed forms and against the other passes' output bytes.
With ``--trace 1`` the same commands run in this process through
``maxitive.cli.main(argv)``, once plainly and once with the per-layer
wrappers of ``layers.py``, and fresh processes measure import time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines list
each command's median time, peak memory and output sha256.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_REL = Path(HERE.name) / ".work"

SETUP_REPS = 3
WARMUP = ["residual", "times", "5", "3"]
IMPORT_PROBE_REPS = 3
RUN_DEADLINE_S = 170.0
# Seconds of one pass of each workload at the seed commit on a 2-core
# machine. A run makes as many whole passes as fit into --seconds at these
# times, and at least enough for MIN_SAMPLES commands, so the count depends
# on --seconds alone and two commits compared at the same --seconds measure
# the same number of command samples.
NOMINAL_PASS_S = {"small-k": 17.0, "large-k": 28.0, "monte-carlo": 9.0}
MIN_SAMPLES = 11  # cmd_tail_s needs ten samples beyond it


def passes_for(workload, seconds, least=1):
    return max(least, math.floor(seconds / NOMINAL_PASS_S[workload]))


def seeded(cmd):
    return "--seed" in cmd.argv


def child_env():
    """The caller's environment with the checkout's sources first on the path.

    Bytecode caching is switched back on, as it is for an installed package:
    the warm-up compiles the sources once and every timed command loads them.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv, out_path, err_path, env, timeout):
    """Run argv to completion; return (wall s, exit code, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def verify(cmd, rc, stdout, stderr):
    """Problems with one command's result; empty when it is correct."""
    if rc != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return [f"exit {rc}: {tail[0][:200]}"]
    try:
        rep = json.loads(stdout)
        problems = cmd.check(rep)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"report unreadable: {type(exc).__name__}: {exc}"]
    for path, check in cmd.files:
        try:
            problems += check(ROOT / path)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{path} unreadable: {exc}")
    return problems


class Outcomes:
    """Attempts, failures and output digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}  # command name -> sha256 of its first output

    def record(self, cmd, problems, stdout):
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        first = self.digests.setdefault(cmd.name, digest)
        if not problems and digest != first:
            problems = [f"output differs from the first run ({digest[:12]} vs {first[:12]})"]
        self.failed += bool(problems)
        self.failures += [f"{cmd.name}: {p}" for p in problems]


def setup(workload, seed, env):
    """Generate the inputs and warm up the interpreter, SETUP_REPS times.

    Returns the commands, the work directory and the time of each repetition.
    """
    work = ROOT / WORK_REL / workload
    times = []
    cmds = None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        cmds = workloads.generate(workload, seed, work, WORK_REL / workload)
        _, rc, _ = spawn(
            [sys.executable, "-m", "maxitive", *WARMUP],
            work / "warmup.out", work / "warmup.err", env, 60.0,
        )
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise SystemExit(f"warm-up command failed with exit {rc}")
    return cmds, work, times


def tail(samples):
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_SAMPLES:
        return ordered[-1], 100.0, n
    return ordered[n - MIN_SAMPLES], 100.0 * (n - MIN_SAMPLES + 1) / n, n


def end_to_end(args, deadline):
    env = child_env()
    outcomes = Outcomes()
    cmds, work, setup_times = setup(args.workload, args.seed, env)
    walls = {c.name: [] for c in cmds}
    rss = {c.name: 0.0 for c in cmds}

    def run(i, cmd):
        if time.monotonic() > deadline:
            outcomes.record(cmd, ["not run: the run deadline passed"], b"")
            return None
        out_path, err_path = work / f"out-{i}.json", work / f"out-{i}.err"
        wall, rc, peak = spawn(
            [sys.executable, "-m", "maxitive", *cmd.argv], out_path, err_path, env,
            deadline - time.monotonic(),
        )
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        outcomes.record(cmd, verify(cmd, rc, stdout, stderr), stdout)
        rss[cmd.name] = max(rss[cmd.name], peak)
        return wall

    passes = passes_for(args.workload, args.seconds, math.ceil(MIN_SAMPLES / len(cmds)))
    for _ in range(passes):
        for i, cmd in enumerate(cmds):
            wall = run(i, cmd)
            if wall is not None:
                walls[cmd.name].append(wall)
    # a seeded command must print the same bytes when repeated; one that ran
    # only once is repeated outside the timed passes
    for i, cmd in enumerate(cmds):
        if seeded(cmd) and len(walls[cmd.name]) == 1:
            run(i, cmd)
    samples = [w for ws in walls.values() for w in ws]
    tail_s, pct, n = tail(samples)
    for cmd in cmds:
        med = statistics.median(walls[cmd.name]) if walls[cmd.name] else math.nan
        print(f"{cmd.name:28s} median {med:8.4f} s"
              f"  peak {rss[cmd.name]:7.1f} MB  sha256 {outcomes.digests[cmd.name]}")
    print(f"passes {passes}; cmd_tail_s is p{pct:.1f} of {n} command samples")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # one pass as each command's median over the passes: robust to a
        # slow spell on a shared machine that would inflate a plain sum
        "pass_s": (sum(statistics.median(w) for w in walls.values() if w), "s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
    }
    return outcomes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _import_probe(env):
    """Wall time of `import maxitive.cli` in a fresh interpreter."""
    code = (
        "import time, sys; t = time.perf_counter(); import maxitive.cli; "
        "sys.stdout.write(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def _bare_probe(env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def _outermost(importtime_err, prefix):
    """Summed cumulative import time of the outermost modules named prefix*."""
    rows = []
    for line in importtime_err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        label = name[1:]
        rows.append((len(label) - len(label.lstrip()), label.strip(), int(cumulative)))
    # children precede their parent; walk backwards to see ancestors first
    total, stack = 0, []
    for depth, label, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(a == prefix or a.startswith(prefix + ".") for _, a in stack)
        if not inside and (label == prefix or label.startswith(prefix + ".")):
            total += cum
        stack.append((depth, label))
    return total / 1e6


def _importtime_probe(env):
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import maxitive.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return _outermost(out.stderr, "numpy"), _outermost(out.stderr, "scipy")


def import_metrics(env):
    bare = [_bare_probe(env) for _ in range(IMPORT_PROBE_REPS)]
    cli = [_import_probe(env) for _ in range(IMPORT_PROBE_REPS)]
    split = [_importtime_probe(env) for _ in range(IMPORT_PROBE_REPS)]
    return {
        "import.python_bare_s": {"value": statistics.median(bare), "unit": "s"},
        "import.maxitive_cli_s": {"value": statistics.median(cli), "unit": "s"},
        "import.numpy_s": {"value": statistics.median(s[0] for s in split), "unit": "s"},
        "import.scipy_s": {"value": statistics.median(s[1] for s in split), "unit": "s"},
    }


def _in_process(cli, argv):
    """Run cli.main(argv) here; return (wall s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            rc = f"raised {type(exc).__name__}"
            err.write(f"{type(exc).__name__}: {exc}\n")
    wall = time.perf_counter() - start
    return wall, rc, out.getvalue().encode(), err.getvalue().encode()


def traced(args, deadline):
    env = child_env()
    outcomes = Outcomes()
    cmds, work, _ = setup(args.workload, args.seed, env)
    metrics = import_metrics(env)

    sys.path.insert(0, str(SRC))
    import maxitive
    import maxitive.cli

    if Path(maxitive.__file__).resolve().parent != SRC / "maxitive":
        raise SystemExit(f"maxitive imported from {maxitive.__file__}, not {SRC}")
    passes = passes_for(args.workload, args.seconds)
    tracer = layers.Tracer()
    plain = 0.0
    done = 0
    # each command runs plainly and traced back to back; which goes first
    # alternates, so first-call costs do not all land on one side
    for p in range(passes):
        for i, cmd in enumerate(cmds):
            for mode in (("plain", "traced") if (i + p) % 2 == 0 else ("traced", "plain")):
                undo = layers.install(tracer) if mode == "traced" else []
                try:
                    wall, rc, stdout, stderr = _in_process(maxitive.cli, cmd.argv)
                finally:
                    layers.uninstall(undo)
                if mode == "plain":
                    plain += wall
                outcomes.record(cmd, verify(cmd, rc, stdout, stderr), stdout)
        done += 1
        if time.monotonic() > deadline:
            break
    metrics.update(layers.span_metrics(tracer, done))
    main_s = metrics["cli.main_s"]["value"]
    metrics["cli.main_untraced_s"] = {"value": plain / done, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": main_s - plain / done, "unit": "s"}

    by_module = layers.self_by_module(tracer)
    self_sum = sum(by_module.values()) / done
    print(f"passes {done}; spans {len(tracer.spans)}")
    print(f"self-time sum {self_sum:.4f} s vs cli.main_s {main_s:.4f} s; "
          f"untraced {plain / done:.4f} s; overhead {main_s - plain / done:+.4f} s")
    for module, own in by_module.most_common():
        print(f"  self {module:12s} {own / done:9.4f} s")
    with open(work / "spans.json", "w") as fh:
        json.dump({"passes": done, "spans": tracer.spans}, fh)
    return outcomes, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "maxitive" / "__main__.py").is_file():
        sys.stderr.write(f"no maxitive sources under {SRC}; run from a full checkout\n")
        return 2
    os.chdir(ROOT)
    outcomes, metrics = (traced if args.trace else end_to_end)(args, deadline)
    with open(ROOT / WORK_REL / args.workload / "digests.json", "w") as fh:
        json.dump(outcomes.digests, fh, indent=1, sort_keys=True)
    for failure in outcomes.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
