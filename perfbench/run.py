"""pcring benchmark: time to a verified report, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the CLI under test is the checkout's
``src/pcring``, started as a fresh interpreter per call.  One client runs a
closed loop: it sends the next CLI call only after the previous one exits.

``--trace 0`` measures set-up time (median of several trivial calls), then
repeats passes over the workload's calls for about ``--seconds`` seconds and
reports medians over passes.  ``--trace 1`` runs one untraced pass, then the
same documents in-process with every traced pcring function wrapped, and
reports per-layer self times and counts; the spans go to
``.perfbench_out/``.  Every call's output is checked by ``check.py``.  The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import check
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

CLI = "import sys; from pcring.cli import main; sys.exit(main())"
SETUP_CALLS = 9
CALL_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0       # the whole run must end well within 180 s

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "max_report_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        print(f"FAIL: {reason}", file=sys.stderr)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int | None          # None: killed at its timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    wall_s: float = 0.0
    max_report_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)


def run_child(argv: tuple[str, ...], workdir: Path, timeout: float) -> Child:
    """Run one CLI call; rusage comes from this child alone via wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)

        def kill():
            # os.kill, not proc.kill: Popen would waitpid and steal the rusage.
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): take the child down too.
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        code=None if state["killed"] else proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def call(inv: gen.Invocation, workdir: Path, clock: Clock, tally: Tally) -> Child:
    """One checked CLI call; failures are tallied per instance."""
    child = run_child(inv.argv, workdir, min(CALL_TIMEOUT_S, clock.remaining()))
    count = len(inv.instances)
    tally.attempted += count
    if child.code is None:
        tally.fail(count, f"{inv.name}: timed out")
        return child
    if child.code != 0:
        tail = child.stderr.decode(errors="replace")[-400:]
        tally.fail(count, f"{inv.name}: exit {child.code} {tail}")
        return child
    digest = hashlib.sha256(child.stdout).hexdigest()
    if tally.digests.setdefault(inv.name, digest) != digest:
        tally.fail(count, f"{inv.name}: stdout differs across repeats")
        return child
    try:
        doc = json.loads(child.stdout)
    except ValueError as exc:
        tally.fail(count, f"{inv.name}: stdout is not JSON ({exc})")
        return child
    for errors in check.check_output(inv, doc):
        if errors:
            tally.fail(1, "; ".join(errors))
    return child


def run_pass(invocations: list[gen.Invocation], workdir: Path, clock: Clock,
             tally: Tally) -> Pass:
    result = Pass()
    for inv in invocations:
        child = call(inv, workdir, clock, tally)
        result.wall_s += child.wall_s
        result.max_report_s = max(result.max_report_s, child.wall_s)
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        result.cpu_s += child.cpu_s
    return result


def measure_setup(workdir: Path, clock: Clock, tally: Tally) -> float:
    """Median wall time of trivial calls, after one warm-up call."""
    inv = gen.setup_invocation()
    call(inv, workdir, clock, tally)
    return statistics.median(call(inv, workdir, clock, tally).wall_s for _ in range(SETUP_CALLS))


def traced_pass(invocations: list[gen.Invocation], tally: Tally) -> tuple[tracing.Tracer, dict]:
    """Drive parse_input -> run -> render in-process with spans on; each
    rendered report must match the untraced CLI stdout byte for byte."""
    sys.path.insert(0, str(SRC))
    import pcring
    import pcring.cli

    tracer = tracing.Tracer()
    tracer.install(pcring)
    stats = {"report_bytes": 0, "idempotents_emitted": 0}
    try:
        for inv in invocations:
            tracer.instance = inv.name
            with tracer.span("cli.run"):
                doc = _traced_document(pcring, inv, tracer)
                with tracer.span("cli.render"):
                    text = json.dumps(doc, indent=2) + "\n"
            reports = [e["report"] for e in doc["batch"]] if inv.batch else [doc]
            stats["idempotents_emitted"] += sum(len(r.get("idempotents", ())) for r in reports)
            stats["report_bytes"] += len(text.encode())
            tally.attempted += len(inv.instances)
            if hashlib.sha256(text.encode()).hexdigest() != tally.digests.get(inv.name):
                tally.fail(len(inv.instances), f"{inv.name}: in-process report differs from CLI")
    finally:
        tracer.uninstall()
    return tracer, stats


def _traced_document(pcring, inv: gen.Invocation, tracer: tracing.Tracer) -> dict:
    cli = pcring.cli
    flags = {"verify": inv.verify, "emit_idempotents": inv.emit, "emit_nilradical": inv.emit}
    if inv.argv[0] == "example":
        request = cli.AnalysisRequest(instance=pcring.instances.uq_sl2(int(inv.argv[3])), **flags)
        return cli.run(request)[0]
    paths = ([Path(inv.argv[1]) / f"{inst.name}.json" for inst in inv.instances]
             if inv.batch else [Path(inv.argv[1])])
    docs = []
    for inst, path in zip(inv.instances, paths):
        tracer.instance = inst.name
        with tracer.span("cli.parse_input"):
            request = cli.parse_input(path.read_text())
        docs.append(cli.run(replace(request, **flags))[0])
    if inv.batch:
        return {"batch": [{"file": p.name, "report": d} for p, d in zip(paths, docs)]}
    return docs[0]


def layer_metrics(tracer: tracing.Tracer, stats: dict, untraced: Pass, setup_s: float,
                  calls: int) -> tuple[dict, bool]:
    summary = tracer.summary()
    counts = tracer.counts

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def n_calls(name):
        return summary.get(name, {}).get("calls", 0)

    run_s = summary["cli.run"]["total_s"]
    built = counts["spectral.idempotents_built"]
    values = {
        "cli.run_s": (run_s, "s"),
        "cli.run_self_s": (self_s("cli.run"), "s"),
        "cli.parse_input_s": (self_s("cli.parse_input"), "s"),
        "cli.render_s": (self_s("cli.render"), "s"),
        "cli.report_bytes": (stats["report_bytes"], "B"),
        "cli.cpu_s": (untraced.cpu_s, "s"),
        "pair_ring.mul_calls": (n_calls("pair_ring.mul"), "count"),
        "pair_ring.mul_s": (self_s("pair_ring.mul"), "s"),
        "groups.fourier_s": (self_s("groups.fourier"), "s"),
        "cyclotomics.mul_calls": (counts["cyclotomics.mul_calls"], "count"),
        "cyclotomics.inverse_calls": (n_calls("cyclotomics.inverse"), "count"),
        "cyclotomics.inverse_s": (self_s("cyclotomics.inverse"), "s"),
        "spectral.spectral_report_s": (self_s("spectral.spectral_report"), "s"),
        "spectral.idempotents_built": (built, "count"),
        "spectral.idempotents_emitted_ratio": (
            stats["idempotents_emitted"] / built if built else 0.0, "ratio"),
        "spectral.to_json_s": (self_s("spectral.to_json"), "s"),
        "oracle.build_table_s": (self_s("oracle.build_table"), "s"),
        "oracle.table_mb": (counts["oracle.table_bytes"] / 2**20, "MB"),
        "oracle.is_associative_s": (self_s("oracle.is_associative"), "s"),
        "oracle.triples": (counts["oracle.triples"], "count"),
        "oracle.matches_pair_ring_s": (self_s("oracle.matches_pair_ring"), "s"),
        "oracle.radical_s": (self_s("oracle.radical"), "s"),
        "linalg.kernel_basis_s": (self_s("linalg.kernel_basis"), "s"),
        "oracle.radical_matches_spectral_s": (self_s("oracle.radical_matches_spectral"), "s"),
        "linalg.rref_calls": (n_calls("linalg.rref"), "count"),
        "linalg.rref_s": (self_s("linalg.rref"), "s"),
        "linalg.in_row_span_calls": (n_calls("linalg.in_row_span"), "count"),
        "linalg.in_row_span_s": (self_s("linalg.in_row_span"), "s"),
        "trace.overhead_ratio": (run_s / max(untraced.wall_s - setup_s * calls, 1e-9), "ratio"),
    }
    # Self times partition the root spans exactly; anything else is a tracer bug.
    self_total = sum(entry["self_s"] for entry in summary.values())
    consistent = abs(self_total - run_s) <= 1e-6 * max(run_s, 1.0)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, consistent


def bench(args: argparse.Namespace, workdir: Path) -> dict:
    clock = Clock()
    tally = Tally()
    invocations = gen.generate(args.workload, args.seed, workdir / "inputs")
    setup_s = measure_setup(workdir, clock, tally)

    if args.trace:
        untraced = run_pass(invocations, workdir, clock, tally)
        tracer, stats = traced_pass(invocations, tally)
        metrics, consistent = layer_metrics(tracer, stats, untraced, setup_s, len(invocations))
        sidecar = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(sidecar, {"workload": args.workload, "seed": args.seed,
                              "summary": tracer.summary()})
        print(f"spans: {len(tracer.spans)} written to {sidecar.relative_to(ROOT)}")
        if not consistent:
            tally.fail(0, "self times do not sum to cli.run_s")
    else:
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(invocations, workdir, clock, tally))
            now = time.perf_counter()
            # Start another pass only if it should end within --seconds.
            last = now - pass_start
            if now - start + last > args.seconds or clock.remaining() < 2 * last:
                break
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_s for p in passes),
            "max_report_s": statistics.median(p.max_report_s for p in passes),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        print(f"passes: {len(passes)}, pass wall_s: "
              + ", ".join(f"{p.wall_s:.3f}" for p in passes))
        consistent = True

    for name, metric in metrics.items():
        print(f"{args.workload:18s} {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:18s} {'failed_ratio':36s} {tally.failed / tally.attempted:>14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted})")
    return {"correct": tally.failed == 0 and consistent, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="pcring benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "pcring" / "cli.py").is_file():
        print(f"error: no pcring sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
