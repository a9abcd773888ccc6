"""Replay the seeded faults of ``seeded_faults.json``; fail unless each is caught.

    python .github/scripts/seeded_faults.py

Run from the repository root.  Each fault names a file under ``src`` or
``tests``, an exact snippet that occurs once in it, the snippet's
replacement and the pytest ids that must catch it.  The unpatched tree must
pass every named test first.  Then, for each fault, ``src`` and ``tests``
are copied to a new temporary directory, the one replacement is applied,
and only the fault's tests run there: the fault is caught when at least
one of them fails (pytest exit 1).  Any other outcome, a snippet that is
not found once, a pytest error or a run past ``TIMEOUT`` seconds (a fault
that loops forever), fails the run as well.  Hypothesis runs
without its shrink and explain phases, which only simplify a failing
example once it is found and can take minutes.

This is mutation analysis with hand-chosen mutants: each entry is a fault
that its tests must keep rejecting, so that a rewrite cannot silently take
that power away.  A change to a listed snippet updates its entry.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
FAULTS = Path(__file__).resolve().with_name("seeded_faults.json")
# Seconds for one pytest run; each fault takes a few seconds.
TIMEOUT = 300

# A pytest plugin, written into each copy, that stops Hypothesis at the
# first failing example.
PLUGIN = ("from hypothesis import Phase, settings\n"
          "settings.register_profile('seeded_faults', database=None,\n"
          "                          phases=[Phase.explicit, Phase.generate])\n"
          "settings.load_profile('seeded_faults')\n")


def run_tests(tree: Path, ids: list[str]) -> int | None:
    """pytest's exit code for ``ids`` in the copy at ``tree``, or None when
    it runs past ``TIMEOUT`` seconds and is killed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-p", "seeded_faults_plugin", *ids]
    try:
        return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def copy_tree(fault: dict | None = None):
    """A temporary directory holding ``src`` and ``tests``, with ``fault``
    applied when one is given."""
    directory = tempfile.TemporaryDirectory()
    tree = Path(directory.name)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    # python -m puts the working directory, the copy, on sys.path.
    (tree / "seeded_faults_plugin.py").write_text(PLUGIN, encoding="utf-8")
    if fault is not None:
        path = tree / fault["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(fault["snippet"]) != 1:
            directory.cleanup()
            raise ValueError(f"{fault['file']}: the snippet of {fault['fault']!r} "
                             "does not occur exactly once")
        path.write_text(text.replace(fault["snippet"], fault["replacement"]), encoding="utf-8")
    return directory


def main() -> int:
    faults = json.loads(FAULTS.read_text(encoding="utf-8"))
    named = sorted({test for fault in faults for test in fault["tests"]})
    start = time.perf_counter()
    with copy_tree() as tree:
        code = run_tests(Path(tree), named)
    print(f"unpatched: {len(named)} tests, "
          f"{'timed out' if code is None else f'pytest exit {code}'} "
          f"({time.perf_counter() - start:.1f} s)")
    failed = code != 0
    for fault in faults:
        start = time.perf_counter()
        try:
            with copy_tree(fault) as tree:
                code = run_tests(Path(tree), fault["tests"])
        except ValueError as exc:
            print(f"error: {exc}")
            failed = True
            continue
        verdict = ("caught" if code == 1 else "NOT CAUGHT (timed out)" if code is None
                   else f"NOT CAUGHT (pytest exit {code})")
        print(f"{verdict}: {fault['fault']} ({time.perf_counter() - start:.1f} s)")
        failed |= code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
