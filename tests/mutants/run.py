"""Run the mutants in this directory: each must fail the tests it names.

A mutant is one file here (any ``*.py`` but this one) that defines

* ``SUBSTITUTIONS``: ``(path, old, new)`` text substitutions, paths
  relative to the repository root; ``old`` must occur exactly once in its
  file, so a mutant whose target moved fails loudly instead of running
  the unmutated code;
* ``KILLED_BY``: the pytest ids that must fail with it applied.

For each mutant the runner copies the working tree (``.git`` and caches
left out) to a temporary directory, applies the substitutions and runs
the named tests there; the mutant is *killed* if they fail, *survived*
if they pass, and *killed (timeout)* if they run past ``TIME_LIMIT``: a
mutant that makes the engine loop (a ``pnext`` cycle, say) has pytest's
process group killed, and the report names the test that was running.
The C kernel of a mutated ``_cycle_kernel.c`` compiles into its own
cache entry (the cache is keyed by the source's hash).

Usage: ``python tests/mutants/run.py [--show] [NAME ...]`` (all mutants
without names; ``--show`` prints the end of each pytest report).  Exit
status 0 when every mutant run was killed.  Not collected by pytest; a
nightly job, not tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               "*.egg-info", ".hypothesis")
#: Address space a mutant's test run may take: a mutant that makes the
#: engine allocate without bound (a source that never finds its interned
#: requests doubles them) dies of a MemoryError, killed, not the host.
MEMORY_CAP = 2 << 30
#: Seconds a mutant's test run may take (the slowest named tests take
#: about a minute on a mutant's first, compiling run).
TIME_LIMIT = 600


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def mutants():
    """``{name: module globals}`` of every mutant file, by name."""
    return {f[:-3]: runpy.run_path(os.path.join(HERE, f))
            for f in sorted(os.listdir(HERE))
            if f.endswith(".py") and f != "run.py"}


def apply(tree: str, substitutions) -> None:
    """Apply ``(path, old, new)`` substitutions under ``tree``."""
    for path, old, new in substitutions:
        full = os.path.join(tree, path)
        with open(full) as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the mutated text occurs "
                             f"{text.count(old)} times, not once")
        with open(full, "w") as fh:
            fh.write(text.replace(old, new))


def run_one(name: str, mutant: dict, show: bool = False) -> str:
    """``killed``, ``killed (timeout) in <test id>`` or ``SURVIVED``: how
    the mutant's named tests did on a mutated copy (``show``: print the
    end of pytest's report)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        apply(tree, mutant["SUBSTITUTIONS"])
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                   PYTHONUNBUFFERED="1")
        log = os.path.join(tmp, "pytest.log")
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-x", "-v", "-p",
                 "no:cacheprovider", *mutant["KILLED_BY"]],
                cwd=tree, env=env, stdout=out, stderr=subprocess.STDOUT,
                preexec_fn=_cap_memory, start_new_session=True)
            try:
                code = proc.wait(TIME_LIMIT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = None
        with open(log) as fh:
            report = fh.read()
    if code in (4, 5):      # no such test id / none collected
        raise SystemExit(f"{name}: pytest could not run its tests\n{report}")
    if show:
        print("\n".join(report.splitlines()[-12:]))
    if code is None:        # pytest -v names a test as it starts it
        running = re.findall(r"^(\S+::\S+)", report, re.M)
        return ("killed (timeout) in "
                + (running[-1] if running else "collection"))
    return "killed" if code else "SURVIVED"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default all)")
    ap.add_argument("--show", action="store_true",
                    help="print the end of each pytest report")
    args = ap.parse_args(argv)
    found = mutants()
    unknown = sorted(set(args.names) - set(found))
    if unknown:
        ap.error(f"unknown mutant(s) {unknown}; known: {sorted(found)}")
    survived = []
    for name in args.names or sorted(found):
        status = run_one(name, found[name], args.show)
        print(f"{name}: {status}", flush=True)
        if status == "SURVIVED":
            survived.append(name)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
