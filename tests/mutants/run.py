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
if they pass.  The C kernel of a mutated ``_cycle_kernel.c`` compiles
into its own cache entry (the cache is keyed by the source's hash).

Usage: ``python tests/mutants/run.py [--show] [NAME ...]`` (all mutants
without names; ``--show`` prints the end of each pytest report).  Exit
status 0 when every mutant run was killed.  Not collected by pytest; a
nightly job, not tier-1.
"""

from __future__ import annotations

import argparse
import os
import resource
import runpy
import shutil
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


def run_one(name: str, mutant: dict, show: bool = False) -> bool:
    """Whether the mutant's named tests fail on a mutated copy (``show``:
    print the end of pytest's report)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        apply(tree, mutant["SUBSTITUTIONS"])
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant["KILLED_BY"]],
            cwd=tree, env=env, capture_output=True, text=True,
            preexec_fn=_cap_memory)
    if proc.returncode in (4, 5):       # no such test id / none collected
        raise SystemExit(f"{name}: pytest could not run its tests\n"
                         f"{proc.stdout}{proc.stderr}")
    if show:
        print("\n".join((proc.stdout + proc.stderr).splitlines()[-12:]))
    return proc.returncode != 0


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
        killed = run_one(name, found[name], args.show)
        print(f"{name}: {'killed' if killed else 'SURVIVED'}", flush=True)
        if not killed:
            survived.append(name)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
