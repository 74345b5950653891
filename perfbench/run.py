#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload tenant-mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call compiles the simulator
libraries and perfbench/main.exe with dune (build log on stderr); the
arguments pass through to main.exe, whose exit status this returns.
"""

import os
import shutil
import subprocess
import sys


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    return dune


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: no dune-project here; run from the repository root", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", root, "./perfbench/main.exe"], stdout=sys.stderr, env=env
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
