#!/usr/bin/env python3
"""Fixture tests for tools/mcd_lint.py.

Copies tests/lint_fixtures/clean/ (a miniature repo that passes every
rule) into a temp directory, applies one named mutation per case —
each re-introducing a violation class from this repo's history — and
compares the lint's full stdout against the golden file in
tests/lint_fixtures/expected/<case>.txt, plus the exit code.

Run directly (python3 tools/test_mcd_lint.py) or via CTest as
`LintFixtures`.  Pass --update-golden to regenerate the expected
files after a deliberate message change.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "tools" / "mcd_lint.py"
CLEAN = ROOT / "tests" / "lint_fixtures" / "clean"
EXPECTED = ROOT / "tests" / "lint_fixtures" / "expected"

# case name -> list of (relative file, old text, new text).  Every
# `old` must occur in the fixture exactly as written; the driver
# fails loudly if a fixture edit breaks a mutation.
CASES = {
    # The tree as committed: no findings, exit 0.
    "clean": [],
    # PR 2's bug class: a knob silently leaves the fingerprint.
    # Expect fingerprint-complete (the field is no longer hashed and
    # has no annotation) plus cache-version-pin (the hash-call list
    # changed under an unchanged CACHE_VERSION).
    "drop-fingerprint-field": [
        ("src/exp/experiment.cc",
         "    f.u64(s.jitterSeed);\n", ""),
    ],
    # A version bump whose pin update was forgotten.
    "stale-version-pin": [
        ("src/exp/experiment.cc",
         "constexpr int CACHE_VERSION = 5;",
         "constexpr int CACHE_VERSION = 6;"),
    ],
    # PR 9's bug class, sampling flavor: a sampling knob shapes
    # sampled outcomes but leaves the fingerprint, so cached exact
    # and sampled rows could trade places.
    "sampling-knob-unfingerprinted": [
        ("src/exp/experiment.cc",
         "    f.f64(sp.ciBiasPct);\n", ""),
    ],
    # PR 3's bug class: the registrar macro disappears.
    "missing-register-macro": [
        ("src/control/policies/toy.cc",
         "MCD_REGISTER_POLICY(ToyPolicy);\n", ""),
    ],
    # ...or the file falls out of the OBJECT library (the linker
    # would silently drop its static registrar).
    "missing-cmake-entry": [
        ("src/workload/CMakeLists.txt",
         "    workloads/toy.cc\n", ""),
    ],
    # PR 8's bug class, chip flavor: an uncore knob leaves the
    # fingerprint while chip cache keys still depend on it.
    "chip-knob-unfingerprinted": [
        ("src/exp/experiment.cc",
         "    f.f64(ch.uncoreMaxMhz);\n", ""),
    ],
    # ...and the chip coordinator falls out of its OBJECT library.
    "chip-missing-cmake-entry": [
        ("src/chip/CMakeLists.txt",
         "    policies/toy_coord.cc\n", ""),
    ],
    # Raw rand() on a wire path.
    "raw-rand": [
        ("src/srv/proto.cc",
         "    std::string out = \"ROW \" + key;",
         "    std::string out = \"ROW \" + key;\n"
         "    int jitter = rand();\n"
         "    (void)jitter;"),
    ],
    # PR 2/PR 6's bug class: ad-hoc stream precision on a cache path.
    "locale-unsafe-double": [
        ("src/exp/experiment.cc",
         "    std::string line = key;",
         "    std::ostringstream os;\n"
         "    os.precision(17);\n"
         "    std::string line = key;"),
    ],
    # A rule whose doc section went missing.
    "undocumented-rule": [
        ("docs/LINTING.md",
         "## `determinism`\n", "### determinism (demoted)\n"),
    ],
}


def run_case(name, mutations, update):
    with tempfile.TemporaryDirectory(prefix="mcd_lint_fix_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(CLEAN, tree)
        for rel, old, new in mutations:
            path = tree / rel
            text = path.read_text(encoding="utf-8")
            if old not in text:
                print("%s: mutation text not found in %s:\n%r"
                      % (name, rel, old), file=sys.stderr)
                return False
            path.write_text(text.replace(old, new, 1),
                            encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(LINT), "--root", str(tree),
             "--check-all"],
            capture_output=True, text=True)
        golden_path = EXPECTED / (name + ".txt")
        if update:
            golden_path.write_text(proc.stdout, encoding="utf-8")
            print("updated %s" % golden_path.relative_to(ROOT))
            return True
        ok = True
        want_exit = 0 if not mutations else 1
        if proc.returncode != want_exit:
            print("%s: exit %d, want %d\nstderr: %s"
                  % (name, proc.returncode, want_exit, proc.stderr),
                  file=sys.stderr)
            ok = False
        golden = golden_path.read_text(encoding="utf-8") \
            if golden_path.is_file() else "<missing golden file>"
        if proc.stdout != golden:
            print("%s: findings differ from %s\n--- got ---\n%s"
                  "--- want ---\n%s"
                  % (name, golden_path.relative_to(ROOT),
                     proc.stdout, golden), file=sys.stderr)
            ok = False
        if ok:
            print("%s: ok" % name)
        return ok


def main(argv):
    update = "--update-golden" in argv
    EXPECTED.mkdir(parents=True, exist_ok=True)
    failures = [name for name, muts in sorted(CASES.items())
                if not run_case(name, muts, update)]
    if failures:
        print("FAILED: %s" % ", ".join(failures), file=sys.stderr)
        return 1
    print("%d lint fixture case(s) pass" % len(CASES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
