#!/usr/bin/env python3
"""Lists the library functions that no shipped binary keeps.

    python3 tools/reach.py BUILD_DIR

Configures the root project and benchmark/ in Debug (nothing inlined)
with -ffunction-sections and -Wl,--gc-sections, builds both into
BUILD_DIR/main and BUILD_DIR/benchmark, and compares the global functions
(nm type T) of every liblamp_*.a archive with the symbols left in the
shipped binaries: the tools, benches and examples of the root project
plus benchmark/'s lamp_benchmark. The linker drops every function no
binary can reach, so a function missing from all of them is code only
tests run.

Prints each unreached function per archive, marking the ones that
tools/reach_keep.txt keeps. That file holds one function per line, its
demangled signature exactly as printed here, then " # " and the reason it
stays. Lines starting with '#' are comments.

Exit code: 0 when every unreached function is kept; 1 when one is not, or
when a keep entry names a function that is reached or gone (the entry
outlived its reason); 2 on a failed build or a keep line without a
reason.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP_FILE = os.path.join(ROOT, "tools", "reach_keep.txt")
SHIPPED_DIRS = ("tools", "bench", "examples")
FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]


def build(source, build_dir):
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", source, "-B", build_dir] + FLAGS,
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"reach: failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def nm(path, extra):
    """(mangled name, nm type) of every defined symbol of path."""
    out = subprocess.run(["nm", "--defined-only", "-P"] + extra + [path],
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have no type field.
        if len(fields) >= 2 and not fields[0].endswith(":"):
            symbols.append((fields[0], fields[1]))
    return symbols


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return dict(zip(names, out.splitlines()))


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def shipped_binaries(build_dir):
    binaries = [os.path.join(build_dir, "benchmark", "lamp_benchmark")]
    for sub in SHIPPED_DIRS:
        d = os.path.join(build_dir, "main", sub)
        binaries += sorted(os.path.join(d, f) for f in os.listdir(d)
                           if is_elf_executable(os.path.join(d, f)))
    return binaries


def archives(build_dir):
    found = []
    for dirpath, _, files in os.walk(os.path.join(build_dir, "main", "src")):
        found += [os.path.join(dirpath, f) for f in files
                  if f.startswith("liblamp_") and f.endswith(".a")]
    return sorted(found, key=os.path.basename)


def load_keep():
    keep = {}
    with open(KEEP_FILE) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                print(f"reach: {KEEP_FILE}:{number}: no ' # reason'",
                      file=sys.stderr)
                sys.exit(2)
            keep[name.strip()] = reason.strip()
    return keep


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    build_dir = os.path.abspath(parser.parse_args().build_dir)

    build(ROOT, os.path.join(build_dir, "main"))
    build(os.path.join(ROOT, "benchmark"),
          os.path.join(build_dir, "benchmark"))

    binaries = shipped_binaries(build_dir)
    kept = set()
    for binary in binaries:
        kept.update(name for name, _ in nm(binary, []))

    keep = load_keep()
    libraries = archives(build_dir)
    total = 0
    unreached = {}
    for archive in libraries:
        functions = sorted({name for name, kind in nm(archive, ["-g"])
                            if kind == "T"})
        total += len(functions)
        missing = [name for name in functions if name not in kept]
        if missing:
            unreached[os.path.basename(archive)] = missing

    # A constructor or destructor has two mangled symbols (complete and
    # base object) with one demangled name; counts are of symbols, each
    # name is printed once.
    names = demangle([n for missing in unreached.values() for n in missing])
    count = sum(len(missing) for missing in unreached.values())
    new = sum(1 for missing in unreached.values() for n in missing
              if names[n] not in keep)
    listed = set()
    for archive, missing in unreached.items():
        print(f"{archive}:")
        for name in sorted({names[n] for n in missing}):
            listed.add(name)
            print(f"  {'kept' if name in keep else 'NEW ':<5} {name}")
    stale = sorted(set(keep) - listed)
    for name in stale:
        print(f"stale keep entry (reached or gone): {name}")
    print(f"\n{count} of {total} global functions in "
          f"{len(libraries)} archives are kept by none of "
          f"{len(binaries)} shipped binaries; {new} not in "
          f"{os.path.relpath(KEEP_FILE, ROOT)}, {len(stale)} stale entries")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
