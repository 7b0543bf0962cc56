#!/usr/bin/env python3
"""Sample a program's counter and print where its time goes.

Usage:

    python3 tools/profile/profile.py [--lib LIB] [--min-inside F] BINARY ARGS...

Runs BINARY ARGS... with the sampler preload (sampler.cc, built as the
gdisim_sampler CMake target) in LD_PRELOAD, then symbolizes the samples with
`addr2line -f -i -C` and prints the sample count, the share of samples
outside the executable (shared libraries, the kernel's vDSO), and the top
functions and source lines. "outermost" is the function a sample's address
belongs to in the symbol table; "inlined" is the innermost function inlined
at that address; "caller" is the outermost function one frame-pointer hop
up. Source lines need a build with debug info and frame pointers, e.g.

    cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release \\
        -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer"

(Release already compiles with -O3). Exits with the program's status when it
fails, and 1 when fewer than --min-inside of the samples fall inside the
executable.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_LIB = HERE.parent.parent / "build" / "tools" / "libgdisim_sampler.so"
PERIOD_US = 50  # sampler.cc's timer period
TOP = 15  # rows per table


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--lib", default=str(DEFAULT_LIB), help="sampler preload library")
    p.add_argument("--min-inside", type=float, default=0.0,
                   help="fail unless this share of samples is inside the executable")
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if args.command and args.command[0] == "--":
        args.command = args.command[1:]
    if not args.command:
        p.error("missing BINARY")
    return args


def exe_mappings(maps_text, exe):
    """(start, end, file offset) of every mapping of `exe`."""
    real = os.path.realpath(exe)
    out = []
    for line in maps_text.splitlines():
        fields = line.split()
        if len(fields) >= 6 and os.path.realpath(fields[5]) == real:
            start, end = (int(x, 16) for x in fields[0].split("-"))
            out.append((start, end, int(fields[2], 16)))
    return out


def is_pie(exe):
    with open(exe, "rb") as f:
        header = f.read(18)
    return struct.unpack_from("<H", header, 16)[0] == 3  # ET_DYN


def to_elf_address(addr, mappings, pie):
    """The ELF virtual address addr2line expects, or None outside `exe`."""
    for start, end, offset in mappings:
        if start <= addr < end:
            return addr - start + offset if pie else addr
    return None


def symbolize(exe, addresses):
    """addr -> list of (function, file:line), innermost inline frame first."""
    if not addresses:
        return {}
    ordered = sorted(addresses)
    r = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                       input="".join(f"{a:#x}\n" for a in ordered),
                       capture_output=True, text=True, check=True)
    frames = {}
    current = None
    lines = r.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        frames[current].append((lines[i], where.split(" (discriminator")[0]))
        i += 2
    return frames


def table(title, counter, total):
    print(f"\n{title}")
    for name, n in counter.most_common(TOP):
        print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {name}")


def main():
    args = parse_args()
    exe = args.command[0]
    if not os.path.isfile(args.lib):
        sys.exit(f"profile: no sampler library at {args.lib} (build the gdisim_sampler target)")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "samples")
        env = dict(os.environ, LD_PRELOAD=os.path.abspath(args.lib), SAMPLER_OUT=out)
        run = subprocess.run(args.command, env=env, stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"profile: {exe} exited {run.returncode}", file=sys.stderr)
            return run.returncode
        data = Path(out).read_bytes()
        maps_text = Path(out + ".maps").read_text()

    samples = [struct.unpack_from("<QQ", data, k) for k in range(0, len(data), 16)]
    total = len(samples)
    if total == 0:
        sys.exit("profile: no samples recorded")
    mappings = exe_mappings(maps_text, exe)
    pie = is_pie(exe)
    inside = [(to_elf_address(pc, mappings, pie), to_elf_address(caller, mappings, pie))
              for pc, caller in samples]
    inside = [(pc, caller) for pc, caller in inside if pc is not None]
    # A return address points after the call; look up the call itself.
    wanted = {pc for pc, _ in inside} | {c - 1 for _, c in inside if c is not None}
    frames = symbolize(exe, wanted)

    outermost, inlined, lines, callers = (collections.Counter() for _ in range(4))
    for pc, caller in inside:
        chain = frames.get(pc) or [("??", "??:0")]
        outermost[chain[-1][0]] += 1
        inlined[chain[0][0]] += 1
        lines[f"{chain[0][1]}  ({chain[0][0]})"] += 1
        if caller is not None and frames.get(caller - 1):
            callers[frames[caller - 1][-1][0]] += 1

    share_inside = len(inside) / total
    print(f"samples: {total} every {PERIOD_US} us ({total * PERIOD_US / 1e6:.2f} s)")
    print(f"outside the executable: {100.0 * (1.0 - share_inside):.2f}%")
    table("top functions (outermost)", outermost, total)
    table("top functions (inlined)", inlined, total)
    table("top source lines", lines, total)
    table("top callers (one frame-pointer hop)", callers, total)
    if share_inside < args.min_inside:
        print(f"profile: only {100.0 * share_inside:.2f}% of samples inside {exe}, "
              f"below {100.0 * args.min_inside:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
