#!/usr/bin/env python3
"""Turn scripts/sprof.c's sprof.out into leaf / inclusive / per-crate tables.

    python3 scripts/sprof_report.py sprof.out [--top 25]

Addresses inside the profiled executable go through
`addr2line -a -f -C -i`, so a build with line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) also names inlined
functions; addresses in shared objects are reported as `[libm.so.6]`.

  leaf       the innermost (possibly inlined) function at the sampled PC
  inclusive  every function on the stack, once per sample
  crate      the innermost frame whose source is under crates/<name>/
"""
import argparse
import collections
import os
import re
import subprocess


def read_profile(path, tag):
    """The M lines of a profile as (lo, hi, offset, path) mappings, and
    every line starting with `tag` split into its fields."""
    maps, records = [], []
    for line in open(path):
        if line.startswith("M "):
            f = line.split()
            if len(f) >= 7:  # M range perms offset dev inode path
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                maps.append((lo, hi, int(f[3], 16), f[6]))
        elif line.startswith(tag):
            records.append(line.split()[1:])
    return maps, records


class Symbolizer:
    """Addresses to [(function, file)], innermost inlined frame first."""

    def __init__(self, maps, addrs):
        self.maps = maps
        self.exe = maps[0][3]  # the lowest file mapping is the executable itself
        base = min(lo - off for lo, _, off, path in maps if path == self.exe)
        in_exe = sorted({a for a in addrs if (m := self.where(a)) and m[3] == self.exe})
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", self.exe],
            input="".join(f"{a - base:#x}\n" for a in in_exe),
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        self.resolved, cur = {}, None
        lines = iter(out)
        for line in lines:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                cur = self.resolved.setdefault(int(line, 16) + base, [])
            else:  # a function line, then its file:line
                fn = re.sub(r"::h[0-9a-f]{16}$", "", line)
                cur.append((fn, next(lines, "")))

    def where(self, addr):
        return next((m for m in self.maps if m[0] <= addr < m[1]), None)

    def frames(self, addr):
        if addr in self.resolved:
            return self.resolved[addr]
        m = self.where(addr)
        return [(f"[{os.path.basename(m[3])}]" if m else "[unmapped]", "")]


def crate_of(chain):
    """The crate of the innermost frame whose source is under crates/."""
    return next((m.group(1) for _, path in chain if (m := re.search(r"crates/(\w+)/", path))), "(other)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("profile", nargs="?", default="sprof.out")
    ap.add_argument("--top", type=int, default=25, help="rows per table")
    args = ap.parse_args()
    maps, samples = read_profile(args.profile, "S")
    # Return addresses point past the call: step back into it. The leaf
    # (frame 0) is the interrupted PC itself.
    stacks = [[a if i == 0 else a - 1 for i, a in enumerate(int(x, 16) for x in s)] for s in samples if s]
    sym = Symbolizer(maps, {a for s in stacks for a in s})

    leaf, incl, crate = (collections.Counter() for _ in range(3))
    for s in stacks:
        chain = [fr for a in s for fr in sym.frames(a)]
        leaf[chain[0][0]] += 1
        incl.update({fn for fn, _ in chain})
        crate[crate_of(chain)] += 1
    n = len(stacks)
    print(f"{n} samples of {sym.exe}")
    for title, table in (("crate", crate), ("leaf", leaf), ("inclusive", incl)):
        print(f"\n== {title}")
        for name, c in table.most_common(args.top):
            print(f"{100 * c / n:6.1f} %  {c:6d}  {name}")


if __name__ == "__main__":
    main()
