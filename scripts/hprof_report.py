#!/usr/bin/env python3
"""Turn scripts/hprof.c's hprof.out into MB-per-allocation-site tables.

    python3 scripts/hprof_report.py hprof.out [--top 25]

A stack's bytes are the sampled bytes it held live when the heap last
set a peak (see hprof.c). Frames go through sprof_report's addr2line
symbolizer, so a build with line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) names inlined frames.

  site   the innermost frame whose source is in the workspace (not the
         Rust standard library), its file, and the library function it
         called: `... preserve_input (dsps/src/store.rs)  <- push<...>`
  crate  the innermost frame whose source is under crates/<name>/
"""
import argparse
import collections
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sprof_report import Symbolizer, crate_of, read_profile  # noqa: E402


def in_workspace(path):
    return bool(path) and not path.startswith(("/rustc/", "??")) and "/.cargo/" not in path


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("profile", nargs="?", default="hprof.out")
    ap.add_argument("--top", type=int, default=25, help="rows per table")
    args = ap.parse_args()
    maps, records = read_profile(args.profile, "S")
    _, (peak,) = read_profile(args.profile, "P")
    peak = dict(zip(peak[::2], map(int, peak[1::2])))
    # Every return address points past its call: step back into it.
    stacks = [(int(r[0]), [int(a, 16) - 1 for a in r[1:]]) for r in records]
    sym = Symbolizer(maps, {a for _, s in stacks for a in s})

    site, crate = collections.Counter(), collections.Counter()
    for weight, s in stacks:
        # The innermost frames are hprof.c's own, in its library.
        lib = sym.where(s[0]) if s else None
        while s and lib and sym.where(s[0]) == lib:
            s = s[1:]
        chain = [fr for a in s for fr in sym.frames(a)]
        k = next((i for i, (_, path) in enumerate(chain) if in_workspace(path)), None)
        if k is None:
            name = chain[0][0] if chain else "(no frames)"
        else:
            fn, path = chain[k]
            where = re.sub(r":\d+.*$", "", path.split("crates/")[-1])
            name = f"{fn} ({where})" + (f"  <- {chain[k - 1][0]}" if k > 0 else "")
        site[name] += weight
        crate[crate_of(chain)] += weight
    total = sum(w for w, _ in stacks)
    mb = 1e6
    print(
        f"peak live heap {peak['peak'] / mb:.2f} MB; attributed at {peak['recorded'] / mb:.2f} MB,"
        f" of which {total / mb:.2f} MB sampled every {peak['sample']} B allocated"
        f" ({peak['dropped']} samples dropped); {peak['allocated'] / mb:.0f} MB allocated in all, by {sym.exe}"
    )
    for title, table in (("crate", crate), ("site", site)):
        print(f"\n== {title}")
        for name, w in table.most_common(args.top):
            print(f"{w / mb:7.2f} MB {100 * w / total:5.1f} %  {name}")


if __name__ == "__main__":
    main()
