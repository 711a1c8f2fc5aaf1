#!/usr/bin/env python3
"""Turn scripts/hprof.c's hprof.out into MB-per-allocation-site tables.

    python3 scripts/hprof_report.py hprof.out [--top 25]
    python3 scripts/hprof_report.py CHANGE.out --base PARENT.out

A stack's bytes are the sampled bytes it held live when the heap last
set a peak (see hprof.c). Frames go through sprof_report's addr2line
symbolizer, so a build with line tables
(CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) names inlined frames.

  site   the innermost frame whose source is in the workspace (not the
         Rust standard library), its file, and the library function it
         called, without that callee's generic arguments:
         `... preserve_input (dsps/src/store.rs)  <- push`
  crate  the innermost frame whose source is under crates/<name>/

With --base, each table gives every name's MB in the base profile and
in the profile, and the change, largest change first.
"""
import argparse
import collections
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sprof_report import Symbolizer, crate_of, read_profile  # noqa: E402

MB = 1e6


def in_workspace(path):
    return bool(path) and not path.startswith(("/rustc/", "??")) and "/.cargo/" not in path


def without_generics(name):
    """`name` with every `<...>` group dropped: `clone<u32>` and
    `clone<EdgeId>` are both `clone`. The compiler merges identical
    monomorphizations and keeps one of their names, not always the same
    one in two builds, so a callee's type arguments would split one
    site in two under --base."""
    out, depth = [], 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">" and depth and name[i - 1 : i] != "-":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out).lstrip(":") or name


def read_tables(path):
    """The peak record, the crate and site tables and the total sampled
    bytes of one hprof.out."""
    maps, records = read_profile(path, "S")
    _, (peak,) = read_profile(path, "P")
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
            # Relative to the checkout, so two checkouts name a site alike.
            where = re.sub(r":\d+.*$", "", re.sub(r"^.*?(crates/|(?=msbench/))", "", path))
            name = f"{fn} ({where})" + (f"  <- {without_generics(chain[k - 1][0])}" if k > 0 else "")
        site[name] += weight
        crate[crate_of(chain)] += weight
    return peak, crate, site, sum(w for w, _ in stacks), sym.exe


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("profile", nargs="?", default="hprof.out")
    ap.add_argument("--base", help="a parent's hprof.out: print each name's MB in both, and the change")
    ap.add_argument("--top", type=int, default=25, help="rows per table")
    args = ap.parse_args()
    peak, crate, site, total, exe = read_tables(args.profile)
    print(
        f"peak live heap {peak['peak'] / MB:.2f} MB; attributed at {peak['recorded'] / MB:.2f} MB,"
        f" of which {total / MB:.2f} MB sampled every {peak['sample']} B allocated"
        f" ({peak['dropped']} samples dropped); {peak['allocated'] / MB:.0f} MB allocated in all, by {exe}"
    )
    if args.base is None:
        for title, table in (("crate", crate), ("site", site)):
            print(f"\n== {title}")
            for name, w in table.most_common(args.top):
                print(f"{w / MB:7.2f} MB {100 * w / total:5.1f} %  {name}")
        return
    base_peak, base_crate, base_site, _, base_exe = read_tables(args.base)
    print(f"base: peak live heap {base_peak['peak'] / MB:.2f} MB, by {base_exe}")
    for title, table, base in (("crate", crate, base_crate), ("site", site, base_site)):
        print(f"\n== {title}: MB in base, MB here, change")
        names = sorted(base.keys() | table.keys(), key=lambda n: (-abs(table[n] - base[n]), n))
        for name in names[: args.top]:
            print(f"{base[name] / MB:7.2f} {table[name] / MB:7.2f} {(table[name] - base[name]) / MB:+7.2f}  {name}")


if __name__ == "__main__":
    main()
