#!/usr/bin/env python3
"""Fail if a src/ header is reached only from tests.

Follows quoted #include lines (resolved against src/, then the including
file's directory); reaching a src/ header also reaches the .cc beside it.
A header that tests/ reaches but tools/, bench/ and examples/ do not is
production code no program runs. Usage: check_src_callers.py [repo_root]
"""

import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def reach(root, tops):
    """Every file reachable from the sources under root/<top>."""
    src = os.path.join(root, "src")
    stack = [os.path.join(d, f) for top in tops
             for d, _, fs in os.walk(os.path.join(root, top)) for f in fs
             if f.endswith((".h", ".cc", ".cpp"))]
    seen = set(stack)
    while stack:
        path = stack.pop()
        with open(path, encoding="utf-8", errors="replace") as f:
            names = INCLUDE.findall(f.read())
        nexts = [os.path.normpath(os.path.join(base, n)) for n in names
                 for base in (src, os.path.dirname(path))]
        if path.startswith(src) and path.endswith(".h"):
            nexts.append(path[:-2] + ".cc")
        for p in nexts:
            if p not in seen and os.path.isfile(p):
                seen.add(p)
                stack.append(p)
    return seen


root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                       os.path.join(os.path.dirname(__file__), ".."))
test_only = sorted(os.path.relpath(p, root) for p in reach(root, ["tests"]) -
                   reach(root, ["tools", "bench", "examples"])
                   if p.startswith(os.path.join(root, "src", "")) and
                   p.endswith(".h"))
for header in test_only:
    print("%s: included only from tests/" % header)
sys.exit(1 if test_only else 0)
