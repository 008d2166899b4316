#!/usr/bin/env python3
"""Count code lines per source tree: non-blank lines outside `//` and
`/* */` comments, over the `.scala` files under each tree.

Run from the repository root: python3 tools/codelines.py
"""
import pathlib
import re

TREES = ["src/main", "jobs", "src/test", "perfbench/src"]
COMMENTS = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)


def code_lines(path):
    text = COMMENTS.sub("", path.read_text(encoding="utf-8"))
    return sum(1 for line in text.splitlines() if line.strip())


for tree in TREES:
    files = sorted(pathlib.Path(tree).rglob("*.scala"))
    print(f"{tree:14} {sum(code_lines(f) for f in files):6,}")
