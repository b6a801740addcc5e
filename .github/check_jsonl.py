#!/usr/bin/env python3
"""Check that every *.jsonl file under a directory is strict JSON Lines.

    python3 .github/check_jsonl.py DIR

Every line of every *.jsonl file under DIR (recursively) must parse with
json.loads, which also rejects raw control characters inside strings,
and no line may be blank. Exits 1, naming each bad line, if any check
fails or if DIR holds no *.jsonl file at all.
"""

import json
import pathlib
import sys


def check_file(path):
    """Returns the problems found in one file, one message per bad line."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()  # the terminator of the last line
    problems = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"{path}:{number}: blank line")
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"{path}:{number}: {e}")
    return problems, len(lines)


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = pathlib.Path(sys.argv[1])
    files = sorted(root.rglob("*.jsonl"))
    if not files:
        print(f"{root}: no *.jsonl files", file=sys.stderr)
        return 1
    problems, total = [], 0
    for path in files:
        found, count = check_file(path)
        problems += found
        total += count
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    print(f"{root}: {len(files)} file(s), {total} line(s), all valid JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
