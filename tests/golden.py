"""The golden-output corpus: one digest per CLI case, over its exit code,
stdout and stderr, and one digest per command over its cases' digests.

The cases come from the fixed rule in `cases()`, seeded with
`random.Random`; every call passes `--rng-seed`, and each case's input file
sits in a temporary directory whose path reads `<tmp>` in the digested
text.  The digests are kept in tests/data/golden.json, which
`tests/test_golden.py` compares in tier-1.  A change that moves an output
on purpose regenerates the file with

    python tests/golden.py --write

and names each moved case.  Without `--write` the script prints the cases
and commands whose digests differ from the file and exits 1 if any do.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden.json"

if __name__ == "__main__":  # run from a checkout: use its package
    sys.path.insert(0, str(HERE.parent / "src"))

from genutil import bridged_chain, k4_ring  # noqa: E402
from ikcs.cli import main  # noqa: E402

INPUT = "{input}"


def _edge_text(n: int, edges) -> str:
    return "".join([f"p {n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def _pairing(rng: random.Random, degrees) -> list[tuple[int, int]]:
    """A random simple graph with these degrees, by the pairing model; it
    may have several components."""
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = {(min(p), max(p)) for p in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _deg3_cases(rng):
    # cubic graphs of the GF(2^16)-sized range, and subcubic graphs with a
    # third of their vertices leaves and about a seventh of degree 2
    for n in (40, 48, 64, 80, 96, 112, 128, 144, 160, 176):
        for r in range(3):
            yield f"cubic/n{n}/{r}", _pairing(rng, [3] * n), n
    for n, leaves, deg2 in ((40, 12, 6), (56, 18, 8), (75, 25, 11), (96, 32, 14),
                            (120, 40, 18), (144, 48, 20), (176, 58, 26)):
        for r in range(3):
            degrees = [1] * leaves + [2] * deg2 + [3] * (n - leaves - deg2)
            rng.shuffle(degrees)
            yield f"subcubic/n{n}/{r}", _pairing(rng, degrees), n
    for blocks in (2, 5, 12, 30):
        g = bridged_chain(blocks)
        yield f"bridged_chain/{blocks}", g.edges, g.n
    for blocks in (3, 6, 12, 24):
        g = k4_ring(blocks)
        yield f"k4_ring/{blocks}", g.edges, g.n


def _instance(rng: random.Random, w: int) -> dict:
    """A random polymatroid-debug instance over GF(2^w): 1-10 lines of dim
    1-8, with rank-1 and zero lines now and then, and half the time every
    line confined to one of up to three coordinate blocks."""
    dim = rng.randrange(1, 9)
    cuts = sorted(rng.sample(range(1, dim), min(dim - 1, rng.randrange(3))))
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, dim])]
    blocked = rng.random() < 0.5
    lines = []
    for _ in range(rng.randrange(1, 11)):
        block = rng.choice(blocks) if blocked else range(dim)
        a, b = (
            [rng.getrandbits(w) if j in block else 0 for j in range(dim)] for _ in "ab"
        )
        if rng.random() < 0.1:
            b = a
        if rng.random() < 0.05:
            a = [0] * dim
        lines.append([hex(sum(c << (j * w) for j, c in enumerate(vec))) for vec in (a, b)])
    return {"w": w, "dim": dim, "lines": lines}


def _cnf(rng: random.Random, n: int, m: int) -> str:
    clauses = [
        " ".join(str(rng.choice((1, -1)) * rng.randrange(1, n + 1)) for _ in range(3)) + " 0"
        for _ in range(m)
    ]
    return "\n".join([f"p cnf {n} {m}", *clauses]) + "\n"


def cases():
    """(command, case name, argv, input text or None): argv reads the input
    file as `{input}`."""
    rng = random.Random(20141)
    for name, edges, n in _deg3_cases(rng):
        seed = str(rng.getrandbits(32))
        yield ("min-set-deg3", name,
               ["min-set", "--k", "2", "--engine", "deg3", "--rng-seed", seed, INPUT],
               _edge_text(n, edges))
    for w in (8, 16, 32, 64):
        for i in range(60):
            text = json.dumps(_instance(rng, w))
            yield ("polymatroid-debug", f"w{w}/{i}",
                   ["polymatroid-debug", "--rng-seed", str(rng.getrandbits(32)), INPUT], text)
    sides = [(m, n) for m in range(3, 21) for n in range(3, 21)]
    sides += [(4, n) for n in range(21, 33)] + [(m, 4) for m in range(21, 33)]
    for m, n in sides + [(2, 5), (5, 2)]:
        yield ("torus-construct", f"{m}x{n}",
               ["torus-construct", str(m), str(n), "--verify", "--emit-grid",
                "--rng-seed", "7"], None)
    for i in range(40):
        n, k = rng.randrange(1, 15), rng.randrange(1, 4)
        edges = _gnp(rng, n, rng.choice((0.15, 0.3, 0.5)))
        yield ("min-set-brute", f"{i}/n{n}/k{k}",
               ["min-set", "--k", str(k), "--engine", "brute", "--rng-seed", "3", INPUT],
               _edge_text(n, edges))
        seed = ",".join(map(str, sorted(rng.sample(range(n), rng.randrange(n + 1)))))
        yield ("simulate", f"{i}/n{n}/k{k}",
               ["simulate", "--k", str(k), "--seed", seed, "--rng-seed", "3", INPUT],
               _edge_text(n, edges))
    for i in range(24):
        n, m = rng.randrange(1, 6), rng.randrange(1, 5)
        yield ("reduce-sat", f"{i}/v{n}c{m}",
               ["reduce-sat", "--rng-seed", "3", INPUT], _cnf(rng, n, m))
    for i in range(12):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        yield ("check-sat-equiv", f"{i}/v{n}c{m}",
               ["check-sat-equiv", "--rng-seed", "3", INPUT], _cnf(rng, n, m))
    for i, text in enumerate(("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n",
                              "p cnf 2 3\n1 1 1 0\n-1 -1 2 0\n-1 -1 -2 0\n")):
        yield ("check-sat-equiv", f"unsat/{i}",
               ["check-sat-equiv", "--rng-seed", "3", INPUT], text)


def run_case(argv, text) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input")
        if text is not None:
            path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == INPUT else a for a in argv])
    return code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests() -> dict:
    """{"cases": {"command/case": digest}, "commands": {command: digest}}."""
    by_command: dict[str, list[str]] = {}
    found = {}
    for command, name, argv, text in cases():
        code, out, err = run_case(argv, text)
        key = f"{command}/{name}"
        found[key] = _digest(f"{code}\0{out}\0{err}")
        by_command.setdefault(command, []).append(f"{key} {found[key]}\n")
    return {
        "cases": found,
        "commands": {c: _digest("".join(lines)) for c, lines in by_command.items()},
    }


def moved(want: dict, got: dict) -> list[str]:
    """The case and command keys whose digests differ, or that only one
    side has."""
    return [
        f"{part}: {key}"
        for part in ("commands", "cases")
        for key in sorted(want[part].keys() | got[part].keys())
        if want[part].get(key) != got[part].get(key)
    ]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    got = digests()
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got['cases'])} cases to {GOLDEN}")
        return 0
    diff = moved(json.loads(GOLDEN.read_text()), got)
    print("\n".join(diff) or f"all {len(got['cases'])} cases match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(_main())
