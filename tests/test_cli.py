import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ikcs
import ikcs.cli
import ikcs.deg3
import ikcs.percolation
import ikcs.polymatroid
import ikcs.torus
from ikcs import satred
from ikcs.cli import JSON_CHUNK, main, write_json
from ikcs.gf2 import ConsistencyError
from ikcs.graph import MAX_VERTEX_ID, Graph, parse_edge_list
from genutil import (
    bridged_chain,
    bridged_subcubic,
    k4_ring,
    random_cubic,
    random_instance,
    scaled_subcubic,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def write_petersen(path):
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    path.write_text("p 10 15\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")


def test_simulate_success(tmp_path, capsys):
    f = tmp_path / "p3.edges"
    f.write_text("p 3 2\n0 1\n1 2\n")
    code, payload, err = run_cli(capsys, "simulate", "--k", "2", "--seed", "0,2", str(f))
    assert code == 0
    assert payload["trace"]["converted_all"]
    assert payload["trace"]["final_black"] == [0, 1, 2]
    assert "rng_seed" in payload
    assert "converts all" in err


def test_simulate_stuck_exit_one(tmp_path, capsys):
    f = tmp_path / "p4.edges"
    f.write_text("p 4 3\n0 1\n1 2\n2 3\n")
    code, payload, err = run_cli(capsys, "simulate", "--k", "2", "--seed", "0", str(f))
    assert code == 1
    assert not payload["trace"]["converted_all"]
    assert payload["stuck_certificate"]


def test_simulate_percolating_certificate_exits_three(tmp_path, capsys, monkeypatch):
    """The stuck certificate checks the white set of the run it is given:
    a run that stopped short of its fixed point (here a kernel that stops
    after the seeds) leaves a white vertex that would convert, an internal
    fault: exit 3 with no payload, not exit 1."""
    f = tmp_path / "p5.edges"
    f.write_text("p 5 4\n0 1\n1 2\n2 3\n3 4\n")
    monkeypatch.setattr(ikcs.percolation, "_spread", lambda g, seed, k: [list(seed)])
    code = main(["simulate", "--k", "2", "--seed", "0,2", str(f)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "consistency failure: stuck set not self-certifying at 1\n"


def test_min_set_engines_agree(tmp_path, capsys):
    f = tmp_path / "petersen.edges"
    write_petersen(f)
    code, brute, _ = run_cli(capsys, "min-set", "--k", "2", "--engine", "brute", str(f))
    assert code == 0 and brute["size"] == 3
    code, deg3, _ = run_cli(
        capsys, "min-set", "--k", "2", "--engine", "deg3", "--rng-seed", "5", str(f)
    )
    assert code == 0 and deg3["size"] == 3
    code, auto, _ = run_cli(
        capsys, "min-set", "--k", "2", "--engine", "auto", "--rng-seed", "5", str(f)
    )
    assert code == 0 and auto["engine"] == "deg3" and auto["crosschecked"]


def test_min_set_brute_long_path(tmp_path, capsys):
    # the search keeps one frame per chosen vertex off the call stack
    f = tmp_path / "path.edges"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(2399)))
    code, payload, err = run_cli(
        capsys, "min-set", "--k", "2", "--engine", "brute", "--budget", "2400", str(f)
    )
    assert code == 0 and payload["size"] == 1201
    code, payload, err = run_cli(
        capsys, "min-set", "--k", "2", "--engine", "brute", "--budget", "2399", str(f)
    )
    assert code == 2 and payload is None
    assert "exceeds search budget" in err and "--budget" in err


def test_min_set_engine_guard(tmp_path, capsys):
    f = tmp_path / "petersen.edges"
    write_petersen(f)
    code, payload, err = run_cli(capsys, "min-set", "--k", "3", "--engine", "deg3", str(f))
    assert code == 2 and payload is None
    assert "engine deg3" in err


def test_rng_seed_reproducible(tmp_path, capsys):
    f = tmp_path / "petersen.edges"
    write_petersen(f)
    args = ("min-set", "--k", "2", "--engine", "deg3", "--rng-seed", "31", str(f))
    _, a, _ = run_cli(capsys, *args)
    _, b, _ = run_cli(capsys, *args)
    assert a == b
    assert a["rng_seed"] == 31


def test_reduce_sat_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    out_edges = tmp_path / "g.edges"
    code, payload, err = run_cli(
        capsys, "reduce-sat", "--out", str(out_edges), str(cnf)
    )
    assert code == 0
    g = parse_edge_list(out_edges.read_text())
    assert g.n == payload["n"]
    assert g == Graph(payload["n"], tuple(tuple(e) for e in payload["edges"]))
    assert payload["s"] == len(payload["leaves"]) + 2


@pytest.mark.parametrize("target, reason", [
    ("missing/g.edges", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_reduce_sat_unwritable_out_exits_two(tmp_path, capsys, target, reason):
    """An --out path that cannot be written is a usage error: exit 2, the
    path and the reason on stderr, no payload."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    out = tmp_path / target
    code, payload, err = run_cli(capsys, "reduce-sat", "--out", str(out), str(cnf))
    assert (code, payload, err) == (2, None, f"error: cannot write {out}: {reason}\n")


@pytest.mark.parametrize("edit, msg", [
    (lambda edges: tuple(e for e in edges if e != (1, 5)), "does not feed the start side"),
    (lambda edges: edges + ((0, 3),), "leaks from start to end"),
], ids=["no-feed", "leak"])
def test_broken_one_way_gadget_exit_three(tmp_path, capsys, monkeypatch, edit, msg):
    g, roles = satred.build_one_way()
    broken = Graph(g.n, edit(g.edges))
    monkeypatch.setattr(satred, "build_one_way", lambda: (broken, roles))
    satred._one_way_self_test.cache_clear()
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    code, payload, err = run_cli(capsys, "reduce-sat", str(cnf))
    assert code == 3 and payload is None
    assert msg in err and "Traceback" not in err


def test_check_sat_equiv(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    code, payload, err = run_cli(capsys, "check-sat-equiv", str(sat))
    assert code == 0 and payload["match"] and payload["satisfiable"]
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, payload, err = run_cli(capsys, "check-sat-equiv", str(unsat))
    assert code == 0 and payload["match"] and not payload["satisfiable"]
    assert "unsatisfiable" in err


def test_check_sat_equiv_checks_budget_before_brute_force(tmp_path, capsys, monkeypatch):
    """The 2^n satisfiability scan waits until the graph fits the budget."""
    def refuse(formula):
        raise RuntimeError("sat_bruteforce ran before the budget check")

    monkeypatch.setattr(satred, "sat_bruteforce", refuse)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    code, payload, err = run_cli(capsys, "check-sat-equiv", "--budget", "10", str(cnf))
    assert code == 2 and payload is None
    assert "exceeds search budget" in err and "--budget" in err


def test_check_sat_equiv_checks_budget_before_building(tmp_path, capsys, monkeypatch):
    """The budget is compared with 5n + 34m + 1 before any graph exists,
    with the message the exact search's own check gives."""
    def refuse(formula):
        raise RuntimeError("build_reduction ran before the budget check")

    monkeypatch.setattr(satred, "build_reduction", refuse)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    code, payload, err = run_cli(capsys, "check-sat-equiv", "--budget", "78", str(cnf))
    assert (code, payload, err) == (2, None, (
        "error: n=79 exceeds search budget 78; "
        "pass a larger --budget (budget_vertices) to override\n"
    ))


@pytest.mark.parametrize("cap", [39, 40])
def test_reduce_sat_refuses_graphs_past_the_vertex_bound(tmp_path, capsys, monkeypatch, cap):
    """G_F of `p cnf 1 1` has 5 + 34 + 1 = 40 vertices: one past a 39-vertex
    cap it is refused before any graph is built; at a 40-vertex cap it is
    built."""
    monkeypatch.setattr(satred, "MAX_VERTEX_ID", cap - 1)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 -1 1 0\n")
    if cap == 39:
        def refuse(*args):
            raise RuntimeError("graph built past the vertex bound")

        monkeypatch.setattr(satred, "Graph", refuse)
        code, payload, err = run_cli(capsys, "reduce-sat", str(cnf))
        assert (code, payload, err) == (
            2, None, "error: reduction graph of 40 vertices exceeds limit 39\n"
        )
    else:
        code, payload, err = run_cli(capsys, "reduce-sat", str(cnf))
        assert code == 0 and payload["n"] == 40


def test_torus_construct(tmp_path, capsys):
    code, payload, err = run_cli(
        capsys, "torus-construct", "6", "6", "--verify", "--emit-grid"
    )
    assert code == 0
    assert payload["case"] == "A" and payload["size"] == 13
    assert payload["verified"]
    assert len(payload["vertices"]) == 13
    assert payload["grid"].count("#") == 13
    assert "case A" in err


def test_torus_construct_bad_dims(capsys):
    code, payload, err = run_cli(capsys, "torus-construct", "2", "9")
    assert code == 2 and payload is None


def _broken_patterns(path, monkeypatch):
    """Point IKCS_PATTERN_DIR at the committed patterns, but with a merge
    tile that merges nothing, which leaves the white cycles apart, and an
    all-white cap, which leaves the height-4 column white: no seed of cases
    A-C or n4_a2 percolates."""
    for src in Path(ikcs.__file__).parent.joinpath("patterns").glob("*.txt"):
        (path / src.name).write_text(src.read_text())
    (path / "merge3x3.txt").write_text((path / "base3x3.txt").read_text())
    (path / "n4_cap2.txt").write_text("..\n" * 4)
    monkeypatch.setenv("IKCS_PATTERN_DIR", str(path))


def test_torus_construct_broken_patterns_exit_two(tmp_path, capsys, monkeypatch):
    _broken_patterns(tmp_path, monkeypatch)
    for m, n in (("6", "6"), ("6", "8"), ("4", "4")):
        code, payload, err = run_cli(capsys, "torus-construct", m, n, "--verify")
        assert code == 2 and payload is None, (m, n)
        assert err.startswith("error: ") and "Traceback" not in err, (m, n)


def test_torus_verify_runs_the_kernel_once_per_candidate(tmp_path, capsys, monkeypatch):
    """`--verify` reports the construction's own conversion run: the kernel
    runs once per candidate seed construct_3cs tries, and never again."""
    spread, check = ikcs.percolation._spread, ikcs.torus.is_conversion_set
    runs, tried = [], []

    def counted_spread(g, seed, k):
        runs.append(k)
        return spread(g, seed, k)

    def recorded_check(g, seed, k):
        tried.append(check(g, seed, k))
        return tried[-1]

    monkeypatch.setattr(ikcs.percolation, "_spread", counted_spread)
    monkeypatch.setattr(ikcs.torus, "is_conversion_set", recorded_check)
    # one grid per case A-F, then both side-4 families
    for m, n in ((6, 6), (6, 8), (6, 7), (8, 8), (8, 10), (10, 10), (4, 4), (4, 7)):
        runs.clear()
        tried.clear()
        code, payload, _ = run_cli(capsys, "torus-construct", str(m), str(n), "--verify")
        assert code == 0 and payload["verified"] is True, (m, n)
        assert tried == [True] and runs == [3], (m, n)
    # neither case A candidate converts: both are run, and the call fails
    _broken_patterns(tmp_path, monkeypatch)
    runs.clear()
    tried.clear()
    code, payload, err = run_cli(capsys, "torus-construct", "6", "6", "--verify")
    assert code == 2 and payload is None and "no 13-cell seed percolates" in err
    assert tried == [False, False] and runs == [3, 3]


def test_torus_verify_under_python_O():
    src = str(Path(ikcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import sys; from ikcs.cli import main; sys.exit(main())",
         "torus-construct", "6", "6", "--verify"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True


def test_oversized_inputs_exit_two(tmp_path, capsys):
    # both are rejected before a vertex list or a grid is allocated
    f = tmp_path / "huge.edges"
    for header in ("p 10000000000 0\n", "p 10000002 0\n"):
        f.write_text(header)
        code, payload, err = run_cli(capsys, "simulate", "--k", "2", "--seed", "0", str(f))
        assert code == 2 and payload is None and "exceeds limit" in err
    for m, n in (("100000", "100000"), ("3", "4000000")):
        code, payload, err = run_cli(capsys, "torus-construct", m, n, "--verify")
        assert code == 2 and payload is None and "exceeds" in err


def test_polymatroid_debug(tmp_path, capsys):
    from ikcs.gf2 import field
    from ikcs.polymatroid import PolymatroidInstance

    inst = PolymatroidInstance(
        [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)), ((1, 1, 0), (1, 0, 1))],
        3,
        field(16),
    )
    # and three random GF(2^64) instances: every width with a field is read
    rng = random.Random(64)
    f = tmp_path / "inst.json"
    for case in [inst] + [random_instance(rng, 9, 6, w=64) for _ in range(3)]:
        f.write_text(json.dumps(case.to_json_dict()))
        code, payload, err = run_cli(capsys, "polymatroid-debug", "--rng-seed", "2", str(f))
        assert code == 0, err
        assert payload["field_bits"] == case.field.w
        assert payload["gallai_ok"]
        assert payload["nu"] == payload["nu_bruteforce"]
        assert payload["rank_full"] == payload["nu"] + len(payload["min_spanning_set"])


def test_polymatroid_debug_extracts_once(tmp_path, capsys, monkeypatch):
    """One matching extraction per call, and the spanning set completes the
    matching the payload reports."""
    calls = []
    for name in ("_extract_by_inverse", "_extract_by_rank"):
        extract = getattr(ikcs.polymatroid, name)

        def counted(*args, _extract=extract, **kw):
            calls.append(args)
            return _extract(*args, **kw)

        monkeypatch.setattr(ikcs.polymatroid, name, counted)
    rng = random.Random(21)
    f = tmp_path / "inst.json"
    for w in (8, 16, 32) * 4:
        inst = random_instance(rng, rng.randrange(1, 12), rng.randrange(1, 9), w=w)
        f.write_text(json.dumps(inst.to_json_dict()))
        calls.clear()
        code, payload, err = run_cli(capsys, "polymatroid-debug", "--rng-seed", str(w), str(f))
        assert code == 0, err
        assert len(calls) == 1
        assert set(payload["matching"]) <= set(payload["min_spanning_set"])
        assert len(payload["matching"]) == payload["nu"]


def test_polymatroid_debug_malformed_json_exit_two(tmp_path, capsys):
    cases = (
        {"dim": 2, "lines": []},                       # no "w"
        {"w": 16, "dim": 2, "lines": [["0x1"]]},        # a line that is not a pair
        {"w": 16, "dim": "2", "lines": []},             # non-int dim
        {"w": 16, "dim": 2, "lines": {"0": 1}},         # lines not a list
        {"w": 16, "dim": 2, "lines": [[1, 2]]},         # vectors not hex strings
        [16, 2, []],                                    # not an object
        {"w": 12, "dim": 1, "lines": [["0x1", "0x2"]]},  # no field of that width
        {"w": 128, "dim": 1, "lines": [["0x1", "0x2"]]},
        {"w": 16, "dim": 10**12, "lines": [["0x1", "0x1"]]},  # dim past its cap
        {"w": 16, "dim": 8, "lines": [["0x1", "0x1"]] * 129},  # too many coordinates
        "[" * 100_000 + "]" * 100_000,                  # nested past the recursion limit
        {"w": 8, "dim": 1, "lines": [["-0x1", "0x1"]]},  # a negative vector
        {"w": 8, "dim": 1, "lines": [["0x1", "0x1ff"]]},  # bits past dim x w
    )
    f = tmp_path / "inst.json"
    for obj in cases:
        f.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        code, payload, err = run_cli(capsys, "polymatroid-debug", str(f))
        assert code == 2 and payload is None, obj
        assert err.startswith("error:"), obj


def test_polymatroid_debug_refuses_past_its_caps_before_unpacking(tmp_path, capsys, monkeypatch):
    from ikcs.polymatroid import MAX_CELLS, MAX_DIM

    def refuse(*args):
        raise AssertionError("a vector was unpacked past the caps")

    monkeypatch.setattr(ikcs.polymatroid, "unpack_vector", refuse)

    def dense(dim, count):  # every coordinate 2^64 - 1
        return {"w": 64, "dim": dim, "lines": [[hex((1 << 64 * dim) - 1)] * 2] * count}

    cases = (
        (dense(MAX_DIM + 1, 1), f"limit {MAX_DIM}"),
        (dense(MAX_DIM, MAX_CELLS // MAX_DIM + 1), f"exceeds {MAX_CELLS}"),
        # dim-0 lines count one cell each
        ({"w": 64, "dim": 0, "lines": [["0x0", "0x0"]] * (MAX_CELLS + 1)}, f"exceeds {MAX_CELLS}"),
    )
    f = tmp_path / "inst.json"
    for obj, cap in cases:
        f.write_text(json.dumps(obj))
        code, payload, err = run_cli(capsys, "polymatroid-debug", str(f))
        assert (code, payload) == (2, None), err
        assert err.startswith("error:") and cap in err


def test_polymatroid_debug_refuses_parity_count_before_ranking(tmp_path, capsys, monkeypatch):
    """More lines than the randomized parity bound admits exit 2 with
    nu_algebraic's message, and nothing is ranked first."""
    ranks = []
    rank = ikcs.polymatroid.PolymatroidInstance.rank

    def counted(self, *args, **kw):
        ranks.append(args)
        return rank(self, *args, **kw)

    monkeypatch.setattr(ikcs.polymatroid.PolymatroidInstance, "rank", counted)
    rng = random.Random(8)
    f = tmp_path / "inst.json"
    for w, count, most in ((1, 2, 1), (8, 12, 11)):
        inst = random_instance(rng, count, 4, w=w)
        f.write_text(json.dumps(inst.to_json_dict()))
        code, payload, err = run_cli(capsys, "polymatroid-debug", "--rng-seed", "1", str(f))
        assert (code, payload) == (2, None), (w, err)
        assert err == (
            "error: field too small for the randomized parity bound: "
            f"{count} lines, at most {most} over a field of order {1 << w}\n"
        )
        assert ranks == [], w


def test_bad_inputs_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.edges"
    code, _, err = run_cli(capsys, "simulate", "--k", "2", "--seed", "0", str(missing))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 1 0\n")
    code, _, err = run_cli(capsys, "check-sat-equiv", str(bad))
    assert code == 2 and "3 literals" in err
    f = tmp_path / "p.edges"
    f.write_text("p 2 1\n0 1\n")
    code, _, _ = run_cli(capsys, "simulate", "--k", "2", "--seed", "0,banana", str(f))
    assert code == 2


def test_usage_error_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# Edge-list text, line by line: well-formed edges and headers over small or
# mid-sized ids, or tokens (those ids, ids past the limit, header and comment
# markers, number-like junk, arbitrary short strings).  Ids stop at 20,000,
# which keeps each graph (a list of neighbours per vertex up to the largest
# id) to a few MB.  Ids near the limit of 10^7 are left out: one such edge
# makes `simulate` take about 20 s and 1.2 GB (2-vCPU VM; ROADMAP direction 5).
_MID_ID = st.integers(13, 20_000)
_ID = st.one_of(st.integers(0, 12), _MID_ID).map(str)
_TOKEN = st.one_of(
    st.integers(-3, 12).map(str),
    _MID_ID.map(str),
    st.integers(MAX_VERTEX_ID + 2, 10**25).map(str),
    st.sampled_from(["p", "c", "#", "0x1", "1.5", "-0", "+2", "1_0", "\t"]),
    st.text(max_size=4),
)
_EDGE = st.tuples(_ID, _ID).map(" ".join)
_LINE = st.one_of(
    _EDGE, _EDGE, _EDGE,
    st.tuples(st.just("p"), _ID, _ID).map(" ".join),
    st.lists(_TOKEN, max_size=4).map(" ".join),
)
_EDGE_TEXT = st.lists(_LINE, max_size=8).map("\n".join)


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=_EDGE_TEXT,
    k=st.one_of(st.integers(1, 3), st.integers(-1, 4)),
    seed=st.one_of(
        st.lists(_ID, max_size=5).map(",".join),
        st.text(alphabet="0123456789,- ", max_size=8),
    ),
)
def test_cli_contract_fuzz(tmp_path, text, k, seed):
    f = tmp_path / "fuzz.edges"
    f.write_text(text, encoding="utf-8")
    for argv in (
        ["min-set", "--k", str(k), "--engine", "brute", str(f)],
        ["simulate", "--k", str(k), "--seed", seed, str(f)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)


# DIMACS text for reduce-sat: a `p cnf` header (counts that match, or any
# of -1..6) over well-formed 3-literal clauses on variables 1-6, with up to
# two stray lines spliced in; or lines drawn freely from headers, clauses,
# comments and junk tokens (small integers, header and comment markers,
# number-like junk, arbitrary short strings).
_LIT = st.integers(1, 6).flatmap(lambda v: st.sampled_from([str(v), str(-v)]))
_CLAUSE = st.tuples(_LIT, _LIT, _LIT).map(lambda lits: " ".join(lits) + " 0")
_COUNT = st.integers(-1, 6).map(str)
_DIMACS_TOKEN = st.one_of(
    st.integers(-8, 8).map(str),
    st.sampled_from(["p", "cnf", "c", "%", "0x1", "1.5", "-0", "+2", "1_0", "\t"]),
    st.text(max_size=4),
)
_DIMACS_LINE = st.one_of(
    _CLAUSE,
    st.tuples(st.just("p cnf"), _COUNT, _COUNT).map(" ".join),
    st.just("c comment"),
    st.lists(_DIMACS_TOKEN, max_size=4).map(" ".join),
)


@st.composite
def _dimacs_document(draw):
    clauses = draw(st.lists(_CLAUSE, max_size=6))
    used = str(max((abs(int(x)) for cl in clauses for x in cl.split()), default=0))
    n = draw(st.one_of(st.just(used), st.just(used), _COUNT))
    m = draw(st.one_of(st.just(str(len(clauses))), st.just(str(len(clauses))), _COUNT))
    lines = [f"p cnf {n} {m}", *clauses]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_DIMACS_LINE))
    return "\n".join(lines)


_DIMACS_TEXT = st.one_of(
    _dimacs_document(), _dimacs_document(),
    st.lists(_DIMACS_LINE, max_size=8).map("\n".join),
)


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_DIMACS_TEXT)
def test_reduce_sat_contract_fuzz(tmp_path, text):
    f = tmp_path / "fuzz.cnf"
    f.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce-sat", str(f)])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err.getvalue(), text


# Instance JSON for polymatroid-debug: well-typed objects (supported widths
# drawn often, any width 0-40 otherwise; dim 0-6; 0-10 lines of hex
# strings), the same with garbage vector strings, objects with mis-typed
# fields, and non-objects.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2),
)
_HEX = st.integers(0, 1 << 200).map(hex)
_GARBAGE = st.one_of(st.sampled_from(["0x", "-0x1", "0x1_0", "zz", ""]), st.text(max_size=6))
_W = st.one_of(st.sampled_from([1, 8, 16, 32]), st.integers(0, 40))


def _instances(vec):
    return st.fixed_dictionaries({
        "w": _W,
        "dim": st.integers(0, 6),
        "lines": st.lists(st.tuples(vec, vec), max_size=10),
    })


_INSTANCE = st.one_of(
    _instances(_HEX),
    _instances(st.one_of(_HEX, _GARBAGE)),
    st.fixed_dictionaries({
        "w": st.one_of(_W, _JUNK),
        "dim": st.one_of(st.integers(0, 6), _JUNK),
        "lines": st.one_of(st.lists(st.one_of(st.lists(_HEX, max_size=3), _JUNK),
                                    max_size=3), _JUNK),
    }),
    st.lists(_JUNK, max_size=3),
    _JUNK,
)


@settings(
    derandomize=True, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(obj=_INSTANCE)
def test_polymatroid_debug_contract_fuzz(tmp_path, obj):
    f = tmp_path / "fuzz.json"
    f.write_text(json.dumps(obj), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["polymatroid-debug", "--rng-seed", "5", str(f)])
    assert code in (0, 1, 2, 3), obj
    assert "Traceback" not in err.getvalue(), obj


# Graphs for min-set --engine deg3: 0-14 vertices, the header naming each,
# and the drawn pairs that keep every degree at most 3, so isolated vertices
# and several components are common and cubic components occur.
@st.composite
def _subcubic(draw):
    n = draw(st.integers(0, 14))
    ends = st.integers(0, max(n - 1, 0))
    degree = [0] * n
    edges = set()
    for u, v in draw(st.lists(st.tuples(ends, ends), min_size=n, max_size=3 * n)):
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and degree[u] < 3 and degree[v] < 3:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
    return "".join([f"p {n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in sorted(edges))])


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_subcubic(), seed=st.integers(0, (1 << 32) - 1))
def test_deg3_contract_fuzz(tmp_path, text, seed):
    """deg3 exits with a documented code and no traceback, and each size it
    reports is the exact search's."""
    f = tmp_path / "fuzz.edges"
    f.write_text(text, encoding="utf-8")
    sizes = {}
    for engine in ("deg3", "brute"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["min-set", "--k", "2", "--engine", engine,
                         "--rng-seed", str(seed), str(f)])
        assert code in (0, 1, 2, 3), (engine, text)
        assert "Traceback" not in err.getvalue(), (engine, text)
        sizes[engine] = json.loads(out.getvalue())["size"] if code == 0 else None
    if sizes["deg3"] is not None:
        assert sizes["deg3"] == sizes["brute"], text


# Pattern directories for torus-construct: the committed patterns, with a
# random subset deleted (None) or replaced by a 1-6 x 1-6 bitmap, now and
# then one with ragged rows, bad characters or raw bytes.
_PATTERNS = sorted(Path(ikcs.__file__).parent.joinpath("patterns").glob("*.txt"))


@st.composite
def _bitmap(draw):
    width = draw(st.integers(1, 6))
    row = st.text(alphabet="#.", min_size=width, max_size=width)
    return "\n".join(draw(st.lists(row, min_size=1, max_size=6))) + "\n"


_PATTERN_TEXT = st.one_of(
    _bitmap(), _bitmap(), _bitmap(), _bitmap(),
    st.lists(st.text(alphabet="#.", max_size=6), max_size=6).map("\n".join),
    st.lists(st.text(alphabet="#. x0\t", max_size=6), max_size=6).map("\n".join),
).map(str.encode)
_PATTERN_EDITS = st.dictionaries(
    st.sampled_from([src.name for src in _PATTERNS]),
    st.one_of(st.none(), _PATTERN_TEXT, _PATTERN_TEXT, st.binary(max_size=24)),
    max_size=len(_PATTERNS),
)


@settings(
    derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=_PATTERN_EDITS)
def test_torus_construct_pattern_fuzz(monkeypatch, edits):
    with tempfile.TemporaryDirectory() as tmp:
        for src in _PATTERNS:
            data = edits.get(src.name, src.read_bytes())
            if data is not None:
                Path(tmp, src.name).write_bytes(data)
        monkeypatch.setenv("IKCS_PATTERN_DIR", tmp)
        for m, n in ((6, 6), (7, 8), (8, 10), (9, 11), (4, 5), (5, 4), (4, 4)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["torus-construct", str(m), str(n), "--verify"])
            assert code in (0, 1, 2, 3), (m, n, edits)
            assert "Traceback" not in err.getvalue(), (m, n, edits)


def stock_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def written_json(obj) -> str:
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


# Payloads for the JSON writer: nested dicts with str keys (non-ASCII,
# control characters, quotes, backslashes), lists and tuples, ints with
# bools mixed in, runs of exact ints, equal-length int rows (lists or
# tuples) and ragged ones, and scalars: None, bools, ints past 2^63, floats
# with nan, +-inf and -0.0, strings.
_BIG_INT = st.integers(-(1 << 70), 1 << 70)
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x7f')),
    max_size=6,
)
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), _BIG_INT, st.floats(), _JSON_TEXT,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
_ROW = st.integers(0, 3).flatmap(
    lambda w: st.lists(
        st.one_of(st.lists(_BIG_INT, min_size=w, max_size=w),
                  st.tuples(*[_BIG_INT] * w)),
        max_size=9,
    )
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(_JSON_TEXT, kids, max_size=5),
        st.lists(_BIG_INT, max_size=9),
        st.lists(st.one_of(_BIG_INT, st.booleans()), max_size=9),
        _ROW,
        st.lists(st.lists(st.one_of(_BIG_INT, st.booleans()), max_size=3), max_size=6),
    ),
    max_leaves=40,
)


@settings(
    derandomize=True, max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(obj=_JSON_VALUE, chunk=st.sampled_from([1, 2, 3, JSON_CHUNK]))
def test_write_json_matches_stock_encoder(monkeypatch, obj, chunk):
    monkeypatch.setattr(ikcs.cli, "JSON_CHUNK", chunk)
    assert written_json(obj) == stock_json(obj)


def test_write_json_runs_past_one_chunk():
    ints = list(range(-7, 3 * JSON_CHUNK + 5))
    rows = [(i, -i) for i in range(2 * JSON_CHUNK + 1)]
    for obj in (
        ints, tuple(ints), rows, {"v": ints, "e": rows},
        ints + [True], ints + [None], rows + [(1, 2, 3)], rows + [(1, False)],
    ):
        assert written_json(obj) == stock_json(obj)


def test_write_json_refuses_non_str_keys(tmp_path, capsys, monkeypatch):
    for obj in ({1: 2}, {"a": {None: 1}}, [{(1,): 0}]):
        with pytest.raises(TypeError, match="keys must be str"):
            written_json(obj)
    monkeypatch.setattr(ikcs.cli, "_graph_payload", lambda g: {0: g.n})
    f = tmp_path / "p3.edges"
    f.write_text("p 3 2\n0 1\n1 2\n")
    assert main(["simulate", "--k", "2", "--seed", "0,2", str(f)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: TypeError: keys must be str, not int\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "2", "--seed", "0,2", "{p3}"],
    ["simulate", "--k", "2", "--seed", "0", "{p3}"],
    ["min-set", "--k", "2", "--engine", "brute", "{petersen}"],
    ["min-set", "--k", "2", "--engine", "auto", "--rng-seed", "5", "{petersen}"],
    ["reduce-sat", "{cnf}"],
    ["check-sat-equiv", "{cnf}"],
    ["torus-construct", "7", "8", "--verify", "--emit-grid"],
    ["polymatroid-debug", "--rng-seed", "3", "{inst}"],
], ids=["simulate", "simulate-stuck", "min-set-brute", "min-set-deg3", "reduce-sat",
        "check-sat-equiv", "torus-construct", "polymatroid-debug"])
def test_stdout_is_the_stock_encoding(tmp_path, capsys, monkeypatch, argv):
    """Each subcommand's stdout is the stock indented, key-sorted encoding
    of the payload it wrote, plus a newline."""
    files = {
        "p3": "p 3 2\n0 1\n1 2\n",
        "cnf": "p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n",
        "inst": json.dumps(random_instance(random.Random(7), 8, 6, w=16).to_json_dict()),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    write_petersen(tmp_path / "petersen")
    seen = []

    def spy(obj, out, level=0):  # the writer recurses through its module name
        if not level:
            seen.append(obj)
        write_json(obj, out, level)

    monkeypatch.setattr(ikcs.cli, "write_json", spy)
    main([a.format(**{k: tmp_path / k for k in ("p3", "petersen", "cnf", "inst")})
          for a in argv])
    out = capsys.readouterr().out
    assert len(seen) == 1
    assert out == stock_json(seen[0]) + "\n"


PINNED = Path(__file__).parent / "data" / "deg3_pinned.json"


def test_deg3_outputs_pinned_for_fixed_seeds(tmp_path, capsys):
    """stdout, stderr and exit code of `min-set --engine deg3` for a fixed
    --rng-seed on cubic n=48, cubic n=176, a 75-vertex graph with 25
    leaves and 11 degree-2 vertices (184 lines), and three whose lines
    split into several coordinate blocks: `bridged_chain(4)` (four blocks
    of 3), `k4_ring(3)` (one block of 10, nu below it, so six nu trials
    are ranked) and a 26-vertex graph with 5 leaves and 1 degree-2 vertex
    (blocks of 3, 4 and 5 coordinates), byte for byte."""
    for case in json.loads(PINNED.read_text()):
        path = tmp_path / f"{case['name']}.txt"
        path.write_text(
            f"p {case['n']} {len(case['edges'])}\n"
            + "".join(f"{u} {v}\n" for u, v in case["edges"])
        )
        code = main(["min-set", "--k", "2", "--engine", "deg3",
                     "--rng-seed", str(case["rng_seed"]), str(path)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["name"]


SCALE_PINNED = Path(__file__).parent / "data" / "deg3_scale_pinned.json"


def test_deg3_outputs_pinned_past_the_golden_corpus(tmp_path, capsys):
    """Exit code, stderr and the sha256 of stdout of `min-set --engine deg3`
    for a fixed --rng-seed on graphs past the golden corpus's n <= 176,
    where the GF(p) elimination spans several panels: cubic n=1000 (one
    block of 501 coordinates), `k4_ring(100)` (one block of 301),
    `bridged_chain(100)` (100 blocks of 3), the scaled subcubic shape at
    n=600, and that shape at n=300 bridged to `k4_ring(10)` (102 blocks,
    nu below the ring's block ceiling, so six nu trials are ranked).  A
    `graph_seed` seeds the generator's `Random`."""
    gens = {"random_cubic": random_cubic, "k4_ring": k4_ring,
            "bridged_chain": bridged_chain, "scaled_subcubic": scaled_subcubic,
            "bridged_subcubic": bridged_subcubic}
    for case in json.loads(SCALE_PINNED.read_text()):
        seed = case["graph_seed"]
        args = case["args"] if seed is None else [random.Random(seed)] + case["args"]
        g = gens[case["generator"]](*args)
        path = tmp_path / f"{case['name']}.txt"
        path.write_text(f"p {g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code = main(["min-set", "--k", "2", "--engine", "deg3",
                     "--rng-seed", str(case["rng_seed"]), str(path)])
        out = capsys.readouterr()
        digest = hashlib.sha256(out.out.encode()).hexdigest()
        assert (code, out.err, digest) == (
            case["exit"], case["stderr"], case["stdout_sha256"]
        ), case["name"]


POLYMATROID_PINNED = Path(__file__).parent / "data" / "polymatroid_pinned.json"


def test_polymatroid_debug_outputs_pinned_for_fixed_seeds(tmp_path, capsys):
    """stdout, stderr and exit code of `polymatroid-debug` for a fixed
    --rng-seed, byte for byte: random instances over GF(2^8/16/32/64), 18
    dense lines of dim 8 over GF(2^64) (nu at the ceiling dim // 2), 18
    lines on 6 of 8 coordinates (nu at the block ceiling, below dim // 2),
    14 lines in a 6-dimensional subspace of dim 8 that is not a coordinate
    one (nu below both ceilings) and 40 lines (no brute force, only the
    rank-checked extraction)."""
    path = tmp_path / "inst.json"
    for case in json.loads(POLYMATROID_PINNED.read_text()):
        path.write_text(json.dumps(case["instance"]))
        code = main(["polymatroid-debug", "--rng-seed", str(case["rng_seed"]), str(path)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["name"]


def inject_matching_failure(*args, **kw):
    raise ConsistencyError("injected matching failure")


@pytest.mark.parametrize(
    "fault, msg",
    [
        (inject_matching_failure, "injected matching failure"),
        (lambda *args, **kw: (), "spanning set does not convert the cubic graph"),
    ],
    ids=["raises", "not-converting"],
)
def test_component_solve_fails_on_first_fault(tmp_path, capsys, monkeypatch, fault, msg):
    """The deg3 solver runs each component's spanning-set solve once: a
    ConsistencyError from it, or a spanning set that does not convert the
    cubic graph, exits 3 with its own message, not after a silent retry."""
    f = tmp_path / "petersen.edges"
    write_petersen(f)
    calls = []
    spanning = ikcs.deg3.min_spanning_set

    def fail_once(*args, **kw):
        calls.append(args)
        return (fault if len(calls) == 1 else spanning)(*args, **kw)

    monkeypatch.setattr(ikcs.deg3, "min_spanning_set", fail_once)
    code, payload, err = run_cli(
        capsys, "min-set", "--k", "2", "--engine", "deg3", "--rng-seed", "5", str(f)
    )
    assert (code, payload, err) == (3, None, f"consistency failure: {msg}\n")
    assert len(calls) == 1


OPTIMIZED_CHECKS = """
import contextlib
import io
import json
import sys
import ikcs.deg3
import ikcs.percolation
import ikcs.polymatroid
from ikcs.cli import main
from ikcs.gf2 import PrimeField
from ikcs.polymatroid import PolymatroidInstance

k4, path5, cubic8, ring, ext = sys.argv[1:]
results = []

def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    results.append([code, err.getvalue().splitlines()[-1]])

def zero_first_b(lines, dim, fld):
    a, b = lines
    b = b.copy()
    b[0] = 0
    return PolymatroidInstance((a, b), dim, fld)

def flip_first_b(lines, dim, fld):
    a, b = lines
    b = b.copy()
    j = b[0].nonzero()[0][0]
    b[0, j] = -b[0, j]
    return PolymatroidInstance((a, b), dim, fld)

def fold_first_coordinate(lines, dim, fld):
    # x_1 += x_0, x_0 := 0: every line rank and edge column check passes
    a, b = (v.copy() for v in lines)
    for v in (a, b):
        v[:, 1] += v[:, 0]
        v[:, 0] = 0
    return PolymatroidInstance((a, b), dim, fld)

for mutate, path in ((zero_first_b, k4), (flip_first_b, k4), (fold_first_coordinate, cubic8)):
    ikcs.deg3.PolymatroidInstance = mutate
    run("min-set", "--k", "2", "--engine", "deg3", path)
ikcs.deg3.PolymatroidInstance = PolymatroidInstance

spread = ikcs.percolation._spread
ikcs.percolation._spread = lambda g, seed, k: [list(seed)]
run("simulate", "--k", "2", "--seed", "0,2", path5)
ikcs.percolation._spread = spread

ikcs.deg3.maxdeg2_witness = lambda g: (0, frozenset())
run("min-set", "--k", "2", "--engine", "deg3", path5)

eliminate = PrimeField._eliminate

def corrupt_inverse(self, a, cols=None):
    pivots = eliminate(self, a, cols)
    if cols is not None and pivots[0]:
        a[0, 0, cols + pivots[0][0]] = (a[0, 0, cols + pivots[0][0]] + 1) % self.p
    return pivots

PrimeField._eliminate = corrupt_inverse
run("min-set", "--k", "2", "--engine", "deg3", k4)

def drop_pivot(self, a, cols=None):
    pivots = eliminate(self, a, cols)
    return pivots if cols is None else [s[:-1] for s in pivots]

PrimeField._eliminate = drop_pivot
run("min-set", "--k", "2", "--engine", "deg3", k4)
PrimeField._eliminate = eliminate

# the ring's nu is below its block ceiling, so its nu trials are ranked;
# each fault below reaches only the trials' ranks
skew_rank = ikcs.polymatroid._skew_rank

def unskewed(fld, ys):
    ys[0][0, 0, 1] = (ys[0][0, 0, 1] + 1) % fld.p
    return skew_rank(fld, ys)

def dropped_pivots(fld, ys):
    independent = PrimeField.independent
    PrimeField.independent = lambda self, rows: [s[:-1] for s in independent(self, rows)]
    try:
        return skew_rank(fld, ys)
    finally:
        PrimeField.independent = independent

for fault in (unskewed, dropped_pivots):
    ikcs.polymatroid._skew_rank = fault
    run("min-set", "--k", "2", "--engine", "deg3", ring)
ikcs.polymatroid._skew_rank = skew_rank

# a GF(2^w) nu trial's Y(t) of rank 1
ikcs.polymatroid._skew_form_ext = lambda inst, idx, t: [[1]]
run("polymatroid-debug", "--rng-seed", "1", ext)
print(sys.flags.optimize, json.dumps(results))
"""


def test_consistency_checks_hold_under_python_O(tmp_path):
    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    path5 = tmp_path / "path5.txt"
    path5.write_text("0 1\n1 2\n2 3\n3 4\n")
    cubic8 = tmp_path / "cubic8.txt"
    cubic8.write_text("".join(f"{u} {v}\n" for u, v in random_cubic(random.Random(0), 8).edges))
    ring = tmp_path / "ring.txt"  # three K4 blocks in a ring
    ring.write_text("".join(f"{u} {v}\n" for u, v in k4_ring(3).edges))
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps(random_instance(random.Random(2), 4, 4, w=16).to_json_dict()))
    src = str(Path(ikcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS, *map(str, (k4, path5, cubic8, ring, ext))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    optimize, results = proc.stdout.splitlines()[-1].split(" ", 1)
    assert optimize == "1", proc.stderr
    messages = ("reads different columns at its ends",
                "reads different columns at its ends",
                "no edge column is a unit vector at cycle 0",
                "stuck set not self-certifying",
                "closed-form witness fails to convert",
                "principal inverse fails its check",
                "alternating matrix with odd rank",
                "skew rank of a matrix that is not alternating",
                "alternating matrix with odd rank",
                "alternating matrix with odd rank")
    got = json.loads(results)
    assert len(got) == len(messages), got
    for (code, line), msg in zip(got, messages):
        assert code == 3 and line.startswith("consistency failure:") and msg in line, got


INTERNAL_ERRORS = """
import sys
from ikcs.cli import main
from ikcs.gf2 import GF2Ext, PrimeField

def refuse(self, a):
    raise ZeroDivisionError("no inverse here")

PrimeField.inv = GF2Ext.inv = refuse
k4, inst = sys.argv[1:]
codes = [main(["min-set", "--k", "2", "--engine", "deg3", k4]),
         main(["polymatroid-debug", "--rng-seed", "1", inst])]
print(sys.flags.optimize, codes)
"""


def test_unexpected_errors_exit_three_under_python_O(tmp_path):
    """A field inverse that raises is a bug: exit 3, one stderr line per
    call, no traceback and no payload."""
    k4 = tmp_path / "k4.txt"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(random_instance(random.Random(3), 6, 4, w=16).to_json_dict()))
    src = str(Path(ikcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INTERNAL_ERRORS, str(k4), str(inst)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout == "1 [3, 3]\n", proc.stderr
    assert proc.stderr.splitlines() == [
        "internal error: ZeroDivisionError: no inverse here"
    ] * 2


def test_closed_stdout_pipe_exits_141():
    """A reader that stops after the first line is not an error: exit 141
    (128 + SIGPIPE), nothing on stderr, no complaint at interpreter exit."""
    src = str(Path(ikcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    # about 200 kB of payload, past any pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from ikcs.cli import main; sys.exit(main())",
         "torus-construct", "150", "150"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_no_assert_statements_in_package():
    """Checks are real raises, so they hold under `python -O`."""
    pkg = Path(ikcs.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_sources_parse_at_the_declared_python_floor():
    """Every module of the package, the tests and perfbench parses with the
    grammar of the oldest Python that pyproject.toml admits."""
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    paths = [p for d in ("src/ikcs", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    assert floor and len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))


def test_no_unused_imports_in_package():
    """Every name a package module or test file imports is referenced there
    or listed in its `__all__`; `__init__.py`, which only re-exports, is
    left out."""
    pkg = Path(ikcs.__file__).parent
    found = []
    for path in sorted(pkg.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items())
            if name not in used
        ]
    assert not found, found


def test_no_orphaned_private_definitions_in_package():
    """Every private function, class, method or module-level name defined in
    the package is read, as a name or an attribute, somewhere outside its
    own body."""
    pkg = Path(ikcs.__file__).parent
    defs, refs = [], Counter()

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    def own(node):
        """Reads of node's name inside node itself (recursion)."""
        return sum(
            n.attr == node.name if isinstance(n, ast.Attribute)
            else n.id == node.name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and private(target.id):
                        defs.append((path.name, node.lineno, target.id, 0))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if private(node.name):
                    defs.append((path.name, node.lineno, node.name, own(node)))

    found = [f"{name}:{line} {defined}" for name, line, defined, n in defs if refs[defined] == n]
    assert len(defs) > 50 and not found, found
