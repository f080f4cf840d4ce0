"""CLI fuzz: argv over every subcommand and mutated input files, run in process.

Every run must end in a documented exit code, 0, 2 (invalid input) or 3
(size cap), or 1 only under ``--strict``, and no exception may escape
``cli.run``. Numbers are drawn small and the trading caps are always small,
so no example builds a large game or enumeration.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regretgames.cli import run

STAGE = {
    "players": 2,
    "strategy_counts": [2, 2],
    "labels": [["up", "down"], ["left", "right"]],
    "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]],
}

#: One valid input file per format; examples mutate copies of these.
BASES = {
    "game.json": STAGE,
    "sequence.json": {"stages": [STAGE, "game.json"]},
    "pool.json": {"pool": [STAGE, "game.json"], "length": 2, "mode": "sampled",
                  "seed": 3, "samples": 2},
    "manifest.json": {"specs": [{"l": [5, 3], "T": 6, "k": 1},
                                {"l": [4, 2, 3], "T": 5, "k": 3}]},
    "announcements.json": [[2, 3], ["5/2", 4], [3, 2]],
}

KEYS = ("players", "strategy_counts", "labels", "payoffs", "stages", "pool", "length",
        "mode", "seed", "samples", "realization", "specs", "l", "T", "k")
SCALARS = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([1.5, True, False, None, "1/2", "x", "1/0", "", "exhaustive",
                     "sampled", "game.json", "missing.json"]),
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=2)),
    max_leaves=6,
)


def _rarely(data) -> bool:
    return data.draw(st.integers(0, 9)) == 9


def _pick(data, good, bad):
    """A draw from ``good``, or one from ``bad`` in about one example in ten."""
    return data.draw(bad if _rarely(data) else good)


def _number(data, low, high):
    return str(_pick(data, st.integers(low, high), st.integers(-2, 9)))


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated(data, base):
    obj = copy.deepcopy(base)
    for _ in range(data.draw(st.sampled_from((0, 0, 1, 2, 3)))):
        path = data.draw(st.sampled_from(list(_paths(obj))))
        action = data.draw(st.sampled_from(("replace", "delete", "add")))
        if not path:
            obj = data.draw(JUNK)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(KEYS))] = data.draw(JUNK)
        elif action == "add" and isinstance(node, list):
            node.append(data.draw(JUNK))
        else:
            parent[path[-1]] = data.draw(JUNK)
    return obj


def _argv(data, root):
    """argv for one subcommand: mostly well-formed, with rare bad flags and values."""
    argv = []

    def flag(name, value=None, *, optional=True):
        if not optional or data.draw(st.booleans()):
            argv.extend([name] if value is None else [name, value()])

    def file(name):
        broken = st.sampled_from(("missing.json", "bad.json"))
        return lambda: str(root / _pick(data, st.just(name), broken))

    def mode(*choices):
        return lambda: _pick(data, st.sampled_from(choices), st.just("none"))

    command = _pick(data, st.sampled_from(
        ("solve", "dominance", "bidding", "repeated", "trading", "verify")),
        st.sampled_from(("--schema", "nonsense")))
    if command in ("--schema", "nonsense"):
        return [command]
    if command == "solve":
        flag("--game", file("game.json"), optional=False)
        flag("--player", lambda: _number(data, 0, 2))
        flag("--mode", mode("full", "rational", "both"))
    elif command == "dominance":
        flag("--game", file("game.json"), optional=False)
        flag("--rounds", lambda: _number(data, 1, 3))
    elif command == "bidding":
        flag("--l", lambda: _pick(
            data,
            st.lists(st.integers(2, 6), min_size=2, max_size=3, unique=True).map(
                lambda vs: ",".join(map(str, vs))),
            st.sampled_from(("", "a,b", "3;2", "-1,4", "5"))), optional=False)
        flag("--T", lambda: _number(data, 7, 8), optional=False)
        flag("--k", lambda: _number(data, 1, 3), optional=False)
        flag("--mode", mode("both", "full", "rational"))
        flag("--verify")
        flag("--strict")
        flag("--dense-cap", lambda: _number(data, 0, 400))
    elif command == "repeated":
        if data.draw(st.booleans()):
            flag("--sequence", file("sequence.json"), optional=False)
        else:
            flag("--random", file("pool.json"), optional=False)
        if _rarely(data):
            argv.extend(["--sequence", str(root / "sequence.json")])
        flag("--mode", mode("rational", "full"))
        flag("--strict")
        flag("--dense-cap", lambda: _number(data, 0, 3000))
        flag("--realization-cap", lambda: _number(data, 0, 8))
    elif command == "trading":
        for name in ("--m1", "--m2"):
            flag(name, lambda: _number(data, 1, 2), optional=False)
        for name in ("--M1", "--M2"):
            flag(name, lambda: _number(data, 3, 4), optional=False)
        flag("--t", lambda: _number(data, 3, 4), optional=False)
        flag("--K", lambda: _number(data, 1, 2), optional=False)
        flag("--mode", mode("both", "full", "rational"))
        flag("--grid-step", lambda: _pick(data, st.sampled_from(("1", "1/2")),
                                          st.sampled_from(("0", "-1", "x"))))
        action = data.draw(st.sampled_from(("", "--oracle", "--simulate", "--audit-single")))
        if action == "--oracle":
            flag("--oracle", optional=False)
            flag("--sweep")
        elif action == "--simulate":
            flag("--simulate", file("announcements.json"), optional=False)
        elif action:
            flag(action, optional=False)
        # the default cap allows enumerations far too slow for a fuzz example
        argv.extend(["--enum-cap", _number(data, 50, 400)])
    elif command == "verify":
        flag("--manifest", file("manifest.json"), optional=False)
        flag("--strict")
        flag("--dense-cap", lambda: _number(data, 0, 400))
    flag("--format", lambda: _pick(data, st.sampled_from(("json", "csv", "text")),
                                   st.just("xml")))
    flag("--output", lambda: str(root / _pick(
        data, st.just("out.txt"), st.sampled_from(("nodir/out.txt", ".")))))
    if _rarely(data):
        argv.append("--bogus")
    if argv and _rarely(data):
        del argv[data.draw(st.integers(0, len(argv) - 1))]
    return [command] + argv


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_with_a_documented_code(tmp_path, data):
    mutated = data.draw(st.sampled_from(tuple(BASES)))
    for name, base in BASES.items():
        (tmp_path / name).write_text(json.dumps(_mutated(data, base) if name == mutated else base))
    (tmp_path / "bad.json").write_text("{not json")
    argv = _argv(data, tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    allowed = (0, 1, 2, 3) if "--strict" in argv else (0, 2, 3)
    assert code in allowed, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
