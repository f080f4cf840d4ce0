import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from regretgames import cli, game_from_json, game_to_json, load_game, save_game
from regretgames.cli import run
from support import FIRST_ERRORS, anchor_game


@pytest.fixture()
def game_file(tmp_path):
    path = tmp_path / "game.json"
    save_game(anchor_game(), path)
    return path


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_anchor(game_file, capsys):
    code, out, _ = run_capture(
        capsys, ["solve", "--game", str(game_file), "--player", "0", "--mode", "full"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"] == [
        {
            "player": 0,
            "restriction": "full",
            "minimax_regret": "1",
            "argmin": [1],
            "worst_regret_per_strategy": ["3", "1"],
        }
    ]
    assert payload["input"]["game"] == game_to_json(anchor_game())


def test_solve_canonical_pick_with_labels(tmp_path, capsys):
    from regretgames import make_dense_game

    labeled = make_dense_game(
        (2, 2),
        [[[4, 0], [0, 3]], [[3, 1], [3, 2]]],
        labels=[["up", "down"], ["left", "right"]],
    )
    path = tmp_path / "labeled.json"
    save_game(labeled, path)
    code, out, _ = run_capture(capsys, ["solve", "--game", str(path), "--player", "0"])
    assert code == 0
    assert json.loads(out)["canonical_picks"] == [
        {"player": 0, "restriction": "full", "canonical_pick": 1, "label": "down"}
    ]


def test_solve_player_solves_that_player_only(tmp_path, capsys, monkeypatch):
    from regretgames import make_dense_game, solver

    cells = [[[[a + 2 * b, b * c, a - c] for c in range(2)] for b in range(2)] for a in range(2)]
    path = tmp_path / "three.json"
    save_game(make_dense_game((2, 2, 2), cells), path)
    solved = []
    minimax_regret = solver.minimax_regret
    monkeypatch.setattr(solver, "minimax_regret",
                        lambda game, player, restriction=None: solved.append(player)
                        or minimax_regret(game, player, restriction))
    code, out, _ = run_capture(capsys, ["solve", "--game", str(path), "--player", "1",
                                        "--mode", "both"])
    assert code == 0 and solved == [1, 1]
    assert [(r["player"], r["restriction"]) for r in json.loads(out)["reports"]] == [
        (1, "full"), (1, "rational")]


def test_solve_byte_identical_runs(game_file, capsys):
    _, first, _ = run_capture(capsys, ["solve", "--game", str(game_file)])
    _, second, _ = run_capture(capsys, ["solve", "--game", str(game_file)])
    assert first == second


def test_solve_output_file_and_csv(game_file, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_capture(
        capsys,
        ["solve", "--game", str(game_file), "--format", "csv", "--output", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "player,restriction,minimax_regret,argmin,worst_regret_per_strategy"
    assert lines[1] == "0,full,1,1,3;1"


def test_dominance_command(game_file, capsys):
    code, out, _ = run_capture(capsys, ["dominance", "--game", str(game_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["rational_sets"][1]["allowed"] == [1]


def test_bidding_verify_strict_second_price(capsys):
    code, out, _ = run_capture(
        capsys, ["bidding", "--l", "6,4", "--T", "10", "--k", "2", "--verify", "--strict"]
    )
    assert code == 0
    assert json.loads(out)["verification"]["all_match"] is True


def test_bidding_verify_strict_divergence_exit(capsys):
    code, out, _ = run_capture(
        capsys, ["bidding", "--l", "6,4", "--T", "10", "--k", "1", "--verify", "--strict"]
    )
    assert code == 1
    assert json.loads(out)["verification"]["all_match"] is False


def test_bidding_invalid_spec_exit_two(capsys):
    code, _, err = run_capture(capsys, ["bidding", "--l", "6,4", "--T", "3", "--k", "1"])
    assert code == 2
    assert "valuation < grid size" in err


def test_unknown_flag_exit_two(capsys):
    code, _, err = run_capture(capsys, ["solve", "--nonsense"])
    assert code == 2
    assert "usage" in err


def test_audit_single_rejects_zero_iterations(capsys):
    # an explicit --t 0 must reach the audit's own check, not fall back to t=3
    code, out, err = run_capture(
        capsys, ["trading", "--audit-single", "--m1", "2", "--M1", "10", "--t", "0"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: need at least 2 iterations, got 0\n"


def test_audit_single_refuses_a_grid_step_other_than_one(capsys):
    # the audit runs on the unit grid only, so it must not drop the flag silently
    argv = ["trading", "--audit-single", "--m1", "2", "--M1", "4"]
    assert_one_line_input_error(capsys, argv + ["--grid-step", "1/2"],
                                "--audit-single runs on the unit grid, got --grid-step 1/2")
    assert run_capture(capsys, argv + ["--grid-step", "2/2"]) == run_capture(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["bidding", "--l", "3,2", "--T", "4", "--k", "1", "--dense-cap", "-5"],
    ["repeated", "--sequence", "unused.json", "--realization-cap", "-1"],
    ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "4", "--t", "2",
     "--K", "1", "--oracle", "--enum-cap", "-3"],
])
def test_negative_caps_exit_two(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: must be a non-negative integer" in err
    assert "Traceback" not in err


def test_schema_flag(capsys):
    code, out, _ = run_capture(capsys, ["--schema"])
    assert code == 0
    schemas = json.loads(out)
    assert set(schemas) == {"game", "sequence", "random_game", "announcements", "manifest"}


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    outputs = [
        subprocess.run([sys.executable, "-m", module, "--schema"], env=env,
                       capture_output=True, check=True).stdout
        for module in ("regretgames", "regretgames.cli")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "inline.json").write_text('{"stages": [' + deep + "]}")
    (tmp_path / "named.json").write_text(json.dumps({"stages": ["deep.json"]}))
    for argv, culprit in (
        (["solve", "--game", "deep.json"], "deep.json"),
        (["repeated", "--sequence", "inline.json"], "inline.json"),
        (["repeated", "--sequence", "named.json"], "deep.json"),
    ):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / culprit} is not valid JSON: nested too deeply\n"


def test_games_with_many_players_echo_without_recursion(tmp_path, capsys):
    """One strategy each for 900 players: one cell, 900 axes deep."""
    players = 900
    payoffs = [0] * players
    for _ in range(players):
        payoffs = [payoffs]
    path = tmp_path / "many.json"
    path.write_text(json.dumps(
        {"players": players, "strategy_counts": [1] * players, "payoffs": payoffs}))
    for command in ("solve", "dominance"):
        code, out, err = run_capture(capsys, [command, "--game", str(path)])
        assert code == 0, err
        assert game_from_json(json.loads(out)["input"]["game"]) == load_game(path)


def test_no_command_exit_two(capsys):
    code, _, err = run_capture(capsys, [])
    assert code == 2


def test_repeated_sequence(tmp_path, capsys):
    stage = {
        "players": 2,
        "strategy_counts": [2, 2],
        "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]],
    }
    stage_path = tmp_path / "stage.json"
    stage_path.write_text(json.dumps(stage))
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"stages": ["stage.json", stage]}))
    code, out, _ = run_capture(capsys, ["repeated", "--sequence", str(seq_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["all_pass"] is True


def test_sequence_and_pool_files_load_each_game_file_once(tmp_path, capsys):
    stage = {"players": 2, "strategy_counts": [2, 2],
             "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]]}
    (tmp_path / "a.json").write_text(json.dumps(stage))
    (tmp_path / "b.json").write_text(json.dumps(stage))
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"stages": ["a.json", stage, "a.json", "b.json", stage]}))
    a, inline, a_again, b, inline_again = cli._load_sequence(seq_path).stages
    assert a is a_again
    assert a == b == inline and len({id(a), id(b), id(inline), id(inline_again)}) == 4
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps({"pool": ["b.json", "b.json"], "length": 2,
                                     "mode": "exhaustive"}))
    first, second = cli._load_random_spec(pool_path).pool
    assert first is second
    # the first failing entry is still the one named
    seq_path.write_text(json.dumps({"stages": ["a.json", "missing.json", "missing.json", 7]}))
    code, _, err = run_capture(capsys, ["repeated", "--sequence", str(seq_path)])
    assert code == 2 and "missing.json" in err and "game entry" not in err


def test_repeated_random_sampled_requires_seed(tmp_path, capsys):
    stage = {
        "players": 2,
        "strategy_counts": [2, 2],
        "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]],
    }
    spec_path = tmp_path / "random.json"
    spec_path.write_text(json.dumps({"pool": [stage], "length": 2, "mode": "sampled"}))
    code, _, err = run_capture(capsys, ["repeated", "--random", str(spec_path)])
    assert code == 2
    assert "seed" in err


def test_repeated_size_cap_exit_three(tmp_path, capsys):
    values0 = [20, 1, 2, 3, 4, 5, 6, 7, 0]
    values1 = [0, 1, 2, 3, 4, 5, 6, 7, 22]
    stage = {
        "players": 2,
        "strategy_counts": [3, 3],
        "payoffs": [
            [[values0[a * 3 + b], values1[a * 3 + b]] for b in range(3)]
            for a in range(3)
        ],
    }
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"stages": [stage, stage, stage]}))
    code, _, err = run_capture(capsys, ["repeated", "--sequence", str(seq_path)])
    assert code == 3
    assert "history strategies" in err


def test_repeated_exactly_one_input(capsys):
    code, _, _ = run_capture(capsys, ["repeated"])
    assert code == 2


def test_trading_describe(capsys):
    code, out, _ = run_capture(
        capsys,
        ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3", "--K", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["single_agent_thresholds"] == ["2", "2"]
    assert payload["strategies"][0]["params"]["early_threshold"] == "7/2"


def test_trading_simulate_jsonl(tmp_path, capsys):
    ann_path = tmp_path / "ann.json"
    ann_path.write_text(json.dumps([[3, 2], [5, 6], [4, 3]]))
    code, out, _ = run_capture(
        capsys,
        ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3",
         "--K", "1", "--mode", "full", "--simulate", str(ann_path), "--format", "text"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # one record per iteration plus the outcome
    first = json.loads(lines[0])
    assert first["iteration"] == 1
    assert json.loads(lines[-1])["outcome"]["payoffs"] == ["5", "6"]


def test_trading_oracle_with_sweep(capsys):
    code, out, _ = run_capture(
        capsys,
        ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "4", "--t", "3",
         "--K", "1", "--mode", "full", "--oracle", "--sweep"],
    )
    assert code == 0
    payload = json.loads(out)
    entry = payload["oracle"][0]
    assert entry["worst_case_regret"] == "4"
    assert entry["sweep"]["reference_optimal"] is True


def test_trading_long_horizon_runs_within_a_raised_cap(capsys):
    # the kernel walks the horizon forward, so no recursion limit applies
    code, out, err = run_capture(
        capsys,
        ["trading", "--m1", "1", "--M1", "2", "--m2", "1", "--M2", "2", "--t", "1200",
         "--K", "1", "--oracle", "--sweep", "--enum-cap", str(10**1000), "--format", "csv"],
    )
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["player", "mode", "strategy", "worst_case_regret", "optimal"]
    assert [row[:2] for row in rows[1:]] == [["0", "full"], ["1", "full"],
                                            ["0", "rational"], ["1", "rational"]]


def test_trading_enum_cap_exit_three(capsys):
    code, _, err = run_capture(
        capsys,
        ["trading", "--m1", "1", "--M1", "60", "--m2", "1", "--M2", "60", "--t", "4",
         "--K", "1", "--oracle"],
    )
    assert code == 3


def test_bidding_cell_cap_exit_three(capsys):
    code, out, err = run_capture(capsys, ["bidding", "--l", "2,3,4,5", "--T", "31", "--k", "1"])
    assert code == 3 and out == ""
    assert "1048576 payoff cells (cap 1000000)" in err
    assert len(err.strip().splitlines()) == 1


def test_trading_simulate_text_to_output_file(tmp_path, capsys):
    ann_path = tmp_path / "ann.json"
    ann_path.write_text(json.dumps([[3, 2], [5, 6], [4, 3]]))
    argv = ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3",
            "--K", "1", "--mode", "full", "--simulate", str(ann_path), "--format", "text"]
    _, stdout, _ = run_capture(capsys, argv)
    out_path = tmp_path / "trace.jsonl"
    code, written, _ = run_capture(capsys, argv + ["--output", str(out_path)])
    assert code == 0 and written == ""
    assert out_path.read_bytes() == stdout.encode("utf-8")


def test_trading_fractional_grid_witness_is_json(capsys):
    code, out, _ = run_capture(
        capsys,
        ["trading", "--m1", "1", "--M1", "2", "--m2", "1", "--M2", "3", "--t", "3",
         "--K", "1", "--grid-step", "1/2", "--mode", "full", "--oracle"],
    )
    assert code == 0
    witness = json.loads(out)["oracle"][1]["witness"]
    assert witness["announcements"][0] == [1, "3/2"]


def test_trading_sweep_candidate_cap_exit_three(capsys):
    code, out, err = run_capture(
        capsys,
        ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "2", "--t", "3",
         "--K", "1", "--mode", "full", "--oracle", "--sweep", "--enum-cap", "600"],
    )
    assert code == 3 and out == ""
    assert "1000 candidate rules (cap 600)" in err


def test_trading_audit_single_cap_exit_three(capsys):
    code, _, err = run_capture(
        capsys,
        ["trading", "--audit-single", "--m1", "2", "--M1", "10", "--t", "3", "--enum-cap", "700"],
    )
    assert code == 3
    assert "729 announcement sequences (cap 700)" in err


def test_trading_audit_single(capsys):
    code, out, _ = run_capture(
        capsys, ["trading", "--audit-single", "--m1", "2", "--M1", "10", "--t", "3"]
    )
    assert code == 0
    audit = json.loads(out)["single_agent_audit"]
    assert audit["closed_form_threshold"] == "4"
    assert audit["best_stationary_thresholds"] == ["6", "7"]


def test_verify_manifest(tmp_path, capsys):
    manifest = {"specs": [{"l": [6, 4], "T": 10, "k": 2}, {"l": [5, 3], "T": 8, "k": 2}]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_capture(capsys, ["verify", "--manifest", str(path), "--strict"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatch_count"] == 0
    assert len(payload["reports"]) == 2


def test_verify_manifest_strict_divergence(tmp_path, capsys):
    manifest = {"specs": [{"l": [6, 4], "T": 10, "k": 1}]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_capture(capsys, ["verify", "--manifest", str(path), "--strict"])
    assert code == 1
    assert json.loads(out)["mismatch_count"] > 0


def test_text_format_renders(game_file, capsys):
    code, out, _ = run_capture(capsys, ["solve", "--game", str(game_file), "--format", "text"])
    assert code == 0
    assert "minimax_regret: 1" in out


def assert_one_line_input_error(capsys, argv, fragment):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err


def test_game_file_rejects_non_integer_strategy_counts(tmp_path, capsys):
    obj = game_to_json(anchor_game())
    obj["strategy_counts"] = [2.7, True]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    assert_one_line_input_error(capsys, ["solve", "--game", str(path)],
                                "strategy count must be an integer, got 2.7")


def test_pool_file_rejects_string_length(tmp_path, capsys):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(
        {"pool": [game_to_json(anchor_game())], "length": "2", "mode": "exhaustive"}
    ))
    assert_one_line_input_error(capsys, ["repeated", "--random", str(path)],
                                "length must be an integer, got '2'")


def test_manifest_rejects_string_grid_size(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"specs": [{"l": [6, 4], "T": "10", "k": 2}]}))
    assert_one_line_input_error(capsys, ["verify", "--manifest", str(path)],
                                "grid size (T) must be an integer, got '10'")


@pytest.mark.parametrize("key, value", [
    ("seed", "7"), ("samples", 1.0), ("realization", [0, True]), ("realization", 0),
    ("pool", 5),
])
def test_pool_file_rejects_other_non_integers(tmp_path, capsys, key, value):
    obj = {"pool": [game_to_json(anchor_game())], "length": 2, "mode": "sampled", "seed": 1,
           key: value}
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(obj))
    assert_one_line_input_error(capsys, ["repeated", "--random", str(path)], "must be")


@pytest.mark.parametrize("entry", [
    {"l": [6, 4.0], "T": 10, "k": 2}, {"l": 6, "T": 10, "k": 2}, {"l": [6, 4], "T": 10, "k": True},
])
def test_manifest_rejects_other_non_integers(tmp_path, capsys, entry):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"specs": [entry]}))
    assert_one_line_input_error(capsys, ["verify", "--manifest", str(path)], "must be")


@pytest.mark.parametrize("player", ["5", "-1"])
def test_solve_rejects_out_of_range_player(game_file, capsys, player):
    # -1 used to index from the end and report player 1 as "player": -1
    assert_one_line_input_error(capsys, ["solve", "--game", str(game_file), "--player", player],
                                f"player {player} out of range 0..1")


def test_game_file_rejects_non_list_labels(tmp_path, capsys):
    obj = game_to_json(anchor_game())
    obj["labels"] = [5, 6]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    assert_one_line_input_error(capsys, ["solve", "--game", str(path)],
                                "labels of player 0 must be a list of strings")


def test_manifest_rejects_non_list_specs(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"specs": 5}))
    assert_one_line_input_error(capsys, ["verify", "--manifest", str(path)],
                                "manifest files need a 'specs' array")


def test_unwritable_output_exit_two(game_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert_one_line_input_error(
        capsys, ["solve", "--game", str(game_file), "--output", str(target)], "cannot write"
    )


def test_bidding_dense_cap_changes_nothing(capsys):
    argv = ["bidding", "--l", "5,11,16", "--T", "20", "--k", "1"]
    assert run_capture(capsys, argv + ["--dense-cap", "9260"]) == run_capture(capsys, argv)


@pytest.mark.parametrize("announcements", [5, [5], [None]])
def test_simulate_rejects_non_pair_announcements(tmp_path, capsys, announcements):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(announcements))
    argv = ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3",
            "--K", "1", "--simulate", str(path)]
    assert_one_line_input_error(capsys, argv, "announcements must be a list of pairs")



def test_files_that_are_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    for argv in (
        ["solve", "--game", str(path)],
        ["repeated", "--sequence", str(path)],
        ["verify", "--manifest", str(path)],
        ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3",
         "--K", "1", "--simulate", str(path)],
    ):
        assert_one_line_input_error(capsys, argv, f"{path} is not UTF-8")


_SIMULATE = ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3",
             "--K", "1", "--simulate", ""]


@pytest.mark.parametrize("argv, fragment", [
    (["repeated", "--sequence", ""], "cannot read"),
    (_SIMULATE, "cannot read"),
    (_SIMULATE + ["--oracle"], "--simulate and --oracle cannot be combined"),
    (["bidding", "--l", "3,2", "--T", "4", "--k", "1", "--output", ""], "cannot write"),
], ids=["sequence", "simulate", "simulate-and-oracle", "output"])
def test_empty_path_flags_exit_two(capsys, argv, fragment):
    assert_one_line_input_error(capsys, argv, fragment)

_STAGE = {"players": 2, "strategy_counts": [2, 2],
          "payoffs": [[[10, 9], [0, 0]], [[1, 3], [2, 1]]]}
_TRADING = ["trading", "--m1", "1", "--M1", "2"]


@pytest.mark.parametrize("argv, file", [
    (_TRADING + ["--m2", "1", "--M2", "2", "--t", "10000", "--K", "1", "--oracle"], None),
    (_TRADING + ["--t", "20000", "--audit-single"], None),
    (["repeated", "--sequence"], {"stages": [_STAGE] * 14}),
    (["repeated", "--sequence"], {"stages": [_STAGE] * 18}),
    (["repeated", "--sequence"], {"stages": [_STAGE] * 40}),
    (["repeated", "--random"], {"pool": [_STAGE, _STAGE], "length": 10**12,
                                "mode": "exhaustive"}),
    (["repeated", "--realization-cap", "10", "--random"],
     {"pool": [_STAGE], "length": 2, "mode": "sampled", "seed": 1, "samples": 11}),
    (["repeated", "--random"], {"pool": [_STAGE], "length": 10**12, "mode": "exhaustive"}),
    (["repeated", "--random"], {"pool": [_STAGE, _STAGE], "length": 10**8, "mode": "sampled",
                                "seed": 1, "samples": 1}),
], ids=["oracle-t10000", "audit-t20000", "sequence-14", "sequence-18", "sequence-40",
        "exhaustive-length-1e12", "sampled-over-cap", "one-game-pool-length-1e12",
        "sampled-pool-length-1e8"])
def test_sizes_far_past_the_cap_exit_three_at_once(tmp_path, capsys, argv, file):
    # each of these counts has thousands of digits or more, or its inputs
    # would be built before the check; all must fail fast with one line
    if file is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(file))
        argv = argv + [str(path)]
    code, out, err = run_capture(capsys, argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "(cap " in err


def test_consecutive_runs_match_separate_runs(game_file, capsys):
    # the parser is built once per process; no command may leave state in it
    argvs = [
        ["solve", "--game", str(game_file), "--mode", "rational", "--format", "csv"],
        ["solve", "--game", str(game_file)],
        ["bidding", "--l", "3,5", "--T", "6", "--k", "2", "--verify", "--format", "text"],
        ["solve", "--bogus"],
        ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "4", "--t", "3",
         "--K", "1", "--mode", "full", "--grid-step", "1/2", "--oracle", "--sweep"],
        ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "4", "--t", "3", "--K", "1"],
        ["dominance", "--game", str(game_file), "--rounds", "2"],
        ["dominance", "--game", str(game_file)],
    ]
    separate = []
    for argv in argvs:
        cli._parser.cache_clear()
        separate.append(run_capture(capsys, argv))
    assert [run_capture(capsys, argv) for argv in argvs] == separate
    assert [code for code, _, _ in separate] == [0, 0, 0, 2, 0, 0, 0, 0]


def test_trading_sweep_needs_oracle(capsys):
    argv = ["trading", "--m1", "1", "--M1", "4", "--m2", "1", "--M2", "4", "--t", "3",
            "--K", "1", "--sweep"]
    assert_one_line_input_error(capsys, argv, "--sweep needs --oracle")


_BAND = ["trading", "--m1", "2", "--M1", "6", "--m2", "2", "--M2", "6", "--t", "3", "--K", "1"]


@pytest.mark.parametrize("flags, message", [
    (["--simulate", "ANN", "--oracle"], "--simulate and --oracle cannot be combined"),
    (["--simulate", "ANN", "--oracle", "--sweep"], "--simulate and --oracle cannot be combined"),
    (["--audit-single", "--oracle"], "--audit-single and --oracle cannot be combined"),
    (["--audit-single", "--oracle", "--sweep"], "--audit-single and --oracle cannot be combined"),
    (["--audit-single", "--simulate", "ANN"], "--audit-single and --simulate cannot be combined"),
])
def test_trading_takes_one_action(tmp_path, capsys, flags, message):
    # each action prints the whole output, so before it kept one and dropped the rest
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([[3, 2], [5, 6], [4, 3]]))
    argv = _BAND + [str(path) if flag == "ANN" else flag for flag in flags]
    assert_one_line_input_error(capsys, argv, message)
    if "--oracle" in flags:  # the other action alone still runs
        assert run_capture(capsys, [f for f in argv if f not in ("--oracle", "--sweep")])[0] == 0


@pytest.mark.parametrize("flags", [["--simulate", "ANN"], []], ids=["simulate", "no-action"])
def test_grid_step_needs_the_oracle(tmp_path, capsys, flags):
    # only the oracle and its sweep walk a grid, so a step elsewhere is refused, not dropped
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([[3, 2], [5, 6], [4, 3]]))
    argv = _BAND + [str(path) if flag == "ANN" else flag for flag in flags]
    for step in ("2", "3/7"):
        assert_one_line_input_error(capsys, argv + ["--grid-step", step],
                                    f"--grid-step needs --oracle, got --grid-step {step}")
    code, out, _ = run_capture(capsys, argv + ["--grid-step", "2/2"])
    assert code == 0 and (code, out) == run_capture(capsys, argv)[:2]


@pytest.mark.parametrize("text", ["1e-10000000", "0.5"])
def test_grid_step_takes_only_exact_rationals(capsys, text):
    code, out, err = run_capture(capsys, _BAND + ["--oracle", "--grid-step", text])
    assert code == 2 and out == ""
    assert f"not a rational number: '{text}'" in err.splitlines()[-1]


@pytest.mark.parametrize("text", ["1e-10000000", "1.5"])
def test_announcements_take_only_exact_rationals(tmp_path, capsys, text):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps([[text, 3], [4, 5], [5, 5]]))
    assert_one_line_input_error(
        capsys, _BAND + ["--simulate", str(path)], f"not a rational number: '{text}'"
    )


def test_exponent_payoff_exits_two_at_once(tmp_path, capsys):
    # Fraction("1e-10000000") builds a ten-million-digit power of ten
    obj = game_to_json(anchor_game())
    obj["payoffs"][0][0][0] = "1e-10000000"
    path = tmp_path / "game.json"
    path.write_text(json.dumps(obj))
    started = time.perf_counter()
    assert_one_line_input_error(
        capsys, ["solve", "--game", str(path)], "not a rational number: '1e-10000000'"
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv, err", [
    ("--m1 1 --M1 200000 --m2 1 --M2 6 --t 3 --K 1 --oracle",
     "the oracle would enumerate 1728000000000000000 announcement sequences (cap 250000)"),
    ("--m1 1 --M1 6 --m2 1 --M2 6 --t 3 --K 1 --oracle --grid-step 1/150",
     "the oracle would enumerate 179407098289692001 announcement sequences (cap 250000)"),
    ("--audit-single --m1 1 --M1 2000000",
     "the audit would enumerate 8000000000000000000 announcement sequences (cap 250000)"),
], ids=["wide-band", "fine-step", "wide-audit"])
def test_trading_grids_are_sized_before_they_are_built(capsys, argv, err):
    started = time.perf_counter()
    tracemalloc.start()
    try:
        assert run_capture(capsys, ["trading", *argv.split()]) == (3, "", f"error: {err}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 1.0 and peak < 2**20


@pytest.mark.parametrize("payoffs, err", FIRST_ERRORS, ids=[
    "value-before-value", "value-before-shape", "shape-before-value", "axis-before-value",
    "value-before-bool", "cell-not-a-list"])
def test_game_files_name_the_first_bad_entry_in_cell_order(tmp_path, capsys, payoffs, err):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "strategy_counts": [2, 2], "payoffs": payoffs}))
    for command in ("solve", "dominance"):
        assert_one_line_input_error(capsys, [command, "--game", str(path)], err)


def test_games_of_985_players_run_in_every_format(tmp_path):
    """One strategy each for 985 players, which json.loads still reads at the
    top of a fresh interpreter: every output format is written, and the json
    echo reads back as the same game."""
    players = 985
    cell = json.dumps([f"{p}/2" for p in range(players)])
    path = tmp_path / "g985.json"  # written by hand: json.dumps would recurse too deep here
    path.write_text(f'{{"players": {players}, "strategy_counts": {[1] * players}, '
                    f'"payoffs": {"[" * players}{cell}{"]" * players}}}')
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for command in ("solve", "dominance"):
        for fmt in ("json", "text", "csv"):
            out = tmp_path / f"{command}.{fmt}"
            done = subprocess.run(
                [sys.executable, "-m", "regretgames", command, "--game", str(path),
                 "--format", fmt, "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), (command, fmt)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:  # json.loads recurses once per level
        for command in ("solve", "dominance"):
            echo = json.loads((tmp_path / f"{command}.json").read_text())["input"]["game"]
            assert game_from_json(echo) == load_game(path)
    finally:
        sys.setrecursionlimit(limit)
