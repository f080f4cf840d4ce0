import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgames import (
    Game,
    InputError,
    game_from_json,
    game_to_json,
    load_game,
    make_dense_game,
    save_game,
)
from regretgames import game as game_module
from regretgames.game import json_text
from regretgames.rational import parse_rational, rational_column
from support import (FIRST_ERRORS, affine_transform, anchor_game, game_from_cells,
                     game_to_json_reference, payoffs, rational_reference)


def test_dense_construction_and_reads():
    g = anchor_game()
    assert g.player_count == 2
    assert g.strategy_counts == (2, 2)
    assert g.payoff((0, 0), 0) == 4
    assert g.payoff((1, 1), 1) == 2


def test_dimension_error_names_axis():
    with pytest.raises(InputError, match="axis 1"):
        make_dense_game((2, 2), [[[4, 0], [0, 3], [9, 9]], [[3, 1], [3, 2]]])


def test_asymmetric_counts():
    table = [[[1, 0], [2, 0], [3, 0]], [[4, 0], [5, 0], [6, 0]]]
    g = make_dense_game((2, 3), table)
    assert g.payoff((1, 2), 0) == 6
    assert len(g.payoff_matrix(1)[0][0]) == 2  # one column per opponent profile


def test_cell_must_list_one_payoff_per_player():
    with pytest.raises(InputError, match="cell"):
        make_dense_game((2, 2), [[[4], [0, 3]], [[3, 1], [3, 2]]])
    with pytest.raises(InputError, match="floats are not accepted"):
        make_dense_game((2, 2), [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(InputError, match="2 scales"):
        Game((2, 2), rows=[[[1, 2], [3, 4]], [[1, 3], [2, 4]]], scales=[1])


def test_payoff_validates_ranges():
    g = anchor_game()
    with pytest.raises(InputError):
        g.payoff((2, 0), 0)
    with pytest.raises(InputError):
        g.payoff((0, 0), 5)
    with pytest.raises(InputError):
        g.payoff((0,), 0)


def test_affine_transform():
    g = anchor_game()
    assert affine_transform(g, 0, 1, 0) == g
    doubled = affine_transform(g, 0, 2, 0)
    assert doubled.payoff((0, 0), 0) == 8
    assert doubled.payoff((0, 0), 1) == 0  # other players untouched
    shifted = affine_transform(g, 0, Fraction(1, 2), -4)
    assert shifted.payoff((0, 0), 0) == -2
    assert shifted.payoff((1, 1), 0) == Fraction(-5, 2)


def test_labels_validation():
    make_dense_game((2, 2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                    labels=[["a", "b"], ["x", "y"]])
    with pytest.raises(InputError):
        make_dense_game((2, 2), [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                        labels=[["a"], ["x", "y"]])


def test_json_round_trip_bit_exact(tmp_path):
    g = make_dense_game(
        (2, 2),
        [[["1/3", 1], [0, "7/2"]], [[2, "-5/4"], ["0", 3]]],
        labels=[["low", "high"], ["l", "r"]],
    )
    path = tmp_path / "game.json"
    save_game(g, path)
    text_once = path.read_text()
    reloaded = load_game(path)
    assert reloaded == g
    save_game(reloaded, path)
    assert path.read_text() == text_once
    # canonical emission: integral rationals serialize as ints
    obj = game_to_json(g)
    assert obj["payoffs"][0][0] == ["1/3", 1]


def test_equality_is_by_value_however_the_game_was_built():
    # player 0's numerators 2, 4, 6, 8 over 4 are 1/2, 1, 3/2, 2
    scaled = Game((2, 2), rows=[[[2, 4], [6, 8]], [[0, 6], [3, 9]]], scales=[4, 3])
    assert scaled.payoff((1, 0), 0) == Fraction(3, 2)
    assert game_from_json(game_to_json(scaled)) == scaled
    assert scaled == make_dense_game((2, 2), [[["1/2", 0], [1, 1]], [["3/2", 2], [2, 3]]])
    assert scaled != make_dense_game((2, 2), [[["1/2", 0], [1, 1]], [["3/2", 2], [2, 4]]])


def _echo_cells(rng, kind, counts):
    """Seeded payoff cells of one kind, in lex order, for a game whose echo is tested."""
    players, fresh = len(counts), itertools.count(1)
    pools = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(3)]
             for _ in range(players)]

    def value(player):
        if kind == "repeats":  # three values per player, ints and p/q
            return rng.choice(pools[player])
        if kind == "distinct":  # no value twice in the whole table
            return Fraction(next(fresh) * rng.choice((-1, 1)), 11)
        if kind == "integral":  # ints next to p/q in every column
            return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 5)))
        # "scales": the same numerators over a scale per player, players 0 and 2 sharing one
        return Fraction(rng.randint(-4, 4) * 2 + 1, (2, 3, 2)[player])

    return [tuple(map(value, range(players))) for _ in range(math.prod(counts))]


@pytest.mark.parametrize("kind", ["repeats", "distinct", "integral", "scales"])
def test_game_to_json_writes_what_the_per_value_reference_writes(kind):
    rng = random.Random(f"echo-{kind}")
    for round_ in range(12):
        counts = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        if round_ % 3 == 0:
            counts[rng.randrange(len(counts))] = 1  # a player with one strategy
        labels = [[f"s{p}.{s}" for s in range(c)] for p, c in enumerate(counts)] \
            if round_ % 2 else None
        game = game_from_cells(counts, _echo_cells(rng, kind, counts), labels)
        expected = game_to_json_reference(game)
        assert game_to_json(game) == expected
        assert json_text(game_to_json(game)) == json.dumps(expected, indent=2)


@pytest.mark.parametrize("odd", [0, 255, 256, 257, 299, 300, 511, 599])
def test_reduction_reads_every_cell_until_the_gcd_is_one(odd):
    # numerators over 12 are multiples of 6 except one multiple of 3, so the
    # stored scale is 4 wherever that cell sits, in the first row, at the
    # boundary of player 0's two rows of 300, or in the last cell
    cells = [6 * (i % 5 - 2) for i in range(600)]
    cells[odd] = 3
    game = Game((2, 300), rows=[[cells[:300], cells[300:]], [[12, 12]] * 300], scales=[12, 12])
    rows, scale = game.payoff_matrix(0)
    assert scale == 4 and [v for row in rows for v in row] == [v // 3 for v in cells]
    rows, scale = game.payoff_matrix(1)
    assert scale == 1 and {v for row in rows for v in row} == {1}
    cells[odd] = 1  # now the gcd is 1 and nothing is divided
    rows = [cells[:300], cells[300:]]
    assert Game((2, 300), rows=[rows, list(zip(*rows))], scales=[12, 12]).payoff_matrix(0)[1] == 12


def assert_view_quotients_the_matrix(game):
    """``_opponent_classes`` against ``payoff_matrix``, for every player."""
    for player in range(game.player_count):
        view = game._opponent_classes(player)
        rows, keys, scale = view
        matrix, matrix_scale = game.payoff_matrix(player)
        assert scale == matrix_scale and len(rows) == len(matrix) and len(keys) == len(matrix[0])
        for s, row in enumerate(matrix):
            assert [rows[s][keys[q]] for q in range(len(row))] == list(row)
        columns = list(zip(*rows))
        assert len(set(columns)) == len(columns)  # distinct
        assert list(dict.fromkeys(keys)) == list(range(len(columns)))  # first-seen order
        assert game._opponent_classes(player) is view  # cached
    with pytest.raises(InputError):
        game._opponent_classes(True)


def assert_class_rows_cut_the_matrix(game, rng):
    """``_class_rows`` against the distinct ``payoff_matrix`` columns of the
    allowed opponent profiles, in first-seen order, over random allowed sets."""
    counts = game.strategy_counts
    for player in range(game.player_count):
        matrix = game.payoff_matrix(player)[0]
        others = [j for j in range(len(counts)) if j != player]
        for _ in range(4):
            allowed = [sorted(rng.sample(range(c), rng.randint(1, c))) for c in counts]
            profiles = itertools.product(*(range(counts[j]) for j in others))
            kept = {column for column, profile in zip(zip(*matrix), profiles)
                    if all(c in allowed[j] for j, c in zip(others, profile))}
            expected = [column for column in dict.fromkeys(zip(*matrix)) if column in kept]
            assert list(zip(*game._class_rows(player, allowed))) == expected
        full = game._class_rows(player, [range(c) for c in counts])
        assert full is game._opponent_classes(player)[0]  # every class: the cached rows


def test_opponent_classes_keep_each_distinct_column_once():
    # player 0's opponent columns are the 9 profiles of players 1 and 2; its
    # payoff depends only on player 1's choice, so 3 columns are distinct
    cells = [(s + 10 * b, b, c) for s, b, c in itertools.product(range(2), range(3), range(3))]
    game = game_from_cells((2, 3, 3), cells)
    assert_view_quotients_the_matrix(game)
    rows, keys, _ = game._opponent_classes(0)
    assert rows == ((0, 10, 20), (1, 11, 21)) and list(keys) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # player 1's payoff is its own choice, so its 6 opponent columns are all (0, 1, 2)
    assert game._opponent_classes(1)[0] == ((0,), (1,), (2,))
    assert_view_quotients_the_matrix(anchor_game())


@pytest.mark.parametrize("row", [[4, 1, 4, 2, 9], [-1, -2, 5]])
def test_distinct_columns_keep_the_matrix_rows(row):
    # hash(-1) == hash(-2), so the second row's columns share a hash and are
    # told apart by comparing them
    game = game_from_cells((1, len(row)), [(v, v) for v in row])
    assert_view_quotients_the_matrix(game)
    assert game._opponent_classes(1)[0] is game.payoff_matrix(1)[0]
    rows, _ = game.payoff_matrix(0)
    assert (game._opponent_classes(0)[0] is rows) == (len(set(row)) == len(row))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n), st.randoms(use_true_random=False))))
def test_opponent_classes_match_the_matrix_on_random_games(case):
    counts, rng = case
    values = rng.choice([(0, 1), (-1, -2, 3), tuple(range(-9, 10))])
    cells = [tuple(rng.choice(values) for _ in counts)
             for _ in itertools.product(*map(range, counts))]
    game = game_from_cells(counts, cells)
    assert_view_quotients_the_matrix(game)
    assert_class_rows_cut_the_matrix(game, rng)


def _layout_cases():
    """Seeded shapes with n = 2..4, each with a player of one strategy, and
    a lex-order table of distinct cells for each."""
    rng = random.Random("layout")
    for n in (2, 3, 4) * 4:
        counts = [rng.randint(1, 4) for _ in range(n)]
        counts[rng.randrange(n)] = 1
        cells = [tuple(rng.randint(-99, 99) for _ in range(n)) for _ in range(math.prod(counts))]
        yield counts, cells


def test_joined_rows_invert_split_rows():
    for counts, cells in _layout_cases():
        strides = [math.prod(counts[p + 1:]) for p in range(len(counts))]
        assert strides[-1] == 1
        for p, column in enumerate(zip(*cells)):
            column = list(column)
            rows = game_module._split_rows(column, counts[p], strides[p])
            assert len(rows) == counts[p] and {len(row) for row in rows} == {len(column) // counts[p]}
            assert game_module._joined_rows(rows, strides[p]) == column


def test_payoff_reads_the_tables_own_cell_at_every_profile():
    for counts, cells in _layout_cases():
        game = game_from_cells(counts, cells)
        for profile, cell in zip(itertools.product(*map(range, counts)), cells):
            assert tuple(game.payoff(profile, p) for p in range(len(counts))) == cell


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 5), min_size=n, max_size=n), st.randoms(use_true_random=False))))
def test_rows_over_a_common_factor_are_reduced(case):
    counts, rng = case
    cells = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in counts)
             for _ in itertools.product(*map(range, counts))]
    g = game_from_cells(counts, cells)
    # rows and scales times a common factor, which the constructor divides out
    factor = rng.randint(2, 7)
    matrices = [g.payoff_matrix(p) for p in range(len(counts))]
    rows = [[[factor * v for v in row] for row in player_rows] for player_rows, _ in matrices]
    built = Game(counts, rows=rows, scales=[factor * scale for _, scale in matrices])
    assert built == g
    for p in range(len(counts)):
        assert built.payoff_matrix(p) == g.payoff_matrix(p)
    with pytest.raises(InputError, match="player 0 needs"):
        Game(counts, rows=[rows[0][1:]] + rows[1:], scales=[scale for _, scale in matrices])


def test_rows_whose_gcd_is_one_are_stored_as_given():
    rows = [((1, 2), (3, 4)), ((5, 6), (7, 9))]
    game = Game((2, 2), rows=rows, scales=[1, 2])
    for p in range(2):
        for s in range(2):
            assert game.payoff_matrix(p)[0][s] is rows[p][s]


def _keyed_cases():
    """Seeded keyed inputs with n = 2..4: each player's class rows, with
    duplicate class columns, and keys that reference every class in a
    shuffled, not first-seen, order. Each shape has a player of one strategy,
    and every third has a player whose opponents have one profile."""
    rng = random.Random("keyed")
    for case in range(36):
        n = 2 + case % 3
        counts = [rng.randint(1, 4) for _ in range(n)]
        counts[rng.randrange(n)] = 1
        if case % 3 == 0:
            lone = rng.randrange(n)
            counts = [c if p == lone else 1 for p, c in enumerate(counts)]
        total = math.prod(counts)
        factor = rng.choice([1, 1, 2, 6])
        class_rows, keys = [], []
        for count in counts:
            profiles = total // count
            classes = rng.randint(1, profiles)
            columns = [tuple(factor * rng.choice((-3, 0, 1, 5)) for _ in range(count))
                       for _ in range(classes)]
            if classes > 1:  # a duplicate column under another class number
                columns[-1] = columns[0]
            player_keys = list(range(classes)) + [rng.randrange(classes)
                                                 for _ in range(profiles - classes)]
            rng.shuffle(player_keys)
            class_rows.append([list(row) for row in zip(*columns)])
            keys.append(player_keys)
        scales = [factor * rng.randint(1, 5) for _ in counts]
        yield counts, class_rows, keys, scales, rng


def test_keyed_games_equal_the_games_of_their_gathered_rows():
    shapes = set()
    for counts, class_rows, keys, scales, rng in _keyed_cases():
        gathered = [[[row[k] for k in player_keys] for row in player_rows]
                    for player_rows, player_keys in zip(class_rows, keys)]
        keyed = Game(counts, rows=class_rows, scales=scales, keys=keys)
        plain = Game(counts, rows=gathered, scales=scales)
        assert keyed == plain
        for p in range(len(counts)):
            assert keyed.payoff_matrix(p) == plain.payoff_matrix(p)
            assert keyed._opponent_classes(p) == plain._opponent_classes(p)
        assert_view_quotients_the_matrix(keyed)
        assert_class_rows_cut_the_matrix(keyed, rng)
        assert json_text(game_to_json(keyed)) == json_text(game_to_json(plain))
        shapes.add(len(counts))
        if any(len(player_keys) == 1 for player_keys in keys):
            shapes.add("one profile")
        if any(len(set(zip(*player_rows))) < len(player_rows[0]) for player_rows in class_rows):
            shapes.add("duplicate columns")
        if any(list(dict.fromkeys(k)) != sorted(set(k)) for k in keys):  # not first-seen
            shapes.add("renumbered")
    assert shapes == {2, 3, 4, "one profile", "duplicate columns", "renumbered"}


def test_game_from_json_validation():
    with pytest.raises(InputError, match="missing keys"):
        game_from_json({"players": 2})
    with pytest.raises(InputError, match="players=3"):
        game_from_json({"players": 3, "strategy_counts": [2, 2], "payoffs": []})
    with pytest.raises(InputError):
        game_from_json({"players": 2, "strategy_counts": [2, 2],
                        "payoffs": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]})


# int() refuses digit strings past this limit (0: no limit, or an older Python)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_PAST_THE_DIGIT_LIMIT = [
    pytest.param("1" * (_DIGIT_LIMIT + 1), id="numerator-past-the-digit-limit"),
    pytest.param("1/" + "1" * (_DIGIT_LIMIT + 1), id="denominator-past-the-digit-limit"),
] if _DIGIT_LIMIT else []


@pytest.mark.parametrize("text", [
    "0", "-0", "7", "+7", "-7", "007", "4/6", "-4/6", "+1/3", "0/5", "3/1",
    "12345678901234567890/36",
])
def test_rational_grammar_accepts_integers_and_fractions(text):
    assert parse_rational(text) == Fraction(text)
    game = make_dense_game((1, 1), [[[text, 0]]])
    assert game.payoff((0, 0), 0) == Fraction(text)


@pytest.mark.parametrize("value", [
    "1.5", ".5", "1e3", "1e-10000000", "1E2", " 3", "3 ", "3\n", "1_000", "٣",
    "3/0", "-3/0", "3/-4", "1/2/3", "", "+", "/3", "3/", "0x10", "inf", "nan",
    *_PAST_THE_DIGIT_LIMIT, 1.5, True, None,
])
def test_rational_grammar_rejects_everything_else(value):
    with pytest.raises(InputError, match="not a rational number"):
        parse_rational(value)
    with pytest.raises(InputError, match="not a rational number"):
        make_dense_game((1, 1), [[[value, 0]]])


# -- the first bad entry, in cell order ----------------------------------------

@pytest.mark.parametrize("table, message", FIRST_ERRORS)
def test_the_first_bad_entry_in_cell_order_is_named(table, message):
    with pytest.raises(InputError) as raised:
        make_dense_game((2, 2), table)
    assert str(raised.value) == message


@pytest.mark.parametrize("size", [4, 40])  # a short and a long column
def test_the_first_bad_value_is_named_in_long_tables_too(size):
    table = [[[f"{i}/7", i], [i, "1/2"]] for i in range(size)]
    table[1][0][1] = "bad"  # player 1's column, early in cell order
    table[size - 1][1][0] = "worse"  # player 0's column, late in cell order
    with pytest.raises(InputError, match="not a rational number: 'bad'"):
        make_dense_game((size, 2), table)


# -- games of many players -------------------------------------------------------


@pytest.mark.parametrize("players", [995, 1500])
def test_games_of_many_players_build_and_serialize_without_recursion(players):
    payoffs = [f"{2 * p + 1}/2" for p in range(players)]
    for _ in range(players):
        payoffs = [payoffs]
    obj = {"players": players, "strategy_counts": [1] * players, "payoffs": payoffs}
    built = game_from_json(obj)
    assert built.payoff((0,) * players, players - 1) == Fraction(2 * players - 1, 2)
    text = json_text(game_to_json(built))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:  # comparing nested lists and json.dumps recurse once per level
        assert game_to_json(built) == obj
        assert text == json.dumps(obj, indent=2)
    finally:
        sys.setrecursionlimit(limit)


# -- the column parser against the per-value reference ---------------------------


def _reference(values):
    """The column as support.rational_reference reads it, value by value:
    Fractions, or the error text of the first bad value."""
    try:
        return [Fraction(*rational_reference(v)) for v in values]
    except InputError as exc:
        return str(exc)


def _bulk(values):
    """The column as make_dense_game reads it: Fractions, or its error text."""
    parsed = rational_column(list(values))
    try:
        game = make_dense_game((len(values), 1), [[[v, 0]] for v in values])
    except InputError as exc:
        assert parsed is None
        return str(exc)
    if parsed is not None:
        numerators, scale = parsed
        assert [Fraction(n, scale) for n in numerators] == [
            game.payoff((i, 0), 0) for i in range(len(values))]
    return [game.payoff((i, 0), 0) for i in range(len(values))]


SPECIAL = [
    "-0", "+5", "007/014", "-006/4", "1/0", "1/00", "1//2", "1/-2", "1/+2", " 1", "1 ", "1_0",
    "١", "1\n2", "1\n", "\n-1", "1/2\n", "\n", "", "1" * 4301, "1/" + "1" * 4301, "9" * 4300, True, False, 1.5, None,
    Fraction(1, 3), Fraction(6, 3), Fraction(-(10**4999) - 7, 3), 10**5000, -(10**40),
]


def _label(value):
    numerator = getattr(value, "numerator", 0)  # of ints and Fractions
    if abs(numerator) > 10**100:  # too long for repr past Python's int-string digit limit
        return f"{type(value).__name__}-of-{len(str(abs(numerator) // 10**4000)) + 4000}-digits"
    return repr(value)[:20]


@pytest.mark.parametrize("special", SPECIAL, ids=_label)
@pytest.mark.parametrize("length", [3, 40])  # a short and a long column
def test_bulk_parse_reads_what_rational_parts_reads(special, length):
    for position in (0, length // 2, length - 1):
        values = [f"{i - 7}/{i % 5 + 1}" if i % 3 else i - 20 for i in range(length)]
        values[position] = special
        assert _bulk(values) == _reference(values)


VALID_TEXTS = st.builds(
    lambda n, d, sign, zeros, slash: (
        f"{sign}{'0' * zeros}{abs(n)}" + (f"/{'0' * zeros}{d}" if slash else "")),
    st.integers(-10**30, 10**30), st.integers(1, 10**6), st.sampled_from(["", "+", "-"]),
    st.integers(0, 2), st.booleans(),
)
COLUMN_VALUES = st.one_of(
    VALID_TEXTS, VALID_TEXTS, st.integers(-10**30, 10**30), st.fractions(),
    st.sampled_from([s for s in SPECIAL if not (isinstance(s, str) and len(s) > 100)]),
)


#: Equal rationals written differently; as keys, 1 and Fraction(1) are one.
EQUAL_VALUES = [1, Fraction(1), "1", "+1", "2/2", "-0", 0, Fraction(0), "0/7"]
#: Columns drawn from a pool of at most four values, so most values repeat.
REPEATED_COLUMNS = st.lists(
    st.one_of(st.sampled_from(EQUAL_VALUES), COLUMN_VALUES), min_size=1, max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(st.lists(COLUMN_VALUES, min_size=1, max_size=40), REPEATED_COLUMNS))
def test_bulk_parse_matches_rational_parts_on_random_columns(values):
    assert _bulk(values) == _reference(values)


@pytest.mark.parametrize("denominators", [(3, 7), (7, 1), (3, 7, 1), (1, 3, 1)])
def test_a_table_over_disjoint_denominators_reads_as_each_value_alone(denominators):
    """One parse of the whole table over the lcm of every player's
    denominators, then each column reduced by Game, gives the numerators and
    scale of each player's values read one at a time."""
    rng = random.Random(str(denominators))
    players = len(denominators)
    for _ in range(10):
        counts = [rng.randint(1, 4) for _ in range(players)]
        cells = [tuple(rng.randint(-9, 9) if d == 1 else f"{rng.randint(-9, 9)}/{d}"
                       for d in denominators) for _ in range(math.prod(counts))]
        game = game_from_cells(counts, cells)
        for player, column in enumerate(zip(*cells)):
            values = [Fraction(*rational_reference(v)) for v in column]
            scale = math.lcm(*(v.denominator for v in values))
            rows, stored = game.payoff_matrix(player)
            assert stored == scale
            assert game_module._joined_rows(rows, math.prod(counts[player + 1:])) == \
                [int(v * scale) for v in values]


def test_long_mixed_columns_parse_in_bulk():
    values = [f"{i}/{i % 7 + 1}" if i % 4 else i for i in range(-30, 30)]
    expected = [Fraction(*rational_reference(v)) for v in values]
    numerators, scale = rational_column(values)
    assert [Fraction(n, scale) for n in numerators] == expected
    assert rational_column([10**5000, -1, 7] * 10) == ([10**5000, -1, 7] * 10, 1)


def test_tables_of_fractions_build_without_the_cell_order_walk(monkeypatch):
    def walk(counts, table):
        raise AssertionError("walked the table")

    monkeypatch.setattr(game_module, "_raise_first_error", walk)
    cells = [(Fraction(i, 3), Fraction(-i, 7), i, f"{i}/5") for i in range(4 * 3 * 2 * 2)]
    game = game_from_cells((4, 3, 2, 2), cells)
    profiles = itertools.product(range(4), range(3), range(2), range(2))
    for profile, cell in zip(profiles, cells):
        assert payoffs(game, profile) == tuple(map(Fraction, cell))


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("table, message", [
    ([[[_Int(1), 0]]], "not a rational number: 1 (floats are not accepted)"),
    ([[[_Str("1"), 0]]], "not a rational number: '1'"),
    ([_List([[1, 0]])], "axis 1 (player 1) expects 1 entries, got [[1, 0]] at (0,)"),
], ids=["int", "str", "list"])
def test_subclasses_of_the_table_types_are_refused(table, message):
    with pytest.raises(InputError) as raised:
        make_dense_game((1, 1), table)
    assert str(raised.value) == message
