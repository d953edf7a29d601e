import random

import numpy as np
import pytest

import moekgc.kgdata as kgdata
from moekgc.kgdata import (
    DataError,
    FilterIndex,
    ModalityFeatureTable,
    build_filter_index,
    dump_vocab,
    load_graph,
    load_modality,
)
from oracles import scanned_answers


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def make_graph(tmp_path, train, valid=None, test=None, allow_unseen=False):
    # a split left as None has no file
    t = write(tmp_path / "train.tsv", train)
    v = None if valid is None else write(tmp_path / "valid.tsv", valid)
    s = None if test is None else write(tmp_path / "test.tsv", test)
    return load_graph(t, v, s, allow_unseen=allow_unseen)


def test_small_file_loads_and_indexes(tmp_path):
    lines = ["a\tr1\tb", "b\tr1\tc", "a\tr2\tc"]
    kg = load_graph(
        write(tmp_path / "tr.tsv", lines),
        write(tmp_path / "va.tsv", ["a\tr1\tc"]),
        write(tmp_path / "te.tsv", ["b\tr2\tb"]),
    )
    assert kg.n_entities == 3
    assert kg.n_relations == 2
    assert kg.entities == ["a", "b", "c"]  # first-appearance order
    assert kg.relations == ["r1", "r2"]
    assert kg.train.shape == (3, 3)
    fi = build_filter_index(kg)
    assert fi.contains(0, 0, 1)  # a r1 b
    assert not fi.contains(1, 1, 0)


@pytest.mark.parametrize("lines", [[], ["", "\r"]], ids=["empty", "blank-lines"])
def test_only_the_train_split_must_hold_a_triple(tmp_path, lines):
    with pytest.raises(DataError, match=r"train\.tsv: the train split has no triples"):
        make_graph(tmp_path, lines, valid=["a\tr\tb"])
    kg = make_graph(tmp_path, ["a\tr\tb"], valid=lines, test=lines)
    assert kg.valid.shape == kg.test.shape == (0, 3)


def test_vocab_order_spans_splits_in_order(tmp_path):
    kg = load_graph(
        write(tmp_path / "tr.tsv", ["b\tr1\ta"]),
        write(tmp_path / "va.tsv", ["a\tr1\tc"]),
        write(tmp_path / "te.tsv", ["c\tr1\td"]),
        allow_unseen=True,
    )
    assert kg.entities == ["b", "a", "c", "d"]


def test_db15k_shaped_counts(tmp_path):
    n_e, n_r, n_t = 12842, 279, 79222
    lines = [f"e{i % n_e}\tr{i % n_r}\te{(7 * i + 1) % n_e}" for i in range(n_t)]
    kg = make_graph(
        tmp_path,
        lines,
        valid=["e0\tr0\te5"],
        test=["e1\tr1\te6"],
    )
    assert kg.n_entities == n_e
    assert kg.n_relations == n_r
    assert len(kg.train) == n_t


def test_duplicate_triple_names_line(tmp_path):
    with pytest.raises(DataError, match="train.tsv:3.*duplicate"):
        make_graph(tmp_path, ["a\tr\tb", "b\tr\ta", "a\tr\tb"])


def test_malformed_line_names_file_and_line(tmp_path):
    with pytest.raises(DataError, match=r"train\.tsv:2"):
        make_graph(tmp_path, ["a\tr\tb", "a\tr"])


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_graph(str(tmp_path / "nope.tsv"), str(tmp_path / "nope.tsv"), str(tmp_path / "nope.tsv"))


def test_unseen_test_entity_rejected_unless_allowed(tmp_path):
    train = ["a\tr\tb"]
    with pytest.raises(DataError, match="unseen"):
        make_graph(tmp_path, train, test=["a\tr\tzzz"])
    kg = make_graph(tmp_path, train, test=["a\tr\tzzz"], allow_unseen=True)
    assert "zzz" in kg.entity_index


def test_unseen_vocabulary_error_lists_the_first_ten_sorted_names(tmp_path):
    # z and the relation s in valid, twelve new heads and the relation q in
    # test; b is seen in train only as a tail
    valid = ["b\ts\tz", "z\tr\tb"]
    test = [f"x{i:02d}\tq\tb" for i in range(11, -1, -1)]
    with pytest.raises(DataError) as err:
        make_graph(tmp_path, ["a\tr\tb"], valid=valid, test=test)
    names = [f"x{i:02d}" for i in range(10)]
    assert str(err.value) == ("valid/test references unseen train vocabulary: "
                              f"entities {names}, relations ['q', 's'] "
                              "(pass allow_unseen to permit)")


@pytest.mark.parametrize("split", ["valid", "test"])
def test_held_out_triple_in_train_names_file_line_and_triple(tmp_path, split):
    train = ["a\tr\tb", "b\tr\tc", "c\tr\ta"]
    held_out = {split: ["a\tr\tc", "c\tr\ta"]}  # line 2 leaks a train triple
    leak = rf"{split}\.tsv:2: {split} triple \('c', 'r', 'a'\) is also in train"
    with pytest.raises(DataError, match=leak):
        make_graph(tmp_path, train, **held_out)


def test_modality_table_loads(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb", "c\tr\td"])
    path = write(
        tmp_path / "img.tsv",
        ["a\t1.0,2.0,3.0", "b\t4.0,5.0,6.0", "c\t0.5,0.25,0.125", "d\t0,0,1"],
    )
    table = load_modality(path, "image", kg)
    assert table.features.shape == (4, 3)
    assert table.features.dtype == np.float32
    assert table.coverage == 1.0
    assert kg.entity_index["a"] in table.rows
    np.testing.assert_allclose(table.features[table.rows[kg.entity_index["c"]]], [0.5, 0.25, 0.125])


def test_missing_modality_rows_stay_absent(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb", "c\tr\td"])
    table = load_modality(write(tmp_path / "m.tsv", ["a\t1,2"]), "image", kg)
    assert table.coverage == pytest.approx(0.25)
    assert kg.entity_index["b"] not in table.rows
    assert list(table.rows) == [kg.entity_index["a"]]


def test_mkgw_shaped_image_coverage(tmp_path):
    n_e, covered = 15000, 14463
    train = [f"e{i}\tr0\te{i + 1}" for i in range(n_e - 1)]
    kg = make_graph(tmp_path, train, valid=["e0\tr0\te2"], test=["e0\tr0\te3"])
    assert kg.n_entities == n_e
    feats = [f"e{i}\t0.1,0.2,0.3,0.4" for i in range(covered)]
    table = load_modality(write(tmp_path / "img.tsv", feats), "image", kg)
    assert table.coverage == pytest.approx(0.9642, abs=1e-6)


def test_modality_unknown_entity_lists_offenders(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb"])
    path = write(tmp_path / "m.tsv", ["a\t1,2", "ghost\t3,4"])
    with pytest.raises(DataError, match="ghost"):
        load_modality(path, "image", kg)


def test_modality_dim_mismatch_rejected(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb"])
    path = write(tmp_path / "m.tsv", ["a\t1,2", "b\t1,2,3"])
    with pytest.raises(DataError, match="dim"):
        load_modality(path, "image", kg)


def test_modality_duplicate_entity_rejected(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb"])
    path = write(tmp_path / "m.tsv", ["a\t1,2", "a\t3,4"])
    with pytest.raises(DataError, match="duplicate"):
        load_modality(path, "image", kg)


# ---------------------------------------------------------------- feature parsing

def _outcome(parse, path, kg):
    """(features bytes, shape, rows in order) of a parse, or its DataError text."""
    try:
        result = parse(path, kg)
    except DataError as e:
        return str(e)
    if isinstance(result, ModalityFeatureTable):
        result = result.features, result.rows
    features, rows = result
    assert features.dtype == np.float32
    return features.tobytes(), features.shape, list(rows.items())


def _mutate_features(rng, lines):
    """One seeded mutation of feature lines: each kind reaches a place where
    numpy's reader and float() could part ways, or a per-line error."""
    i = rng.randrange(len(lines))
    name, _, values = lines[i].partition("\t")
    vals = values.split(",")
    j = rng.randrange(len(vals))
    kind = rng.choice(["empty", "comma", "underscore", "digits", "nonfinite", "short", "long",
                       "duplicate", "unknown", "hash", "quote", "nul", "spaces", "tabs",
                       "no_tab", "blank", "empty_name"])
    if kind == "empty":
        lines[i] = name + "\t"
    elif kind == "comma":
        lines[i] += rng.choice([",", ",,"])
    elif kind in ("underscore", "digits", "nonfinite", "quote", "nul", "spaces", "hash"):
        vals[j] = {
            "underscore": lambda v: rng.choice(["1_0", "0.2_5", "1__0", "_1"]),
            "digits": lambda v: rng.choice(["\u0661", "\u0663.5", "\uff11", "\u0661e2"]),
            "nonfinite": lambda v: rng.choice(["nan", "-inf", "1e400", "1e39", "infinity"]),
            "quote": lambda v: rng.choice([f'"{v}"', f"'{v}'"]),
            "nul": lambda v: rng.choice([v + "\x00", "\x00" + v, v[:1] + "\x00" + v[1:]]),
            "spaces": lambda v: rng.choice([f" {v} ", f"\u2003{v}", f"{v}\x0c", f"\x1c{v}"]),
            "hash": lambda v: rng.choice(["#" + v, v + "#", "1#2"]),
        }[kind](vals[j])
        lines[i] = name + "\t" + ",".join(vals)
    elif kind == "short" and len(vals) > 1:
        lines[i] = name + "\t" + ",".join(vals[:-1])
    elif kind == "long":
        lines[i] = lines[i] + ",0.5"
    elif kind == "duplicate":
        lines[i] = lines[rng.randrange(len(lines))].split("\t")[0] + "\t" + values
    elif kind == "unknown":
        lines[i] = "ghost\t" + values
    elif kind == "no_tab":
        lines[i] = name + "," + values
    elif kind == "tabs":
        lines[i] = name + "\t" + values.replace(",", "\t", 1)
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "\r"]))
    elif kind == "empty_name":
        lines[i] = "\t" + values


def test_chunked_parse_matches_the_per_line_oracle_on_mutated_files(tmp_path, monkeypatch):
    # a small chunk puts the 30 lines in eight np.loadtxt calls
    monkeypatch.setattr(kgdata, "_PARSE_CHUNK", 4)
    kg = make_graph(tmp_path, [f"e{i}\tr\te{i + 1}" for i in range(39)])
    rng = random.Random(12)
    forms = ["{:.9g}", "{!r}", "{:.3e}", "{:+.4f}", "{:.2f}"]
    base = [f"e{i}\t" + ",".join(rng.choice(forms).format(rng.uniform(-3, 3)) for _ in range(4))
            for i in rng.sample(range(40), 30)]
    seen = {"fast": 0, "fallback": 0, "error": 0}
    for trial in range(400):
        lines = list(base)
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
            _mutate_features(rng, lines)
        text = "".join(line + "\n" for line in lines).encode("utf-8")
        if rng.random() < 0.15:
            text = text.replace(b"\n", b"\r\n")
        if rng.random() < 0.05:
            at = rng.randrange(len(text))
            text = text[:at] + b"\xff" + text[at:]
        path = tmp_path / "m.tsv"
        path.write_bytes(text)
        with np.errstate(over="ignore"):
            want = _outcome(kgdata._parse_per_line, str(path), kg)
            got = _outcome(lambda p, g: load_modality(p, "image", g), str(path), kg)
        assert got == want, (trial, lines)
        fast = kgdata._parse_chunked(str(path), kg)
        if fast is not None:
            # the C reader never takes a file the oracle rejects
            assert _outcome(lambda p, g: fast, str(path), kg) == want, (trial, lines)
        seen["error" if isinstance(want, str) else "fast" if fast else "fallback"] += 1
    # every route is taken: accepted in C, accepted only by float(), rejected
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("values, route, first", [
    (" 1 , 2 ", "fast", 1.0),
    ("1e-1,2", "fast", 0.1),
    ("1_0,2", "fallback", 10.0),  # float() takes underscores, np.loadtxt does not
    ("\u0661,2", "fallback", 1.0),  # and Unicode digits
    ("\u20031,2", "fallback", 1.0),  # both strip Unicode spaces; kept off the C path
    ("\x1c1,2", "error", None),  # np.loadtxt strips this control character, float() does not
    ("", "error", None),  # np.loadtxt would skip the empty list, shifting every later row
    ("1,2,", "error", None),
    ("nan,2", "error", None),
    ("1e39,2", "error", None),  # finite in float64, infinite in float32
])
def test_where_the_readers_part_the_per_line_parser_decides(tmp_path, values, route, first):
    kg = make_graph(tmp_path, ["a\tr\tb"])
    path = write(tmp_path / "m.tsv", ["b\t3,4", f"a\t{values}"])
    assert (kgdata._parse_chunked(path, kg) is not None) == (route == "fast")
    if route == "error":
        with pytest.raises(DataError, match="m.tsv:2: "), np.errstate(over="ignore"):
            load_modality(path, "image", kg)
    else:
        table = load_modality(path, "image", kg)
        assert table.features.tobytes() == np.array([[3, 4], [first, 2]], np.float32).tobytes()


def test_a_well_formed_file_never_reaches_the_per_line_parser(tmp_path, monkeypatch):
    # a refactor that loses the C path fails here rather than only running slower
    def refuse(path, kg):
        raise AssertionError("the per-line parser ran on a well-formed file")

    monkeypatch.setattr(kgdata, "_parse_per_line", refuse)
    n = 2 * kgdata._PARSE_CHUNK + 5
    kg = make_graph(tmp_path, [f"e{i}\tr\te{i + 1}" for i in range(n)])
    rng = np.random.default_rng(3)
    want = rng.normal(size=(n, 3)).astype(np.float32)
    order = rng.permutation(n)
    path = write(tmp_path / "m.tsv", [f"e{e}\t" + ",".join(f"{v:.9g}" for v in want[e])
                                      for e in order])
    table = load_modality(path, "image", kg)
    assert table.features.tobytes() == want[order].tobytes()
    assert list(table.rows.items()) == [(kg.entity_index[f"e{e}"], k) for k, e in enumerate(order)]


def test_structure_modality_id_reserved(tmp_path):
    kg = make_graph(tmp_path, ["a\tr\tb"])
    path = write(tmp_path / "m.tsv", ["a\t1,2"])
    with pytest.raises(DataError, match="reserved"):
        load_modality(path, "structure", kg)


def test_filter_index_matches_linear_scan(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(5):
        n_e, n_r = 8, 3
        combos = [(h, r, t) for h in range(n_e) for r in range(n_r) for t in range(n_e)]
        pick = rng.choice(len(combos), size=40, replace=False)
        triples = [combos[i] for i in pick]
        lines = [f"e{h}\tr{r}\te{t}" for h, r, t in triples]
        sub = tmp_path / f"t{trial}"
        sub.mkdir()
        kg = make_graph(sub, [*lines[:30]], valid=lines[30:35], test=lines[35:])
        all_triples = {tuple(row) for row in np.concatenate([kg.train, kg.valid, kg.test])}
        fi = build_filter_index(kg)
        for h in range(kg.n_entities):
            for r in range(kg.n_relations):
                expect_tails = {t for (hh, rr, t) in all_triples if hh == h and rr == r}
                assert set(fi.true_tails(h, r)) == expect_tails
                for t in range(kg.n_entities):
                    assert fi.contains(h, r, t) == ((h, r, t) in all_triples)


def test_filter_index_array_probes_match_a_python_set():
    rng = np.random.default_rng(19)
    for trial in range(8):
        n_e, n_r = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        n = int(rng.integers(1, 3 * n_e))
        triples = np.stack([rng.integers(0, n_e, n), rng.integers(0, n_r, n),
                            rng.integers(0, n_e, n)], axis=1)
        known = set(map(tuple, triples.tolist()))
        fi = FilterIndex(triples)
        # probe ids from below zero to past the largest indexed id, plus the
        # known triples themselves
        top_e, top_r = int(triples[:, [0, 2]].max()), int(triples[:, 1].max())
        probes = np.concatenate([
            np.stack([rng.integers(-2, top_e + 3, 4000), rng.integers(-2, top_r + 3, 4000),
                      rng.integers(-2, top_e + 3, 4000)], axis=1),
            triples,
        ])
        got = fi.contains(probes[:, 0], probes[:, 1], probes[:, 2])
        want = [tuple(p) in known for p in probes.tolist()]
        assert got.dtype == bool and got.tolist() == want
        assert got[len(probes) - len(triples):].all()
        for p in probes[:50].tolist():
            assert fi.contains(*p) is (tuple(p) in known)
        # out-of-range ids whose raw key (h*R + r)*E + t equals a known key
        n_ent, n_rel = top_e + 1, top_r + 1
        aliases = [(h, r - 1, t + n_ent) for h, r, t in known if r > 0]
        aliases += [(h - 1, r + n_rel, t) for h, r, t in known if h > 0]
        aliases += [(h, r + 1, t - n_ent) for h, r, t in known]
        assert not fi.contains(*np.array(aliases).T).any()


def assert_answers_match_scan(fi, triples, fixed, relation, tails):
    offsets, ids = fi.answers(fixed, relation, tails)
    want = scanned_answers(triples, fixed, relation, tails)
    assert offsets.dtype == ids.dtype == np.int64
    assert offsets[0] == 0 and len(offsets) == len(want) + 1
    assert [ids[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])] == want
    for f, r, side, w in zip(fixed, relation, tails, want):
        lookup = fi.true_tails(f, r) if side else fi.true_heads(r, f)
        assert type(lookup) is frozenset and lookup == frozenset(w)


def test_filter_index_answers_match_a_set_scan():
    rng = np.random.default_rng(29)
    for trial in range(10):
        n_e, n_r = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        n = int(rng.integers(1, 3 * n_e))
        triples = np.stack([rng.integers(0, n_e, n), rng.integers(0, n_r, n),
                            rng.integers(0, n_e, n)], axis=1)
        # the same triple in two splits
        triples = np.concatenate([triples, triples[:n // 3]])
        fi = FilterIndex(triples)
        # every query from below zero to past the largest indexed id: empty
        # runs, runs at both ends of the key range and out-of-range ids
        top_e, top_r = int(triples[:, [0, 2]].max()), int(triples[:, 1].max())
        grid = np.array([(f, r, side) for f in range(-2, top_e + 3) for r in range(-2, top_r + 3)
                         for side in (True, False)], dtype=np.int64)
        order = rng.permutation(len(grid))
        assert_answers_match_scan(fi, triples, grid[order, 0], grid[order, 1],
                                  grid[order, 2].astype(bool))


def test_filter_index_answers_edge_cases():
    empty = FilterIndex(np.zeros((0, 3), dtype=np.int64))
    assert_answers_match_scan(empty, np.zeros((0, 3)), [0, 1, -1], [0, 0, 1], [True, False, True])
    offsets, ids = empty.answers([], [], [])
    assert offsets.tolist() == [0] and ids.size == 0
    # scalars and arrays broadcast: one head, every relation, both sides
    fi = FilterIndex(np.array([[0, 0, 1], [0, 0, 3], [2, 1, 3], [3, 1, 0]]))
    offsets, ids = fi.answers(np.array([[0], [3]]), [0, 1], True)
    assert offsets.tolist() == [0, 2, 2, 2, 3] and ids.tolist() == [1, 3, 0]
    # E near the int64 key limit: E * E * R is just below 2**63
    big = 3_037_000_499
    triples = np.array([[0, 0, big - 1], [big - 1, 0, big - 1], [big - 1, 0, 0],
                        [5, 0, big - 1], [big - 1, 0, 7]], dtype=np.int64)
    fi = FilterIndex(triples)
    assert fi.contains(big - 1, 0, big - 1) and not fi.contains(big, 0, 0)
    fixed = [0, big - 1, big - 1, big, 7, 5, -1, big - 2]
    relation = [0] * 8
    for tails in (True, False):
        assert_answers_match_scan(fi, triples, fixed, relation, [tails] * 8)


def test_filter_index_broadcasts_scalars_against_arrays():
    fi = FilterIndex(np.array([[0, 0, 1], [0, 0, 3], [2, 1, 3]]))
    assert fi.contains(0, 0, np.arange(5)).tolist() == [False, True, False, True, False]
    assert fi.contains(np.array([[0], [2]]), 1, 3).tolist() == [[False], [True]]
    assert not FilterIndex(np.zeros((0, 3), dtype=np.int64)).contains(0, 0, 0)


def test_filter_index_rejects_keys_that_overflow_int64():
    # E = 2**31 + 1 and R = 2: E * E * R is just above 2**63
    big = 2 ** 31
    with pytest.raises(DataError, match="overflow"):
        FilterIndex(np.array([[0, 1, big]], dtype=np.int64))
    FilterIndex(np.array([[0, 0, big]], dtype=np.int64))  # one relation fits
    with pytest.raises(DataError):
        FilterIndex(np.array([[0, -1, 0]], dtype=np.int64))


def test_reserializing_reproduces_index_assignment(tmp_path):
    lines = ["x\tr1\ty", "y\tr2\tz", "z\tr1\tx"]
    kg = make_graph(tmp_path, lines, valid=["x\tr2\ty"], test=["y\tr1\tz"])

    def render(rows):
        return [f"{kg.entities[h]}\t{kg.relations[r]}\t{kg.entities[t]}" for h, r, t in rows]

    out = tmp_path / "again"
    out.mkdir()
    kg2 = make_graph(out, render(kg.train), valid=render(kg.valid), test=render(kg.test))
    assert kg2.entity_index == kg.entity_index
    assert kg2.relation_index == kg.relation_index
    np.testing.assert_array_equal(kg2.train, kg.train)


def test_dump_vocab_round_trips(tmp_path):
    kg = make_graph(tmp_path, ["a\tr1\tb", "c\tr2\ta"])
    e_path, r_path = dump_vocab(kg, str(tmp_path / "vocab"))
    ents = dict(line.split("\t") for line in open(e_path).read().splitlines())
    assert ents == {str(i): name for i, name in enumerate(kg.entities)}
    rels = dict(line.split("\t") for line in open(r_path).read().splitlines())
    assert rels == {str(i): name for i, name in enumerate(kg.relations)}
