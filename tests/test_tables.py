"""One table representation: each structure stores its validated int32
arrays only.  The tuple views ``add``, ``mul``, ``neg`` and ``inv`` are for
readers outside the package, so nothing inside it may build one."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import meadows.structures as structures_module
from meadows import (
    GIL, MD, SIP, FiniteStructure,
    build_galois_field, build_mdk, characteristic, check_axiom_set,
    check_conditional, classify_minimal, decompose, derived_identity_suite,
    dump_structure, expand_to_meadow, field_factors, generating_set,
    idempotents, is_minimal, is_regular, is_squarefree, load_structure,
    principal_ideal, product, pseudoinverses, satisfies_iel,
    subalgebra_generated, unique_double_pseudoinverse, zmod_ring,
)
from meadows.cli import main


def fresh(s):
    """A copy of s with no tuple view built yet."""
    return FiniteStructure(
        s.name, s.size, s.zero, s.one, s._add, s._mul, s._neg, s._inv
    )


@pytest.fixture
def views(monkeypatch):
    """(structure name, table) for every tuple view built during the test."""
    built = []
    get = structures_module._TupleView.__get__

    def spy(self, s, owner=None):
        if s is not None:
            built.append((s.name, self.name))
        return get(self, s, owner)

    monkeypatch.setattr(structures_module._TupleView, "__get__", spy)
    return built


def relabelled_gf256():
    # GF(2^8) with its elements in a seeded order, built from the arrays.
    gf = build_galois_field(2, 8)
    order = np.random.default_rng(8).permutation(256)
    label = np.empty(256, dtype=np.int32)
    label[order] = np.arange(256, dtype=np.int32)
    rows, cols = order[:, None], order[None, :]
    return FiniteStructure(
        "GF(2^8) relabelled", 256, int(label[0]), int(label[1]),
        label[gf._add[rows, cols]], label[gf._mul[rows, cols]],
        label[gf._neg[order]], label[gf._inv[order]],
    )


class TestNoViewInsideThePackage:
    def test_checks_on_md210(self, views):
        s = build_mdk(210)
        assert all(v.holds for v in check_axiom_set(s, {**MD, **SIP}).values())
        assert all(v.holds for v in derived_identity_suite(s).values())
        assert not check_conditional(s, GIL).holds
        assert [f.name for f in field_factors(s)] == ["Z_2", "Z_3", "Z_5", "Z_7"]
        assert views == []

    def test_decompose(self, views, battery):
        for s in battery:
            if s.zero != s.one:
                decompose(fresh(s))
        (component,) = decompose(relabelled_gf256()).components
        assert component.target.name == "GF(2^8)"
        assert views == []

    def test_table_operations(self, views):
        z2, z3 = build_mdk(2), build_mdk(3)
        square = product([z2, z2])
        assert subalgebra_generated(square)[0].size == 2
        assert subalgebra_generated(square, [1])[0].size == 4
        assert principal_ideal(build_mdk(30), 6).ring.size == 5
        assert product([z2, z3]).size == 6
        expanded = expand_to_meadow(zmod_ring(30))
        assert np.array_equal(expanded._inv, build_mdk(30)._inv)
        assert views == []

    def test_classify_and_file_format(self, views):
        rows = classify_minimal(30)
        assert [row.k for row in rows if row.field] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        s = build_mdk(30)
        assert load_structure(dump_structure(s)) == s
        assert views == []

    def test_every_cli_command(self, views, capsys, tmp_path):
        ring = tmp_path / "z30.ring"
        ring.write_text(dump_structure(zmod_ring(30)), encoding="utf-8")
        md = tmp_path / "md30.struct"
        md.write_text(dump_structure(build_mdk(30)), encoding="utf-8")
        for argv in [
            ["eval", "x^-1", "--model", f"file:{md}", "--assign", "x=7"],
            ["check", "x*(x*x^-1) = x", "--model", "mdk:30", "--model",
             "prod:zp:2,gf:2,2", "--model", "q", "--samples", "20"],
            ["check", "x != 0 -> x*x^-1 = 1", "--model", f"file:{md}"],
            ["table", "gf:2,3"],
            ["encode", "x = 0 & y = 0 -> z = 0"],
            ["expand", str(ring)],
            ["decompose", "mdk:30"],
            ["classify", "--bound", "30"],
        ]:
            assert main(argv) in (0, 1), argv
        capsys.readouterr()
        assert views == []


class TestEqualityAndHash:
    def test_file_round_trip_of_the_battery(self, battery):
        for s in battery:
            again = load_structure(dump_structure(s))
            assert again == s, s.name
            assert hash(again) == hash(s), s.name

    def test_unequal_when_one_part_differs(self):
        s = build_mdk(6)
        same = fresh(s)
        assert same == s and hash(same) == hash(s)
        renamed = FiniteStructure("Z/6", 6, 0, 1, s._add, s._mul, s._neg, s._inv)
        mul = s._mul.copy()
        mul[2, 3] = 1
        one_entry = FiniteStructure(s.name, 6, 0, 1, s._add, mul, s._neg, s._inv)
        no_inv = FiniteStructure(s.name, 6, 0, 1, s._add, s._mul, s._neg)
        for other in (renamed, one_entry, no_inv):
            assert other != s and s != other
        assert s != "Md_6"

    def test_equality_and_hash_build_no_view(self, views):
        s, t = build_mdk(30), build_mdk(30)
        assert s == t and hash(s) == hash(t)
        assert views == []

    def test_replace_and_views_keep_their_meaning(self):
        md30 = build_mdk(30)
        ring = dataclasses.replace(md30, inv=None)
        assert ring.inv is None and ring != md30
        assert ring.add == md30.add and ring.mul == md30.mul
        assert dataclasses.replace(ring, inv=md30.inv) == md30
        assert md30.neg == tuple((-x) % 30 for x in range(30))
        assert md30.add is md30.add  # built once, then kept


def test_squarefree_mdk_up_to_210_hold_arrays_only():
    # The 129 structures' int32 tables take about 14.6 MB; a tuple copy of
    # the tables beside them took about 30 MB more.
    ks = [k for k in range(1, 211) if is_squarefree(k)]
    assert len(ks) == 129
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = [build_mdk(k) for k in ks]
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(kept) == 129
    assert held < 20 * 2**20


def test_tables_are_copied_unless_read_only():
    # A writable array stays the caller's, to change as it likes; a
    # read-only one, such as build_mdk's own tables, is kept as it is.
    md6 = build_mdk(6)
    assert not md6._add.flags.writeable and not md6._mul.flags.writeable
    mul = md6._mul.copy()
    s = FiniteStructure("Md_6", 6, 0, 1, md6._add, mul, md6._neg, md6._inv)
    assert s._add is md6._add and s._mul is not mul
    mul[2, 3] = 1
    assert s == md6 and mul.flags.writeable


def loop_closure(s, seeds):
    """The element-by-element scan the frontier masks replaced."""
    current = {s.zero, s.one, *seeds}
    queue = list(current)
    for qi, a in enumerate(queue):  # queue grows while it is walked
        found = [s.neg[a]] + ([] if s.inv is None else [s.inv[a]])
        for b in queue[:qi + 1]:
            found += [s.add[a][b], s.add[b][a], s.mul[a][b], s.mul[b][a]]
        for v in found:
            if v not in current:
                current.add(v)
                queue.append(v)
    return current


def test_table_scans_agree_with_their_loops(small_battery):
    skew = FiniteStructure("skew", 2, 0, 1, ((0, 1), (1, 0)), ((0, 0), (1, 1)), (0, 1))
    rings = [zmod_ring(k) for k in (1, 4, 6, 8, 9, 12)]
    for s in (*small_battery, *rings, skew):
        n = s.size
        closed = loop_closure(s, ())
        assert is_minimal(s) == (len(closed) == n), s.name
        gens = []
        while len(closed) < n:
            gens.append(min(set(range(n)) - closed))
            closed = loop_closure(s, gens)
        assert generating_set(s) == gens, s.name
        for e in range(n):
            _, inclusion = subalgebra_generated(s, [e])
            assert inclusion.mapping == tuple(sorted(loop_closure(s, [e]))), s.name
        assert idempotents(s) == tuple(e for e in range(n) if s.mul[e][e] == e)
        assert satisfies_iel(s) == all(
            any(s.mul[x][y] == s.one for y in range(n)) for x in range(n) if x != s.zero
        )
        x = s.zero
        for k in range(1, n + 1):
            x = s.add[x][s.one]
            if x == s.zero:
                assert characteristic(s) == k, s.name
                break
        for x in range(n):
            mul = s.mul
            assert pseudoinverses(s, x) == [
                y for y in range(n) if mul[mul[x][y]][x] == x
            ]
            hits = [y for y in range(n)
                    if mul[mul[x][x]][y] == x and mul[mul[y][y]][x] == y]
            if len(hits) < 2:
                assert unique_double_pseudoinverse(s, x) == (hits or [None])[0]
        witness = next((x for x in range(n) if not pseudoinverses(s, x)), None)
        assert is_regular(s).witness == witness, s.name
