"""The apply kernel against the ``ite`` formulation of each connective.

Random functions over six variables are built through ``ite`` alone, in
one manager, and every connective that goes through the apply kernel
must return the very node its ``ite`` form returns.  Both kernels share
one computed table, which the cache tests below pin.
"""

import functools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager

VARIABLES = [f"v{i}" for i in range(6)]
#: truth table of the constant 1 over the six variables.
FULL = 2 ** 2 ** len(VARIABLES) - 1


def _literal(index: int) -> int:
    """Truth table of ``VARIABLES[index]`` (``v0`` is the top bit)."""
    shift = len(VARIABLES) - 1 - index
    return sum(1 << i for i in range(FULL.bit_length()) if (i >> shift) & 1)


#: truth tables: arbitrary functions, the constants, and the literals.
tables = st.one_of(
    st.integers(0, FULL),
    st.sampled_from([0, FULL]),
    st.sampled_from(
        [_literal(i) for i in range(len(VARIABLES))]
        + [FULL ^ _literal(i) for i in range(len(VARIABLES))]
    ),
)


def build(mgr: BddManager, table: int) -> int:
    """The BDD of a truth table, by Shannon expansion through ``ite`` only."""
    bits = [(table >> i) & 1 for i in range(FULL.bit_length())]

    def rec(level: int, lo: int, width: int) -> int:
        if width == 1:
            return TRUE if bits[lo] else FALSE
        half = width // 2
        return mgr.ite(
            mgr.var(VARIABLES[level]),
            rec(level + 1, lo + half, half),
            rec(level + 1, lo, half),
        )

    return rec(0, 0, len(bits))


def ite_not(mgr, f):
    return mgr.ite(f, FALSE, TRUE)


def ite_and(mgr, f, g):
    return mgr.ite(f, g, FALSE)


def ite_or(mgr, f, g):
    return mgr.ite(f, TRUE, g)


@given(tables, tables)
@settings(max_examples=120, deadline=None)
def test_binary_connectives_equal_their_ite_forms(f_table, g_table):
    mgr = BddManager(VARIABLES)
    f, g = build(mgr, f_table), build(mgr, g_table)
    for a, b in ((f, g), (g, f), (f, f)):
        assert mgr.and_(a, b) == ite_and(mgr, a, b)
        assert mgr.or_(a, b) == ite_or(mgr, a, b)
        assert mgr.xor(a, b) == mgr.ite(a, ite_not(mgr, b), b)
        assert mgr.xnor(a, b) == mgr.ite(a, b, ite_not(mgr, b))
    assert mgr.not_(f) == ite_not(mgr, f)
    assert mgr.not_(mgr.not_(f)) == f


@given(st.lists(tables, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_nary_connectives_equal_their_ite_forms(operand_tables):
    mgr = BddManager(VARIABLES)
    fs = [build(mgr, table) for table in operand_tables]
    conjunction = functools.reduce(lambda a, b: ite_and(mgr, a, b), fs, TRUE)
    disjunction = functools.reduce(lambda a, b: ite_or(mgr, a, b), fs, FALSE)
    assert mgr.and_(*fs) == conjunction
    assert mgr.or_(*fs) == disjunction
    assert mgr.nand(*fs) == ite_not(mgr, conjunction)
    assert mgr.nor(*fs) == ite_not(mgr, disjunction)


def test_empty_connectives():
    mgr = BddManager(VARIABLES)
    assert (mgr.and_(), mgr.or_(), mgr.nand(), mgr.nor()) == (
        TRUE, FALSE, FALSE, TRUE,
    )


@given(tables, tables)
@settings(max_examples=60, deadline=None)
def test_commuted_operands_hit_the_same_entry(f_table, g_table):
    mgr = BddManager(VARIABLES)
    f, g = build(mgr, f_table), build(mgr, g_table)
    assume(f > TRUE and g > TRUE and f != g)
    mgr.and_(f, g)
    before = mgr.cache_stats()
    mgr.and_(g, f)
    after = mgr.cache_stats()
    assert after["ite_hits"] == before["ite_hits"] + 1
    assert after["ite_misses"] == before["ite_misses"]


class TestOneComputedTable:
    def test_clear_operation_cache_empties_apply_entries(self):
        mgr = BddManager(VARIABLES)
        a, b = mgr.var("v0"), mgr.var("v1")
        f = mgr.xor(a, b)
        g = mgr.not_(mgr.and_(a, b))
        # Apply entries carry a negative operator code in their key.
        assert any(key[0] < 0 for key in mgr._ite_cache)
        mgr.clear_operation_cache()
        assert mgr.cache_stats()["ite_size"] == 0
        assert mgr.xor(a, b) == f
        assert mgr.nand(a, b) == g

    def test_manager_holds_one_memo_dict(self):
        mgr = BddManager(VARIABLES)
        f = build(mgr, 0x0123456789ABCDEF)
        mgr.nor(mgr.xnor(f, mgr.var("v2")), mgr.not_(f))
        mgr.implies(f, mgr.var("v5"))
        memo = [
            name for name, value in vars(mgr).items()
            if isinstance(value, dict)
        ]
        # The unique table, the computed table, and the variable names.
        assert memo == ["_unique", "_ite_cache", "_name_to_level"]
